/**
 * @file
 * Unit tests for the trace CPU: store queue, forwarding, barriers.
 */

#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "cpu/barrier.hh"
#include "cpu/trace_cpu.hh"
#include "sim/machine.hh"
#include "sim/runner.hh"
#include "test_helpers.hh"

namespace c3d
{
namespace
{

using test::tinyConfig;

/** A scripted workload serving a fixed list of ops to core 0. */
class ScriptedWorkload : public Workload
{
  public:
    explicit ScriptedWorkload(std::vector<TraceOp> ops)
        : script(std::move(ops))
    {}

    const std::string &name() const override { return wlName; }

    TraceOp
    next(CoreId core) override
    {
        if (core != 0 || cursor >= script.size())
            return TraceOp{1, MemOp::Read, 0};
        return script[cursor++];
    }

    std::uint32_t activeCores(std::uint32_t) const override
    {
        return 1;
    }

  private:
    std::string wlName = "scripted";
    std::vector<TraceOp> script;
    std::size_t cursor = 0;
};

TEST(TraceCpu, ExecutesQuotaAndStops)
{
    Machine m(tinyConfig(Design::Baseline, 2, 1));
    std::vector<TraceOp> ops;
    for (int i = 0; i < 20; ++i)
        ops.push_back({2, MemOp::Read, static_cast<Addr>(i) * 64});
    ScriptedWorkload wl(ops);
    TraceCpu cpu(m, 0, wl, &m.stats());
    bool warm = false, done = false;
    cpu.start(5, 15, [&] { warm = true; }, [&] { done = true; });
    m.eventQueue().run();
    EXPECT_TRUE(warm);
    EXPECT_TRUE(done);
    EXPECT_EQ(cpu.opsIssued(), 20u);
    EXPECT_TRUE(cpu.finished());
}

TEST(TraceCpu, CountsInstructionsAfterWarmup)
{
    Machine m(tinyConfig(Design::Baseline, 2, 1));
    std::vector<TraceOp> ops;
    for (int i = 0; i < 10; ++i)
        ops.push_back({4, MemOp::Read, static_cast<Addr>(i) * 64});
    ScriptedWorkload wl(ops);
    TraceCpu cpu(m, 0, wl, &m.stats());
    cpu.start(4, 6, nullptr, nullptr);
    m.eventQueue().run();
    // 6 measured ops x (4 gap + 1 mem) instructions.
    EXPECT_EQ(cpu.instructions(), 30u);
}

TEST(TraceCpu, ZeroOpsFinishesImmediately)
{
    Machine m(tinyConfig(Design::Baseline, 2, 1));
    ScriptedWorkload wl({});
    TraceCpu cpu(m, 0, wl, &m.stats());
    bool done = false;
    cpu.start(0, 0, nullptr, [&] { done = true; });
    m.eventQueue().run();
    EXPECT_TRUE(done);
}

TEST(TraceCpu, StoreForwardingServesLoads)
{
    Machine m(tinyConfig(Design::Baseline, 2, 1));
    // Store then immediately load the same block: the load forwards
    // from the store queue instead of going to the cache.
    std::vector<TraceOp> ops = {
        {0, MemOp::Write, 0x9000},
        {0, MemOp::Read, 0x9020}, // same 64 B block
    };
    ScriptedWorkload wl(ops);
    TraceCpu cpu(m, 0, wl, &m.stats());
    cpu.start(0, 2, nullptr, nullptr);
    m.eventQueue().run();
    EXPECT_EQ(m.stats().valueOf("cpu0.forwarded_loads"), 1u);
}

TEST(TraceCpu, StoreQueueBackpressureStalls)
{
    SystemConfig cfg = tinyConfig(Design::Baseline, 2, 1);
    cfg.storeQueueEntries = 2; // tiny queue
    Machine m(cfg);
    std::vector<TraceOp> ops;
    // A burst of stores to distinct remote blocks backs up the queue.
    for (int i = 0; i < 16; ++i)
        ops.push_back({0, MemOp::Write,
                       0x10000 + static_cast<Addr>(i) * 64});
    ScriptedWorkload wl(ops);
    TraceCpu cpu(m, 0, wl, &m.stats());
    cpu.start(0, 16, nullptr, nullptr);
    m.eventQueue().run();
    EXPECT_GT(m.stats().valueOf("cpu0.sq_stalls"), 0u);
    EXPECT_TRUE(cpu.finished());
}

TEST(TraceCpu, FinishWaitsForStoreQueueDrain)
{
    Machine m(tinyConfig(Design::Baseline, 2, 1));
    std::vector<TraceOp> ops = {{0, MemOp::Write, 0x9000}};
    ScriptedWorkload wl(ops);
    TraceCpu cpu(m, 0, wl, &m.stats());
    Tick done_at = 0;
    cpu.start(0, 1, nullptr,
              [&] { done_at = m.eventQueue().now(); });
    m.eventQueue().run();
    // The store itself takes far longer than the 1-cycle issue.
    EXPECT_GT(done_at, 10u);
}

/** Arrive at @p b as @p core; the resume logs (core, tick) to @p log. */
void
arriveLogged(Barrier &b, EventQueue &eq, CoreId core,
             std::vector<std::pair<CoreId, Tick>> &log)
{
    b.arrive(core,
             [&eq, &log, core] { log.emplace_back(core, eq.now()); });
}

TEST(Barrier, ReleasesCompleteEpisodeAtBoundaryInCoreOrder)
{
    StatGroup g("t");
    EventQueue eq;
    auto queue_of = [&eq](CoreId) -> EventQueue & { return eq; };
    Barrier b;
    b.init(3, &g, "b");
    std::vector<std::pair<CoreId, Tick>> log;
    arriveLogged(b, eq, 2, log);
    arriveLogged(b, eq, 0, log);
    EXPECT_FALSE(b.quantRelease(40, queue_of));
    arriveLogged(b, eq, 1, log);
    // Arrival never resumes anyone; the boundary does.
    EXPECT_TRUE(log.empty());
    EXPECT_TRUE(b.quantRelease(80, queue_of));
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(g.valueOf("b.episodes"), 1u);
    eq.run();
    const std::vector<std::pair<CoreId, Tick>> want = {
        {0, 80}, {1, 80}, {2, 80}};
    EXPECT_EQ(log, want);
    // The episode is closed: the next boundary releases nothing.
    EXPECT_FALSE(b.quantRelease(120, queue_of));
}

TEST(Barrier, Reusable)
{
    StatGroup g("t");
    EventQueue eq;
    auto queue_of = [&eq](CoreId) -> EventQueue & { return eq; };
    Barrier b;
    b.init(2, &g, "b");
    std::vector<std::pair<CoreId, Tick>> log;
    for (Tick q : {10, 20}) {
        arriveLogged(b, eq, 1, log);
        arriveLogged(b, eq, 0, log);
        EXPECT_TRUE(b.quantRelease(q, queue_of));
        eq.run();
    }
    const std::vector<std::pair<CoreId, Tick>> want = {
        {0, 10}, {1, 10}, {0, 20}, {1, 20}};
    EXPECT_EQ(log, want);
    EXPECT_EQ(g.valueOf("b.episodes"), 2u);
}

TEST(Barrier, RetireCompletesEpisode)
{
    StatGroup g("t");
    EventQueue eq;
    auto queue_of = [&eq](CoreId) -> EventQueue & { return eq; };
    Barrier b;
    b.init(3, &g, "b");
    std::vector<std::pair<CoreId, Tick>> log;
    arriveLogged(b, eq, 0, log);
    arriveLogged(b, eq, 1, log);
    EXPECT_FALSE(b.quantRelease(10, queue_of));
    // The third party finishes its quota instead of arriving; the
    // next boundary finds the episode complete.
    b.retire();
    EXPECT_EQ(b.parties(), 2u);
    EXPECT_TRUE(log.empty());
    EXPECT_TRUE(b.quantRelease(20, queue_of));
    eq.run();
    const std::vector<std::pair<CoreId, Tick>> want = {{0, 20},
                                                       {1, 20}};
    EXPECT_EQ(log, want);
}

TEST(Barrier, CpusSynchronizeThroughBarrier)
{
    // Two cores with very different memory behaviour still track
    // each other when the workload asks for a barrier.
    class TwoSpeedWorkload : public Workload
    {
      public:
        const std::string &name() const override { return n; }
        TraceOp
        next(CoreId core) override
        {
            TraceOp op;
            op.gap = core == 0 ? 0 : 50; // core 1 is much slower
            op.op = MemOp::Read;
            op.addr = 0x100000 + (core * 0x10000) +
                (cursor[core]++ % 64) * BlockBytes;
            return op;
        }
        std::uint64_t barrierInterval() const override { return 10; }
        std::string n = "two-speed";
        std::uint64_t cursor[2] = {0, 0};
    } wl;

    Runner runner(tinyConfig(Design::Baseline, 2, 1), wl);
    runner.run(0, 100);
    EXPECT_EQ(runner.machine().stats().valueOf("barrier.episodes"), 9u);
    const Tick f0 = runner.cores()[0]->finishAt();
    const Tick f1 = runner.cores()[1]->finishAt();
    ASSERT_GT(f0, 0u);
    ASSERT_GT(f1, 0u);
    // Within one barrier interval of each other.
    const double ratio = static_cast<double>(std::max(f0, f1)) /
        static_cast<double>(std::min(f0, f1));
    EXPECT_LT(ratio, 1.25);
}

TEST(TraceCpu, TlbTrapsChargedWhenClassifying)
{
    SystemConfig cfg = tinyConfig(Design::C3D, 2, 1);
    cfg.tlbPageClassification = true;
    Machine m(cfg);
    std::vector<TraceOp> ops;
    for (int i = 0; i < 8; ++i)
        ops.push_back({0, MemOp::Read,
                       static_cast<Addr>(i) * PageBytes});
    ScriptedWorkload wl(ops);
    TraceCpu cpu(m, 0, wl, &m.stats());
    cpu.start(0, 8, nullptr, nullptr);
    m.eventQueue().run();
    // Eight first touches -> eight traps.
    EXPECT_EQ(m.stats().valueOf("cpu0.tlb_traps"), 8u);
}

} // namespace
} // namespace c3d
