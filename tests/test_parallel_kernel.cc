/**
 * @file
 * Differential tests for the parallel per-socket kernel: for every
 * eligible configuration the multi-queue kernel run with N worker
 * threads must reproduce the 1-thread sequential oracle byte for
 * byte at the sweep-emitter level (JSON and CSV), across all five
 * designs, synthetic and composed multi-tenant workloads, and both
 * socket counts. Determinism here is by construction -- the cell
 * schedule (which events run in which W-cell, and their (tick, seq)
 * order within a socket's queue) does not depend on the worker
 * count -- so any divergence is a real ordering bug, not noise.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/log.hh"
#include "exp/sweep_engine.hh"
#include "sim/runner.hh"
#include "trace/workload.hh"
#include "test_helpers.hh"
#include "trace/trace_file.hh"
#include "workload/composition.hh"

namespace c3d
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "c3d_parkernel_" + name;
}

/** All five designs x two profiles x {2,4} sockets, seconds-scale. */
exp::SweepGrid
fullDesignGrid()
{
    exp::SweepGrid grid;
    grid.workloads = {profileByName("facesim"),
                      profileByName("canneal")};
    grid.designs = {Design::Baseline, Design::Snoopy,
                    Design::FullDir, Design::C3D,
                    Design::C3DFullDir};
    grid.sockets = {2, 4};
    grid.scale = 256;
    grid.coresPerSocket = 2;
    grid.warmupOps = 300;
    grid.measureOps = 1200;
    return grid;
}

/** Run options that select @p kernel and leave the rest default. */
RunOptions
withKernel(const KernelOptions &kernel)
{
    RunOptions opts;
    opts.kernel = kernel;
    return opts;
}

/** Run @p grid with the given kernel options, single sweep worker. */
exp::ResultTable
runGrid(const exp::SweepGrid &grid, const KernelOptions &kernel)
{
    exp::SweepEngine engine(1);
    engine.setRunOptions(withKernel(kernel));
    return engine.run(grid);
}

TEST(ParallelKernel, AllDesignsMatchSequentialOracleByteForByte)
{
    const exp::SweepGrid grid = fullDesignGrid();

    KernelOptions oracle; // parallel=false: 1-thread multi-queue
    const exp::ResultTable ref = runGrid(grid, oracle);

    KernelOptions two;
    two.parallel = true;
    two.threads = 2;
    const exp::ResultTable t2 = runGrid(grid, two);
    EXPECT_EQ(ref.toJson(), t2.toJson());
    EXPECT_EQ(ref.toCsv(), t2.toCsv());

    KernelOptions four;
    four.parallel = true;
    four.threads = 4;
    const exp::ResultTable t4 = runGrid(grid, four);
    EXPECT_EQ(ref.toJson(), t4.toJson());
    EXPECT_EQ(ref.toCsv(), t4.toCsv());
}

TEST(ParallelKernel, AllProtocolVariantsMatchSequentialOracle)
{
    // The protocol axis crossed with the parallel kernel: every
    // snoopy variant (including Dragon's update fan-out and the
    // store write buffer) must be byte-identical to the 1-thread
    // oracle at the emitter level.
    exp::SweepGrid grid;
    grid.workloads = {profileByName("facesim"),
                      profileByName("canneal")};
    grid.designs = {Design::Snoopy};
    grid.protocols = {Protocol::Mesi, Protocol::Mesif,
                      Protocol::Moesi, Protocol::Dragon};
    grid.sockets = {2, 4};
    grid.scale = 256;
    grid.coresPerSocket = 2;
    grid.warmupOps = 300;
    grid.measureOps = 1200;

    KernelOptions oracle;
    const exp::ResultTable ref = runGrid(grid, oracle);

    KernelOptions four;
    four.parallel = true;
    four.threads = 4;
    const exp::ResultTable t4 = runGrid(grid, four);
    EXPECT_EQ(ref.toJson(), t4.toJson());
    EXPECT_EQ(ref.toCsv(), t4.toCsv());
}

/** Record a small deterministic 2-core trace; @p salt perturbs it. */
TraceFileInfo
writeTrace(const std::string &path, Addr salt = 0)
{
    TraceFileWriter w(path, 2);
    for (std::uint32_t i = 0; i < 200; ++i) {
        for (std::uint16_t c = 0; c < 2; ++c) {
            const Addr base = (i * 13 + c * 101 + salt) % 256;
            w.append({c, static_cast<std::uint16_t>(i % 4),
                      i % 5 == 0 ? MemOp::Write : MemOp::Read,
                      base * 64});
        }
    }
    w.close();
    TraceFileInfo info;
    std::string error;
    EXPECT_TRUE(scanTraceFile(path, info, error)) << error;
    return info;
}

TEST(ParallelKernel, ComposedTenantRowsMatchIncludingQosColumns)
{
    // Two-tenant composition: per-tenant latency percentiles come
    // from histograms that every socket thread updates concurrently,
    // so this exercises the atomic stats path end to end.
    const std::string trace_a = tempPath("tena.c3dt");
    const std::string trace_b = tempPath("tenb.c3dt");
    CompositionSpec spec;
    spec.name = "parmix";
    spec.seed = 42;
    spec.tenants.push_back(
        {trace_a, writeTrace(trace_a).contentHash, 0, 0});
    spec.tenants.push_back(
        {trace_b, writeTrace(trace_b, /*salt=*/7).contentHash, 0, 0});

    const std::string manifest = tempPath("parmix.json");
    std::FILE *f = std::fopen(manifest.c_str(), "w");
    ASSERT_NE(f, nullptr);
    const std::string json = compositionToJson(spec);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);

    WorkloadProfile composed;
    std::string error;
    ASSERT_TRUE(loadCompositionProfile(manifest, composed, error))
        << error;

    exp::SweepGrid grid;
    grid.workloads = {composed};
    grid.designs = {Design::Baseline, Design::C3D};
    grid.sockets = {2, 4};
    grid.scale = 256;
    grid.coresPerSocket = 2;
    grid.warmupOps = 50;
    grid.measureOps = 300;

    const exp::ResultTable ref = runGrid(grid, KernelOptions{});

    KernelOptions four;
    four.parallel = true;
    four.threads = 4;
    const exp::ResultTable par = runGrid(grid, four);

    EXPECT_EQ(ref.toJson(), par.toJson());
    EXPECT_EQ(ref.toCsv(), par.toCsv());

    std::remove(manifest.c_str());
    std::remove(trace_a.c_str());
    std::remove(trace_b.c_str());
}

/** Every field of two RunResults agrees; @p what labels failures. */
void
expectSameResult(const RunResult &a, const RunResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.measuredTicks, b.measuredTicks) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.memReads, b.memReads) << what;
    EXPECT_EQ(a.memWrites, b.memWrites) << what;
    EXPECT_EQ(a.remoteMemReads, b.remoteMemReads) << what;
    EXPECT_EQ(a.remoteMemWrites, b.remoteMemWrites) << what;
    EXPECT_EQ(a.dramCacheHits, b.dramCacheHits) << what;
    EXPECT_EQ(a.dramCacheMisses, b.dramCacheMisses) << what;
    EXPECT_EQ(a.llcMisses, b.llcMisses) << what;
    EXPECT_EQ(a.interSocketBytes, b.interSocketBytes) << what;
    EXPECT_EQ(a.broadcasts, b.broadcasts) << what;
    EXPECT_EQ(a.broadcastsElided, b.broadcastsElided) << what;
    EXPECT_EQ(a.predictorTrains, b.predictorTrains) << what;
    EXPECT_EQ(a.predictorBypasses, b.predictorBypasses) << what;
    EXPECT_EQ(a.predictorGhostHits, b.predictorGhostHits) << what;
    EXPECT_EQ(a.predictorFalsePresent, b.predictorFalsePresent)
        << what;
    EXPECT_EQ(a.tenants.size(), b.tenants.size()) << what;
}

TEST(ParallelKernel, IneligibleConfigsRunOnOneQueueAtAnyThreadCount)
{
    // Ineligible machines (no cross-socket lookahead, or a
    // machine-global table on every access) run on one shared queue.
    // Requesting worker threads must neither fail nor let two
    // workers run that queue: every thread count gives the 1-thread
    // result.
    SystemConfig one_socket = test::tinyConfig(Design::C3D, 1, 2);
    SystemConfig zero_hop = test::tinyConfig(Design::C3D, 4, 2);
    zero_hop.zeroHopLatency = true;
    SystemConfig tlb = test::tinyConfig(Design::C3D, 4, 2);
    tlb.tlbPageClassification = true;
    const WorkloadProfile prof = test::tinyProfile("one-queue");

    for (const SystemConfig &cfg : {one_socket, zero_hop, tlb}) {
        ASSERT_FALSE(Machine::parallelKernelEligible(cfg));
        const RunResult ref =
            runWorkload(cfg, prof, 100, 400);
        EXPECT_GT(ref.instructions, 0u);
        for (unsigned t : {1u, 2u, 4u}) {
            KernelOptions k;
            k.parallel = true;
            k.threads = t;
            expectSameResult(ref,
                             runWorkload(cfg, prof, 100, 400,
                                         withKernel(k)),
                             std::to_string(cfg.numSockets) +
                                 " sockets, " + std::to_string(t) +
                                 " threads");
        }
    }
}

/**
 * Each core reads a few blocks of its own, so after the first touches
 * every access is an L1 hit and a core leaves no event behind when it
 * parks at the barrier. Cores run at different speeds, so the last
 * arrival of an episode leaves every queue and outbox empty: the
 * boundary hook's release is then the only pending work in the
 * machine.
 */
class ParkedAtBarrierWorkload : public Workload
{
  public:
    explicit ParkedAtBarrierWorkload(std::uint32_t cores)
        : cursor(cores, 0)
    {}
    const std::string &name() const override { return label; }
    TraceOp
    next(CoreId core) override
    {
        TraceOp op;
        op.gap = 5 + 37 * core;
        op.op = MemOp::Read;
        op.addr = 0x400000 + core * 0x10000 +
            (cursor[core]++ % 4) * BlockBytes;
        return op;
    }
    std::uint64_t barrierInterval() const override { return 10; }

  private:
    std::string label = "parked-at-barrier";
    std::vector<std::uint64_t> cursor;
};

TEST(ParallelKernel, BarrierReleaseIsTheOnlyWakeupAtEveryThreadCount)
{
    // The executor finds the next cell from what the workers published
    // and what the router staged; only the hook's own report tells it
    // about the resumes a barrier release schedules. If it missed them
    // here it would see a drained machine and panic (lost wakeup), or
    // run the resumes in the wrong cell.
    const SystemConfig cfg = test::tinyConfig(Design::C3D, 4, 1);
    ASSERT_TRUE(Machine::parallelKernelEligible(cfg));
    auto run_with = [&cfg](unsigned threads, std::uint64_t &episodes) {
        ParkedAtBarrierWorkload wl(cfg.totalCores());
        KernelOptions k;
        k.parallel = threads > 1;
        k.threads = threads;
        Runner r(cfg, wl, withKernel(k));
        const RunResult res = r.run(20, 200);
        episodes = r.machine().stats().valueOf("barrier.episodes");
        return res;
    };
    std::uint64_t ref_episodes = 0;
    const RunResult ref = run_with(1, ref_episodes);
    EXPECT_GT(ref.instructions, 0u);
    EXPECT_GE(ref_episodes, 15u);
    for (unsigned t : {2u, 4u}) {
        std::uint64_t episodes = 0;
        expectSameResult(ref, run_with(t, episodes),
                         std::to_string(t) + " threads");
        EXPECT_EQ(episodes, ref_episodes);
    }
}

TEST(ParallelKernel, ThreadCountDoesNotChangeEligibleRunResults)
{
    // Direct runWorkload-level check (no sweep emitters in the
    // loop): every metric the runner extracts is identical across
    // 1, 2, 3 and 8 threads -- including a thread count that does
    // not divide the socket count and one that exceeds it.
    SystemConfig cfg = test::tinyConfig(Design::C3DFullDir, 4, 2);
    ASSERT_TRUE(Machine::parallelKernelEligible(cfg));
    WorkloadProfile prof = test::tinyProfile("threads");

    const RunResult ref =
        runWorkload(cfg, prof, 200, 800);
    for (unsigned t : {2u, 3u, 8u}) {
        KernelOptions k;
        k.parallel = true;
        k.threads = t;
        expectSameResult(ref,
                         runWorkload(cfg, prof, 200, 800,
                                     withKernel(k)),
                         std::to_string(t) + " threads");
    }
}

/** Every counter value and every histogram field of one run. */
struct StatSnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::vector<std::uint64_t>>>
        histograms;
};

/** Run @p cfg on the multi-queue kernel with @p threads workers and
 * read back its whole StatGroup. */
StatSnapshot
snapshotStats(const SystemConfig &cfg, unsigned threads)
{
    SyntheticWorkload wl(test::tinyProfile("shards"), cfg.totalCores(),
                         cfg.coresPerSocket);
    KernelOptions k;
    k.parallel = true;
    k.threads = threads;
    Runner r(cfg, wl, withKernel(k));
    r.run(200, 800);
    StatSnapshot snap;
    const StatGroup &sg = r.machine().stats();
    for (const Counter *c : sg.allCounters())
        snap.counters.emplace_back(c->name(), c->value());
    for (const Histogram *h : sg.allHistograms()) {
        std::vector<std::uint64_t> fields = {h->count(), h->sum(),
                                             h->min(), h->max()};
        for (unsigned b = 0; b < Histogram::NumBuckets; ++b)
            fields.push_back(h->bucket(b));
        snap.histograms.emplace_back(h->name(), std::move(fields));
    }
    return snap;
}

TEST(ParallelKernel, FourWorkersReproduceEveryStatOfOneWorker)
{
    // Stats are sharded per kernel worker; the read side must add
    // the shards back to exactly the 1-worker values, field by field.
    for (const Design d : {Design::Baseline, Design::C3D,
                           Design::C3DFullDir}) {
        SystemConfig cfg = test::tinyConfig(d, 4, 2);
        ASSERT_TRUE(Machine::parallelKernelEligible(cfg));
        const StatSnapshot one = snapshotStats(cfg, 1);
        const StatSnapshot four = snapshotStats(cfg, 4);
        ASSERT_EQ(one.counters.size(), four.counters.size());
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < one.counters.size(); ++i) {
            EXPECT_EQ(one.counters[i], four.counters[i]);
            total += one.counters[i].second;
        }
        EXPECT_GT(total, 0u);
        ASSERT_EQ(one.histograms.size(), four.histograms.size());
        std::uint64_t samples = 0;
        for (std::size_t i = 0; i < one.histograms.size(); ++i) {
            samples += one.histograms[i].second[0];
            EXPECT_EQ(one.histograms[i].first,
                      four.histograms[i].first);
            EXPECT_EQ(one.histograms[i].second,
                      four.histograms[i].second)
                << one.histograms[i].first;
        }
        EXPECT_GT(samples, 0u);
    }
}

} // namespace
} // namespace c3d
