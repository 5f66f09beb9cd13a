/**
 * @file
 * Tests for the Runner: warm-up/measurement windows, metrics, and
 * multi-run isolation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/log.hh"
#include "sim/inline_function.hh"
#include "sim/runner.hh"
#include "test_helpers.hh"

namespace c3d
{
namespace
{

using test::tinyConfig;
using test::tinyProfile;

TEST(Runner, ProducesNonTrivialMetrics)
{
    setQuiet(true);
    SystemConfig cfg = tinyConfig(Design::C3D);
    SyntheticWorkload wl(tinyProfile(), cfg.totalCores(),
                         cfg.coresPerSocket);
    Runner r(cfg, wl);
    const RunResult res = r.run(500, 1500);
    EXPECT_GT(res.measuredTicks, 0u);
    EXPECT_GT(res.instructions, 1500u * cfg.totalCores());
    EXPECT_GT(res.memReads, 0u);
    EXPECT_GT(res.ipc(), 0.0);
    EXPECT_LT(res.ipc(), static_cast<double>(cfg.totalCores()));
}

TEST(Runner, NoCallbackHeapFallbacksInAnyDesign)
{
    // Perf contract (docs/perf.md): every continuation the simulator
    // schedules fits the event's inline-capture budget. A capture
    // that outgrows it still runs correctly but silently costs a
    // heap allocation per event -- this test turns that into a
    // failure for each coherence design's scheduling paths.
    setQuiet(true);
    for (const Design d :
         {Design::Baseline, Design::Snoopy, Design::FullDir,
          Design::C3D, Design::C3DFullDir}) {
        SystemConfig cfg = tinyConfig(d);
        SyntheticWorkload wl(tinyProfile(), cfg.totalCores(),
                             cfg.coresPerSocket);
        Runner r(cfg, wl);
        r.run(300, 1200);
        EXPECT_EQ(r.machine().totalHeapCallbackEvents(), 0u)
            << "design " << designName(d);
    }
}

TEST(Runner, NoContinuationSpillsInAnyDesign)
{
    // Perf contract (docs/perf.md "Spill rule"): request-path
    // continuations fit their inline budgets. The one spill left is
    // an owner forward's probe continuation (a 32-byte request
    // continuation cannot nest in a 24-byte one), so a run spills
    // exactly once per `proto.forwards`. The Socket's DRAM-cache
    // probe and write-completion continuations, which spilled on
    // every LLC miss and every GetX, and the snoop probe's DRAM-cache
    // step, which spilled on every snoop, must not come back. A
    // 1-thread kernel runs every event on this thread, where the
    // spill counter lives.
    setQuiet(true);
    std::vector<SystemConfig> cfgs;
    for (const Design d :
         {Design::Baseline, Design::Snoopy, Design::FullDir,
          Design::C3D, Design::C3DFullDir})
        cfgs.push_back(tinyConfig(d));
    for (const Protocol p :
         {Protocol::Mesif, Protocol::Moesi, Protocol::Dragon}) {
        cfgs.push_back(tinyConfig(Design::Snoopy));
        cfgs.back().protocol = p;
    }
    for (const SystemConfig &cfg : cfgs) {
        SyntheticWorkload wl(tinyProfile(), cfg.totalCores(),
                             cfg.coresPerSocket);
        Runner r(cfg, wl);
        const std::uint64_t before = inlineFunctionSpills;
        const RunResult res = r.run(0, 1500);
        EXPECT_GT(res.memReads, 0u);
        EXPECT_EQ(inlineFunctionSpills - before,
                  r.machine().stats().valueOf("proto.forwards"))
            << designName(cfg.design) << "/"
            << protocolName(cfg.protocol);
    }
}

TEST(Runner, WarmupExcludedFromWindow)
{
    setQuiet(true);
    SystemConfig cfg = tinyConfig(Design::Baseline);
    // Same measurement quota, different warm-up: measured reads stay
    // in the same ballpark (the warm-up accesses are not counted).
    const RunResult a = runWorkload(cfg, tinyProfile(), 200, 2000);
    const RunResult b = runWorkload(cfg, tinyProfile(), 2000, 2000);
    const double ratio = static_cast<double>(a.memReads) /
        static_cast<double>(b.memReads);
    EXPECT_GT(ratio, 0.7);
    EXPECT_LT(ratio, 1.5);
}

TEST(Runner, LongerWarmupImprovesDramCacheHitRate)
{
    setQuiet(true);
    SystemConfig cfg = tinyConfig(Design::C3D);
    const RunResult cold = runWorkload(cfg, tinyProfile(), 100, 2000);
    const RunResult warm = runWorkload(cfg, tinyProfile(), 5000, 2000);
    const double cold_rate = static_cast<double>(cold.dramCacheHits) /
        (cold.dramCacheHits + cold.dramCacheMisses + 1);
    const double warm_rate = static_cast<double>(warm.dramCacheHits) /
        (warm.dramCacheHits + warm.dramCacheMisses + 1);
    EXPECT_GE(warm_rate, cold_rate);
}

TEST(Runner, MeasureScalesWithQuota)
{
    setQuiet(true);
    SystemConfig cfg = tinyConfig(Design::Baseline);
    const RunResult small = runWorkload(cfg, tinyProfile(), 500, 1000);
    const RunResult big = runWorkload(cfg, tinyProfile(), 500, 4000);
    const double ratio = static_cast<double>(big.instructions) /
        static_cast<double>(small.instructions);
    EXPECT_NEAR(ratio, 4.0, 0.3);
}

TEST(Runner, SingleThreadedRunsOnlyCoreZero)
{
    setQuiet(true);
    SystemConfig cfg = tinyConfig(Design::C3D);
    WorkloadProfile p = tinyProfile("st");
    p.singleThreaded = true;
    SyntheticWorkload wl(p, cfg.totalCores(), cfg.coresPerSocket);
    Runner r(cfg, wl);
    const RunResult res = r.run(200, 800);
    EXPECT_GT(res.measuredTicks, 0u);
    EXPECT_EQ(r.cores()[0]->opsIssued(), 1000u);
    for (std::size_t c = 1; c < r.cores().size(); ++c)
        EXPECT_EQ(r.cores()[c]->opsIssued(), 0u);
}

TEST(Runner, BarriersBoundCoreSkew)
{
    setQuiet(true);
    SystemConfig cfg = tinyConfig(Design::Baseline);
    WorkloadProfile p = tinyProfile();
    p.barrierOps = 500;
    SyntheticWorkload wl(p, cfg.totalCores(), cfg.coresPerSocket);
    Runner r(cfg, wl);
    r.run(1000, 3000);
    Tick fmin = MaxTick, fmax = 0;
    for (const auto &c : r.cores()) {
        fmin = std::min(fmin, c->finishAt());
        fmax = std::max(fmax, c->finishAt());
    }
    EXPECT_LT(static_cast<double>(fmax - fmin),
              0.2 * static_cast<double>(fmax));
}

TEST(Runner, RunWorkloadConvenienceMatchesManual)
{
    setQuiet(true);
    SystemConfig cfg = tinyConfig(Design::C3D);
    const RunResult a = runWorkload(cfg, tinyProfile(), 500, 1500);
    SyntheticWorkload wl(tinyProfile(), cfg.totalCores(),
                         cfg.coresPerSocket);
    Runner r(cfg, wl);
    const RunResult b = r.run(500, 1500);
    EXPECT_EQ(a.measuredTicks, b.measuredTicks);
    EXPECT_EQ(a.memReads, b.memReads);
}

} // namespace
} // namespace c3d
