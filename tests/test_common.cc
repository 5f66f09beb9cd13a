/**
 * @file
 * Unit tests for src/common: types/units, RNG, stats.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace c3d
{
namespace
{

TEST(Types, NsToTicksUsesThreeGHzClock)
{
    EXPECT_EQ(nsToTicks(0), 0u);
    EXPECT_EQ(nsToTicks(1), 3u);
    EXPECT_EQ(nsToTicks(40), 120u);
    EXPECT_EQ(nsToTicks(50), 150u);
    EXPECT_EQ(ticksToNs(nsToTicks(20)), 20u);
}

TEST(Types, BlockAlignmentHelpers)
{
    EXPECT_EQ(blockAlign(0), 0u);
    EXPECT_EQ(blockAlign(63), 0u);
    EXPECT_EQ(blockAlign(64), 64u);
    EXPECT_EQ(blockAlign(0x12345), 0x12340u);
    EXPECT_EQ(blockNumber(128), 2u);
    EXPECT_EQ(pageNumber(4096), 1u);
    EXPECT_EQ(pageAlign(4097), 4096u);
}

TEST(Bandwidth, SerializationMatchesRate)
{
    // 12.8 GB/s == 12.8 bytes/ns == 64 B in 5 ns == 15 ticks.
    Bandwidth bw = Bandwidth::fromGBps(12.8);
    EXPECT_TRUE(bw.valid());
    const Tick t = bw.serializationTicks(64);
    EXPECT_GE(t, 15u);
    EXPECT_LE(t, 16u); // allow the fixed-point ceiling
}

TEST(Bandwidth, InfiniteBandwidthIsZeroOccupancy)
{
    Bandwidth bw; // default: infinite
    EXPECT_FALSE(bw.valid());
    EXPECT_EQ(bw.serializationTicks(1 << 20), 0u);
}

TEST(Bandwidth, HigherRateIsFaster)
{
    Bandwidth slow = Bandwidth::fromGBps(12.8);
    Bandwidth fast = Bandwidth::fromGBps(25.6);
    EXPECT_LT(fast.serializationTicks(4096),
              slow.serializationTicks(4096));
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = r.below(37);
        EXPECT_LT(v, 37u);
    }
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng r(11);
    std::vector<int> buckets(8, 0);
    const int samples = 80000;
    for (int i = 0; i < samples; ++i)
        ++buckets[r.below(8)];
    for (int b : buckets) {
        EXPECT_GT(b, samples / 8 - samples / 40);
        EXPECT_LT(b, samples / 8 + samples / 40);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Stats, CounterRegistersAndCounts)
{
    StatGroup g("test");
    Counter c;
    c.init(&g, "events", "demo");
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(g.valueOf("events"), 5u);
    EXPECT_TRUE(g.has("events"));
    EXPECT_FALSE(g.has("missing"));
}

TEST(Stats, ResetAllClearsCounters)
{
    StatGroup g("test");
    Counter a, b;
    a.init(&g, "a");
    b.init(&g, "b");
    a += 10;
    b += 20;
    g.resetAll();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
}

TEST(Stats, SumMatchingAggregatesBySubstring)
{
    StatGroup g("test");
    Counter a, b, c;
    a.init(&g, "socket0.mem.reads");
    b.init(&g, "socket1.mem.reads");
    c.init(&g, "socket0.mem.writes");
    a += 3;
    b += 4;
    c += 9;
    EXPECT_EQ(g.sumMatching(".mem.reads"), 7u);
    EXPECT_EQ(g.sumMatching("socket0"), 12u);
}

TEST(Stats, HistogramTracksMoments)
{
    StatGroup g("test");
    Histogram h;
    h.init(&g, "lat");
    h.sample(10);
    h.sample(20);
    h.sample(30);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 60u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 30u);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
}

TEST(Config, ScaledPreservesRatios)
{
    SystemConfig cfg;
    const SystemConfig s = cfg.scaled(16);
    EXPECT_EQ(s.llcBytes, cfg.llcBytes / 16);
    EXPECT_EQ(s.dramCacheBytes, cfg.dramCacheBytes / 16);
    EXPECT_EQ(static_cast<double>(s.dramCacheBytes) / s.llcBytes,
              static_cast<double>(cfg.dramCacheBytes) / cfg.llcBytes);
}

TEST(Config, DesignPredicates)
{
    SystemConfig cfg;
    cfg.design = Design::C3D;
    EXPECT_TRUE(cfg.cleanDramCache());
    EXPECT_FALSE(cfg.dirtyDramCache());
    EXPECT_TRUE(cfg.designUsesDramCache());
    cfg.design = Design::Snoopy;
    EXPECT_TRUE(cfg.dirtyDramCache());
    cfg.design = Design::Baseline;
    EXPECT_FALSE(cfg.designUsesDramCache());
}

// bench_paper runs the figure points that restate a Table II default
// as the default machine (the unnamed variant) instead of patching
// them in: Fig. 10's 40 ns DRAM cache, Fig. 11's 20 ns hop, and the
// unpatched "base", "predictor=missmap", "clean-vs-dirty" and
// "mapping-policy" points. If a default moved, those rows would
// silently measure another machine under the old label.
TEST(Config, DefaultsTheFiguresFoldIn)
{
    const SystemConfig cfg{};
    EXPECT_EQ(cfg.dramCacheLatency, nsToTicks(40));
    EXPECT_EQ(cfg.hopLatency, nsToTicks(20));
    EXPECT_TRUE(cfg.missPredictorEnabled);
    EXPECT_TRUE(cfg.missPredictorExact);
    EXPECT_FALSE(cfg.zeroHopLatency);
    EXPECT_FALSE(cfg.infiniteMemBandwidth);
    EXPECT_FALSE(cfg.infiniteLinkBandwidth);
    EXPECT_FALSE(cfg.tlbPageClassification);
}

TEST(Config, TopologySelection)
{
    SystemConfig cfg;
    cfg.numSockets = 2;
    EXPECT_EQ(cfg.topology(), Topology::PointToPoint);
    cfg.numSockets = 4;
    EXPECT_EQ(cfg.topology(), Topology::Ring);
}

TEST(Config, DesignNames)
{
    EXPECT_STREQ(designName(Design::Baseline), "baseline");
    EXPECT_STREQ(designName(Design::Snoopy), "snoopy");
    EXPECT_STREQ(designName(Design::FullDir), "full-dir");
    EXPECT_STREQ(designName(Design::C3D), "c3d");
    EXPECT_STREQ(designName(Design::C3DFullDir), "c3d-full-dir");
}

} // namespace
} // namespace c3d
