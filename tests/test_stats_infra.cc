/**
 * @file
 * Tests for the stats plumbing used by every bench: group adoption,
 * dump format, histogram lookup, and the watch/trace debug facility.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/sim_error.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace c3d
{
namespace
{

TEST(StatsInfra, DumpIsNameValueDesc)
{
    StatGroup g("grp");
    Counter c;
    c.init(&g, "a.counter", "what it counts");
    c += 7;
    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("a.counter"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    EXPECT_NE(out.find("what it counts"), std::string::npos);
}

TEST(StatsInfra, AdoptMergesRegistrations)
{
    StatGroup parent("p"), child("c");
    Counter a, b;
    a.init(&parent, "a");
    b.init(&child, "b");
    parent.adopt(child);
    EXPECT_TRUE(parent.has("b"));
    b += 3;
    EXPECT_EQ(parent.valueOf("b"), 3u);
    parent.resetAll();
    EXPECT_EQ(b.value(), 0u);
}

TEST(StatsInfra, HistogramLookupByName)
{
    StatGroup g("g");
    Histogram h;
    h.init(&g, "lat");
    h.sample(5);
    const Histogram *found = g.histogramOf("lat");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->count(), 1u);
    EXPECT_EQ(g.histogramOf("nope"), nullptr);
}

TEST(StatsInfra, HistogramBucketsArePowersOfTwo)
{
    StatGroup g("g");
    Histogram h;
    h.init(&g, "b");
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(3);
    h.sample(1024);
    // Bucket 0 holds the zero sample; value 1 -> bucket 1;
    // 2..3 -> bucket 2; 1024 -> bucket 11.
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(11), 1u);
}

TEST(StatsInfra, PercentileEdgeCasesAreDefined)
{
    Histogram h;
    // Empty histogram: every percentile query returns 0, never NaN
    // or a crash (tenant QoS extraction runs unconditionally).
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_EQ(h.percentile(0), 0u);
    EXPECT_EQ(h.percentile(100), 0u);

    // Single sample: every percentile IS that sample.
    h.sample(37);
    EXPECT_EQ(h.percentile(0), 37u);
    EXPECT_EQ(h.percentile(50), 37u);
    EXPECT_EQ(h.percentile(99), 37u);
    EXPECT_EQ(h.percentile(100), 37u);

    // Out-of-range p clamps to min/max.
    h.sample(100);
    EXPECT_EQ(h.percentile(-5), 37u);
    EXPECT_EQ(h.percentile(250), 100u);
}

TEST(StatsInfra, PercentileTracksDistribution)
{
    Histogram h;
    // 100 samples of 8 and one of 4096: p50 sits in the 8-bucket,
    // p99 below the outlier, p100 at it.
    for (int i = 0; i < 100; ++i)
        h.sample(8);
    h.sample(4096);
    const std::uint64_t p50 = h.percentile(50);
    EXPECT_GE(p50, 8u);
    EXPECT_LT(p50, 16u);
    EXPECT_LT(h.percentile(99), 4096u);
    EXPECT_EQ(h.percentile(100), 4096u);

    // Results never leave [min, max].
    EXPECT_GE(h.percentile(1), h.min());
    EXPECT_LE(h.percentile(99.9), h.max());

    // All-zero samples stay at zero.
    Histogram z;
    z.sample(0);
    z.sample(0);
    EXPECT_EQ(z.percentile(50), 0u);
    EXPECT_EQ(z.percentile(99), 0u);
}

TEST(StatsInfra, UnregisteredCounterStandsAlone)
{
    Counter c;
    c.init(nullptr, "orphan");
    ++c;
    EXPECT_EQ(c.value(), 1u);
}

TEST(StatsInfra, ValueOfUnknownPanics)
{
    // A row that asks for a counter its machine never registered
    // fails as a contained SimError, not a process exit.
    StatGroup g("g");
    try {
        g.valueOf("missing");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(e.message().find("no counter named 'missing'"),
                  std::string::npos)
            << e.message();
    }
}

TEST(StatsInfra, TopBucketHoldsTheHighHalfOfTheRange)
{
    // Values >= 2^63 have a bucket of their own (bucket 64); the
    // percentile walk reaches it and every sample is counted in a
    // bucket the API reports.
    Histogram h;
    h.sample(5);
    h.sample(std::uint64_t(1) << 63);
    h.sample(UINT64_MAX);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.min(), 5u);
    EXPECT_EQ(h.max(), UINT64_MAX);
    EXPECT_EQ(h.percentile(100), UINT64_MAX);
    EXPECT_GE(h.percentile(99), std::uint64_t(1) << 63);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.bucket(Histogram::NumBuckets - 1), 2u);
    std::uint64_t bucketed = 0;
    for (unsigned b = 0; b < Histogram::NumBuckets; ++b)
        bucketed += h.bucket(b);
    EXPECT_EQ(bucketed, h.count());
    EXPECT_THROW(h.bucket(Histogram::NumBuckets), SimError);

    Histogram top;
    top.sample(UINT64_MAX);
    EXPECT_EQ(top.percentile(50), UINT64_MAX);
}

TEST(StatsInfra, ShardsSumAndMergeExtrema)
{
    // Stats written from several kernel workers (each on its own
    // shard) read back as one exact aggregate; reset clears them all.
    StatGroup g("g");
    Counter c;
    c.init(&g, "c");
    Histogram h;
    h.init(&g, "h");
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < MaxStatShards; ++w) {
        workers.emplace_back([&, w] {
            statShard = w;
            for (unsigned i = 0; i <= w; ++i) {
                ++c;
                h.sample(10 * (w + 1));
            }
            c += 100;
        });
    }
    for (auto &t : workers)
        t.join();
    const unsigned n = MaxStatShards;
    EXPECT_EQ(c.value(), n * (n + 1) / 2 + 100 * n);
    EXPECT_EQ(h.count(), n * (n + 1) / 2);
    std::uint64_t sum = 0;
    for (unsigned w = 0; w < n; ++w)
        sum += std::uint64_t(w + 1) * 10 * (w + 1);
    EXPECT_EQ(h.sum(), sum);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 10u * n);
    EXPECT_EQ(statShard, 0u); // this thread never left shard 0
    g.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

// Shards of one stat sit in an array; a shard type that is aligned to
// a host line and a whole number of lines long puts every shard at the
// start of a line of its own, so no two workers' shards share a line.
static_assert(alignof(Counter::Shard) >= HostLineBytes &&
                  sizeof(Counter::Shard) % HostLineBytes == 0,
              "adjacent Counter shards must not share a host line");
static_assert(alignof(Histogram::Shard) >= HostLineBytes &&
                  sizeof(Histogram::Shard) % HostLineBytes == 0,
              "adjacent Histogram shards must not share a host line");
static_assert(sizeof(Counter) >= MaxStatShards * HostLineBytes,
              "a Counter holds one host line per shard");

TEST(StatsInfra, FourWorkersCountingConcurrentlyGiveExactTotals)
{
    // Four threads hammer one counter and one histogram at once, each
    // on its own shard, as four kernel workers do inside a cell.
    constexpr unsigned Workers = 4;
    constexpr std::uint64_t Iters = 200000;
    StatGroup g("g");
    Counter c;
    c.init(&g, "c");
    Histogram h;
    h.init(&g, "h");
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < Workers; ++w) {
        workers.emplace_back([&, w] {
            statShard = w;
            for (std::uint64_t i = 0; i < Iters; ++i) {
                ++c;
                h.sample(i % 1000);
            }
        });
    }
    for (auto &t : workers)
        t.join();
    EXPECT_EQ(c.value(), Workers * Iters);
    EXPECT_EQ(h.count(), Workers * Iters);
    std::uint64_t per_worker = 0;
    for (std::uint64_t i = 0; i < Iters; ++i)
        per_worker += i % 1000;
    EXPECT_EQ(h.sum(), Workers * per_worker);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 999u);
    EXPECT_EQ(h.bucket(0), Workers * (Iters / 1000));
}

TEST(WatchInfra, MatchesOnlyTheWatchedBlock)
{
    setWatchBlock(0x1000);
    EXPECT_TRUE(watchingBlock(0x1000));
    EXPECT_TRUE(watchingBlock(0x1020)); // same 64 B block
    EXPECT_FALSE(watchingBlock(0x1040));
    setWatchBlock(~0ull); // disable
    EXPECT_FALSE(watchingBlock(0x1000));
}

} // namespace
} // namespace c3d
