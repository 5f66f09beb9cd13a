/**
 * @file
 * Lightweight statistics framework.
 *
 * Follows the spirit of gem5's stats package at a fraction of the
 * complexity: named scalar counters and histograms register themselves
 * with a StatGroup; groups can be dumped, reset (for warm-up), and
 * queried by name from harness code.
 *
 * Threading: every stat keeps one shard per parallel-kernel worker
 * (MaxStatShards of them). A write goes to the calling thread's shard,
 * statShard, with a plain add -- no atomic and no lock on the hot
 * path. CellExecutor::workerLoop sets statShard to its worker id;
 * every other thread (the sequential kernel, sweep workers, tests)
 * writes shard 0. Reads sum the shards and merge their min/max, so
 * they are exact for any worker count, but only where no worker is
 * writing: at a cell barrier (the boundary hook, the warm-up reset),
 * from the thread that owns every writer of that stat, or after the
 * run.
 */

#ifndef C3DSIM_COMMON_STATS_HH
#define C3DSIM_COMMON_STATS_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/log.hh"

namespace c3d
{

class StatGroup;

/** Shards per stat: the most kernel workers a run may use. */
constexpr unsigned MaxStatShards = 8;

/**
 * The calling thread's stat shard, in [0, MaxStatShards): its
 * parallel-kernel worker id, 0 on every other thread.
 */
inline thread_local unsigned statShard = 0;

/**
 * A named 64-bit event counter.
 *
 * Increments add to the calling thread's shard (see the file
 * comment); value() is their sum. Addition commutes, so the value is
 * independent of which worker counted what -- the property the
 * byte-identity harness relies on. Counters are movable (not
 * copyable) because several components hold them in vectors sized at
 * construction time.
 */
class Counter
{
  public:
    Counter() = default;
    Counter(Counter &&) noexcept = default;
    Counter &operator=(Counter &&) noexcept = default;

    /** Register this counter under @p name in @p group. */
    void init(StatGroup *group, std::string name, std::string desc = "");

    Counter &
    operator++()
    {
        ++shards[statShard];
        return *this;
    }

    Counter &
    operator+=(std::uint64_t n)
    {
        shards[statShard] += n;
        return *this;
    }

    std::uint64_t
    value() const
    {
        std::uint64_t sum = 0;
        for (const std::uint64_t v : shards)
            sum += v;
        return sum;
    }

    void reset() { shards.fill(0); }
    const std::string &name() const { return statName; }
    const std::string &desc() const { return statDesc; }

  private:
    std::string statName;
    std::string statDesc;
    std::array<std::uint64_t, MaxStatShards> shards{};
};

/**
 * A histogram with fixed power-of-two bucketing of sample values.
 *
 * Like Counter, each worker samples into its own shard; the read
 * side sums counts, sums and buckets across shards and merges their
 * extrema, so the aggregate is the same whichever worker recorded
 * each sample.
 */
class Histogram
{
  public:
    /**
     * Bucket 0 holds the value 0 and bucket b in [1, 64] holds
     * [2^(b-1), 2^b - 1]; bucket 64 is the top half of the range.
     */
    static constexpr unsigned NumBuckets = 65;

    Histogram() = default;
    Histogram(Histogram &&) noexcept = default;

    void init(StatGroup *group, std::string name, std::string desc = "");

    void
    sample(std::uint64_t value)
    {
        Shard &s = shards[statShard];
        ++s.samples;
        s.total += value;
        s.minValue = std::min(s.minValue, value);
        s.maxValue = std::max(s.maxValue, value);
        ++s.buckets[bucketOf(value)];
    }

    std::uint64_t
    count() const
    {
        std::uint64_t n = 0;
        for (const Shard &s : shards)
            n += s.samples;
        return n;
    }

    std::uint64_t
    sum() const
    {
        std::uint64_t n = 0;
        for (const Shard &s : shards)
            n += s.total;
        return n;
    }

    std::uint64_t
    min() const
    {
        // An empty shard's sentinel never wins over a real sample;
        // an empty histogram reports 0.
        std::uint64_t lo = ~std::uint64_t(0);
        for (const Shard &s : shards)
            lo = std::min(lo, s.minValue);
        return count() ? lo : 0;
    }

    std::uint64_t
    max() const
    {
        std::uint64_t hi = 0;
        for (const Shard &s : shards)
            hi = std::max(hi, s.maxValue);
        return hi;
    }

    double
    mean() const
    {
        const std::uint64_t n = count();
        return n ? static_cast<double>(sum()) / n : 0.0;
    }

    /** Count of samples in power-of-two bucket @p idx. */
    std::uint64_t
    bucket(unsigned idx) const
    {
        c3d_assert(idx < NumBuckets, "histogram bucket out of range");
        std::uint64_t n = 0;
        for (const Shard &s : shards)
            n += s.buckets[idx];
        return n;
    }

    /**
     * Approximate p-th percentile of the sampled values.
     *
     * Resolution is the power-of-two bucketing: the result is the
     * rank's bucket lower bound, linearly interpolated across the
     * bucket and clamped to [min(), max()], so a single-sample
     * histogram returns exactly that sample. Defined (never NaN)
     * for every input: an empty histogram returns 0, p <= 0 returns
     * min(), and p >= 100 returns max(). Integer arithmetic only —
     * the answer is bit-identical across platforms.
     */
    std::uint64_t percentile(double p) const;

    void reset() { shards.fill(Shard{}); }

    const std::string &name() const { return statName; }

  private:
    static unsigned
    bucketOf(std::uint64_t value)
    {
        if (value == 0)
            return 0;
        return 64 - __builtin_clzll(value);
    }

    /** One worker's samples. */
    struct Shard
    {
        std::uint64_t samples = 0;
        std::uint64_t total = 0;
        std::uint64_t minValue = ~std::uint64_t(0); //!< empty: sentinel
        std::uint64_t maxValue = 0;
        std::array<std::uint64_t, NumBuckets> buckets{};
    };

    std::string statName;
    std::string statDesc;
    std::array<Shard, MaxStatShards> shards{};
};

/**
 * A registry of counters and histograms with a hierarchical name.
 *
 * The group does not own the stats; objects embed their stats and
 * register them at init time (so stats live exactly as long as the
 * simulated object that produces them).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : groupName(std::move(name))
    {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    void
    addCounter(Counter *c)
    {
        counters.push_back(c);
    }

    void
    addHistogram(Histogram *h)
    {
        histograms.push_back(h);
    }

    /** Merge another group's registrations under this one. */
    void
    adopt(StatGroup &child)
    {
        for (auto *c : child.counters)
            counters.push_back(c);
        for (auto *h : child.histograms)
            histograms.push_back(h);
    }

    /** Reset every registered stat (end of warm-up). */
    void
    resetAll()
    {
        for (auto *c : counters)
            c->reset();
        for (auto *h : histograms)
            h->reset();
    }

    /**
     * Value of the counter registered as @p name; panics (SimError)
     * if absent.
     */
    std::uint64_t valueOf(const std::string &name) const;

    /** True if a counter named @p name is registered. */
    bool has(const std::string &name) const;

    /** Sum of all counters whose name contains @p substring. */
    std::uint64_t sumMatching(const std::string &substring) const;

    /** Dump "name value # desc" lines, gem5 stats.txt style. */
    void dump(std::ostream &os) const;

    /** Histogram registered as @p name; nullptr when absent. */
    const Histogram *histogramOf(const std::string &name) const;

    const std::string &name() const { return groupName; }
    const std::vector<Counter *> &allCounters() const { return counters; }
    const std::vector<Histogram *> &allHistograms() const
    {
        return histograms;
    }

  private:
    std::string groupName;
    std::vector<Counter *> counters;
    std::vector<Histogram *> histograms;
};

} // namespace c3d

#endif // C3DSIM_COMMON_STATS_HH
