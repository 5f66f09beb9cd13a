/**
 * @file
 * Outside-in probes of the simulator's layers, used by the traced
 * benchmark run. Nothing here changes what the simulator computes:
 *
 *  - TimedWorkload wraps the Workload a Runner pulls references from
 *    and times every next() call (the trace/workload layer), keeping
 *    a sample of the address stream for the standalone replays.
 *  - StatSummary folds a machine's StatGroup into per-kind totals
 *    (per-socket/core/channel indices collapsed to N) plus a digest
 *    of every raw counter and histogram, so a traced run's simulated
 *    counters can be compared with an untraced run's.
 *  - timeLayers() drives standalone TagArray, DramCache,
 *    SparseDirectory, Interconnect, MemoryController and EventQueue
 *    objects through their public calls at a row's geometry and
 *    returns host nanoseconds per call.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "trace/workload.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

/** FNV-1a 64 over @p bytes, continuing from @p h. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/** Times a wrapped workload's next() calls per core. */
class TimedWorkload : public c3d::Workload
{
  public:
    /**
     * @param inner the workload the run would otherwise use
     * @param cores total cores of the machine
     * @param keep_addrs addresses kept per core (0: none)
     */
    TimedWorkload(c3d::Workload &inner, std::uint32_t cores,
                  std::size_t keep_addrs);

    const std::string &name() const override { return inner.name(); }
    c3d::TraceOp next(c3d::CoreId core) override;
    std::uint32_t activeCores(std::uint32_t total) const override
    {
        return inner.activeCores(total);
    }
    std::uint64_t barrierInterval() const override
    {
        return inner.barrierInterval();
    }
    void preTouchPages(c3d::PageMapper &mapper) override
    {
        inner.preTouchPages(mapper);
    }

    std::uint64_t calls() const;
    std::uint64_t nanoseconds() const;

    /** Kept addresses, interleaved round-robin across cores. */
    std::vector<c3d::Addr> addressStream() const;

  private:
    /** One core's tally; a core's calls all come from one thread. */
    struct alignas(64) Lane
    {
        std::uint64_t calls = 0;
        std::uint64_t ns = 0;
        std::vector<c3d::Addr> addrs;
    };

    c3d::Workload &inner;
    const std::size_t keepAddrs;
    std::vector<Lane> lanes;
};

/** Per-kind totals of one or more machines' statistics. */
struct StatSummary
{
    struct Hist
    {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t p99Max = 0; //!< largest p99 over the instances
    };

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, Hist> hists;
    /** Digest of every raw counter and histogram, in registry order. */
    std::uint64_t digest = 0;

    /** Total of the counters of kind @p key (0 when absent). */
    std::uint64_t at(const std::string &key) const;
    double histMean(const std::string &key) const;
    std::uint64_t histP99(const std::string &key) const;

    /** Fold another summary in (grid rows sum into one). */
    void add(const StatSummary &o);
};

/** Summarize @p sg; indices in names become N ("socketN.llc_hits"). */
StatSummary summarize(const c3d::StatGroup &sg);

/** Host nanoseconds per public call of each standalone layer. */
struct LayerTimings
{
    double nsPerFind = 0;      //!< TagArray::find, LLC geometry
    double nsPerAllocate = 0;  //!< TagArray::allocate
    double nsPerProbe = 0;     //!< DramCache::probe + completion
    double nsPerInsert = 0;    //!< DramCache::insert
    double nsPerDirFind = 0;   //!< SparseDirectory::find (+allocate)
    double nsPerSend = 0;      //!< Interconnect::send + delivery
    double nsPerRead = 0;      //!< MemoryController::read + completion
    double nsPerEvent = 0;     //!< EventQueue schedule + execute
};

/**
 * Replay @p stream through standalone layer objects built at @p cfg's
 * geometry. Each figure is the median of three passes.
 */
LayerTimings timeLayers(const c3d::SystemConfig &cfg,
                        const std::vector<c3d::Addr> &stream);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
