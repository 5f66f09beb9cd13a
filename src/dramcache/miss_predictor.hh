/**
 * @file
 * DRAM-cache predictor (docs/predictors.md).
 *
 * Two orthogonal jobs live in one predictor:
 *
 *  - **presence filtering** (mayBePresent / onInsert / onRemove):
 *    short-circuit probes for blocks that cannot be cached. The
 *    contract is strict: a present block must NEVER be reported
 *    absent, or a dirty block could be hidden from a coherence probe
 *    (§III-A). The filter is exact (MissMap, handled by the cache
 *    itself) or conservative (the counting region filter below).
 *
 *  - **admission gating** (admit / trainOnProbe): decide whether an
 *    LLC victim is worth caching at all. This side is free to be
 *    wrong in either direction -- a bad admission decision costs
 *    performance, never correctness -- so it is where learned
 *    predictors (the hashed perceptron, perceptron_predictor.hh)
 *    plug in, overriding only the virtual members.
 *
 * Dirty blocks are always admitted regardless of the gate: a bypassed
 * dirty victim would have to be written back to memory anyway, and
 * the dirty designs rely on the DRAM cache to hold modified data.
 *
 * MissPredictor is the region-based filter (Table II: 4K-entry,
 * 2-cycle), after Qureshi & Loh's memory access predictor: per-region
 * block counters that insertions increment and removals decrement.
 * Hash collisions merge regions, so it may report "present" for an
 * absent block (a wasted probe) but never "absent" for a present one.
 */

#ifndef C3DSIM_DRAMCACHE_MISS_PREDICTOR_HH
#define C3DSIM_DRAMCACHE_MISS_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace c3d
{

/**
 * Counting presence filter over memory regions. Admission is
 * unconditional (every LLC victim is cached), which is the paper's
 * fill policy; the perceptron predictor derives from this class to
 * reuse the presence machinery and overrides only the admission side.
 */
class MissPredictor
{
  public:
    virtual ~MissPredictor() = default;

    void
    init(std::uint32_t num_entries, std::uint32_t region_bytes,
         StatGroup *stats, const std::string &name)
    {
        c3d_assert(num_entries > 0, "predictor needs entries");
        c3d_assert((region_bytes & (region_bytes - 1)) == 0,
                   "region size must be a power of two");
        counters.assign(num_entries, 0);
        regionShift = __builtin_ctz(region_bytes);
        queries.init(stats, name + ".queries", "presence queries");
        predictedAbsent.init(stats, name + ".predicted_absent",
                             "queries short-circuited as absent");
        falsePresent.init(stats, name + ".false_present",
                          "present predictions that probed and missed");
    }

    /** Size tables and register counters under @p name. */
    virtual void
    configure(const SystemConfig &cfg, StatGroup *stats,
              const std::string &name)
    {
        init(cfg.missPredictorEntries, cfg.missPredictorRegionBytes,
             stats, name);
    }

    /** Predict whether the block at @p addr may be cached. */
    bool
    mayBePresent(Addr addr)
    {
        ++queries;
        const bool present = counters[slot(addr)] > 0;
        if (!present)
            ++predictedAbsent;
        return present;
    }

    /** Record that a probe made on a "present" prediction missed. */
    void recordFalsePresent() { ++falsePresent; }

    /** Account a query answered exactly (MissMap mode). */
    void
    recordExactQuery(bool present)
    {
        ++queries;
        if (!present)
            ++predictedAbsent;
    }

    /** A block in this region was inserted into the DRAM cache. */
    void onInsert(Addr addr) { ++counters[slot(addr)]; }

    /** A block in this region left the DRAM cache. */
    virtual void
    onRemove(Addr addr)
    {
        auto &c = counters[slot(addr)];
        c3d_assert(c > 0, "predictor counter underflow");
        --c;
    }

    /** Should the clean LLC victim at @p addr be cached? Callers must
     * admit dirty victims unconditionally. The paper's fill policy:
     * every LLC victim is cached. */
    virtual bool admit(Addr, std::uint32_t) { return true; }
    /** Online training signal: a demand probe for @p addr hit or
     * missed the DRAM cache. */
    virtual void trainOnProbe(Addr, std::uint32_t, bool) {}

    // ---- accuracy counters (surfaced per sweep row) --------------------
    virtual std::uint64_t trainEvents() const { return 0; }
    virtual std::uint64_t bypassEvents() const { return 0; }
    virtual std::uint64_t ghostHits() const { return 0; }
    std::uint64_t falsePresents() const { return falsePresent.value(); }
    std::uint64_t absentPredictions() const
    {
        return predictedAbsent.value();
    }

  protected:
    std::uint32_t
    slot(Addr addr) const
    {
        // Multiplicative hash of the region number.
        const Addr region = addr >> regionShift;
        return static_cast<std::uint32_t>(
            (region * 0x9e3779b97f4a7c15ull) >> 32) % counters.size();
    }

    std::vector<std::uint32_t> counters;
    std::uint32_t regionShift = 12;
    Counter queries;
    Counter predictedAbsent;
    Counter falsePresent;
};

/** Build the predictor selected by @p cfg.predictorKind. */
std::unique_ptr<MissPredictor> makeMissPredictor(const SystemConfig &cfg);

} // namespace c3d

#endif // C3DSIM_DRAMCACHE_MISS_PREDICTOR_HH
