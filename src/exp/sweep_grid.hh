/**
 * @file
 * Declarative parameter grids for the paper's evaluation sweeps.
 *
 * A SweepGrid names the axes a study varies -- workload profile,
 * config variant (arbitrary SystemConfig patch), coherence design,
 * snoopy protocol variant, DRAM-cache predictor kind, socket count,
 * DRAM-cache capacity, page-mapping policy -- plus the
 * shared run parameters (scale, warm-up/measure quotas, seed).
 * expand() flattens the grid into an ordered list of self-contained
 * RunSpecs; the expansion order is the axis table's (gridAxes():
 * workload outermost, mapping innermost), so a grid always yields
 * the same spec list and downstream result rows are comparable
 * byte-for-byte between runs.
 */

#ifndef C3DSIM_EXP_SWEEP_GRID_HH
#define C3DSIM_EXP_SWEEP_GRID_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "trace/workload.hh"

namespace c3d::exp
{

/**
 * A named SystemConfig patch: one point of an ad-hoc axis (latency
 * overrides, idealizations, predictor settings, ...). The patch is
 * applied to the unscaled config, before capacity scaling.
 */
struct ConfigVariant
{
    std::string name;
    std::function<void(SystemConfig &)> patch;
};

/**
 * A grid point's position along each axis, in expansion order (see
 * gridAxes()). RunSpec and ResultRow both carry one, for tabulation
 * by the caller.
 */
struct AxisIndices
{
    std::size_t workloadIdx = 0;
    std::size_t variantIdx = 0;
    std::size_t designIdx = 0;
    std::size_t protocolIdx = 0;
    std::size_t predictorIdx = 0;
    std::size_t socketIdx = 0;
    std::size_t dramIdx = 0;
    std::size_t mappingIdx = 0;

    AxisIndices &axes() { return *this; }
    const AxisIndices &axes() const { return *this; }
};

/**
 * A ResultTable::find pattern: every axis starts as a wildcard
 * (SIZE_MAX) and each setter pins one, e.g.
 * `AxisPattern().workload(w).design(d)`.
 */
struct AxisPattern : AxisIndices
{
    AxisPattern();

    AxisPattern &workload(std::size_t i) { workloadIdx = i; return *this; }
    AxisPattern &variant(std::size_t i) { variantIdx = i; return *this; }
    AxisPattern &design(std::size_t i) { designIdx = i; return *this; }
    AxisPattern &protocol(std::size_t i) { protocolIdx = i; return *this; }
    AxisPattern &predictor(std::size_t i) { predictorIdx = i; return *this; }
    AxisPattern &socket(std::size_t i) { socketIdx = i; return *this; }
    AxisPattern &dram(std::size_t i) { dramIdx = i; return *this; }
    AxisPattern &mapping(std::size_t i) { mappingIdx = i; return *this; }
};

/** One fully-resolved grid point, ready to run in isolation. */
struct RunSpec : AxisIndices
{
    // Row order within the expanded grid (== result-row order).
    std::size_t index = 0;

    SystemConfig cfg;        //!< scaled, variant applied
    WorkloadProfile profile; //!< unscaled (scaled at run time)
    std::string variantName;
    std::uint32_t scale = 1;
    std::uint64_t dramCacheMb = 0; //!< unscaled axis value (0 = default)
    std::uint64_t warmupOps = 0;
    std::uint64_t measureOps = 0;
};

/** Declarative cross-product of sweep axes. */
struct SweepGrid
{
    // ---- axes ---------------------------------------------------------
    std::vector<WorkloadProfile> workloads; //!< unscaled profiles
    std::vector<ConfigVariant> variants;    //!< empty = one identity
    std::vector<Design> designs = {Design::C3D};
    std::vector<Protocol> protocols = {Protocol::Mesi};
    /** DRAM-cache predictor kinds (docs/predictors.md). */
    std::vector<PredictorKind> predictors = {PredictorKind::Region};
    std::vector<std::uint32_t> sockets = {4};
    /** Unscaled DRAM-cache capacities in MB; 0 keeps the Table II
     * default (1 GB). */
    std::vector<std::uint64_t> dramCacheMb = {0};
    std::vector<MappingPolicy> mappings = {MappingPolicy::FirstTouch2};

    // ---- shared run parameters ----------------------------------------
    /** Cores per socket; 0 applies the paper rule (2-socket machines
     * get 16 cores/socket, others 8). */
    std::uint32_t coresPerSocket = 0;
    std::uint32_t scale = 32; //!< capacity/footprint shrink factor
    /** References per core before the window opens; 0 = per-workload
     * automatic quota (see autoWarmupOps). */
    std::uint64_t warmupOps = 0;
    std::uint64_t measureOps = 25000;
    std::uint64_t seed = 0; //!< 0 keeps each profile's own seed

    /** Number of grid points (product of the axis lengths). */
    std::size_t size() const;

    /** Flatten into ordered, self-contained run specs: one
     * mixed-radix count over gridAxes(), the last axis fastest. */
    std::vector<RunSpec> expand() const;
};

/** GridAxis::traits bits. */
enum AxisTrait : unsigned
{
    /** The common CLI takes one value of the axis as `--<name>`. */
    SingleFlag = 1,
    /** Applied after every other axis: the variant patch sees, and
     * may override, the whole machine. */
    AppliedLast = 2,
    /** Equal names need not mean equal machines (profiles, patches),
     * so machineKey() keeps the ordinal. */
    OrdinalKeyed = 4,
};

/**
 * One grid axis: everything the sweep layer knows about it, declared
 * once. gridAxes() lists the axes in expansion order; size(),
 * expand(), machineKey(), both CLIs and their --help derive from it.
 */
struct GridAxis
{
    /** The identity column this axis fills (docs/sweeps.md "Output
     * schema"); also the common CLI's single-value flag. */
    const char *name;
    /** c3d-sweep's list flag; null when the tool parses the axis
     * itself (workloads) or has no flag for it (variants). */
    const char *listFlag;
    /** Accepted values, for help and errors ("1..8", "INT|FT1|FT2"). */
    std::string (*values)();
    const char *help; //!< what it varies and its default (<= 47 chars)
    std::size_t AxisIndices::*index; //!< the position it fills
    std::size_t (*size)(const SweepGrid &grid); //!< its list length
    /** Replace the grid's list with @p items; false + the offending
     * item in @p bad when one does not parse. */
    bool (*parseList)(const std::vector<std::string> &items,
                      SweepGrid &grid, std::string &bad);
    /** Apply list entry @p i to a spec and its unscaled config. */
    void (*apply)(const SweepGrid &grid, std::size_t i, RunSpec &spec,
                  SystemConfig &raw);
    /** Relevance predicate: false when @p cfg's machine never reads
     * the axis, so points differing only there share a simulation.
     * Null: every machine reads it. */
    bool (*relevant)(const SystemConfig &cfg);
    unsigned traits; //!< AxisTrait bits

    bool has(unsigned trait) const { return traits & trait; }
};

/** The sweep axes in expansion order (workload outermost). */
const std::vector<GridAxis> &gridAxes();

/**
 * If @p key (no leading dashes) is an axis flag -- a c3d-sweep list
 * flag when @p lists, else a common-CLI single-value flag -- parse
 * @p value onto that axis's list in @p grid (a comma list, or one
 * value) and return true; an empty list or a malformed value sets
 * @p error, naming the flag. False for any other key.
 */
bool parseAxisFlag(const std::string &key, bool lists,
                   const std::string &value, SweepGrid &grid,
                   std::string &error);

/**
 * --help lines for the axes' flags: c3d-sweep's list flags when
 * @p lists, else the common CLI's single-value flags.
 */
std::string axisUsage(bool lists);

/**
 * Canonical identity of a grid point: the identity columns of the
 * row a run of this spec produces (ResultRow::identityKey()), so
 * journals and result tables can be matched back to the specs that
 * generated them.
 */
std::string specIdentityKey(const RunSpec &spec);

/**
 * Identity of the machine a spec simulates: specIdentityKey with the
 * column of each axis its relevance predicate rejects collapsed
 * (`*`, or 0), prefixed with the ordinals of the ordinal-keyed axes
 * (so two workloads that merely share a name never share a
 * simulation). Specs with equal keys produce identical RunResults;
 * SweepEngine::run(grid) simulates each key once (docs/sweeps.md
 * "Grid axes").
 */
std::string machineKey(const RunSpec &spec);

/**
 * FNV-1a 64 digest (16 hex digits) over every spec's identity key,
 * in expansion order. Two grids share a fingerprint iff they expand
 * to the same run specs, so shard journals can refuse to merge with
 * output from a different grid. Trace workloads additionally fold
 * the trace file's content hash (not its path) into the digest, so
 * resuming or merging against modified trace contents refuses
 * loudly while the same trace at a different mount point matches.
 */
std::string gridFingerprint(const std::vector<RunSpec> &specs);

/**
 * Default warm-up quota for @p unscaled: scan-dominated workloads
 * need the rotating partition to cover each socket's DRAM cache
 * before measuring (mirrors the paper's 100M-access warm-up).
 */
std::uint64_t autoWarmupOps(const WorkloadProfile &unscaled,
                            std::uint64_t base = 12000);

/** Paper rule for cores per socket (2-socket: 16, otherwise 8). */
std::uint32_t paperCoresPerSocket(std::uint32_t sockets);

/**
 * Shrink @p grid to the shared seconds-scale smoke preset (scale
 * 256, 2 cores/socket, short warm-up/measure windows). Used by both
 * `c3d-sweep --quick` and the bench `--quick` flag; figure shapes
 * are NOT preserved at this scale.
 */
SweepGrid quickPreset(SweepGrid grid);

} // namespace c3d::exp

#endif // C3DSIM_EXP_SWEEP_GRID_HH
