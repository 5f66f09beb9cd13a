#include "exp/sweep_grid.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/cli.hh"
#include "common/hash.hh"
#include "exp/sweep_engine.hh"

namespace c3d::exp
{

namespace
{

/** Parse an unsigned value in [Lo, Hi]. */
template <class T, std::uint64_t Lo, std::uint64_t Hi>
bool
parseRange(const std::string &s, T &out)
{
    std::uint64_t n = 0;
    if (!parseU64(s, n) || n < Lo || n > Hi)
        return false;
    out = static_cast<T>(n);
    return true;
}

template <std::uint64_t Lo, std::uint64_t Hi>
std::string
rangeText()
{
    return std::to_string(Lo) + ".." + std::to_string(Hi);
}

/** Every spelling of E joined with '|' ("mesi|mesif|..."). */
template <class E>
std::string
enumNameList()
{
    std::string out;
    for (const EnumName<E> &e : enumNames(E{}))
        out += (out.empty() ? "" : "|") + std::string(e.name);
    return out;
}

/** Socket counts the machine model builds. */
constexpr std::uint64_t MaxSockets = 8;
/** Largest DRAM-cache MB whose byte count (MB << 20) fits 64 bits. */
constexpr std::uint64_t MaxDramCacheMb = UINT64_MAX >> 20;

template <class T, std::vector<T> SweepGrid::*List>
std::size_t
lengthOf(const SweepGrid &grid)
{
    return (grid.*List).size();
}

template <class T, std::vector<T> SweepGrid::*List,
          bool (*Parse)(const std::string &, T &) = parseEnum<T>>
bool
parseItems(const std::vector<std::string> &items, SweepGrid &grid,
           std::string &bad)
{
    std::vector<T> list(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (!Parse(items[i], list[i])) {
            bad = items[i];
            return false;
        }
    }
    grid.*List = std::move(list);
    return true;
}

/** An axis whose list entry is copied into one config field. */
template <class T, std::vector<T> SweepGrid::*List,
          T SystemConfig::*Field>
void
applyField(const SweepGrid &grid, std::size_t i, RunSpec &,
           SystemConfig &raw)
{
    raw.*Field = (grid.*List)[i];
}

/** @p axis's c3d-sweep list flag, or its common-CLI flag; or null. */
const char *
flagOf(const GridAxis &axis, bool lists)
{
    return lists ? axis.listFlag
                 : axis.has(SingleFlag) ? axis.name : nullptr;
}

} // namespace

const std::vector<GridAxis> &
gridAxes()
{
    static const std::vector<GridAxis> axes = {
        {"workload", nullptr, nullptr, nullptr, &AxisIndices::workloadIdx,
         lengthOf<WorkloadProfile, &SweepGrid::workloads>, nullptr,
         [](const SweepGrid &grid, std::size_t i, RunSpec &spec,
            SystemConfig &) {
             spec.profile = grid.workloads[i];
             if (grid.seed)
                 spec.profile.seed = grid.seed;
         },
         nullptr, OrdinalKeyed},
        // An empty variant list is one unnamed identity variant.
        {"variant", nullptr, nullptr, nullptr, &AxisIndices::variantIdx,
         [](const SweepGrid &grid) {
             return std::max<std::size_t>(grid.variants.size(), 1);
         },
         nullptr,
         [](const SweepGrid &grid, std::size_t i, RunSpec &spec,
            SystemConfig &raw) {
             if (grid.variants.empty())
                 return;
             spec.variantName = grid.variants[i].name;
             if (grid.variants[i].patch)
                 grid.variants[i].patch(raw);
         },
         nullptr, AppliedLast | OrdinalKeyed},
        {"design", "designs", enumNameList<Design>,
         "coherence design (default c3d)", &AxisIndices::designIdx,
         lengthOf<Design, &SweepGrid::designs>,
         parseItems<Design, &SweepGrid::designs>,
         applyField<Design, &SweepGrid::designs, &SystemConfig::design>,
         nullptr, SingleFlag},
        // Only the snoopy engine dispatches on cfg.protocol
        // (makeSnoopVariant); the directory designs run their fixed
        // engines whatever it names.
        {"protocol", "protocols", enumNameList<Protocol>,
         "snoopy protocol variant (default mesi)",
         &AxisIndices::protocolIdx, lengthOf<Protocol, &SweepGrid::protocols>,
         parseItems<Protocol, &SweepGrid::protocols>,
         applyField<Protocol, &SweepGrid::protocols, &SystemConfig::protocol>,
         [](const SystemConfig &cfg) { return cfg.design == Design::Snoopy; },
         SingleFlag},
        // The DramCache is the only reader of the predictor kind and the
        // capacity, and Socket builds one only when designUsesDramCache().
        {"predictor", "predictors", enumNameList<PredictorKind>,
         "DRAM-cache admission predictor (default region)",
         &AxisIndices::predictorIdx,
         lengthOf<PredictorKind, &SweepGrid::predictors>,
         parseItems<PredictorKind, &SweepGrid::predictors>,
         applyField<PredictorKind, &SweepGrid::predictors,
                    &SystemConfig::predictorKind>,
         [](const SystemConfig &cfg) { return cfg.designUsesDramCache(); },
         SingleFlag},
        // Also sets the paper's cores-per-socket rule unless the grid
        // pins coresPerSocket.
        {"sockets", "sockets", rangeText<1, MaxSockets>,
         "socket count (default 4)", &AxisIndices::socketIdx,
         lengthOf<std::uint32_t, &SweepGrid::sockets>,
         parseItems<std::uint32_t, &SweepGrid::sockets,
                    parseRange<std::uint32_t, 1, MaxSockets>>,
         [](const SweepGrid &grid, std::size_t i, RunSpec &,
            SystemConfig &raw) {
             raw.numSockets = grid.sockets[i];
             raw.coresPerSocket = grid.coresPerSocket
                 ? grid.coresPerSocket
                 : paperCoresPerSocket(grid.sockets[i]);
         },
         nullptr, SingleFlag},
        {"dram_cache_mb", "dram-cache-mb",
         rangeText<0, MaxDramCacheMb>,
         "unscaled DRAM-cache MB (0 = Table II's 1 GB)",
         &AxisIndices::dramIdx,
         lengthOf<std::uint64_t, &SweepGrid::dramCacheMb>,
         parseItems<std::uint64_t, &SweepGrid::dramCacheMb,
                    parseRange<std::uint64_t, 0, MaxDramCacheMb>>,
         [](const SweepGrid &grid, std::size_t i, RunSpec &spec,
            SystemConfig &raw) {
             spec.dramCacheMb = grid.dramCacheMb[i];
             if (spec.dramCacheMb)
                 raw.dramCacheBytes = spec.dramCacheMb << 20;
         },
         [](const SystemConfig &cfg) { return cfg.designUsesDramCache(); },
         0},
        {"mapping", "mappings", enumNameList<MappingPolicy>,
         "page placement policy (default FT2)", &AxisIndices::mappingIdx,
         lengthOf<MappingPolicy, &SweepGrid::mappings>,
         parseItems<MappingPolicy, &SweepGrid::mappings>,
         applyField<MappingPolicy, &SweepGrid::mappings,
                    &SystemConfig::mapping>,
         nullptr, SingleFlag},
    };
    return axes;
}

bool
parseAxisFlag(const std::string &key, bool lists, const std::string &value,
              SweepGrid &grid, std::string &error)
{
    for (const GridAxis &axis : gridAxes()) {
        const char *flag = flagOf(axis, lists);
        if (!flag || key != flag)
            continue;
        const std::vector<std::string> items =
            lists ? splitList(value) : std::vector<std::string>{value};
        std::string bad;
        if (items.empty())
            error = "empty --" + key + " list";
        else if (!axis.parseList(items, grid, bad))
            error = "bad --" + key + " value '" + bad + "' (want " +
                axis.values() + ")";
        return true;
    }
    return false;
}

std::string
axisUsage(bool lists)
{
    const std::string indent(25, ' ');
    std::string out;
    for (const GridAxis &axis : gridAxes()) {
        const char *flag = flagOf(axis, lists);
        if (!flag)
            continue;
        std::string line =
            "  --" + std::string(flag) + (lists ? "=A,B" : "=X");
        line.resize(std::max(line.size() + 1, indent.size()), ' ');
        out += line + axis.help + '\n' + indent + axis.values() + '\n';
    }
    return out;
}

std::string
specIdentityKey(const RunSpec &spec)
{
    return SweepEngine::makeRow(spec, {}).identityKey();
}

std::string
machineKey(const RunSpec &spec)
{
    ResultRow row = SweepEngine::makeRow(spec, {});
    std::string ordinals;
    for (const GridAxis &axis : gridAxes()) {
        if (axis.has(OrdinalKeyed))
            ordinals += std::to_string(spec.*axis.index) + '|';
        if (axis.relevant && !axis.relevant(spec.cfg)) {
            const RowColumn &c = rowColumn(axis.name);
            if (c.str)
                row.*c.str = "*";
            else
                c.setNumber(row, 0);
        }
    }
    return ordinals + row.identityKey();
}

std::string
gridFingerprint(const std::vector<RunSpec> &specs)
{
    std::uint64_t h = Fnv1aOffset;
    const auto mix = [&h](const char c) {
        h = fnv1aByte(h, static_cast<unsigned char>(c));
    };
    for (const RunSpec &spec : specs) {
        for (const char c : specIdentityKey(spec))
            mix(c);
        // Trace workloads: fold the file's content hash in, so a
        // journal written against one trace refuses to resume/merge
        // against different contents -- even at the same path. The
        // path itself is deliberately absent (the same trace mounted
        // elsewhere on another shard worker is the same grid).
        if (spec.profile.isTrace()) {
            char tb[32];
            std::snprintf(tb, sizeof(tb), "|trace:%016" PRIx64,
                          spec.profile.traceHash);
            for (const char *p = tb; *p; ++p)
                mix(*p);
        }
        // Compositions fold their semantic hash the same way: it
        // covers the manifest's stream-shaping fields plus every
        // member trace's content hash, so editing the manifest OR
        // any member refuses resume/merge.
        if (spec.profile.isComposition()) {
            char cb[36];
            std::snprintf(cb, sizeof(cb), "|compose:%016" PRIx64,
                          spec.profile.compositionHash);
            for (const char *p = cb; *p; ++p)
                mix(*p);
        }
        mix('\n');
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

std::uint64_t
autoWarmupOps(const WorkloadProfile &unscaled, std::uint64_t base)
{
    return unscaled.fracStream > 0.5 ? 45000 : base;
}

std::uint32_t
paperCoresPerSocket(std::uint32_t sockets)
{
    return sockets == 2 ? 16 : 8;
}

SweepGrid
quickPreset(SweepGrid grid)
{
    grid.scale = 256;
    grid.coresPerSocket = 2;
    grid.warmupOps = 500;
    grid.measureOps = 2000;
    return grid;
}

std::size_t
SweepGrid::size() const
{
    std::size_t n = 1;
    for (const GridAxis &axis : gridAxes())
        n *= axis.size(*this);
    return n;
}

std::vector<RunSpec>
SweepGrid::expand() const
{
    const std::vector<GridAxis> &axes = gridAxes();
    std::vector<RunSpec> specs(size());
    for (std::size_t n = 0; n < specs.size(); ++n) {
        RunSpec &spec = specs[n];
        spec.index = n;
        // Mixed-radix digits of n, the last axis fastest.
        std::size_t rest = n;
        for (auto axis = axes.rbegin(); axis != axes.rend(); ++axis) {
            const std::size_t len = axis->size(*this);
            spec.*axis->index = rest % len;
            rest /= len;
        }
        SystemConfig raw;
        for (const bool last : {false, true}) {
            for (const GridAxis &axis : axes) {
                if (axis.has(AppliedLast) == last)
                    axis.apply(*this, spec.*axis.index, spec, raw);
            }
        }
        spec.scale = scale;
        spec.measureOps = measureOps;
        spec.warmupOps = warmupOps ? warmupOps
                                   : autoWarmupOps(spec.profile);
        spec.cfg = raw.scaled(scale);
    }
    return specs;
}

} // namespace c3d::exp
