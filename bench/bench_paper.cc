/**
 * @file
 * bench_paper: the paper's evaluation (Table I, Figs. 2-11, SIII-B,
 * SVI-C and the design ablations) as one program; see docs/sweeps.md
 * "How the paper's figures are reproduced".
 *
 * figures() declares each figure once: its grid fragments, a view
 * that prints its table and records named measurements, and the
 * paper's claims as predicates over them. main() runs the union
 * of the selected fragments with each distinct row once, renders the
 * views, and ends with a claims block; it exits 1 when a claim
 * asserted at this scale fails. Figures run at 1/32 of the paper
 * machine: shapes, not absolute numbers, are the target.
 */

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cache/capacity_analyzer.hh"
#include "common/cli.hh"
#include "common/log.hh"
#include "core/dir_cost.hh"
#include "exp/json.hh"
#include "exp/sweep_engine.hh"

namespace
{

using namespace c3d;
using namespace c3d::exp;

// ---- paper-level declarations -------------------------------------------
// Every workload and config variant a figure uses, declared once under
// a unique name. Fragments name them, so rows with equal identity keys
// are the same machine whichever figure declared them.

const std::vector<WorkloadProfile> &
paperWorkloads()
{
    static const std::vector<WorkloadProfile> all = [] {
        std::vector<WorkloadProfile> w = parallelProfiles();
        w.push_back(mcfProfile());
        return w;
    }();
    return all;
}

/** The parallel suite's names, then @p more. */
std::vector<std::string>
parallel(std::vector<std::string> more = {})
{
    std::vector<std::string> names;
    for (const WorkloadProfile &p : parallelProfiles())
        names.push_back(p.name);
    names.insert(names.end(), more.begin(), more.end());
    return names;
}

/** A latency swept by Fig. 10 or 11; Table II's value is the default. */
struct LatencyAxis
{
    const char *prefix; //!< of its variants' names
    std::vector<std::uint64_t> ns;
    std::uint64_t tableTwo;
    Tick SystemConfig::*field;

    std::string
    variant(std::uint64_t n) const
    {
        return n == tableTwo ? "" : prefix + std::to_string(n) + "ns";
    }
};

const LatencyAxis DramCacheLatency = {"dram-cache-latency=", {30, 40, 50}, 40,
                                      &SystemConfig::dramCacheLatency};
const LatencyAxis HopLatency = {"hop-latency=", {5, 10, 20, 30}, 20,
                                &SystemConfig::hopLatency};

/**
 * Entry 0, unnamed, is Table II's machine. A figure point that only
 * restates a default (Fig. 10's 40 ns, Fig. 11's 20 ns, an unpatched
 * "base") is that machine; its view prints the label.
 */
const std::vector<ConfigVariant> &
paperVariants()
{
    static const std::vector<ConfigVariant> all = [] {
        std::vector<ConfigVariant> v = {
            {"", nullptr},
            {"0_qpi_lat", [](SystemConfig &c) { c.zeroHopLatency = true; }},
            {"inf_mem_bw",
             [](SystemConfig &c) { c.infiniteMemBandwidth = true; }},
            {"inf_qpi_bw",
             [](SystemConfig &c) { c.infiniteLinkBandwidth = true; }},
            {"inf_both",
             [](SystemConfig &c) {
                 c.infiniteMemBandwidth = true;
                 c.infiniteLinkBandwidth = true;
             }},
            {"tlb", [](SystemConfig &c) { c.tlbPageClassification = true; }},
            {"predictor=counting",
             [](SystemConfig &c) { c.missPredictorExact = false; }},
            {"predictor=disabled",
             [](SystemConfig &c) { c.missPredictorEnabled = false; }},
            // Read by name by the DRAM-cache replay; no patch.
            {"dram-cache=private", nullptr},
            {"dram-cache=shared", nullptr},
        };
        for (const std::uint64_t mb : {16, 64, 256, 1024})
            v.push_back({std::to_string(mb) + "MB",
                         [mb](SystemConfig &c) { c.llcBytes = mb << 20; }});
        for (const LatencyAxis *axis : {&DramCacheLatency, &HopLatency}) {
            for (const std::uint64_t ns : axis->ns) {
                if (ns != axis->tableTwo)
                    v.push_back({axis->variant(ns),
                                 [ns, f = axis->field](SystemConfig &c) {
                                     c.*f = nsToTicks(ns);
                                 }});
            }
        }
        return v;
    }();
    return all;
}

/** Ordinal of @p list's entry named @p name; panics when absent. */
template <class T>
std::size_t
ordinalOf(const std::vector<T> &list, const std::string &name)
{
    for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i].name == name)
            return i;
    }
    c3d_panic("'%s' is not declared at paper level", name.c_str());
}

/** A grid over paper-level workloads and variants, by name. */
SweepGrid
paperGrid(const std::vector<std::string> &workloads,
          std::vector<Design> designs,
          const std::vector<std::string> &variants = {},
          std::uint32_t sockets = 4)
{
    SweepGrid grid;
    grid.sockets = {sockets};
    for (const std::string &w : workloads)
        grid.workloads.push_back(
            paperWorkloads()[ordinalOf(paperWorkloads(), w)]);
    for (const std::string &v : variants)
        grid.variants.push_back(
            paperVariants()[ordinalOf(paperVariants(), v)]);
    grid.designs = std::move(designs);
    return grid;
}

// ---- figure declarations ------------------------------------------------

/** A functional replay standing in for the timing simulation. */
using Replay = RunResult (*)(const RunSpec &);

/** One grid a figure reads. */
struct Fragment
{
    SweepGrid grid;
    Replay replay = nullptr; //!< null: the timing simulation
    /** The workloads --quick keeps; empty keeps the first two. */
    std::vector<std::string> quickWorkloads = {};
};

/** Text built up printf-style: a figure's section, the claims. */
struct Text
{
    std::string out;

    __attribute__((format(printf, 2, 3))) void
    operator()(const char *fmt, ...)
    {
        va_list ap, again;
        va_start(ap, fmt);
        va_copy(again, ap);
        const std::size_t at = out.size();
        const int n = std::vsnprintf(nullptr, 0, fmt, ap);
        out.resize(at + static_cast<std::size_t>(n) + 1);
        std::vsnprintf(&out[at], out.size() - at, fmt, again);
        out.pop_back();
        va_end(again);
        va_end(ap);
    }
};

/** A named column of per-row values. */
struct Series
{
    std::string name;
    std::vector<double> values;
};

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

/** What a view reads (its quickened fragments' rows) and writes. */
struct View
{
    const std::vector<Fragment> &fragments;
    const ResultTable &rows;
    Text &print;
    std::map<std::string, double> &measured; //!< read by the claims

    const SweepGrid &grid(std::size_t i = 0) const
    {
        return fragments.at(i).grid;
    }
    const RunResult &at(const RowPattern &p) const
    {
        return rows.at(p).metrics;
    }
    void record(const std::vector<Series> &series)
    {
        for (const Series &s : series)
            measured[s.name] = geomean(s.values);
    }
};

/** Where a claim is asserted. */
enum class Scope
{
    Always,    //!< at --quick and at full scale
    FullScale, //!< the quick grids are too small to show it
    Gap,       //!< a known reproduction gap: reported, never asserted
};

/** A claim holds when lo < value < hi. */
struct Range
{
    double lo, hi;
};

constexpr double Inf = std::numeric_limits<double>::infinity();
Range above(double x) { return {x, Inf}; }
Range below(double x) { return {-Inf, x}; }
/** The paper's "~x": within 5% of x unless it names a tolerance. */
Range near(double x, double frac = 0.05)
{
    return {x * (1 - frac), x * (1 + frac)};
}

struct Claim
{
    const char *text;  //!< the paper's statement as a predicate
    const char *paper; //!< the paper's value
    const char *value; //!< the measurement the predicate reads
    Range holds;
    const char *over = nullptr; //!< when set, value is divided by it
    Scope scope = Scope::Always;
};

struct Figure
{
    const char *name;  //!< the command-line name
    const char *title; //!< header lines; null when the view prints its own
    const char *paper;
    std::vector<Fragment> fragments;
    void (*view)(View &);
    std::vector<Claim> claims;
};

// ---- views --------------------------------------------------------------

const char *const Rule = "================================================"
                         "========================\n";

/** Rows down, series across, and a geomean row. */
void
printTable(Text &print, const std::vector<std::string> &rows,
           const std::vector<Series> &series)
{
    print("%-16s", "workload");
    for (const Series &s : series)
        print("%14s", s.name.c_str());
    print("\n");
    for (std::size_t r = 0; r <= rows.size(); ++r) {
        print("%-16s", r < rows.size() ? rows[r].c_str() : "geomean");
        for (const Series &s : series) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%12.3f",
                          r < rows.size() ? s.values.at(r)
                                          : geomean(s.values));
            print("%14s", buf);
        }
        print("\n");
    }
}

/** A pattern pinning every axis @p g holds one value on. */
RowPattern
fixedAxes(const SweepGrid &g)
{
    RowPattern p;
    if (g.variants.size() <= 1)
        p.variant(g.variants.empty() ? "" : g.variants[0].name);
    if (g.designs.size() == 1)
        p.design(g.designs[0]);
    if (g.sockets.size() == 1)
        p.sockets(g.sockets[0]);
    if (g.mappings.size() == 1)
        p.mapping(g.mappings[0]);
    return p;
}

double
ratio(std::uint64_t a, std::uint64_t b)
{
    return b ? static_cast<double>(a) / static_cast<double>(b) : 1.0;
}

double
speedup(const RunResult &base, const RunResult &row)
{
    return static_cast<double>(base.measuredTicks) /
        static_cast<double>(row.measuredTicks);
}

using Rel = double (*)(const RunResult &base, const RunResult &row);

/**
 * Workloads down; across, the grid's variants (or, with @p by_design,
 * its designs) from the @p first on. Each cell is @p rel of the
 * workload's row at the first variant (design) and at the column's.
 */
void
workloadTable(View &v, bool by_design, std::size_t first, Rel rel)
{
    const SweepGrid &g = v.grid();
    std::vector<std::pair<std::string, RowPattern>> cols;
    for (const ConfigVariant &c : g.variants) {
        if (!by_design)
            cols.push_back({c.name, fixedAxes(g).variant(c.name)});
    }
    for (const Design d : g.designs) {
        if (by_design)
            cols.push_back({designName(d), fixedAxes(g).design(d)});
    }
    std::vector<std::string> names;
    std::vector<Series> series;
    for (std::size_t c = first; c < cols.size(); ++c)
        series.push_back({cols[c].first, {}});
    for (const WorkloadProfile &w : g.workloads) {
        names.push_back(w.name);
        const RunResult &base =
            v.at(RowPattern(cols[0].second).workload(w.name));
        for (std::size_t c = first; c < cols.size(); ++c)
            series[c - first].values.push_back(rel(
                base, v.at(RowPattern(cols[c].second).workload(w.name))));
    }
    printTable(v.print, names, series);
    v.record(series);
}

// Table I -----------------------------------------------------------------

void
table1View(View &v)
{
    static const std::map<std::string, double> paper = {
        {"facesim", 76.6},      {"streamcluster", 73.6},
        {"freqmine", 74.6},     {"fluidanimate", 75.2},
        {"canneal", 75.0},      {"tunkrank", 61.6},
        {"nutch", 75.2},        {"cassandra", 75.2},
        {"classification", 75.2}};
    const SweepGrid &g = v.grid();
    v.print("%-16s %12s %12s\n", "workload", "paper", "measured");
    double sum = 0;
    for (const WorkloadProfile &w : g.workloads) {
        const RunResult &m = v.at(fixedAxes(g).workload(w.name));
        const double frac = m.memAccesses()
            ? 100.0 * static_cast<double>(m.remoteMemAccesses()) /
                static_cast<double>(m.memAccesses())
            : 0.0;
        v.print("%-16s %11.1f%% %11.1f%%\n", w.name.c_str(),
                paper.at(w.name), frac);
        sum += frac;
    }
    const double avg = sum / static_cast<double>(g.workloads.size());
    v.print("%-16s %11.1f%% %11.1f%%\n", "average", 73.5, avg);
    v.measured["remote %"] = avg;
}

// Figs. 2 and 3 -----------------------------------------------------------

void
fig2View(View &v)
{
    workloadTable(v, false, 1, speedup);
    v.print("\npaper shape: 0_qpi_lat in 1.14-1.60x; bandwidth "
            "columns near 1.0x\n");
}

/** Functional replay of the spec's workload against one cache level. */
RunResult
replayCapacity(const RunSpec &spec, std::uint64_t bytes,
               std::uint32_t ways, bool shared)
{
    SyntheticWorkload wl(spec.profile.scaled(spec.scale),
                         spec.cfg.totalCores(), spec.cfg.coresPerSocket);
    const CapacityResult r =
        analyzeCapacity(wl, spec.cfg.numSockets, spec.cfg.coresPerSocket,
                        bytes, ways, shared, spec.measureOps);
    RunResult m;
    m.instructions = r.references;
    m.memReads = r.cacheMisses;
    m.llcMisses = r.cacheMisses;
    m.remoteMemReads = r.remoteMisses;
    return m;
}

RunResult
replayLlc(const RunSpec &spec)
{
    return replayCapacity(spec, spec.cfg.llcBytes, spec.cfg.llcWays, false);
}

std::vector<Fragment>
fig3Grids()
{
    // Functional model: full-size footprints and capacities, since no
    // timing is simulated; measureOps references per core.
    SweepGrid g = paperGrid(parallel(), {Design::Baseline},
                            {"16MB", "64MB", "256MB", "1024MB"});
    g.scale = 1;
    g.measureOps = 400000;
    g.warmupOps = 1; // unused by the replay; avoid the auto quota
    return {{g, replayLlc}};
}

void
fig3View(View &v)
{
    workloadTable(v, false, 0, [](const RunResult &base, const RunResult &row) {
        return ratio(row.llcMisses, base.llcMisses);
    });
    v.print("\npaper shape: monotone decrease; 1GB point around "
            "0.55-0.61 of the 16MB baseline on average\n");
}

// Figs. 6-9 ---------------------------------------------------------------

const std::vector<Design> AllDesigns = {Design::Baseline, Design::Snoopy,
                                        Design::FullDir, Design::C3D,
                                        Design::C3DFullDir};

void speedupView(View &v) { workloadTable(v, true, 1, speedup); }

void
trafficView(View &v)
{
    workloadTable(v, true, 1, [](const RunResult &base, const RunResult &row) {
        return ratio(row.interSocketBytes, base.interSocketBytes);
    });
}

void
fig8View(View &v)
{
    const SweepGrid &g = v.grid();
    std::vector<std::string> names;
    std::vector<Series> series = {
        {"reads", {}}, {"writes", {}}, {"total", {}}, {"remote-reads", {}}};
    for (const WorkloadProfile &w : g.workloads) {
        names.push_back(w.name);
        RowPattern at = fixedAxes(g).workload(w.name);
        const RunResult &base = v.at(at.design(Design::Baseline));
        const RunResult &c3d = v.at(at.design(Design::C3D));
        series[0].values.push_back(ratio(c3d.memReads, base.memReads));
        series[1].values.push_back(ratio(c3d.memWrites, base.memWrites));
        series[2].values.push_back(
            ratio(c3d.memAccesses(), base.memAccesses()));
        series[3].values.push_back(
            ratio(c3d.remoteMemReads, base.remoteMemReads));
    }
    printTable(v.print, names, series);
    v.print("\npaper shape: reads far below 1.0 (streamcluster "
            "~0.02), writes ~=1.0, remote reads ~0.29 avg\n");
    v.record(series);
}

// Figs. 10 and 11 ---------------------------------------------------------

const std::vector<std::string> LatencyWorkloads = {
    "facesim", "streamcluster", "canneal", "nutch"};
const std::vector<Design> LatencyDesigns = {Design::Snoopy, Design::FullDir,
                                            Design::C3D};

SweepGrid
latencyGrid(std::vector<Design> designs, const LatencyAxis &axis)
{
    std::vector<std::string> points;
    for (const std::uint64_t ns : axis.ns)
        points.push_back(axis.variant(ns));
    return paperGrid(LatencyWorkloads, std::move(designs), points);
}

/**
 * Latency points down, designs across: geomean speedups over the last
 * fragment's workloads, against the baseline at the same point when
 * @p same_point, else at the default machine. Records "c3d@30ns" etc.
 */
void
latencyView(View &v, const LatencyAxis &axis, bool same_point)
{
    const std::vector<std::uint64_t> &ns = axis.ns;
    const SweepGrid &g = v.grid(v.fragments.size() - 1);
    std::vector<std::string> labels;
    std::vector<Series> series;
    for (const Design d : LatencyDesigns)
        series.push_back({designName(d), {}});
    for (std::size_t p = 0; p < ns.size(); ++p) {
        const std::string label = std::to_string(ns[p]) + "ns";
        labels.push_back(label + (ns[p] == axis.tableTwo ? " (default)" : ""));
        const std::string &point = g.variants[p].name;
        for (std::size_t d = 0; d < LatencyDesigns.size(); ++d) {
            std::vector<double> speedups;
            for (const WorkloadProfile &w : g.workloads) {
                RowPattern at = fixedAxes(g).workload(w.name);
                const RunResult &base = v.at(RowPattern(at).design(
                    Design::Baseline).variant(same_point ? point : ""));
                speedups.push_back(speedup(
                    base, v.at(at.design(LatencyDesigns[d]).variant(point))));
            }
            series[d].values.push_back(geomean(speedups));
            v.measured[series[d].name + "@" + label] =
                series[d].values.back();
        }
    }
    printTable(v.print, labels, series);
}

void
fig10View(View &v)
{
    latencyView(v, DramCacheLatency, false);
    v.print("\npaper shape: all designs degrade slowly with "
            "latency; c3d stays on top throughout\n");
}

void fig11View(View &v) { latencyView(v, HopLatency, true); }

// SVI-C -------------------------------------------------------------------

void
sec6cView(View &v)
{
    const SweepGrid &g = v.grid();
    v.print("%-16s %12s %12s %10s %12s\n", "workload", "bcast base",
            "bcast +tlb", "elided%", "noc delta%");
    double worst_delta = 0;
    for (const WorkloadProfile &w : g.workloads) {
        RowPattern at = fixedAxes(g).workload(w.name);
        const RunResult &base = v.at(at.variant(""));
        const RunResult &tlb = v.at(at.variant("tlb"));
        const std::uint64_t write_misses =
            tlb.broadcasts + tlb.broadcastsElided;
        const double elided = write_misses
            ? 100.0 * static_cast<double>(tlb.broadcastsElided) /
                static_cast<double>(write_misses)
            : 0.0;
        const double delta = base.interSocketBytes
            ? 100.0 * (static_cast<double>(tlb.interSocketBytes) /
                           static_cast<double>(base.interSocketBytes) -
                       1.0)
            : 0.0;
        v.print("%-16s %12llu %12llu %9.1f%% %11.2f%%\n", w.name.c_str(),
                static_cast<unsigned long long>(base.broadcasts),
                static_cast<unsigned long long>(tlb.broadcasts), elided,
                delta);
        v.measured[w.name + " elided %"] = elided;
        if (w.name != "mcf")
            worst_delta = std::max(worst_delta, std::fabs(delta));
    }
    v.measured["parallel |noc delta| %"] = worst_delta;
}

// Ablations ---------------------------------------------------------------

/** The (scaled) DRAM cache; "shared" pools every socket's capacity. */
RunResult
replayDramCache(const RunSpec &spec)
{
    return replayCapacity(spec, spec.cfg.dramCacheBytes, /*ways=*/1,
                          spec.variantName == "dram-cache=shared");
}

std::vector<Fragment>
ablationGrids()
{
    // 3: page placement under C3D.
    SweepGrid mapping = paperGrid({"facesim", "cassandra"}, {Design::C3D});
    mapping.mappings = {MappingPolicy::Interleave,
                        MappingPolicy::FirstTouch1,
                        MappingPolicy::FirstTouch2};
    // 4: private vs shared DRAM-cache organization, functional.
    SweepGrid org = paperGrid({"streamcluster", "canneal", "tunkrank"},
                              {Design::C3D},
                              {"dram-cache=private", "dram-cache=shared"});
    org.measureOps = 200000;
    org.warmupOps = 1; // unused by the replay
    // 1: clean vs dirty DRAM caches under the same full directory. 2:
    // the predictor variants exist only on the C3D machine, so the
    // baseline reference is its own grid.
    return {{paperGrid({"facesim", "nutch", "streamcluster"},
                       {Design::Baseline, Design::FullDir,
                        Design::C3DFullDir})},
            {paperGrid({"canneal", "streamcluster"}, {Design::Baseline})},
            {paperGrid({"canneal", "streamcluster"}, {Design::C3D},
                       {"", "predictor=counting", "predictor=disabled"})},
            {mapping},
            {org, replayDramCache}};
}

void
ablationView(View &v)
{
    const SweepGrid &dirty = v.grid(0);
    v.print("\n--- ablation 1: clean (c3d-full-dir) vs dirty "
            "(full-dir) under a full directory ---\n");
    v.print("%-16s %14s %14s %14s\n", "workload", "dirty(x)", "clean(x)",
            "clean adv.");
    Series sd{"dirty", {}}, sc{"clean", {}};
    for (const WorkloadProfile &w : dirty.workloads) {
        RowPattern at = fixedAxes(dirty).workload(w.name);
        const RunResult &base = v.at(at.design(Design::Baseline));
        sd.values.push_back(speedup(base, v.at(at.design(Design::FullDir))));
        sc.values.push_back(
            speedup(base, v.at(at.design(Design::C3DFullDir))));
        v.print("%-16s %14.3f %14.3f %13.1f%%\n", w.name.c_str(),
                sd.values.back(), sc.values.back(),
                100.0 * (sc.values.back() / sd.values.back() - 1.0));
    }

    const SweepGrid &pred = v.grid(2);
    v.print("\n--- ablation 2: DRAM-cache miss predictor ---\n");
    v.print("%-16s %14s %14s %14s\n", "workload", "missmap(x)",
            "counting(x)", "disabled(x)");
    std::vector<Series> kinds = {{"missmap", {}}, {"counting", {}},
                                 {"disabled", {}}};
    for (const WorkloadProfile &w : pred.workloads) {
        const RunResult &base = v.at(fixedAxes(v.grid(1)).workload(w.name));
        RowPattern at = fixedAxes(pred).workload(w.name);
        v.print("%-16s", w.name.c_str());
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            kinds[k].values.push_back(
                speedup(base, v.at(at.variant(pred.variants[k].name))));
            v.print(" %14.3f", kinds[k].values.back());
        }
        v.print("\n");
    }

    const SweepGrid &place = v.grid(3);
    v.print("\n--- ablation 3: page placement policy under C3D "
            "---\n");
    v.print("%-16s %14s %14s %14s\n", "workload", "INT ticks",
            "FT1 ticks", "FT2 ticks");
    for (const WorkloadProfile &w : place.workloads) {
        v.print("%-16s", w.name.c_str());
        for (const MappingPolicy m : place.mappings)
            v.print(" %14.0f", static_cast<double>(
                v.at(fixedAxes(place).workload(w.name).mapping(m))
                    .measuredTicks));
        v.print("\n");
    }

    const SweepGrid &org = v.grid(4);
    v.print("\n--- ablation 4: shared vs private DRAM-cache "
            "organization (functional, SII-C) ---\n");
    v.print("%-16s %16s %16s %18s\n", "workload", "private miss%",
            "shared miss%", "private remote%");
    Series priv_miss{"private miss", {}}, shared_miss{"shared miss", {}};
    for (const WorkloadProfile &w : org.workloads) {
        RowPattern at = fixedAxes(org).workload(w.name);
        const RunResult &priv = v.at(at.variant("dram-cache=private"));
        const RunResult &shared = v.at(at.variant("dram-cache=shared"));
        priv_miss.values.push_back(
            100.0 * ratio(priv.llcMisses, priv.instructions));
        shared_miss.values.push_back(
            100.0 * ratio(shared.llcMisses, shared.instructions));
        v.print("%-16s %15.1f%% %15.1f%% %17.1f%%\n", w.name.c_str(),
                priv.instructions ? priv_miss.values.back() : 0.0,
                shared.instructions ? shared_miss.values.back() : 0.0,
                priv.llcMisses ? 100.0 *
                        static_cast<double>(priv.remoteMemReads) /
                        static_cast<double>(priv.llcMisses)
                               : 0.0);
    }
    v.print("(shared pools capacity -> fewer misses, but every "
            "miss to a remote home still crosses sockets;\n"
            " private replicates -> slightly more misses, but "
            "local hits remove inter-socket trips: SII-C)\n");
    v.record({sd, sc, kinds[0], kinds[2], priv_miss, shared_miss});
}

// SIII-B: analytic --------------------------------------------------------

void
dirCostView(View &v)
{
    const std::uint64_t llc = 16ull << 20;
    const std::uint64_t dram_cache = 1024ull << 20;
    const auto mb = [](std::uint64_t bytes) {
        return static_cast<double>(bytes) / (1 << 20);
    };
    v.print("Directory storage cost per socket (paper SIII-B)\n");
    v.print("%-28s %14s %14s\n", "organization", "covers (MB)",
            "directory (MB)");
    for (const DirCostRow &row : directoryCostTable(llc, dram_cache)) {
        v.print("%-28s %14llu %14.1f\n", row.design.c_str(),
                static_cast<unsigned long long>(row.coveredBytes >> 20),
                mb(row.directoryBytes));
    }
    std::map<std::string, double> &m = v.measured;
    m["256MB@1x"] = mb(directoryBytesFor(256ull << 20, 1));
    m["256MB@2x"] = mb(directoryBytesFor(256ull << 20, 2));
    m["1GB@2x"] = mb(directoryBytesFor(dram_cache, 2));
    const double c3d = mb(directoryBytesFor(llc, 2));
    v.print("\npaper reference points: 256MB@1x -> 16MB, "
            "256MB@2x -> 32MB, 1GB@2x -> 128MB\n");
    v.print("measured:                256MB@1x -> %.0fMB, "
            "256MB@2x -> %.0fMB, 1GB@2x -> %.0fMB\n",
            m["256MB@1x"], m["256MB@2x"], m["1GB@2x"]);
    v.print("c3d needs only the LLC-covering directory: %.1f MB "
            "at 2x (a %.0fx reduction vs 1GB@2x)\n",
            c3d, m["1GB@2x"] / c3d);
}

// The figure table --------------------------------------------------------

const std::vector<Figure> &
figures()
{
    const Scope Full = Scope::FullScale, Gap = Scope::Gap;
    static const std::vector<Figure> all = {
        {"table1",
         "Table I: remote-memory access fraction (first-touch, 4-socket "
         "baseline)",
         "61.6-76.6% of memory accesses are satisfied by a remote socket",
         {{paperGrid(parallel(), {Design::Baseline})}}, table1View,
         {{"average remote fraction in 61.6-76.6%", "73.5%", "remote %",
           {61.6, 76.6}, nullptr, Gap}}},
        {"fig2",
         "Fig. 2: NUMA bottleneck analysis (baseline machine "
         "idealizations)",
         "zero-QPI-latency speeds up 14-60%; infinite bandwidth barely "
         "helps",
         {{paperGrid(parallel(), {Design::Baseline},
                     {"", "0_qpi_lat", "inf_mem_bw", "inf_qpi_bw",
                      "inf_both"})}},
         fig2View,
         {{"0_qpi_lat geomean in 1.14-1.60x", "1.14-1.60x", "0_qpi_lat",
           {1.14, 1.60}},
          {"latency beats bandwidth: 0_qpi_lat > inf_both",
           "bandwidth barely helps", "0_qpi_lat", above(1), "inf_both"}}},
        {"fig3",
         "Fig. 3: memory accesses vs cache capacity (normalized to 16 MB "
         "LLC)",
         "64MB/256MB/1GB caches remove up to ~45% of memory accesses on "
         "average",
         fig3Grids(), fig3View,
         {{"64MB removes memory accesses: 64MB < 1", "monotone decrease",
           "64MB", below(1)},
          {"1GB removes more than 64MB: 1024MB < 64MB", "monotone decrease",
           "1024MB", below(1), "64MB", Full},
          {"1GB point 0.545-0.614 of 16MB", "38.6-45.5% removed", "1024MB",
           {0.545, 0.614}, nullptr, Gap}}},
        {"fig6", "Fig. 6: 4-socket (8 cores/socket) speedup vs baseline",
         "c3d avg ~1.19x (streamcluster 1.51x); snoopy mostly <1.0x; "
         "c3d-full-dir ~1.20x",
         {{paperGrid(parallel(), AllDesigns)}}, speedupView,
         {{"c3d geomean > 1", "1.19x", "c3d", above(1)},
          {"snoopy geomean < 1", "mostly <1.0x", "snoopy", below(1)}}},
        {"fig7", "Fig. 7: 2-socket (16 cores/socket) speedup vs baseline",
         "c3d avg ~1.24x, within 3% of c3d-full-dir (~1.26x)",
         {{paperGrid(parallel(), AllDesigns, {}, 2)}}, speedupView,
         {{"c3d geomean > 1", "1.24x", "c3d", above(1)},
          {"c3d within 3% of c3d-full-dir", "1.24x vs 1.26x", "c3d",
           near(1, 0.03), "c3d-full-dir"},
          {"c3d > snoopy", "same ordering as Fig. 6", "c3d", above(1),
           "snoopy"}}},
        {"fig8", "Fig. 8: C3D memory traffic normalized to baseline",
         "reads drop ~71% avg (up to 99%); writes ~1.0; total ~0.51 avg",
         {{paperGrid(parallel(), {Design::Baseline, Design::C3D})}},
         fig8View,
         {{"reads < 1", "0.29", "reads", below(1)},
          {"writes ~1.0 (clean caches write through)", "1.0", "writes",
           near(1)},
          {"remote reads < 1", "0.29", "remote-reads", below(1)}}},
        {"fig9", "Fig. 9: inter-socket traffic normalized to baseline",
         "c3d ~0.64x of baseline, ~5% above full-dir; snoopy well above 1x",
         {{paperGrid(parallel(), AllDesigns)}}, trafficView,
         {{"snoopy > 1", "well above 1x", "snoopy", above(1)},
          {"c3d < 1", "0.64x", "c3d", below(1), nullptr, Full},
          {"c3d ~5% above full-dir", "1.05x", "c3d", near(1.05), "full-dir",
           Gap}}},
        // The baseline has no DRAM cache: it runs once, at the default
        // machine, for every DRAM-cache latency point.
        {"fig10",
         "Fig. 10: speedup vs DRAM-cache latency (30/40/50 ns, geomean "
         "over workloads)",
         "c3d stays above baseline even at memory-equal 50ns latency "
         "(>1.17x)",
         {{paperGrid(LatencyWorkloads, {Design::Baseline})},
          {latencyGrid(LatencyDesigns, DramCacheLatency)}},
         fig10View,
         {{"c3d > 1 at 50ns", ">1.17x", "c3d@50ns", above(1)},
          {"c3d > 1.17 at 50ns", ">1.17x", "c3d@50ns", above(1.17), nullptr,
           Full},
          {"c3d gain shrinks with latency: 30ns > 50ns", "1.24x vs 1.17x",
           "c3d@30ns", above(1), "c3d@50ns"},
          {"c3d on top at 50ns: c3d > full-dir", "c3d on top", "c3d@50ns",
           above(1), "full-dir@50ns"}}},
        // Hop latency applies to the baseline too.
        {"fig11",
         "Fig. 11: speedup vs inter-socket hop latency (5/10/20/30 ns, "
         "geomean)",
         "c3d >=1.10x even at 5ns; gains grow with latency; c3d on top "
         "throughout",
         {{latencyGrid({Design::Baseline, Design::Snoopy, Design::FullDir,
                        Design::C3D},
                       HopLatency)}},
         fig11View,
         {{"c3d >= 1.10 at 5ns", ">=1.10x", "c3d@5ns", above(1.10), nullptr,
           Full},
          {"c3d gain grows with latency: 30ns > 5ns", "grows", "c3d@30ns",
           above(1), "c3d@5ns"},
          {"c3d on top at 30ns: c3d > full-dir", "c3d on top", "c3d@30ns",
           above(1), "full-dir@30ns"}}},
        // --quick keeps single-threaded mcf, the workload the headline
        // claim is about.
        {"sec6c", "SVI-C: TLB page classification vs C3D broadcasts",
         "parallel workloads: ~5% of broadcasts elided, <0.1% traffic "
         "change; mcf: ~all broadcasts elided",
         {{paperGrid(parallel({"mcf"}), {Design::C3D}, {"", "tlb"}), nullptr,
           {"facesim", "mcf"}}},
         sec6cView,
         {{"mcf: ~all broadcasts elided", "~100%", "mcf elided %",
           near(100)},
          {"parallel workloads: |traffic change| < 0.1%", "<0.1%",
           "parallel |noc delta| %", below(0.1), nullptr, Gap}}},
        {"ablations",
         "Ablations: clean property, miss predictor, placement policy, "
         "shared-vs-private",
         "design-choice isolation studies (DESIGN.md 5)", ablationGrids(),
         ablationView,
         {{"clean beats dirty under a full directory", "clean wins (SIV-A)",
           "clean", above(1), "dirty"},
          {"MissMap beats no predictor", "predictor hides probe latency",
           "missmap", above(1), "disabled"},
          {"shared DRAM cache misses less than private",
           "fewer misses (SII-C)", "shared miss", below(1), "private miss"}}},
        {"dir-cost", nullptr, nullptr, {}, dirCostView,
         {{"256MB@1x directory = 16MB", "16MB", "256MB@1x", near(16, 0.01)},
          {"256MB@2x directory = 32MB", "32MB", "256MB@2x", near(32, 0.01)},
          {"1GB@2x directory = 128MB", "128MB", "1GB@2x",
           near(128, 0.01)}}},
    };
    return all;
}

// ---- running the figures ------------------------------------------------

/**
 * The --quick preset: the fragment's quick workloads (by default its
 * first two) on the smoke-scale machine.
 */
SweepGrid
quicken(const Fragment &f)
{
    SweepGrid grid = f.grid;
    if (!f.quickWorkloads.empty())
        grid.workloads = paperGrid(f.quickWorkloads, {}).workloads;
    else if (grid.workloads.size() > 2)
        grid.workloads.resize(2);
    return quickPreset(std::move(grid));
}

/**
 * Run each distinct (replay, identity) of @p grids once, the timing
 * rows in one engine pass and each replay in its own; rows come back
 * in first-declaration order. The paper declarations fix the ordinals
 * machineKey reads, so equal identities share only equal machines.
 */
ResultTable
runUnion(const std::vector<std::vector<Fragment>> &grids, unsigned jobs,
         std::size_t &figure_rows)
{
    std::vector<RunSpec> specs;
    std::map<Replay, std::vector<std::size_t>> batches;
    std::map<Replay, std::set<std::string>> seen;
    for (const std::vector<Fragment> &fragments : grids) {
        for (const Fragment &f : fragments) {
            for (RunSpec &spec : f.grid.expand()) {
                ++figure_rows;
                spec.workloadIdx =
                    ordinalOf(paperWorkloads(), spec.profile.name);
                spec.variantIdx = ordinalOf(paperVariants(), spec.variantName);
                if (seen[f.replay].insert(specIdentityKey(spec)).second) {
                    batches[f.replay].push_back(specs.size());
                    specs.push_back(spec);
                }
            }
        }
    }
    std::vector<ResultRow> rows(specs.size());
    const SweepEngine engine(jobs);
    for (const auto &[replay, slots] : batches) {
        std::vector<RunSpec> batch;
        for (const std::size_t i : slots) {
            batch.push_back(specs[i]);
            batch.back().index = batch.size() - 1;
        }
        const ResultTable done =
            replay ? engine.run(batch, replay) : engine.run(batch);
        for (std::size_t j = 0; j < slots.size(); ++j)
            rows[slots[j]] = done.rows().at(j);
    }
    ResultTable table;
    for (ResultRow &row : rows)
        table.appendRow(std::move(row));
    return table;
}

/** --help: the flags, then every figure name in figures() order. */
void
usage()
{
    std::printf(
        "usage: bench_paper [--jobs=N] [--quick] [--json] [FIGURE...]\n"
        "Run the paper's figures as one deduplicated sweep, print each\n"
        "figure's table, then check the paper's claims.\n"
        "  --jobs=N   worker threads (default 1)\n"
        "  --quick    seconds-scale smoke grids (two workloads, 1/256)\n"
        "  --json     one JSON document: the distinct rows and the claims\n"
        "  --help     this text\n"
        "FIGURE (default all; always run in this order):\n ");
    for (const Figure &f : figures())
        std::printf(" %s", f.name);
    std::printf("\nexit status: 0 every asserted claim holds, 1 an "
                "asserted claim or a row\nfails, 2 usage error\n");
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 1;
    bool quick = false, json = false;
    std::set<std::string> picked;
    for (int i = 1; i < argc; ++i) {
        std::string key, value;
        std::uint64_t n = 0;
        if (!splitFlag(argv[i], key, value)) {
            picked.insert(argv[i]);
        } else if (key == "jobs" && parseU64(value, n) && n <= 256) {
            jobs = static_cast<unsigned>(n);
        } else if (key == "quick") {
            quick = true;
        } else if (key == "json") {
            json = true;
        } else if (key == "help") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "bench_paper: bad flag '%s' (try --help)\n",
                         argv[i]);
            return 2;
        }
    }
    std::vector<const Figure *> selected;
    const bool all = picked.empty();
    for (const Figure &f : figures()) {
        if (picked.erase(f.name) || all)
            selected.push_back(&f);
    }
    if (!picked.empty()) {
        std::fprintf(stderr, "bench_paper: no figure '%s' (try --help)\n",
                     picked.begin()->c_str());
        return 2;
    }
    setQuiet(true);

    try {
        std::vector<std::vector<Fragment>> grids;
        for (const Figure *f : selected) {
            grids.push_back(f->fragments);
            for (Fragment &fr : grids.back())
                fr.grid = quick ? quicken(fr) : fr.grid;
        }
        std::size_t figure_rows = 0;
        const ResultTable rows = runUnion(grids, jobs, figure_rows);

        Text text, lines, members;
        bool failed = false;
        for (std::size_t i = 0; i < selected.size(); ++i) {
            const Figure &f = *selected[i];
            if (f.title)
                text("%s%s\npaper: %s\nmachine scale 1/%u; shapes (not "
                     "absolute numbers) are the target\n%s",
                     Rule, f.title, f.paper, grids[i].at(0).grid.scale,
                     Rule);
            std::map<std::string, double> measured;
            View view{grids[i], rows, text, measured};
            f.view(view);
            const auto value = [&](const char *key) {
                const auto it = measured.find(key);
                if (it == measured.end())
                    c3d_panic("%s has no measurement '%s'", f.name, key);
                return it->second;
            };
            for (const Claim &c : f.claims) {
                const double x =
                    c.over ? value(c.value) / value(c.over) : value(c.value);
                const bool holds = c.holds.lo < x && x < c.holds.hi;
                const bool asserted = c.scope == Scope::Always ||
                    (c.scope == Scope::FullScale && !quick);
                if (asserted && !holds) {
                    failed = true;
                    std::fprintf(stderr, "bench_paper: FAIL %s: %s\n",
                                 f.name, c.text);
                }
                lines("%-10s %-78s %10.3f  %s\n", f.name,
                      (std::string(c.text) + " (paper " + c.paper + ")")
                          .c_str(),
                      x, asserted ? (holds ? "PASS" : "FAIL")
                          : holds ? "not asserted at this scale (holds)"
                                  : "not asserted at this scale (misses)");
                char measured_json[32] = "null";
                if (std::isfinite(x))
                    std::snprintf(measured_json, sizeof(measured_json),
                                  "%.6g", x);
                members("%s\n    {\"figure\": \"%s\", \"claim\": \"%s\", "
                        "\"paper\": \"%s\", \"measured\": %s, \"asserted\": "
                        "%s, \"pass\": %s}",
                        members.out.empty() ? "" : ",", f.name,
                        jsonEscape(c.text).c_str(),
                        jsonEscape(c.paper).c_str(), measured_json,
                        asserted ? "true" : "false",
                        holds ? "true" : "false");
            }
        }

        if (json) {
            std::printf("{\n  \"schema\": \"%s\",\n  \"rows\": [",
                        ResultTable::schemaName());
            for (std::size_t i = 0; i < rows.size(); ++i)
                std::printf("%s\n    %s", i ? "," : "",
                            ResultTable::rowToJson(rows.rows()[i]).c_str());
            std::printf("\n  ],\n  \"claims\": [%s\n  ],\n"
                        "  \"simulated_rows\": %zu,\n"
                        "  \"figure_rows\": %zu\n}\n",
                        members.out.c_str(), rows.size(), figure_rows);
        } else {
            std::printf("%s%sPaper claims: PASS, FAIL, or not asserted at "
                        "this scale\n%s%ssimulated %zu distinct rows for %zu "
                        "figure rows\n",
                        text.out.c_str(), Rule, Rule, lines.out.c_str(),
                        rows.size(), figure_rows);
        }
        return failed ? 1 : 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_paper: %s\n", e.what());
        return 1;
    }
}
