/**
 * @file
 * perfbench-driver: runs one benchmark workload in-process against
 * the simulator library and prints one JSON object of raw samples
 * (perfbench/run.py turns them into the benchmark's metrics).
 *
 * Workloads (why each was chosen: perfbench/README.md):
 *  - row-seq:      one facesim / c3d / 4-socket / scale-32 row on the
 *                  default kernel (multi-queue, one thread).
 *  - row-parallel: the same row with one kernel thread per socket
 *                  (capped at the host's hardware threads).
 *  - grid-mix:     a 40-row SweepEngine grid -- 5 designs x {mesi,
 *                  moesi} x {region, perceptron} x {canneal, an
 *                  interleaved composition of two traces recorded
 *                  from the seed at set-up}.
 *
 * Untraced (--trace=0): one discarded warm-up repetition, a
 * set-up-only phase (each pass builds everything up to the first
 * simulated event, then tears it down), then timed repetitions until
 * --seconds have been measured, with a reference pass (reference.hh)
 * before the first and after each, by which run.py scales them. Every untraced repetition takes the
 * program's own path with c3d-sweep's default run options (stall
 * watchdog on): rows through SweepEngine::simulateSpec, the grid
 * through SweepEngine::run(grid). Traced (--trace=1): a repetition on
 * that path, then an untraced and a traced repetition built here so
 * that each machine's statistics are reachable (TimedWorkload around
 * every row's workload), the model rows, and standalone layer timings.
 *
 * Every repetition digests the rows it simulated: the ResultTable row
 * JSON, plus every raw counter and histogram where the machine is
 * reachable. A row counts as failed when its digest differs from the
 * warm-up's, when the parallel kernel's differs from the sequential
 * kernel's, when grid rows on inert axes (protocol outside snoopy,
 * predictor on baseline) differ, when a traced row differs from its
 * untraced twin, or when it throws. The reported digest is the row
 * JSON digest of the last timed repetition (--trace=0) or of the
 * traced repetition (--trace=1), so runs on the two kernels, and runs
 * with and without tracing, can be compared by it.
 *
 * Usage: perfbench-driver --workload=W --seed=N --seconds=S
 *            --trace=0|1 --work-dir=DIR [--inject-fault=FAULT:K/M]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "exp/result_table.hh"
#include "exp/sweep_engine.hh"
#include "exp/sweep_grid.hh"
#include "probes.hh"
#include "reference.hh"
#include "sim/fault_injector.hh"
#include "sim/runner.hh"
#include "trace/trace_file.hh"
#include "workload/composed_workload.hh"
#include "workload/composition.hh"

namespace
{

using namespace perfbench;
using c3d::exp::ResultRow;
using c3d::exp::ResultTable;
using c3d::exp::RunSpec;
using c3d::exp::SweepEngine;
using c3d::exp::SweepGrid;

// ---- workload shapes ----------------------------------------------------

/** Set-up-only passes per untraced run (setup_s is their median). */
constexpr int SetupPasses = 7;
/** Timed repetitions an untraced run makes at the least. */
constexpr int MinReps = 3;
/** Addresses kept per core for the standalone layer replays. */
constexpr std::size_t KeptAddrsPerCore = 16384;

/** grid-mix geometry: 4 sockets x 8 cores, so each 16-lane member
 * trace of the interleaved composition drives half the cores. */
constexpr std::uint32_t GridScale = 128;
constexpr std::uint32_t GridCoresPerSocket = 8;
constexpr std::uint64_t GridWarmupOps = 2000;
constexpr std::uint64_t GridMeasureOps = 2000;

enum class Kind
{
    RowSeq,
    RowParallel,
    GridMix,
};

struct Options
{
    Kind kind = Kind::RowSeq;
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string workDir;
    /** --inject-fault: plan for grid rows with index % mod == rem. */
    c3d::FaultPlan fault;
    std::size_t faultMod = 0;
    std::size_t faultRem = 0;
};

/** Threads the parallel kernel and the sweep pool may use. */
unsigned
hostThreads()
{
    return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

/** Profile seed for benchmark seed @p n (0 keeps the profile's own). */
std::uint64_t
profileSeed(std::uint64_t n)
{
    return n ? 0xC3D0 + n : 0;
}

RunSpec
rowSpec(const Options &o, c3d::Design design)
{
    SweepGrid g;
    g.workloads = {c3d::facesimProfile()};
    g.designs = {design};
    g.sockets = {4};
    g.seed = profileSeed(o.seed);
    return g.expand().front();
}

/**
 * c3d-sweep's default run options (its stall detector is on at 2M
 * same-tick events) on the sequential or the parallel kernel.
 */
c3d::RunOptions
sweepOpts(bool parallel)
{
    c3d::RunOptions o;
    o.kernel.parallel = parallel;
    o.kernel.threads = parallel ? hostThreads() : 0;
    o.watchdog.stallEvents = 2000000;
    return o;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                   ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---- one simulated row ------------------------------------------------

/** Everything observed about one simulated row. */
struct RowRun
{
    c3d::RunResult result;
    double setupS = 0; //!< workload + Runner construction
    double runS = 0;   //!< Runner::run
    std::uint64_t events = 0;
    std::uint64_t heapEvents = 0;
    c3d::Tick cellWidth = 0;
    c3d::Tick endTick = 0;
    unsigned threads = 1;
    StatSummary stats;
    std::uint64_t nextCalls = 0; //!< traced rows only
    std::uint64_t nextNs = 0;
    std::vector<c3d::Addr> addrs;
};

/**
 * Build and run @p spec the way runWorkload() does (synthetic, trace
 * or composed workload; tenant tracking for compositions), optionally
 * behind a TimedWorkload, keeping the machine for its statistics.
 * With @p setup_only it returns right before the first simulated
 * event.
 */
RowRun
simulate(const RunSpec &spec, const c3d::RunOptions &opts, bool timed,
         bool keep_addrs, bool setup_only)
{
    RowRun out;
    const auto start = Clock::now();
    const c3d::WorkloadProfile prof = spec.profile.scaled(spec.scale);
    const std::uint32_t cores = spec.cfg.totalCores();

    std::unique_ptr<c3d::Workload> base;
    std::vector<std::int32_t> core_tenant;
    std::vector<std::string> tenant_names;
    if (prof.isComposition()) {
        c3d::CompositionSpec cs;
        std::string error;
        if (!c3d::loadComposition(prof.compositionPath, cs, error,
                                  /*validate_members=*/false))
            throw std::runtime_error(error);
        auto cw = std::make_unique<c3d::ComposedWorkload>(cs, prof.seed,
                                                          cores);
        core_tenant = cw->coreTenants();
        tenant_names = cw->tenantNames();
        base = std::move(cw);
    } else if (prof.isTrace()) {
        base = std::make_unique<c3d::TraceFileWorkload>(prof.tracePath,
                                                        prof.traceHash);
    } else {
        base = std::make_unique<c3d::SyntheticWorkload>(
            prof, cores, spec.cfg.coresPerSocket);
    }
    std::unique_ptr<TimedWorkload> tw;
    if (timed)
        tw = std::make_unique<TimedWorkload>(
            *base, cores, keep_addrs ? KeptAddrsPerCore : 0);
    c3d::Workload &wl = timed ? static_cast<c3d::Workload &>(*tw) : *base;

    c3d::Runner runner(spec.cfg, wl, opts);
    if (!core_tenant.empty())
        runner.enableTenantTracking(core_tenant, tenant_names);
    out.setupS = secondsSince(start);
    if (setup_only)
        return out;

    const auto run_start = Clock::now();
    out.result = runner.run(spec.warmupOps, spec.measureOps);
    out.runS = secondsSince(run_start);

    c3d::Machine &m = runner.machine();
    out.events = m.totalEventsExecuted();
    out.heapEvents = m.totalHeapCallbackEvents();
    if (m.kernelMode() == c3d::KernelMode::MultiQueue) {
        out.cellWidth = m.cellWidth();
        out.threads = opts.kernel.parallel ? opts.kernel.threads : 1;
    }
    for (const auto &cpu : runner.cores())
        out.endTick = std::max(out.endTick, cpu->finishAt());
    out.stats = summarize(m.stats());
    if (tw) {
        out.nextCalls = tw->calls();
        out.nextNs = tw->nanoseconds();
        out.addrs = tw->addressStream();
    }
    return out;
}

/**
 * A row's digests: of its serialized bytes, and of those plus its raw
 * statistics (0 when the run's machine was not reachable).
 */
struct Digest
{
    std::uint64_t json = 0;
    std::uint64_t full = 0;
};

Digest
rowDigest(const ResultRow &row, const StatSummary *stats)
{
    Digest d;
    d.json = fnv1a(ResultTable::rowToJson(row));
    if (stats)
        d.full = fnv1a(hex(stats->digest), d.json);
    return d;
}

/** Row bytes with the inert-axis identity columns blanked. */
std::string
effectiveBytes(ResultRow row)
{
    if (row.design != "snoopy")
        row.protocol = "*";
    if (row.design == "baseline")
        row.predictor = "*";
    return ResultTable::rowToJson(row);
}

// ---- accounting ---------------------------------------------------------

struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0; //!< see the file comment

    struct Rep
    {
        double wall = 0;
        double cpu = 0;
        std::uint64_t instructions = 0;
        ReferenceTiming ref; //!< mean of the passes before and after
    };
    std::vector<Rep> reps;
    unsigned refThreads = 1;
    std::vector<double> setup;
    ReferenceTiming setupRef; //!< one-thread passes around set-up
    /** Peak RSS before the first reference pass (0: at exit). */
    double peakRss = 0;
    std::map<std::string, double> layers;

    void
    fail(const std::string &why)
    {
        ++failed;
        std::fprintf(stderr, "perfbench: row failed: %s\n", why.c_str());
    }

    /**
     * Check @p d against @p ref; an empty @p ref takes @p d. Row bytes
     * are always compared, raw statistics once both sides have them
     * (the first row that has them completes @p ref).
     */
    void
    match(const Digest &d, Digest &ref, const std::string &what)
    {
        if (!ref.json) {
            ref = d;
        } else if (d.json != ref.json) {
            fail(what + ": row digest " + hex(d.json) + " != " +
                 hex(ref.json));
        } else if (d.full && !ref.full) {
            ref.full = d.full;
        } else if (d.full && d.full != ref.full) {
            fail(what + ": raw statistics digest " + hex(d.full) +
                 " != " + hex(ref.full));
        }
    }
};

// ---- grid-mix -----------------------------------------------------------

/** Record @p profile_name's stream into a trace of @p lanes lanes. */
void
recordTrace(const std::string &path, const std::string &profile_name,
            std::uint64_t seed, std::uint32_t lanes, std::uint64_t ops,
            std::uint32_t scale)
{
    c3d::WorkloadProfile p = c3d::profileByName(profile_name);
    p.seed = seed;
    c3d::SyntheticWorkload wl(p.scaled(scale), lanes, 8);
    const std::uint32_t active = wl.activeCores(lanes);
    c3d::TraceFileWriter writer(path, active);
    for (std::uint64_t i = 0; i < ops; ++i) {
        for (std::uint32_t c = 0; c < active; ++c) {
            const c3d::TraceOp op = wl.next(c);
            c3d::TraceRecord rec;
            rec.core = static_cast<std::uint16_t>(c);
            rec.gap = static_cast<std::uint16_t>(
                std::min<std::uint32_t>(op.gap, 0xFFFF));
            rec.op = op.op;
            rec.addr = op.addr;
            writer.append(rec);
        }
    }
    writer.close();
}

/**
 * Set-up of a grid-mix repetition: record the two member traces from
 * the seed, compose them (interleaved), and declare the grid.
 */
SweepGrid
prepareGrid(const Options &o)
{
    SweepGrid g;
    g.scale = GridScale;
    g.coresPerSocket = GridCoresPerSocket;
    g.warmupOps = GridWarmupOps;
    g.measureOps = GridMeasureOps;
    g.seed = profileSeed(o.seed);
    const std::uint32_t lanes = 4 * g.coresPerSocket / 2;
    const std::uint64_t ops = g.warmupOps + g.measureOps;
    const std::uint64_t base = 0x7EACE + o.seed;

    c3d::CompositionSpec cs;
    cs.name = "mix";
    cs.seed = base;
    cs.assignment = c3d::AssignPolicy::Interleave;
    std::string error;
    const char *const profiles[] = {"facesim", "streamcluster"};
    for (std::uint64_t i = 0; i < 2; ++i) {
        // Manifest member paths resolve against the manifest's
        // directory, so the manifest names them by file name.
        const std::string file = "member" + std::to_string(i) + ".c3dt";
        const std::string path = o.workDir + "/" + file;
        recordTrace(path, profiles[i], base + i, lanes, ops, g.scale);
        c3d::TraceFileInfo info;
        if (!c3d::scanTraceFile(path, info, error))
            throw std::runtime_error(error);
        c3d::TenantSpec tenant;
        tenant.tracePath = file;
        tenant.traceHash = info.contentHash;
        cs.tenants.push_back(tenant);
    }
    const std::string manifest = o.workDir + "/mix.json";
    {
        std::ofstream f(manifest, std::ios::binary | std::ios::trunc);
        f << c3d::compositionToJson(cs);
        if (!f)
            throw std::runtime_error("cannot write " + manifest);
    }
    c3d::WorkloadProfile composed;
    if (!c3d::loadCompositionProfile(manifest, composed, error))
        throw std::runtime_error(error);

    g.workloads = {c3d::cannealProfile(), composed};
    g.designs = {c3d::Design::Baseline, c3d::Design::Snoopy,
                 c3d::Design::FullDir, c3d::Design::C3D,
                 c3d::Design::C3DFullDir};
    g.protocols = {c3d::Protocol::Mesi, c3d::Protocol::Moesi};
    g.predictors = {c3d::PredictorKind::Region,
                    c3d::PredictorKind::Perceptron};
    g.sockets = {4};
    return g;
}

/** The grid row whose address stream feeds the layer replays. */
bool
isReplayRow(const RunSpec &s)
{
    return s.workloadIdx == 0 && s.cfg.design == c3d::Design::C3D &&
        s.protocolIdx == 0 && s.predictorIdx == 0;
}

/** How a grid repetition simulates its rows. */
enum class GridPath
{
    Sweep,    //!< SweepEngine::run(grid), as c3d-sweep runs it
    Observed, //!< simulate() per row: statistics and row times kept
    Traced,   //!< Observed, with a TimedWorkload around every row
};

struct GridRun
{
    double wall = 0;
    double cpu = 0;
    double engineWall = 0;
    double busiestWorker = 0; //!< longest per-worker sum of row time
    double emitMs = 0;
    std::vector<RunSpec> specs;
    std::vector<RowRun> rows; //!< by spec index; Observed/Traced only
    ResultTable table;
    std::vector<std::string> failures; //!< contained row errors
};

GridRun
runGrid(const Options &o, GridPath path)
{
    GridRun out;
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    const SweepGrid grid = prepareGrid(o);
    out.specs = grid.expand();

    const c3d::RunOptions base = sweepOpts(false);
    const auto opts_for = [&](const RunSpec &spec) {
        c3d::RunOptions opts = base;
        if (o.faultMod && spec.index % o.faultMod == o.faultRem)
            opts.fault = o.fault;
        return opts;
    };

    std::mutex mu;
    std::map<std::thread::id, double> busy;
    const bool timed = path == GridPath::Traced;
    const auto observe = [&](const RunSpec &spec) {
        RowRun r = simulate(spec, opts_for(spec), timed,
                            timed && isReplayRow(spec), false);
        {
            std::lock_guard<std::mutex> lock(mu);
            busy[std::this_thread::get_id()] += r.setupS + r.runS;
        }
        const c3d::RunResult res = r.result;
        out.rows[spec.index] = std::move(r);
        return res;
    };

    SweepEngine engine(hostThreads());
    engine.setRunOptions(base);
    engine.setFailPolicy(c3d::exp::FailPolicy::Skip);
    engine.setFailureSink([&](const c3d::exp::RowFailure &f) {
        out.failures.push_back("grid row " + std::to_string(f.index) +
                               ": " + f.error);
    });
    const auto engine_start = Clock::now();
    if (path != GridPath::Sweep) {
        out.rows.resize(out.specs.size());
        out.table = engine.run(grid, observe);
    } else if (o.faultMod) {
        // c3d-sweep's --inject-fault path: a fault plan per grid point.
        out.table = engine.run(grid, [&](const RunSpec &spec) {
            return SweepEngine::simulateSpec(spec, opts_for(spec));
        });
    } else {
        out.table = engine.run(grid);
    }
    out.engineWall = secondsSince(engine_start);
    for (const auto &[id, secs] : busy)
        out.busiestWorker = std::max(out.busiestWorker, secs);

    const auto emit_start = Clock::now();
    const std::string json = out.table.toJson();
    const std::string csv = out.table.toCsv();
    out.emitMs = secondsSince(emit_start) * 1e3;
    if (json.empty() || csv.empty())
        throw std::runtime_error("empty result table emission");

    out.wall = secondsSince(start);
    out.cpu = cpuSeconds() - cpu0;
    return out;
}

using GridDigests = std::map<std::string, Digest>;

/** One digest over a grid's row JSON digests. */
std::uint64_t
combined(const GridDigests &digests)
{
    std::uint64_t h = fnv1a("grid");
    for (const auto &[key, d] : digests)
        h = fnv1a(key + hex(d.json), h);
    return h;
}

/**
 * Check a grid run: every row present (or accounted a failure), each
 * row matching @p ref when given, and rows on inert axes identical.
 * Returns the run's row digests, keyed by row identity.
 */
GridDigests
checkGrid(const GridRun &g, GridDigests *ref, Report &rep)
{
    rep.attempted += g.specs.size();
    for (const std::string &f : g.failures)
        rep.fail(f);
    if (g.table.size() + g.failures.size() != g.specs.size())
        rep.fail("grid rows missing from the table without a failure");

    std::map<std::string, std::size_t> index;
    for (const RunSpec &s : g.specs)
        index[c3d::exp::specIdentityKey(s)] = s.index;
    GridDigests digests;
    for (const ResultRow &row : g.table.rows()) {
        const std::string key = row.identityKey();
        const Digest d = rowDigest(
            row, g.rows.empty() ? nullptr : &g.rows[index.at(key)].stats);
        digests[key] = d;
        if (ref && ref->count(key))
            rep.match(d, ref->at(key), "grid row " + key);
    }

    std::map<std::string, std::string> effective;
    for (const ResultRow &row : g.table.rows()) {
        const std::string bytes = effectiveBytes(row);
        std::string group = row.workload + "|" + row.design;
        if (row.design == "snoopy")
            group += "|" + row.protocol;
        if (row.design != "baseline")
            group += "|" + row.predictor;
        const auto [it, fresh] = effective.emplace(group, bytes);
        if (!fresh && it->second != bytes)
            rep.fail("rows on an inert axis differ: " + row.identityKey());
    }
    return digests;
}

std::size_t
distinctResults(const GridRun &g)
{
    std::set<std::string> distinct;
    for (const ResultRow &row : g.table.rows()) {
        ResultRow r = row;
        r.design = r.protocol = r.predictor = "";
        distinct.insert(ResultTable::rowToJson(r) + "|" + row.workload);
    }
    return distinct.size();
}

// ---- per-layer metrics ----------------------------------------------------

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0;
    for (const double x : v)
        s += std::log(std::max(x, 1e-12));
    return std::exp(s / static_cast<double>(v.size()));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Mean of two reference passes. */
ReferenceTiming
mean(const ReferenceTiming &a, const ReferenceTiming &b)
{
    return {0.5 * (a.wall + b.wall), 0.5 * (a.cpu + b.cpu)};
}

/**
 * Time SetupPasses calls of @p setup_pass (each returns its seconds)
 * between two one-thread reference passes. The peak RSS is taken
 * before the reference first runs, so it stays the simulator's.
 */
template <typename SetupPass>
void
timeSetup(Report &rep, SetupPass setup_pass)
{
    rep.peakRss = peakRssMb();
    const ReferenceTiming before = runReference(1);
    for (int i = 0; i < SetupPasses; ++i)
        rep.setup.push_back(setup_pass());
    rep.setupRef = mean(before, runReference(1));
}

/**
 * Call @p repetition until @p seconds have been measured, MinReps
 * times at the least, with a reference pass on @p threads threads
 * before the first call and after each.
 */
template <typename Repetition>
void
timeRepetitions(Report &rep, double seconds, unsigned threads,
                Repetition repetition)
{
    rep.refThreads = threads;
    ReferenceTiming prev = runReference(threads);
    double measured = 0;
    while (static_cast<int>(rep.reps.size()) < MinReps ||
           measured < seconds) {
        Report::Rep s = repetition();
        const ReferenceTiming next = runReference(threads);
        s.ref = mean(prev, next);
        prev = next;
        rep.reps.push_back(s);
        measured += s.wall;
    }
}

/** Inputs of the per-layer metrics, gathered over the traced rows. */
struct LayerInputs
{
    std::vector<const RowRun *> traced;     //!< TimedWorkload rows
    std::vector<const RunSpec *> specs;     //!< their specs
    double untracedWall = 0;  //!< Σ Runner::run seconds, untraced twin
    double tracedWall = 0;    //!< Σ Runner::run seconds, traced
    double parSpeedup = 0;
    std::vector<double> rowWalls; //!< per-row host seconds (exp.*)
    double engineOverhead = 0;
    double emitMs = 0;
    std::size_t rows = 0;
    std::size_t distinct = 0;
    double modelIpc = 0;
    double c3dSpeedup = 0;
    double snoopySpeedup = 0;
    const c3d::SystemConfig *replayCfg = nullptr;
    std::vector<c3d::Addr> replayAddrs;
};

std::map<std::string, double>
layerMetrics(const LayerInputs &in)
{
    StatSummary st;
    std::uint64_t insts = 0, events = 0, heap = 0, calls = 0, next_ns = 0;
    double cells = 0, thread_secs = 0, dc_chan_ticks = 0,
           mem_chan_ticks = 0;
    std::uint64_t false_present = 0, bypasses = 0;
    for (std::size_t i = 0; i < in.traced.size(); ++i) {
        const RowRun &r = *in.traced[i];
        const c3d::SystemConfig &cfg = in.specs[i]->cfg;
        st.add(r.stats);
        insts += r.result.instructions;
        events += r.events;
        heap += r.heapEvents;
        calls += r.nextCalls;
        next_ns += r.nextNs;
        if (r.cellWidth)
            cells += static_cast<double>(r.endTick) / r.cellWidth;
        thread_secs += r.runS * r.threads;
        const double window = static_cast<double>(r.result.measuredTicks) *
            cfg.numSockets;
        if (cfg.designUsesDramCache())
            dc_chan_ticks += window * cfg.dramCacheChannels;
        mem_chan_ticks += window * cfg.memChannels;
        false_present += r.result.predictorFalsePresent;
        bypasses += r.result.predictorBypasses;
    }
    const double kinst = static_cast<double>(insts) / 1e3;
    const double host_ns = thread_secs * 1e9;
    const LayerTimings t = timeLayers(*in.replayCfg, in.replayAddrs);

    const double l1h = st.at("socketN.lN_hits"), l1m = st.at("socketN.lN_misses");
    const double llch = st.at("socketN.llc_hits"),
                 llcm = st.at("socketN.llc_misses");
    const double dch = st.at("socketN.dram_cache.hits"),
                 dcm = st.at("socketN.dram_cache.misses");
    const double dci = st.at("socketN.dram_cache.inserts");
    const double bc = st.at("proto.broadcasts"),
                 bce = st.at("proto.broadcasts_elided");
    const double mr = st.at("socketN.mem.reads"),
                 mw = st.at("socketN.mem.writes");
    const double mrr = st.at("socketN.mem.remote_reads"),
                 mrw = st.at("socketN.mem.remote_writes");
    const double loads = st.at("socketN.loads"), stores = st.at("socketN.stores");

    std::map<std::string, double> m;
    m["trace.next_calls"] = static_cast<double>(calls);
    m["trace.ns_per_next"] = ratio(next_ns, calls);
    m["trace.host_share"] = ratio(next_ns, host_ns);

    m["cpu.instructions"] = static_cast<double>(insts);
    m["cpu.sq_stalls_per_kinst"] = ratio(st.at("cpuN.sq_stalls"), kinst);
    m["cpu.barrier_episodes"] = st.at("barrier.episodes");

    m["cache.l1_hit_rate"] = ratio(l1h, l1h + l1m);
    m["cache.llc_hit_rate"] = ratio(llch, llch + llcm);
    m["cache.llc_accesses"] = llch + llcm;
    m["cache.ns_per_find"] = t.nsPerFind;
    m["cache.ns_per_allocate"] = t.nsPerAllocate;
    m["cache.host_share"] =
        ratio(t.nsPerFind * (loads + stores + llch + llcm) +
                  t.nsPerAllocate * (l1m + llcm),
              host_ns);

    m["dramcache.hit_rate"] = ratio(dch, dch + dcm);
    m["dramcache.probes"] = dch + dcm;
    m["dramcache.predicted_absent_frac"] =
        ratio(st.at("socketN.dram_cache.predictor.predicted_absent"),
              st.at("socketN.dram_cache.predictor.queries"));
    m["dramcache.false_present"] = static_cast<double>(false_present);
    m["dramcache.bypasses"] = static_cast<double>(bypasses);
    m["dramcache.channel_busy_frac"] =
        ratio(st.at("socketN.dram_cache.chN.busy_ticks"), dc_chan_ticks);
    m["dramcache.ns_per_probe"] = t.nsPerProbe;
    m["dramcache.ns_per_insert"] = t.nsPerInsert;
    m["dramcache.host_share"] =
        ratio(t.nsPerProbe * (dch + dcm) + t.nsPerInsert * dci, host_ns);

    m["coherence.broadcasts"] = bc;
    m["coherence.broadcast_elided_frac"] = ratio(bce, bc + bce);
    m["coherence.snoops"] = st.at("proto.snoops");
    m["coherence.invalidations"] = st.at("proto.invalidations");
    m["coherence.forwards"] = st.at("proto.forwards");
    m["coherence.dir_recalls"] = st.at("dirN.recalls");
    m["coherence.lock_wait_mean_ticks"] = st.histMean("proto.lock_wait_time");
    m["coherence.inv_phase_p99_ticks"] = st.histP99("proto.inv_phase_time");
    m["coherence.ns_per_dir_find"] = t.nsPerDirFind;

    m["noc.packets_per_kinst"] = ratio(st.at("noc.packets"), kinst);
    m["noc.link_bytes_per_kinst"] = ratio(st.at("noc.link_bytes"), kinst);
    m["noc.hop_traversals"] = st.at("noc.hop_traversals");
    m["noc.ns_per_send"] = t.nsPerSend;

    m["mem.reads"] = mr;
    m["mem.writes"] = mw;
    m["mem.remote_frac"] = ratio(mrr + mrw, mr + mw);
    m["mem.read_latency_mean_ticks"] = st.histMean("socketN.mem.read_latency");
    m["mem.channel_busy_frac"] =
        ratio(st.at("socketN.mem.chN.busy_ticks"), mem_chan_ticks);
    m["mem.ns_per_read"] = t.nsPerRead;

    m["sim.events"] = static_cast<double>(events);
    m["sim.events_per_kinst"] = ratio(events, kinst);
    m["sim.events_per_s"] = ratio(events, in.untracedWall);
    m["sim.heap_callback_events"] = static_cast<double>(heap);
    m["sim.ns_per_event"] = t.nsPerEvent;
    m["sim.load_latency_mean_ticks"] = st.histMean("socketN.load_latency");
    m["sim.load_latency_p99_ticks"] = st.histP99("socketN.load_latency");
    m["sim.store_latency_p99_ticks"] = st.histP99("socketN.store_latency");
    m["sim.cells"] = cells;
    m["sim.us_per_cell"] = ratio(in.untracedWall * 1e6, cells);
    m["sim.par_speedup"] = in.parSpeedup;
    m["sim.tracing_overhead_pct"] =
        100.0 * ratio(in.tracedWall - in.untracedWall, in.untracedWall);

    m["exp.rows"] = static_cast<double>(in.rows);
    m["exp.distinct_results"] = static_cast<double>(in.distinct);
    m["exp.duplicate_row_frac"] =
        1.0 - ratio(static_cast<double>(in.distinct), in.rows);
    m["exp.row_wall_p50_s"] = median(in.rowWalls);
    m["exp.row_wall_max_s"] =
        in.rowWalls.empty()
            ? 0.0
            : *std::max_element(in.rowWalls.begin(), in.rowWalls.end());
    m["exp.engine_overhead_s"] = in.engineOverhead;
    m["exp.emit_ms"] = in.emitMs;

    m["model.ipc"] = in.modelIpc;
    m["model.c3d_speedup_geomean"] = in.c3dSpeedup;
    m["model.snoopy_speedup_geomean"] = in.snoopySpeedup;
    return m;
}

// ---- the row workloads ------------------------------------------------

/**
 * Run @p spec on the program's own path (SweepEngine::simulateSpec)
 * and check its row against @p ref.
 */
c3d::RunResult
sweepRow(const RunSpec &spec, const c3d::RunOptions &opts, Digest &ref,
         const std::string &what, Report &rep)
{
    c3d::RunResult res;
    ++rep.attempted;
    try {
        res = SweepEngine::simulateSpec(spec, opts);
    } catch (const std::exception &e) {
        rep.fail(what + ": " + e.what());
        return res;
    }
    rep.match(rowDigest(SweepEngine::makeRow(spec, res), nullptr), ref,
              what);
    return res;
}

/** simulate() @p spec and check its row and statistics against @p ref. */
RowRun
checkedRow(const RunSpec &spec, const c3d::RunOptions &opts, bool timed,
           Digest &ref, const std::string &what, Report &rep)
{
    RowRun r;
    ++rep.attempted;
    try {
        r = simulate(spec, opts, timed, timed, false);
    } catch (const std::exception &e) {
        rep.fail(what + ": " + e.what());
        return r;
    }
    rep.match(rowDigest(SweepEngine::makeRow(spec, r.result), &r.stats),
              ref, what);
    return r;
}

std::uint64_t
jsonDigest(const RunSpec &spec, const c3d::RunResult &res)
{
    return rowDigest(SweepEngine::makeRow(spec, res), nullptr).json;
}

void
runRowUntraced(const Options &o, Report &rep)
{
    const bool parallel = o.kind == Kind::RowParallel;
    const RunSpec spec = rowSpec(o, c3d::Design::C3D);
    const c3d::RunOptions opts = sweepOpts(parallel);

    // The warm-up always runs the sequential kernel: its digest is the
    // reference the parallel kernel's rows must reproduce.
    Digest ref;
    sweepRow(spec, sweepOpts(false), ref, "warm-up", rep);
    timeSetup(rep, [&] {
        return simulate(spec, opts, false, false, true).setupS;
    });

    timeRepetitions(rep, o.seconds, parallel ? hostThreads() : 1, [&] {
        const double cpu0 = cpuSeconds();
        const auto start = Clock::now();
        const c3d::RunResult res =
            sweepRow(spec, opts, ref,
                     parallel ? "parallel kernel row"
                              : "sequential kernel row",
                     rep);
        Report::Rep s;
        s.wall = secondsSince(start);
        s.cpu = cpuSeconds() - cpu0;
        s.instructions = res.instructions;
        rep.digest = jsonDigest(spec, res);
        return s;
    });
}

void
runRowTraced(const Options &o, Report &rep)
{
    const bool parallel = o.kind == Kind::RowParallel;
    const RunSpec spec = rowSpec(o, c3d::Design::C3D);
    const c3d::RunOptions opts = sweepOpts(parallel);
    const c3d::RunOptions other = sweepOpts(!parallel);

    // The warm-up takes the program's own path on the sequential
    // kernel; the untraced row then completes the reference with its
    // raw statistics, which the traced row and the other kernel's row
    // must reproduce.
    Digest ref;
    sweepRow(spec, sweepOpts(false), ref, "warm-up", rep);
    const RowRun plain = checkedRow(spec, opts, false, ref, "untraced", rep);
    const RowRun traced = checkedRow(spec, opts, true, ref, "traced", rep);
    const RowRun twin = checkedRow(spec, other, false, ref, "other kernel",
                                   rep);
    rep.digest = jsonDigest(spec, traced.result);

    const RunSpec base_spec = rowSpec(o, c3d::Design::Baseline);
    const RunSpec snoopy_spec = rowSpec(o, c3d::Design::Snoopy);
    Digest base_ref, snoopy_ref;
    const RowRun base =
        checkedRow(base_spec, opts, false, base_ref, "baseline", rep);
    const RowRun snoopy =
        checkedRow(snoopy_spec, opts, false, snoopy_ref, "snoopy", rep);

    LayerInputs in;
    in.traced = {&traced};
    in.specs = {&spec};
    in.untracedWall = plain.runS;
    in.tracedWall = traced.runS;
    const double seq = parallel ? twin.runS : plain.runS;
    const double par = parallel ? plain.runS : twin.runS;
    in.parSpeedup = ratio(seq, par);
    in.rows = 1;
    in.distinct = 1;
    in.rowWalls = {plain.setupS + plain.runS};
    const auto emit_start = Clock::now();
    ResultTable table;
    table.appendRow(SweepEngine::makeRow(spec, plain.result));
    const std::string emitted = table.toJson() + table.toCsv();
    in.emitMs = secondsSince(emit_start) * 1e3;
    in.modelIpc = plain.result.ipc();
    in.c3dSpeedup = ratio(plain.result.ipc(), base.result.ipc());
    in.snoopySpeedup = ratio(snoopy.result.ipc(), base.result.ipc());
    in.replayCfg = &spec.cfg;
    in.replayAddrs = traced.addrs;
    rep.layers = layerMetrics(in);
    if (emitted.empty())
        rep.fail("empty result table emission");
}

// ---- the grid workload ------------------------------------------------

void
runGridUntraced(const Options &o, Report &rep)
{
    GridDigests ref = checkGrid(runGrid(o, GridPath::Sweep), nullptr, rep);

    // Set-up-only passes: the repetition's set-up (trace recording,
    // composition, grid expansion) plus the first row's construction.
    timeSetup(rep, [&] {
        const auto start = Clock::now();
        const SweepGrid grid = prepareGrid(o);
        const std::vector<RunSpec> specs = grid.expand();
        simulate(specs.front(), sweepOpts(false), false, false, true);
        return secondsSince(start);
    });

    timeRepetitions(rep, o.seconds, hostThreads(), [&] {
        const GridRun g = runGrid(o, GridPath::Sweep);
        rep.digest = combined(checkGrid(g, &ref, rep));
        Report::Rep s;
        s.wall = g.wall;
        s.cpu = g.cpu;
        for (const ResultRow &row : g.table.rows())
            s.instructions += row.metrics.instructions;
        return s;
    });
}

/** IPC of the grid row matching (workload, design, mesi, region). */
double
gridIpc(const GridRun &g, const std::string &workload,
        const std::string &design)
{
    for (const ResultRow &row : g.table.rows()) {
        if (row.workload == workload && row.design == design &&
            row.protocol == "mesi" && row.predictor == "region")
            return row.metrics.ipc();
    }
    return 0.0;
}

void
runGridTraced(const Options &o, Report &rep)
{
    // As for rows: the program's own path sets each row's bytes, the
    // untraced observed run completes them with raw statistics, and
    // the traced run must reproduce both.
    GridDigests ref = checkGrid(runGrid(o, GridPath::Sweep), nullptr, rep);
    const GridRun plain = runGrid(o, GridPath::Observed);
    checkGrid(plain, &ref, rep);
    const GridRun traced = runGrid(o, GridPath::Traced);
    rep.digest = combined(checkGrid(traced, &ref, rep));

    LayerInputs in;
    std::size_t replay = 0;
    for (const RunSpec &s : traced.specs) {
        in.traced.push_back(&traced.rows[s.index]);
        in.specs.push_back(&s);
        in.untracedWall += plain.rows[s.index].runS;
        in.tracedWall += traced.rows[s.index].runS;
        in.rowWalls.push_back(plain.rows[s.index].setupS +
                              plain.rows[s.index].runS);
        if (isReplayRow(s))
            replay = s.index;
    }
    double row_secs = 0;
    for (const double w : in.rowWalls)
        row_secs += w;
    in.parSpeedup = ratio(row_secs, plain.engineWall);
    in.engineOverhead = plain.engineWall - plain.busiestWorker;
    in.emitMs = plain.emitMs;
    in.rows = plain.specs.size();
    in.distinct = distinctResults(plain);

    std::vector<double> ipcs, c3d_up, snoopy_up;
    std::set<std::string> workloads;
    for (const ResultRow &row : plain.table.rows())
        workloads.insert(row.workload);
    for (const std::string &w : workloads) {
        const double base = gridIpc(plain, w, "baseline");
        const double c3d = gridIpc(plain, w, "c3d");
        ipcs.push_back(c3d);
        c3d_up.push_back(ratio(c3d, base));
        snoopy_up.push_back(ratio(gridIpc(plain, w, "snoopy"), base));
    }
    in.modelIpc = geomean(ipcs);
    in.c3dSpeedup = geomean(c3d_up);
    in.snoopySpeedup = geomean(snoopy_up);
    in.replayCfg = &traced.specs[replay].cfg;
    in.replayAddrs = traced.rows[replay].addrs;
    rep.layers = layerMetrics(in);
}

// ---- output -----------------------------------------------------------

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    return out + "\"";
}

std::string
loadAverage()
{
    std::ifstream f("/proc/loadavg");
    std::string a, b, c;
    if (!(f >> a >> b >> c))
        return "unknown";
    return a + " " + b + " " + c;
}

void
printReport(const Options &o, const Report &rep)
{
    std::ostringstream s;
    s << "{\"workload\": " << quoted(o.workload)
      << ", \"trace\": " << (o.trace ? 1 : 0)
      << ", \"attempted\": " << rep.attempted
      << ", \"failed\": " << rep.failed
      << ", \"digest\": " << quoted(hex(rep.digest)) << ", \"reps\": [";
    for (std::size_t i = 0; i < rep.reps.size(); ++i) {
        const Report::Rep &r = rep.reps[i];
        s << (i ? ", " : "") << "{\"wall_s\": " << num(r.wall)
          << ", \"cpu_s\": " << num(r.cpu)
          << ", \"instructions\": " << r.instructions
          << ", \"ref_wall_s\": " << num(r.ref.wall)
          << ", \"ref_cpu_s\": " << num(r.ref.cpu) << "}";
    }
    s << "], \"ref_threads\": " << rep.refThreads
      << ", \"reference_s\": " << num(ReferenceSeconds)
      << ", \"setup_s\": [";
    for (std::size_t i = 0; i < rep.setup.size(); ++i)
        s << (i ? ", " : "") << num(rep.setup[i]);
    s << "], \"setup_ref_wall_s\": " << num(rep.setupRef.wall)
      << ", \"peak_rss_mb\": "
      << num(rep.peakRss > 0 ? rep.peakRss : peakRssMb()) << ", \"layers\": {";
    bool first = true;
    for (const auto &[k, v] : rep.layers) {
        s << (first ? "" : ", ") << quoted(k) << ": " << num(v);
        first = false;
    }
    s << "}, \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"threads_used\": " << hostThreads()
      << ", \"loadavg\": " << quoted(loadAverage())
      << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE) << "}}";
    std::printf("%s\n", s.str().c_str());
}

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench-driver: %s\n"
                 "usage: perfbench-driver --workload=row-seq|row-parallel|"
                 "grid-mix --seed=N --seconds=S --trace=0|1 "
                 "--work-dir=DIR [--inject-fault=FAULT:K/M]\n",
                 why.c_str());
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &o, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
        try {
            if (key == "--workload") {
                o.workload = val;
            } else if (key == "--seed") {
                o.seed = std::stoull(val);
            } else if (key == "--seconds") {
                o.seconds = std::stod(val);
            } else if (key == "--trace") {
                o.trace = std::stoi(val) != 0;
            } else if (key == "--work-dir") {
                o.workDir = val;
            } else if (key == "--inject-fault") {
                const std::size_t colon = val.rfind(':');
                const std::size_t slash = val.rfind('/');
                if (colon == std::string::npos || slash < colon) {
                    error = "bad --inject-fault (want FAULT:K/M)";
                    return false;
                }
                if (!c3d::parseFaultSpec(val.substr(0, colon), o.fault,
                                         error))
                    return false;
                o.faultRem = std::stoull(
                    val.substr(colon + 1, slash - colon - 1));
                o.faultMod = std::stoull(val.substr(slash + 1));
                if (o.faultMod == 0 || o.faultRem >= o.faultMod) {
                    error = "bad --inject-fault selector (want K < M)";
                    return false;
                }
            } else {
                error = "unknown argument '" + arg + "'";
                return false;
            }
        } catch (const std::exception &) {
            error = "bad value in '" + arg + "'";
            return false;
        }
    }
    if (o.workload == "row-seq")
        o.kind = Kind::RowSeq;
    else if (o.workload == "row-parallel")
        o.kind = Kind::RowParallel;
    else if (o.workload == "grid-mix")
        o.kind = Kind::GridMix;
    else {
        error = "unknown workload '" + o.workload + "'";
        return false;
    }
    if (o.kind == Kind::GridMix && o.workDir.empty()) {
        error = "grid-mix needs --work-dir";
        return false;
    }
    if (o.faultMod && o.kind != Kind::GridMix) {
        error = "--inject-fault applies to grid-mix only";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    c3d::setQuiet(true);
    Options o;
    std::string error;
    if (!parseArgs(argc, argv, o, error))
        return usage(error);

    Report rep;
    try {
        if (o.kind == Kind::GridMix)
            o.trace ? runGridTraced(o, rep) : runGridUntraced(o, rep);
        else
            o.trace ? runRowTraced(o, rep) : runRowUntraced(o, rep);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench-driver: %s\n", e.what());
        return 1;
    }
    printReport(o, rep);
    return 0;
}
