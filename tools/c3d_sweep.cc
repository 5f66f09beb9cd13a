/**
 * @file
 * c3d-sweep: declarative parameter-sweep CLI over the experiment
 * engine.
 *
 * Expands a grid of protocol x sockets x DRAM-cache capacity x
 * mapping x workload points, executes the runs on a worker pool, and
 * emits the result table as JSON (default), CSV, or a human table.
 * Rows are ordered by grid expansion, never by completion, so output
 * is byte-identical for any --jobs value.
 *
 * Distributed/resumable execution (docs/sweeps.md): `--shard=K/N`
 * runs the K-th of N disjoint slices of the grid, `--journal=FILE`
 * checkpoints each completed row to a crash-safe JSONL sidecar,
 * `--resume=FILE` skips rows the journal already holds, and the
 * `merge` subcommand combines shard journals into the single-process
 * result table, byte for byte.
 *
 * Examples:
 *   c3d-sweep --designs=baseline,c3d --workloads=facesim,canneal
 *   c3d-sweep --workloads=all --sockets=2,4 --jobs=8 --format=csv
 *   c3d-sweep --designs=c3d --dram-cache-mb=256,512,1024 --out=r.json
 *   c3d-sweep --workloads=all --shard=0/3 --journal=s0.jsonl
 *   c3d-sweep --workloads=all --resume=sweep.jsonl --out=r.json
 *   c3d-sweep merge --out=r.json s0.jsonl s1.jsonl s2.jsonl
 *   c3d-sweep --workloads=trace:app.c3dt,traces:corpus.manifest
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "common/sim_error.hh"
#include "exp/journal.hh"
#include "exp/sweep_engine.hh"
#include "sim/fault_injector.hh"
#include "sim/watchdog.hh"
#include "trace/trace_file.hh"
#include "workload/composition.hh"

namespace
{

using namespace c3d;

const char *const UsageHead =
    "c3d-sweep: run a declarative design-space sweep\n"
    "\n"
    "grid axes (comma-separated lists):\n"
    "  --workloads=A,B|all    paper profile names (default facesim);\n"
    "                         'all' = the nine parallel profiles;\n"
    "                         'trace:FILE' = replay a c3dsim trace\n"
    "                         (c3d-trace records them); 'traces:M' =\n"
    "                         every trace listed in manifest M (one\n"
    "                         path per line, # comments, relative\n"
    "                         paths resolve against the manifest);\n"
    "                         'compose:M' = a multi-tenant composition\n"
    "                         manifest (c3d-trace compose) -- rows\n"
    "                         report per-tenant QoS stats\n";

const char *const UsageTail =
    "  Grid points that differ only on an axis their design ignores\n"
    "  (protocols outside snoopy; predictors and dram-cache-mb without\n"
    "  a DRAM cache) name their own values but share one simulation.\n"
    "\n"
    "run parameters:\n"
    "  --cores-per-socket=N   0 = paper rule: 16 on 2-socket, else 8\n"
    "  --scale=N              capacity/footprint shrink (default 32)\n"
    "  --warmup=N             refs/core before the window (0 = auto)\n"
    "  --measure=N            refs/core measured (default 25000)\n"
    "  --seed=N               override every profile's RNG seed\n"
    "  --quick                tiny grid preset for smoke runs\n"
    "\n"
    "execution and output:\n"
    "  --jobs=N               worker threads (default 1; 0 = all cores)\n"
    "  --parallel-kernel[=T]  drive each eligible run's sockets on T\n"
    "                         kernel threads (default min(sockets,\n"
    "                         cores)); results are byte-identical to\n"
    "                         the default 1-thread run. Best\n"
    "                         combined with --jobs=1; ineligible\n"
    "                         configs (1 socket, zero hop latency,\n"
    "                         TLB classification) run on one queue\n"
    "                         and one thread\n"
    "  --format=json|csv|table   (default json)\n"
    "  --out=FILE             write to FILE instead of stdout\n"
    "  --progress             report per-row progress on stderr;\n"
    "                         a row reusing another grid point's\n"
    "                         simulation is marked (shared with #N)\n"
    "  --help\n"
    "\n"
    "distribution and checkpointing:\n"
    "  --shard=K/N            run only grid points with index%N == K\n"
    "                         (K in 0..N-1, N <= 4096; shards are\n"
    "                         disjoint and together cover the grid)\n"
    "  --journal=FILE         append each completed row to a fresh\n"
    "                         crash-safe JSONL journal (refuses an\n"
    "                         existing file; SIGINT/SIGTERM stop\n"
    "                         cleanly)\n"
    "  --resume=FILE          continue a journaled run: rows already\n"
    "                         in FILE are not re-run; new rows are\n"
    "                         appended (creates FILE when absent);\n"
    "                         journaled failures re-run\n"
    "\n"
    "robustness (docs/robustness.md):\n"
    "  --fail-policy=P        abort (default) | skip | retry[:N].\n"
    "                         abort: a failed grid point stops the\n"
    "                         sweep. skip: the failure is contained,\n"
    "                         journaled, and the row is absent from\n"
    "                         the output (exit 3). retry: re-run the\n"
    "                         row up to N times (default 1) on the\n"
    "                         sequential fallback kernel before\n"
    "                         giving up as skip does\n"
    "  --watchdog-wall-ms=N   per-row wall-clock budget (0 = off): a\n"
    "                         row still running events when it\n"
    "                         expires fails at its next check; one\n"
    "                         stuck inside an event is abandoned\n"
    "                         after one more budget\n"
    "  --watchdog-events=N    per-row executed-event budget (0 = off)\n"
    "  --watchdog-stall=N     per-queue same-tick event limit before\n"
    "                         a livelock is declared (default\n"
    "                         2000000; 0 = off)\n"
    "  --inject-fault=S,S     deterministic fault injection (for\n"
    "                         testing the containment machinery):\n"
    "                         S = [par:]panic@TICK | [par:]hang@TICK\n"
    "                         | [par:]block@TICK\n"
    "                         | [par:]stall-msg@N, with an optional\n"
    "                         trailing :K/M hitting only grid points\n"
    "                         with index%M == K; 'par:' arms only\n"
    "                         when --parallel-kernel drives the run.\n"
    "                         An injected sweep simulates every grid\n"
    "                         point separately\n"
    "\n"
    "merge subcommand:\n"
    "  c3d-sweep merge [--format=json|csv|table] [--out=FILE] \\\n"
    "                  JOURNAL...\n"
    "  Combine journals of the same grid (e.g. one per shard) into\n"
    "  the complete result table in grid order; refuses conflicting\n"
    "  duplicates and missing grid points.\n";

/** --help text; the grid-axis lines come from exp::gridAxes(). */
std::string
usage()
{
    return UsageHead + exp::axisUsage(/*lists=*/true) + UsageTail;
}

/** One --inject-fault spec: a fault plan plus a grid-point
 *  selector (applies where index % mod == rem; first match wins). */
struct FaultSel
{
    FaultPlan plan;
    unsigned rem = 0;
    unsigned mod = 1;
};

/** The output flags and usage checks of both command lines. */
struct OutputCli
{
    std::string format = "json";
    std::string outFile;
    bool showHelp = false;
    std::string error;

    /** Take --help, --format or --out; false for any other flag. */
    bool
    outputFlag(const std::string &key, const std::string &value)
    {
        if (key == "help")
            showHelp = true;
        else if (key == "out")
            outFile = value;
        else if (key != "format")
            return false;
        else if (value == "json" || value == "csv" || value == "table")
            format = value;
        else
            error = "unknown format '" + value + "'";
        return true;
    }

    /** Exit status when the command stops before running (help or a
     * usage error); -1 to go on. */
    int
    earlyExit() const
    {
        if (showHelp) {
            std::fputs(usage().c_str(), stdout);
            return 0;
        }
        if (!error.empty()) {
            std::fprintf(stderr, "c3d-sweep: %s\n%s", error.c_str(),
                         usage().c_str());
            return 2;
        }
        if (format == "table" && !outFile.empty()) {
            std::fprintf(stderr,
                         "c3d-sweep: --format=table writes to stdout "
                         "only\n");
            return 2;
        }
        return -1;
    }
};

struct SweepCli : OutputCli
{
    exp::SweepGrid grid;
    unsigned jobs = 1;
    KernelOptions kernel; //!< --parallel-kernel
    bool progress = false;
    bool quick = false;

    // Distribution and checkpointing.
    unsigned shardIdx = 0;
    unsigned shardCnt = 1;
    std::string journalFile; //!< --journal (fresh)
    std::string resumeFile;  //!< --resume (continue)

    // Robustness: containment policy, watchdog budgets, injection.
    // The stall (livelock) detector defaults on -- it is exact,
    // deterministic, and costs one branch per event; the wall/event
    // budgets are opt-in because sensible values are row-specific.
    exp::FailPolicy failPolicy = exp::FailPolicy::Abort;
    unsigned retryCount = 1;
    WatchdogLimits watchdog{/*wallMs=*/0, /*maxEvents=*/0,
                            /*stallEvents=*/2000000};
    std::vector<FaultSel> faults; //!< --inject-fault
};

/** Parsed `c3d-sweep merge` command line. */
struct MergeCli : OutputCli
{
    std::vector<std::string> journals;
};

/** "K/N" with K < N and N >= 1. */
bool
parseShard(const std::string &value, unsigned &idx, unsigned &cnt)
{
    const std::size_t slash = value.find('/');
    if (slash == std::string::npos)
        return false;
    std::uint64_t k = 0, n = 0;
    if (!c3d::parseU64(value.substr(0, slash), k) ||
        !c3d::parseU64(value.substr(slash + 1), n))
        return false;
    if (n < 1 || n > 4096 || k >= n)
        return false;
    idx = static_cast<unsigned>(k);
    cnt = static_cast<unsigned>(n);
    return true;
}

/** Directory prefix of @p path, up to and including the last '/'. */
std::string
dirPrefix(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash + 1);
}

/**
 * Load a trace manifest: one trace path per line, blank lines and
 * '#' comments ignored, relative paths resolved against the
 * manifest's own directory. Each trace is validated on load.
 */
bool
loadTraceManifest(const std::string &manifest_path,
                  std::vector<WorkloadProfile> &out,
                  std::string &error)
{
    std::string text;
    if (exp::readTextFile(manifest_path, text, error) !=
        exp::ReadFile::Ok)
        return false;
    const std::string dir = dirPrefix(manifest_path);
    std::size_t added = 0;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        std::string line = text.substr(start, end - start);
        start = end + 1;
        // Trim whitespace; skip blanks and comments.
        const std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        const std::size_t last = line.find_last_not_of(" \t\r");
        line = line.substr(first, last - first + 1);
        if (line[0] != '/')
            line = dir + line;
        WorkloadProfile p;
        if (!loadTraceProfile(line, p, error)) {
            error = "manifest '" + manifest_path + "': " + error;
            return false;
        }
        out.push_back(std::move(p));
        ++added;
    }
    if (added == 0) {
        error = "manifest '" + manifest_path + "' lists no traces";
        return false;
    }
    return true;
}

bool
parseWorkloads(const std::string &value,
               std::vector<WorkloadProfile> &out, std::string &error)
{
    out.clear();
    for (const std::string &name : splitList(value)) {
        if (name == "all") {
            for (const WorkloadProfile &p : parallelProfiles())
                out.push_back(p);
        } else if (name.rfind("trace:", 0) == 0) {
            WorkloadProfile p;
            if (!loadTraceProfile(name.substr(6), p, error))
                return false;
            out.push_back(std::move(p));
        } else if (name.rfind("traces:", 0) == 0) {
            if (!loadTraceManifest(name.substr(7), out, error))
                return false;
        } else if (name.rfind("compose:", 0) == 0) {
            // Multi-tenant composition manifest (c3d-trace compose):
            // validates the manifest and every member trace now, so
            // a stale pin refuses before any simulation starts.
            WorkloadProfile p;
            if (!loadCompositionProfile(name.substr(8), p, error))
                return false;
            out.push_back(std::move(p));
        } else if (name == "mcf") {
            out.push_back(mcfProfile());
        } else {
            bool known = false;
            for (const WorkloadProfile &p : parallelProfiles()) {
                if (p.name == name) {
                    out.push_back(p);
                    known = true;
                    break;
                }
            }
            if (!known) {
                error = "unknown workload '" + name + "'";
                return false;
            }
        }
    }
    if (out.empty()) {
        error = "empty workload list";
        return false;
    }
    return true;
}

SweepCli
parseSweepCli(int argc, char **argv)
{
    SweepCli cli;
    cli.grid.workloads = {profileByName("facesim")};
    std::uint64_t cores = cli.grid.coresPerSocket;
    std::uint64_t scale = cli.grid.scale, jobs = cli.jobs;
    const std::vector<UnsignedFlag> numbers = {
        {"cores-per-socket", 0, 64, &cores},
        {"scale", 1, UINT64_MAX, &scale},
        {"warmup", 0, UINT64_MAX, &cli.grid.warmupOps},
        {"measure", 1, UINT64_MAX, &cli.grid.measureOps},
        {"seed", 0, UINT64_MAX, &cli.grid.seed},
        {"jobs", 0, 256, &jobs},
        {"watchdog-wall-ms", 0, UINT64_MAX, &cli.watchdog.wallMs},
        {"watchdog-events", 0, UINT64_MAX, &cli.watchdog.maxEvents},
        {"watchdog-stall", 0, UINT64_MAX, &cli.watchdog.stallEvents},
    };

    for (int i = 1; i < argc; ++i) {
        std::string key, value;
        if (!splitFlag(argv[i], key, value)) {
            cli.error = std::string("unexpected argument '") +
                argv[i] + "'";
            return cli;
        }
        std::uint64_t n = 0;
        if (key == "workloads") {
            if (!parseWorkloads(value, cli.grid.workloads, cli.error))
                return cli;
        } else if (key == "parallel-kernel") {
            cli.kernel.parallel = true;
            if (!value.empty()) {
                if (!parseU64(value, n) || n < 1 || n > 256) {
                    cli.error = "bad parallel-kernel thread count";
                    return cli;
                }
                cli.kernel.threads = static_cast<unsigned>(n);
            }
        } else if (key == "progress") {
            cli.progress = true;
        } else if (key == "quick") {
            cli.quick = true;
        } else if (key == "shard") {
            if (!parseShard(value, cli.shardIdx, cli.shardCnt)) {
                cli.error = "bad shard '" + value +
                    "' (want K/N with K < N and N <= 4096)";
                return cli;
            }
        } else if (key == "journal") {
            cli.journalFile = value;
        } else if (key == "resume") {
            cli.resumeFile = value;
        } else if (key == "fail-policy") {
            std::string pol = value;
            std::string count;
            const std::size_t colon = pol.find(':');
            if (colon != std::string::npos) {
                count = pol.substr(colon + 1);
                pol = pol.substr(0, colon);
            }
            if (pol == "abort") {
                cli.failPolicy = exp::FailPolicy::Abort;
            } else if (pol == "skip") {
                cli.failPolicy = exp::FailPolicy::Skip;
            } else if (pol == "retry") {
                cli.failPolicy = exp::FailPolicy::Retry;
            } else {
                cli.error = "unknown fail policy '" + value +
                    "' (want abort, skip, or retry[:N])";
                return cli;
            }
            if (!count.empty()) {
                if (pol != "retry" || !parseU64(count, n) || n < 1 ||
                    n > 16) {
                    cli.error = "bad fail policy '" + value + "'";
                    return cli;
                }
                cli.retryCount = static_cast<unsigned>(n);
            }
        } else if (key == "inject-fault") {
            for (const std::string &item : splitList(value)) {
                FaultSel sel;
                std::string spec = item;
                // The selector colon comes after the '@' (the 'par:'
                // prefix owns any earlier colon).
                const std::size_t at_pos = spec.find('@');
                const std::size_t sel_pos =
                    at_pos == std::string::npos
                        ? std::string::npos
                        : spec.find(':', at_pos);
                if (sel_pos != std::string::npos) {
                    if (!parseShard(spec.substr(sel_pos + 1), sel.rem,
                                    sel.mod)) {
                        cli.error = "bad fault selector in '" + item +
                            "' (want :K/M with K < M)";
                        return cli;
                    }
                    spec = spec.substr(0, sel_pos);
                }
                if (!parseFaultSpec(spec, sel.plan, cli.error))
                    return cli;
                cli.faults.push_back(sel);
            }
        } else if (!cli.outputFlag(key, value) &&
                   !exp::parseAxisFlag(key, true, value, cli.grid,
                                       cli.error) &&
                   !parseUnsignedFlag(numbers, key, value, cli.error)) {
            cli.error = "unknown flag '--" + key + "'";
        }
        if (!cli.error.empty())
            return cli;
    }
    cli.grid.coresPerSocket = static_cast<std::uint32_t>(cores);
    cli.grid.scale = static_cast<std::uint32_t>(scale);
    cli.jobs = static_cast<unsigned>(jobs);

    if (!cli.journalFile.empty() && !cli.resumeFile.empty()) {
        cli.error = "--journal and --resume are mutually exclusive "
                    "(--resume already appends to its journal)";
        return cli;
    }
    if (cli.quick)
        cli.grid = exp::quickPreset(std::move(cli.grid));
    return cli;
}

MergeCli
parseMergeCli(int argc, char **argv)
{
    MergeCli cli;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            cli.journals.push_back(arg);
            continue;
        }
        std::string key, value;
        if (!splitFlag(argv[i], key, value)) {
            cli.error = "unexpected argument '" + arg + "'";
            return cli;
        }
        if (!cli.outputFlag(key, value))
            cli.error = "unknown flag '--" + key + "'";
        if (!cli.error.empty())
            return cli;
    }
    if (cli.journals.empty() && !cli.showHelp)
        cli.error = "merge needs at least one journal file";
    return cli;
}

void
printHumanTable(const exp::ResultTable &table)
{
    std::printf("%-16s %-14s %-13s %-4s %3s %8s %10s %8s %8s\n",
                "workload", "variant", "design", "map", "skt",
                "dcache", "ticks", "ipc", "remote%");
    for (const exp::ResultRow &r : table.rows()) {
        const double remote_pct = r.metrics.memAccesses()
            ? 100.0 *
                static_cast<double>(r.metrics.remoteMemAccesses()) /
                static_cast<double>(r.metrics.memAccesses())
            : 0.0;
        std::printf("%-16s %-14s %-13s %-4s %3u %7lluM %10llu %8.3f "
                    "%7.1f%%\n",
                    r.workload.c_str(), r.variant.c_str(),
                    r.design.c_str(), r.mapping.c_str(), r.sockets,
                    static_cast<unsigned long long>(r.dramCacheMb),
                    static_cast<unsigned long long>(
                        r.metrics.measuredTicks),
                    r.metrics.ipc(), remote_pct);
    }
}

/** Emit @p table in @p format to @p out_file or stdout. */
int
emitTable(const exp::ResultTable &table, const std::string &format,
          const std::string &out_file)
{
    std::string payload;
    if (format == "json")
        payload = table.toJson();
    else if (format == "csv")
        payload = table.toCsv();

    if (!out_file.empty()) {
        std::ofstream out(out_file, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "c3d-sweep: cannot write '%s'\n",
                         out_file.c_str());
            return 1;
        }
        out << payload;
        return 0;
    }

    if (format == "table")
        printHumanTable(table);
    else
        std::fputs(payload.c_str(), stdout);
    return 0;
}

int
runMerge(int argc, char **argv)
{
    const MergeCli cli = parseMergeCli(argc, argv);
    if (const int rc = cli.earlyExit(); rc >= 0)
        return rc;

    std::vector<exp::JournalData> parts;
    std::string error;
    for (const std::string &path : cli.journals) {
        exp::JournalData data;
        if (!exp::readJournalFile(path, data, error)) {
            std::fprintf(stderr, "c3d-sweep: %s\n", error.c_str());
            return 1;
        }
        if (data.truncatedTail)
            std::fprintf(stderr,
                         "c3d-sweep: warning: '%s' ends in a "
                         "truncated line (dropped)\n",
                         path.c_str());
        parts.push_back(std::move(data));
    }

    exp::ResultTable table;
    if (!exp::mergeJournals(parts, table, error)) {
        std::fprintf(stderr, "c3d-sweep: %s\n", error.c_str());
        return 1;
    }
    return emitTable(table, cli.format, cli.outFile);
}

// Written by the SIGINT/SIGTERM handler (the signal number), read
// by every worker's stop check: must be a lock-free atomic, which
// is both thread-safe and async-signal-safe. Journal write failures
// stop the sweep through the separate g_journalStop flag so they
// cannot masquerade as an interruption (different exit code).
std::atomic<int> g_signal{0};
std::atomic<int> g_journalStop{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handler requires a lock-free flag");

void
onSignal(int sig)
{
    g_signal.store(sig);
}

// Last-ditch journal flush when the process dies non-cooperatively:
// an uncaught exception (std::terminate) or an abort from a
// non-contained code path. Every append already fsync'd its line,
// so this is belt-and-braces for bytes buffered mid-append -- the
// journal reader recovers from a torn tail either way.
exp::JournalWriter *g_journal = nullptr;

void
onAbort(int)
{
    if (g_journal)
        g_journal->crashFlush();
    // abort() restores the default disposition and re-raises after
    // a handler returns, so the process still dies with SIGABRT.
}

[[noreturn]] void
onTerminate()
{
    if (const std::exception_ptr e = std::current_exception()) {
        try {
            std::rethrow_exception(e);
        } catch (const std::exception &ex) {
            std::fprintf(stderr,
                         "c3d-sweep: terminating on uncaught "
                         "exception: %s\n",
                         ex.what());
        } catch (...) {
            std::fprintf(stderr,
                         "c3d-sweep: terminating on uncaught "
                         "exception\n");
        }
    }
    if (g_journal)
        g_journal->crashFlush();
    std::signal(SIGABRT, SIG_DFL);
    std::abort();
}

bool
fileExists(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f)
        std::fclose(f);
    return f != nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "merge") == 0)
        return runMerge(argc, argv);

    const SweepCli cli = parseSweepCli(argc, argv);
    if (const int rc = cli.earlyExit(); rc >= 0)
        return rc;

    setQuiet(true);
    exp::SweepEngine engine(cli.jobs);
    RunOptions baseOpts;
    baseOpts.kernel = cli.kernel;
    baseOpts.watchdog = cli.watchdog;
    engine.setRunOptions(baseOpts);
    engine.setFailPolicy(cli.failPolicy, cli.retryCount);
    engine.setShard(cli.shardIdx, cli.shardCnt);
    if (cli.progress) {
        engine.setProgress([](const exp::RunSpec &spec,
                              std::size_t done, std::size_t total,
                              std::size_t source) {
            char shared[48] = "";
            if (source != spec.index)
                std::snprintf(shared, sizeof(shared),
                              " (shared with #%zu)", source);
            std::fprintf(stderr, "[%zu/%zu] %s %s%s\n", done, total,
                         spec.profile.name.c_str(),
                         designName(spec.cfg.design), shared);
        });
    }

    // Checkpointing: validate/open the journal before running.
    const std::vector<exp::RunSpec> specs = cli.grid.expand();
    const std::string fingerprint = exp::gridFingerprint(specs);
    exp::JournalWriter writer;
    std::string error;
    std::size_t resumed_rows = 0;

    // --resume treats a journal holding at most a torn header (no
    // complete newline-terminated line, content a prefix of our
    // header) as absent: such a file cannot hold any fsync'd row,
    // only a crash that beat the header to disk, and must not
    // brick an unconditional cron-style --resume loop. Anything
    // else aborts rather than risk overwriting real data: an
    // unreadable file (transient I/O, permissions) or newline-free
    // content that is not our header (a mistyped path).
    std::string resume_text;
    exp::ReadFile resume_read = exp::ReadFile::Absent;
    if (!cli.resumeFile.empty()) {
        resume_read =
            exp::readTextFile(cli.resumeFile, resume_text, error);
        if (resume_read == exp::ReadFile::Error) {
            std::fprintf(stderr, "c3d-sweep: %s\n", error.c_str());
            return 1;
        }
    }
    const bool resume_no_newline =
        resume_text.find('\n') == std::string::npos;
    if (resume_read == exp::ReadFile::Ok && resume_no_newline &&
        !resume_text.empty()) {
        const std::string header_start =
            std::string("{\"schema\": \"") +
            exp::journalSchemaName() + "\"";
        const std::size_t n =
            std::min(resume_text.size(), header_start.size());
        if (resume_text.compare(0, n, header_start, 0, n) != 0) {
            std::fprintf(stderr,
                         "c3d-sweep: '%s' is not a sweep journal; "
                         "refusing to overwrite it\n",
                         cli.resumeFile.c_str());
            return 1;
        }
    }
    const bool resume_fresh =
        resume_read != exp::ReadFile::Ok || resume_no_newline;

    if (!cli.resumeFile.empty() && !resume_fresh) {
        exp::JournalData data;
        if (!exp::parseJournal(resume_text, data, error)) {
            std::fprintf(stderr, "c3d-sweep: %s: %s\n",
                         cli.resumeFile.c_str(), error.c_str());
            return 1;
        }
        if (data.total != specs.size() ||
            data.fingerprint != fingerprint) {
            std::fprintf(stderr,
                         "c3d-sweep: journal '%s' was written by a "
                         "different grid (specs: %zu here vs %llu "
                         "journaled; fingerprint: %s here vs %s "
                         "journaled)\n",
                         cli.resumeFile.c_str(), specs.size(),
                         static_cast<unsigned long long>(data.total),
                         fingerprint.c_str(),
                         data.fingerprint.c_str());
            return 1;
        }
        std::unordered_map<std::size_t, exp::ResultRow> pre;
        std::size_t resumed_failures = 0;
        for (exp::JournalEntry &entry : data.entries) {
            const std::size_t i =
                static_cast<std::size_t>(entry.index);
            const std::string key = entry.failed
                ? entry.failure.identity
                : entry.row.identityKey();
            if (i >= specs.size() ||
                key != exp::specIdentityKey(specs[i])) {
                std::fprintf(stderr,
                             "c3d-sweep: journal '%s' %s for grid "
                             "point %zu does not match this grid\n",
                             cli.resumeFile.c_str(),
                             entry.failed ? "failure record" : "row",
                             i);
                return 1;
            }
            if (entry.failed) {
                // Failed grid points are not prefilled: the resume
                // re-runs them (with the fault fixed or the
                // injection flag dropped, the clean row lands and
                // supersedes the journaled failure).
                ++resumed_failures;
                continue;
            }
            pre.emplace(i, std::move(entry.row));
        }
        if (resumed_failures) {
            std::fprintf(stderr,
                         "c3d-sweep: note: re-running %zu grid "
                         "point(s) the journal recorded as failed\n",
                         resumed_failures);
        }
        if (data.truncatedTail)
            std::fprintf(stderr,
                         "c3d-sweep: note: dropped a truncated "
                         "trailing journal line; that grid point "
                         "re-runs\n");
        resumed_rows = pre.size();
        engine.setPrefilled(std::move(pre));
        if (!writer.openAppend(cli.resumeFile, error)) {
            std::fprintf(stderr, "c3d-sweep: %s\n", error.c_str());
            return 1;
        }
    } else if (!cli.resumeFile.empty()) {
        if (resume_read == exp::ReadFile::Ok &&
            !resume_text.empty())
            std::fprintf(stderr,
                         "c3d-sweep: note: '%s' has no complete "
                         "journal line; starting it fresh\n",
                         cli.resumeFile.c_str());
        if (!writer.create(cli.resumeFile, specs.size(), fingerprint,
                           error)) {
            std::fprintf(stderr, "c3d-sweep: %s\n", error.c_str());
            return 1;
        }
    } else if (!cli.journalFile.empty()) {
        // Exclusive create: refusing an existing file atomically
        // means two processes handed the same --journal path can
        // never interleave writes into one corrupt file.
        if (!writer.create(cli.journalFile, specs.size(), fingerprint,
                           error, /*exclusive=*/true)) {
            if (fileExists(cli.journalFile))
                std::fprintf(stderr,
                             "c3d-sweep: journal '%s' already "
                             "exists (use --resume=%s to continue "
                             "it)\n",
                             cli.journalFile.c_str(),
                             cli.journalFile.c_str());
            else
                std::fprintf(stderr, "c3d-sweep: %s\n",
                             error.c_str());
            return 1;
        }
    }

    const std::string journal_path = !cli.resumeFile.empty()
        ? cli.resumeFile : cli.journalFile;
    std::size_t journaled_rows = 0;
    std::string journal_error;
    if (writer.isOpen()) {
        // A journaled sweep is interruptible: SIGINT and SIGTERM
        // (the batch scheduler's kill) stop workers from claiming
        // new grid points, in-flight rows still land in the
        // journal, and --resume continues later. The terminate and
        // abort hooks flush the journal before the process dies
        // non-cooperatively.
        g_journal = &writer;
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        std::signal(SIGABRT, onAbort);
        std::set_terminate(onTerminate);
        engine.setStopRequest([] {
            return g_signal.load() != 0 || g_journalStop.load() != 0;
        });
        engine.setRowSink([&](const exp::RunSpec &spec,
                              const exp::ResultRow &row) {
            if (!journal_error.empty())
                return;
            if (!writer.append(spec.index, row, journal_error))
                g_journalStop = 1; // stop claiming new specs
            else
                ++journaled_rows;
        });
    }

    // Unrecovered failures, for the manifest (and exit code 3).
    std::vector<exp::RowFailure> failures;
    engine.setFailureSink([&](const exp::RowFailure &f) {
        if (writer.isOpen() && journal_error.empty()) {
            exp::JournalFailure jf;
            jf.identity = f.identity;
            jf.error = f.error;
            jf.tick = f.tick;
            jf.tickKnown = f.tickKnown;
            jf.attempts = f.attempts;
            if (!writer.appendFailure(f.index, jf, journal_error))
                g_journalStop = 1;
        }
        if (f.recovered) {
            std::fprintf(stderr,
                         "c3d-sweep: note: grid point %zu recovered "
                         "on attempt %u%s\n",
                         f.index, f.attempts,
                         f.degraded
                             ? " (degraded to the sequential kernel)"
                             : "");
        } else {
            failures.push_back(f);
        }
    });

    // Fault injection addresses grid ordinals, so an injected sweep
    // runs every grid point through an explicit run function with its
    // own fault plan; otherwise the engine simulates each distinct
    // machine once. The retry function degrades to the sequential
    // MultiQueue-1 oracle with the same plan (so par:-gated faults
    // vanish and deterministic ones reproduce).
    const auto planFor = [&cli](std::size_t index) -> FaultPlan {
        for (const FaultSel &sel : cli.faults) {
            if (index % sel.mod == sel.rem)
                return sel.plan;
        }
        return FaultPlan{};
    };
    const auto runSpec = [&](const exp::RunSpec &spec) {
        RunOptions o = baseOpts;
        o.fault = planFor(spec.index);
        return exp::SweepEngine::simulateSpec(spec, o);
    };
    engine.setRetryFn([&](const exp::RunSpec &spec) {
        RunOptions o = baseOpts;
        o.kernel = KernelOptions{};
        o.fault = planFor(spec.index);
        return exp::SweepEngine::simulateSpec(spec, o);
    });

    exp::ResultTable table;
    try {
        table = cli.faults.empty() ? engine.run(cli.grid)
                                   : engine.run(cli.grid, runSpec);
    } catch (const std::exception &e) {
        // FailPolicy::Abort rethrows the first contained failure
        // after the pool joins; completed rows are already safe in
        // the journal.
        std::fprintf(stderr, "c3d-sweep: grid point failed: %s\n",
                     e.what());
        if (writer.isOpen()) {
            std::fprintf(stderr,
                         "c3d-sweep: rows completed before the "
                         "failure are checkpointed in '%s'; fix the "
                         "cause and continue with --resume=%s, or "
                         "contain failures with --fail-policy=skip\n",
                         journal_path.c_str(), journal_path.c_str());
        }
        return 1;
    }

    if (!journal_error.empty()) {
        std::fprintf(stderr, "c3d-sweep: %s\n",
                     journal_error.c_str());
        return 1;
    }
    if (const int sig = g_signal.load()) {
        std::fprintf(stderr,
                     "c3d-sweep: stopped by %s; %zu rows "
                     "checkpointed in '%s'; continue with "
                     "--resume=%s\n",
                     sig == SIGTERM ? "SIGTERM" : "SIGINT",
                     resumed_rows + journaled_rows,
                     journal_path.c_str(), journal_path.c_str());
        return 128 + sig;
    }
    if (!failures.empty()) {
        // Deterministic manifest: grid order, not completion order.
        std::sort(failures.begin(), failures.end(),
                  [](const exp::RowFailure &a,
                     const exp::RowFailure &b) {
                      return a.index < b.index;
                  });
        std::fprintf(stderr,
                     "c3d-sweep: %zu of %zu grid points failed "
                     "(contained):\n",
                     failures.size(), specs.size());
        for (const exp::RowFailure &f : failures) {
            char tick[48] = "";
            if (f.tickKnown) {
                std::snprintf(tick, sizeof(tick),
                              "tick %llu, ",
                              static_cast<unsigned long long>(
                                  f.tick));
            }
            std::fprintf(stderr, "  [%zu] %s: %s (%s%u attempt%s)\n",
                         f.index, f.identity.c_str(),
                         f.error.c_str(), tick, f.attempts,
                         f.attempts == 1 ? "" : "s");
        }
        if (writer.isOpen()) {
            std::fprintf(stderr,
                         "c3d-sweep: failures are journaled; re-run "
                         "them with --resume=%s\n",
                         journal_path.c_str());
        }
        const int rc = emitTable(table, cli.format, cli.outFile);
        return rc ? rc : 3;
    }
    return emitTable(table, cli.format, cli.outFile);
}
