/**
 * @file
 * bench-smoke: run a benchmark binary and assert that its stdout is
 * non-empty, well-formed JSON.
 *
 * Usage:  bench-smoke <mode> <binary> [args...]
 *
 * Modes:
 *   table      stdout must parse as the current c3d-sweep result schema
 *              and contain at least one row (sweep-engine benches).
 *   json       stdout must parse as any non-empty JSON value
 *              (benches with their own schema: google-benchmark,
 *              analytic tables).
 *   sweep-cli  <c3d-sweep> [GRID [EXPECT [REFUSAL_GRID]]]: run the
 *              determinism contract on GRID (c3d-sweep grid flags;
 *              default a 2-design x 2-workload x 2-socket quick grid):
 *              --jobs=1/2/8, --parallel-kernel=2/4, --shard x3 + merge
 *              and partial --journal + --resume must give
 *              byte-identical JSON, and the merged journals and the
 *              default --parallel-kernel byte-identical CSV; the JSON must
 *              contain EXPECT, and resuming a shard journal under
 *              REFUSAL_GRID must fail as a different grid.
 *   sweep-cli  <c3d-sweep> shared-vs-per-row: a grid whose rows
 *              share simulations on inert axes must emit the same
 *              bytes as the per-row path an injected sweep takes.
 *   trace-cli  <c3d-sweep> <c3d-trace>: record a trace, sweep it
 *              via --workloads=trace: (whole vs sharded+merged vs
 *              resumed, byte-identical), and assert that resuming a
 *              journal against a modified trace fails loudly.
 *   compose-cli  <c3d-sweep> <c3d-trace>: record two traces, pin
 *              them into a composition manifest (c3d-trace compose),
 *              sweep it via --workloads=compose: (whole vs
 *              sharded+merged vs resumed, byte-identical, per-tenant
 *              stats present), and assert that a modified member
 *              trace is refused with a precise diagnostic.
 *   fault-cli  <c3d-sweep>: inject faults into two of four grid
 *              points under --fail-policy=skip (exit 3, failure
 *              manifest), resume the journal with injection off
 *              (byte-identical to a clean run), and recover a
 *              parallel-only fault under --fail-policy=retry on the
 *              sequential kernel (byte-identical again).
 *
 * Exit status 0 on success; 1 with a diagnostic on any failure. The
 * CTest smoke suite registers one invocation per bench binary.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include <unistd.h>

#include "exp/journal.hh"
#include "exp/json.hh"
#include "exp/result_table.hh"

namespace
{

/** Shell-quote one argument (single quotes, POSIX). */
std::string
shellQuote(const std::string &arg)
{
    std::string out = "'";
    for (const char c : arg) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += '\'';
    return out;
}

/** Run a command, capture stdout; false on nonzero exit. */
bool
runCommand(const std::string &command, std::string &output)
{
    output.clear();
    FILE *pipe = popen(command.c_str(), "r");
    if (!pipe) {
        std::fprintf(stderr, "bench-smoke: cannot run: %s\n",
                     command.c_str());
        return false;
    }
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        output.append(buf, n);
    const int status = pclose(pipe);
    if (status != 0) {
        std::fprintf(stderr,
                     "bench-smoke: command exited with status %d: "
                     "%s\n",
                     status, command.c_str());
        return false;
    }
    return true;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::string error;
    if (c3d::exp::readTextFile(path, out, error) !=
        c3d::exp::ReadFile::Ok) {
        std::fprintf(stderr, "bench-smoke: %s\n", error.c_str());
        return false;
    }
    return true;
}

/**
 * Scratch directory for a CLI differential: mkdtemp under TMPDIR,
 * every path() tracked and removed (with the directory) on scope
 * exit, so early returns clean up too.
 */
class SmokeDir
{
  public:
    ~SmokeDir()
    {
        for (const std::string &p : files)
            std::remove(p.c_str());
        if (!dir.empty())
            rmdir(dir.c_str());
    }

    /** @p tag must end in the mkdtemp XXXXXX template. */
    bool
    init(const char *tag)
    {
        const char *env = std::getenv("TMPDIR");
        dir = (env && *env) ? env : "/tmp";
        dir += std::string("/") + tag;
        std::vector<char> tmpl(dir.begin(), dir.end());
        tmpl.push_back('\0');
        if (!mkdtemp(tmpl.data())) {
            std::fprintf(stderr, "bench-smoke: mkdtemp failed\n");
            dir.clear();
            return false;
        }
        dir.assign(tmpl.data());
        return true;
    }

    /** Path under the directory, tracked for cleanup. */
    std::string
    path(const std::string &name)
    {
        const std::string p = dir + "/" + name;
        files.push_back(p);
        return p;
    }

  private:
    std::string dir;
    std::vector<std::string> files;
};

/**
 * Run a command that is EXPECTED to fail -- with exit status
 * @p status, or any nonzero status when it is 0 -- with a diagnostic
 * containing every one of @p needles: "failed for the right reason",
 * so a refusal path that breaks differently cannot keep passing.
 */
bool
runExpectFailure(const std::string &command,
                 std::initializer_list<const char *> needles,
                 int status = 0)
{
    std::string out;
    // `!` (or the status test) inverts the result in-shell, so the
    // expected failure is quiet and an unexpected status is the loud
    // diagnostic.
    const std::string shell = status == 0
        ? "! { " + command + " ; } 2>&1"
        : "{ " + command + " ; } 2>&1; [ $? -eq " +
            std::to_string(status) + " ]";
    if (!runCommand(shell, out))
        return false;
    for (const char *needle : needles) {
        if (out.find(needle) == std::string::npos) {
            std::fprintf(stderr,
                         "bench-smoke: expected the failure to mention "
                         "'%s'; got:\n%s\n",
                         needle, out.c_str());
            return false;
        }
    }
    return true;
}

/**
 * Run @p command with --out naming @p name under @p tmp; the artifact
 * must be non-empty and equal @p expected byte for byte.
 */
bool
artifactMatches(SmokeDir &tmp, const std::string &command,
                const char *name, const std::string &expected)
{
    const std::string path = tmp.path(name);
    std::string out, artifact;
    if (!runCommand(command + " --out=" + shellQuote(path), out) ||
        !readFile(path, artifact))
        return false;
    if (artifact.empty() || artifact != expected) {
        std::fprintf(stderr, "bench-smoke: %s differs from the "
                     "reference artifact\n", name);
        return false;
    }
    return true;
}

/**
 * The differential the CLI checks share: run `sweep grid` whole,
 * then @p shards journaled shard runs, merge the journals, and
 * resume shard 0's journal -- the merged and resumed JSON must equal
 * the whole run's byte for byte. Hands back the shard journal paths
 * and the whole JSON artifact for further checks.
 */
bool
shardMergeResumeDifferential(const std::string &sweep,
                             const std::string &grid, int shards,
                             SmokeDir &tmp,
                             std::vector<std::string> &journals,
                             std::string &whole)
{
    std::string out;
    const std::string whole_json = tmp.path("whole.json");
    if (!runCommand(sweep + grid + " --out=" +
                    shellQuote(whole_json), out))
        return false;

    std::string merge_args;
    journals.clear();
    for (int k = 0; k < shards; ++k) {
        const std::string journal =
            tmp.path("shard" + std::to_string(k) + ".jsonl");
        if (!runCommand(sweep + grid + " --shard=" +
                            std::to_string(k) + "/" +
                            std::to_string(shards) + " --journal=" +
                            shellQuote(journal) + " --out=/dev/null",
                        out))
            return false;
        journals.push_back(journal);
        merge_args += " " + shellQuote(journal);
    }

    const std::string merged_json = tmp.path("merged.json");
    const std::string resumed_json = tmp.path("resumed.json");
    if (!runCommand(sweep + " merge --out=" +
                    shellQuote(merged_json) + merge_args, out) ||
        !runCommand(sweep + grid + " --resume=" +
                    shellQuote(journals[0]) + " --out=" +
                    shellQuote(resumed_json), out))
        return false;

    std::string other;
    if (!readFile(whole_json, whole) || whole.empty()) {
        std::fprintf(stderr, "bench-smoke: empty sweep artifact\n");
        return false;
    }
    bool identical = true;
    for (const std::string &p : {merged_json, resumed_json}) {
        if (!readFile(p, other) || other != whole) {
            std::fprintf(stderr,
                         "bench-smoke: '%s' differs from the "
                         "single-process artifact\n",
                         p.c_str());
            identical = false;
        }
    }
    return identical;
}

/**
 * c3d-sweep's determinism contract on one grid, end to end: the
 * --jobs=1, --jobs=8 and --jobs=1 --parallel-kernel=2/4 artifacts,
 * the merged shard journals and an interrupted-then-resumed run must
 * all equal the whole run's JSON byte for byte (CSV too for merge and
 * for the parallel kernel at its default thread count). When
 * given, the JSON must contain @p expect, and resuming a shard's
 * journal under @p refusal_grid must fail as a different grid. An
 * overflowing --dram-cache-mb must be refused naming the flag.
 */
int
sweepCliCheck(const std::string &sweep_binary, const std::string &grid,
              const std::string &expect, const std::string &refusal_grid)
{
    SmokeDir tmp;
    if (!tmp.init("c3d_sweep_smoke_XXXXXX"))
        return 1;
    const std::string sweep = shellQuote(sweep_binary);
    const std::string sharded = " " + grid + " --jobs=2";

    std::vector<std::string> journals;
    std::string whole;
    if (!shardMergeResumeDifferential(sweep, sharded, 3, tmp, journals,
                                      whole))
        return 1;

    // Other worker counts, the parallel kernel, and the CSV of the
    // merged journals and of the parallel kernel.
    const std::string run = sweep + " " + grid;
    std::string merge = sweep + " merge --format=csv", out, csv;
    for (const std::string &j : journals)
        merge += " " + shellQuote(j);
    const std::string csv_path = tmp.path("whole.csv");
    if (!artifactMatches(tmp, run + " --jobs=1", "jobs1.json", whole) ||
        !artifactMatches(tmp, run + " --jobs=8", "jobs8.json", whole) ||
        !artifactMatches(tmp, run + " --jobs=1 --parallel-kernel=2",
                         "kernel2.json", whole) ||
        !artifactMatches(tmp, run + " --jobs=1 --parallel-kernel=4",
                         "kernel4.json", whole) ||
        !runCommand(run + " --jobs=2 --format=csv --out=" +
                        shellQuote(csv_path), out) ||
        !readFile(csv_path, csv) ||
        !artifactMatches(tmp, merge, "merged.csv", csv) ||
        !artifactMatches(tmp,
                         run + " --jobs=1 --parallel-kernel --format=csv",
                         "kernel.csv", csv))
        return 1;

    if (whole.find(expect) == std::string::npos) {
        std::fprintf(stderr, "bench-smoke: the sweep artifact lacks "
                     "'%s'\n", expect.c_str());
        return 1;
    }
    if (!refusal_grid.empty() &&
        !runExpectFailure(sweep + " " + refusal_grid + " --resume=" +
                              shellQuote(journals[0]) +
                              " --out=/dev/null",
                          {"different grid"}))
        return 1;
    if (!runExpectFailure(sweep + " --quick --dram-cache-mb=17592186044416"
                                  " --out=/dev/null",
                          {"--dram-cache-mb"}))
        return 1;
    std::printf("ok: --jobs, --parallel-kernel, shard+merge and resume "
                "artifacts are byte-identical\n");
    return 0;
}

/**
 * Shared simulation vs per-row runs: c3d-sweep simulates each
 * distinct machine once unless --inject-fault is given, so a
 * never-firing fault (par: without --parallel-kernel) forces the
 * per-row path on the same grid. JSON and CSV must match byte for
 * byte, and --progress must mark the rows that reused a simulation.
 */
int
sharedVsPerRowCheck(const std::string &sweep_binary)
{
    SmokeDir tmp;
    if (!tmp.init("c3d_shared_smoke_XXXXXX"))
        return 1;
    const std::string sweep = shellQuote(sweep_binary);
    const std::string grid =
        " --quick --designs=baseline,snoopy,c3d"
        " --protocols=mesi,moesi --predictors=region,perceptron"
        " --jobs=2";
    const std::string per_row = " --inject-fault=par:panic@0";
    const std::string progress = tmp.path("progress.txt");

    std::string out;
    for (const char *format : {"json", "csv"}) {
        const std::string shared_out =
            tmp.path(std::string("shared.") + format);
        const std::string per_row_out =
            tmp.path(std::string("per_row.") + format);
        const std::string fmt = std::string(" --format=") + format;
        if (!runCommand(sweep + grid + fmt + " --progress --out=" +
                            shellQuote(shared_out) + " 2>" +
                            shellQuote(progress),
                        out) ||
            !runCommand(sweep + grid + fmt + per_row + " --out=" +
                            shellQuote(per_row_out),
                        out))
            return 1;
        std::string shared, separate;
        if (!readFile(shared_out, shared) ||
            !readFile(per_row_out, separate) || shared.empty() ||
            shared != separate) {
            std::fprintf(stderr,
                         "bench-smoke: shared-simulation %s differs "
                         "from the per-row artifact\n",
                         format);
            return 1;
        }
    }
    std::string log;
    if (!readFile(progress, log) ||
        log.find("(shared with #") == std::string::npos) {
        std::fprintf(stderr,
                     "bench-smoke: --progress does not mark shared "
                     "rows:\n%s\n",
                     log.c_str());
        return 1;
    }
    std::printf("ok: shared-simulation and per-row artifacts are "
                "byte-identical\n");
    return 0;
}

/**
 * End-to-end check of trace-driven sweeps: `c3d-trace record` a
 * synthetic profile, run it through the sweep engine as a `trace:`
 * workload -- whole vs sharded+merged vs interrupted+resumed must be
 * byte-identical -- then corrupt the trace and assert that resuming
 * the journal refuses (the grid fingerprint folds the trace's
 * content hash).
 */
int
traceCliCheck(const std::string &sweep_binary,
              const std::string &trace_binary)
{
    SmokeDir tmp;
    if (!tmp.init("c3d_trace_smoke_XXXXXX"))
        return 1;
    const std::string sweep = shellQuote(sweep_binary);
    const std::string tracer = shellQuote(trace_binary);
    std::string out;

    const std::string trace = tmp.path("smoke.c3dt");
    const std::string grid = " --quick --designs=baseline,c3d"
                             " --sockets=2,4 --jobs=2 --workloads=" +
                             shellQuote("trace:" + trace);

    // Record a small deterministic trace and sanity-check the
    // inspection subcommands.
    if (!runCommand(tracer + " record --profile=facesim"
                           " --cores=4 --ops=600 --seed=7"
                           " --out=" + shellQuote(trace) +
                           " 2>&1", out) ||
        !runCommand(tracer + " validate " + shellQuote(trace),
                    out) ||
        !runCommand(tracer + " info " + shellQuote(trace), out))
        return 1;
    if (out.find("cores:") == std::string::npos) {
        std::fprintf(stderr,
                     "bench-smoke: c3d-trace info output looks "
                     "wrong\n");
        return 1;
    }

    // A truncated copy must itself be a valid trace.
    const std::string trimmed = tmp.path("trimmed.c3dt");
    if (!runCommand(tracer + " truncate " + shellQuote(trace) +
                        " --records=1200 --out=" +
                        shellQuote(trimmed) + " 2>&1",
                    out) ||
        !runCommand(tracer + " validate " + shellQuote(trimmed),
                    out))
        return 1;

    // Whole vs sharded+merged vs resumed, byte for byte.
    std::vector<std::string> journals;
    std::string whole;
    if (!shardMergeResumeDifferential(sweep, grid, 2, tmp, journals,
                                      whole))
        return 1;

    // Flip one address byte (offset 48 = record 1's addr): the
    // trace stays structurally valid but its content hash -- and
    // with it the grid fingerprint -- changes, so --resume must
    // refuse the journal. Appended garbage must instead fail
    // structural validation outright.
    if (!runCommand("printf '\\377' | dd of=" + shellQuote(trace) +
                        " bs=1 seek=48 conv=notrunc 2>/dev/null",
                    out))
        return 1;
    if (!runExpectFailure(sweep + grid + " --resume=" +
                              shellQuote(journals[0]) +
                              " --out=/dev/null",
                          {"different grid"}))
        return 1;
    if (!runCommand("printf 'x' >> " + shellQuote(trace), out))
        return 1;
    if (!runExpectFailure(tracer + " validate " + shellQuote(trace),
                          {"truncated mid-record"}) ||
        !runExpectFailure(sweep + grid + " --out=/dev/null",
                          {"truncated mid-record"}))
        return 1;

    std::printf("ok: trace sweep shard+merge and resume are "
                "byte-identical; modified trace refused\n");
    return 0;
}

/**
 * End-to-end check of multi-tenant composed sweeps: record two
 * distinct traces, `c3d-trace compose` them into a manifest, and run
 * the same distribution differential a plain trace sweep gets --
 * whole vs sharded+merged vs interrupted+resumed byte-identical --
 * plus composition-specific checks: `info --json` is machine
 * readable, the CSV rows carry per-tenant QoS columns, the manifest
 * refuses to overwrite a member, and a member modified after
 * composition is refused naming both hashes.
 */
int
composeCliCheck(const std::string &sweep_binary,
                const std::string &trace_binary)
{
    SmokeDir tmp;
    if (!tmp.init("c3d_compose_smoke_XXXXXX"))
        return 1;
    const std::string sweep = shellQuote(sweep_binary);
    const std::string tracer = shellQuote(trace_binary);
    std::string out;

    // Two small tenants with different profiles and seeds, so their
    // streams (and QoS stats) genuinely differ.
    const std::string trace_a = tmp.path("tenant_a.c3dt");
    const std::string trace_b = tmp.path("tenant_b.c3dt");
    if (!runCommand(tracer + " record --profile=facesim --cores=2"
                           " --ops=500 --seed=11 --out=" +
                        shellQuote(trace_a) + " 2>&1", out) ||
        !runCommand(tracer + " record --profile=canneal --cores=2"
                           " --ops=500 --seed=13 --out=" +
                        shellQuote(trace_b) + " 2>&1", out))
        return 1;

    // info --json must be machine-readable with the documented keys.
    if (!runCommand(tracer + " info --json " + shellQuote(trace_a),
                    out))
        return 1;
    {
        c3d::exp::JsonValue info;
        std::string error;
        if (!c3d::exp::parseJson(out, info, error) ||
            !info.isObject()) {
            std::fprintf(stderr,
                         "bench-smoke: info --json is not a JSON "
                         "object: %s\n", error.c_str());
            return 1;
        }
        for (const char *key :
             {"file", "workload", "cores", "records", "content_hash",
              "per_core_records"}) {
            if (!info.member(key)) {
                std::fprintf(stderr,
                             "bench-smoke: info --json lacks '%s'\n",
                             key);
                return 1;
            }
        }
    }

    // Composing over a member must refuse before touching the file.
    if (!runExpectFailure(tracer + " compose --out=" +
                              shellQuote(trace_a) + " " +
                              shellQuote(trace_a) + " " +
                              shellQuote(trace_b),
                          {"refusing"}))
        return 1;

    const std::string manifest = tmp.path("mix.json");
    if (!runCommand(tracer + " compose --name=smokemix --seed=5"
                           " --assign=interleave --arrival=staggered"
                           " --stagger-gap=64 --out=" +
                        shellQuote(manifest) + " " +
                        shellQuote(trace_a) + " " +
                        shellQuote(trace_b) + " 2>&1", out))
        return 1;

    // Whole vs sharded+merged vs resumed, byte for byte.
    const std::string grid = " --quick --designs=baseline,c3d"
                             " --sockets=2,4 --jobs=2 --workloads=" +
                             shellQuote("compose:" + manifest);
    std::vector<std::string> journals;
    std::string whole;
    if (!shardMergeResumeDifferential(sweep, grid, 2, tmp, journals,
                                      whole))
        return 1;

    // The CSV artifact must carry the per-tenant QoS breakdown.
    const std::string csv = tmp.path("composed.csv");
    std::string csv_text;
    if (!runCommand(sweep + grid + " --format=csv --out=" +
                    shellQuote(csv), out) ||
        !readFile(csv, csv_text))
        return 1;
    for (const char *needle : {"lat_p50", "t0:", "t1:"}) {
        if (csv_text.find(needle) == std::string::npos) {
            std::fprintf(stderr,
                         "bench-smoke: composed CSV lacks per-tenant "
                         "marker '%s'\n", needle);
            return 1;
        }
    }

    // Flip one address byte in a member: structurally valid, but the
    // content hash no longer matches the manifest's pin, so the
    // sweep must refuse with the precise diagnostic.
    if (!runCommand("printf '\\377' | dd of=" + shellQuote(trace_b) +
                        " bs=1 seek=48 conv=notrunc 2>/dev/null",
                    out))
        return 1;
    if (!runExpectFailure(sweep + grid + " --out=/dev/null",
                          {"changed since the manifest was composed"}))
        return 1;

    std::printf("ok: composed sweep shard+merge and resume are "
                "byte-identical; modified member refused\n");
    return 0;
}

/**
 * Fault containment end to end (docs/robustness.md): a panic and a
 * hang injected into two of four grid points under
 * --fail-policy=skip must exit 3 -- contained, not aborted -- with a
 * manifest naming both failures and the resume hint; resuming the
 * journal with injection off must reproduce the clean artifact byte
 * for byte; and a parallel-only fault under --fail-policy=retry must
 * recover on the sequential kernel with the same bytes.
 */
int
faultCliCheck(const std::string &sweep_binary)
{
    SmokeDir tmp;
    if (!tmp.init("c3d_fault_smoke_XXXXXX"))
        return 1;
    const std::string run = shellQuote(sweep_binary) +
        " --quick --designs=baseline,c3d --workloads=facesim,canneal"
        " --jobs=2";
    const std::string clean_json = tmp.path("clean.json");
    const std::string journal = tmp.path("faulted.jsonl");
    const std::string retry_log = tmp.path("retry.txt");
    std::string out, clean, log;
    if (!runCommand(run + " --out=" + shellQuote(clean_json), out) ||
        !readFile(clean_json, clean) ||
        !runExpectFailure(run + " --inject-fault=panic@0:0/4,hang@100:1/4"
                                " --fail-policy=skip --journal=" +
                              shellQuote(journal) + " --out=/dev/null",
                          {"injected fault: panic@0", "lost wakeup",
                           "re-run them with --resume"},
                          3) ||
        !artifactMatches(tmp, run + " --resume=" + shellQuote(journal),
                         "resumed.json", clean) ||
        !artifactMatches(tmp,
                         run + " --parallel-kernel=2"
                               " --inject-fault=par:panic@0:1/4"
                               " --fail-policy=retry 2>" +
                             shellQuote(retry_log),
                         "retried.json", clean) ||
        !readFile(retry_log, log))
        return 1;
    if (log.find("degraded to the sequential kernel") ==
        std::string::npos) {
        std::fprintf(stderr,
                     "bench-smoke: the retried sweep did not degrade to "
                     "the sequential kernel:\n%s\n",
                     log.c_str());
        return 1;
    }
    std::printf("ok: contained faults exit 3; resumed and retried "
                "artifacts match the clean run byte for byte\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: bench-smoke <table|json|sweep-cli|trace-cli|"
                     "compose-cli|fault-cli> <binary> [args...]\n");
        return 2;
    }
    const std::string mode = argv[1];
    if (mode == "fault-cli")
        return faultCliCheck(argv[2]);
    if (mode == "sweep-cli") {
        if (argc > 3 && std::strcmp(argv[3], "shared-vs-per-row") == 0)
            return sharedVsPerRowCheck(argv[2]);
        return sweepCliCheck(
            argv[2],
            argc > 3 ? argv[3]
                     : "--quick --designs=baseline,c3d"
                       " --workloads=facesim,canneal --sockets=2,4",
            argc > 4 ? argv[4] : "", argc > 5 ? argv[5] : "");
    }
    if (mode == "trace-cli" || mode == "compose-cli") {
        if (argc < 4) {
            std::fprintf(stderr,
                         "usage: bench-smoke %s <c3d-sweep> "
                         "<c3d-trace>\n", mode.c_str());
            return 2;
        }
        return mode == "trace-cli"
            ? traceCliCheck(argv[2], argv[3])
            : composeCliCheck(argv[2], argv[3]);
    }
    if (mode != "table" && mode != "json") {
        std::fprintf(stderr, "bench-smoke: unknown mode '%s'\n",
                     mode.c_str());
        return 2;
    }

    std::string command;
    for (int i = 2; i < argc; ++i) {
        if (i > 2)
            command += ' ';
        command += shellQuote(argv[i]);
    }

    std::string output;
    if (!runCommand(command, output))
        return 1;
    if (output.empty()) {
        std::fprintf(stderr, "bench-smoke: empty output from: %s\n",
                     command.c_str());
        return 1;
    }

    std::string error;
    if (mode == "table") {
        c3d::exp::ResultTable table;
        if (!c3d::exp::ResultTable::fromJson(output, table, error)) {
            std::fprintf(stderr,
                         "bench-smoke: output is not a valid sweep "
                         "table: %s\n",
                         error.c_str());
            return 1;
        }
        if (table.empty()) {
            std::fprintf(stderr,
                         "bench-smoke: sweep table has no rows\n");
            return 1;
        }
        std::printf("ok: %zu result rows\n", table.size());
    } else {
        c3d::exp::JsonValue value;
        if (!c3d::exp::parseJson(output, value, error)) {
            std::fprintf(stderr,
                         "bench-smoke: output is not valid JSON: "
                         "%s\n",
                         error.c_str());
            return 1;
        }
        std::printf("ok: valid JSON (%zu bytes)\n", output.size());
    }
    return 0;
}
