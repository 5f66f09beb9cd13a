/**
 * @file
 * c3d-trace: record, inspect, validate, and trim c3dsim trace files.
 *
 * The sweep engine replays traces named as `--workloads=trace:FILE`
 * (docs/traces.md); this tool produces and maintains that corpus:
 *
 *   c3d-trace record --out=FILE [--profile=NAME] [--cores=N]
 *                    [--ops=N] [--seed=N] [--scale=N]
 *                    [--cores-per-socket=N]
 *       Capture a synthetic profile's reference stream into a trace
 *       (deterministic: same flags, byte-identical file).
 *
 *   c3d-trace info FILE [--json]   header, per-core stats, content
 *                             hash; --json for machine consumption
 *   c3d-trace validate FILE   full streaming validation; exit 1 on
 *                             any defect
 *   c3d-trace truncate FILE --records=N --out=FILE2
 *       Copy the first N records into a new, valid trace.
 *   c3d-trace compose --out=MANIFEST TRACE TRACE...
 *       Materialize a multi-tenant colocation manifest: member
 *       traces pinned by content hash, seed recorded, replayable as
 *       `c3d-sweep --workloads=compose:MANIFEST` (docs/workloads.md).
 *
 * Exit status: 0 ok, 1 runtime/validation failure, 2 usage error.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "common/sim_error.hh"
#include "exp/json.hh"
#include "trace/trace_file.hh"
#include "trace/workload.hh"
#include "workload/composition.hh"

namespace
{

using namespace c3d;

const char *const Usage =
    "c3d-trace: record, inspect, validate, and trim c3dsim traces\n"
    "\n"
    "subcommands:\n"
    "  record --out=FILE [--profile=NAME] [--cores=N] [--ops=N]\n"
    "         [--seed=N] [--scale=N] [--cores-per-socket=N]\n"
    "      capture a synthetic profile into a trace file\n"
    "      (--profile default facesim; --cores default 8; --ops =\n"
    "      records per core, default 10000; --seed 0 keeps the\n"
    "      profile's own seed; --scale default 256 shrinks the\n"
    "      footprint like a --quick sweep)\n"
    "  info FILE [--json]\n"
    "      print header, per-core stats, content hash; --json emits\n"
    "      one machine-readable object\n"
    "  validate FILE   streaming validation; exit 1 on any defect\n"
    "  truncate FILE --records=N --out=FILE2\n"
    "      copy the first N records into a new trace\n"
    "  compose --out=MANIFEST [--name=NAME] [--seed=N]\n"
    "          [--assign=block|interleave]\n"
    "          [--arrival=fixed|poisson|staggered]\n"
    "          [--arrival-mean-gap=N] [--stagger-gap=N]\n"
    "          [--phase-period=N] [--phase-skip=N] TRACE TRACE...\n"
    "      write a multi-tenant colocation manifest (>= 2 member\n"
    "      traces, each pinned by content hash; --phase-* apply to\n"
    "      every tenant); replay with\n"
    "      c3d-sweep --workloads=compose:MANIFEST\n";

int
usageError(const std::string &message)
{
    std::fprintf(stderr, "c3d-trace: %s\n%s", message.c_str(), Usage);
    return 2;
}

int
runRecord(int argc, char **argv)
{
    std::string profile_name = "facesim";
    std::string out;
    std::uint64_t cores = 8;
    std::uint64_t ops = 10000;
    std::uint64_t seed = 0;
    std::uint64_t scale = 256;
    std::uint64_t cores_per_socket = 0;

    for (int i = 2; i < argc; ++i) {
        std::string key, value;
        if (!splitFlag(argv[i], key, value))
            return usageError(std::string("unexpected argument '") +
                              argv[i] + "'");
        if (key == "help") {
            std::fputs(Usage, stdout);
            return 0;
        } else if (key == "profile") {
            profile_name = value;
        } else if (key == "out") {
            out = value;
        } else if (key == "cores") {
            if (!parseU64(value, cores) || cores < 1 || cores > 4096)
                return usageError("bad --cores (want 1..4096)");
        } else if (key == "ops") {
            if (!parseU64(value, ops) || ops < 1)
                return usageError("bad --ops");
        } else if (key == "seed") {
            if (!parseU64(value, seed))
                return usageError("bad --seed");
        } else if (key == "scale") {
            if (!parseU64(value, scale) || scale < 1)
                return usageError("bad --scale");
        } else if (key == "cores-per-socket") {
            if (!parseU64(value, cores_per_socket))
                return usageError("bad --cores-per-socket");
        } else {
            return usageError("unknown flag '--" + key + "'");
        }
    }
    if (out.empty())
        return usageError("record needs --out=FILE");

    WorkloadProfile profile;
    try {
        profile = profileByName(profile_name);
    } catch (const SimError &) {
        return 1; // the panic site already printed the diagnostic
    }
    if (seed)
        profile.seed = seed;
    SyntheticWorkload wl(
        profile.scaled(static_cast<std::uint32_t>(scale)),
        static_cast<std::uint32_t>(cores),
        cores_per_socket ? static_cast<std::uint32_t>(cores_per_socket)
                         : 8);

    // Round-robin capture: op i of every core before op i+1 of any,
    // so the interleaving (and thus the file) is deterministic.
    const std::uint32_t active =
        wl.activeCores(static_cast<std::uint32_t>(cores));
    TraceFileWriter writer(out, active);
    for (std::uint64_t i = 0; i < ops; ++i) {
        for (std::uint32_t c = 0; c < active; ++c) {
            const TraceOp op = wl.next(c);
            TraceRecord rec;
            rec.core = static_cast<std::uint16_t>(c);
            rec.gap = static_cast<std::uint16_t>(
                std::min<std::uint32_t>(op.gap, 0xFFFF));
            rec.op = op.op;
            rec.addr = op.addr;
            writer.append(rec);
        }
    }
    const std::uint64_t written = writer.recordsWritten();
    writer.close();

    TraceFileInfo info;
    std::string error;
    if (!scanTraceFile(out, info, error)) {
        std::fprintf(stderr,
                     "c3d-trace: recorded file fails validation: "
                     "%s\n",
                     error.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "c3d-trace: wrote %" PRIu64 " records (%u cores, "
                 "profile %s) to '%s'; content hash %016" PRIx64 "\n",
                 written, active, profile.name.c_str(), out.c_str(),
                 info.contentHash);
    return 0;
}

int
runInfo(int argc, char **argv)
{
    std::string path;
    bool json = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--help") {
            std::fputs(Usage, stdout);
            return 0;
        } else if (arg.rfind("--", 0) == 0) {
            return usageError("unknown flag '" + arg + "'");
        } else if (path.empty()) {
            path = arg;
        } else {
            return usageError("info takes exactly one FILE");
        }
    }
    if (path.empty())
        return usageError("info takes exactly one FILE");

    TraceFileInfo info;
    std::string error;
    if (!scanTraceFile(path, info, error)) {
        std::fprintf(stderr, "c3d-trace: %s\n", error.c_str());
        return 1;
    }

    if (json) {
        // One deterministic object: fixed key order, content hash as
        // a 16-hex-digit string (JSON numbers lose u64 precision in
        // many consumers).
        std::printf("{\n  \"file\": \"%s\",\n",
                    exp::jsonEscape(path).c_str());
        std::printf("  \"workload\": \"%s\",\n",
                    exp::jsonEscape(
                        traceWorkloadName(path, info.contentHash))
                        .c_str());
        std::printf("  \"cores\": %u,\n", info.numCores);
        std::printf("  \"records\": %" PRIu64 ",\n", info.records);
        std::printf("  \"reads\": %" PRIu64 ",\n", info.reads);
        std::printf("  \"writes\": %" PRIu64 ",\n", info.writes);
        std::printf("  \"content_hash\": \"%016" PRIx64 "\",\n",
                    info.contentHash);
        std::printf("  \"file_bytes\": %" PRIu64 ",\n",
                    info.fileBytes);
        std::printf("  \"per_core_records\": [");
        for (std::size_t c = 0; c < info.perCoreRecords.size(); ++c)
            std::printf("%s%" PRIu64, c ? ", " : "",
                        info.perCoreRecords[c]);
        std::printf("]\n}\n");
        return 0;
    }

    std::uint64_t min_recs = info.records, max_recs = 0;
    for (const std::uint64_t n : info.perCoreRecords) {
        min_recs = std::min(min_recs, n);
        max_recs = std::max(max_recs, n);
    }
    std::printf("file:         %s\n", path.c_str());
    std::printf("workload:     %s\n",
                traceWorkloadName(path, info.contentHash).c_str());
    std::printf("cores:        %u\n", info.numCores);
    std::printf("records:      %" PRIu64
                " (per core: min %" PRIu64 ", max %" PRIu64 ")\n",
                info.records, min_recs, max_recs);
    std::printf("reads/writes: %" PRIu64 " / %" PRIu64
                " (%.1f%% writes)\n",
                info.reads, info.writes,
                100.0 * static_cast<double>(info.writes) /
                    static_cast<double>(info.records));
    std::printf("content hash: %016" PRIx64 "\n", info.contentHash);
    std::printf("file bytes:   %" PRIu64 "\n", info.fileBytes);
    return 0;
}

int
runValidate(const std::string &path)
{
    TraceFileInfo info;
    std::string error;
    if (!scanTraceFile(path, info, error)) {
        std::fprintf(stderr, "c3d-trace: %s\n", error.c_str());
        return 1;
    }
    std::printf("ok: %" PRIu64 " records, %u cores, hash %016" PRIx64
                "\n",
                info.records, info.numCores, info.contentHash);
    return 0;
}

int
runTruncate(int argc, char **argv)
{
    std::string in, out;
    std::uint64_t keep = 0;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (!in.empty())
                return usageError("truncate takes one input file");
            in = arg;
            continue;
        }
        std::string key, value;
        splitFlag(arg, key, value);
        if (key == "help") {
            std::fputs(Usage, stdout);
            return 0;
        } else if (key == "records") {
            if (!parseU64(value, keep) || keep < 1)
                return usageError("bad --records");
        } else if (key == "out") {
            out = value;
        } else {
            return usageError("unknown flag '--" + key + "'");
        }
    }
    if (in.empty() || out.empty() || keep == 0)
        return usageError(
            "truncate needs FILE, --records=N, and --out=FILE2");

    TraceFileInfo out_info;
    std::string error;
    if (!truncateTraceFile(in, out, keep, error, &out_info)) {
        std::fprintf(stderr, "c3d-trace: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "c3d-trace: wrote %" PRIu64 " records to '%s'; "
                 "content hash %016" PRIx64 "\n",
                 keep, out.c_str(), out_info.contentHash);
    return 0;
}

int
runCompose(int argc, char **argv)
{
    CompositionSpec spec;
    std::string out;
    std::uint64_t phase_period = 0, phase_skip = 0;
    std::vector<std::string> traces;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            traces.push_back(arg);
            continue;
        }
        std::string key, value;
        splitFlag(arg, key, value);
        if (key == "help") {
            std::fputs(Usage, stdout);
            return 0;
        } else if (key == "out") {
            out = value;
        } else if (key == "name") {
            spec.name = value;
        } else if (key == "seed") {
            if (!parseU64(value, spec.seed))
                return usageError("bad --seed");
        } else if (key == "assign") {
            if (!parseAssignPolicy(value, spec.assignment))
                return usageError(
                    "bad --assign (want block|interleave)");
        } else if (key == "arrival") {
            if (!parseArrivalProcess(value, spec.arrival))
                return usageError(
                    "bad --arrival (want fixed|poisson|staggered)");
        } else if (key == "arrival-mean-gap") {
            if (!parseU64(value, spec.arrivalMeanGap))
                return usageError("bad --arrival-mean-gap");
        } else if (key == "stagger-gap") {
            if (!parseU64(value, spec.staggerGap))
                return usageError("bad --stagger-gap");
        } else if (key == "phase-period") {
            if (!parseU64(value, phase_period))
                return usageError("bad --phase-period");
        } else if (key == "phase-skip") {
            if (!parseU64(value, phase_skip))
                return usageError("bad --phase-skip");
        } else {
            return usageError("unknown flag '--" + key + "'");
        }
    }
    if (out.empty())
        return usageError("compose needs --out=MANIFEST");
    if (traces.size() < 2)
        return usageError(
            "compose needs at least two member TRACE files");
    if (phase_skip && !phase_period)
        return usageError("--phase-skip needs --phase-period");
    if (spec.arrival == ArrivalProcess::Poisson &&
        spec.arrivalMeanGap == 0)
        return usageError("--arrival=poisson needs "
                          "--arrival-mean-gap");
    if (spec.arrival == ArrivalProcess::Staggered &&
        spec.staggerGap == 0)
        return usageError("--arrival=staggered needs --stagger-gap");

    std::string error;
    for (const std::string &trace : traces) {
        // Same guard as truncate: writing the manifest over a member
        // would clobber the trace being pinned.
        if (sameFileTarget(trace, out)) {
            std::fprintf(stderr,
                         "c3d-trace: refusing --out='%s': it names "
                         "member trace '%s'\n",
                         out.c_str(), trace.c_str());
            return 1;
        }
        TenantSpec tenant;
        tenant.tracePath = trace;
        tenant.phasePeriodOps = phase_period;
        tenant.phaseSkipOps = phase_skip;
        TraceFileInfo info;
        if (!scanTraceFile(trace, info, error)) {
            std::fprintf(stderr, "c3d-trace: %s\n", error.c_str());
            return 1;
        }
        tenant.traceHash = info.contentHash;
        spec.tenants.push_back(std::move(tenant));
    }

    const std::string text = compositionToJson(spec);
    std::FILE *f = std::fopen(out.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr,
                     "c3d-trace: cannot open '%s' for writing\n",
                     out.c_str());
        return 1;
    }
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    if (std::fclose(f) != 0 || !wrote) {
        std::fprintf(stderr, "c3d-trace: writing '%s' failed\n",
                     out.c_str());
        std::remove(out.c_str());
        return 1;
    }

    // Revalidate through the real loader (member paths resolve
    // against the manifest's directory, so a manifest written away
    // from its members with relative paths fails here, not at sweep
    // time); a manifest that cannot load back is not kept.
    CompositionSpec checked;
    if (!loadComposition(out, checked, error)) {
        std::fprintf(stderr,
                     "c3d-trace: written manifest fails validation "
                     "(%s); not keeping '%s'\n",
                     error.c_str(), out.c_str());
        std::remove(out.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "c3d-trace: wrote composition '%s' (%zu tenants, "
                 "workload %s) to '%s'\n",
                 checked.name.c_str(), checked.tenants.size(),
                 compositionWorkloadName(
                     out, compositionHashOf(checked))
                     .c_str(),
                 out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    if (argc < 2)
        return usageError("missing subcommand");
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "help") {
        std::fputs(Usage, stdout);
        return 0;
    }
    if (cmd == "record")
        return runRecord(argc, argv);
    if (cmd == "info")
        return runInfo(argc, argv);
    if (cmd == "validate") {
        if (argc != 3)
            return usageError("validate takes exactly one FILE");
        return runValidate(argv[2]);
    }
    if (cmd == "truncate")
        return runTruncate(argc, argv);
    if (cmd == "compose")
        return runCompose(argc, argv);
    return usageError("unknown subcommand '" + cmd + "'");
}
