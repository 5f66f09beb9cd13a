#include "common/cli.hh"

#include <cstdlib>

#include "exp/sweep_grid.hh"

namespace c3d
{

/** Split "--key=value"; value empty for bare flags. */
bool
splitFlag(const std::string &arg, std::string &key, std::string &value)
{
    if (arg.rfind("--", 0) != 0)
        return false;
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
        key = arg.substr(2);
        value.clear();
    } else {
        key = arg.substr(2, eq - 2);
        value = arg.substr(eq + 1);
    }
    return true;
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 0);
    return end && *end == '\0';
}

bool
parseUnsignedFlag(const std::vector<UnsignedFlag> &flags,
                  const std::string &key, const std::string &value,
                  std::string &error)
{
    for (const UnsignedFlag &f : flags) {
        if (key != f.name)
            continue;
        std::uint64_t n = 0;
        if (parseU64(value, n) && n >= f.lo && n <= f.hi)
            *f.out = n;
        else
            error = "bad --" + key + " value '" + value + "'";
        return true;
    }
    return false;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    if (s.empty())
        return out;
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = s.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(s.substr(start));
            return out;
        }
        out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
}

std::string
cliUsage()
{
    return "c3dsim options:\n" + exp::axisUsage(/*lists=*/false) +
        "  --cores-per-socket=N   (default 8)\n"
        "  --scale=N              shrink capacities & workload by N "
        "(default 32)\n"
        "  --store-buffer=N       snoopy store write buffer depth "
        "(default 0 = off)\n"
        "  --workload=NAME        paper profile name (default "
        "facesim)\n"
        "  --warmup=N --measure=N references per core\n"
        "  --dram-cache-ns=N --hop-ns=N --mem-ns=N latency overrides\n"
        "  --no-dram-cache        drop the DRAM cache (any design)\n"
        "  --tlb-classification   enable the SIV-D broadcast filter\n"
        "  --seed=N               workload RNG seed\n"
        "  --help\n";
}

CliOptions
parseCli(const std::vector<std::string> &args)
{
    CliOptions opt;
    SystemConfig raw; // unscaled; scaled at the end

    exp::SweepGrid point; // the axis flags, applied once all are read
    std::uint64_t dram_ns = 0, hop_ns = 0, mem_ns = 0;
    std::uint64_t store_buffer = raw.storeWriteBufferDepth;
    std::uint64_t cores = raw.coresPerSocket, scale = opt.scale;
    const std::vector<UnsignedFlag> numbers = {
        {"store-buffer", 0, 4096, &store_buffer},
        {"cores-per-socket", 1, 64, &cores},
        {"scale", 1, UINT64_MAX, &scale},
        {"warmup", 0, UINT64_MAX, &opt.warmupOps},
        {"measure", 0, UINT64_MAX, &opt.measureOps},
        {"dram-cache-ns", 0, UINT64_MAX, &dram_ns},
        {"hop-ns", 0, UINT64_MAX, &hop_ns},
        {"mem-ns", 0, UINT64_MAX, &mem_ns},
        {"seed", 0, UINT64_MAX, &opt.seed},
    };

    for (const std::string &arg : args) {
        std::string key, value;
        if (!splitFlag(arg, key, value)) {
            opt.error = "unexpected argument '" + arg + "'";
            return opt;
        }
        if (key == "help")
            opt.showHelp = true;
        else if (key == "workload")
            opt.workload = value;
        else if (key == "no-dram-cache")
            raw.hasDramCache = false;
        else if (key == "tlb-classification")
            raw.tlbPageClassification = true;
        else if (!exp::parseAxisFlag(key, false, value, point, opt.error) &&
                 !parseUnsignedFlag(numbers, key, value, opt.error))
            opt.error = "unknown flag '--" + key + "'";
        if (!opt.error.empty())
            return opt;
    }

    raw.storeWriteBufferDepth = static_cast<std::uint32_t>(store_buffer);
    raw.coresPerSocket = static_cast<std::uint32_t>(cores);
    opt.scale = static_cast<std::uint32_t>(scale);
    // A one-point sweep; the sockets axis keeps --cores-per-socket.
    point.coresPerSocket = raw.coresPerSocket;
    exp::RunSpec unused;
    for (const exp::GridAxis &axis : exp::gridAxes()) {
        if (axis.has(exp::SingleFlag))
            axis.apply(point, 0, unused, raw);
    }
    if (dram_ns)
        raw.dramCacheLatency = nsToTicks(dram_ns);
    if (hop_ns)
        raw.hopLatency = nsToTicks(hop_ns);
    if (mem_ns)
        raw.memLatency = nsToTicks(mem_ns);

    opt.config = raw.scaled(opt.scale);
    return opt;
}

CliOptions
parseCli(int argc, char **argv)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i)
        args.emplace_back(argv[i]);
    return parseCli(args);
}

} // namespace c3d
