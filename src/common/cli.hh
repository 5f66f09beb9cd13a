/**
 * @file
 * Command-line configuration for c3dsim tools.
 *
 * Examples and user binaries accept a common set of flags to build a
 * SystemConfig and pick workloads without recompiling:
 *
 *   --design --protocol --predictor --sockets --mapping
 *                             (one value of each sweep axis that has
 *                             a single-value flag; exp::gridAxes())
 *   --cores-per-socket=N
 *   --scale=N                 (capacities /N; pair with workload scale)
 *   --workload=<profile name> --warmup=N --measure=N
 *   --dram-cache-ns=N --hop-ns=N --mem-ns=N
 *   --no-dram-cache --tlb-classification
 *   --seed=N
 */

#ifndef C3DSIM_COMMON_CLI_HH
#define C3DSIM_COMMON_CLI_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"

namespace c3d
{

/** Parsed command line for a c3dsim tool. */
struct CliOptions
{
    SystemConfig config;           //!< already scaled
    std::uint32_t scale = 32;      //!< machine/workload scale divisor
    std::string workload = "facesim";
    std::uint64_t warmupOps = 15000;
    std::uint64_t measureOps = 25000;
    std::uint64_t seed = 0xC3D0;
    bool showHelp = false;
    std::string error;             //!< non-empty on parse failure

    bool ok() const { return error.empty() && !showHelp; }
};

/**
 * Parse @p args (not including argv[0]). Unknown flags produce an
 * error; `--help` sets showHelp. The returned config has scaling
 * already applied.
 */
CliOptions parseCli(const std::vector<std::string> &args);

// ---- reusable flag-parsing helpers (c3d-sweep, bench harness) --------

/** Split "--key=value" into parts; value empty for bare flags. */
bool splitFlag(const std::string &arg, std::string &key,
               std::string &value);

/** Parse an unsigned integer (base auto-detected). */
bool parseU64(const std::string &s, std::uint64_t &out);

/** Split "a,b,c" on commas; empty input yields an empty list. */
std::vector<std::string> splitList(const std::string &s);

/** An unsigned flag: its name, accepted range and destination. */
struct UnsignedFlag
{
    const char *name;
    std::uint64_t lo, hi;
    std::uint64_t *out;
};

/**
 * If @p key is one of @p flags, parse @p value into it and return
 * true; a value outside its range sets @p error. False otherwise.
 */
bool parseUnsignedFlag(const std::vector<UnsignedFlag> &flags,
                       const std::string &key, const std::string &value,
                       std::string &error);

/** Convenience overload for main(argc, argv). */
CliOptions parseCli(int argc, char **argv);

/** Usage text for --help. */
std::string cliUsage();

} // namespace c3d

#endif // C3DSIM_COMMON_CLI_HH
