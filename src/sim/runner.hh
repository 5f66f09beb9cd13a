/**
 * @file
 * Simulation runner: couples a Machine with a Workload, spawns one
 * TraceCpu per core, handles the warm-up / measurement split (the
 * paper warms the DRAM caches before collecting results, §V), and
 * extracts the metrics every bench reports.
 */

#ifndef C3DSIM_SIM_RUNNER_HH
#define C3DSIM_SIM_RUNNER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include <string>

#include "cpu/trace_cpu.hh"
#include "sim/machine.hh"
#include "trace/workload.hh"
#include "workload/tenant_stats.hh"

namespace c3d
{

/**
 * Per-tenant QoS metrics of one composed run (measurement window).
 * Latency percentiles come from the tenant's memory-latency
 * histogram -- power-of-two bucket resolution, integer arithmetic,
 * bit-identical across platforms (Histogram::percentile).
 */
struct TenantMetrics
{
    std::string name; //!< "t<idx>:<trace-basename>@<hash8>"
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t dramCacheHits = 0;
    std::uint64_t dramCacheMisses = 0;
    /** DRAM-cache blocks owned by the tenant at window close (live
     * gauge, not reset at the warm-up boundary). */
    std::uint64_t dramCacheOccupancy = 0;
    std::uint64_t latP50 = 0; //!< p50 memory latency (ticks)
    std::uint64_t latP95 = 0;
    std::uint64_t latP99 = 0;

    /** Tenant IPC over the machine's measurement window. */
    double
    ipc(Tick measured_ticks) const
    {
        return measured_ticks
            ? static_cast<double>(instructions) / measured_ticks : 0.0;
    }
};

/** Metrics of one simulation run (measurement window only). */
struct RunResult
{
    Tick measuredTicks = 0;      //!< wall ticks of the window
    std::uint64_t instructions = 0; //!< committed instructions
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t remoteMemReads = 0;
    std::uint64_t remoteMemWrites = 0;
    std::uint64_t dramCacheHits = 0;
    std::uint64_t dramCacheMisses = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t interSocketBytes = 0;
    std::uint64_t broadcasts = 0;
    std::uint64_t broadcastsElided = 0;

    // DRAM-cache predictor accuracy (docs/predictors.md). All zero
    // for the region predictor except falsePresent (counting-filter
    // mode); the perceptron fills all four.
    std::uint64_t predictorTrains = 0;
    std::uint64_t predictorBypasses = 0;
    std::uint64_t predictorGhostHits = 0;
    std::uint64_t predictorFalsePresent = 0;

    /** Per-tenant QoS breakdown; empty for non-composed runs. */
    std::vector<TenantMetrics> tenants;

    double
    ipc() const
    {
        return measuredTicks
            ? static_cast<double>(instructions) / measuredTicks : 0.0;
    }

    std::uint64_t memAccesses() const { return memReads + memWrites; }
    std::uint64_t
    remoteMemAccesses() const
    {
        return remoteMemReads + remoteMemWrites;
    }
};

/**
 * Kernel selection for a run.
 *
 * Every run is driven by the cell executor; eligible configurations
 * (Machine::parallelKernelEligible) lay it out one queue per socket,
 * and `parallel` only chooses how many worker threads drive it. The
 * default (1 thread) executes the exact event sequence the parallel
 * run must reproduce — it is the sequential differential oracle.
 * Ineligible configurations run on one queue, hence one thread,
 * regardless of these options.
 */
struct KernelOptions
{
    bool parallel = false; //!< drive eligible configs with a pool
    /** Worker threads; 0 = min(numSockets, hardware threads). */
    unsigned threads = 0;
};

/**
 * Everything configurable about how one run executes -- as opposed
 * to *what* it simulates (SystemConfig/Workload). None of it is part
 * of row identity: the kernel choice reproduces the sequential
 * oracle byte-for-byte, the watchdog only observes, and the fault
 * plan exists to make runs fail, not to change surviving results.
 */
struct RunOptions
{
    KernelOptions kernel;
    WatchdogLimits watchdog; //!< progress budgets; default all off
    FaultPlan fault;         //!< injected fault; default none
};

/** Drives a full simulation. */
class Runner
{
  public:
    /**
     * @param cfg machine configuration
     * @param workload reference-stream source (not owned)
     * @param opts execution options (kernel selection, watchdog
     *        budgets, fault injection; see RunOptions)
     */
    Runner(const SystemConfig &cfg, Workload &workload,
           RunOptions opts = {});
    ~Runner();

    /**
     * Run @p warmup_ops + @p measure_ops references per active core
     * and return the measurement-window metrics. Stats are reset when
     * the last core crosses its warm-up quota.
     */
    RunResult run(std::uint64_t warmup_ops, std::uint64_t measure_ops);

    /**
     * Turn on per-tenant QoS accounting (before run()): @p core_tenant
     * maps each global core to a tenant index (-1 idle) and @p names
     * labels the tenants. Registers one TenantStatSet per tenant with
     * the machine's StatGroup -- so the warm-up reset covers them --
     * and installs per-socket local-core maps into every Socket.
     */
    void enableTenantTracking(std::vector<std::int32_t> core_tenant,
                              std::vector<std::string> names);

    Machine &machine() { return *m; }
    /** The run's progress accounting (the sibling watchdog's flag). */
    WatchdogState &watchdogState() { return watchdog; }
    const std::vector<std::unique_ptr<TraceCpu>> &cores() const
    {
        return cpus;
    }

  private:
    RunResult collectResult(Tick measured_ticks);

    std::unique_ptr<Machine> m;
    Workload &workload;
    RunOptions opts;
    WatchdogState watchdog; //!< armed iff opts.watchdog.any()
    std::vector<std::unique_ptr<TraceCpu>> cpus;
    Barrier barrier;

    /** Tenant accounting state (empty unless enabled). Sized once at
     * enable time: the StatGroup keeps raw pointers into the vector,
     * so it must never reallocate afterwards. */
    std::vector<TenantStatSet> tenantSets;
    std::vector<std::int32_t> coreTenant; //!< global core -> tenant
    std::vector<std::string> tenantNames;
};

/** Convenience: build, run, and summarize in one call. */
RunResult runWorkload(const SystemConfig &cfg,
                      const WorkloadProfile &scaled_profile,
                      std::uint64_t warmup_ops,
                      std::uint64_t measure_ops,
                      RunOptions opts = {});

} // namespace c3d

#endif // C3DSIM_SIM_RUNNER_HH
