/**
 * @file
 * Parallel sweep execution.
 *
 * A SweepEngine expands a SweepGrid and executes the resulting
 * RunSpecs on a pool of worker threads. Each spec builds its own
 * Runner/Machine/Workload (runs are embarrassingly parallel -- the
 * simulator keeps no cross-run mutable state beyond atomic logging
 * flags), and every result lands in a slot preassigned by grid
 * order, so the result table is identical whatever the worker count:
 * `--jobs 8` and `--jobs 1` emit byte-for-byte equal JSON/CSV.
 *
 * Grid points that differ only on axes their machine ignores (see
 * machineKey) share one simulation under run(grid): the lowest
 * ordinal of each group runs, and its metrics are labeled with every
 * member's identity. Each member is still reported as its own row.
 *
 * Studies that do not run the timing simulator (e.g. the functional
 * capacity analyses behind Fig. 3) supply a custom run function and
 * still get the pool, the ordering guarantee, and the emitters. A
 * custom function runs once per grid point: it may read anything in
 * the spec, including its ordinal.
 *
 * For distributed and resumable sweeps the engine additionally
 * supports a shard filter (run only specs with index % N == K),
 * prefilled rows (skip grid points already completed by an earlier,
 * journaled run), a row sink (invoked serially as each row
 * completes, backing the crash-safe journal), and a cooperative
 * stop request (workers stop claiming new specs; claimed runs
 * finish). See docs/sweeps.md "Distributing and resuming sweeps".
 */

#ifndef C3DSIM_EXP_SWEEP_ENGINE_HH
#define C3DSIM_EXP_SWEEP_ENGINE_HH

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "exp/result_table.hh"
#include "exp/sweep_grid.hh"

namespace c3d::exp
{

/**
 * What to do when a grid point's run throws (SimError from a panic,
 * a tripped watchdog, or any std::exception).
 *
 * Abort preserves the old behavior at sweep granularity: workers
 * stop claiming and run() rethrows the first failure after the pool
 * joins (in-flight rows still reach the row sink first). Skip
 * contains the failure to its row: the failure is reported through
 * the failure sink and the row is simply absent from the table.
 * Retry re-runs the row up to N more times through the retry
 * function (when set) before giving up as Skip does -- the sweep CLI
 * sets the retry function to the sequential MultiQueue-1 oracle, so
 * a row that failed under the parallel kernel gracefully degrades to
 * the slower deterministic kernel instead of being lost.
 */
enum class FailPolicy
{
    Abort,
    Skip,
    Retry,
};

/**
 * A contained row failure, as reported to the failure sink. One is
 * reported per row whose first attempt failed -- including rows a
 * retry later recovered (recovered=true), so journals keep the full
 * audit trail.
 */
struct RowFailure
{
    std::size_t index = 0;   //!< spec ordinal in grid order
    std::string identity;    //!< specIdentityKey of the row
    std::string error;       //!< diagnostic (location + message)
    std::uint64_t tick = 0;  //!< simulated tick of the failure
    bool tickKnown = false;  //!< tick field is meaningful
    unsigned attempts = 1;   //!< total attempts made on the row
    bool recovered = false;  //!< a later attempt completed the row
    bool degraded = false;   //!< recovery used the retry (fallback) fn
};

/** Executes sweep grids on a worker thread pool. */
class SweepEngine
{
  public:
    /** Maps one grid point to its metrics. */
    using RunFn = std::function<RunResult(const RunSpec &)>;

    /**
     * Failure sink, invoked serially (under the same lock as the
     * progress callback) for each row whose first attempt failed.
     * For recovered rows it fires *before* the row sink, so a
     * journal records failure-then-success in that order.
     */
    using FailureFn = std::function<void(const RowFailure &)>;

    /**
     * Progress callback, invoked serially (under an internal lock)
     * after each row completes: (spec, done_count, total_count,
     * source). The counts cover the specs this engine actually
     * executes (after shard filtering and prefill skips); source is
     * the ordinal whose simulation produced the row -- spec.index
     * unless the row shares another grid point's simulation.
     */
    using ProgressFn = std::function<void(
        const RunSpec &, std::size_t, std::size_t, std::size_t)>;

    /**
     * Row sink, invoked serially (under the same lock as the
     * progress callback) with each freshly-executed row, in
     * completion order. Prefilled rows are not re-reported.
     */
    using RowFn =
        std::function<void(const RunSpec &, const ResultRow &)>;

    /** @param jobs worker threads; 0 = hardware concurrency. */
    explicit SweepEngine(unsigned jobs = 1);

    unsigned jobs() const { return workerCount; }

    /**
     * Kernel selection forwarded to every simulated run. NOT part of
     * row identity: the parallel kernel reproduces the sequential
     * oracle's rows byte-for-byte (tests/test_parallel_kernel.cc),
     * so rows do not record which kernel produced them — exactly as
     * --jobs does not appear in rows.
     */
    void setKernelOptions(KernelOptions k) { runOpts.kernel = k; }
    KernelOptions kernelOptions() const { return runOpts.kernel; }

    /**
     * Full run options (kernel + watchdog budgets + fault plan)
     * forwarded to every simulated run. Like the kernel choice, none
     * of it is row identity: the watchdog only observes and faults
     * only make rows fail.
     */
    void setRunOptions(const RunOptions &o) { runOpts = o; }
    const RunOptions &runOptions() const { return runOpts; }

    void setProgress(ProgressFn fn) { progress = std::move(fn); }

    void setRowSink(RowFn fn) { rowSink = std::move(fn); }

    /**
     * Containment policy for throwing runs (default Abort). For
     * Retry, @p retries is the number of re-runs after the failed
     * first attempt.
     */
    void
    setFailPolicy(FailPolicy p, unsigned retries = 1)
    {
        failPolicy = p;
        retryLimit = retries;
    }

    FailPolicy policy() const { return failPolicy; }

    void setFailureSink(FailureFn fn) { failureSink = std::move(fn); }

    /**
     * Run function used for retry attempts (Retry policy only); the
     * first attempt always uses the primary function. Unset, retries
     * re-run the primary function.
     */
    void setRetryFn(RunFn fn) { retryFn = std::move(fn); }

    /**
     * Restrict execution to shard @p index of @p count: only specs
     * with `spec.index % count == index` run, so the shards of a
     * grid are disjoint and together exhaustive. Returns false
     * (and leaves the filter unchanged) unless index < count.
     */
    bool setShard(unsigned index, unsigned count);

    unsigned shardIndex() const { return shardIdx; }
    unsigned shardCount() const { return shardCnt; }

    /**
     * Supply rows for grid points completed by an earlier run
     * (keyed by spec ordinal). Those specs are not re-executed;
     * their rows land in the result table as-is, with axis indices
     * restored from the spec.
     */
    void setPrefilled(std::unordered_map<std::size_t, ResultRow> rows)
    {
        prefilled = std::move(rows);
    }

    /**
     * Cooperative interruption: checked before each simulation is
     * claimed. Once it returns true, workers stop claiming; runs
     * already in flight complete (and every row they feed still
     * reaches the row sink), and run() returns the partial table.
     */
    void setStopRequest(std::function<bool()> fn)
    {
        stopRequested = std::move(fn);
    }

    /**
     * Run every grid point through the timing simulator, simulating
     * each distinct machine of this shard's to-run specs once
     * (machineKey). A shared simulation's failure is reported for
     * every grid point that shares it.
     */
    ResultTable run(const SweepGrid &grid) const;

    /**
     * Run every grid point through @p fn, once per point. Under
     * FailPolicy::Abort a contained failure is rethrown (as the
     * original exception, typically SimError) after the pool joins.
     */
    ResultTable run(const SweepGrid &grid, const RunFn &fn) const;

    /**
     * Default run function: simulate the spec's machine/workload via
     * runWorkload() (warm-up + measurement window).
     */
    static RunResult simulateSpec(const RunSpec &spec);

    /** simulateSpec with explicit run options. */
    static RunResult simulateSpec(const RunSpec &spec,
                                  const RunOptions &opts);

    /** Build the identity-labeled result row for a finished run. */
    static ResultRow makeRow(const RunSpec &spec,
                             const RunResult &metrics);

  private:
    /** Both run()s: @p share groups specs by machineKey. */
    ResultTable execute(const SweepGrid &grid, const RunFn &fn,
                        bool share) const;

    unsigned workerCount;
    unsigned shardIdx = 0;
    unsigned shardCnt = 1;
    RunOptions runOpts;
    FailPolicy failPolicy = FailPolicy::Abort;
    unsigned retryLimit = 1;
    ProgressFn progress;
    RowFn rowSink;
    FailureFn failureSink;
    RunFn retryFn;
    std::unordered_map<std::size_t, ResultRow> prefilled;
    std::function<bool()> stopRequested;
};

} // namespace c3d::exp

#endif // C3DSIM_EXP_SWEEP_ENGINE_HH
