/**
 * @file
 * Per-run progress watchdog for the event kernel.
 *
 * A sweep row can fail three ways that an abort-on-panic simulator
 * never reports cleanly: it can livelock (the simulated clock stops
 * advancing while events keep executing -- e.g. a same-tick
 * reschedule loop), it can run away (orders of magnitude more events
 * than the row should need), or it can simply take too long on the
 * wall clock. WatchdogLimits names a budget for each; WatchdogState
 * is the shared per-run accounting the machine's queues check
 * against.
 *
 * The checks are built to preserve the repo's byte-identity
 * invariant: the watchdog only *observes* execution (it never
 * schedules events or perturbs ordering), the per-event cost when
 * armed is one branch plus a counter, and the total-event budget and
 * the wall-clock expiry flag are checked only every BulkPeriod
 * events so the hot loop stays hot. A tripped budget raises
 * c3d_panic -- i.e. a catchable SimError naming the stuck queue's
 * pending work (see EventQueue::watchdogCheck) -- which the sweep
 * layer contains to the row.
 *
 * Stall-detector determinism: the same-tick run length is counted
 * per queue in execution order, so on a 1-worker run the trip point
 * and its diagnostic are exactly reproducible. Wall-clock trips are
 * inherently timing-dependent; they exist as a last-resort budget,
 * not a differential surface.
 *
 * The wall clock has one reader: runWithSiblingWatchdog(). The run
 * body executes on a sacrificial sibling thread while the calling
 * thread waits out the wall budget independently of event progress.
 * When the budget runs out, the caller raises the run's expiry flag;
 * a run still executing events sees it at its next bulk fold and
 * unwinds with the in-band "wall-clock budget" SimError naming the
 * tick. A run that does not finish within one more budget is stalled
 * inside a single event (a blocking wait, an unbounded loop that
 * never returns to the kernel), which no in-band check can observe.
 * It is *abandoned* -- the stuck thread cannot be interrupted
 * safely, so it is parked in a registry together with a keep-alive
 * reference to everything it may still touch, and the caller gets a
 * SimError it can contain per row.
 */

#ifndef C3DSIM_SIM_WATCHDOG_HH
#define C3DSIM_SIM_WATCHDOG_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace c3d
{

/** Per-row progress budgets; 0 disables the corresponding check. */
struct WatchdogLimits
{
    /**
     * Wall-clock budget for the whole run, in milliseconds; timed by
     * runWithSiblingWatchdog() (runWorkload arms it), so a Runner
     * driven directly only ever sees the expiry flag unraised.
     */
    std::uint64_t wallMs = 0;
    /** Total executed-event budget across all kernel queues. */
    std::uint64_t maxEvents = 0;
    /**
     * No-progress (livelock) detector: maximum events one queue may
     * execute at a single tick before the run is declared stuck.
     */
    std::uint64_t stallEvents = 0;

    bool any() const { return wallMs || maxEvents || stallEvents; }
};

/** Shared accounting for one armed run (all queues of a machine). */
class WatchdogState
{
  public:
    /** Queues fold their local counts in every this many events. */
    static constexpr std::uint64_t BulkPeriod = 1024;

    /** Reset counters and the expiry flag for a new run. */
    void
    arm(const WatchdogLimits &l)
    {
        limits = l;
        totalEvents.store(0, std::memory_order_relaxed);
        wallExpiry.store(false, std::memory_order_relaxed);
    }

    const WatchdogLimits &budgets() const { return limits; }

    /**
     * Fold @p n freshly executed events into the machine-wide total;
     * true when the executed-event budget is now exceeded.
     */
    bool
    totalExceeded(std::uint64_t n)
    {
        if (!limits.maxEvents)
            return false;
        return totalEvents.fetch_add(n, std::memory_order_relaxed) +
            n > limits.maxEvents;
    }

    /** Mark the wall-clock budget spent (the sibling watchdog). */
    void
    raiseWallExpiry()
    {
        wallExpiry.store(true, std::memory_order_relaxed);
    }

    /** True once raiseWallExpiry() was called for this run. */
    bool
    wallExpiryRaised() const
    {
        return wallExpiry.load(std::memory_order_relaxed);
    }

  private:
    WatchdogLimits limits;
    std::atomic<std::uint64_t> totalEvents{0};
    std::atomic<bool> wallExpiry{false};
};

/**
 * Execute @p body on a sacrificial sibling thread under @p state's
 * wall budget (budgets().wallMs, which must be nonzero). Completion
 * within budget behaves exactly like a direct call -- the sibling
 * runs the identical code, so armed runs stay bit-identical -- and
 * any exception the body raises is rethrown here. When the budget
 * runs out, the caller raises @p state's expiry flag and waits at
 * most one more budget: a run still executing events unwinds with
 * its in-band SimError, which is rethrown here. A run that does not
 * finish is abandoned into a registry (holding @p keep_alive, which
 * must keep @p state and everything the body references alive
 * beyond the caller) and c3d_panic raises a catchable SimError on
 * the calling thread, which still holds the row's
 * ErrorIdentityScope.
 */
void runWithSiblingWatchdog(WatchdogState &state,
                            std::function<void()> body,
                            std::shared_ptr<void> keep_alive);

/** Number of abandoned sibling-watchdog threads still parked. */
std::size_t abandonedWatchdogThreads();

/**
 * Join and drop every abandoned thread whose body has since
 * finished (e.g. a test released the injected stall). @return how
 * many were reaped; still-stuck threads stay parked.
 */
std::size_t reapAbandonedWatchdogThreads();

} // namespace c3d

#endif // C3DSIM_SIM_WATCHDOG_HH
