/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * The containment layer (SimError, the progress watchdog, sweep fail
 * policies) is only trustworthy if every failure class it claims to
 * handle can be provoked on demand, deterministically, in tests and
 * CI. A FaultPlan arms exactly one such failure in a run, triggered
 * from Interconnect::send -- the one chokepoint all inter-socket
 * traffic crosses in every design:
 *
 *  - Panic: the first inter-socket send at tick >= `at` raises
 *    c3d_panic with a diagnostic naming the configured tick. Models
 *    a protocol assert firing mid-run.
 *  - Hang: the first inter-socket packet at tick >= `at` is silently
 *    swallowed -- its arrival callback never runs, the protocol
 *    transaction never completes, and the machine drains with cores
 *    unfinished, tripping the kernel's existing lost-wakeup panics.
 *    Models a dropped message / deadlocked transaction.
 *  - StallMsg: the `at`-th inter-socket packet's delivery is
 *    replaced by a zero-delay self-rescheduling event, so the queue
 *    executes events forever without the clock advancing. Models a
 *    livelock; caught by the watchdog's no-progress detector, or,
 *    with that off, by the wall-clock budget's expiry flag.
 *  - Block: the first inter-socket send at tick >= `at` blocks the
 *    executing kernel thread *inside the current event* until
 *    releaseInjectedBlocks() is called. Models a hard deadlock in a
 *    single callback -- invisible to every in-band watchdog check
 *    (those only run between events, so the wall-clock expiry flag
 *    is never read); the sibling watchdog (runWithSiblingWatchdog)
 *    abandons the thread one budget after raising that flag.
 *
 * Determinism: on a 1-worker run (every single-queue run, and the
 * multi-queue oracle) send order is fully deterministic, so
 * a plan trips at the same packet, the same tick, with the same
 * diagnostic, every run. `parallelOnly` plans arm only when the
 * parallel kernel actually drives the run -- the hook that lets
 * tests exercise --fail-policy=retry's sequential-fallback ladder
 * (the retry succeeds precisely because the fault no longer arms).
 */

#ifndef C3DSIM_SIM_FAULT_INJECTOR_HH
#define C3DSIM_SIM_FAULT_INJECTOR_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace c3d
{

/** Failure class to provoke; see file comment. */
enum class FaultKind : std::uint8_t
{
    None,
    Panic,    //!< raise c3d_panic at the first send at tick >= at
    Hang,     //!< swallow one packet at tick >= at (lost wakeup)
    StallMsg, //!< replace packet #at's delivery with a tick livelock
    Block,    //!< block the kernel thread inside the event at >= at
};

const char *faultKindName(FaultKind kind);

/**
 * Park the calling thread until releaseInjectedBlocks() -- the Block
 * fault's stall primitive. Lives here (not in a test) so the stall
 * is reachable from the production injection chokepoint.
 */
void faultBlockWait();

/** Wake every thread parked in faultBlockWait(); @return how many. */
std::size_t releaseInjectedBlocks();

/** One planned fault for one run. */
struct FaultPlan
{
    FaultKind kind = FaultKind::None;
    /** Trigger tick (Panic/Hang) or 1-based packet ordinal
     * (StallMsg). */
    std::uint64_t at = 0;
    /** Arm only when the parallel kernel drives the run. */
    bool parallelOnly = false;

    bool active() const { return kind != FaultKind::None; }
};

/**
 * Parse "[par:]panic@TICK | [par:]hang@TICK | [par:]stall-msg@N"
 * into a plan. Row selectors (":K/M") are the sweep CLI's business,
 * not this function's.
 */
bool parseFaultSpec(const std::string &text, FaultPlan &out,
                    std::string &error);

/**
 * Armed per-run fault state, owned by the Machine and consulted by
 * the Interconnect on the sending thread. The counters are atomic
 * because the parallel kernel sends from multiple threads; each
 * fault fires exactly once per run.
 */
class FaultInjector
{
  public:
    /** Arm @p p for a run; @p parallel_kernel gates parallelOnly. */
    void
    arm(const FaultPlan &p, bool parallel_kernel)
    {
        plan = p;
        enabled = p.active() && (!p.parallelOnly || parallel_kernel);
        packets.store(0, std::memory_order_relaxed);
        fired.store(false, std::memory_order_relaxed);
    }

    bool armed() const { return enabled; }
    const FaultPlan &armedPlan() const { return plan; }

    /** Panic trigger: first send at tick >= plan.at. */
    bool
    shouldPanic(Tick now) const
    {
        return enabled && plan.kind == FaultKind::Panic &&
            now >= plan.at;
    }

    /** Hang trigger; consumes the (single) firing. */
    bool
    takeHang(Tick now)
    {
        return enabled && plan.kind == FaultKind::Hang &&
            now >= plan.at &&
            !fired.exchange(true, std::memory_order_relaxed);
    }

    /** Block trigger; consumes the (single) firing. */
    bool
    takeBlock(Tick now)
    {
        return enabled && plan.kind == FaultKind::Block &&
            now >= plan.at &&
            !fired.exchange(true, std::memory_order_relaxed);
    }

    /** Stall trigger: fires on the plan.at-th inter-socket packet. */
    bool
    takeStall()
    {
        if (!enabled || plan.kind != FaultKind::StallMsg)
            return false;
        return packets.fetch_add(1, std::memory_order_relaxed) + 1 ==
            plan.at &&
            !fired.exchange(true, std::memory_order_relaxed);
    }

  private:
    FaultPlan plan;
    bool enabled = false;
    std::atomic<std::uint64_t> packets{0};
    std::atomic<bool> fired{false};
};

} // namespace c3d

#endif // C3DSIM_SIM_FAULT_INJECTOR_HH
