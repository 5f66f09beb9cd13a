/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Events are (tick, sequence, callback) triples executed in (tick,
 * sequence) order: events scheduled for the same tick run in
 * scheduling order, which keeps the simulation deterministic.
 *
 * The kernel is the simulator's innermost loop -- every L1 hit, DRAM
 * access and interconnect hop is one event -- so it is built for
 * throughput:
 *
 *  - Callbacks are InlineFunction<void()>: the capture is stored
 *    inside the event (64-byte budget), so the common schedule path
 *    performs no heap allocation.
 *
 *  - The queue is a hierarchical timing wheel: a ring of WheelBuckets
 *    one-tick buckets covers the near future [base, base + span), and
 *    a binary min-heap absorbs events scheduled further out. Almost
 *    all simulator latencies (cache, directory, memory, hop) are far
 *    smaller than the span, so the common case is an O(1) bucket
 *    append plus a two-level bitmap scan to find the next event --
 *    no comparator-driven sift per event.
 *
 * Ordering contract: within one bucket, events are appended and
 * consumed FIFO, which is exactly (tick, sequence) order because a
 * bucket only ever holds one tick's events and appends happen in
 * schedule order. Far-future events carry an explicit sequence number
 * so the overflow heap preserves schedule order for equal ticks, and
 * they migrate into the wheel *before* any near-future event for the
 * same tick can be scheduled (migration happens the moment the wheel
 * base advances), so bucket append order remains global (tick,
 * sequence) order.
 */

#ifndef C3DSIM_SIM_EVENT_QUEUE_HH
#define C3DSIM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/sim_error.hh"
#include "common/types.hh"
#include "sim/inline_function.hh"
#include "sim/watchdog.hh"

namespace c3d
{

/** The event-driven simulation core. */
class EventQueue
{
  public:
    using Callback = InlineFunction<void()>;

    /** Wheel size: one-tick buckets covering [base, base + span). */
    static constexpr std::size_t WheelBuckets = 4096;
    static constexpr std::size_t WheelMask = WheelBuckets - 1;
    static constexpr Tick WheelSpan = WheelBuckets;
    // findOccupied's two-level scan assumes exactly 64 occupancy
    // words summarized by one 64-bit word; retuning WheelBuckets
    // means reworking that math, not just this constant.
    static_assert(WheelBuckets / 64 == 64,
                  "occupancy bitmap math requires 64 words of 64 "
                  "buckets");

    EventQueue() : buckets(WheelBuckets) {}
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return currentTick; }

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed; }

    /** Number of events currently pending. */
    std::size_t pending() const { return wheelCount + overflow.size(); }

    /**
     * Number of scheduled callbacks whose capture outgrew the inline
     * buffer and fell back to a heap allocation. The simulator's own
     * schedulers keep this at zero; see docs/perf.md.
     */
    std::uint64_t heapCallbackEvents() const { return heapEvents; }

    /** Schedule @p cb to run @p delay ticks from now. */
    void
    schedule(Tick delay, Callback cb)
    {
        scheduleAt(currentTick + delay, std::move(cb));
    }

    /** Schedule @p cb at absolute tick @p when (>= now). */
    void
    scheduleAt(Tick when, Callback cb)
    {
        c3d_assert(when >= currentTick,
                   "event scheduled in the past");
        if (cb.onHeap())
            ++heapEvents;
        // wheelBase <= currentTick <= when always holds, so the
        // subtraction cannot wrap.
        if (when - wheelBase < WheelSpan) {
            claimBucket(when).events.push_back(std::move(cb));
            ++wheelCount;
        } else {
            overflow.push_back(
                FarEvent{when, nextFarSequence++, std::move(cb)});
            std::push_heap(overflow.begin(), overflow.end(), FarLater{});
        }
    }

    /**
     * Tick of the earliest pending event, if any. Lets the parallel
     * kernel's lookahead skip empty synchronization cells without
     * executing anything.
     */
    bool
    peekNextTick(Tick &t) const
    {
        std::size_t idx;
        return peekNext(idx, t);
    }

    /**
     * Run events until the queue drains or @p maxTick is passed.
     * Events scheduled exactly at @p maxTick still run.
     * @return true if the queue drained, false if maxTick stopped us.
     */
    bool
    run(Tick maxTick = MaxTick)
    {
        // Publish this queue's clock so a panic raised from inside a
        // callback is stamped with the simulated time (SimError).
        TickSourceScope tick_scope(&currentTick);
        std::size_t idx;
        Tick t;
        while (peekNext(idx, t)) {
            if (t > maxTick)
                return false;
            executeAt(idx, t);
        }
        return true;
    }

    /** Execute exactly one event, if any. @return executed one. */
    bool
    step()
    {
        std::size_t idx;
        Tick t;
        if (!peekNext(idx, t))
            return false;
        TickSourceScope tick_scope(&currentTick);
        executeAt(idx, t);
        return true;
    }

    /**
     * Arm (or with nullptr disarm) the progress watchdog. The state
     * is shared across all of a machine's queues; per-queue stall
     * tracking restarts from here. The watchdog only observes --
     * it never schedules events -- so arming it cannot change the
     * executed event sequence (byte-identity is preserved).
     */
    void
    attachWatchdog(WatchdogState *w)
    {
        wd = w;
        wdLastTick = 0;
        wdSameTickRun = 0;
        wdSinceBulk = 0;
    }

    /**
     * One-line description of the pending work, for livelock
     * diagnostics: how many events are queued and where the head of
     * the queue sits. (Callbacks are opaque captures, so the tick
     * histogram is the most a report can say about them.)
     */
    std::string
    pendingSummary() const
    {
        std::size_t idx;
        Tick t;
        if (!peekNext(idx, t))
            return "queue empty";
        std::size_t head = 0;
        if (wheelCount != 0) {
            const Bucket &b = buckets[idx];
            head = b.events.size() - b.head;
        } else {
            for (const FarEvent &fe : overflow)
                head += fe.when == t;
        }
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "%zu events pending, next at tick %" PRIu64
                      " (%zu at that tick)",
                      pending(), static_cast<std::uint64_t>(t), head);
        return buf;
    }

    /**
     * Drop all pending events and rewind time to zero. O(buckets +
     * pending): bucket storage is clear()ed in place (capacity kept
     * for reuse), not drained event by event.
     */
    void
    reset()
    {
        for (Bucket &b : buckets) {
            b.events.clear();
            b.head = 0;
        }
        occupied.fill(0);
        summary = 0;
        overflow.clear();
        wheelCount = 0;
        wheelBase = 0;
        currentTick = 0;
        nextFarSequence = 0;
        executed = 0;
        heapEvents = 0;
        wdLastTick = 0;
        wdSameTickRun = 0;
        wdSinceBulk = 0;
    }

  private:
    /**
     * One tick's events. Only one tick can map to a bucket at a time:
     * live ticks all lie in [wheelBase, wheelBase + span), which maps
     * injectively onto the ring.
     */
    struct Bucket
    {
        std::vector<Callback> events;
        std::size_t head = 0; //!< next event to execute
        Tick tick = 0;        //!< tick of the resident events
    };

    /** A far-future event parked in the overflow heap. */
    struct FarEvent
    {
        Tick when;
        std::uint64_t sequence;
        Callback cb;
    };

    /** Min-heap comparator over (when, sequence). */
    struct FarLater
    {
        bool
        operator()(const FarEvent &a, const FarEvent &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.sequence > b.sequence;
        }
    };

    static std::size_t
    countTrailingZeros(std::uint64_t x)
    {
#if defined(__GNUC__) || defined(__clang__)
        return static_cast<std::size_t>(__builtin_ctzll(x));
#else
        std::size_t n = 0;
        while (!(x & 1)) {
            x >>= 1;
            ++n;
        }
        return n;
#endif
    }

    static std::uint64_t
    rotateRight(std::uint64_t x, std::size_t r)
    {
        r &= 63;
        return r ? (x >> r) | (x << (64 - r)) : x;
    }

    void
    setOccupied(std::size_t idx)
    {
        occupied[idx >> 6] |= 1ull << (idx & 63);
        summary |= 1ull << (idx >> 6);
    }

    void
    clearOccupied(std::size_t idx)
    {
        occupied[idx >> 6] &= ~(1ull << (idx & 63));
        if (occupied[idx >> 6] == 0)
            summary &= ~(1ull << (idx >> 6));
    }

    /**
     * Index of the first occupied bucket at or circularly after
     * @p from. Precondition: the wheel holds at least one event.
     */
    std::size_t
    findOccupied(std::size_t from) const
    {
        const std::size_t word = from >> 6;
        const std::size_t bit = from & 63;
        if (const std::uint64_t w = occupied[word] >> bit)
            return from + countTrailingZeros(w);
        // Scan the remaining words in circular order via the summary:
        // after rotation, summary bit k is word (word + 1 + k) & 63,
        // with bit 63 the wrapped low bits of `word` itself.
        const std::uint64_t s = rotateRight(summary, (word + 1) & 63);
        c3d_assert(s != 0, "findOccupied on an empty wheel");
        const std::size_t w2 =
            (word + 1 + countTrailingZeros(s)) & 63;
        return (w2 << 6) + countTrailingZeros(occupied[w2]);
    }

    /**
     * Locate the earliest pending event: its tick and the bucket it
     * lives in (or will live in, for an overflow-resident event).
     * @return false when no events are pending.
     */
    bool
    peekNext(std::size_t &idx, Tick &t) const
    {
        if (wheelCount != 0) {
            idx = findOccupied(wheelBase & WheelMask);
            t = buckets[idx].tick;
            return true;
        }
        if (!overflow.empty()) {
            t = overflow.front().when;
            idx = t & WheelMask;
            return true;
        }
        return false;
    }

    /**
     * Bucket for tick @p when (inside the horizon), claimed for that
     * tick if currently empty. The assert enforces the injectivity
     * invariant: two live ticks can never share a bucket.
     */
    Bucket &
    claimBucket(Tick when)
    {
        Bucket &b = buckets[when & WheelMask];
        if (b.head == b.events.size()) {
            // First event for this tick: claim the bucket.
            b.events.clear();
            b.head = 0;
            b.tick = when;
            setOccupied(when & WheelMask);
        }
        c3d_assert(b.tick == when, "wheel bucket tick collision");
        return b;
    }

    /**
     * Advance the wheel base to @p t and pull every overflow event
     * now inside the horizon into its bucket. Heap pops come out in
     * (when, sequence) order, so same-tick migrants land in sequence
     * order -- and no event for a tick can be scheduled directly into
     * the wheel before that tick's migrants arrive, because migration
     * happens at the instant the base (and thus the horizon) moves.
     */
    void
    advanceTo(Tick t)
    {
        wheelBase = t;
        while (!overflow.empty() &&
               overflow.front().when - wheelBase < WheelSpan) {
            std::pop_heap(overflow.begin(), overflow.end(), FarLater{});
            FarEvent fe = std::move(overflow.back());
            overflow.pop_back();
            claimBucket(fe.when).events.push_back(std::move(fe.cb));
            ++wheelCount;
        }
    }

    /** Pop and run the earliest event, as located by peekNext(). */
    void
    executeAt(std::size_t idx, Tick t)
    {
        currentTick = t;
        advanceTo(t); // fills bucket idx when t came from the heap
        Bucket &b = buckets[idx];

        // Move the callback out -- and finish all bookkeeping --
        // before invoking it, so the callback may freely schedule
        // further events (including into this same bucket).
        Callback cb = std::move(b.events[b.head]);
        ++b.head;
        --wheelCount;
        ++executed;
        if (b.head == b.events.size()) {
            b.events.clear(); // keeps capacity for the next tenant
            b.head = 0;
            clearOccupied(idx);
        }
        if (wd)
            watchdogCheck(t);
        cb();
    }

    /**
     * Armed-watchdog bookkeeping, run before each event's callback.
     * The stall counter is per queue and exact (deterministic trip
     * point under the sequential kernel); the machine-wide event and
     * wall-clock budgets are folded in every BulkPeriod events.
     */
    void
    watchdogCheck(Tick t)
    {
        const WatchdogLimits &l = wd->budgets();
        if (l.stallEvents) {
            if (t != wdLastTick) {
                wdLastTick = t;
                wdSameTickRun = 0;
            }
            if (++wdSameTickRun > l.stallEvents) {
                c3d_panic("watchdog: no progress -- %" PRIu64
                          " events executed at tick %" PRIu64
                          " without the clock advancing (livelock); "
                          "%s",
                          wdSameTickRun - 1,
                          static_cast<std::uint64_t>(t),
                          pendingSummary().c_str());
            }
        }
        if (++wdSinceBulk >= WatchdogState::BulkPeriod) {
            const std::uint64_t n = wdSinceBulk;
            wdSinceBulk = 0;
            if (wd->totalExceeded(n)) {
                c3d_panic("watchdog: executed-event budget (%" PRIu64
                          ") exceeded at tick %" PRIu64 "; %s",
                          l.maxEvents,
                          static_cast<std::uint64_t>(t),
                          pendingSummary().c_str());
            }
            if (wd->wallExpired()) {
                c3d_panic("watchdog: wall-clock budget (%" PRIu64
                          " ms) exceeded at tick %" PRIu64 "; %s",
                          l.wallMs, static_cast<std::uint64_t>(t),
                          pendingSummary().c_str());
            }
        }
    }

    std::vector<Bucket> buckets;
    /** Two-level occupancy bitmap over the buckets. */
    std::array<std::uint64_t, WheelBuckets / 64> occupied{};
    std::uint64_t summary = 0;
    /** Lowest tick the wheel can hold; == tick of the last event run. */
    Tick wheelBase = 0;
    std::size_t wheelCount = 0;

    /** Events at >= wheelBase + WheelSpan, a (when, sequence) heap. */
    std::vector<FarEvent> overflow;
    std::uint64_t nextFarSequence = 0;

    Tick currentTick = 0;
    std::uint64_t executed = 0;
    std::uint64_t heapEvents = 0;

    /** Progress watchdog (sim/watchdog.hh); null = disarmed. */
    WatchdogState *wd = nullptr;
    Tick wdLastTick = 0;           //!< tick of the last checked event
    std::uint64_t wdSameTickRun = 0; //!< events run at wdLastTick
    std::uint64_t wdSinceBulk = 0; //!< events since the last bulk fold
};

} // namespace c3d

#endif // C3DSIM_SIM_EVENT_QUEUE_HH
