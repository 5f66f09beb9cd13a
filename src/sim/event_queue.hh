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
 *  - Each event is one intrusive node (Event, 96 bytes in the slab's
 *    128-byte class) whose Callback is constructed inside the node at
 *    schedule time and invoked where it lies: nothing between
 *    schedule and run moves the callable. Callbacks are
 *    InlineFunction<void()>, so the capture itself (64-byte budget)
 *    lives in the node too and the schedule path makes no heap
 *    allocation once the slab is warm.
 *
 *  - The queue is a hierarchical timing wheel: a ring of WheelBuckets
 *    one-tick buckets covers the near future [base, base + span), and
 *    a binary min-heap of node pointers absorbs events scheduled
 *    further out. Almost all simulator latencies (cache, directory,
 *    memory, hop) are far smaller than the span, so the common case
 *    is an O(1) append to a bucket's node list plus a two-level
 *    bitmap scan to find the next event -- no comparator-driven sift
 *    per event.
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
 *
 * Ownership: a queued node belongs to its queue. The queue frees it
 * after its callback returns (or unwinds), and frees every pending
 * node on reset() and on destruction. A node built with makeEvent()
 * and not yet inserted belongs to its EventPtr.
 */

#ifndef C3DSIM_SIM_EVENT_QUEUE_HH
#define C3DSIM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/sim_error.hh"
#include "common/types.hh"
#include "sim/inline_function.hh"
#include "sim/slab.hh"
#include "sim/watchdog.hh"

namespace c3d
{

/** The event-driven simulation core. */
class EventQueue
{
  public:
    using Callback = InlineFunction<void()>;

    /**
     * One scheduled event. The callable is constructed in @c cb when
     * the node is built and runs there; @c next links the node into
     * a wheel bucket or a QueueRouter outbox.
     */
    struct Event
    {
        template <typename F>
        explicit Event(F &&f) : cb(std::forward<F>(f))
        {
        }

        Event(const Event &) = delete;
        Event &operator=(const Event &) = delete;

        Event *next = nullptr;
        Tick when = 0;
        std::uint64_t sequence = 0; //!< overflow-heap tie-break
        Callback cb;
    };

    /** Sole owner of an event node outside any queue or outbox. */
    using EventPtr = slab::Unique<Event>;

    /** Build a node around @p f; the caller sets @c when. */
    template <typename F>
    static EventPtr
    makeEvent(F &&f)
    {
        return slab::makeUnique<Event>(std::forward<F>(f));
    }

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
    ~EventQueue() { dropPending(); }

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

    /** Schedule @p f to run @p delay ticks from now. */
    template <typename F>
    void
    schedule(Tick delay, F &&f)
    {
        scheduleAt(currentTick + delay, std::forward<F>(f));
    }

    /** Schedule @p f at absolute tick @p when (>= now). */
    template <typename F>
    void
    scheduleAt(Tick when, F &&f)
    {
        EventPtr e = makeEvent(std::forward<F>(f));
        e->when = when;
        insert(e.release());
    }

    /**
     * Queue node @p e (from makeEvent, or spliced from a QueueRouter
     * outbox) at its @c when (>= now). The queue takes ownership,
     * also when the assertion throws.
     */
    void
    insert(Event *e)
    {
        EventPtr owner(e);
        c3d_assert(e->when >= currentTick,
                   "event scheduled in the past");
        link(owner.release());
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
            for (const Event *e = buckets[idx].head; e; e = e->next)
                ++head;
        } else {
            for (const Event *e : overflow)
                head += e->when == t;
        }
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "%zu events pending, next at tick %" PRIu64
                      " (%zu at that tick)",
                      pending(), static_cast<std::uint64_t>(t), head);
        return buf;
    }

    /**
     * Drop (free, unrun) all pending events and rewind time to zero.
     * O(buckets + pending).
     */
    void
    reset()
    {
        dropPending();
        currentTick = 0;
        wheelBase = 0;
        nextFarSequence = 0;
        executed = 0;
        heapEvents = 0;
        wdLastTick = 0;
        wdSameTickRun = 0;
        wdSinceBulk = 0;
    }

  private:
    /**
     * One tick's events, a FIFO list of nodes. Only one tick can map
     * to a bucket at a time: live ticks all lie in [wheelBase,
     * wheelBase + span), which maps injectively onto the ring.
     */
    struct Bucket
    {
        Event *head = nullptr; //!< next event to execute
        Event *tail = nullptr;
    };

    /** Min-heap comparator over (when, sequence). */
    struct FarLater
    {
        bool
        operator()(const Event *a, const Event *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            return a->sequence > b->sequence;
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
            t = buckets[idx].head->when;
            return true;
        }
        if (!overflow.empty()) {
            t = overflow.front()->when;
            idx = t & WheelMask;
            return true;
        }
        return false;
    }

    /** File @p e (owned by the queue from here on) by its tick. */
    void
    link(Event *e)
    {
        if (e->cb.onHeap())
            ++heapEvents;
        // wheelBase <= currentTick <= when always holds, so the
        // subtraction cannot wrap.
        if (e->when - wheelBase < WheelSpan) {
            append(e);
        } else {
            e->sequence = nextFarSequence++;
            overflow.push_back(e);
            std::push_heap(overflow.begin(), overflow.end(), FarLater{});
        }
    }

    /**
     * Append @p e (inside the horizon) to its bucket, claiming the
     * bucket for its tick if empty. The assert enforces the
     * injectivity invariant: two live ticks can never share a
     * bucket.
     */
    void
    append(Event *e)
    {
        const std::size_t idx = e->when & WheelMask;
        Bucket &b = buckets[idx];
        e->next = nullptr;
        if (!b.head) {
            b.head = e;
            setOccupied(idx);
        } else {
            c3d_assert(b.tail->when == e->when,
                       "wheel bucket tick collision");
            b.tail->next = e;
        }
        b.tail = e;
        ++wheelCount;
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
               overflow.front()->when - wheelBase < WheelSpan) {
            std::pop_heap(overflow.begin(), overflow.end(), FarLater{});
            Event *e = overflow.back();
            overflow.pop_back();
            append(e);
        }
    }

    /** Pop and run the earliest event, as located by peekNext(). */
    void
    executeAt(std::size_t idx, Tick t)
    {
        currentTick = t;
        advanceTo(t); // fills bucket idx when t came from the heap
        Bucket &b = buckets[idx];

        // Unlink the node -- and finish all bookkeeping -- before
        // invoking it, so the callback may freely schedule further
        // events (including into this same bucket). The owner frees
        // the node after the call, also when it (or the watchdog)
        // throws.
        const EventPtr e(b.head);
        b.head = e->next;
        if (!b.head) {
            b.tail = nullptr;
            clearOccupied(idx);
        }
        --wheelCount;
        ++executed;
        if (wd)
            watchdogCheck(t);
        e->cb();
    }

    /** Free every pending node, unrun, and empty the wheel. */
    void
    dropPending()
    {
        for (Bucket &b : buckets) {
            for (Event *e = b.head; e;)
                slab::Delete{}(std::exchange(e, e->next));
            b = Bucket{};
        }
        occupied.fill(0);
        summary = 0;
        wheelCount = 0;
        for (Event *e : overflow)
            slab::Delete{}(e);
        overflow.clear();
    }

    /**
     * Armed-watchdog bookkeeping, run before each event's callback.
     * The stall counter is per queue and exact (deterministic trip
     * point on a 1-worker run); the machine-wide event budget and
     * the sibling watchdog's wall-clock expiry flag are checked
     * every BulkPeriod events.
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
            if (wd->wallExpiryRaised()) {
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
    std::vector<Event *> overflow;
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

static_assert(sizeof(EventQueue::Event) <= 128,
              "an event node must stay in the slab's 128-byte class");

} // namespace c3d

#endif // C3DSIM_SIM_EVENT_QUEUE_HH
