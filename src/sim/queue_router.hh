/**
 * @file
 * Routing layer between the interconnect and the kernel's event
 * queue(s).
 *
 * A SingleQueue machine runs on one EventQueue; a MultiQueue machine
 * gives each socket its own queue, which the cell executor advances
 * on a thread pool under conservative lookahead (see docs/perf.md,
 * "Parallel per-socket kernel"). The QueueRouter hides that choice
 * from the interconnect: `at(s)` is the queue events for socket @p s
 * execute on, and `inject(src, dst, when, f)` is the one cross-socket
 * edge.
 *
 * In multi-queue mode an injection is NOT scheduled directly into the
 * destination queue (which another thread may be executing). Its event
 * node is built by the sending thread and appended to a per-(src, dst)
 * outbox list owned by that thread; at the next synchronization
 * barrier the thread that owns the destination splices the nodes into
 * its queue (EventQueue::insert), so a callable is built once and
 * never moved on its way across sockets. Outboxes are double-buffered
 * by cell parity: while cell k+1 executes into parity (k+1)&1, the
 * flush of parity k&1 may still be in progress on a slower worker —
 * the two parities are disjoint lists, and the barrier between cells
 * orders every append in parity p before any flush of parity p.
 * Nodes still staged when the router is re-initialized or destroyed
 * are freed unrun.
 *
 * Each source also keeps the earliest `when` it staged in each parity,
 * on a host line of its own (the source's thread writes it in every
 * inject). The cell executor's barrier master reads those n minima to
 * find the next cell, instead of walking every staged node; a parity's
 * minima are cleared when flipParity() reopens it for writing.
 *
 * Determinism: flushTo() drains sources in ascending socket order and
 * preserves per-(src, dst) push order, so the destination queue sees
 * cross-socket arrivals in a canonical (source socket, send order)
 * sequence regardless of worker count or thread timing. Combined with
 * the conservative lookahead (every injected `when` lies beyond the
 * current cell), the executed event order is identical for 1 worker
 * and N workers.
 */

#ifndef C3DSIM_SIM_QUEUE_ROUTER_HH
#define C3DSIM_SIM_QUEUE_ROUTER_HH

#include <algorithm>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"
#include "sim/slab.hh"

namespace c3d
{

/** Dispatches per-socket event traffic to the kernel's queue(s). */
class QueueRouter
{
  public:
    QueueRouter() = default;
    QueueRouter(const QueueRouter &) = delete;
    QueueRouter &operator=(const QueueRouter &) = delete;
    ~QueueRouter() { dropStaged(); }

    /** Single queue: every socket maps to it, nothing is staged. */
    void
    initSingle(EventQueue &q, std::uint32_t num_sockets)
    {
        dropStaged();
        isMulti = false;
        queues.assign(num_sockets, &q);
        lanes.clear();
    }

    /** One queue per socket, outboxes armed. */
    void
    initMulti(const std::vector<EventQueue *> &qs)
    {
        dropStaged();
        isMulti = true;
        queues = qs;
        const std::size_t n = queues.size();
        outboxes[0].resize(n * n);
        outboxes[1].resize(n * n);
        lanes.assign(n, SourceLane{});
    }

    bool multiQueue() const { return isMulti; }
    std::uint32_t
    numSockets() const
    {
        return static_cast<std::uint32_t>(queues.size());
    }

    /** The queue socket @p s executes on. */
    EventQueue &at(SocketId s) { return *queues[s]; }
    const EventQueue &at(SocketId s) const { return *queues[s]; }

    /**
     * Deliver @p f to socket @p dst at absolute tick @p when. Must
     * be called from the thread executing socket @p src (a single
     * queue trivially satisfies this). In multi-queue
     * mode @p when must lie beyond the current lookahead cell; the
     * cell executor asserts this when it flushes.
     */
    template <typename F>
    void
    inject(SocketId src, SocketId dst, Tick when, F &&f)
    {
        EventQueue::EventPtr e = EventQueue::makeEvent(std::forward<F>(f));
        e->when = when;
        inject(src, dst, std::move(e));
    }

    /** Deliver a node built with EventQueue::makeEvent, its @c when
     * set; same contract as the callable form. */
    void
    inject(SocketId src, SocketId dst, EventQueue::EventPtr e)
    {
        if (!isMulti)
            queues[dst]->insert(e.release());
        else
            stage(src, dst, e.release());
    }

    // ---- cell-executor interface (multi-queue mode only) ---------------
    // flipParity() runs on the barrier master between cells; the
    // barrier's release ordering publishes it to every worker.

    unsigned currentParity() const { return writeParity; }

    /**
     * Seal the write parity and reopen the other one, whose lists
     * every owner flushed before arriving at this barrier: its staged
     * minima restart at MaxTick.
     */
    void
    flipParity()
    {
        writeParity ^= 1u;
        for (SourceLane &lane : lanes)
            lane.minWhen[writeParity] = MaxTick;
    }

    /**
     * Splice every node staged for @p dst in parity @p parity into
     * dst's queue, sources in ascending order and each source's nodes
     * in push order. Runs on the thread that owns @p dst, after the
     * barrier that sealed @p parity.
     */
    void
    flushTo(SocketId dst, unsigned parity)
    {
        const std::size_t n = queues.size();
        EventQueue &q = *queues[dst];
        for (std::size_t src = 0; src < n; ++src) {
            Outbox &box = outboxes[parity][src * n + dst];
            // Unlink before inserting: a throwing insert leaves the
            // rest of the list staged, to be freed with the router.
            while (EventQueue::Event *e = box.head) {
                box.head = e->next;
                q.insert(e);
            }
            box.tail = nullptr;
        }
    }

    /**
     * Earliest delivery staged in @p parity since flipParity() last
     * opened it; MaxTick when none was. Reads one minimum per source,
     * not the lists. Flushing a parity leaves its minima in place
     * until the flip that reopens it.
     */
    Tick
    minPending(unsigned parity) const
    {
        Tick lo = MaxTick;
        for (const SourceLane &lane : lanes)
            lo = std::min(lo, lane.minWhen[parity]);
        return lo;
    }

  private:
    /** One (src, dst) pair's staged nodes, FIFO. */
    struct Outbox
    {
        EventQueue::Event *head = nullptr;
        EventQueue::Event *tail = nullptr;
    };

    /** One source's earliest staged `when` per parity, written only
     * by the source's thread; a line of its own. */
    struct alignas(HostLineBytes) SourceLane
    {
        Tick minWhen[2] = {MaxTick, MaxTick};
    };

    /** Append @p e (owned by the outbox from here on). */
    void
    stage(SocketId src, SocketId dst, EventQueue::Event *e)
    {
        Outbox &box = outboxes[writeParity][src * queues.size() + dst];
        Tick &lo = lanes[src].minWhen[writeParity];
        lo = std::min(lo, e->when);
        e->next = nullptr;
        if (box.tail)
            box.tail->next = e;
        else
            box.head = e;
        box.tail = e;
    }

    /** Free every staged node, unrun, and empty the outboxes. */
    void
    dropStaged()
    {
        for (auto &parity : outboxes) {
            for (Outbox &box : parity) {
                for (EventQueue::Event *e = box.head; e;)
                    slab::Delete{}(std::exchange(e, e->next));
                box = Outbox{};
            }
        }
    }

    std::vector<EventQueue *> queues;
    bool isMulti = false;
    unsigned writeParity = 0;
    /** outboxes[parity][src * numSockets + dst], staged deliveries. */
    std::vector<Outbox> outboxes[2];
    /** lanes[src]: the staged minima of source @c src. */
    std::vector<SourceLane> lanes;
};

} // namespace c3d

#endif // C3DSIM_SIM_QUEUE_ROUTER_HH
