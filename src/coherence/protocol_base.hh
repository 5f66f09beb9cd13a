/**
 * @file
 * Shared machinery for the global-protocol implementations: packet
 * helpers, per-home blocking tables, invalidation fan-out/fan-in, and
 * the common stat set.
 */

#ifndef C3DSIM_COHERENCE_PROTOCOL_BASE_HH
#define C3DSIM_COHERENCE_PROTOCOL_BASE_HH

#include <vector>

#include "coherence/blocking.hh"
#include "coherence/directory.hh"
#include "coherence/protocol.hh"
#include "common/stats.hh"
#include "sim/inline_function.hh"
#include "sim/machine.hh"
#include "sim/slab.hh"

namespace c3d
{

/** Common protocol plumbing. */
class ProtocolBase : public GlobalProtocol
{
  public:
    ProtocolBase(Machine &machine, StatGroup *stats)
        : m(machine)
    {
        homeLocks.resize(m.numSockets());
        for (SocketId s = 0; s < m.numSockets(); ++s) {
            homeLocks[s].init(stats,
                              "proto.home" + std::to_string(s));
        }
        fwdRequests.init(stats, "proto.forwards",
                         "requests forwarded to an owner socket");
        fwdRaces.init(stats, "proto.forward_races",
                      "forwards that found no copy (writeback race)");
        invsSent.init(stats, "proto.invalidations",
                      "invalidation probes sent");
        broadcasts.init(stats, "proto.broadcasts",
                        "write misses that broadcast invalidations");
        broadcastsElided.init(stats, "proto.broadcasts_elided",
                              "broadcasts skipped via private pages");
        recallInvs.init(stats, "proto.recall_invalidations",
                        "sharers invalidated by directory recalls");
        dirtyFwds.init(stats, "proto.dirty_forwards",
                       "dirty blocks supplied by a remote socket");
        invPhaseTime.init(stats, "proto.inv_phase_time",
                          "invalidation fan-out ticks (send to all-"
                          "acked)");
        lockWaitTime.init(stats, "proto.lock_wait_time",
                          "ticks a request waited for the block lock");
    }

  protected:
    /**
     * The queue socket @p s executes on. Protocol handlers are
     * home-pinned under the parallel kernel: every piece of home
     * state (directory slice, block locks, home memory) is only
     * touched by events on the home's queue, so scheduling must
     * always name the socket whose state the continuation reads.
     */
    EventQueue &queueAt(SocketId s) { return m.queueAt(s); }
    const SystemConfig &cfg() const { return m.config(); }

    /**
     * Packet helpers. @p cb runs at @p dst as the arrival event —
     * it must only touch dst-side state. Forwarding templates so the
     * callable lands directly in the event's inline storage.
     */
    template <typename F>
    void
    sendCtrl(SocketId src, SocketId dst, F &&cb)
    {
        m.interconnect().send(src, dst, PacketKind::Control,
                              std::forward<F>(cb));
    }

    template <typename F>
    void
    sendData(SocketId src, SocketId dst, F &&cb)
    {
        m.interconnect().send(src, dst, PacketKind::Data,
                              std::forward<F>(cb));
    }

    /**
     * Completion of invalidateSockets(). It lives in the fan-in's
     * slab node, never in an event capture, so its budget holds a
     * caller's whole transaction state (`this`, requester, home,
     * block, a flag and the caller's 32-byte continuation).
     */
    using InvalidationsDone = InlineFunction<void(bool), 64>;

    /**
     * Fan out invalidation probes to @p targets; @p done runs at the
     * home socket once every ack has returned, with whether any
     * probe found a dirty copy (at most one in a correct run).
     */
    void
    invalidateSockets(SocketId home, SocketMask targets, Addr addr,
                      InvalidationsDone done)
    {
        if (!targets) {
            // No probe: complete next, through a fan-in node, since
            // the completion outgrows an event's capture budget.
            auto state = slab::Shared<FanIn>::make(
                0u, false, queueAt(home).now(), std::move(done));
            queueAt(home).schedule(0, [state = std::move(state)] {
                state->done(false);
            });
            return;
        }
        auto state = slab::Shared<FanIn>::make(
            static_cast<std::uint32_t>(__builtin_popcountll(targets)),
            false, queueAt(home).now(), std::move(done));
        forEachSocket(targets, [&](SocketId t) {
            ++invsSent;
            // The probe reads t's DRAM-cache slot word one hop later.
            if (const DramCache *dc = m.socket(t).dramCache())
                dc->prefetch(addr);
            sendCtrl(home, t, [this, t, addr, home, state]() mutable {
                m.socket(t).probeInvalidate(addr,
                                            [this, t, home,
                                             state = std::move(state)]
                                            (bool dirty) mutable {
                    // Ack back to the home.
                    sendCtrl(t, home, [this, home,
                                       state = std::move(state),
                                       dirty] {
                        if (dirty)
                            state->sawDirty = true;
                        if (--state->remaining == 0) {
                            invPhaseTime.sample(queueAt(home).now() -
                                                state->phaseStart);
                            state->done(state->sawDirty);
                        }
                    });
                });
            });
        });
    }

    /** Call @p f for each socket in @p set, in ascending order. */
    template <typename F>
    static void
    forEachSocket(SocketMask set, F &&f)
    {
        for (; set; set &= set - 1)
            f(static_cast<SocketId>(__builtin_ctzll(set)));
    }

    /** All sockets except @p exclude. */
    SocketMask
    othersThan(SocketId exclude) const
    {
        const SocketMask all = m.numSockets() >= 64
            ? ~SocketMask{0}
            : (SocketMask{1} << m.numSockets()) - 1;
        return exclude < 64 ? all & ~(SocketMask{1} << exclude) : all;
    }

    /**
     * Resolve a directory recall: invalidate the victim entry's
     * holders and write dirty data back to memory. Runs under the
     * victim block's lock, off the requester's critical path.
     * @param reallocated queried under the lock; a truthy result
     *        means a new transaction already re-established an entry
     *        for the block, making the recall moot.
     */
    void
    resolveRecall(SocketId home, const DirRecall &recall,
                  Continuation<bool(Addr)> reallocated = {})
    {
        if (!recall.valid)
            return;
        const SocketMask targets =
            recall.entry.state == DirState::Modified
            ? SocketMask{1} << recall.entry.owner
            : recall.entry.sharers;
        recallInvs += __builtin_popcountll(targets);
        const Addr addr = recall.addr;
        // Serialize against any transaction in flight for the
        // recalled block (we hold a different block's lock, so this
        // deferred acquisition cannot deadlock).
        homeLocks[home].acquire(
            addr, [this, home, addr, targets,
                   reallocated = std::move(reallocated)] {
            if (reallocated && reallocated(addr)) {
                homeLocks[home].release(addr);
                return;
            }
            invalidateSockets(home, targets, addr,
                              [this, home, addr](bool dirty) {
                if (dirty) {
                    m.socket(home).memory().write(addr,
                                                  /*remote=*/false);
                }
                homeLocks[home].release(addr);
            });
        });
    }

    Machine &m;
    std::vector<BlockingTable> homeLocks;

    Counter fwdRequests;
    Counter fwdRaces;
    Counter invsSent;
    Counter broadcasts;
    Counter broadcastsElided;
    Counter recallInvs;
    Counter dirtyFwds;
    Histogram invPhaseTime;
    Histogram lockWaitTime;

  private:
    /** Ack fan-in of one invalidateSockets call. */
    struct FanIn
    {
        std::uint32_t remaining;
        bool sawDirty;
        Tick phaseStart;
        InvalidationsDone done;
    };
};

} // namespace c3d

#endif // C3DSIM_COHERENCE_PROTOCOL_BASE_HH
