/**
 * @file
 * Inter-socket interconnect: 2-socket point-to-point or 4..N-socket
 * bidirectional ring (Table II).
 *
 * A message from socket A to socket B traverses hop-by-hop links along
 * the shortest ring direction; each hop adds a fixed latency (20 ns
 * default) and serializes the packet through that hop's link channel
 * (25.6 GB/s). Control packets are 16 B, data packets 80 B.
 */

#ifndef C3DSIM_INTERCONNECT_INTERCONNECT_HH
#define C3DSIM_INTERCONNECT_INTERCONNECT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "interconnect/channel.hh"
#include "sim/event_queue.hh"
#include "sim/fault_injector.hh"
#include "sim/queue_router.hh"

namespace c3d
{

/** Packet class for traffic accounting. */
enum class PacketKind : std::uint8_t
{
    Control, //!< requests, acks, invalidations (16 B)
    Data,    //!< cache-line-carrying responses (80 B)
};

/**
 * The socket-to-socket network.
 *
 * Concurrency contract (parallel kernel): send()/forwardHop() must be
 * called from the thread executing the source socket `at`. Each
 * directed link's Channel is only ever acquired by events executing
 * at its source endpoint, so channel state needs no locking; the
 * traffic counters are relaxed atomics. Cross-socket delivery goes
 * through QueueRouter::inject — the only cross-queue edge — and every
 * injected arrival lands at least one hop latency in the future,
 * which is exactly the lookahead window the cell executor
 * synchronizes on.
 */
class Interconnect
{
  public:
    /**
     * @param router per-socket event-queue router
     * @param cfg    machine configuration (topology, latencies)
     * @param stats  stat registry
     */
    Interconnect(QueueRouter &router, const SystemConfig &cfg,
                 StatGroup *stats);

    /**
     * Send a packet from @p src to @p dst, invoking @p onArrival when
     * it is delivered. @p src may equal @p dst, in which case the
     * delivery is a zero-delay event on src's own queue — never an
     * inline call, so callers can't reenter themselves through a
     * same-socket response. The callable is built once, into the
     * arrival event's node, and runs there.
     */
    template <typename F>
    void
    send(SocketId src, SocketId dst, PacketKind kind, F &&onArrival)
    {
        if (src == dst) {
            // Same-socket "delivery": no network involved, but still
            // an event on src's own queue — never an inline call on
            // the caller's stack (reentrancy hazard, and an ordering
            // bug under per-socket queues). Pinned by
            // test_interconnect.
            router.at(src).schedule(0, std::forward<F>(onArrival));
            return;
        }
        std::uint32_t bytes = 0;
        if (!admit(src, dst, kind, bytes))
            return;
        // Walk the path hop by hop. Each link is acquired when the
        // packet actually reaches that hop (store-and-forward), so a
        // link's occupancy reflects real arrival order rather than
        // far-future reservations.
        forwardHop(src, dst, bytes,
                   EventQueue::makeEvent(std::forward<F>(onArrival)));
    }

    /**
     * Attach the machine's fault injector (testing only; see
     * sim/fault_injector.hh). Armed faults trigger on inter-socket
     * sends -- the chokepoint every design's coherence traffic
     * crosses -- so each failure class fires deterministically on a
     * 1-worker run.
     */
    void setFaultInjector(FaultInjector *f) { fault = f; }

    /** Number of ring/P2P hops between two sockets. */
    std::uint32_t hopCount(SocketId src, SocketId dst) const;

    /** One-way latency between two sockets excluding bandwidth. */
    Tick baseLatency(SocketId src, SocketId dst) const;

    /** Total bytes injected into the network (counted once/packet). */
    std::uint64_t totalBytes() const;

    /** Hop-weighted bytes: each link traversal charges the packet. */
    std::uint64_t linkTraversalBytes() const { return linkBytes.value(); }

    std::uint64_t controlBytes() const { return ctrlBytes.value(); }
    std::uint64_t dataBytes() const { return dataBytesStat.value(); }
    std::uint64_t packetsSent() const { return packets.value(); }

    /** Next socket along the shortest path from @p from to @p dst
     * (from != dst); a ring tie takes the clockwise step. */
    SocketId nextOnPath(SocketId from, SocketId dst) const;

  private:
    /** Index of the directed link from @p from toward @p to (1 hop). */
    std::uint32_t linkIndex(SocketId from, SocketId to) const;

    /**
     * Fault-injection gate and traffic accounting for an inter-socket
     * packet. @return false when an injected fault swallowed it;
     * otherwise @p bytes is its size on the wire.
     */
    bool admit(SocketId src, SocketId dst, PacketKind kind,
               std::uint32_t &bytes);

    /** Store-and-forward a packet one hop; recurses until it
     * delivers the already-built arrival node. */
    void forwardHop(SocketId at, SocketId dst, std::uint32_t bytes,
                    EventQueue::EventPtr onArrival);

    QueueRouter &router;
    FaultInjector *fault = nullptr; //!< armed only in testing runs
    const std::uint32_t numSockets;
    const Tick hopLatency;
    const std::uint32_t controlBytesPerPkt;
    const std::uint32_t dataBytesPerPkt;

    /** Directed links: for each socket, cw and ccw (ring), or the
     * single peer link (P2P). links[from * numSockets + to] for
     * adjacent pairs. */
    std::vector<Channel> links;

    /** nextHop[linkIndex(from, dst)]: nextOnPath's answer, built once
     * so a hop costs no division. */
    std::vector<SocketId> nextHop;

    Counter packets;
    Counter ctrlBytes;
    Counter dataBytesStat;
    Counter hopTraversals;
    Counter linkBytes;
};

} // namespace c3d

#endif // C3DSIM_INTERCONNECT_INTERCONNECT_HH
