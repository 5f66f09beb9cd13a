#include "interconnect/interconnect.hh"

namespace c3d
{

namespace
{

/**
 * Injected livelock: a zero-delay event that reschedules itself, so
 * the queue executes forever at one tick. The watchdog's no-progress
 * detector is what stops it (sim/watchdog.hh); without a watchdog
 * the run would spin, which is exactly the failure being modeled.
 */
void
stallSpin(EventQueue &q)
{
    q.schedule(0, [&q] { stallSpin(q); });
}

} // namespace

Interconnect::Interconnect(QueueRouter &rt, const SystemConfig &cfg,
                           StatGroup *stats)
    : router(rt),
      numSockets(cfg.numSockets),
      hopLatency(cfg.zeroHopLatency ? 0 : cfg.hopLatency),
      controlBytesPerPkt(cfg.controlPacketBytes),
      dataBytesPerPkt(cfg.dataPacketBytes)
{
    c3d_assert(numSockets >= 1, "need at least one socket");

    const Bandwidth bw = cfg.infiniteLinkBandwidth
        ? Bandwidth()
        : Bandwidth::fromGBps(cfg.linkGBps);

    // Next hop of every (from, dst) pair: P2P goes straight to dst;
    // the ring steps toward the shorter arc, clockwise on a tie.
    nextHop.resize(static_cast<std::size_t>(numSockets) * numSockets);
    for (SocketId s = 0; s < numSockets; ++s) {
        for (SocketId d = 0; d < numSockets; ++d) {
            SocketId next = d;
            if (numSockets > 2 && s != d) {
                const std::uint32_t cw = (d + numSockets - s) % numSockets;
                const std::uint32_t ccw = (s + numSockets - d) % numSockets;
                next = cw <= ccw ? (s + 1) % numSockets
                                 : (s + numSockets - 1) % numSockets;
            }
            nextHop[linkIndex(s, d)] = next;
        }
    }

    links.resize(static_cast<std::size_t>(numSockets) * numSockets);
    for (SocketId s = 0; s < numSockets; ++s) {
        for (SocketId d = 0; d < numSockets; ++d) {
            if (s == d)
                continue;
            // Only adjacent pairs carry traffic; initialize all for
            // simplicity (non-adjacent ones stay unused).
            links[linkIndex(s, d)].init(
                bw, nullptr,
                "link" + std::to_string(s) + "to" + std::to_string(d));
        }
    }

    packets.init(stats, "noc.packets", "inter-socket packets sent");
    ctrlBytes.init(stats, "noc.control_bytes",
                   "inter-socket control bytes");
    dataBytesStat.init(stats, "noc.data_bytes",
                       "inter-socket data bytes");
    hopTraversals.init(stats, "noc.hop_traversals",
                       "total link traversals");
    linkBytes.init(stats, "noc.link_bytes",
                   "hop-weighted inter-socket bytes");
}

std::uint32_t
Interconnect::linkIndex(SocketId from, SocketId to) const
{
    return from * numSockets + to;
}

SocketId
Interconnect::nextOnPath(SocketId from, SocketId dst) const
{
    c3d_assert(from != dst, "no path needed");
    return nextHop[linkIndex(from, dst)];
}

std::uint32_t
Interconnect::hopCount(SocketId src, SocketId dst) const
{
    if (src == dst)
        return 0;
    if (numSockets <= 2)
        return 1;
    const std::uint32_t cw = (dst + numSockets - src) % numSockets;
    const std::uint32_t ccw = (src + numSockets - dst) % numSockets;
    return cw < ccw ? cw : ccw;
}

Tick
Interconnect::baseLatency(SocketId src, SocketId dst) const
{
    return static_cast<Tick>(hopCount(src, dst)) * hopLatency;
}

bool
Interconnect::admit(SocketId src, SocketId dst, PacketKind kind,
                    std::uint32_t &bytes)
{
    if (fault && fault->armed()) {
        const Tick now = router.at(src).now();
        if (fault->shouldPanic(now)) {
            // The diagnostic names the *configured* tick so the
            // message is stable across reruns even if traffic
            // density shifts the firing send by a few ticks.
            c3d_panic("injected fault: panic@%llu (inter-socket "
                      "send %u->%u at tick %llu)",
                      static_cast<unsigned long long>(
                          fault->armedPlan().at),
                      src, dst,
                      static_cast<unsigned long long>(now));
        }
        if (fault->takeHang(now)) {
            // Swallow the packet: its arrival continuation never
            // runs and the transaction never completes. The kernel's
            // drain checks (Runner/CellExecutor) report the hang.
            return false;
        }
        if (fault->takeStall()) {
            stallSpin(router.at(src));
            return false;
        }
        if (fault->takeBlock(now)) {
            // Hard stall inside the *current* event: the executing
            // kernel thread parks here until released. The in-band
            // watchdog never sees it (its checks run between
            // events); only the sibling wall-clock watchdog can
            // contain the row.
            faultBlockWait();
            return false; // once released, the packet is dropped (as Hang)
        }
    }

    bytes = kind == PacketKind::Data ? dataBytesPerPkt : controlBytesPerPkt;
    ++packets;
    if (kind == PacketKind::Data)
        dataBytesStat += bytes;
    else
        ctrlBytes += bytes;
    return true;
}

void
Interconnect::forwardHop(SocketId at, SocketId dst, std::uint32_t bytes,
                         EventQueue::EventPtr onArrival)
{
    c3d_assert(at != dst, "forwardHop with no hop to take");
    const SocketId next = nextOnPath(at, dst);
    Channel &link = links[linkIndex(at, next)];
    const Tick done =
        link.acquire(router.at(at).now(), bytes) + hopLatency;
    ++hopTraversals;
    linkBytes += bytes;
    if (next == dst) {
        // Final hop: deliver the arrival node send() built.
        onArrival->when = done;
        router.inject(at, dst, std::move(onArrival));
        return;
    }
    // Intermediate hop: the hop event owns the arrival node. The node
    // may be freed by a different kernel thread than the one that
    // built it (the packet moved sockets), or unrun by the queue's
    // teardown if the row dies with the packet in flight.
    router.inject(at, next, done,
                  [this, next, dst, bytes,
                   arrival = std::move(onArrival)]() mutable {
                      forwardHop(next, dst, bytes, std::move(arrival));
                  });
}

std::uint64_t
Interconnect::totalBytes() const
{
    return ctrlBytes.value() + dataBytesStat.value();
}

} // namespace c3d
