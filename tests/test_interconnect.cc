/**
 * @file
 * Unit tests for channels and the ring/P2P interconnect.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "interconnect/channel.hh"
#include "interconnect/interconnect.hh"
#include "sim/event_queue.hh"
#include "sim/queue_router.hh"
#include "test_helpers.hh"

namespace c3d
{
namespace
{

TEST(Channel, SerializesBackToBackTransfers)
{
    StatGroup g("t");
    Channel ch;
    ch.init(Bandwidth::fromGBps(12.8), &g, "ch");
    const Tick t1 = ch.acquire(0, 64);
    const Tick t2 = ch.acquire(0, 64);
    EXPECT_GT(t1, 0u);
    EXPECT_EQ(t2, 2 * t1); // second waits for the first
    EXPECT_EQ(ch.bytes(), 128u);
}

TEST(Channel, IdleChannelStartsImmediately)
{
    StatGroup g("t");
    Channel ch;
    ch.init(Bandwidth::fromGBps(12.8), &g, "ch");
    ch.acquire(0, 64);
    const Tick later = 10000;
    const Tick done = ch.acquire(later, 64);
    // 64B at 12.8 GB/s is 15-16 ticks.
    EXPECT_LE(done - later, 16u);
}

TEST(Channel, InfiniteBandwidthNoOccupancy)
{
    StatGroup g("t");
    Channel ch;
    ch.init(Bandwidth(), &g, "ch");
    EXPECT_EQ(ch.acquire(5, 1 << 20), 5u);
    EXPECT_EQ(ch.acquire(5, 1 << 20), 5u);
}

class InterconnectTest : public ::testing::Test
{
  protected:
    SystemConfig
    config(std::uint32_t sockets)
    {
        SystemConfig cfg;
        cfg.numSockets = sockets;
        return cfg;
    }
};

TEST_F(InterconnectTest, RingHopCounts)
{
    EventQueue eq;
    StatGroup g("t");
    QueueRouter rt;
    rt.initSingle(eq, 4);
    Interconnect noc(rt, config(4), &g);
    EXPECT_EQ(noc.hopCount(0, 0), 0u);
    EXPECT_EQ(noc.hopCount(0, 1), 1u);
    EXPECT_EQ(noc.hopCount(0, 2), 2u); // opposite corner
    EXPECT_EQ(noc.hopCount(0, 3), 1u); // wrap-around
    EXPECT_EQ(noc.hopCount(1, 3), 2u);
    EXPECT_EQ(noc.hopCount(3, 0), 1u);
}

TEST_F(InterconnectTest, P2PSingleHop)
{
    EventQueue eq;
    StatGroup g("t");
    QueueRouter rt;
    rt.initSingle(eq, 2);
    Interconnect noc(rt, config(2), &g);
    EXPECT_EQ(noc.hopCount(0, 1), 1u);
    EXPECT_EQ(noc.hopCount(1, 0), 1u);
}

TEST_F(InterconnectTest, BaseLatencyIsHopTimesDelay)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = config(4);
    QueueRouter rt;
    rt.initSingle(eq, cfg.numSockets);
    Interconnect noc(rt, cfg, &g);
    EXPECT_EQ(noc.baseLatency(0, 1), cfg.hopLatency);
    EXPECT_EQ(noc.baseLatency(0, 2), 2 * cfg.hopLatency);
}

TEST_F(InterconnectTest, DeliveryTimeIncludesHopLatency)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = config(4);
    QueueRouter rt;
    rt.initSingle(eq, cfg.numSockets);
    Interconnect noc(rt, cfg, &g);
    Tick arrival = 0;
    noc.send(0, 2, PacketKind::Control,
             [&] { arrival = eq.now(); });
    eq.run();
    // Two hops: 2x hop latency plus two link serializations.
    EXPECT_GE(arrival, 2 * cfg.hopLatency);
    EXPECT_LE(arrival, 2 * cfg.hopLatency + 20);
}

TEST_F(InterconnectTest, LocalDeliveryIsFreeAndUncounted)
{
    EventQueue eq;
    StatGroup g("t");
    QueueRouter rt;
    rt.initSingle(eq, 4);
    Interconnect noc(rt, config(4), &g);
    bool delivered = false;
    noc.send(2, 2, PacketKind::Data, [&] { delivered = true; });
    eq.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(noc.totalBytes(), 0u);
    EXPECT_EQ(noc.packetsSent(), 0u);
}

TEST_F(InterconnectTest, PacketSizesCounted)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = config(2);
    QueueRouter rt;
    rt.initSingle(eq, cfg.numSockets);
    Interconnect noc(rt, cfg, &g);
    noc.send(0, 1, PacketKind::Control, [] {});
    noc.send(0, 1, PacketKind::Data, [] {});
    eq.run();
    EXPECT_EQ(noc.controlBytes(), cfg.controlPacketBytes);
    EXPECT_EQ(noc.dataBytes(), cfg.dataPacketBytes);
    EXPECT_EQ(noc.totalBytes(),
              cfg.controlPacketBytes + cfg.dataPacketBytes);
}

TEST_F(InterconnectTest, MultiHopChargesEveryLink)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = config(4);
    QueueRouter rt;
    rt.initSingle(eq, cfg.numSockets);
    Interconnect noc(rt, cfg, &g);
    noc.send(0, 2, PacketKind::Data, [] {});
    eq.run();
    // Hop-weighted bytes: 2 links x 80 B.
    EXPECT_EQ(noc.linkTraversalBytes(), 2u * cfg.dataPacketBytes);
    EXPECT_EQ(noc.dataBytes(), cfg.dataPacketBytes);
}

TEST_F(InterconnectTest, ZeroHopLatencyIdealization)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = config(2);
    cfg.zeroHopLatency = true;
    cfg.infiniteLinkBandwidth = true;
    QueueRouter rt;
    rt.initSingle(eq, cfg.numSockets);
    Interconnect noc(rt, cfg, &g);
    Tick arrival = MaxTick;
    noc.send(0, 1, PacketKind::Data, [&] { arrival = eq.now(); });
    eq.run();
    EXPECT_EQ(arrival, 0u);
}

TEST_F(InterconnectTest, LinkCongestionDelaysPackets)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = config(2);
    QueueRouter rt;
    rt.initSingle(eq, cfg.numSockets);
    Interconnect noc(rt, cfg, &g);
    std::vector<Tick> arrivals;
    for (int i = 0; i < 200; ++i) {
        noc.send(0, 1, PacketKind::Data,
                 [&] { arrivals.push_back(eq.now()); });
    }
    eq.run();
    ASSERT_EQ(arrivals.size(), 200u);
    // Later packets serialize behind earlier ones.
    EXPECT_GT(arrivals.back(), arrivals.front());
}

TEST_F(InterconnectTest, FifoPerLink)
{
    EventQueue eq;
    StatGroup g("t");
    QueueRouter rt;
    rt.initSingle(eq, 2);
    Interconnect noc(rt, config(2), &g);
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        noc.send(0, 1, PacketKind::Control,
                 [&order, i] { order.push_back(i); });
    }
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

} // namespace
} // namespace c3d

namespace c3d
{
namespace
{

TEST(InterconnectRegression, NoPhantomFutureReservations)
{
    // Regression for the store-and-forward fix: a 2-hop packet must
    // not reserve its second link ahead of time -- a later packet
    // wanting that link *now* would otherwise queue behind a
    // reservation in the future.
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg;
    cfg.numSockets = 4;
    QueueRouter rt;
    rt.initSingle(eq, cfg.numSockets);
    Interconnect noc(rt, cfg, &g);

    // Packet A: 0 -> 2 (two hops through socket 1).
    Tick a_arrival = 0;
    noc.send(0, 2, PacketKind::Data, [&] { a_arrival = eq.now(); });
    // Packet B: 1 -> 2 (one hop, using A's second link) sent at the
    // same time. B reaches the 1->2 link long before A does; it must
    // not wait for A.
    Tick b_arrival = 0;
    noc.send(1, 2, PacketKind::Data, [&] { b_arrival = eq.now(); });
    eq.run();
    ASSERT_GT(a_arrival, 0u);
    ASSERT_GT(b_arrival, 0u);
    // B's single hop: hop latency plus one serialization, well under
    // A's two hops.
    EXPECT_LT(b_arrival, cfg.hopLatency + 30);
    EXPECT_GT(a_arrival, b_arrival);
}

TEST(InterconnectRegression, BackToBackHopsAccumulate)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg;
    cfg.numSockets = 4;
    QueueRouter rt;
    rt.initSingle(eq, cfg.numSockets);
    Interconnect noc(rt, cfg, &g);
    Tick two_hop = 0, one_hop = 0;
    noc.send(0, 2, PacketKind::Control, [&] { two_hop = eq.now(); });
    eq.run();
    eq.reset();
    noc.send(0, 1, PacketKind::Control, [&] { one_hop = eq.now(); });
    eq.run();
    EXPECT_GT(two_hop, one_hop);
    EXPECT_GE(two_hop, 2 * cfg.hopLatency);
}

TEST(InterconnectRegression, SameSocketDeliveryIsNeverInline)
{
    // Pin the same-socket delivery contract: send(s, s) must go
    // through a zero-delay event on s's queue, never an inline call.
    // An inline delivery would let a protocol handler that "responds
    // to itself" reenter its own block state mid-update, and under
    // the parallel kernel it is the only delivery shape that keeps
    // every callback on the owning socket's queue.
    EventQueue eq;
    QueueRouter rt;
    rt.initSingle(eq, 2);
    StatGroup g("t");
    SystemConfig cfg;
    cfg.numSockets = 2;
    Interconnect noc(rt, cfg, &g);

    bool delivered = false;
    noc.send(1, 1, PacketKind::Control, [&] { delivered = true; });
    // Not delivered inline at send time...
    EXPECT_FALSE(delivered);
    eq.run();
    // ...but at tick 0 (free and uncounted), via the event queue.
    EXPECT_TRUE(delivered);
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(noc.packetsSent(), 0u);
}

TEST_F(InterconnectTest, ArrivalIsBuiltOnceAcrossEveryHop)
{
    // The arrival callable is built into its event node at send()
    // and rides intermediate hops inside that node: over one hop,
    // two hops (ring) or none (same socket) it is never moved again.
    EventQueue eq;
    StatGroup g("t");
    QueueRouter rt;
    rt.initSingle(eq, 4);
    Interconnect noc(rt, config(4), &g);
    test::LifeTally local, one_hop, two_hops;
    noc.send(1, 1, PacketKind::Control, test::LifeProbe(local));
    noc.send(0, 1, PacketKind::Control, test::LifeProbe(one_hop));
    noc.send(0, 2, PacketKind::Data, test::LifeProbe(two_hops));
    eq.run();
    for (const test::LifeTally *t : {&local, &one_hop, &two_hops}) {
        EXPECT_EQ(t->runs, 1);
        EXPECT_EQ(t->moves, 1);
        EXPECT_EQ(t->movesAtRun, 1);
        EXPECT_EQ(t->drops, 1);
    }
}

TEST_F(InterconnectTest, PacketInFlightIsFreedWithTheQueue)
{
    // A row torn down mid-hop: the pending hop event owns the
    // arrival node, and the queue's teardown frees both, unrun.
    test::LifeTally t;
    {
        EventQueue eq;
        StatGroup g("t");
        QueueRouter rt;
        rt.initSingle(eq, 4);
        Interconnect noc(rt, config(4), &g);
        noc.send(0, 2, PacketKind::Control, test::LifeProbe(t));
        EXPECT_TRUE(eq.step()); // first hop lands; second is queued
        EXPECT_EQ(eq.pending(), 1u);
    }
    EXPECT_EQ(t.runs, 0);
    EXPECT_EQ(t.drops, 1);
}

} // namespace
} // namespace c3d
