/**
 * @file
 * Snoopy-specific ordering tests: the home socket is the ordering
 * point (home-snoop), so concurrent conflicting transactions
 * serialize and leave exactly one owner. The ordering properties are
 * checked for every protocol variant of the family (MESI, MESIF,
 * MOESI, Dragon).
 */

#include <gtest/gtest.h>

#include "coherence/snoopy_protocol.hh"
#include "common/log.hh"
#include "sim/machine.hh"
#include "sim/runner.hh"
#include "test_helpers.hh"
#include "trace/workload.hh"

namespace c3d
{
namespace
{

SystemConfig
snoopyConfig(Protocol p = Protocol::Mesi)
{
    SystemConfig cfg = test::tinyConfig(Design::Snoopy, 4, 1);
    cfg.mapping = MappingPolicy::Interleave;
    cfg.protocol = p;
    return cfg;
}

constexpr Protocol AllProtocols[] = {Protocol::Mesi, Protocol::Mesif,
                                     Protocol::Moesi,
                                     Protocol::Dragon};

constexpr Addr Blk = 0x0C0; // homed at socket 0

TEST(SnoopyOrdering, ConcurrentWritesLeaveOneOwner)
{
    setQuiet(true);
    for (const Protocol p : AllProtocols) {
        Machine m(snoopyConfig(p));
        int done = 0;
        // All four sockets store the same block at the same tick.
        for (SocketId s = 0; s < 4; ++s)
            m.socket(s).store(0, Blk, false, [&] { ++done; });
        m.eventQueue().run();
        EXPECT_EQ(done, 4) << protocolName(p);
        int owners = 0, holders = 0;
        for (SocketId s = 0; s < 4; ++s) {
            const CacheState st = m.socket(s).llcState(Blk);
            owners += st == CacheState::Modified;
            holders += st != CacheState::Invalid;
        }
        if (p == Protocol::Dragon) {
            // Update-based: nobody is invalidated; the home still
            // serialized the four writes into a total order.
            EXPECT_GE(holders, 1) << protocolName(p);
        } else {
            EXPECT_EQ(owners, 1) << protocolName(p);
        }
    }
}

TEST(SnoopyOrdering, ConcurrentReadWriteMix)
{
    setQuiet(true);
    for (const Protocol p : AllProtocols) {
        Machine m(snoopyConfig(p));
        int done = 0;
        m.socket(1).load(0, Blk, [&] { ++done; });
        m.socket(2).store(0, Blk, false, [&] { ++done; });
        m.socket(3).load(0, Blk, [&] { ++done; });
        m.socket(0).store(0, Blk, false, [&] { ++done; });
        m.eventQueue().run();
        EXPECT_EQ(done, 4) << protocolName(p);
        // SWMR audit (Dragon pairs an owner with updated sharers).
        int owners = 0, sharers = 0;
        for (SocketId s = 0; s < 4; ++s) {
            const CacheState st = m.socket(s).llcState(Blk);
            owners += st == CacheState::Modified;
            sharers += st == CacheState::Shared;
        }
        if (p == Protocol::Dragon)
            continue;
        if (owners == 1)
            EXPECT_EQ(sharers, 0) << protocolName(p);
        else
            EXPECT_EQ(owners, 0) << protocolName(p);
    }
}

TEST(SnoopyOrdering, DirtySupplierCleansItself)
{
    setQuiet(true);
    Machine m(snoopyConfig());
    bool done = false;
    m.socket(2).store(0, Blk, false, [&] { done = true; });
    m.eventQueue().run();
    ASSERT_TRUE(done);
    // Remote read: the owner supplies and downgrades to Shared.
    done = false;
    m.socket(3).load(0, Blk, [&] { done = true; });
    m.eventQueue().run();
    ASSERT_TRUE(done);
    EXPECT_EQ(m.socket(2).llcState(Blk), CacheState::Shared);
    EXPECT_EQ(m.socket(3).llcState(Blk), CacheState::Shared);
    // Reflective writeback reached the home memory.
    EXPECT_GE(m.socket(0).memory().writes(), 1u);
}

TEST(SnoopyOrdering, UpgradeNeedsNoMemoryRead)
{
    setQuiet(true);
    Machine m(snoopyConfig());
    bool done = false;
    m.socket(1).load(0, Blk, [&] { done = true; });
    m.eventQueue().run();
    const std::uint64_t reads = m.socket(0).memory().reads();
    done = false;
    m.socket(1).store(0, Blk, false, [&] { done = true; });
    m.eventQueue().run();
    ASSERT_TRUE(done);
    // The upgrade invalidates remotely but does not read memory.
    EXPECT_EQ(m.socket(0).memory().reads(), reads);
}

TEST(SnoopyOrdering, EverySnoopPaysTheDramCacheAccess)
{
    // §III-A: even sockets with no copy burn a DRAM-cache access on
    // each snoop -- the slow-remote-hit pathology's root cause.
    setQuiet(true);
    SystemConfig cfg = snoopyConfig();
    Machine m(cfg);
    const Tick lat = test::runAccess(
        m, [&](auto done) { m.socket(1).load(0, Blk, done); });
    // The furthest probe (2 ring hops away) plus its DRAM-cache
    // access bounds the completion from below.
    EXPECT_GE(lat, 4 * cfg.hopLatency + cfg.dramCacheLatency);
}

TEST(SnoopyOrdering, HomeKeepsOnlyNonEmptyLines)
{
    // A line that a dirty eviction leaves with no believed holder is
    // dropped from its home's table: an absent line plans exactly as
    // an empty one, so the table need hold only lines some socket is
    // believed to cache. A DRAM cache four times the LLC keeps dirty
    // evictions frequent.
    setQuiet(true);
    for (const Protocol p : AllProtocols) {
        SystemConfig cfg = test::tinyConfig(Design::Snoopy);
        cfg.protocol = p;
        cfg.dramCacheBytes = 4 * cfg.llcBytes;
        SyntheticWorkload wl(test::tinyProfile(), cfg.totalCores(),
                             cfg.coresPerSocket);
        Runner r(cfg, wl);
        r.run(1000, 4000);
        const auto &proto =
            static_cast<const SnoopyProtocol &>(r.machine().protocol());
        EXPECT_GT(proto.homeLineCount(), 0u) << protocolName(p);
        EXPECT_EQ(proto.emptyHomeLines(), 0u) << protocolName(p);
    }
}

} // namespace
} // namespace c3d
