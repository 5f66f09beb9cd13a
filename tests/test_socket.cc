/**
 * @file
 * Unit tests for the intra-socket path: L1/LLC states, fills,
 * evictions, and remote-side probes, driven through a real Machine.
 */

#include <gtest/gtest.h>

#include "common/sim_error.hh"
#include "sim/machine.hh"
#include "test_helpers.hh"

namespace c3d
{
namespace
{

using test::runAccess;
using test::tinyConfig;

/** Run one access to completion and return its latency. */
Tick
doLoad(Machine &m, SocketId s, std::uint32_t core, Addr addr)
{
    return runAccess(
        m, [&](auto done) { m.socket(s).load(core, addr, done); });
}

Tick
doStore(Machine &m, SocketId s, std::uint32_t core, Addr addr)
{
    return runAccess(m, [&](auto done) {
        m.socket(s).store(core, addr, false, done);
    });
}

TEST(Socket, ColdLoadFillsL1AndLlc)
{
    Machine m(tinyConfig(Design::Baseline));
    doLoad(m, 0, 0, 0x1000);
    EXPECT_EQ(m.socket(0).llcState(0x1000), CacheState::Shared);
    EXPECT_EQ(m.socket(0).l1State(0, 0x1000), CacheState::Shared);
}

TEST(Socket, L1HitIsFast)
{
    Machine m(tinyConfig(Design::Baseline));
    doLoad(m, 0, 0, 0x1000);
    const Tick lat = doLoad(m, 0, 0, 0x1000);
    EXPECT_EQ(lat, m.config().l1Latency);
}

TEST(Socket, LlcHitServesOtherCore)
{
    SystemConfig cfg = tinyConfig(Design::Baseline);
    Machine m(cfg);
    doLoad(m, 0, 0, 0x1000);
    const Tick lat = doLoad(m, 0, 1, 0x1000);
    EXPECT_EQ(lat, cfg.l1Latency + cfg.llcTagLatency +
                       cfg.llcDataLatency);
    EXPECT_EQ(m.socket(0).l1State(1, 0x1000), CacheState::Shared);
}

TEST(Socket, StoreMakesBlockModified)
{
    Machine m(tinyConfig(Design::Baseline));
    doStore(m, 0, 0, 0x2000);
    EXPECT_EQ(m.socket(0).llcState(0x2000), CacheState::Modified);
    EXPECT_EQ(m.socket(0).l1State(0, 0x2000), CacheState::Modified);
}

TEST(Socket, StoreHitInModifiedL1IsFast)
{
    Machine m(tinyConfig(Design::Baseline));
    doStore(m, 0, 0, 0x2000);
    const Tick lat = doStore(m, 0, 0, 0x2000);
    EXPECT_EQ(lat, m.config().l1Latency);
}

TEST(Socket, StoreInvalidatesSiblingL1Copies)
{
    Machine m(tinyConfig(Design::Baseline));
    doLoad(m, 0, 0, 0x3000);
    doLoad(m, 0, 1, 0x3000);
    EXPECT_EQ(m.socket(0).l1State(1, 0x3000), CacheState::Shared);
    doStore(m, 0, 0, 0x3000);
    EXPECT_EQ(m.socket(0).l1State(0, 0x3000), CacheState::Modified);
    EXPECT_EQ(m.socket(0).l1State(1, 0x3000), CacheState::Invalid);
}

TEST(Socket, LocalStoreAfterLoadUpgrades)
{
    Machine m(tinyConfig(Design::Baseline));
    doLoad(m, 0, 0, 0x4000);
    doStore(m, 0, 0, 0x4000);
    EXPECT_EQ(m.socket(0).llcState(0x4000), CacheState::Modified);
}

TEST(Socket, ProbeInvalidateClearsAllLevels)
{
    Machine m(tinyConfig(Design::C3D));
    doLoad(m, 0, 0, 0x5000);
    bool dirty = true;
    runAccess(m, [&](auto done) {
        m.socket(0).probeInvalidate(0x5000, [&dirty, done](bool d) {
            dirty = d;
            done();
        });
    });
    EXPECT_FALSE(dirty);
    EXPECT_EQ(m.socket(0).llcState(0x5000), CacheState::Invalid);
    EXPECT_EQ(m.socket(0).l1State(0, 0x5000), CacheState::Invalid);
}

TEST(Socket, ProbeInvalidateReportsDirty)
{
    Machine m(tinyConfig(Design::C3D));
    doStore(m, 0, 0, 0x5000);
    bool dirty = false;
    runAccess(m, [&](auto done) {
        m.socket(0).probeInvalidate(0x5000, [&dirty, done](bool d) {
            dirty = d;
            done();
        });
    });
    EXPECT_TRUE(dirty);
}

TEST(Socket, ProbeDowngradeKeepsSharedCopy)
{
    Machine m(tinyConfig(Design::C3D));
    doStore(m, 0, 0, 0x6000);
    bool dirty = false;
    runAccess(m, [&](auto done) {
        m.socket(0).probeDowngrade(0x6000, [&dirty, done](bool d) {
            dirty = d;
            done();
        });
    });
    EXPECT_TRUE(dirty);
    EXPECT_EQ(m.socket(0).llcState(0x6000), CacheState::Shared);
}

TEST(Socket, DowngradeRefreshesDramCacheCopy)
{
    // §IV-C: downgrades write through the DRAM cache so a later
    // silent LLC eviction cannot expose stale data.
    Machine m(tinyConfig(Design::C3D));
    doStore(m, 0, 0, 0x6000);
    runAccess(m, [&](auto done) {
        m.socket(0).probeDowngrade(0x6000, [done](bool) { done(); });
    });
    ASSERT_NE(m.socket(0).dramCache(), nullptr);
    EXPECT_TRUE(m.socket(0).dramCache()->contains(0x6000));
    EXPECT_FALSE(m.socket(0).dramCache()->isDirty(0x6000));
}

TEST(Socket, LlcEvictionSinksIntoDramCache)
{
    SystemConfig cfg = tinyConfig(Design::C3D);
    Machine m(cfg);
    // Fill one LLC set past associativity to force an eviction.
    const std::uint64_t sets = cfg.llcBytes / BlockBytes / cfg.llcWays;
    const Addr first = 0x0;
    doLoad(m, 0, 0, first);
    for (std::uint32_t w = 1; w <= cfg.llcWays; ++w)
        doLoad(m, 0, 0, first + w * sets * BlockBytes);
    m.eventQueue().run();
    EXPECT_EQ(m.socket(0).llcState(first), CacheState::Invalid);
    EXPECT_TRUE(m.socket(0).dramCache()->contains(first));
}

TEST(Socket, DramCacheHitAfterEviction)
{
    SystemConfig cfg = tinyConfig(Design::C3D);
    Machine m(cfg);
    const std::uint64_t sets = cfg.llcBytes / BlockBytes / cfg.llcWays;
    const Addr first = 0x0;
    const Tick cold = doLoad(m, 0, 0, first);
    for (std::uint32_t w = 1; w <= cfg.llcWays; ++w)
        doLoad(m, 0, 0, first + w * sets * BlockBytes);
    // Re-load: the block now comes from the local DRAM cache; it is
    // slower than an LLC hit but much faster than the cold remote
    // access path.
    const Tick dc_hit = doLoad(m, 0, 0, first);
    EXPECT_LT(dc_hit, cold);
    EXPECT_GE(dc_hit, cfg.dramCacheLatency);
}

TEST(Socket, WriteFillInvalidatesStaleDramCacheCopy)
{
    SystemConfig cfg = tinyConfig(Design::C3D);
    Machine m(cfg);
    const std::uint64_t sets = cfg.llcBytes / BlockBytes / cfg.llcWays;
    const Addr first = 0x0;
    doLoad(m, 0, 0, first);
    for (std::uint32_t w = 1; w <= cfg.llcWays; ++w)
        doLoad(m, 0, 0, first + w * sets * BlockBytes);
    ASSERT_TRUE(m.socket(0).dramCache()->contains(first));
    // Writing the block makes the DRAM-cache copy stale; the fill
    // path must kill it.
    doStore(m, 0, 0, first);
    m.eventQueue().run();
    EXPECT_FALSE(m.socket(0).dramCache()->contains(first));
}

TEST(Socket, ReadMissesMergeIntoOneGetS)
{
    SystemConfig cfg = tinyConfig(Design::Baseline);
    Machine m(cfg);
    int completed = 0;
    m.socket(0).load(0, 0x7000, [&] { ++completed; });
    m.socket(0).load(1, 0x7000, [&] { ++completed; });
    m.eventQueue().run();
    EXPECT_EQ(completed, 2);
    EXPECT_EQ(m.stats().valueOf("socket0.gets"), 1u);
    EXPECT_EQ(m.stats().valueOf("socket0.merged_reads"), 1u);
    EXPECT_EQ(m.socket(0).l1State(0, 0x7000), CacheState::Shared);
    EXPECT_EQ(m.socket(0).l1State(1, 0x7000), CacheState::Shared);
}

TEST(Socket, CoreKeepsOneLoadAndOneStoreInFlight)
{
    // Each core parks its outstanding load and store in the socket's
    // in-flight records: one of each may overlap, and the completion
    // may issue the core's next op of the same kind at once.
    Machine m(tinyConfig(Design::C3D));
    int loads = 0;
    int stores = 0;
    m.socket(0).load(0, 0x9000, [&] {
        if (++loads == 1)
            m.socket(0).load(0, 0x9040, [&] { ++loads; });
    });
    m.socket(0).store(0, 0xA000, false, [&] { ++stores; });
    m.eventQueue().run();
    EXPECT_EQ(loads, 2);
    EXPECT_EQ(stores, 1);

    // A second load (or store) while one is outstanding is a bug in
    // the core model, caught at issue.
    m.socket(0).load(1, 0xB000, [] {});
    EXPECT_THROW(m.socket(0).load(1, 0xB040, [] {}), SimError);
    m.socket(0).store(1, 0xC000, false, [] {});
    EXPECT_THROW(m.socket(0).store(1, 0xC040, false, [] {}), SimError);
}

TEST(Socket, SnoopProbeFindsNothingQuickly)
{
    Machine m(tinyConfig(Design::Snoopy));
    SnoopResult res;
    runAccess(m, [&](auto done) {
        m.socket(1).snoopProbe(0x8000, false,
                               [&res, done](SnoopResult r) {
                                   res = r;
                                   done();
                               });
    });
    EXPECT_FALSE(res.present);
    EXPECT_FALSE(res.suppliedDirty);
}

} // namespace
} // namespace c3d
