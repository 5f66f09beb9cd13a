/**
 * @file
 * Protocol-level tests: drive cross-socket access sequences through
 * each design and check states, data paths, and traffic properties
 * against the paper's protocol descriptions (§III, §IV-C).
 */

#include <gtest/gtest.h>

#include "coherence/directory_protocols.hh"
#include "sim/machine.hh"
#include "test_helpers.hh"

namespace c3d
{
namespace
{

using test::tinyConfig;

void
load(Machine &m, SocketId s, Addr addr)
{
    test::runAccess(
        m, [&](auto done) { m.socket(s).load(0, addr, done); });
}

void
store(Machine &m, SocketId s, Addr addr, bool priv = false)
{
    test::runAccess(m, [&](auto done) {
        m.socket(s).store(0, addr, priv, done);
    });
}

DirectoryProtocol &
dirProto(Machine &m)
{
    return static_cast<DirectoryProtocol &>(m.protocol());
}

// Address homed at socket 0 under FT2 when socket 0 touches first;
// use explicit interleave for deterministic homes instead.
SystemConfig
cfgWith(Design d)
{
    SystemConfig cfg = tinyConfig(d);
    cfg.mapping = MappingPolicy::Interleave;
    return cfg;
}

/** Page 0 is homed at socket 0 under interleave. */
constexpr Addr HomedAt0 = 0x0C0;

TEST(ProtocolBaseline, GetSFromRemoteMemory)
{
    Machine m(cfgWith(Design::Baseline));
    load(m, 1, HomedAt0);
    EXPECT_EQ(m.socket(1).llcState(HomedAt0), CacheState::Shared);
    EXPECT_EQ(m.socket(0).memory().reads(), 1u);
    EXPECT_EQ(m.socket(0).memory().remoteReads(), 1u);
    // Baseline tracks the reader.
    DirEntry *e = dirProto(m).directory(0).find(HomedAt0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, DirState::Shared);
    EXPECT_TRUE(e->isSharer(1));
}

TEST(ProtocolBaseline, GetXInvalidatesRemoteSharers)
{
    Machine m(cfgWith(Design::Baseline));
    load(m, 1, HomedAt0);
    load(m, 2, HomedAt0);
    store(m, 3, HomedAt0);
    EXPECT_EQ(m.socket(1).llcState(HomedAt0), CacheState::Invalid);
    EXPECT_EQ(m.socket(2).llcState(HomedAt0), CacheState::Invalid);
    EXPECT_EQ(m.socket(3).llcState(HomedAt0), CacheState::Modified);
    DirEntry *e = dirProto(m).directory(0).find(HomedAt0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, DirState::Modified);
    EXPECT_EQ(e->owner, 3u);
}

TEST(ProtocolBaseline, GetSForwardsFromModifiedOwner)
{
    Machine m(cfgWith(Design::Baseline));
    store(m, 1, HomedAt0);
    const std::uint64_t fwd_before =
        m.stats().valueOf("proto.forwards");
    load(m, 2, HomedAt0);
    EXPECT_EQ(m.stats().valueOf("proto.forwards"), fwd_before + 1);
    EXPECT_EQ(m.socket(1).llcState(HomedAt0), CacheState::Shared);
    EXPECT_EQ(m.socket(2).llcState(HomedAt0), CacheState::Shared);
    // Reflective writeback refreshed memory.
    EXPECT_GE(m.socket(0).memory().writes(), 1u);
}

TEST(ProtocolC3D, ReadsStayUntracked)
{
    Machine m(cfgWith(Design::C3D));
    load(m, 1, HomedAt0);
    load(m, 2, HomedAt0);
    // §IV-B: no directory allocation for reads to untracked blocks.
    EXPECT_EQ(dirProto(m).directory(0).find(HomedAt0), nullptr);
    EXPECT_EQ(m.socket(1).llcState(HomedAt0), CacheState::Shared);
    EXPECT_EQ(m.socket(2).llcState(HomedAt0), CacheState::Shared);
}

TEST(ProtocolC3D, UntrackedWriteBroadcasts)
{
    Machine m(cfgWith(Design::C3D));
    load(m, 1, HomedAt0);
    load(m, 2, HomedAt0);
    const std::uint64_t bcast_before =
        m.stats().valueOf("proto.broadcasts");
    store(m, 3, HomedAt0);
    EXPECT_EQ(m.stats().valueOf("proto.broadcasts"), bcast_before + 1);
    // The untracked copies are gone: coherence maintained.
    EXPECT_EQ(m.socket(1).llcState(HomedAt0), CacheState::Invalid);
    EXPECT_EQ(m.socket(2).llcState(HomedAt0), CacheState::Invalid);
    EXPECT_EQ(m.socket(3).llcState(HomedAt0), CacheState::Modified);
}

TEST(ProtocolC3D, WritesAreTracked)
{
    Machine m(cfgWith(Design::C3D));
    store(m, 2, HomedAt0);
    DirEntry *e = dirProto(m).directory(0).find(HomedAt0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, DirState::Modified);
    EXPECT_EQ(e->owner, 2u);
}

TEST(ProtocolC3D, ModifiedToSharedOnRemoteGetS)
{
    Machine m(cfgWith(Design::C3D));
    store(m, 1, HomedAt0);
    load(m, 2, HomedAt0);
    DirEntry *e = dirProto(m).directory(0).find(HomedAt0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, DirState::Shared);
    EXPECT_TRUE(e->isSharer(1));
    EXPECT_TRUE(e->isSharer(2));
    // Fig. 5: write-through on downgrade keeps memory fresh.
    EXPECT_GE(m.socket(0).memory().writes(), 1u);
}

TEST(ProtocolC3D, SharedStateUsesVectorNotBroadcast)
{
    Machine m(cfgWith(Design::C3D));
    store(m, 1, HomedAt0); // M{1}
    load(m, 2, HomedAt0);  // S{1,2}
    const std::uint64_t bcast_before =
        m.stats().valueOf("proto.broadcasts");
    const std::uint64_t invs_before =
        m.stats().valueOf("proto.invalidations");
    store(m, 2, HomedAt0); // upgrade in S: invalidate vector only
    EXPECT_EQ(m.stats().valueOf("proto.broadcasts"), bcast_before);
    // Only socket 1 needed an invalidation.
    EXPECT_EQ(m.stats().valueOf("proto.invalidations"),
              invs_before + 1);
}

TEST(ProtocolC3D, CleanWriteThroughOnDirtyEviction)
{
    SystemConfig cfg = cfgWith(Design::C3D);
    Machine m(cfg);
    store(m, 1, HomedAt0);
    const std::uint64_t writes_before = m.socket(0).memory().writes();
    // Evict the dirty block from socket 1's LLC by conflicts.
    const std::uint64_t sets = cfg.llcBytes / BlockBytes / cfg.llcWays;
    for (std::uint32_t w = 1; w <= cfg.llcWays; ++w)
        load(m, 1, HomedAt0 + w * sets * BlockBytes);
    m.eventQueue().run();
    // §IV-A: dirty eviction writes through to memory...
    EXPECT_GT(m.socket(0).memory().writes(), writes_before);
    // ...while the local DRAM cache retains a clean copy.
    EXPECT_TRUE(m.socket(1).dramCache()->contains(HomedAt0));
    EXPECT_FALSE(m.socket(1).dramCache()->isDirty(HomedAt0));
    // ...and the directory entry is gone (non-inclusive).
    EXPECT_EQ(dirProto(m).directory(0).find(HomedAt0), nullptr);
}

TEST(ProtocolC3D, NoRemoteDramCacheProbeOnReadMiss)
{
    // The defining C3D property: a read miss is served by memory,
    // never by a remote DRAM cache, even when one holds the block.
    SystemConfig cfg = cfgWith(Design::C3D);
    Machine m(cfg);
    store(m, 1, HomedAt0);
    const std::uint64_t sets = cfg.llcBytes / BlockBytes / cfg.llcWays;
    for (std::uint32_t w = 1; w <= cfg.llcWays; ++w)
        load(m, 1, HomedAt0 + w * sets * BlockBytes);
    m.eventQueue().run();
    ASSERT_TRUE(m.socket(1).dramCache()->contains(HomedAt0));
    const std::uint64_t s1_dc_hits =
        m.socket(1).dramCache()->hitCount();
    const std::uint64_t mem_reads = m.socket(0).memory().reads();
    load(m, 2, HomedAt0);
    // Socket 2's miss went to memory; socket 1's DRAM cache was not
    // read.
    EXPECT_EQ(m.socket(0).memory().reads(), mem_reads + 1);
    EXPECT_EQ(m.socket(1).dramCache()->hitCount(), s1_dc_hits);
}

TEST(ProtocolC3D, PrivatePageElidesBroadcast)
{
    SystemConfig cfg = cfgWith(Design::C3D);
    cfg.tlbPageClassification = true;
    Machine m(cfg);
    const std::uint64_t before =
        m.stats().valueOf("proto.broadcasts_elided");
    store(m, 1, HomedAt0, /*priv=*/true);
    EXPECT_EQ(m.stats().valueOf("proto.broadcasts_elided"),
              before + 1);
    EXPECT_EQ(m.stats().valueOf("proto.broadcasts"), 0u);
}

TEST(ProtocolFullDir, ReadsAreTracked)
{
    Machine m(cfgWith(Design::FullDir));
    load(m, 1, HomedAt0);
    DirEntry *e = dirProto(m).directory(0).find(HomedAt0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, DirState::Shared);
    EXPECT_TRUE(e->isSharer(1));
}

TEST(ProtocolFullDir, NoBroadcastsEver)
{
    Machine m(cfgWith(Design::FullDir));
    load(m, 1, HomedAt0);
    load(m, 2, HomedAt0);
    store(m, 3, HomedAt0);
    store(m, 1, HomedAt0);
    EXPECT_EQ(m.stats().valueOf("proto.broadcasts"), 0u);
}

TEST(ProtocolFullDir, DirtyBlockLivesInDramCache)
{
    SystemConfig cfg = cfgWith(Design::FullDir);
    Machine m(cfg);
    store(m, 1, HomedAt0);
    const std::uint64_t writes_before = m.socket(0).memory().writes();
    const std::uint64_t sets = cfg.llcBytes / BlockBytes / cfg.llcWays;
    for (std::uint32_t w = 1; w <= cfg.llcWays; ++w)
        load(m, 1, HomedAt0 + w * sets * BlockBytes);
    m.eventQueue().run();
    // Dirty design: the block sinks into the DRAM cache dirty, no
    // memory write-through.
    EXPECT_TRUE(m.socket(1).dramCache()->isDirty(HomedAt0));
    EXPECT_EQ(m.socket(0).memory().writes(), writes_before);
}

TEST(ProtocolFullDir, SlowRemoteHitServedByOwnerDramCache)
{
    // §III-B Fig. 4: a dirty block in a remote DRAM cache forces the
    // three-hop forward path instead of memory.
    SystemConfig cfg = cfgWith(Design::FullDir);
    Machine m(cfg);
    store(m, 1, HomedAt0);
    const std::uint64_t sets = cfg.llcBytes / BlockBytes / cfg.llcWays;
    for (std::uint32_t w = 1; w <= cfg.llcWays; ++w)
        load(m, 1, HomedAt0 + w * sets * BlockBytes);
    m.eventQueue().run();
    ASSERT_TRUE(m.socket(1).dramCache()->isDirty(HomedAt0));
    const std::uint64_t mem_reads_before =
        m.socket(0).memory().reads();
    const std::uint64_t fwds_before =
        m.stats().valueOf("proto.forwards");
    load(m, 2, HomedAt0);
    // Served by owner, not memory.
    EXPECT_EQ(m.stats().valueOf("proto.forwards"), fwds_before + 1);
    EXPECT_EQ(m.socket(0).memory().reads(), mem_reads_before);
    // After the forward the block is clean everywhere.
    EXPECT_FALSE(m.socket(1).dramCache()->isDirty(HomedAt0));
}

TEST(ProtocolC3DFullDir, PutXKeepsEvictingSocketTracked)
{
    SystemConfig cfg = cfgWith(Design::C3DFullDir);
    Machine m(cfg);
    store(m, 1, HomedAt0);
    const std::uint64_t sets = cfg.llcBytes / BlockBytes / cfg.llcWays;
    for (std::uint32_t w = 1; w <= cfg.llcWays; ++w)
        load(m, 1, HomedAt0 + w * sets * BlockBytes);
    m.eventQueue().run();
    // §V-A: "modified blocks transition to the shared state after
    // receiving a writeback."
    DirEntry *e = dirProto(m).directory(0).find(HomedAt0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, DirState::Shared);
    EXPECT_TRUE(e->isSharer(1));
}

TEST(ProtocolSnoopy, RemoteDirtySuppliedBySnoop)
{
    SystemConfig cfg = cfgWith(Design::Snoopy);
    Machine m(cfg);
    store(m, 1, HomedAt0);
    const std::uint64_t sets = cfg.llcBytes / BlockBytes / cfg.llcWays;
    for (std::uint32_t w = 1; w <= cfg.llcWays; ++w)
        load(m, 1, HomedAt0 + w * sets * BlockBytes);
    m.eventQueue().run();
    ASSERT_TRUE(m.socket(1).dramCache()->isDirty(HomedAt0));
    const std::uint64_t dirty_before =
        m.stats().valueOf("proto.snoop_dirty_hits");
    load(m, 2, HomedAt0);
    EXPECT_EQ(m.stats().valueOf("proto.snoop_dirty_hits"),
              dirty_before + 1);
    EXPECT_FALSE(m.socket(1).dramCache()->isDirty(HomedAt0));
}

TEST(ProtocolSnoopy, EverySocketProbedOnMiss)
{
    Machine m(cfgWith(Design::Snoopy));
    const std::uint64_t snoops_before =
        m.stats().valueOf("proto.snoops");
    load(m, 1, HomedAt0);
    // 3 remote sockets probed in the quad-socket machine.
    EXPECT_EQ(m.stats().valueOf("proto.snoops"), snoops_before + 3);
}

TEST(ProtocolSnoopy, WriteInvalidatesEverywhere)
{
    Machine m(cfgWith(Design::Snoopy));
    load(m, 1, HomedAt0);
    load(m, 2, HomedAt0);
    store(m, 3, HomedAt0);
    EXPECT_EQ(m.socket(1).llcState(HomedAt0), CacheState::Invalid);
    EXPECT_EQ(m.socket(2).llcState(HomedAt0), CacheState::Invalid);
    EXPECT_EQ(m.socket(3).llcState(HomedAt0), CacheState::Modified);
}

SystemConfig
snoopyWith(Protocol p)
{
    SystemConfig cfg = cfgWith(Design::Snoopy);
    cfg.protocol = p;
    return cfg;
}

TEST(ProtocolSnoopyMesif, CleanForwardSparesMemory)
{
    Machine m(snoopyWith(Protocol::Mesif));
    load(m, 1, HomedAt0); // memory read; socket 1 becomes forwarder
    const std::uint64_t reads = m.socket(0).memory().reads();
    const std::uint64_t fwds =
        m.stats().valueOf("proto.snoop_clean_forwards");
    load(m, 2, HomedAt0);
    // The F-state holder supplied the clean block cache-to-cache;
    // the home memory was never read again.
    EXPECT_EQ(m.stats().valueOf("proto.snoop_clean_forwards"),
              fwds + 1);
    EXPECT_EQ(m.socket(0).memory().reads(), reads);
    // Forwardership migrated to the newest reader: a third read is
    // served by socket 2, again without memory.
    load(m, 3, HomedAt0);
    EXPECT_EQ(m.stats().valueOf("proto.snoop_clean_forwards"),
              fwds + 2);
    EXPECT_EQ(m.socket(0).memory().reads(), reads);
}

TEST(ProtocolSnoopyMoesi, DirtySupplierRetainsOwnership)
{
    Machine m(snoopyWith(Protocol::Moesi));
    store(m, 1, HomedAt0);
    const std::uint64_t writes = m.socket(0).memory().writes();
    const std::uint64_t dirty =
        m.stats().valueOf("proto.snoop_dirty_hits");
    load(m, 2, HomedAt0);
    // The owner supplied the dirty block directly (O state): no
    // reflective writeback, memory stays stale by design.
    EXPECT_EQ(m.stats().valueOf("proto.snoop_dirty_hits"), dirty + 1);
    EXPECT_EQ(m.socket(0).memory().writes(), writes);
    // The retained owner keeps supplying later readers too.
    load(m, 3, HomedAt0);
    EXPECT_EQ(m.stats().valueOf("proto.snoop_dirty_hits"), dirty + 2);
    EXPECT_EQ(m.socket(0).memory().writes(), writes);
}

TEST(ProtocolSnoopyDragon, WriteUpdatesSharersInPlace)
{
    Machine m(snoopyWith(Protocol::Dragon));
    load(m, 1, HomedAt0);
    load(m, 2, HomedAt0);
    const std::uint64_t updates =
        m.stats().valueOf("proto.snoop_updates");
    store(m, 3, HomedAt0);
    // Update-based: both believed sharers received a data update and
    // their copies remain valid -- nothing was invalidated.
    EXPECT_EQ(m.stats().valueOf("proto.snoop_updates"), updates + 2);
    EXPECT_NE(m.socket(1).llcState(HomedAt0), CacheState::Invalid);
    EXPECT_NE(m.socket(2).llcState(HomedAt0), CacheState::Invalid);
}

TEST(ProtocolAll, LocalAccessGeneratesNoTraffic)
{
    for (Design d : {Design::Baseline, Design::Snoopy, Design::FullDir,
                     Design::C3D, Design::C3DFullDir}) {
        Machine m(cfgWith(d));
        // Address homed at socket 0, accessed by socket 0.
        load(m, 0, HomedAt0);
        if (d == Design::Snoopy) {
            // Snoopy broadcasts even for local misses -- the
            // pathology the paper highlights.
            EXPECT_GT(m.interSocketBytes(), 0u) << designName(d);
        } else {
            EXPECT_EQ(m.interSocketBytes(), 0u) << designName(d);
        }
    }
}

TEST(ProtocolAll, SecondLocalReadHitsWithoutTraffic)
{
    for (Design d : {Design::Baseline, Design::FullDir, Design::C3D,
                     Design::C3DFullDir}) {
        Machine m(cfgWith(d));
        load(m, 2, HomedAt0);
        const std::uint64_t bytes = m.interSocketBytes();
        load(m, 2, HomedAt0); // LLC hit
        EXPECT_EQ(m.interSocketBytes(), bytes) << designName(d);
    }
}

} // namespace
} // namespace c3d
