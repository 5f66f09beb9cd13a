/**
 * @file
 * AMAT-ordering tests: the fundamental latency hierarchy the paper's
 * argument rests on. Each access path is measured on an otherwise
 * idle machine and compared against its Table II composition, and
 * against the paths it must beat (§II-B, §III, §IV-A).
 */

#include <gtest/gtest.h>

#include "sim/machine.hh"
#include "test_helpers.hh"

namespace c3d
{
namespace
{

/** Measure one load on an idle machine. */
Tick
timedLoad(Machine &m, SocketId s, Addr addr, std::uint32_t core = 0)
{
    return test::runAccess(
        m, [&](auto done) { m.socket(s).load(core, addr, done); });
}

/** Complete one store on an idle machine. */
void
store(Machine &m, SocketId s, Addr addr)
{
    test::runAccess(m, [&](auto done) {
        m.socket(s).store(0, addr, false, done);
    });
}

/** Build a machine with deterministic interleaved homes. */
SystemConfig
pathConfig(Design d)
{
    SystemConfig cfg = test::tinyConfig(d, 4, 2);
    cfg.mapping = MappingPolicy::Interleave;
    return cfg;
}

/** Evict @p addr from socket @p s's LLC via conflicting loads. */
void
evictFromLlc(Machine &m, SocketId s, Addr addr)
{
    const SystemConfig &cfg = m.config();
    const std::uint64_t sets = cfg.llcBytes / BlockBytes / cfg.llcWays;
    // Load same-set conflicters until the block is displaced (bounded;
    // earlier conflicters may themselves be cached and not refresh
    // LLC recency, so a fixed count is not reliable).
    for (std::uint32_t w = 1; w <= 4 * cfg.llcWays; ++w) {
        if (m.socket(s).llcState(addr) == CacheState::Invalid)
            return;
        timedLoad(m, s, addr + (w + 100) * sets * BlockBytes);
    }
    ASSERT_EQ(m.socket(s).llcState(addr), CacheState::Invalid);
}

constexpr Addr Home0 = 0x0C0;  // page 0 -> socket 0 (interleave)
constexpr Addr Home1 = 0x10C0; // page 1 -> socket 1

TEST(LatencyPaths, HierarchyOrdering)
{
    Machine m(pathConfig(Design::C3D));

    // Remote cold miss (socket 0 reading socket-1-homed data).
    const Tick remote_mem = timedLoad(m, 0, Home1);
    // Local cold miss.
    const Tick local_mem = timedLoad(m, 0, Home0);
    // LLC hit (sibling core: its L1 misses, the shared LLC hits).
    const Tick llc_hit = timedLoad(m, 0, Home0, /*core=*/1);
    // L1 hit (repeat load from the same core).
    const Tick l1_hit = timedLoad(m, 0, Home0, /*core=*/1);

    // DRAM-cache hit: evict from LLC, reload.
    evictFromLlc(m, 0, Home0);
    const Tick dc_hit = timedLoad(m, 0, Home0);

    EXPECT_LT(l1_hit, llc_hit);
    EXPECT_LT(llc_hit, dc_hit);
    EXPECT_LT(dc_hit, local_mem);
    EXPECT_LT(local_mem, remote_mem);
}

TEST(LatencyPaths, L1HitIsThreeCycles)
{
    Machine m(pathConfig(Design::C3D));
    timedLoad(m, 0, Home0);
    timedLoad(m, 0, Home0); // ensure L1 residence
    EXPECT_EQ(timedLoad(m, 0, Home0), m.config().l1Latency);
}

TEST(LatencyPaths, DramCacheHitCompositionMatchesTableII)
{
    SystemConfig cfg = pathConfig(Design::C3D);
    Machine m(cfg);
    timedLoad(m, 0, Home0);
    evictFromLlc(m, 0, Home0);
    const Tick dc_hit = timedLoad(m, 0, Home0);
    // L1 + LLC tag + predictor + 40 ns access + channel burst.
    const Tick floor = cfg.l1Latency + cfg.llcTagLatency +
        cfg.missPredictorLatency + cfg.dramCacheLatency;
    EXPECT_GE(dc_hit, floor);
    EXPECT_LE(dc_hit, floor + 40); // channel + event slack
}

TEST(LatencyPaths, RemoteMissCarriesTwoHopsOnRing)
{
    SystemConfig cfg = pathConfig(Design::Baseline);
    Machine m(cfg);
    // Socket 0 to opposite-corner socket 2 (page 2): 2 hops each way.
    const Addr home2 = 2 * PageBytes + 0xC0;
    const Tick t = timedLoad(m, 0, home2);
    const Tick floor = cfg.l1Latency + cfg.llcTagLatency +
        4 * cfg.hopLatency + cfg.globalDirLatency + cfg.memLatency;
    EXPECT_GE(t, floor);
}

TEST(LatencyPaths, SlowRemoteHitPathologyIsVisible)
{
    // §III-B: in full-dir, reading a block dirty in a remote DRAM
    // cache is slower than the same machine reading it from memory
    // (measured as c3d's path).
    SystemConfig cfg_fd = pathConfig(Design::FullDir);
    Machine fd(cfg_fd);
    store(fd, 1, Home0);
    evictFromLlc(fd, 1, Home0); // dirty block now in socket 1 DRAM$
    ASSERT_TRUE(fd.socket(1).dramCache()->isDirty(Home0));
    // Requester at socket 3: the forward path home(0) -> owner(1) ->
    // requester(3) spans three hops plus the remote DRAM-cache
    // access (Fig. 4).
    const Tick slow_hit = timedLoad(fd, 3, Home0);

    Machine c3d(pathConfig(Design::C3D));
    store(c3d, 1, Home0);
    evictFromLlc(c3d, 1, Home0); // clean copy + fresh memory
    const Tick mem_serve = timedLoad(c3d, 3, Home0);

    EXPECT_GT(slow_hit, mem_serve);
}

TEST(LatencyPaths, CleanCacheKeepsLocalHitRateAfterWriteThrough)
{
    // §IV-A: writing through does NOT cost the local socket its
    // DRAM-cache hit -- the clean copy stays.
    Machine m(pathConfig(Design::C3D));
    store(m, 1, Home0);
    evictFromLlc(m, 1, Home0);
    ASSERT_TRUE(m.socket(1).dramCache()->contains(Home0));
    const Tick local_dc_hit = timedLoad(m, 1, Home0);
    // Far cheaper than a fresh remote access to the same block.
    const Tick remote = timedLoad(m, 3, Home0);
    EXPECT_LT(local_dc_hit, remote);
}

TEST(LatencyPaths, ZeroQpiLatencyCollapsesRemotePenalty)
{
    SystemConfig cfg = pathConfig(Design::Baseline);
    cfg.zeroHopLatency = true;
    Machine m(cfg);
    const Tick remote = timedLoad(m, 0, Home1);
    const Tick local = timedLoad(m, 3, Home1 + BlockBytes * 4096);
    (void)local;
    // Without hop latency the remote path is just dir + memory.
    EXPECT_LE(remote, cfg.l1Latency + cfg.llcTagLatency +
                          cfg.missPredictorLatency +
                          cfg.dramCacheLatency +
                          cfg.globalDirLatency + cfg.memLatency + 40);
}

} // namespace
} // namespace c3d
