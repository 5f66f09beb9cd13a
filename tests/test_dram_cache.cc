/**
 * @file
 * Unit tests for the DRAM cache and its miss predictor.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/sim_error.hh"
#include "dramcache/dram_cache.hh"
#include "dramcache/miss_predictor.hh"
#include "sim/event_queue.hh"

namespace c3d
{
namespace
{

SystemConfig
dcConfig(Design design = Design::C3D, bool exact_predictor = true)
{
    SystemConfig cfg;
    cfg.design = design;
    cfg.dramCacheBytes = 1 << 20; // small for tests
    cfg.missPredictorExact = exact_predictor;
    return cfg;
}

TEST(MissPredictor, NeverHidesAPresentBlock)
{
    StatGroup g("t");
    MissPredictor p;
    p.init(64, 4096, &g, "p"); // tiny table: heavy aliasing
    Rng rng(5);
    std::vector<Addr> inserted;
    for (int i = 0; i < 500; ++i) {
        const Addr a = rng.below(1u << 28) & ~Addr(63);
        p.onInsert(a);
        inserted.push_back(a);
    }
    // Property: everything inserted must be predicted present.
    for (Addr a : inserted)
        EXPECT_TRUE(p.mayBePresent(a));
}

TEST(MissPredictor, RemovalEnablesAbsentPredictions)
{
    StatGroup g("t");
    MissPredictor p;
    p.init(4096, 4096, &g, "p");
    const Addr a = 0x123000;
    p.onInsert(a);
    EXPECT_TRUE(p.mayBePresent(a));
    p.onRemove(a);
    EXPECT_FALSE(p.mayBePresent(a));
    EXPECT_GT(p.absentPredictions(), 0u);
}

TEST(MissPredictor, RegionGranularity)
{
    StatGroup g("t");
    MissPredictor p;
    p.init(4096, 4096, &g, "p");
    p.onInsert(0x1000);
    // Same 4 KB region: predicted present (conservative).
    EXPECT_TRUE(p.mayBePresent(0x1040));
    EXPECT_TRUE(p.mayBePresent(0x1FC0));
}

TEST(DramCache, ProbeMissFastViaPredictor)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig();
    DramCache dc(eq, cfg, 0, &g);
    Tick done = 0;
    bool present = true;
    dc.probe(0x4000, [&](DramCacheProbe r) {
        done = eq.now();
        present = r.present;
    });
    eq.run();
    EXPECT_FALSE(present);
    // Predicted absent: only the predictor latency, no DRAM access.
    EXPECT_EQ(done, cfg.missPredictorLatency);
}

TEST(DramCache, InsertThenProbeHits)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig();
    DramCache dc(eq, cfg, 0, &g);
    dc.insert(0x4000, false);
    bool present = false;
    Tick done = 0;
    dc.probe(0x4000, [&](DramCacheProbe r) {
        present = r.present;
        done = eq.now();
    });
    eq.run();
    EXPECT_TRUE(present);
    // A hit pays predictor + 40 ns access + channel.
    EXPECT_GE(done, cfg.missPredictorLatency + cfg.dramCacheLatency);
}

TEST(DramCache, CleanDesignRejectsDirtyInsert)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig(Design::C3D);
    DramCache dc(eq, cfg, 0, &g);
    try {
        dc.insert(0x1000, /*dirty=*/true);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("dirty"),
                  std::string::npos);
    }
}

TEST(DramCache, DirtyDesignTracksDirtyBlocks)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig(Design::FullDir);
    DramCache dc(eq, cfg, 0, &g);
    dc.insert(0x1000, true);
    EXPECT_TRUE(dc.isDirty(0x1000));
    bool dirty = false;
    dc.probe(0x1000, [&](DramCacheProbe r) { dirty = r.dirty; });
    eq.run();
    EXPECT_TRUE(dirty);
}

TEST(DramCache, DirectMappedConflictEvicts)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig(Design::FullDir);
    DramCache dc(eq, cfg, 0, &g);
    const std::uint64_t capacity = dc.capacityBlocks();
    const Addr a = 0x0;
    const Addr b = capacity * BlockBytes; // same set (direct-mapped)
    dc.insert(a, true);
    DramCacheVictim v = dc.insert(b, false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, a);
    EXPECT_TRUE(v.dirty);
    EXPECT_FALSE(dc.contains(a));
    EXPECT_TRUE(dc.contains(b));

    // A non-power-of-two capacity maps by modulo: 3 MiB is 49152
    // blocks (--dram-cache-mb=96 at scale 32). Block k conflicts with
    // k + 49152, not with k + 32768 (where a mask would send it).
    SystemConfig odd = dcConfig(Design::FullDir);
    odd.dramCacheBytes = 3 << 20;
    StatGroup go("t");
    DramCache dco(eq, odd, 0, &go);
    ASSERT_EQ(dco.capacityBlocks(), 49152u);
    const Addr k = 5 * BlockBytes;
    dco.insert(k, true);
    EXPECT_FALSE(dco.insert(k + 32768 * BlockBytes, false).valid);
    EXPECT_TRUE(dco.contains(k));
    v = dco.insert(k + 49152 * BlockBytes, false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, k);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(dco.validBlocks(), 2u);
}

TEST(DramCache, VictimAddressRoundTripsAtTopOfAddressSpace)
{
    // The slot word keeps all 58 block-number bits: the highest block
    // comes back out of an eviction exactly, in both set mappings.
    EventQueue eq;
    for (const std::uint64_t bytes : {1ull << 20, 3ull << 20}) {
        StatGroup g("t");
        SystemConfig cfg = dcConfig(Design::FullDir);
        cfg.dramCacheBytes = bytes;
        DramCache dc(eq, cfg, 0, &g);
        const Addr top = 0xFFFFFFFFFFFFFFC0ull;
        dc.insert(top, true);
        EXPECT_TRUE(dc.contains(top));
        EXPECT_TRUE(dc.isDirty(top));
        const Addr conflict = top - dc.capacityBlocks() * BlockBytes;
        const DramCacheVictim v = dc.insert(conflict, false);
        ASSERT_TRUE(v.valid) << bytes;
        EXPECT_EQ(v.addr, top);
        EXPECT_TRUE(v.dirty);
        EXPECT_TRUE(dc.contains(conflict));
        EXPECT_FALSE(dc.contains(top));
    }
}

TEST(DramCache, InvalidateRemovesAndReports)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig(Design::FullDir);
    DramCache dc(eq, cfg, 0, &g);
    dc.insert(0x2000, true);
    bool was_present = false, was_dirty = false;
    dc.invalidate(0x2000, [&](bool p, bool d) {
        was_present = p;
        was_dirty = d;
    });
    eq.run();
    EXPECT_TRUE(was_present);
    EXPECT_TRUE(was_dirty);
    EXPECT_FALSE(dc.contains(0x2000));
}

TEST(DramCache, InvalidateAbsentIsFast)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig();
    DramCache dc(eq, cfg, 0, &g);
    Tick done = 0;
    dc.invalidate(0x9000, [&](bool p, bool) {
        EXPECT_FALSE(p);
        done = eq.now();
    });
    eq.run();
    EXPECT_EQ(done, cfg.missPredictorLatency);
}

TEST(DramCache, UpdateCleanRefreshesDirtyBlock)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig(Design::Snoopy);
    DramCache dc(eq, cfg, 0, &g);
    dc.insert(0x3000, true);
    EXPECT_TRUE(dc.isDirty(0x3000));
    dc.updateClean(0x3000);
    EXPECT_TRUE(dc.contains(0x3000));
    EXPECT_FALSE(dc.isDirty(0x3000));
}

TEST(DramCache, UpdateCleanAllocatesWhenAbsent)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig();
    DramCache dc(eq, cfg, 0, &g);
    dc.updateClean(0x5000);
    EXPECT_TRUE(dc.contains(0x5000));
    EXPECT_FALSE(dc.isDirty(0x5000));
}

TEST(DramCache, CountingPredictorStillSafe)
{
    // With the counting filter (non-exact), a present block must
    // still always be probed -- the conservative direction.
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig(Design::C3D, /*exact=*/false);
    DramCache dc(eq, cfg, 0, &g);
    Rng rng(9);
    std::vector<Addr> blocks;
    for (int i = 0; i < 200; ++i) {
        const Addr a = (rng.below(1u << 24)) & ~Addr(63);
        dc.insert(a, false);
        blocks.push_back(a);
    }
    for (Addr a : blocks) {
        // Later inserts may have evicted earlier blocks; the property
        // is that anything still resident is always probed (never
        // hidden by the filter).
        if (!dc.contains(a))
            continue;
        bool present = false;
        dc.probe(a, [&](DramCacheProbe r) { present = r.present; });
        eq.run();
        EXPECT_TRUE(present) << std::hex << a;
    }
}

TEST(DramCache, SlowerLatencyConfigRespected)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig();
    cfg.dramCacheLatency = nsToTicks(50); // Fig. 10 sweep point
    DramCache dc(eq, cfg, 0, &g);
    dc.insert(0x100, false);
    Tick done = 0;
    dc.probe(0x100, [&](DramCacheProbe) { done = eq.now(); });
    eq.run();
    EXPECT_GE(done, nsToTicks(50));
}

TEST(DramCache, TenantAttributionAndOccupancy)
{
    EventQueue eq;
    StatGroup g("t");
    SystemConfig cfg = dcConfig(Design::FullDir);
    DramCache dc(eq, cfg, 0, &g);
    dc.enableTenantTracking(2);
    ASSERT_TRUE(dc.tenantTrackingEnabled());

    // Tenant 0 fills a block and hits on it.
    dc.insert(0x1000, false, 0);
    EXPECT_EQ(dc.tenantOccupancy(0), 1u);
    EXPECT_EQ(dc.tenantOccupancy(1), 0u);
    bool present = false;
    dc.probe(0x1000, [&](DramCacheProbe r) { present = r.present; },
             false, 0);
    eq.run();
    EXPECT_TRUE(present);
    EXPECT_EQ(dc.tenantHitCount(0), 1u);
    EXPECT_EQ(dc.tenantMissCount(0), 0u);

    // Tenant 1 misses on an absent block (predictor short-circuit
    // path): the miss is attributed to tenant 1, not tenant 0.
    dc.probe(0x2000, [](DramCacheProbe) {}, false, 1);
    eq.run();
    EXPECT_EQ(dc.tenantMissCount(1), 1u);
    EXPECT_EQ(dc.tenantHitCount(1), 0u);
    EXPECT_EQ(dc.tenantMissCount(0), 0u);

    // A hit by tenant 1 on tenant 0's block re-owns it: occupancy is
    // a last-toucher gauge.
    dc.probe(0x1000, [](DramCacheProbe) {}, false, 1);
    eq.run();
    EXPECT_EQ(dc.tenantHitCount(1), 1u);
    EXPECT_EQ(dc.tenantOccupancy(0), 0u);
    EXPECT_EQ(dc.tenantOccupancy(1), 1u);

    // A conflict eviction releases the victim's occupancy as it
    // charges the inserter's.
    const Addr conflict = dc.capacityBlocks() * BlockBytes + 0x1000;
    dc.insert(conflict, false, 0);
    EXPECT_EQ(dc.tenantOccupancy(1), 0u);
    EXPECT_EQ(dc.tenantOccupancy(0), 1u);

    // Invalidation drops the owner's occupancy too.
    dc.invalidate(conflict, [](bool, bool) {});
    eq.run();
    EXPECT_EQ(dc.tenantOccupancy(0), 0u);
    EXPECT_EQ(dc.tenantOccupancy(1), 0u);

    // A clean refresh of a resident block keeps its owner unless a
    // tenant is named; a fresh, unnamed fill starts unowned.
    dc.insert(0x4000, false, 0);
    dc.updateClean(0x4000);
    EXPECT_EQ(dc.tenantOccupancy(0), 1u);
    dc.updateClean(0x4000, 1);
    EXPECT_EQ(dc.tenantOccupancy(0), 0u);
    EXPECT_EQ(dc.tenantOccupancy(1), 1u);
    dc.updateClean(0x8000);
    EXPECT_TRUE(dc.contains(0x8000));
    EXPECT_EQ(dc.tenantOccupancy(0) + dc.tenantOccupancy(1), 1u);

    // So does a dirty in-place insert (this design allows dirt).
    dc.insert(0x4000, true);
    EXPECT_TRUE(dc.isDirty(0x4000));
    EXPECT_EQ(dc.tenantOccupancy(1), 1u);
    dc.insert(0x4000, true, 0);
    EXPECT_EQ(dc.tenantOccupancy(0), 1u);
    EXPECT_EQ(dc.tenantOccupancy(1), 0u);
    dc.insert(0x4000, true, 0);
    EXPECT_EQ(dc.tenantOccupancy(0), 1u);
    EXPECT_EQ(dc.validBlocks(), 2u);
}

} // namespace
} // namespace c3d
