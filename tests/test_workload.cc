/**
 * @file
 * Unit tests for the synthetic workload generator and profiles.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/log.hh"
#include "common/sim_error.hh"
#include "mapping/page_mapper.hh"
#include "trace/workload.hh"

namespace c3d
{
namespace
{

TEST(WorkloadProfile, AllNamedProfilesExist)
{
    const auto profiles = parallelProfiles();
    ASSERT_EQ(profiles.size(), 9u);
    const std::set<std::string> names = {
        "facesim", "streamcluster", "freqmine", "fluidanimate",
        "canneal", "tunkrank", "nutch", "cassandra", "classification"};
    std::set<std::string> got;
    for (const auto &p : profiles)
        got.insert(p.name);
    EXPECT_EQ(got, names);
}

TEST(WorkloadProfile, LookupByName)
{
    EXPECT_EQ(profileByName("canneal").name, "canneal");
    EXPECT_EQ(profileByName("mcf").name, "mcf");
    EXPECT_TRUE(profileByName("mcf").singleThreaded);
}

TEST(WorkloadProfile, UnknownNamePanics)
{
    // A bad profile name fails its row as a SimError, not the process.
    try {
        profileByName("no-such-profile");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(e.message().find(
                      "unknown workload profile 'no-such-profile'"),
                  std::string::npos)
            << e.message();
    }
}

TEST(WorkloadProfile, PaperWorkingSetsAreLarge)
{
    // §V: paper selects PARSEC benchmarks with working sets over
    // 100 MB in native input.
    for (const auto &p : parallelProfiles()) {
        const std::uint64_t ws = p.sharedHotBytes + p.sharedColdBytes +
            p.streamBytes + p.migratoryBytes +
            32 * p.privateBytesPerThread;
        EXPECT_GT(ws, 100ull << 20) << p.name;
    }
}

TEST(WorkloadProfile, ScalingShrinksFootprints)
{
    WorkloadProfile p = cannealProfile();
    WorkloadProfile s = p.scaled(32);
    EXPECT_EQ(s.sharedColdBytes, p.sharedColdBytes / 32);
    EXPECT_EQ(s.privateBytesPerThread, p.privateBytesPerThread / 32);
    // Access mix is scale-invariant.
    EXPECT_EQ(s.fracSharedHot, p.fracSharedHot);
    EXPECT_EQ(s.writeFracShared, p.writeFracShared);
}

TEST(WorkloadProfile, ScalingFloorsAtOnePage)
{
    WorkloadProfile p;
    p.migratoryBytes = 8192;
    WorkloadProfile s = p.scaled(1024);
    EXPECT_EQ(s.migratoryBytes, PageBytes);
}

TEST(SyntheticWorkload, Deterministic)
{
    WorkloadProfile p = facesimProfile().scaled(64);
    SyntheticWorkload a(p, 8, 2), b(p, 8, 2);
    for (int i = 0; i < 5000; ++i) {
        for (CoreId c = 0; c < 8; ++c) {
            const TraceOp oa = a.next(c);
            const TraceOp ob = b.next(c);
            EXPECT_EQ(oa.addr, ob.addr);
            EXPECT_EQ(oa.op, ob.op);
            EXPECT_EQ(oa.gap, ob.gap);
        }
    }
}

TEST(SyntheticWorkload, CoresDiffer)
{
    WorkloadProfile p = facesimProfile().scaled(64);
    SyntheticWorkload wl(p, 4, 2);
    int same = 0;
    for (int i = 0; i < 200; ++i) {
        const TraceOp a = wl.next(0);
        const TraceOp b = wl.next(1);
        same += a.addr == b.addr;
    }
    EXPECT_LT(same, 20);
}

TEST(SyntheticWorkload, AddressesWithinFootprint)
{
    WorkloadProfile p = nutchProfile().scaled(64);
    SyntheticWorkload wl(p, 8, 2);
    const std::uint64_t footprint = wl.footprintBytes();
    for (int i = 0; i < 20000; ++i) {
        for (CoreId c = 0; c < 8; ++c) {
            const TraceOp op = wl.next(c);
            EXPECT_LT(op.addr, footprint + PageBytes);
        }
    }
}

TEST(SyntheticWorkload, WriteFractionRoughlyMatchesProfile)
{
    WorkloadProfile p;
    p.name = "wf";
    p.sharedHotBytes = 1 << 20;
    p.sharedColdBytes = 0;
    p.migratoryBytes = 0;
    p.privateBytesPerThread = 1 << 20;
    p.fracSharedHot = 0.5;
    p.fracSharedCold = 0;
    p.fracMigratory = 0;
    p.writeFracShared = 0.2;
    p.writeFracPrivate = 0.2;
    p.writeFracPrivateCold = 0.2;
    SyntheticWorkload wl(p, 2, 1);
    int writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        writes += wl.next(0).op == MemOp::Write;
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.2, 0.02);
}

TEST(SyntheticWorkload, MigratoryIsReadThenWrite)
{
    WorkloadProfile p;
    p.name = "migr";
    p.sharedHotBytes = 0;
    p.sharedColdBytes = 0;
    p.migratoryBytes = 1 << 20;
    p.privateBytesPerThread = PageBytes;
    p.fracSharedHot = 0;
    p.fracSharedCold = 0;
    p.fracMigratory = 1.0;
    SyntheticWorkload wl(p, 2, 1);
    for (int i = 0; i < 1000; ++i) {
        const TraceOp rd = wl.next(0);
        ASSERT_EQ(rd.op, MemOp::Read);
        const TraceOp wr = wl.next(0);
        ASSERT_EQ(wr.op, MemOp::Write);
        ASSERT_EQ(rd.addr, wr.addr);
    }
}

TEST(SyntheticWorkload, StreamSweepsSequentially)
{
    WorkloadProfile p;
    p.name = "stream";
    p.sharedHotBytes = 0;
    p.sharedColdBytes = 0;
    p.migratoryBytes = 0;
    p.privateBytesPerThread = PageBytes;
    p.streamBytes = 1 << 20;
    p.streamSegmentBytes = 64 * 1024;
    p.fracSharedHot = 0;
    p.fracSharedCold = 0;
    p.fracMigratory = 0;
    p.fracStream = 1.0;
    SyntheticWorkload wl(p, 2, 1);
    Addr prev = wl.next(0).addr;
    for (int i = 1; i < 500; ++i) {
        const Addr cur = wl.next(0).addr;
        if (cur != prev + BlockBytes) {
            // Segment boundary: jump to another segment start.
            EXPECT_EQ(cur % (64 * 1024), 0u);
        }
        prev = cur;
    }
}

TEST(SyntheticWorkload, SingleThreadedUsesOneCore)
{
    WorkloadProfile p = mcfProfile().scaled(64);
    SyntheticWorkload wl(p, 32, 8);
    EXPECT_EQ(wl.activeCores(32), 1u);
    EXPECT_EQ(wl.barrierInterval(), 0u);
}

TEST(SyntheticWorkload, PrivateRegionsAreDisjoint)
{
    WorkloadProfile p;
    p.name = "priv";
    p.sharedHotBytes = 0;
    p.sharedColdBytes = 0;
    p.migratoryBytes = 0;
    p.privateBytesPerThread = 1 << 20;
    p.fracSharedHot = 0;
    p.fracSharedCold = 0;
    p.fracMigratory = 0;
    SyntheticWorkload wl(p, 4, 2);
    std::map<CoreId, std::pair<Addr, Addr>> ranges;
    for (CoreId c = 0; c < 4; ++c) {
        Addr lo = ~Addr(0), hi = 0;
        for (int i = 0; i < 5000; ++i) {
            const Addr a = wl.next(c).addr;
            lo = std::min(lo, a);
            hi = std::max(hi, a);
        }
        ranges[c] = {lo, hi};
    }
    for (CoreId c = 0; c + 1 < 4; ++c)
        EXPECT_LT(ranges[c].second, ranges[c + 1].first);
}

TEST(SyntheticWorkload, PreTouchPinsSharedPagesUnderFT1)
{
    StatGroup g("t");
    WorkloadProfile p = facesimProfile().scaled(256);
    SyntheticWorkload wl(p, 4, 2);
    PageMapper m(MappingPolicy::FirstTouch1, 2, &g);
    wl.preTouchPages(m);
    EXPECT_GT(m.mappedPages(), 0u);
    // All pre-touched pages homed at socket 0 (the FT1 pathology).
    EXPECT_EQ(m.pagesAt(0), m.mappedPages());
    EXPECT_EQ(m.pagesAt(1), 0u);
}

TEST(SyntheticWorkload, BarrierIntervalFromProfile)
{
    WorkloadProfile p = facesimProfile();
    p.barrierOps = 1234;
    SyntheticWorkload wl(p, 4, 2);
    EXPECT_EQ(wl.barrierInterval(), 1234u);
}

} // namespace
} // namespace c3d
