/**
 * @file
 * Multi-tenant workload composition: manifest hashing/serialization
 * round-trips, loader diagnostics, and the ComposedWorkload
 * determinism contract (streams are pure functions of (manifest,
 * seed, core); assignment and arrival policies shape them exactly as
 * documented in docs/workloads.md).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/log.hh"
#include "exp/sweep_engine.hh"
#include "exp/sweep_grid.hh"
#include "trace/trace_file.hh"
#include "trace/workload.hh"
#include "workload/composed_workload.hh"
#include "workload/composition.hh"

namespace c3d
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "c3d_composition_" + name;
}

/** Record a small deterministic 2-core trace; @p salt perturbs it. */
TraceFileInfo
writeTrace(const std::string &path, Addr salt = 0)
{
    TraceFileWriter w(path, 2);
    for (std::uint32_t i = 0; i < 200; ++i) {
        for (std::uint16_t c = 0; c < 2; ++c) {
            const Addr base = (i * 13 + c * 101 + salt) % 256;
            w.append({c, static_cast<std::uint16_t>(i % 4),
                      i % 5 == 0 ? MemOp::Write : MemOp::Read,
                      base * 64});
        }
    }
    w.close();
    TraceFileInfo info;
    std::string error;
    EXPECT_TRUE(scanTraceFile(path, info, error)) << error;
    return info;
}

/** Two-tenant spec over freshly recorded traces a/b. */
CompositionSpec
twoTenantSpec(const std::string &path_a, const std::string &path_b,
              Addr salt_b = 7)
{
    CompositionSpec spec;
    spec.name = "testmix";
    spec.seed = 42;
    spec.tenants.push_back(
        {path_a, writeTrace(path_a).contentHash, 0, 0});
    spec.tenants.push_back(
        {path_b, writeTrace(path_b, salt_b).contentHash, 0, 0});
    return spec;
}

void
removeTenants(const CompositionSpec &spec)
{
    for (const TenantSpec &t : spec.tenants)
        std::remove(t.tracePath.c_str());
}

TEST(CompositionModel, HashIgnoresPathsButTracksEveryField)
{
    CompositionSpec spec = twoTenantSpec(tempPath("ha.c3dt"),
                                         tempPath("hb.c3dt"));
    const std::uint64_t base = compositionHashOf(spec);

    // Paths (and the manifest's own path) are not identity.
    CompositionSpec moved = spec;
    moved.tenants[0].tracePath = "/elsewhere/ha.c3dt";
    moved.manifestPath = tempPath("other.json");
    EXPECT_EQ(compositionHashOf(moved), base);

    // Every stream-shaping field is.
    CompositionSpec m = spec;
    m.seed = 43;
    EXPECT_NE(compositionHashOf(m), base);
    m = spec;
    m.name = "othermix";
    EXPECT_NE(compositionHashOf(m), base);
    m = spec;
    m.assignment = AssignPolicy::Interleave;
    EXPECT_NE(compositionHashOf(m), base);
    m = spec;
    m.arrival = ArrivalProcess::Staggered;
    m.staggerGap = 10;
    EXPECT_NE(compositionHashOf(m), base);
    m = spec;
    m.tenants[1].traceHash ^= 1; // member content changed
    EXPECT_NE(compositionHashOf(m), base);
    m = spec;
    m.tenants[0].phasePeriodOps = 50;
    EXPECT_NE(compositionHashOf(m), base);

    // Tenant order matters (it decides core assignment).
    m = spec;
    std::swap(m.tenants[0], m.tenants[1]);
    EXPECT_NE(compositionHashOf(m), base);

    removeTenants(spec);
}

TEST(CompositionModel, WorkloadNameCarriesBasenameAndHash)
{
    const std::string name =
        compositionWorkloadName("/corpus/mix.json", 0x1122334455667788);
    EXPECT_EQ(name.rfind("compose:mix.json@", 0), 0u);
    // hash8 folds high into low 32 bits:
    // 0x55667788 ^ 0x11223344 = 0x444444cc.
    EXPECT_EQ(name.substr(name.find('@') + 1), "444444cc");
}

TEST(CompositionModel, ManifestRoundTripsThroughJson)
{
    CompositionSpec spec = twoTenantSpec(tempPath("ra.c3dt"),
                                         tempPath("rb.c3dt"));
    spec.assignment = AssignPolicy::Interleave;
    spec.arrival = ArrivalProcess::Staggered;
    spec.staggerGap = 96;
    spec.tenants[1].phasePeriodOps = 64;
    spec.tenants[1].phaseSkipOps = 16;

    const std::string manifest = tempPath("roundtrip.json");
    std::FILE *f = std::fopen(manifest.c_str(), "w");
    ASSERT_NE(f, nullptr);
    const std::string json = compositionToJson(spec);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);

    CompositionSpec back;
    std::string error;
    ASSERT_TRUE(loadComposition(manifest, back, error)) << error;
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.assignment, spec.assignment);
    EXPECT_EQ(back.arrival, spec.arrival);
    EXPECT_EQ(back.staggerGap, spec.staggerGap);
    ASSERT_EQ(back.tenants.size(), spec.tenants.size());
    EXPECT_EQ(back.tenants[1].phasePeriodOps, 64u);
    EXPECT_EQ(back.tenants[1].phaseSkipOps, 16u);
    EXPECT_EQ(compositionHashOf(back), compositionHashOf(spec));
    EXPECT_EQ(back.manifestPath, manifest);

    std::remove(manifest.c_str());
    removeTenants(spec);
}

TEST(CompositionModel, RelativeMemberPathsResolveAgainstManifestDir)
{
    const std::string dir = tempPath("reldir");
    ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
    const std::string trace = dir + "/member.c3dt";
    const TraceFileInfo info = writeTrace(trace);

    CompositionSpec spec;
    spec.tenants.push_back({"member.c3dt", info.contentHash, 0, 0});
    spec.tenants.push_back({"member.c3dt", info.contentHash, 0, 0});
    const std::string manifest = dir + "/mix.json";
    std::FILE *f = std::fopen(manifest.c_str(), "w");
    ASSERT_NE(f, nullptr);
    const std::string json = compositionToJson(spec);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);

    CompositionSpec back;
    std::string error;
    ASSERT_TRUE(loadComposition(manifest, back, error)) << error;
    EXPECT_EQ(back.tenants[0].tracePath, trace);

    std::remove(manifest.c_str());
    std::remove(trace.c_str());
    rmdir(dir.c_str());
}

TEST(CompositionModel, LoaderRejectsDefectiveManifests)
{
    const std::string manifest = tempPath("bad.json");
    const auto expectLoadError = [&](const std::string &json,
                                     const std::string &needle) {
        std::FILE *f = std::fopen(manifest.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        CompositionSpec out;
        std::string error;
        EXPECT_FALSE(loadComposition(manifest, out, error));
        EXPECT_NE(error.find(needle), std::string::npos)
            << "error was: " << error;
    };

    expectLoadError("{\"schema\": \"c3d-compose/v0\"}", "schema");
    expectLoadError("not json at all", "");
    expectLoadError(
        "{\"schema\": \"c3d-compose/v1\", \"name\": \"m\", "
        "\"seed\": 1, \"assignment\": \"diagonal\", "
        "\"arrival\": \"fixed\", \"arrival_mean_gap\": 0, "
        "\"stagger_gap\": 0, \"tenants\": []}",
        "block|interleave");
    expectLoadError(
        "{\"schema\": \"c3d-compose/v1\", \"name\": \"m\", "
        "\"seed\": 1, \"assignment\": \"block\", "
        "\"arrival\": \"sometimes\", \"arrival_mean_gap\": 0, "
        "\"stagger_gap\": 0, \"tenants\": []}",
        "fixed|poisson|staggered");
    expectLoadError(
        "{\"schema\": \"c3d-compose/v1\", \"name\": \"m\", "
        "\"seed\": 1, \"assignment\": \"block\", "
        "\"arrival\": \"fixed\", \"arrival_mean_gap\": 0, "
        "\"stagger_gap\": 0, \"tenants\": []}",
        "tenant");
    expectLoadError(
        "{\"schema\": \"c3d-compose/v1\", \"name\": \"m\", "
        "\"seed\": 1, \"assignment\": \"block\", "
        "\"arrival\": \"fixed\", \"arrival_mean_gap\": 0, "
        "\"stagger_gap\": 0, \"tenants\": [{\"trace\": \"t.c3dt\", "
        "\"hash\": \"nothex\", \"phase_period_ops\": 0, "
        "\"phase_skip_ops\": 0}]}",
        "hash");
    expectLoadError(
        "{\"schema\": \"c3d-compose/v1\", \"name\": \"m\", "
        "\"seed\": 1, \"assignment\": \"block\", "
        "\"arrival\": \"fixed\", \"arrival_mean_gap\": 0, "
        "\"stagger_gap\": 0, \"tenants\": [{\"trace\": \"t.c3dt\", "
        "\"hash\": \"00000000000000aa\", \"phase_period_ops\": 0, "
        "\"phase_skip_ops\": 8}]}",
        "phase_skip_ops without phase_period_ops");

    std::remove(manifest.c_str());
}

TEST(CompositionModel, LoaderRefusesModifiedMemberTrace)
{
    const std::string trace = tempPath("pinned.c3dt");
    CompositionSpec spec;
    spec.tenants.push_back(
        {trace, writeTrace(trace).contentHash, 0, 0});
    spec.tenants.push_back(
        {trace, spec.tenants[0].traceHash, 0, 0});
    const std::string manifest = tempPath("pinned.json");
    std::FILE *f = std::fopen(manifest.c_str(), "w");
    ASSERT_NE(f, nullptr);
    const std::string json = compositionToJson(spec);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);

    // Untouched member: loads.
    CompositionSpec out;
    std::string error;
    ASSERT_TRUE(loadComposition(manifest, out, error)) << error;

    // Rewrite the member with different contents: refused, with the
    // documented diagnostic.
    writeTrace(trace, /*salt=*/5);
    EXPECT_FALSE(loadComposition(manifest, out, error));
    EXPECT_NE(error.find("changed since the manifest was composed"),
              std::string::npos)
        << "error was: " << error;

    // ... unless member validation is deferred (the sweep hot path).
    EXPECT_TRUE(loadComposition(manifest, out, error, false)) << error;

    std::remove(manifest.c_str());
    std::remove(trace.c_str());
}

TEST(CompositionModel, ProfileNamesManifestAndFoldsIntoFingerprint)
{
    CompositionSpec spec = twoTenantSpec(tempPath("pa.c3dt"),
                                         tempPath("pb.c3dt"));
    const std::string manifest = tempPath("profile.json");
    std::FILE *f = std::fopen(manifest.c_str(), "w");
    ASSERT_NE(f, nullptr);
    const std::string json = compositionToJson(spec);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);

    WorkloadProfile p;
    std::string error;
    ASSERT_TRUE(loadCompositionProfile(manifest, p, error)) << error;
    EXPECT_TRUE(p.isComposition());
    EXPECT_FALSE(p.isTrace());
    EXPECT_EQ(p.compositionPath, manifest);
    EXPECT_EQ(p.compositionHash, compositionHashOf(spec));
    EXPECT_EQ(p.seed, spec.seed);
    EXPECT_EQ(p.name,
              compositionWorkloadName(manifest, p.compositionHash));

    exp::SweepGrid grid;
    grid.workloads = {p};
    grid.designs = {Design::Baseline};
    grid.sockets = {2};
    const std::string fp = exp::gridFingerprint(grid.expand());

    // Same manifest: stable fingerprint.
    WorkloadProfile p2;
    ASSERT_TRUE(loadCompositionProfile(manifest, p2, error)) << error;
    grid.workloads = {p2};
    EXPECT_EQ(fp, exp::gridFingerprint(grid.expand()));

    // A re-recorded member changes the composition hash, hence the
    // fingerprint -- resume/merge refuse the stale journal.
    writeTrace(spec.tenants[0].tracePath, /*salt=*/9);
    std::FILE *f2 = std::fopen(manifest.c_str(), "w");
    ASSERT_NE(f2, nullptr);
    CompositionSpec repinned = spec;
    repinned.tenants[0].traceHash =
        writeTrace(spec.tenants[0].tracePath, /*salt=*/9).contentHash;
    const std::string json2 = compositionToJson(repinned);
    std::fwrite(json2.data(), 1, json2.size(), f2);
    std::fclose(f2);
    WorkloadProfile p3;
    ASSERT_TRUE(loadCompositionProfile(manifest, p3, error)) << error;
    grid.workloads = {p3};
    EXPECT_NE(fp, exp::gridFingerprint(grid.expand()));

    std::remove(manifest.c_str());
    removeTenants(spec);
}

/** Drain @p n ops from @p core of a fresh workload built over spec. */
std::vector<TraceOp>
drain(const CompositionSpec &spec, std::uint64_t seed,
      std::uint32_t total_cores, std::uint32_t core, std::size_t n)
{
    ComposedWorkload wl(spec, seed, total_cores);
    std::vector<TraceOp> ops;
    for (std::size_t i = 0; i < n; ++i)
        ops.push_back(wl.next(core));
    return ops;
}

bool
sameOps(const std::vector<TraceOp> &a, const std::vector<TraceOp> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].gap != b[i].gap || a[i].op != b[i].op ||
            a[i].addr != b[i].addr)
            return false;
    return true;
}

TEST(ComposedWorkloadTest, StreamsAreDeterministicPerSeed)
{
    setQuiet(true);
    CompositionSpec spec = twoTenantSpec(tempPath("da.c3dt"),
                                         tempPath("db.c3dt"));
    spec.arrival = ArrivalProcess::Poisson;
    spec.arrivalMeanGap = 32;

    // Same (spec, seed, core): identical streams across instances.
    EXPECT_TRUE(sameOps(drain(spec, 42, 4, 0, 50),
                        drain(spec, 42, 4, 0, 50)));
    EXPECT_TRUE(sameOps(drain(spec, 42, 4, 3, 50),
                        drain(spec, 42, 4, 3, 50)));

    // A different seed reseeds the Poisson arrivals: the first op's
    // gap moves, the reference addresses do not.
    const std::vector<TraceOp> s42 = drain(spec, 42, 4, 0, 50);
    const std::vector<TraceOp> s43 = drain(spec, 43, 4, 0, 50);
    EXPECT_EQ(s42[0].addr, s43[0].addr);
    EXPECT_EQ(s42[10].addr, s43[10].addr);
    EXPECT_EQ(s42[1].gap, s43[1].gap); // only the first op differs

    removeTenants(spec);
}

TEST(ComposedWorkloadTest, BlockAndInterleaveAssignCoresAsDocumented)
{
    setQuiet(true);
    CompositionSpec spec = twoTenantSpec(tempPath("aa.c3dt"),
                                         tempPath("ab.c3dt"));

    {
        ComposedWorkload wl(spec, 1, 4);
        EXPECT_EQ(wl.tenantCount(), 2u);
        // Block: tenant 0 gets cores 0..1 (its trace has 2 lanes),
        // tenant 1 the next two.
        const std::vector<std::int32_t> &ct = wl.coreTenants();
        ASSERT_EQ(ct.size(), 4u);
        EXPECT_EQ(ct[0], 0);
        EXPECT_EQ(ct[1], 0);
        EXPECT_EQ(ct[2], 1);
        EXPECT_EQ(ct[3], 1);
        EXPECT_EQ(wl.activeCores(4), 4u);

        const std::vector<std::string> names = wl.tenantNames();
        ASSERT_EQ(names.size(), 2u);
        EXPECT_EQ(names[0].rfind("t0:", 0), 0u);
        EXPECT_EQ(names[1].rfind("t1:", 0), 0u);
        EXPECT_NE(names[0].find("aa.c3dt@"), std::string::npos);
    }
    {
        spec.assignment = AssignPolicy::Interleave;
        ComposedWorkload wl(spec, 1, 4);
        const std::vector<std::int32_t> &ct = wl.coreTenants();
        EXPECT_EQ(ct[0], 0);
        EXPECT_EQ(ct[1], 1);
        EXPECT_EQ(ct[2], 0);
        EXPECT_EQ(ct[3], 1);
    }
    {
        // More cores than lanes: surplus cores stay idle.
        ComposedWorkload wl(spec, 1, 8);
        EXPECT_EQ(wl.activeCores(8), 4u);
        EXPECT_EQ(wl.coreTenants()[4], -1);
    }

    removeTenants(spec);
}

TEST(ComposedWorkloadTest, StaggeredArrivalDelaysOnlyTheFirstOp)
{
    setQuiet(true);
    CompositionSpec spec = twoTenantSpec(tempPath("sa.c3dt"),
                                         tempPath("sb.c3dt"));
    spec.arrival = ArrivalProcess::Staggered;
    spec.staggerGap = 500;

    // Block assignment: core 0 is tenant 0 (no delay), core 2 is
    // tenant 1 (one staggerGap late, encoded as extra compute on the
    // first op only).
    CompositionSpec fixed = spec;
    fixed.arrival = ArrivalProcess::Fixed;
    const std::vector<TraceOp> t0 = drain(spec, 1, 4, 0, 20);
    const std::vector<TraceOp> t1 = drain(spec, 1, 4, 2, 20);
    const std::vector<TraceOp> t1f = drain(fixed, 1, 4, 2, 20);
    EXPECT_EQ(t0[0].gap, t1f[0].gap + 0u); // tenant 0: no stagger
    EXPECT_EQ(t1[0].gap, t1f[0].gap + 500u);
    for (std::size_t i = 1; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i].gap, t1f[i].gap);
        EXPECT_EQ(t1[i].addr, t1f[i].addr);
    }

    removeTenants(spec);
}

TEST(ComposedWorkloadTest, PhaseMixingSkipsRecordsAtEachBoundary)
{
    setQuiet(true);
    CompositionSpec spec = twoTenantSpec(tempPath("fa.c3dt"),
                                         tempPath("fb.c3dt"));
    CompositionSpec phased = spec;
    phased.tenants[0].phasePeriodOps = 10;
    phased.tenants[0].phaseSkipOps = 3;

    const std::vector<TraceOp> plain = drain(spec, 1, 4, 0, 30);
    const std::vector<TraceOp> mixed = drain(phased, 1, 4, 0, 30);

    // First period matches; at op 10 the phased stream has jumped 3
    // records ahead of the plain one.
    EXPECT_TRUE(sameOps({plain.begin(), plain.begin() + 10},
                        {mixed.begin(), mixed.begin() + 10}));
    EXPECT_EQ(mixed[10].addr, plain[13].addr);
    EXPECT_EQ(mixed[19].addr, plain[22].addr);
    // Second boundary: cumulative skip of 6.
    EXPECT_EQ(mixed[20].addr, plain[26].addr);

    // Phase mixing is deterministic too.
    EXPECT_TRUE(sameOps(mixed, drain(phased, 1, 4, 0, 30)));

    removeTenants(spec);
}

// ---- golden-file differential ---------------------------------------

/**
 * Record @p ops records per lane of @p profile's 4-core stream at
 * scale 256, as `c3d-trace record` does.
 */
std::uint64_t
recordProfile(const std::string &path, const char *profile,
              std::uint64_t seed, std::uint64_t ops)
{
    WorkloadProfile p = profileByName(profile);
    p.seed = seed;
    SyntheticWorkload wl(p.scaled(256), 4);
    const std::uint32_t lanes = wl.activeCores(4);
    TraceFileWriter w(path, lanes);
    for (std::uint64_t i = 0; i < ops; ++i) {
        for (std::uint16_t c = 0; c < lanes; ++c) {
            const TraceOp op = wl.next(c);
            w.append({c,
                      static_cast<std::uint16_t>(
                          std::min<std::uint32_t>(op.gap, 0xFFFF)),
                      op.op, op.addr});
        }
    }
    w.close();
    TraceFileInfo info;
    std::string error;
    EXPECT_TRUE(scanTraceFile(path, info, error)) << error;
    return info.contentHash;
}

TEST(ComposedGolden, TenantColumnsMatchCommittedBytes)
{
    // The per-tenant columns (DRAM-cache occupancy, hits, misses) are
    // fed by the DRAM cache's owner bookkeeping. Pin a composed grid
    // -- a clean (c3d), a dirty (snoopy) and a full-directory DRAM
    // cache on 2 and 4 sockets -- to its committed JSON. Basenames
    // are fixed: they reach the workload and tenant names.
    std::ifstream gf(std::string(C3D_TEST_SOURCE_DIR) +
                     "/golden/composed_tenants.json");
    ASSERT_TRUE(gf.good()) << "missing tests/golden file";
    std::stringstream golden;
    golden << gf.rdbuf();

    CompositionSpec spec;
    spec.name = "goldmix";
    spec.seed = 7;
    spec.assignment = AssignPolicy::Interleave;
    spec.arrival = ArrivalProcess::Staggered;
    spec.staggerGap = 64;
    const std::string path_a = tempPath("golden_a.c3dt");
    const std::string path_b = tempPath("golden_b.c3dt");
    spec.tenants.push_back(
        {path_a, recordProfile(path_a, "nutch", 11, 600), 0, 0});
    spec.tenants.push_back(
        {path_b, recordProfile(path_b, "cassandra", 13, 600), 0, 0});
    const std::string manifest = tempPath("goldmix.json");
    std::ofstream(manifest, std::ios::trunc) << compositionToJson(spec);

    WorkloadProfile composed;
    std::string error;
    ASSERT_TRUE(loadCompositionProfile(manifest, composed, error))
        << error;
    exp::SweepGrid grid;
    grid.workloads = {composed};
    grid.designs = {Design::C3D, Design::Snoopy, Design::C3DFullDir};
    grid.sockets = {2, 4};
    grid = exp::quickPreset(std::move(grid));
    EXPECT_EQ(exp::SweepEngine(2).run(grid).toJson(), golden.str());

    std::remove(manifest.c_str());
    removeTenants(spec);
}

} // namespace
} // namespace c3d
