/**
 * @file
 * Tests for the experiment subsystem: grid expansion (count,
 * ordering, config resolution), thread-pool determinism (the same
 * grid yields identical result rows whatever the worker count),
 * shared simulation of grid points on inert axes (byte-identical to
 * per-row runs), and JSON/CSV round-trips.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "common/log.hh"
#include "common/sim_error.hh"
#include "exp/json.hh"
#include "exp/sweep_engine.hh"
#include "test_helpers.hh"

namespace c3d
{
namespace
{

/** A fast two-workload grid: seconds-scale even at --jobs 1. */
exp::SweepGrid
smallGrid()
{
    exp::SweepGrid grid;
    grid.workloads = {profileByName("facesim"),
                      profileByName("canneal")};
    grid.designs = {Design::Baseline, Design::C3D};
    grid.scale = 256;
    grid.coresPerSocket = 2;
    grid.warmupOps = 300;
    grid.measureOps = 1200;
    return grid;
}

TEST(SweepGrid, ExpansionCountMatchesAxisProduct)
{
    exp::SweepGrid grid = smallGrid();
    grid.sockets = {2, 4};
    grid.dramCacheMb = {0, 256};
    grid.mappings = {MappingPolicy::Interleave,
                     MappingPolicy::FirstTouch2};
    EXPECT_EQ(grid.size(), 2u * 2 * 2 * 2 * 2);
    const std::vector<exp::RunSpec> specs = grid.expand();
    ASSERT_EQ(specs.size(), grid.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(specs[i].index, i);
}

TEST(SweepGrid, ExpansionOrderIsNestedLoops)
{
    exp::SweepGrid grid = smallGrid();
    grid.designs = {Design::Baseline, Design::Snoopy, Design::C3D};
    grid.sockets = {2, 4};
    const std::vector<exp::RunSpec> specs = grid.expand();
    ASSERT_EQ(specs.size(), 2u * 3 * 2);

    // Workload is the outermost axis, sockets the innermost here;
    // the expansion is a plain nested loop over (w, d, s).
    std::size_t i = 0;
    for (std::size_t w = 0; w < 2; ++w) {
        for (std::size_t d = 0; d < 3; ++d) {
            for (std::size_t s = 0; s < 2; ++s, ++i) {
                EXPECT_EQ(specs[i].workloadIdx, w);
                EXPECT_EQ(specs[i].designIdx, d);
                EXPECT_EQ(specs[i].socketIdx, s);
                EXPECT_EQ(specs[i].cfg.design, grid.designs[d]);
                EXPECT_EQ(specs[i].cfg.numSockets, grid.sockets[s]);
                EXPECT_EQ(specs[i].profile.name,
                          grid.workloads[w].name);
            }
        }
    }
}

// at() matches every identity column a pattern pins, whichever axis
// it comes from: each grid point is found by its values on all eight
// axes, and a value no row has matches nothing.
TEST(ResultTable, AtMatchesEveryPinnedAxis)
{
    exp::SweepGrid grid = smallGrid();
    grid.protocols = {Protocol::Mesi, Protocol::Moesi};
    grid.predictors = {PredictorKind::Region, PredictorKind::Perceptron};
    grid.sockets = {2, 4};
    grid.dramCacheMb = {0, 256};
    grid.mappings = {MappingPolicy::Interleave,
                     MappingPolicy::FirstTouch2};
    grid.variants = {{"a", nullptr}, {"b", nullptr}};
    const exp::ResultTable table = exp::SweepEngine(1).run(
        grid, [](const exp::RunSpec &) { return RunResult{}; });
    const std::vector<exp::RunSpec> specs = grid.expand();
    ASSERT_EQ(table.size(), specs.size());
    for (const exp::RunSpec &spec : specs) {
        const exp::ResultRow &row = table.at(
            exp::RowPattern()
                .workload(spec.profile.name)
                .variant(spec.variantName)
                .design(spec.cfg.design)
                .where("protocol", protocolName(spec.cfg.protocol))
                .where("predictor",
                       predictorKindName(spec.cfg.predictorKind))
                .sockets(spec.cfg.numSockets)
                .where("dram_cache_mb", std::to_string(spec.dramCacheMb))
                .mapping(spec.cfg.mapping));
        EXPECT_EQ(row.identityKey(), exp::specIdentityKey(spec));
    }
    EXPECT_THROW(table.at(exp::RowPattern().where("dram_cache_mb", "512")),
                 SimError);
}

// at() finds rows by value, so it works on a table appended from
// grids whose axes are ordered differently, where one grid's ordinals
// name another grid's rows. A pattern that matches no row, or more
// than one, throws instead of guessing.
TEST(ResultTable, AtFindsRowsByValueAcrossGrids)
{
    exp::SweepGrid a = smallGrid();
    a.variants = {{"", nullptr}, {"x", nullptr}};
    a.sockets = {2, 4};
    a.mappings = {MappingPolicy::Interleave, MappingPolicy::FirstTouch2};
    exp::SweepGrid b = a;
    b.workloads = {a.workloads[1], a.workloads[0]};
    b.variants = {{"y", nullptr}, {"", nullptr}};
    b.designs = {Design::C3D, Design::Baseline};
    b.sockets = {4, 2};
    b.mappings = {MappingPolicy::FirstTouch2, MappingPolicy::FirstTouch1};

    // Each row's ticks name its grid and ordinal.
    exp::ResultTable table;
    for (const exp::SweepGrid *g : {&a, &b}) {
        const std::uint64_t tag = g == &a ? 1000 : 2000;
        table.append(exp::SweepEngine(1).run(
            *g, [tag](const exp::RunSpec &spec) {
                RunResult m;
                m.measuredTicks = tag + spec.index;
                return m;
            }));
    }

    std::size_t checked = 0;
    for (const exp::SweepGrid *g : {&a, &b}) {
        const std::uint64_t tag = g == &a ? 1000 : 2000;
        for (const exp::RunSpec &spec : g->expand()) {
            if (spec.variantName.empty() &&
                spec.cfg.mapping == MappingPolicy::FirstTouch2)
                continue; // a point of both grids: ambiguous below
            const exp::ResultRow &row = table.at(
                exp::RowPattern()
                    .workload(spec.profile.name)
                    .variant(spec.variantName)
                    .design(spec.cfg.design)
                    .sockets(spec.cfg.numSockets)
                    .mapping(spec.cfg.mapping));
            EXPECT_EQ(row.metrics.measuredTicks, tag + spec.index);
            EXPECT_EQ(row.identityKey(), exp::specIdentityKey(spec));
            ++checked;
        }
    }
    EXPECT_EQ(checked, a.size() + b.size() - 2 * 8);

    // A later pin of the same column replaces the earlier one.
    EXPECT_EQ(table
                  .at(exp::RowPattern()
                          .workload("canneal")
                          .variant("y")
                          .design(Design::C3D)
                          .sockets(2)
                          .sockets(4)
                          .mapping(MappingPolicy::FirstTouch1))
                  .sockets,
              4u);

    // The shared default-variant FT2 points appear once per grid.
    EXPECT_THROW(table.at(exp::RowPattern()
                              .workload("facesim")
                              .variant("")
                              .design(Design::C3D)
                              .sockets(4)
                              .mapping(MappingPolicy::FirstTouch2)),
                 SimError);
    EXPECT_THROW(table.at(exp::RowPattern().workload("facesim")), SimError);
    EXPECT_THROW(table.at(exp::RowPattern().variant("z")), SimError);
    EXPECT_THROW(table.at(exp::RowPattern()
                              .variant("x")
                              .mapping(MappingPolicy::FirstTouch1)),
                 SimError);
    EXPECT_THROW(exp::RowPattern().where("measured_ticks", "0"), SimError);
    EXPECT_THROW(exp::RowPattern().where("no_such_column", "0"), SimError);
}

TEST(SweepGrid, ResolvesConfigKnobs)
{
    exp::SweepGrid grid = smallGrid();
    grid.coresPerSocket = 0; // paper rule
    grid.sockets = {2, 4};
    grid.dramCacheMb = {512};
    grid.variants = {
        {"slow-hop",
         [](SystemConfig &c) { c.hopLatency = nsToTicks(99); }}};
    const std::vector<exp::RunSpec> specs = grid.expand();
    ASSERT_EQ(specs.size(), 2u * 2 * 2);
    for (const exp::RunSpec &spec : specs) {
        EXPECT_EQ(spec.cfg.coresPerSocket,
                  spec.cfg.numSockets == 2 ? 16u : 8u);
        // The 512 MB axis value is divided by the capacity scale.
        EXPECT_EQ(spec.cfg.dramCacheBytes,
                  std::max<std::uint64_t>((512ull << 20) / grid.scale,
                                          1 << 20));
        EXPECT_EQ(spec.cfg.hopLatency, nsToTicks(99));
        EXPECT_EQ(spec.variantName, "slow-hop");
        EXPECT_EQ(spec.dramCacheMb, 512u);
    }
}

TEST(SweepGrid, SeedOverrideAndAutoWarmup)
{
    exp::SweepGrid grid = smallGrid();
    grid.seed = 1234;
    grid.warmupOps = 0; // auto
    const std::vector<exp::RunSpec> specs = grid.expand();
    for (const exp::RunSpec &spec : specs) {
        EXPECT_EQ(spec.profile.seed, 1234u);
        EXPECT_EQ(spec.warmupOps,
                  exp::autoWarmupOps(spec.profile));
    }

    WorkloadProfile scan = profileByName("streamcluster");
    EXPECT_GT(exp::autoWarmupOps(scan), exp::autoWarmupOps(
        profileByName("facesim")));
}

TEST(SweepEngine, DeterministicAcrossWorkerCounts)
{
    setQuiet(true);
    const exp::SweepGrid grid = smallGrid();
    const exp::ResultTable serial = exp::SweepEngine(1).run(grid);
    const exp::ResultTable pool4 = exp::SweepEngine(4).run(grid);
    const exp::ResultTable pool8 = exp::SweepEngine(8).run(grid);

    EXPECT_TRUE(serial.sameRows(pool4));
    EXPECT_TRUE(serial.sameRows(pool8));
    // Byte-identical serialization, not just equal metrics.
    EXPECT_EQ(serial.toJson(), pool8.toJson());
    EXPECT_EQ(serial.toCsv(), pool8.toCsv());
}

TEST(SweepEngine, MatchesDirectRunnerCall)
{
    setQuiet(true);
    exp::SweepGrid grid = smallGrid();
    grid.workloads.resize(1);
    grid.designs = {Design::C3D};
    const exp::ResultTable table = exp::SweepEngine(2).run(grid);
    ASSERT_EQ(table.size(), 1u);

    const exp::RunSpec spec = grid.expand().at(0);
    const RunResult direct =
        runWorkload(spec.cfg, spec.profile.scaled(spec.scale),
                    spec.warmupOps, spec.measureOps);
    const RunResult &viaEngine = table.rows()[0].metrics;
    EXPECT_EQ(direct.measuredTicks, viaEngine.measuredTicks);
    EXPECT_EQ(direct.instructions, viaEngine.instructions);
    EXPECT_EQ(direct.memReads, viaEngine.memReads);
    EXPECT_EQ(direct.interSocketBytes, viaEngine.interSocketBytes);
}

TEST(SweepEngine, CustomRunFunctionKeepsGridOrder)
{
    exp::SweepGrid grid = smallGrid();
    grid.designs = {Design::Baseline, Design::Snoopy, Design::C3D};
    const auto fake = [](const exp::RunSpec &spec) {
        RunResult m;
        m.measuredTicks = 1000 + spec.index;
        m.instructions = spec.index;
        return m;
    };
    const exp::ResultTable table = exp::SweepEngine(8).run(grid, fake);
    ASSERT_EQ(table.size(), grid.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(table.rows()[i].metrics.measuredTicks, 1000 + i);
        EXPECT_EQ(table.rows()[i].metrics.instructions, i);
    }
}

TEST(SweepEngine, ProgressReportsEveryRun)
{
    exp::SweepGrid grid = smallGrid();
    const auto fake = [](const exp::RunSpec &) { return RunResult{}; };
    exp::SweepEngine engine(4);
    std::size_t calls = 0, last_total = 0;
    engine.setProgress([&](const exp::RunSpec &spec, std::size_t,
                           std::size_t total, std::size_t source) {
        ++calls;
        last_total = total;
        EXPECT_EQ(source, spec.index); // a custom fn never shares
    });
    engine.run(grid, fake);
    EXPECT_EQ(calls, grid.size());
    EXPECT_EQ(last_total, grid.size());
}

/**
 * Every axis the relevance predicates know, at the quick preset: all
 * five designs x four protocols x both predictors x two DRAM-cache
 * sizes, with and without a DRAM cache (variant patch).
 */
exp::SweepGrid
predicateGrid()
{
    exp::SweepGrid grid;
    grid.workloads = {profileByName("facesim")};
    grid.designs = {Design::Baseline, Design::Snoopy, Design::FullDir,
                    Design::C3D, Design::C3DFullDir};
    grid.protocols = {Protocol::Mesi, Protocol::Mesif, Protocol::Moesi,
                      Protocol::Dragon};
    grid.predictors = {PredictorKind::Region, PredictorKind::Perceptron};
    grid.dramCacheMb = {0, 256};
    grid.variants = {{"", nullptr},
                     {"no-dram-cache",
                      [](SystemConfig &c) { c.hasDramCache = false; }}};
    return exp::quickPreset(grid);
}

/** A row's bytes with the protocol/predictor/dramCacheMb labels
 * blanked, so rows can be compared across those axes. */
std::string
unlabeled(exp::ResultRow row)
{
    row.protocol = row.predictor = "";
    row.dramCacheMb = 0;
    return exp::ResultTable::rowToJson(row);
}

TEST(SweepEngine, SharedSimulationMatchesPerRowRuns)
{
    setQuiet(true);
    const exp::SweepGrid grid = predicateGrid();
    const std::vector<exp::RunSpec> specs = grid.expand();
    std::set<std::string> machines;
    for (const exp::RunSpec &spec : specs)
        machines.insert(exp::machineKey(spec));
    // Per variant: baseline 1, snoopy 4 protocols x 2 predictors x 2
    // sizes (16) or 4 protocols (no DRAM cache), and each other
    // design 2 x 2 (4) or 1 (no DRAM cache).
    EXPECT_EQ(specs.size(), 160u);
    EXPECT_EQ(machines.size(), (1u + 16 + 3 * 4) + (1u + 4 + 3 * 1));

    const exp::ResultTable shared = exp::SweepEngine(4).run(grid);
    const exp::ResultTable per_row = exp::SweepEngine(4).run(
        grid, [](const exp::RunSpec &spec) {
            return exp::SweepEngine::simulateSpec(spec);
        });
    ASSERT_EQ(per_row.size(), specs.size());
    EXPECT_EQ(shared.toJson(), per_row.toJson());
    EXPECT_EQ(shared.toCsv(), per_row.toCsv());

    // The differential has teeth: every relevant axis moves the
    // per-row results, so collapsing one in machineKey would break
    // the byte identity above.
    std::map<std::string, std::set<std::string>> across;
    for (const exp::ResultRow &row : per_row.rows()) {
        if (!row.variant.empty())
            continue;
        if (row.design == "snoopy" && row.predictor == "region" &&
            row.dramCacheMb == 0)
            across["protocol"].insert(unlabeled(row));
        if (row.design == "c3d" && row.dramCacheMb == 0)
            across["predictor"].insert(unlabeled(row));
        if (row.design == "c3d" && row.predictor == "region")
            across["dramCacheMb"].insert(unlabeled(row));
    }
    EXPECT_EQ(across["protocol"].size(), 4u);
    EXPECT_EQ(across["predictor"].size(), 2u);
    EXPECT_EQ(across["dramCacheMb"].size(), 2u);
}

TEST(SweepGrid, MachineKeyCollapsesInertAxes)
{
    // The benchmark's grid-mix shape: 40 rows, 22 distinct machines
    // (baseline 1, snoopy 2 x 2, three DRAM-cache designs 2 each,
    // per workload).
    exp::SweepGrid grid;
    grid.workloads = {profileByName("canneal"),
                      profileByName("streamcluster")};
    grid.designs = {Design::Baseline, Design::Snoopy, Design::FullDir,
                    Design::C3D, Design::C3DFullDir};
    grid.protocols = {Protocol::Mesi, Protocol::Moesi};
    grid.predictors = {PredictorKind::Region, PredictorKind::Perceptron};
    const std::vector<exp::RunSpec> specs = grid.expand();
    std::set<std::string> machines;
    for (const exp::RunSpec &spec : specs)
        machines.insert(exp::machineKey(spec));
    EXPECT_EQ(specs.size(), 40u);
    EXPECT_EQ(machines.size(), 22u);

    // Two axis entries that only share a name never share a machine.
    exp::SweepGrid twins = smallGrid();
    twins.workloads = {profileByName("facesim"),
                       profileByName("facesim")};
    twins.designs = {Design::Baseline};
    const std::vector<exp::RunSpec> twin_specs = twins.expand();
    ASSERT_EQ(twin_specs.size(), 2u);
    EXPECT_NE(exp::machineKey(twin_specs[0]),
              exp::machineKey(twin_specs[1]));
}

TEST(ResultTable, JsonRoundTrip)
{
    exp::SweepGrid grid = smallGrid();
    const auto fake = [](const exp::RunSpec &spec) {
        RunResult m;
        m.measuredTicks = 3 * spec.index + 7;
        m.instructions = 11 * spec.index;
        m.memReads = spec.index;
        m.dramCacheHits = spec.index / 2;
        m.broadcastsElided = spec.index % 3;
        return m;
    };
    const exp::ResultTable table = exp::SweepEngine(1).run(grid, fake);

    const std::string json = table.toJson();
    exp::ResultTable parsed;
    std::string error;
    ASSERT_TRUE(exp::ResultTable::fromJson(json, parsed, error))
        << error;
    EXPECT_TRUE(table.sameRows(parsed));
    EXPECT_EQ(parsed.toJson(), json);
}

/** The CSV header: every column in schema order, then ipc, tenants. */
const std::string CsvHeader =
    "workload,variant,design,protocol,predictor,mapping,sockets,"
    "cores_per_socket,scale,dram_cache_mb,warmup_ops,measure_ops,seed,"
    "measured_ticks,instructions,mem_reads,mem_writes,"
    "remote_mem_reads,remote_mem_writes,dram_cache_hits,"
    "dram_cache_misses,llc_misses,inter_socket_bytes,broadcasts,"
    "broadcasts_elided,predictor_trains,predictor_bypasses,"
    "predictor_ghost_hits,predictor_false_present,ipc,tenants\n";

TEST(ResultTable, CsvEmitsColumnsInSchemaOrder)
{
    EXPECT_EQ(exp::ResultTable().toCsv(), CsvHeader);

    // Every metric carries a distinct value, so a swapped column
    // shows; the second row pins the ipc formatting (%.9g).
    exp::ResultRow row;
    row.workload = "facesim";
    row.design = "c3d";
    row.protocol = "mesi";
    row.predictor = "region";
    row.mapping = "FT2";
    row.sockets = 4;
    row.coresPerSocket = 8;
    row.scale = 32;
    row.warmupOps = 300;
    row.measureOps = 1200;
    row.seed = 7;
    RunResult &m = row.metrics;
    m.measuredTicks = 400;
    m.instructions = 100;
    m.memReads = 1;
    m.memWrites = 2;
    m.remoteMemReads = 3;
    m.remoteMemWrites = 4;
    m.dramCacheHits = 5;
    m.dramCacheMisses = 6;
    m.llcMisses = 7;
    m.interSocketBytes = 8;
    m.broadcasts = 9;
    m.broadcastsElided = 10;
    m.predictorTrains = 11;
    m.predictorBypasses = 12;
    m.predictorGhostHits = 13;
    m.predictorFalsePresent = 14;
    exp::ResultTable table;
    table.appendRow(row);
    row.design = "baseline";
    row.metrics = RunResult{};
    row.metrics.measuredTicks = 3;
    row.metrics.instructions = 1;
    table.appendRow(row);

    EXPECT_EQ(table.toCsv(),
              CsvHeader +
                  "facesim,,c3d,mesi,region,FT2,4,8,32,0,300,1200,7,"
                  "400,100,1,2,3,4,5,6,7,8,9,10,11,12,13,14,0.25,\n"
                  "facesim,,baseline,mesi,region,FT2,4,8,32,0,300,1200,"
                  "7,3,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.333333333,\n");
}

TEST(ResultTable, CsvQuotesSpecials)
{
    // Fields containing commas, quotes, or newlines are quoted with
    // embedded quotes doubled; the newline stays inside the field,
    // so the record spans two physical lines.
    exp::ResultRow row;
    row.workload = "name,with,commas";
    row.variant = "multi\nline \"quoted\"";
    row.design = "c3d";
    row.mapping = "FT2";
    row.sockets = 4;
    row.metrics.instructions = 10;
    row.metrics.measuredTicks = 5;
    exp::ResultTable table;
    table.appendRow(row);

    EXPECT_EQ(table.toCsv(),
              CsvHeader +
                  "\"name,with,commas\",\"multi\nline \"\"quoted\"\"\","
                  "c3d,,,FT2,4,0,1,0,0,0,0,"
                  "5,10,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2,\n");

    const std::string json = table.toJson();
    exp::ResultTable parsed;
    std::string error;
    ASSERT_TRUE(exp::ResultTable::fromJson(json, parsed, error))
        << error;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed.rows()[0].workload, row.workload);
    EXPECT_EQ(parsed.rows()[0].variant, row.variant);
    EXPECT_TRUE(table.sameRows(parsed));
    EXPECT_EQ(parsed.toJson(), json);
}

TEST(ResultTable, RejectsMalformedInput)
{
    exp::ResultTable parsed;
    std::string error;
    EXPECT_FALSE(exp::ResultTable::fromJson("{", parsed, error));
    EXPECT_FALSE(exp::ResultTable::fromJson("[]", parsed, error));
    EXPECT_FALSE(exp::ResultTable::fromJson(
        "{\"schema\": \"bogus/v9\", \"rows\": []}", parsed, error));
}

TEST(ResultTable, RejectsBadIpcColumn)
{
    // A row object without a numeric ipc member is not our schema,
    // although ipc itself is recomputed on emit.
    exp::ResultTable parsed;
    std::string error;
    exp::ResultTable table;
    exp::ResultRow row;
    row.design = "c3d";
    table.appendRow(row);
    std::string json = table.toJson();
    const std::size_t at = json.find(", \"ipc\": 0}");
    ASSERT_NE(at, std::string::npos);
    json.replace(at, std::strlen(", \"ipc\": 0"), "");
    EXPECT_FALSE(exp::ResultTable::fromJson(json, parsed, error));
    EXPECT_NE(error.find("ipc"), std::string::npos) << error;
}

TEST(ResultTable, RoundTripsCountersAboveDoublePrecision)
{
    // u64 counters above 2^53 are not representable as doubles; the
    // JSON path must recover them losslessly from the source token.
    exp::SweepGrid grid = smallGrid();
    grid.workloads.resize(1);
    grid.designs = {Design::C3D};
    const std::uint64_t big = (1ull << 53) + 3;
    const auto fake = [big](const exp::RunSpec &) {
        RunResult m;
        m.measuredTicks = big;
        m.interSocketBytes = UINT64_MAX;
        m.instructions = 1;
        return m;
    };
    const exp::ResultTable table = exp::SweepEngine(1).run(grid, fake);

    exp::ResultTable parsed;
    std::string error;
    ASSERT_TRUE(exp::ResultTable::fromJson(table.toJson(), parsed,
                                           error)) << error;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed.rows()[0].metrics.measuredTicks, big);
    EXPECT_EQ(parsed.rows()[0].metrics.interSocketBytes, UINT64_MAX);
    EXPECT_TRUE(table.sameRows(parsed));
}

TEST(Json, ParsesAndEscapes)
{
    exp::JsonValue v;
    std::string error;
    ASSERT_TRUE(exp::parseJson(
        "{\"a\": [1, 2.5, -3], \"b\": \"x\\ny\", \"c\": true, "
        "\"d\": null}",
        v, error)) << error;
    ASSERT_TRUE(v.isObject());
    ASSERT_TRUE(v.member("a")->isArray());
    EXPECT_EQ(v.member("a")->array().size(), 3u);
    EXPECT_DOUBLE_EQ(v.member("a")->array()[1].number(), 2.5);
    EXPECT_EQ(v.member("b")->string(), "x\ny");
    EXPECT_TRUE(v.member("c")->boolean());
    EXPECT_TRUE(v.member("d")->isNull());

    EXPECT_FALSE(exp::parseJson("{\"a\": }", v, error));
    EXPECT_FALSE(exp::parseJson("[1, 2", v, error));
    EXPECT_FALSE(exp::parseJson("42 garbage", v, error));

    EXPECT_EQ(exp::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

} // namespace
} // namespace c3d
