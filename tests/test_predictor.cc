/**
 * @file
 * Unit and differential tests for the DRAM-cache admission
 * predictors (docs/predictors.md).
 *
 * Covers the perceptron's weight saturation and convergence on
 * crafted streaming-vs-reuse streams, ghost-buffer aliasing and
 * self-clear behavior, byte-identical training under the parallel
 * kernel, and a golden-file differential pinning `predictor=region`
 * sweep rows to the output of the pre-predictor build (column
 * intersection: new columns are excluded, shared columns must match
 * byte for byte).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "dramcache/perceptron_predictor.hh"
#include "exp/sweep_engine.hh"
#include "trace/workload.hh"

#ifndef C3D_TEST_SOURCE_DIR
#error "C3D_TEST_SOURCE_DIR must point at the tests/ directory"
#endif

namespace c3d
{
namespace
{

SystemConfig
perceptronConfig()
{
    SystemConfig cfg;
    cfg.predictorKind = PredictorKind::Perceptron;
    return cfg;
}

/** A configured perceptron over @p cfg with a fresh stat group. */
struct Fixture
{
    StatGroup stats{"t"};
    PerceptronPredictor p;

    explicit Fixture(const SystemConfig &cfg)
    {
        p.configure(cfg, &stats, "p");
    }
};

TEST(PerceptronPredictor, WeightsSaturateAtBounds)
{
    // A huge train margin keeps every probe inside the reinforcement
    // band, so training never stops and the weights must saturate.
    SystemConfig cfg = perceptronConfig();
    cfg.perceptronTrainMargin = 1 << 20;
    Fixture f(cfg);

    // The region and tenant features have stable indices and must
    // pin at the bound; the history feature's index moves with the
    // path fold, so its contribution stays anywhere inside
    // [lo, weightMax] -- the sum may never escape 2x-pinned plus one
    // free feature. (hi = +weightMax, lo = -weightMax - 1, the
    // two's-complement-style asymmetric bound.)
    const std::int32_t hi = cfg.perceptronWeightMax;
    const std::int32_t lo = -cfg.perceptronWeightMax - 1;

    const Addr a = 0x40000;
    for (int i = 0; i < 1000; ++i)
        f.p.trainOnProbe(a, 0, true);
    EXPECT_GE(f.p.weightSum(a, 0), 2 * hi + lo);
    EXPECT_LE(f.p.weightSum(a, 0), 3 * hi);

    for (int i = 0; i < 1000; ++i)
        f.p.trainOnProbe(a, 0, false);
    EXPECT_LE(f.p.weightSum(a, 0), 2 * lo + hi);
    EXPECT_GE(f.p.weightSum(a, 0), 3 * lo);
}

TEST(PerceptronPredictor, ConvergesToBypassOnStreamingTraffic)
{
    Fixture f(perceptronConfig());

    // Streaming: every probe of the region misses and nothing was
    // ever cached, so there are no ghost hits to argue for caching.
    const Addr region = 0x9000000;
    for (int i = 0; i < 64; ++i)
        f.p.trainOnProbe(region + Addr(i) * 64, 0, false);

    EXPECT_LT(f.p.weightSum(region, 0), 0);
    EXPECT_FALSE(f.p.admit(region + 0x40, 0));
    EXPECT_GT(f.p.bypassEvents(), 0u);
}

TEST(PerceptronPredictor, ConvergesToCachingOnReuseTraffic)
{
    Fixture f(perceptronConfig());

    // Reuse: repeated hits in the region vote for caching its kind.
    const Addr region = 0x5000000;
    for (int i = 0; i < 64; ++i)
        f.p.trainOnProbe(region + Addr(i % 8) * 64, 0, true);

    EXPECT_GE(f.p.weightSum(region, 0), 0);
    EXPECT_TRUE(f.p.admit(region + 0x80, 0));
    EXPECT_GT(f.p.trainEvents(), 0u);
}

TEST(PerceptronPredictor, GhostHitConvertsMissIntoCachingVote)
{
    Fixture f(perceptronConfig());

    // Drive the region's weights firmly negative...
    const Addr a = 0x7000000;
    for (int i = 0; i < 64; ++i)
        f.p.trainOnProbe(a + Addr(i) * 64, 0, false);
    ASSERT_LT(f.p.weightSum(a, 0), 0);

    // ...then evict a line of that region (enters the ghost buffer).
    f.p.onInsert(a);
    f.p.onRemove(a);
    ASSERT_TRUE(f.p.ghostContains(a));

    // A subsequent miss on the evicted line is reuse-after-eviction:
    // it counts as a ghost hit and trains toward caching.
    const std::uint64_t before = f.p.ghostHits();
    f.p.trainOnProbe(a, 0, false);
    EXPECT_EQ(f.p.ghostHits(), before + 1);

    std::int32_t last = f.p.weightSum(a, 0);
    for (int i = 0; i < 256 && last < 0; ++i) {
        f.p.trainOnProbe(a, 0, false);
        last = f.p.weightSum(a, 0);
    }
    EXPECT_GE(last, 0) << "ghost hits never recovered the region";
}

TEST(PerceptronPredictor, GhostBufferHasNoFalseNegativesBeforeReset)
{
    // Tiny filter (64 bits) and addresses chosen to alias heavily:
    // false positives are allowed, false negatives are not.
    SystemConfig cfg = perceptronConfig();
    cfg.ghostBufferBits = 64;
    cfg.ghostBufferResetEvictions = 1000;
    Fixture f(cfg);

    std::vector<Addr> evicted;
    for (int i = 0; i < 24; ++i) {
        const Addr a = 0x1000 + Addr(i) * 0x10040;
        f.p.onInsert(a);
        f.p.onRemove(a);
        evicted.push_back(a);
    }
    for (Addr a : evicted)
        EXPECT_TRUE(f.p.ghostContains(a));
}

TEST(PerceptronPredictor, GhostBufferSelfClearsAfterResetCount)
{
    SystemConfig cfg = perceptronConfig();
    cfg.ghostBufferResetEvictions = 8;
    Fixture f(cfg);

    const Addr first = 0x2000;
    f.p.onInsert(first);
    f.p.onRemove(first);
    ASSERT_TRUE(f.p.ghostContains(first));

    // Eight more recorded evictions push the insert count past the
    // reset threshold; the clear drops the first line's bits.
    for (int i = 1; i <= 8; ++i) {
        const Addr a = 0x2000 + Addr(i) * 0x40000;
        f.p.onInsert(a);
        f.p.onRemove(a);
    }
    EXPECT_FALSE(f.p.ghostContains(first));
}

/** facesim+canneal on c3d, both socket counts, perceptron gate. */
exp::SweepGrid
perceptronGrid()
{
    exp::SweepGrid grid;
    grid.workloads = {profileByName("facesim"),
                      profileByName("canneal")};
    grid.designs = {Design::C3D, Design::Snoopy};
    grid.predictors = {PredictorKind::Region,
                       PredictorKind::Perceptron};
    grid.sockets = {2, 4};
    grid.scale = 256;
    grid.coresPerSocket = 2;
    grid.warmupOps = 500;
    grid.measureOps = 2000;
    return grid;
}

TEST(PerceptronPredictor, ParallelKernelTrainingIsDeterministic)
{
    // Perceptron state is per-socket and only ever touched from the
    // socket's own event queue, so the parallel kernel must produce
    // byte-identical weights, decisions, and therefore rows.
    const exp::SweepGrid grid = perceptronGrid();

    exp::SweepEngine seq(1);
    const exp::ResultTable ref = seq.run(grid);

    RunOptions opts;
    opts.kernel.parallel = true;
    opts.kernel.threads = 4;
    exp::SweepEngine par(1);
    par.setRunOptions(opts);
    const exp::ResultTable got = par.run(grid);

    EXPECT_EQ(ref.toJson(), got.toJson());
    EXPECT_EQ(ref.toCsv(), got.toCsv());
}

TEST(PerceptronPredictor, PerceptronChangesBehaviorSomewhere)
{
    // Sanity that the sweep axis is live: at least one grid point
    // must report bypasses, and region rows must report none.
    exp::SweepEngine engine(1);
    const exp::ResultTable table = engine.run(perceptronGrid());
    std::uint64_t region_bypasses = 0, perceptron_bypasses = 0;
    for (const exp::ResultRow &row : table.rows()) {
        if (row.predictor == "perceptron")
            perceptron_bypasses += row.metrics.predictorBypasses;
        else
            region_bypasses += row.metrics.predictorBypasses;
    }
    EXPECT_EQ(region_bypasses, 0u);
    EXPECT_GT(perceptron_bypasses, 0u);
}

// ---- golden-file differential ---------------------------------------

/** Parse CSV text into header + rows of cells (no quoting in ours). */
void
parseCsv(const std::string &text, std::vector<std::string> &header,
         std::vector<std::vector<std::string>> &rows)
{
    std::istringstream in(text);
    std::string line;
    bool first = true;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::vector<std::string> cells;
        std::string cell;
        std::istringstream ls(line);
        while (std::getline(ls, cell, ','))
            cells.push_back(cell);
        if (line.back() == ',')
            cells.push_back("");
        if (first) {
            header = cells;
            first = false;
        } else {
            rows.push_back(cells);
        }
    }
}

TEST(PredictorDifferential, RegionRowsMatchPrePredictorGolden)
{
    // The golden file is the committed output of the build *before*
    // the predictor axis existed, over this exact grid, with the
    // three directory rows regenerated once since (a GetS from the
    // block's owner is forwarded to the owner itself). Region rows
    // must reproduce it byte-for-byte on every shared column -- the
    // new predictor/counter columns are the only allowed delta.
    std::ifstream gf(std::string(C3D_TEST_SOURCE_DIR) +
                     "/golden/pre_pr10_region.csv");
    ASSERT_TRUE(gf.good()) << "missing tests/golden file";
    std::stringstream gbuf;
    gbuf << gf.rdbuf();

    exp::SweepGrid grid;
    grid.workloads = {profileByName("facesim"),
                      profileByName("canneal")};
    grid.designs = {Design::Baseline, Design::Snoopy, Design::C3D};
    grid.sockets = {2, 4};
    grid = exp::quickPreset(std::move(grid));
    exp::SweepEngine engine(1);
    const std::string csv = engine.run(grid).toCsv();

    std::vector<std::string> ghdr, nhdr;
    std::vector<std::vector<std::string>> grows, nrows;
    parseCsv(gbuf.str(), ghdr, grows);
    parseCsv(csv, nhdr, nrows);
    ASSERT_EQ(grows.size(), nrows.size());

    std::map<std::string, std::size_t> ncol;
    for (std::size_t i = 0; i < nhdr.size(); ++i)
        ncol[nhdr[i]] = i;
    // Every pre-PR column must still exist: dropping one would break
    // downstream readers, not just change bytes.
    for (const std::string &name : ghdr)
        ASSERT_TRUE(ncol.count(name)) << "column vanished: " << name;

    for (std::size_t r = 0; r < grows.size(); ++r) {
        for (std::size_t c = 0; c < ghdr.size(); ++c) {
            EXPECT_EQ(grows[r][c], nrows[r][ncol[ghdr[c]]])
                << "row " << r << " column " << ghdr[c];
        }
    }
}

} // namespace
} // namespace c3d
