/**
 * @file
 * Differential determinism tests for distributed sweep execution:
 * sharded, journaled, merged, and interrupted-then-resumed runs must
 * reproduce the single-process sweep byte for byte (JSON and CSV),
 * for any worker count, including grids whose rows share
 * simulations on inert axes. Also pins the spec-identity contract that
 * journals rely on (specIdentityKey == ResultRow::identityKey).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>

#include "common/log.hh"
#include "exp/journal.hh"
#include "exp/sweep_engine.hh"
#include "test_helpers.hh"

namespace c3d
{
namespace
{

/** Three-axis grid (workload x design x sockets), seconds-scale. */
exp::SweepGrid
shardGrid()
{
    exp::SweepGrid grid;
    grid.workloads = {profileByName("facesim"),
                      profileByName("canneal")};
    grid.designs = {Design::Baseline, Design::C3D};
    grid.sockets = {2, 4};
    grid.scale = 256;
    grid.coresPerSocket = 2;
    grid.warmupOps = 300;
    grid.measureOps = 1200;
    return grid;
}

/**
 * shardGrid plus protocol and predictor axes: baseline ignores both
 * and c3d ignores the protocol, so run(grid) fans each simulation out
 * to 4 (baseline) or 2 (c3d) rows -- 32 rows from 12 simulations.
 */
exp::SweepGrid
fanOutGrid()
{
    exp::SweepGrid grid = shardGrid();
    grid.protocols = {Protocol::Mesi, Protocol::Moesi};
    grid.predictors = {PredictorKind::Region, PredictorKind::Perceptron};
    return grid;
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "c3d_shard_" + name;
}

/** Run one shard, journaling every row to @p path. */
exp::ResultTable
runShardJournaled(const exp::SweepGrid &grid, unsigned shard_idx,
                  unsigned shard_cnt, unsigned jobs,
                  const std::string &path)
{
    const std::vector<exp::RunSpec> specs = grid.expand();
    exp::JournalWriter writer;
    std::string error;
    EXPECT_TRUE(writer.create(path, specs.size(),
                              exp::gridFingerprint(specs), error))
        << error;

    exp::SweepEngine engine(jobs);
    EXPECT_TRUE(engine.setShard(shard_idx, shard_cnt));
    engine.setRowSink([&](const exp::RunSpec &spec,
                          const exp::ResultRow &row) {
        std::string werr;
        EXPECT_TRUE(writer.append(spec.index, row, werr)) << werr;
    });
    return engine.run(grid);
}

TEST(SweepShard, FilterIsDisjointAndExhaustive)
{
    exp::SweepGrid grid = shardGrid();
    const auto fake = [](const exp::RunSpec &spec) {
        RunResult m;
        m.measuredTicks = 100 + spec.index;
        m.instructions = spec.index + 1;
        return m;
    };

    const std::size_t total = grid.size();
    std::set<std::uint64_t> seen;
    std::size_t row_count = 0;
    for (unsigned k = 0; k < 3; ++k) {
        exp::SweepEngine engine(2);
        ASSERT_TRUE(engine.setShard(k, 3));
        const exp::ResultTable shard = engine.run(grid, fake);
        row_count += shard.size();
        for (const exp::ResultRow &row : shard.rows()) {
            // measuredTicks encodes the spec ordinal: each ordinal
            // must land in exactly one shard, and only in the shard
            // its modulo assigns.
            EXPECT_TRUE(seen.insert(row.metrics.measuredTicks)
                            .second);
            EXPECT_EQ((row.metrics.measuredTicks - 100) % 3, k);
        }
    }
    EXPECT_EQ(row_count, total);
    EXPECT_EQ(seen.size(), total);
}

TEST(SweepShard, RejectsBadShardArguments)
{
    exp::SweepEngine engine(1);
    EXPECT_FALSE(engine.setShard(0, 0));
    EXPECT_FALSE(engine.setShard(3, 3));
    EXPECT_TRUE(engine.setShard(2, 3));
    EXPECT_EQ(engine.shardIndex(), 2u);
    EXPECT_EQ(engine.shardCount(), 3u);
}

TEST(SweepShard, ShardedMergeMatchesWholeByteForByte)
{
    setQuiet(true);
    // Shards split fan-out groups (sharing is within a shard only).
    const exp::SweepGrid grid = fanOutGrid();

    // Whole run is itself --jobs independent (pinned here so the
    // sharded comparison below is against a trusted baseline).
    const exp::ResultTable whole = exp::SweepEngine(1).run(grid);
    EXPECT_EQ(whole.toJson(), exp::SweepEngine(4).run(grid).toJson());

    std::vector<exp::JournalData> parts;
    for (unsigned k = 0; k < 3; ++k) {
        const std::string path =
            tempPath("merge_s" + std::to_string(k) + ".jsonl");
        // Worker count varies per shard: merge output must not care.
        runShardJournaled(grid, k, 3, k + 1, path);
        exp::JournalData data;
        std::string error;
        ASSERT_TRUE(exp::readJournalFile(path, data, error)) << error;
        EXPECT_FALSE(data.truncatedTail);
        parts.push_back(std::move(data));
        std::remove(path.c_str());
    }

    exp::ResultTable merged;
    std::string error;
    ASSERT_TRUE(exp::mergeJournals(parts, merged, error)) << error;
    EXPECT_EQ(whole.toJson(), merged.toJson());
    EXPECT_EQ(whole.toCsv(), merged.toCsv());
}

TEST(SweepShard, InterruptedThenResumedMatchesWhole)
{
    setQuiet(true);
    const exp::SweepGrid grid = fanOutGrid();
    const std::vector<exp::RunSpec> specs = grid.expand();
    const exp::ResultTable whole = exp::SweepEngine(1).run(grid);
    const std::string path = tempPath("resume.jsonl");

    // Phase 1: journal, then stop after the first claimed simulation
    // (the stop hook fires before each claim). With one worker that
    // is facesim/baseline/2-socket, whose rows 0, 2, 4, 6 (the
    // protocol x predictor points) all land.
    {
        exp::JournalWriter writer;
        std::string error;
        ASSERT_TRUE(writer.create(path, specs.size(),
                                  exp::gridFingerprint(specs),
                                  error)) << error;
        exp::SweepEngine engine(1);
        std::atomic<std::size_t> completed{0};
        engine.setRowSink([&](const exp::RunSpec &spec,
                              const exp::ResultRow &row) {
            std::string werr;
            ASSERT_TRUE(writer.append(spec.index, row, werr)) << werr;
            ++completed;
        });
        engine.setStopRequest([&] { return completed >= 1; });
        const exp::ResultTable partial = engine.run(grid);
        EXPECT_EQ(partial.size(), 4u);
    }

    // Crash mid-fan-out: keep the header and the group's first two
    // row lines, so the resume must re-simulate the group for its
    // two missing rows.
    std::string text, error;
    ASSERT_EQ(exp::readTextFile(path, text, error), exp::ReadFile::Ok)
        << error;
    std::size_t cut = 0;
    for (int line = 0; line < 3; ++line)
        cut = text.find('\n', cut) + 1;
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(text.data(), 1, cut, f);
        std::fclose(f);
    }

    // Phase 2: resume from the journal; only the remaining specs
    // may execute.
    exp::JournalData data;
    ASSERT_TRUE(exp::readJournalFile(path, data, error)) << error;
    ASSERT_EQ(data.entries.size(), 2u);
    EXPECT_EQ(data.entries[0].index, 0u);
    EXPECT_EQ(data.entries[1].index, 2u);
    EXPECT_EQ(data.total, specs.size());
    EXPECT_EQ(data.fingerprint, exp::gridFingerprint(specs));

    std::unordered_map<std::size_t, exp::ResultRow> pre;
    for (exp::JournalEntry &entry : data.entries) {
        ASSERT_LT(entry.index, specs.size());
        EXPECT_EQ(entry.row.identityKey(),
                  exp::specIdentityKey(specs[entry.index]));
        pre.emplace(entry.index, std::move(entry.row));
    }

    exp::JournalWriter writer;
    ASSERT_TRUE(writer.openAppend(path, error)) << error;
    exp::SweepEngine engine(4);
    engine.setPrefilled(std::move(pre));
    std::atomic<std::size_t> executed{0};
    engine.setRowSink([&](const exp::RunSpec &spec,
                          const exp::ResultRow &row) {
        std::string werr;
        ASSERT_TRUE(writer.append(spec.index, row, werr)) << werr;
        ++executed;
    });
    const exp::ResultTable resumed = engine.run(grid);
    writer.close();
    EXPECT_EQ(executed, specs.size() - 2);

    // The resumed table and the fully-journaled merge are both
    // byte-identical to the single-process run.
    EXPECT_EQ(whole.toJson(), resumed.toJson());
    EXPECT_EQ(whole.toCsv(), resumed.toCsv());

    exp::JournalData full;
    ASSERT_TRUE(exp::readJournalFile(path, full, error)) << error;
    exp::ResultTable merged;
    ASSERT_TRUE(exp::mergeJournals({full}, merged, error)) << error;
    EXPECT_EQ(whole.toJson(), merged.toJson());

    // One journal line per identity: shared simulations still
    // journal every row exactly once.
    ASSERT_EQ(exp::readTextFile(path, text, error), exp::ReadFile::Ok)
        << error;
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(text.begin(), text.end(), '\n')),
              1 + specs.size());
    std::set<std::string> identities;
    for (const exp::JournalEntry &entry : full.entries)
        identities.insert(entry.row.identityKey());
    EXPECT_EQ(identities.size(), specs.size());
    std::remove(path.c_str());
}

TEST(SweepShard, PrefilledRowsSkipExecution)
{
    exp::SweepGrid grid = shardGrid();
    std::atomic<std::size_t> calls{0};
    const auto fake = [&calls](const exp::RunSpec &spec) {
        ++calls;
        RunResult m;
        m.measuredTicks = 1000 + spec.index;
        return m;
    };

    // Prefill grid points 0 and 5 with recognizable metrics.
    const std::vector<exp::RunSpec> specs = grid.expand();
    std::unordered_map<std::size_t, exp::ResultRow> pre;
    for (const std::size_t i : {std::size_t(0), std::size_t(5)}) {
        RunResult m;
        m.measuredTicks = 77;
        pre.emplace(i, exp::SweepEngine::makeRow(specs[i], m));
    }

    exp::SweepEngine engine(2);
    engine.setPrefilled(std::move(pre));
    const exp::ResultTable table = engine.run(grid, fake);
    ASSERT_EQ(table.size(), specs.size());
    EXPECT_EQ(calls, specs.size() - 2);
    EXPECT_EQ(table.rows()[0].metrics.measuredTicks, 77u);
    EXPECT_EQ(table.rows()[5].metrics.measuredTicks, 77u);
    EXPECT_EQ(table.rows()[1].metrics.measuredTicks, 1001u);
    // Axis indices are restored from the spec, not the prefill.
    EXPECT_EQ(table.rows()[5].workloadIdx, specs[5].workloadIdx);
    EXPECT_EQ(table.rows()[5].socketIdx, specs[5].socketIdx);
}

TEST(SweepShard, StopBeforeFirstClaimYieldsEmptyTable)
{
    exp::SweepGrid grid = shardGrid();
    std::atomic<std::size_t> calls{0};
    const auto fake = [&calls](const exp::RunSpec &) {
        ++calls;
        return RunResult{};
    };
    exp::SweepEngine engine(4);
    engine.setStopRequest([] { return true; });
    const exp::ResultTable table = engine.run(grid, fake);
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(calls, 0u);
}

TEST(SweepShard, SpecIdentityKeyMatchesRowKeyAndIsUnique)
{
    exp::SweepGrid grid = shardGrid();
    grid.dramCacheMb = {0, 256};
    grid.mappings = {MappingPolicy::Interleave,
                     MappingPolicy::FirstTouch2};
    const std::vector<exp::RunSpec> specs = grid.expand();

    std::set<std::string> keys;
    for (const exp::RunSpec &spec : specs) {
        const exp::ResultRow row =
            exp::SweepEngine::makeRow(spec, RunResult{});
        EXPECT_EQ(exp::specIdentityKey(spec), row.identityKey());
        EXPECT_TRUE(keys.insert(row.identityKey()).second)
            << "duplicate identity: " << row.identityKey();
    }
    EXPECT_EQ(keys.size(), specs.size());
}

TEST(SweepShard, FingerprintTracksGridShape)
{
    exp::SweepGrid grid = shardGrid();
    const std::string base = exp::gridFingerprint(grid.expand());
    EXPECT_EQ(base.size(), 16u);
    EXPECT_EQ(base, exp::gridFingerprint(grid.expand()));

    exp::SweepGrid other = shardGrid();
    other.measureOps += 1;
    EXPECT_NE(base, exp::gridFingerprint(other.expand()));

    exp::SweepGrid fewer = shardGrid();
    fewer.sockets = {2};
    EXPECT_NE(base, exp::gridFingerprint(fewer.expand()));
}

// The identity bytes themselves, pinned: journals written by earlier
// builds must keep resuming and merging. A key derivation that
// reorders or reformats the identity columns fails here, even though
// every round-trip test above would still pass.
TEST(SweepShard, IdentityKeysAndFingerprintArePinned)
{
    exp::SweepGrid grid;
    grid.workloads = {profileByName("facesim"),
                      profileByName("canneal")};
    grid.designs = {Design::Baseline, Design::Snoopy, Design::C3D};
    grid.protocols = {Protocol::Mesi, Protocol::Dragon};
    grid.predictors = {PredictorKind::Region, PredictorKind::Perceptron};
    grid.sockets = {2, 4};
    grid.dramCacheMb = {0, 256};
    grid.mappings = {MappingPolicy::Interleave,
                     MappingPolicy::FirstTouch2};
    const std::vector<exp::RunSpec> specs =
        exp::quickPreset(grid).expand();
    ASSERT_EQ(specs.size(), 192u);
    EXPECT_EQ(exp::specIdentityKey(specs.front()),
              "facesim||baseline|mesi|region|INT|2|2|256|0|500|2000|"
              "50128");
    EXPECT_EQ(exp::specIdentityKey(specs.back()),
              "canneal||c3d|dragon|perceptron|FT2|4|2|256|256|500|2000|"
              "50128");
    EXPECT_EQ(exp::gridFingerprint(specs), "1a5126b15574c685");
}

} // namespace
} // namespace c3d
