/**
 * @file
 * Fault containment tests: every injected failure class (panic,
 * hang, livelock) is detected, contained to its row, and reported
 * with a deterministic diagnostic carrying the row's identity key
 * and the simulated tick; the sweep fail policies (abort / skip /
 * retry) behave as documented; and surviving rows of a
 * fault-contained sweep are byte-identical to a clean run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/sim_error.hh"
#include "exp/sweep_engine.hh"
#include "sim/fault_injector.hh"
#include "sim/runner.hh"
#include "sim/watchdog.hh"
#include "trace/trace_file.hh"
#include "workload/composition.hh"

namespace c3d
{
namespace
{

/** A tiny but multi-socket run with real inter-socket traffic. */
SystemConfig
faultConfig()
{
    SystemConfig cfg;
    cfg.design = Design::C3D;
    cfg.numSockets = 4;
    cfg.coresPerSocket = 2;
    return cfg;
}

WorkloadProfile
faultProfile()
{
    return profileByName("facesim").scaled(256);
}

RunResult
runWithFault(const FaultPlan &fault, const WatchdogLimits &wd = {},
             bool parallel = false)
{
    RunOptions opts;
    opts.kernel.parallel = parallel;
    opts.watchdog = wd;
    opts.fault = fault;
    return runWorkload(faultConfig(), faultProfile(), 300, 1200,
                       opts);
}

TEST(FaultSpec, ParsesEveryKind)
{
    FaultPlan plan;
    std::string error;

    ASSERT_TRUE(parseFaultSpec("panic@5000", plan, error)) << error;
    EXPECT_EQ(plan.kind, FaultKind::Panic);
    EXPECT_EQ(plan.at, 5000u);
    EXPECT_FALSE(plan.parallelOnly);

    ASSERT_TRUE(parseFaultSpec("hang@0", plan, error)) << error;
    EXPECT_EQ(plan.kind, FaultKind::Hang);
    EXPECT_EQ(plan.at, 0u);

    ASSERT_TRUE(parseFaultSpec("stall-msg@7", plan, error)) << error;
    EXPECT_EQ(plan.kind, FaultKind::StallMsg);
    EXPECT_EQ(plan.at, 7u);

    ASSERT_TRUE(parseFaultSpec("par:panic@12", plan, error)) << error;
    EXPECT_EQ(plan.kind, FaultKind::Panic);
    EXPECT_TRUE(plan.parallelOnly);

    ASSERT_TRUE(parseFaultSpec("block@9", plan, error)) << error;
    EXPECT_EQ(plan.kind, FaultKind::Block);
    EXPECT_EQ(plan.at, 9u);
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(parseFaultSpec("", plan, error));
    EXPECT_FALSE(parseFaultSpec("panic", plan, error));
    EXPECT_FALSE(parseFaultSpec("panic@", plan, error));
    EXPECT_FALSE(parseFaultSpec("panic@abc", plan, error));
    EXPECT_FALSE(parseFaultSpec("explode@5", plan, error));
    // A 0-th packet never arrives; refuse rather than never fire.
    EXPECT_FALSE(parseFaultSpec("stall-msg@0", plan, error));
}

TEST(FaultContainment, InjectedPanicThrowsWithTick)
{
    FaultPlan fault;
    fault.kind = FaultKind::Panic;
    fault.at = 0;
    try {
        runWithFault(fault);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        const std::string what = e.what();
        // The diagnostic names the CONFIGURED trigger (stable
        // across code changes) and the actual simulated tick.
        EXPECT_NE(what.find("injected fault: panic@0"),
                  std::string::npos)
            << what;
        EXPECT_TRUE(e.tickKnown());
        EXPECT_GT(e.tick(), 0u);
    }
}

TEST(FaultContainment, InjectedPanicIsDeterministic)
{
    FaultPlan fault;
    fault.kind = FaultKind::Panic;
    fault.at = 1000;
    std::string first;
    std::uint64_t first_tick = 0;
    for (int i = 0; i < 2; ++i) {
        try {
            runWithFault(fault);
            FAIL() << "expected SimError";
        } catch (const SimError &e) {
            if (i == 0) {
                first = e.what();
                first_tick = e.tick();
            } else {
                EXPECT_EQ(first, std::string(e.what()));
                EXPECT_EQ(first_tick, e.tick());
            }
        }
    }
}

TEST(FaultContainment, InjectedHangTripsLostWakeupCheck)
{
    FaultPlan fault;
    fault.kind = FaultKind::Hang;
    fault.at = 100;
    try {
        runWithFault(fault);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("lost wakeup"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FaultContainment, InjectedStallTripsWatchdog)
{
    FaultPlan fault;
    fault.kind = FaultKind::StallMsg;
    fault.at = 3;
    WatchdogLimits wd;
    wd.stallEvents = 5000;
    try {
        runWithFault(fault, wd);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("watchdog: no progress"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("livelock"), std::string::npos);
        EXPECT_TRUE(e.tickKnown());
    }
}

TEST(FaultContainment, EventBudgetTripsWatchdog)
{
    WatchdogLimits wd;
    wd.maxEvents = 2048; // far below what the run needs
    try {
        runWithFault(FaultPlan{}, wd);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("executed-event budget"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FaultContainment, WatchdogDoesNotPerturbResults)
{
    const RunResult clean = runWithFault(FaultPlan{});
    WatchdogLimits wd;
    wd.stallEvents = 2000000;
    wd.maxEvents = 1u << 30;
    const RunResult watched = runWithFault(FaultPlan{}, wd);
    EXPECT_EQ(clean.measuredTicks, watched.measuredTicks);
    EXPECT_EQ(clean.instructions, watched.instructions);
    EXPECT_EQ(clean.memReads, watched.memReads);
    EXPECT_EQ(clean.interSocketBytes, watched.interSocketBytes);
}

TEST(FaultContainment, ParallelOnlyFaultVanishesSequentially)
{
    FaultPlan fault;
    fault.kind = FaultKind::Panic;
    fault.at = 0;
    fault.parallelOnly = true;
    // Sequential run: the fault never arms.
    const RunResult seq = runWithFault(fault, {}, false);
    EXPECT_GT(seq.instructions, 0u);
    // Parallel run: it fires.
    EXPECT_THROW(runWithFault(fault, {}, true), SimError);
}

/** Two-point grid; the fault selector hits only point 1. */
exp::SweepGrid
containmentGrid()
{
    exp::SweepGrid grid;
    grid.workloads = {profileByName("facesim")};
    grid.designs = {Design::Baseline, Design::C3D};
    grid.sockets = {4};
    grid.scale = 256;
    grid.coresPerSocket = 2;
    grid.warmupOps = 300;
    grid.measureOps = 1200;
    return grid;
}

exp::SweepEngine::RunFn
faultyRunFn(FaultKind kind, std::size_t target,
            bool parallel_only = false)
{
    return [kind, target, parallel_only](const exp::RunSpec &spec) {
        RunOptions o;
        if (spec.index == target) {
            o.fault.kind = kind;
            o.fault.at = kind == FaultKind::StallMsg ? 3 : 0;
            o.fault.parallelOnly = parallel_only;
            o.kernel.parallel = parallel_only;
            o.watchdog.stallEvents = 5000;
        }
        return exp::SweepEngine::simulateSpec(spec, o);
    };
}

TEST(SweepFailPolicy, AbortRethrowsTheRowFailure)
{
    exp::SweepEngine engine(1);
    EXPECT_THROW(
        engine.run(containmentGrid(),
                   faultyRunFn(FaultKind::Panic, 1)),
        SimError);
}

TEST(SweepFailPolicy, SkipContainsAndSurvivorsMatchCleanRun)
{
    const exp::SweepGrid grid = containmentGrid();
    exp::SweepEngine clean_engine(1);
    const exp::ResultTable clean = clean_engine.run(grid);

    exp::SweepEngine engine(2);
    engine.setFailPolicy(exp::FailPolicy::Skip);
    std::vector<exp::RowFailure> failures;
    engine.setFailureSink([&](const exp::RowFailure &f) {
        failures.push_back(f);
    });
    const exp::ResultTable table =
        engine.run(grid, faultyRunFn(FaultKind::Panic, 1));

    // Exactly the faulted row is missing; its failure names the
    // row's identity; the survivor is byte-identical to the clean
    // run.
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].index, 1u);
    EXPECT_EQ(failures[0].identity,
              exp::specIdentityKey(grid.expand()[1]));
    EXPECT_FALSE(failures[0].recovered);
    EXPECT_NE(failures[0].error.find("injected fault"),
              std::string::npos);
    ASSERT_EQ(table.rows().size(), 1u);
    ASSERT_EQ(clean.rows().size(), 2u);
    EXPECT_TRUE(table.rows()[0].sameAs(clean.rows()[0]));
    EXPECT_EQ(table.rows()[0].identityKey(),
              clean.rows()[0].identityKey());
}

TEST(SweepFailPolicy, RetryRecoversViaSequentialFallback)
{
    const exp::SweepGrid grid = containmentGrid();
    exp::SweepEngine clean_engine(1);
    const exp::ResultTable clean = clean_engine.run(grid);

    exp::SweepEngine engine(1);
    engine.setFailPolicy(exp::FailPolicy::Retry, 1);
    // Primary fn injects a parallel-only fault on row 1; the retry
    // fn re-runs sequentially, where the fault never arms.
    engine.setRetryFn([](const exp::RunSpec &spec) {
        return exp::SweepEngine::simulateSpec(spec, RunOptions{});
    });
    std::vector<exp::RowFailure> failures;
    engine.setFailureSink([&](const exp::RowFailure &f) {
        failures.push_back(f);
    });
    const exp::ResultTable table = engine.run(
        grid, faultyRunFn(FaultKind::Panic, 1,
                          /*parallel_only=*/true));

    // The row recovered on the degraded (sequential) attempt and
    // its metrics match the clean sequential run exactly.
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_TRUE(failures[0].recovered);
    EXPECT_TRUE(failures[0].degraded);
    EXPECT_EQ(failures[0].attempts, 2u);
    ASSERT_EQ(table.rows().size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_TRUE(table.rows()[i].sameAs(clean.rows()[i]));
}

/**
 * containmentGrid over two protocols: four grid points, two
 * simulations under run(grid). Neither baseline nor c3d reads the
 * protocol, so rows 0-1 share one run and rows 2-3 the other.
 */
exp::SweepGrid
sharedGrid()
{
    exp::SweepGrid grid = containmentGrid();
    grid.protocols = {Protocol::Mesi, Protocol::Moesi};
    return grid;
}

TEST(SweepFailPolicy, SharedFailureIsReportedForEveryRow)
{
    const exp::SweepGrid grid = sharedGrid();
    const std::vector<exp::RunSpec> specs = grid.expand();
    ASSERT_EQ(specs.size(), 4u);

    // A tiny event budget makes both shared simulations fail.
    RunOptions starved;
    starved.watchdog.maxEvents = 2048;
    exp::SweepEngine engine(2);
    engine.setRunOptions(starved);
    engine.setFailPolicy(exp::FailPolicy::Skip);
    std::vector<exp::RowFailure> failures;
    engine.setFailureSink([&](const exp::RowFailure &f) {
        failures.push_back(f);
    });
    const exp::ResultTable table = engine.run(grid);

    // One failure per row, each under its own ordinal and identity.
    EXPECT_TRUE(table.empty());
    ASSERT_EQ(failures.size(), specs.size());
    std::sort(failures.begin(), failures.end(),
              [](const exp::RowFailure &a, const exp::RowFailure &b) {
                  return a.index < b.index;
              });
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(failures[i].index, i);
        EXPECT_EQ(failures[i].identity, exp::specIdentityKey(specs[i]));
        EXPECT_FALSE(failures[i].recovered);
        EXPECT_NE(failures[i].error.find("executed-event budget"),
                  std::string::npos)
            << failures[i].error;
    }
}

TEST(SweepFailPolicy, SharedRetryRecoversEveryRow)
{
    const exp::SweepGrid grid = sharedGrid();
    const exp::ResultTable clean = exp::SweepEngine(1).run(grid);

    RunOptions starved;
    starved.watchdog.maxEvents = 2048;
    exp::SweepEngine engine(2);
    engine.setRunOptions(starved);
    engine.setFailPolicy(exp::FailPolicy::Retry, 1);
    engine.setRetryFn([](const exp::RunSpec &spec) {
        return exp::SweepEngine::simulateSpec(spec, RunOptions{});
    });
    std::vector<exp::RowFailure> failures;
    engine.setFailureSink([&](const exp::RowFailure &f) {
        failures.push_back(f);
    });
    const exp::ResultTable table = engine.run(grid);

    ASSERT_EQ(failures.size(), 4u);
    std::set<std::size_t> indices;
    for (const exp::RowFailure &f : failures) {
        EXPECT_TRUE(f.recovered);
        EXPECT_TRUE(f.degraded);
        EXPECT_EQ(f.attempts, 2u);
        indices.insert(f.index);
    }
    EXPECT_EQ(indices.size(), 4u);
    EXPECT_EQ(table.toJson(), clean.toJson());
}

/** Unpark the injected Block and join the abandoned thread. */
void
releaseAndReap()
{
    // The released thread resumes its run, hits the dropped-packet
    // lost-wakeup panic, and finishes; poll until reap joins it.
    for (int i = 0; i < 2000; ++i) {
        releaseInjectedBlocks();
        if (abandonedWatchdogThreads() == 0)
            return;
        reapAbandonedWatchdogThreads();
        if (abandonedWatchdogThreads() == 0)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    FAIL() << "abandoned watchdog thread never finished";
}

TEST(SiblingWatchdog, ContainsHardStallInsideOneEvent)
{
    // A Block fault stalls the kernel thread *inside* an event, so
    // neither the stall detector nor the in-band wall check can ever
    // run; only the sibling wall-clock watchdog reports it.
    FaultPlan fault;
    fault.kind = FaultKind::Block;
    fault.at = 0;
    WatchdogLimits wd;
    wd.wallMs = 200;
    try {
        runWithFault(fault, wd);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("sibling watchdog"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(abandonedWatchdogThreads(), 1u);
    releaseAndReap();
}

TEST(SiblingWatchdog, SkipContainsDeadlockedRow)
{
    const exp::SweepGrid grid = containmentGrid();
    exp::SweepEngine clean_engine(1);
    const exp::ResultTable clean = clean_engine.run(grid);

    exp::SweepEngine engine(2);
    engine.setFailPolicy(exp::FailPolicy::Skip);
    std::vector<exp::RowFailure> failures;
    engine.setFailureSink([&](const exp::RowFailure &f) {
        failures.push_back(f);
    });
    const exp::ResultTable table =
        engine.run(grid, [](const exp::RunSpec &spec) {
            RunOptions o;
            if (spec.index == 1) {
                o.fault.kind = FaultKind::Block;
                o.fault.at = 0;
                o.watchdog.wallMs = 200;
            }
            return exp::SweepEngine::simulateSpec(spec, o);
        });

    // The deadlocked row is contained and named; the survivor is
    // byte-identical to the clean run.
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].index, 1u);
    EXPECT_EQ(failures[0].identity,
              exp::specIdentityKey(grid.expand()[1]));
    EXPECT_NE(failures[0].error.find("sibling watchdog"),
              std::string::npos)
        << failures[0].error;
    ASSERT_EQ(table.rows().size(), 1u);
    EXPECT_TRUE(table.rows()[0].sameAs(clean.rows()[0]));
    releaseAndReap();
}

TEST(SiblingWatchdog, ArmedRunMatchesDirectRun)
{
    // Observation-only: a generous wall budget routes the run
    // through the sacrificial thread but must not perturb a single
    // metric.
    const RunResult direct = runWithFault(FaultPlan{});
    WatchdogLimits wd;
    wd.wallMs = 600000;
    const RunResult sibling = runWithFault(FaultPlan{}, wd);
    EXPECT_EQ(direct.measuredTicks, sibling.measuredTicks);
    EXPECT_EQ(direct.instructions, sibling.instructions);
    EXPECT_EQ(direct.memReads, sibling.memReads);
    EXPECT_EQ(direct.memWrites, sibling.memWrites);
    EXPECT_EQ(direct.interSocketBytes, sibling.interSocketBytes);
    EXPECT_EQ(abandonedWatchdogThreads(), 0u);
}

TEST(SweepFailPolicy, RetryExhaustionFallsBackToSkip)
{
    exp::SweepEngine engine(1);
    engine.setFailPolicy(exp::FailPolicy::Retry, 2);
    std::vector<exp::RowFailure> failures;
    engine.setFailureSink([&](const exp::RowFailure &f) {
        failures.push_back(f);
    });
    // Deterministic fault: every attempt (including retries) fails.
    const exp::ResultTable table = engine.run(
        containmentGrid(), faultyRunFn(FaultKind::Panic, 1));

    ASSERT_EQ(failures.size(), 1u);
    EXPECT_FALSE(failures[0].recovered);
    EXPECT_EQ(failures[0].attempts, 3u); // 1 try + 2 retries
    EXPECT_EQ(table.rows().size(), 1u);
}

/** Record a small 2-lane member trace; @p base offsets its blocks. */
std::uint64_t
writeMemberTrace(const std::string &path, Addr base)
{
    TraceFileWriter w(path, 2);
    for (std::uint32_t i = 0; i < 400; ++i) {
        for (std::uint16_t c = 0; c < 2; ++c) {
            w.append({c, static_cast<std::uint16_t>(i % 3),
                      i % 6 == 0 ? MemOp::Write : MemOp::Read,
                      base + (i * 17 + c * 131) % 512 * BlockBytes});
        }
    }
    w.close();
    TraceFileInfo info;
    std::string error;
    EXPECT_TRUE(scanTraceFile(path, info, error)) << error;
    return info.contentHash;
}

void
writeManifest(const std::string &path, const CompositionSpec &spec)
{
    std::ofstream(path, std::ios::trunc) << compositionToJson(spec);
}

/**
 * Sweep @p grid under Skip: exactly the rows @p doomed selects fail,
 * each unrecovered and naming @p where and @p needle, and the table
 * equals @p clean_json, the sweep of the grid without those rows.
 */
void
expectRowsContained(const exp::SweepGrid &grid,
                    bool (*doomed)(const exp::RunSpec &),
                    const std::string &clean_json,
                    const std::string &where, const std::string &needle)
{
    const std::vector<exp::RunSpec> specs = grid.expand();
    exp::SweepEngine engine(2);
    engine.setFailPolicy(exp::FailPolicy::Skip);
    std::vector<exp::RowFailure> failures;
    engine.setFailureSink([&](const exp::RowFailure &f) {
        failures.push_back(f);
    });
    const exp::ResultTable table = engine.run(grid);
    std::set<std::size_t> failed;
    for (const exp::RowFailure &f : failures) {
        ASSERT_LT(f.index, specs.size());
        EXPECT_TRUE(doomed(specs[f.index]));
        EXPECT_EQ(f.identity, exp::specIdentityKey(specs[f.index]));
        EXPECT_FALSE(f.recovered);
        EXPECT_NE(f.error.find(where), std::string::npos) << f.error;
        EXPECT_NE(f.error.find(needle), std::string::npos) << f.error;
        failed.insert(f.index);
    }
    EXPECT_EQ(failures.size(), failed.size());
    EXPECT_EQ(failed.size(),
              static_cast<std::size_t>(
                  std::count_if(specs.begin(), specs.end(), doomed)));
    EXPECT_EQ(table.toJson(), clean_json);
}

TEST(SweepFailPolicy, SkipContainsCompositionChangedAfterExpansion)
{
    const std::string dir = testing::TempDir();
    const std::string manifest = dir + "c3d_fault_mix.json";
    CompositionSpec spec;
    spec.name = "faultmix";
    for (Addr i = 0; i < 2; ++i) {
        const std::string path =
            dir + "c3d_fault_member" + std::to_string(i) + ".c3dt";
        spec.tenants.push_back(
            {path, writeMemberTrace(path, i << 20), 0, 0});
    }
    writeManifest(manifest, spec);
    WorkloadProfile composed;
    std::string error;
    ASSERT_TRUE(loadCompositionProfile(manifest, composed, error))
        << error;

    exp::SweepGrid plain = containmentGrid();
    exp::SweepGrid grid = plain;
    grid.workloads.push_back(composed);
    const std::string clean_json =
        exp::SweepEngine(1).run(plain).toJson();

    // Sweep the already-expanded grid under Skip: every composed row
    // fails naming the manifest and the cause; the facesim rows are
    // byte-identical to a sweep without the composition.
    const auto expect_contained = [&](const char *needle) {
        expectRowsContained(
            grid,
            [](const exp::RunSpec &r) {
                return r.profile.isComposition();
            },
            clean_json, manifest, needle);
    };

    // The manifest is edited: its hash no longer matches the grid's.
    CompositionSpec edited = spec;
    edited.seed += 1;
    writeManifest(manifest, edited);
    expect_contained("changed since the grid was built");

    // The manifest is intact but a member trace is gone.
    writeManifest(manifest, spec);
    std::remove(spec.tenants[1].tracePath.c_str());
    expect_contained("c3d_fault_member1.c3dt");

    // The manifest itself is gone.
    std::remove(manifest.c_str());
    expect_contained("cannot open composition manifest");

    std::remove(spec.tenants[0].tracePath.c_str());
}

TEST(SweepFailPolicy, SkipContainsTraceChangedAfterExpansion)
{
    // A trace the grid already pinned is truncated, then deleted,
    // before its rows replay: each time only its rows fail, and the
    // rest match a sweep without the trace.
    const std::string path = testing::TempDir() + "c3d_fault_trace.c3dt";
    writeMemberTrace(path, 0);
    WorkloadProfile traced;
    std::string error;
    ASSERT_TRUE(loadTraceProfile(path, traced, error)) << error;

    exp::SweepGrid plain = containmentGrid();
    exp::SweepGrid grid = plain;
    grid.workloads.push_back(traced);
    const std::string clean_json =
        exp::SweepEngine(1).run(plain).toJson();
    const auto is_trace = [](const exp::RunSpec &r) {
        return r.profile.isTrace();
    };

    // Cut mid-record: a 24-byte header, then 16-byte records.
    std::filesystem::resize_file(path, 24 + 100 * 16 + 7);
    expectRowsContained(grid, is_trace, clean_json, path,
                        "truncated mid-record");

    std::remove(path.c_str());
    expectRowsContained(grid, is_trace, clean_json, path,
                        "cannot open trace file");
}

} // namespace
} // namespace c3d
