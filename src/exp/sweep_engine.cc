#include "exp/sweep_engine.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/log.hh"
#include "common/sim_error.hh"

namespace c3d::exp
{

SweepEngine::SweepEngine(unsigned jobs) : workerCount(jobs)
{
    if (workerCount == 0) {
        workerCount = std::thread::hardware_concurrency();
        if (workerCount == 0)
            workerCount = 1;
    }
}

bool
SweepEngine::setShard(unsigned index, unsigned count)
{
    if (count == 0 || index >= count)
        return false;
    shardIdx = index;
    shardCnt = count;
    return true;
}

RunResult
SweepEngine::simulateSpec(const RunSpec &spec)
{
    return simulateSpec(spec, RunOptions{});
}

RunResult
SweepEngine::simulateSpec(const RunSpec &spec, const RunOptions &opts)
{
    return runWorkload(spec.cfg, spec.profile.scaled(spec.scale),
                       spec.warmupOps, spec.measureOps, opts);
}

ResultRow
SweepEngine::makeRow(const RunSpec &spec, const RunResult &metrics)
{
    ResultRow row;
    row.workload = spec.profile.name;
    row.variant = spec.variantName;
    row.design = designName(spec.cfg.design);
    row.protocol = protocolName(spec.cfg.protocol);
    row.predictor = predictorKindName(spec.cfg.predictorKind);
    row.mapping = mappingPolicyName(spec.cfg.mapping);
    row.sockets = spec.cfg.numSockets;
    row.coresPerSocket = spec.cfg.coresPerSocket;
    row.scale = spec.scale;
    row.dramCacheMb = spec.dramCacheMb;
    row.warmupOps = spec.warmupOps;
    row.measureOps = spec.measureOps;
    row.seed = spec.profile.seed;
    row.axes() = spec.axes();
    row.metrics = metrics;
    return row;
}

ResultTable
SweepEngine::run(const SweepGrid &grid) const
{
    return run(grid.expand());
}

ResultTable
SweepEngine::run(const SweepGrid &grid, const RunFn &fn) const
{
    return run(grid.expand(), fn);
}

ResultTable
SweepEngine::run(const std::vector<RunSpec> &specs) const
{
    const RunOptions o = runOpts;
    return execute(specs, [o](const RunSpec &spec) {
        return simulateSpec(spec, o);
    }, /*share=*/true);
}

ResultTable
SweepEngine::run(const std::vector<RunSpec> &specs, const RunFn &fn) const
{
    return execute(specs, fn, /*share=*/false);
}

ResultTable
SweepEngine::execute(const std::vector<RunSpec> &specs, const RunFn &fn,
                     bool share) const
{
    std::vector<ResultRow> rows(specs.size());
    std::vector<char> present(specs.size(), 0);

    // Partition the grid: specs outside this shard are absent from
    // the result, prefilled specs land without re-executing, and
    // the remainder goes to the worker pool.
    std::vector<std::size_t> torun;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (i % shardCnt != shardIdx)
            continue;
        const auto pre = prefilled.find(i);
        if (pre != prefilled.end()) {
            rows[i] = pre->second;
            rows[i].axes() = specs[i].axes();
            present[i] = 1;
        } else {
            torun.push_back(i);
        }
    }

    // Group the to-run specs by simulated machine. Sharing, each
    // group is the specs of one machineKey and its lowest ordinal
    // (front) is simulated once for all of them; otherwise every
    // spec is its own group. Workers claim groups in leader order.
    std::vector<std::vector<std::size_t>> groups;
    std::unordered_map<std::string, std::size_t> groupOf;
    for (const std::size_t i : torun) {
        const auto [it, fresh] = groupOf.emplace(
            share ? machineKey(specs[i]) : std::to_string(i),
            groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }

    std::atomic<std::size_t> next{0};
    std::size_t done = 0; // guarded by progress_mutex
    std::mutex progress_mutex;

    // Abort-policy state: the first contained failure stops workers
    // from claiming and is rethrown after the pool joins.
    std::atomic<bool> abortRun{false};
    std::mutex abort_mutex;
    std::exception_ptr abortError;

    auto worker = [&] {
        while (true) {
            if ((stopRequested && stopRequested()) ||
                abortRun.load(std::memory_order_acquire))
                return;
            const std::size_t j =
                next.fetch_add(1, std::memory_order_relaxed);
            if (j >= groups.size())
                return;
            const std::vector<std::size_t> &members = groups[j];
            const std::size_t lead = members.front();

            // Row sandbox: every attempt runs under the simulated
            // row's identity scope (so a SimError raised anywhere
            // inside names it) and its exception is contained here.
            const std::string identity = specIdentityKey(specs[lead]);
            RowFailure fail;
            std::exception_ptr raised;
            RunResult metrics;
            bool ok = false;
            const unsigned max_attempts =
                failPolicy == FailPolicy::Retry ? 1 + retryLimit : 1;
            for (unsigned a = 0; a < max_attempts && !ok; ++a) {
                fail.attempts = a + 1;
                try {
                    ErrorIdentityScope scope(identity.c_str());
                    metrics = (a == 0 || !retryFn)
                        ? fn(specs[lead]) : retryFn(specs[lead]);
                    ok = true;
                    if (a > 0) {
                        fail.recovered = true;
                        fail.degraded = retryFn != nullptr;
                    }
                } catch (const SimError &e) {
                    fail.error = e.location() + ": " + e.message();
                    fail.tick = e.tick();
                    fail.tickKnown = e.tickKnown();
                    raised = std::current_exception();
                } catch (const std::exception &e) {
                    fail.error = e.what();
                    fail.tickKnown = false;
                    raised = std::current_exception();
                } catch (...) {
                    fail.error = "unknown error";
                    fail.tickKnown = false;
                    raised = std::current_exception();
                }
            }

            if (ok) {
                for (const std::size_t i : members) {
                    rows[i] = makeRow(specs[i], metrics);
                    present[i] = 1;
                }
            }
            if (progress || rowSink || failureSink) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                // Every member is reported as its own row: its own
                // ordinal and identity, failure first (a journal
                // then reads as failure-then-success for recovered
                // rows; the success supersedes on parse).
                for (const std::size_t i : members) {
                    ++done;
                    if (failureSink && (!ok || fail.recovered)) {
                        fail.index = i;
                        fail.identity = specIdentityKey(specs[i]);
                        failureSink(fail);
                    }
                    if (ok && rowSink)
                        rowSink(specs[i], rows[i]);
                    if (progress)
                        progress(specs[i], done, torun.size(), lead);
                }
            }
            if (!ok && failPolicy == FailPolicy::Abort) {
                {
                    std::lock_guard<std::mutex> guard(abort_mutex);
                    if (!abortError)
                        abortError = raised;
                }
                abortRun.store(true, std::memory_order_release);
                return;
            }
        }
    };

    const unsigned pool = static_cast<unsigned>(
        std::min<std::size_t>(workerCount, groups.size()));
    if (pool <= 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(pool);
        for (unsigned t = 0; t < pool; ++t)
            threads.emplace_back(worker);
        for (std::thread &t : threads)
            t.join();
    }

    if (abortError)
        std::rethrow_exception(abortError);

    ResultTable table;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (present[i])
            table.appendRow(std::move(rows[i]));
    }
    return table;
}

} // namespace c3d::exp
