#include "sim/runner.hh"

#include <atomic>
#include <thread>

#include "common/log.hh"
#include "sim/cell_executor.hh"
#include "trace/trace_file.hh"
#include "workload/composed_workload.hh"

namespace c3d
{

Runner::Runner(const SystemConfig &cfg, Workload &wl,
               RunOptions run_opts)
    : m(std::make_unique<Machine>(
          cfg, Machine::parallelKernelEligible(cfg)
                   ? KernelMode::MultiQueue
                   : KernelMode::SingleQueue)),
      workload(wl), opts(run_opts)
{
    if (opts.watchdog.any()) {
        watchdog.arm(opts.watchdog);
        m->attachWatchdog(&watchdog);
    }
    // parallelOnly faults arm only when the parallel kernel actually
    // drives the run (the retry fallback passes parallel=false, so
    // such faults vanish on the sequential re-run).
    m->faultInjector().arm(
        opts.fault,
        opts.kernel.parallel &&
            m->kernelMode() == KernelMode::MultiQueue);

    // FT1's serial-phase placement happens before any timed access.
    workload.preTouchPages(m->pageMapper());

    const std::uint32_t total = cfg.totalCores();
    cpus.reserve(total);
    for (CoreId c = 0; c < total; ++c) {
        cpus.push_back(std::make_unique<TraceCpu>(*m, c, workload,
                                                  &m->stats()));
    }
}

Runner::~Runner() = default;

void
Runner::enableTenantTracking(std::vector<std::int32_t> core_tenant,
                             std::vector<std::string> names)
{
    c3d_assert(tenantSets.empty(), "tenant tracking enabled twice");
    coreTenant = std::move(core_tenant);
    tenantNames = std::move(names);

    // Size the set vector once and register afterwards: the StatGroup
    // stores raw pointers into it, so it must never reallocate.
    const auto n = static_cast<std::uint32_t>(tenantNames.size());
    tenantSets = std::vector<TenantStatSet>(n);
    for (std::uint32_t i = 0; i < n; ++i)
        tenantSets[i].init(&m->stats(), i);

    const SystemConfig &cfg = m->config();
    for (SocketId s = 0; s < cfg.numSockets; ++s) {
        std::vector<TenantStatSet *> by_core(cfg.coresPerSocket,
                                             nullptr);
        std::vector<std::uint32_t> by_idx(cfg.coresPerSocket,
                                          DramCache::NoTenant);
        for (std::uint32_t l = 0; l < cfg.coresPerSocket; ++l) {
            const std::size_t g =
                static_cast<std::size_t>(s) * cfg.coresPerSocket + l;
            if (g < coreTenant.size() && coreTenant[g] >= 0) {
                by_core[l] = &tenantSets[static_cast<std::size_t>(
                    coreTenant[g])];
                by_idx[l] =
                    static_cast<std::uint32_t>(coreTenant[g]);
            }
        }
        m->socket(s).setTenantStats(std::move(by_core),
                                    std::move(by_idx));
        if (DramCache *dc = m->socket(s).dramCache())
            dc->enableTenantTracking(n);
    }
}

RunResult
Runner::run(std::uint64_t warmup_ops, std::uint64_t measure_ops)
{
    const SystemConfig &cfg = m->config();
    const std::uint32_t total = cfg.totalCores();
    const std::uint32_t active = workload.activeCores(total);

    // Cores decrement these from their kernel threads; the cell
    // barrier publishes them to the boundary master.
    std::atomic<std::uint32_t> warm_remaining{active};
    std::atomic<bool> warm_pending{false};
    std::atomic<std::uint32_t> done_remaining{active};
    Tick measure_start = 0;

    const std::uint64_t barrier_interval = workload.barrierInterval();
    const bool use_barrier = barrier_interval && active > 1;
    if (use_barrier) {
        barrier.init(active, &m->stats(), "barrier");
        for (CoreId c = 0; c < active; ++c)
            cpus[c]->setBarrier(&barrier, barrier_interval);
    }

    for (CoreId c = 0; c < total; ++c) {
        const bool runs = c < active;
        cpus[c]->start(
            runs ? warmup_ops : 0, runs ? measure_ops : 0,
            [&warm_remaining, &warm_pending, runs] {
                if (!runs)
                    return;
                // The reset itself is deferred to the next cell
                // boundary: it touches every stat while other
                // sockets' threads are mid-cell.
                if (warm_remaining.fetch_sub(
                        1, std::memory_order_acq_rel) == 1)
                    warm_pending.store(true,
                                       std::memory_order_release);
            },
            [&done_remaining, runs] {
                if (runs)
                    done_remaining.fetch_sub(
                        1, std::memory_order_acq_rel);
            });
    }

    unsigned threads = 1;
    if (opts.kernel.parallel) {
        threads = opts.kernel.threads
            ? opts.kernel.threads
            : std::max(1u, std::min<unsigned>(
                               cfg.numSockets,
                               std::thread::hardware_concurrency()));
    }

    CellExecutor exec(*m, threads);
    exec.run([&](Tick q) {
        if (warm_pending.exchange(false)) {
            m->stats().resetAll();
            measure_start = q;
        }
        CellExecutor::BoundaryResult step;
        if (use_barrier) {
            step.scheduled = barrier.quantRelease(
                q, [this](CoreId c) -> EventQueue & {
                    return m->queueAt(c / m->config().coresPerSocket);
                });
        }
        step.workDone =
            done_remaining.load(std::memory_order_acquire) == 0;
        return step;
    });

    // The executor already quiesced the machine (it stops only once
    // every queue and outbox drained). The window closes when the
    // last active core finished issuing and draining, which each
    // core records itself.
    Tick end = 0;
    for (CoreId c = 0; c < active; ++c)
        end = std::max(end, cpus[c]->finishAt());

    // The window opens at a cell boundary; a tiny measure quota can
    // finish inside the warm cell, before the boundary. Clamp rather
    // than wrap.
    return collectResult(end > measure_start ? end - measure_start
                                             : 0);
}

RunResult
Runner::collectResult(Tick measured_ticks)
{
    RunResult r;
    r.measuredTicks = measured_ticks;
    std::uint64_t insts = 0;
    for (const auto &cpu : cpus)
        insts += cpu->instructions();
    r.instructions = insts;
    for (SocketId s = 0; s < m->numSockets(); ++s) {
        const Socket &sock = m->socket(s);
        r.memReads += sock.memory().reads();
        r.memWrites += sock.memory().writes();
        r.remoteMemReads += sock.memory().remoteReads();
        r.remoteMemWrites += sock.memory().remoteWrites();
        r.llcMisses += sock.llcMisses();
        if (const DramCache *dc = sock.dramCache()) {
            r.dramCacheHits += dc->hitCount();
            r.dramCacheMisses += dc->missCount();
            r.predictorTrains += dc->predictorTrains();
            r.predictorBypasses += dc->predictorBypasses();
            r.predictorGhostHits += dc->predictorGhostHits();
            r.predictorFalsePresent += dc->predictorFalsePresents();
        }
    }
    r.interSocketBytes = m->interSocketBytes();
    const StatGroup &sg = m->stats();
    r.broadcasts = sg.has("proto.broadcasts")
        ? sg.valueOf("proto.broadcasts") : 0;
    r.broadcastsElided = sg.has("proto.broadcasts_elided")
        ? sg.valueOf("proto.broadcasts_elided") : 0;

    if (!tenantSets.empty()) {
        r.tenants.resize(tenantSets.size());
        for (std::size_t i = 0; i < tenantSets.size(); ++i) {
            const TenantStatSet &ts = tenantSets[i];
            TenantMetrics &tm = r.tenants[i];
            tm.name = tenantNames[i];
            tm.loads = ts.loads.value();
            tm.stores = ts.stores.value();
            tm.latP50 = ts.memLatency.percentile(50);
            tm.latP95 = ts.memLatency.percentile(95);
            tm.latP99 = ts.memLatency.percentile(99);
        }
        // DRAM-cache attribution lives in the caches themselves;
        // fold the per-socket tenant counters and the occupancy
        // gauge machine-wide.
        const SystemConfig &cfg = m->config();
        for (SocketId s = 0; s < cfg.numSockets; ++s) {
            const DramCache *dc = m->socket(s).dramCache();
            if (!dc || !dc->tenantTrackingEnabled())
                continue;
            for (std::size_t i = 0; i < r.tenants.size(); ++i) {
                const auto t = static_cast<std::uint32_t>(i);
                r.tenants[i].dramCacheHits += dc->tenantHitCount(t);
                r.tenants[i].dramCacheMisses +=
                    dc->tenantMissCount(t);
                r.tenants[i].dramCacheOccupancy +=
                    dc->tenantOccupancy(t);
            }
        }
        // Instructions are per-core state on the TraceCpus; fold
        // them per tenant via the core map.
        for (std::size_t c = 0;
             c < coreTenant.size() && c < cpus.size(); ++c) {
            if (coreTenant[c] >= 0)
                r.tenants[static_cast<std::size_t>(coreTenant[c])]
                    .instructions += cpus[c]->instructions();
        }
    }
    return r;
}

namespace
{

/**
 * Heap-owned state of one guarded run. When the sibling watchdog
 * abandons a stuck run, its registry keeps this box alive, so the
 * parked thread's references (workload, machine, result slot) stay
 * valid after the caller's stack unwound.
 */
struct GuardedRun
{
    std::unique_ptr<Workload> wl;
    std::unique_ptr<Runner> runner;
    RunResult result;
};

/**
 * Drive @p box->runner under the sibling wall-clock watchdog when a
 * wall budget is set. A run still executing events when the budget
 * runs out stops at its next bulk fold with the in-band wall-clock
 * SimError; one stalled inside a single event is abandoned.
 */
RunResult
runGuarded(std::shared_ptr<GuardedRun> box, const RunOptions &opts,
           std::uint64_t warmup_ops, std::uint64_t measure_ops)
{
    if (!opts.watchdog.wallMs)
        return box->runner->run(warmup_ops, measure_ops);
    runWithSiblingWatchdog(
        box->runner->watchdogState(),
        [box, warmup_ops, measure_ops] {
            box->result = box->runner->run(warmup_ops, measure_ops);
        },
        box);
    return box->result;
}

} // namespace

RunResult
runWorkload(const SystemConfig &cfg,
            const WorkloadProfile &scaled_profile,
            std::uint64_t warmup_ops, std::uint64_t measure_ops,
            RunOptions opts)
{
    // Trace profiles replay their file (streaming, per-core lanes).
    // Passing the profile's content hash enables the reader's scan
    // memo across grid points and makes a trace modified after grid
    // expansion fail loudly instead of replaying different bytes.
    // Composition profiles reload their manifest (members unscanned:
    // the ComposedWorkload's expected-hash reader opens revalidate
    // them through the scan memo) and re-derive the semantic hash so
    // a manifest edited after grid expansion fails loudly. Either
    // failure is a SimError, contained to the row by the sweep's
    // fail policy.
    if (scaled_profile.isComposition()) {
        CompositionSpec spec;
        std::string error;
        if (!loadComposition(scaled_profile.compositionPath, spec,
                             error, /*validate_members=*/false))
            c3d_panic("%s", error.c_str());
        if (compositionHashOf(spec) !=
            scaled_profile.compositionHash) {
            c3d_panic("'%s' changed since the grid was built "
                      "(composition hash %016llx, expected %016llx)",
                      scaled_profile.compositionPath.c_str(),
                      static_cast<unsigned long long>(
                          compositionHashOf(spec)),
                      static_cast<unsigned long long>(
                          scaled_profile.compositionHash));
        }
        auto box = std::make_shared<GuardedRun>();
        auto wl = std::make_unique<ComposedWorkload>(
            spec, scaled_profile.seed, cfg.totalCores());
        box->runner = std::make_unique<Runner>(cfg, *wl, opts);
        box->runner->enableTenantTracking(wl->coreTenants(),
                                          wl->tenantNames());
        box->wl = std::move(wl);
        return runGuarded(std::move(box), opts, warmup_ops,
                          measure_ops);
    }
    auto box = std::make_shared<GuardedRun>();
    if (scaled_profile.isTrace()) {
        box->wl = std::make_unique<TraceFileWorkload>(
            scaled_profile.tracePath, scaled_profile.traceHash);
    } else {
        box->wl = std::make_unique<SyntheticWorkload>(
            scaled_profile, cfg.totalCores(), cfg.coresPerSocket);
    }
    box->runner = std::make_unique<Runner>(cfg, *box->wl, opts);
    return runGuarded(std::move(box), opts, warmup_ops, measure_ops);
}

} // namespace c3d
