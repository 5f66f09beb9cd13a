#include "cpu/trace_cpu.hh"

#include <algorithm>

#include "sim/machine.hh"

namespace c3d
{

TraceCpu::TraceCpu(Machine &machine, CoreId global_core,
                   Workload &workload, StatGroup *stats)
    : m(machine),
      socket(machine.socket(global_core /
                            machine.config().coresPerSocket)),
      globalCore(global_core),
      localCore(global_core % machine.config().coresPerSocket),
      mySocket(global_core / machine.config().coresPerSocket),
      gen(workload),
      eq(machine.queueAt(global_core /
                         machine.config().coresPerSocket))
{
    const std::string prefix = "cpu" + std::to_string(global_core);
    instsRetired.init(stats, prefix + ".instructions",
                      "instructions committed (post-warmup)");
    warmTick.init(nullptr, prefix + ".warm_tick",
                  "tick at which this core crossed warm-up");
    finishTick.init(nullptr, prefix + ".finish_tick",
                    "tick at which this core finished");
    loadsIssued.init(stats, prefix + ".loads", "loads issued");
    storesIssued.init(stats, prefix + ".stores", "stores issued");
    forwardedLoads.init(stats, prefix + ".forwarded_loads",
                        "loads forwarded from the store queue");
    sqStalls.init(stats, prefix + ".sq_stalls",
                  "stalls on a full store queue");
    tlbTraps.init(stats, prefix + ".tlb_traps",
                  "page-classification traps taken");
}

void
TraceCpu::start(std::uint64_t warmup_ops, std::uint64_t measure_ops,
                Continuation<void()> on_warm,
                Continuation<void()> on_done)
{
    warmupOps = warmup_ops;
    totalOps = warmup_ops + measure_ops;
    onWarm = std::move(on_warm);
    onDone = std::move(on_done);

    if (totalOps == 0) {
        warmed = true;
        doneFired = true;
        eq.schedule(0, [this] {
            if (onWarm)
                onWarm();
            if (onDone)
                onDone();
        });
        return;
    }
    eq.schedule(0, [this] { nextOp(); });
}

void
TraceCpu::nextOp()
{
    if (issued == totalOps) {
        if (barrier && !doneFired)
            barrier->retire();
        maybeFinish();
        return;
    }

    // Iterative-kernel synchronization: rendezvous with the other
    // cores every barrierInterval references.
    if (barrier && barrierInterval && issued >= nextBarrierAt &&
        issued != 0) {
        nextBarrierAt = issued + barrierInterval;
        barrier->arrive(globalCore, [this] { nextOp(); });
        return;
    }

    if (issued == warmupOps && !warmed) {
        warmed = true;
        warmTick += eq.now();
        if (onWarm)
            onWarm();
    }

    TraceOp op = gen.next(globalCore);
    ++issued;

    if (warmed)
        instsRetired += op.gap + 1;

    // TLB page classification (§IV-D): first touches and
    // private->shared transitions trap to the OS.
    Tick extra = 0;
    bool private_page = false;
    if (m.config().tlbPageClassification) {
        bool trapped = false;
        private_page = m.pageClassifier().accessAndClassify(
            op.addr, globalCore, trapped);
        if (trapped) {
            ++tlbTraps;
            extra = m.config().tlbTrapPenalty;
        }
    }

    const Tick delay = op.gap + extra;
    if (delay > 0) {
        eq.schedule(delay, [this, op, private_page] {
            issueMem(op, private_page);
        });
    } else {
        issueMem(op, private_page);
    }
}

void
TraceCpu::issueMem(const TraceOp &op, bool private_page)
{
    // Deferred first-touch (multi-queue kernel): an access to a page
    // with no home yet cannot place it inline — placement mutates the
    // shared page map, and a real first touch takes an OS page fault
    // before the access proceeds anyway. File a claim stamped with
    // the issue tick and retry at the next cell boundary, after the
    // barrier master has committed all claims in (tick, core) order.
    // The retry re-runs this gate and then finds the page resolved.
    PageMapper &pm = m.pageMapper();
    if (pm.deferredTouch() && !pm.resolved(op.addr)) {
        pm.claim(mySocket, op.addr, eq.now(), globalCore);
        eq.scheduleAt(m.cellBoundaryAfter(eq.now()),
                      [this, op, private_page] {
                          issueMem(op, private_page);
                      });
        return;
    }

    if (op.op == MemOp::Read) {
        ++loadsIssued;
        // TSO: loads bypass queued stores; forward at block grain.
        const Addr blk = blockAlign(op.addr);
        if (std::find(storeQueue.begin(), storeQueue.end(), blk) !=
            storeQueue.end()) {
            ++forwardedLoads;
            eq.schedule(m.config().l1Latency,
                        [this] { opComplete(); });
            return;
        }
        socket.load(localCore, op.addr, [this] { opComplete(); });
        return;
    }

    ++storesIssued;
    if (storeQueue.size() >= m.config().storeQueueEntries) {
        // Full store queue: the core stalls until a slot frees.
        ++sqStalls;
        stalledOnSq = true;
        stalledOp = op;
        stalledPrivate = private_page;
        return;
    }
    pushStore(op.addr, private_page);
}

void
TraceCpu::pushStore(Addr addr, bool private_page)
{
    storeQueue.push_back(blockAlign(addr));
    storeQueuePrivate.push_back(private_page);
    drainStoreQueue();
    // The store retires into the queue in one cycle.
    eq.schedule(1, [this] { opComplete(); });
}

void
TraceCpu::drainStoreQueue()
{
    if (draining || storeQueue.empty())
        return;
    draining = true;
    const Addr addr = storeQueue.front();
    const bool priv = storeQueuePrivate.front();
    socket.store(localCore, addr, priv, [this] {
        storeQueue.pop_front();
        storeQueuePrivate.pop_front();
        draining = false;
        if (stalledOnSq) {
            stalledOnSq = false;
            pushStore(stalledOp.addr, stalledPrivate);
        }
        drainStoreQueue();
        maybeFinish();
    });
}

void
TraceCpu::opComplete()
{
    nextOp();
}

void
TraceCpu::maybeFinish()
{
    if (issued == totalOps && storeQueue.empty() && !doneFired) {
        doneFired = true;
        finishTick += eq.now();
        if (onDone)
            onDone();
    }
}

} // namespace c3d
