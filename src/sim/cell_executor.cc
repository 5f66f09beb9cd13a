#include "sim/cell_executor.hh"

#include <algorithm>
#include <thread>
#include <vector>

#include "common/log.hh"

namespace c3d
{

CellExecutor::CellExecutor(Machine &machine, unsigned num_threads)
    : m(machine),
      numQueues(machine.numQueues()),
      numThreads(std::max(1u, std::min({num_threads, numQueues,
                                        MaxStatShards}))),
      cellW(machine.cellWidth()),
      slots(numThreads)
{
}

void
CellExecutor::run(const BoundaryHook &boundary)
{
    cellBase = 0;
    flushParity = 0;
    stop = false;
    workDone = false;
    cells = 0;
    arrived.store(0, std::memory_order_relaxed);
    sense.store(false, std::memory_order_relaxed);
    faulted.store(false, std::memory_order_relaxed);
    firstFault = nullptr;

    if (numThreads == 1) {
        workerLoop(0, boundary);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(numThreads - 1);
        for (unsigned wid = 1; wid < numThreads; ++wid) {
            pool.emplace_back([this, wid, &boundary] {
                workerLoop(wid, boundary);
            });
        }
        workerLoop(0, boundary);
        for (auto &t : pool)
            t.join();
    }

    // Rethrow a contained fault on the calling thread, after every
    // worker has parked -- the machine is stopped but its state is
    // whatever the fault left behind; the caller owns disposal.
    if (firstFault)
        std::rethrow_exception(firstFault);
}

void
CellExecutor::recordFault(std::exception_ptr e)
{
    {
        std::lock_guard<std::mutex> guard(faultMutex);
        if (!firstFault)
            firstFault = e;
    }
    faulted.store(true, std::memory_order_release);
}

void
CellExecutor::workerLoop(unsigned wid, const BoundaryHook &boundary)
{
    // Stats written from this thread go to its own shard
    // (common/stats.hh); worker 0 is the calling thread, shard 0.
    statShard = wid;
    while (true) {
        // Execute this worker's queues through the current cell.
        // Causal closure makes the per-socket order irrelevant.
        // A throwing event (SimError) is recorded, not propagated:
        // the worker must keep reaching barriers or the other
        // workers would spin forever.
        if (!faulted.load(std::memory_order_acquire)) {
            try {
                const Tick cell_end = cellBase + cellW - 1;
                Tick next = MaxTick;
                for (SocketId s = wid; s < numQueues; s += numThreads) {
                    EventQueue &eq = m.queueAt(s);
                    eq.run(cell_end);
                    Tick t;
                    if (eq.peekNextTick(t))
                        next = std::min(next, t);
                }
                // Only this worker and, after the barrier below, the
                // master touch the slot; the arrival orders the two.
                slots[wid].next = next;
            } catch (...) {
                recordFault(std::current_exception());
            }
        }

        // One barrier per cell; last arriver is the master.
        const bool my_sense = !sense.load(std::memory_order_relaxed);
        if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            numThreads) {
            if (faulted.load(std::memory_order_acquire)) {
                // Fault anywhere stops the machine at this boundary;
                // skipping masterStep also skips its drain checks,
                // which would misread the half-executed state.
                stop = true;
            } else {
                try {
                    masterStep(boundary);
                } catch (...) {
                    // The master's own panics (lost-wakeup drain
                    // check, claim-commit asserts, boundary hook)
                    // must still release the barrier below.
                    recordFault(std::current_exception());
                    stop = true;
                }
            }
            arrived.store(0, std::memory_order_relaxed);
            sense.store(my_sense, std::memory_order_release);
        } else {
            // Spin with a yield: cells are short, so a futex wait
            // would cost more than it saves on a loaded host, but a
            // pure spin starves the master when workers outnumber
            // hardware threads (CI containers, TSan runs).
            while (sense.load(std::memory_order_acquire) != my_sense)
                std::this_thread::yield();
        }

        if (stop)
            return;

        // Flush the sealed parity into the queues this worker owns.
        // Nobody else touches them: flushTo(dst) runs only on dst's
        // owner, and the next parity flip waits for every worker at
        // the next barrier. A single queue stages nothing.
        if (numQueues == 1)
            continue;
        for (SocketId s = wid; s < numQueues; s += numThreads)
            m.queueRouter().flushTo(s, flushParity);
    }
}

void
CellExecutor::masterStep(const BoundaryHook &boundary)
{
    ++cells;
    const Tick q = cellBase + cellW;
    QueueRouter &router = m.queueRouter();

    // Deferred first-touch placement, then the runner's hook (which
    // may schedule barrier resumes at q into any queue — their
    // owners are parked at the barrier).
    m.pageMapper().commitClaims();
    BoundaryResult hook;
    if (boundary)
        hook = boundary(q);
    workDone = hook.workDone;

    // Cell skip: jump straight to the cell holding the earliest
    // pending event. The workers published their queues' heads and
    // the router tracks the deliveries staged this cell; only what
    // the hook just scheduled needs a look at the queues themselves.
    Tick min_next = router.minPending(router.currentParity());
    for (const WorkerSlot &slot : slots)
        min_next = std::min(min_next, slot.next);
    if (hook.scheduled) {
        for (SocketId s = 0; s < numQueues; ++s) {
            Tick t;
            if (m.queueAt(s).peekNextTick(t))
                min_next = std::min(min_next, t);
        }
    }

    if (min_next == MaxTick) {
        if (!workDone) {
            c3d_panic("event kernel drained at tick %llu with "
                      "simulated work outstanding (lost wakeup?)",
                      static_cast<unsigned long long>(q));
        }
        stop = true;
        return;
    }

    c3d_assert(min_next >= q,
               "event below the lookahead horizon escaped its cell");
    cellBase = (min_next / cellW) * cellW;
    flushParity = router.currentParity();
    router.flipParity();
}

} // namespace c3d
