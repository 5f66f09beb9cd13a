/**
 * @file
 * The event kernel's one driver: every Runner run goes through it.
 *
 * Advances every kernel queue of a Machine in lockstep cells of width
 * W = Machine::cellWidth(). On a MultiQueue machine W is the minimum
 * cross-socket delivery latency (one hop). Within a cell [kW, (k+1)W)
 * sockets share nothing: cross-socket packets are staged in
 * QueueRouter outboxes and every staged arrival lies beyond the cell
 * (a hop takes at least W ticks), so the cell is causally closed and
 * each worker thread can execute its sockets' queues without
 * synchronizing. A SingleQueue machine (1 socket, zero hop latency,
 * TLB classification) is the degenerate case: one queue, one worker,
 * no outboxes, and boundaries that only serve the steps below.
 *
 * After running its queues through a cell, each worker publishes the
 * earliest tick still pending in them to its own line-padded slot.
 * One barrier per cell. The last thread to arrive is the master for
 * that boundary; it runs, single-threaded:
 *
 *   1. PageMapper::commitClaims() — deferred first-touch placement,
 *      in (issue tick, core) order;
 *   2. the caller's boundary hook (warm-up window reset, simulated-
 *      barrier release, completion check), which reports whether it
 *      scheduled anything;
 *   3. the cell-skip computation: the next cell is the one holding
 *      the earliest pending event anywhere, the minimum of the
 *      workers' slots and the router's per-source staged minima
 *      (QueueRouter::minPending), so idle stretches cost one barrier,
 *      not W ticks of empty scanning. The master peeks at the queues
 *      itself only when the hook scheduled into them. The step reads
 *      O(workers + sockets) values, whatever the number of staged
 *      events;
 *   4. the outbox parity flip, which clears the reopened parity's
 *      staged minima.
 *
 * After release each worker flushes the sealed parity's staged
 * deliveries into the queues it owns (sources in ascending order —
 * the canonical order that makes execution identical for any worker
 * count) and starts the next cell.
 *
 * Each worker sets statShard to its id, so stat writes from different
 * workers land in different shards and need no atomics; the barrier
 * master reads them all while the workers are parked.
 *
 * Determinism: event execution inside a cell is per-queue sequential
 * and cells are causally closed, so the only cross-thread effects are
 * commutative stat updates and the staged deliveries, which flush in
 * canonical order. A 1-worker run and an N-worker run therefore
 * execute byte-identical event sequences; the 1-worker run is the
 * sequential differential oracle for the parallel kernel.
 */

#ifndef C3DSIM_SIM_CELL_EXECUTOR_HH
#define C3DSIM_SIM_CELL_EXECUTOR_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/machine.hh"

namespace c3d
{

/** Lockstep-cell driver for a Machine's kernel queues. */
class CellExecutor
{
  public:
    /** What the boundary hook did at one boundary. */
    struct BoundaryResult
    {
        /** The simulated work is complete; the executor stops at the
         * first boundary where the machine is also quiescent (no
         * pending events, no staged deliveries). */
        bool workDone = false;
        /** The hook scheduled events into some queue; the workers'
         * published next ticks do not cover them. */
        bool scheduled = false;
    };

    /**
     * Boundary hook, run single-threaded by the barrier master at
     * each cell boundary tick @p q (after claim commit, before the
     * outbox flush). May schedule events (at >= q) into any queue,
     * and must then say so in its result.
     */
    using BoundaryHook = std::function<BoundaryResult(Tick q)>;

    /**
     * @param machine the machine to drive (either KernelMode)
     * @param num_threads worker threads; clamped to [1, numQueues]
     *        and to MaxStatShards (one stat shard per worker).
     *        Worker j owns queues {q : q % T == j}.
     */
    CellExecutor(Machine &machine, unsigned num_threads);

    /**
     * Drive cells until the boundary hook reports completion and the
     * machine is quiescent. Panics if the machine drains while the
     * hook still reports outstanding work (lost wakeup in the
     * simulated program). Runs the calling thread as worker 0.
     *
     * Fault containment: an exception escaping any worker's event
     * execution (a SimError from c3d_panic/c3d_assert, including the
     * watchdog's) does not tear down the process or deadlock the
     * barrier. The faulting worker records the exception and keeps
     * arriving at barriers; the next barrier master sees the fault,
     * stops every worker, and run() rethrows the first recorded
     * exception on the calling thread after the pool joins -- so the
     * sweep layer can contain the failure to its row.
     */
    void run(const BoundaryHook &boundary);

    unsigned threads() const { return numThreads; }
    /** Cells executed (skipped cells count once). */
    std::uint64_t cellsRun() const { return cells; }

  private:
    void workerLoop(unsigned wid, const BoundaryHook &boundary);
    /** Master-only boundary step; returns with stop/cellBase set. */
    void masterStep(const BoundaryHook &boundary);
    /** Record @p e as the run's fault (first one wins). */
    void recordFault(std::exception_ptr e);

    Machine &m;
    const std::uint32_t numQueues;
    const unsigned numThreads;
    const Tick cellW;

    // Sense-reversing spin barrier. The acq_rel arrival increment
    // orders every worker's cell-execution writes before the
    // master's single-threaded section; the release/acquire sense
    // flip publishes the master's decisions (cellBase, flushParity,
    // stop) back to the workers.
    std::atomic<std::uint32_t> arrived{0};
    std::atomic<bool> sense{false};

    /** A worker's earliest pending tick after its cell, published
     * before it arrives at the barrier; a line of its own. */
    struct alignas(HostLineBytes) WorkerSlot
    {
        Tick next = MaxTick;
    };
    /** slots[wid], written by worker wid, read by the master. */
    std::vector<WorkerSlot> slots;

    // Written only in the master section, read by workers after the
    // sense flip (see barrier ordering above).
    Tick cellBase = 0;
    unsigned flushParity = 0;
    bool stop = false;
    bool workDone = false;
    std::uint64_t cells = 0;

    // Fault containment (cold path; see run()). `faulted` is checked
    // by every worker each cell so a fault anywhere stops the whole
    // machine within one barrier round.
    std::atomic<bool> faulted{false};
    std::mutex faultMutex;
    std::exception_ptr firstFault;
};

} // namespace c3d

#endif // C3DSIM_SIM_CELL_EXECUTOR_HH
