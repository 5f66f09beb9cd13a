/**
 * @file
 * Trace-driven timing core (Table II): width-1, 1 IPC for compute
 * instructions, TSO with a 32-entry store queue.
 *
 * Loads are blocking (the core waits for completion) but may bypass
 * the store queue, with store-to-load forwarding at block
 * granularity. Stores retire into the store queue and drain in
 * order; a full queue stalls the core -- this is how write latency
 * (e.g. C3D's invalidation broadcasts) shows up in performance only
 * when the queue backs up (§IV-B).
 */

#ifndef C3DSIM_CPU_TRACE_CPU_HH
#define C3DSIM_CPU_TRACE_CPU_HH

#include <cstdint>
#include <deque>

#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/barrier.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "trace/workload.hh"

namespace c3d
{

class Machine;
class Socket;

/** One simulated core executing a trace. */
class TraceCpu
{
  public:
    /**
     * @param machine the machine this core lives in
     * @param global_core machine-wide core id
     * @param workload shared reference stream source
     * @param stats registry
     */
    TraceCpu(Machine &machine, CoreId global_core, Workload &workload,
             StatGroup *stats);

    /**
     * Begin executing. @p warmup_ops references are issued before
     * @p on_warm fires (once); the core then continues for
     * @p measure_ops references and fires @p on_done.
     */
    void start(std::uint64_t warmup_ops, std::uint64_t measure_ops,
               Continuation<void()> on_warm,
               Continuation<void()> on_done);

    /** Attach a barrier reached every @p interval references. */
    void
    setBarrier(Barrier *b, std::uint64_t interval)
    {
        barrier = b;
        barrierInterval = interval;
        nextBarrierAt = interval;
    }

    CoreId coreId() const { return globalCore; }
    SocketId socketId() const { return mySocket; }

    /** Instructions committed after warm-up. */
    std::uint64_t instructions() const { return instsRetired.value(); }
    std::uint64_t opsIssued() const { return issued; }
    bool finished() const { return doneFired; }
    /** Tick at which this core crossed its warm-up quota. */
    Tick warmAt() const { return warmTick.value(); }
    /** Tick at which this core issued and drained everything. */
    Tick finishAt() const { return finishTick.value(); }

  private:
    void nextOp();
    void issueMem(const TraceOp &op, bool private_page);
    void pushStore(Addr addr, bool private_page);
    void drainStoreQueue();
    void opComplete();
    void maybeFinish();

    Machine &m;
    Socket &socket;
    const CoreId globalCore;
    const std::uint32_t localCore;
    const SocketId mySocket;
    Workload &gen;
    /** The kernel queue this core's events execute on. */
    EventQueue &eq;

    std::uint64_t warmupOps = 0;
    std::uint64_t totalOps = 0;
    std::uint64_t issued = 0;
    bool warmed = false;
    bool doneFired = false;
    Barrier *barrier = nullptr;
    std::uint64_t barrierInterval = 0;
    std::uint64_t nextBarrierAt = 0;
    Continuation<void()> onWarm;
    Continuation<void()> onDone;

    // Store queue (block addresses), drained in order.
    std::deque<Addr> storeQueue;
    std::deque<bool> storeQueuePrivate;
    bool draining = false;
    bool stalledOnSq = false;
    TraceOp stalledOp;
    bool stalledPrivate = false;

    Counter instsRetired;
    Counter warmTick;
    Counter finishTick;
    Counter loadsIssued;
    Counter storesIssued;
    Counter forwardedLoads;
    Counter sqStalls;
    Counter tlbTraps;
};

} // namespace c3d

#endif // C3DSIM_CPU_TRACE_CPU_HH
