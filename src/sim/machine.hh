/**
 * @file
 * The simulated NUMA machine: sockets, interconnect, page mapper,
 * page classifier, and the selected inter-socket coherence protocol,
 * all sharing one event queue and stat registry.
 *
 * The machine is the hardware only; trace CPUs and workloads attach
 * via sim/runner.hh.
 */

#ifndef C3DSIM_SIM_MACHINE_HH
#define C3DSIM_SIM_MACHINE_HH

#include <memory>
#include <vector>

#include "coherence/protocol.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "interconnect/interconnect.hh"
#include "mapping/page_classifier.hh"
#include "mapping/page_mapper.hh"
#include "sim/event_queue.hh"
#include "sim/fault_injector.hh"
#include "sim/queue_router.hh"
#include "sim/socket.hh"
#include "sim/watchdog.hh"

namespace c3d
{

/**
 * How the machine's events are laid out over queues. Either way the
 * cell executor (sim/cell_executor.hh) drives the run.
 *
 * SingleQueue puts the whole machine on one EventQueue; cross-socket
 * packets go straight into it. MultiQueue gives every socket its own
 * queue, so the executor can advance sockets on a thread pool under
 * conservative lookahead. Directly constructed Machines default to
 * SingleQueue, which unit tests step by hand; the Runner picks
 * MultiQueue for every configuration that allows it (see
 * Machine::parallelKernelEligible).
 */
enum class KernelMode
{
    SingleQueue,
    MultiQueue,
};

/** A complete multi-socket system. */
class Machine
{
  public:
    explicit Machine(const SystemConfig &config,
                     KernelMode mode = KernelMode::SingleQueue);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const SystemConfig &config() const { return cfg; }
    KernelMode kernelMode() const { return mode; }

    /**
     * The machine-wide queue of a SingleQueue machine; multi-queue
     * callers must use queueAt()/queueRouter().
     */
    EventQueue &
    eventQueue()
    {
        c3d_assert(mode == KernelMode::SingleQueue,
                   "eventQueue() on a multi-queue machine; use "
                   "queueAt(socket)");
        return *queues[0];
    }

    /** The queue events for socket @p s execute on (either mode). */
    EventQueue &queueAt(SocketId s) { return router_.at(s); }
    QueueRouter &queueRouter() { return router_; }
    /** Distinct kernel queues: 1, or one per socket (MultiQueue);
     * queue q is queueAt(q). */
    std::uint32_t
    numQueues() const
    {
        return static_cast<std::uint32_t>(queues.size());
    }

    /**
     * Cell width of the executor: one hop, at least 1 tick. On a
     * MultiQueue machine it is the conservative lookahead: every
     * QueueRouter::inject lands at least one hop in the future, so
     * cells [kW, (k+1)W) are causally closed. On a SingleQueue
     * machine packets go straight into the one queue (a zero-hop
     * packet lands at its send tick), and the boundaries only pace
     * the warm-up reset, the barrier release and the claim commit.
     */
    Tick cellWidth() const { return cellW; }

    /** First cell boundary strictly after @p t. */
    Tick cellBoundaryAfter(Tick t) const { return (t / cellW + 1) * cellW; }

    /**
     * Whether @p config can run on the MultiQueue kernel: it needs
     * ≥2 sockets (otherwise there is nothing to parallelize), a
     * non-zero hop latency (the lookahead window), and no TLB page
     * classification (a machine-global table serialized on every
     * access). Ineligible configs run as a SingleQueue machine.
     */
    static bool
    parallelKernelEligible(const SystemConfig &config)
    {
        return config.numSockets >= 2 && !config.zeroHopLatency &&
               config.hopLatency >= 1 &&
               !config.tlbPageClassification;
    }

    /**
     * Arm (or with nullptr disarm) the progress watchdog on every
     * kernel queue. The state is owned by the caller (Runner) and
     * must outlive the run.
     */
    void
    attachWatchdog(WatchdogState *w)
    {
        for (auto &q : queues)
            q->attachWatchdog(w);
    }

    /**
     * The machine's fault injector (testing only). Disarmed by
     * default; the Runner arms it from RunOptions::fault.
     */
    FaultInjector &faultInjector() { return faultInjector_; }

    /** Events executed across all kernel queues. */
    std::uint64_t totalEventsExecuted() const;
    /** Heap-fallback callbacks across all kernel queues. */
    std::uint64_t totalHeapCallbackEvents() const;
    /** Events still pending across all kernel queues. */
    std::uint64_t totalPendingEvents() const;

    StatGroup &stats() { return statGroup; }
    const StatGroup &stats() const { return statGroup; }

    std::uint32_t numSockets() const { return cfg.numSockets; }
    Socket &socket(SocketId s) { return *sockets[s]; }
    const Socket &socket(SocketId s) const { return *sockets[s]; }

    Interconnect &interconnect() { return *noc; }
    PageMapper &pageMapper() { return *mapper; }
    PageClassifier &pageClassifier() { return *classifier; }
    GlobalProtocol &protocol() { return *proto; }

    /** Home socket of @p addr for an access by @p requester. */
    SocketId
    homeOf(Addr addr, SocketId requester)
    {
        return mapper->homeOf(addr, requester);
    }

    /** Bytes moved across the interconnect. */
    std::uint64_t interSocketBytes() const;

  private:
    const SystemConfig cfg;
    const KernelMode mode;
    const Tick cellW;
    /** One queue (SingleQueue) or one per socket (MultiQueue). */
    std::vector<std::unique_ptr<EventQueue>> queues;
    QueueRouter router_;
    FaultInjector faultInjector_;
    StatGroup statGroup;
    std::unique_ptr<Interconnect> noc;
    std::unique_ptr<PageMapper> mapper;
    std::unique_ptr<PageClassifier> classifier;
    std::vector<std::unique_ptr<Socket>> sockets;
    std::unique_ptr<GlobalProtocol> proto;
};

} // namespace c3d

#endif // C3DSIM_SIM_MACHINE_HH
