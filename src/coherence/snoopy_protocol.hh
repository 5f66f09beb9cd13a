/**
 * @file
 * Snoopy inter-socket coherence (§III-A).
 *
 * Every local miss routes to the home ordering point and broadcasts
 * probes to all remote sockets. All remote sockets must search their
 * DRAM caches (miss predictor permitting), so the furthest socket's
 * response latency sits on the critical path -- the "slow remote
 * hit" pathology -- even when no socket holds a copy.
 *
 * One broadcast engine serves the whole protocol family: the
 * per-line state machine behind it (coherence/snoopy_variants.hh)
 * selects MESI, MESIF, MOESI or Dragon per SystemConfig::protocol,
 * and all variants share the per-home store write buffer
 * (coherence/store_buffer.hh). See docs/coherence.md.
 */

#ifndef C3DSIM_COHERENCE_SNOOPY_PROTOCOL_HH
#define C3DSIM_COHERENCE_SNOOPY_PROTOCOL_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "coherence/protocol_base.hh"
#include "coherence/snoopy_variants.hh"
#include "coherence/store_buffer.hh"

namespace c3d
{

/** Broadcast-snooping protocol family over dirty DRAM caches. */
class SnoopyProtocol : public ProtocolBase
{
  public:
    SnoopyProtocol(Machine &machine, StatGroup *stats,
                   std::unique_ptr<SnoopVariant> var);

    void getS(SocketId req, Addr addr, ReadDone done) override;
    void getX(SocketId req, Addr addr, bool has_shared_copy,
              bool private_page, WriteDone done) override;
    void putX(SocketId req, Addr addr) override;
    void dramCacheEvicted(SocketId req, Addr addr, bool dirty) override;

    const char *name() const override { return variant->name(); }

  private:
    /** Route to the home ordering point, plan, then broadcast. */
    void requestTransaction(SocketId req, Addr addr, bool is_write,
                            bool has_shared_copy, ReadDone done);

    struct SnoopJoin;

    /** The broadcast itself, run with the home block lock held. */
    void runBroadcast(SocketId req, SocketId home, Addr addr,
                      bool is_write, const SnoopPlan &plan,
                      ReadDone done);

    /** Finish @p join at the requester once its data or every ack
     * and the memory data are in; later calls are no-ops. */
    void tryComplete(SnoopJoin &join);

    /**
     * Commit the transaction's home-side line state (sending Dragon
     * update packets first) and release the block lock. Runs at the
     * home, on the completion notice's arrival.
     */
    void commitAndRelease(SocketId home, SocketId req, Addr addr,
                          bool is_write, bool update_copies);

    /** Home-side per-line state (home-queue events only). */
    HomeLineState &lineAt(SocketId home, Addr addr);

    /** Route a home-side memory write through the store buffer. */
    void memWrite(SocketId home, Addr addr, bool remote);

    std::unique_ptr<SnoopVariant> variant;
    std::vector<std::unordered_map<Addr, HomeLineState>> homeLines;
    std::vector<StoreBuffer> writeBuffers;

    Counter snoops;
    Counter snoopHitsDirty;
    Counter snoopMemoryServed;
    Counter cleanForwards;
    Counter supplierFallbacks;
    Counter updatesSent;
    Counter wbEnqueued;
    Counter wbDrained;
    Counter wbFullStalls;
};

std::unique_ptr<GlobalProtocol>
makeSnoopyProtocol(Machine &m, StatGroup *stats);

} // namespace c3d

#endif // C3DSIM_COHERENCE_SNOOPY_PROTOCOL_HH
