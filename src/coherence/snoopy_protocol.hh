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
 * selects MESI, MESIF, MOESI or Dragon per SystemConfig::protocol.
 * See docs/coherence.md.
 */

#ifndef C3DSIM_COHERENCE_SNOOPY_PROTOCOL_HH
#define C3DSIM_COHERENCE_SNOOPY_PROTOCOL_HH

#include <memory>
#include <vector>

#include "coherence/protocol_base.hh"
#include "coherence/snoopy_variants.hh"
#include "sim/flat_map.hh"

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

    /** Home lines held over every home (tests/inspection). */
    std::uint64_t homeLineCount() const;

    /** Held home lines that are empty; always 0 (tests/inspection). */
    std::uint64_t emptyHomeLines() const;

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

    /**
     * Home-side per-line state (home-queue events only); an absent
     * line reads as empty. Valid until the next updateLine() at
     * @p home.
     */
    const HomeLineState &lineAt(SocketId home, Addr addr) const;

    /**
     * Apply @p change to the home-side state of @p addr's line and
     * drop the line if that leaves it empty, so the table holds only
     * lines some socket is believed to cache.
     */
    template <typename F>
    void updateLine(SocketId home, Addr addr, F &&change);

    std::unique_ptr<SnoopVariant> variant;
    /** Per home: the non-empty lines, keyed by block address. */
    std::vector<FlatMap<Addr, HomeLineState>> homeLines;

    Counter snoops;
    Counter snoopHitsDirty;
    Counter snoopMemoryServed;
    Counter cleanForwards;
    Counter supplierFallbacks;
    Counter updatesSent;
};

std::unique_ptr<GlobalProtocol>
makeSnoopyProtocol(Machine &m, StatGroup *stats);

} // namespace c3d

#endif // C3DSIM_COHERENCE_SNOOPY_PROTOCOL_HH
