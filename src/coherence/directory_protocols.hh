/**
 * @file
 * Directory-based inter-socket protocols.
 *
 * DirectoryProtocol is the common MSI transaction engine used by four
 * of the five evaluated designs: baseline, full-dir, c3d and
 * c3d-full-dir. They differ only in their row of the design table
 * (home_decisions.hh), which homeStep() reads.
 *
 * The snoopy design has no directory and lives in snoopy_protocol.hh.
 */

#ifndef C3DSIM_COHERENCE_DIRECTORY_PROTOCOLS_HH
#define C3DSIM_COHERENCE_DIRECTORY_PROTOCOLS_HH

#include <memory>

#include "coherence/home_decisions.hh"
#include "coherence/protocol_base.hh"

namespace c3d
{

/**
 * Common MSI directory engine: the timing side of homeStep(). It owns
 * the block locks, messages, memory accesses, joins, recall resolution
 * and counters; every directory transition is homeStep()'s.
 */
class DirectoryProtocol : public ProtocolBase
{
  public:
    DirectoryProtocol(Machine &machine, StatGroup *stats,
                      const DirDesign &design);

    void getS(SocketId req, Addr addr, ReadDone done) override;
    void getX(SocketId req, Addr addr, bool has_shared_copy,
              bool private_page, WriteDone done) override;
    void putX(SocketId req, Addr addr) override;
    void dramCacheEvicted(SocketId req, Addr addr, bool dirty) override;

    const char *name() const override { return designName; }

    /** Directory slice for @p home (tests/inspection). */
    DirectoryStore &directory(SocketId home) { return *dirs[home]; }

  private:
    /**
     * The home's decision on @p kind for @p addr, with the entry's
     * next value stored: allocated (any recall resolved), overwritten
     * or erased.
     */
    HomeStep decide(SocketId home, Addr addr, HomeRequest kind,
                    SocketId req, bool private_page = false,
                    bool still_held = false);

    /** Runs at the home once the block lock is held. */
    void handleGetS(SocketId req, SocketId home, Addr addr,
                    ReadDone done);
    void handleGetX(SocketId req, SocketId home, Addr addr,
                    bool upgrade, bool private_page, WriteDone done);

    /** Read memory at home and deliver data to the requester. */
    void serveFromMemory(SocketId req, SocketId home, Addr addr,
                         ReadDone deliver);

    /** Send the write response (data or upgrade-ack) to @p req. */
    void respondWrite(SocketId req, SocketId home, Addr addr,
                      bool with_data, WriteDone done);

    /**
     * Join for the parallel memory-read + broadcast write path: the
     * response leaves once both halves are in (finishBroadcastWrite).
     */
    struct WriteJoin
    {
        SocketId req;
        SocketId home;
        Addr addr;
        bool withData;
        bool memPending;
        bool acksPending;
        WriteDone done;
    };

    /** Send a broadcast write's response once its join is complete. */
    void finishBroadcastWrite(WriteJoin &join);

    /** Memory write at the home, then the PutX decision. */
    void writeBack(SocketId req, Addr addr, bool still_owner);

    /** Recall-victim filter: blocks mid-transaction are pinned. */
    DirectoryStore::Evictable notBusyAt(SocketId home);

    /** Recall-mootness check: entry re-established under the lock. */
    Continuation<bool(Addr)> trackedAt(SocketId home);

    const char *designName;
    const DirPolicy policy;
    std::vector<std::unique_ptr<DirectoryStore>> dirs;

    Counter readsFromMemory;
    Counter readsFromOwner;
    Counter writesServedByOwner;
};

} // namespace c3d

#endif // C3DSIM_COHERENCE_DIRECTORY_PROTOCOLS_HH
