/**
 * @file
 * Inter-socket coherence protocol interface.
 *
 * A protocol fields the requests that escape a socket (LLC + local
 * DRAM-cache misses, upgrades, writebacks) and is responsible for all
 * inter-socket messaging, directory bookkeeping, memory accesses and
 * remote cache probes. One implementation exists per evaluated design
 * (§V-A): baseline, snoopy, full-dir, c3d, c3d-full-dir.
 */

#ifndef C3DSIM_COHERENCE_PROTOCOL_HH
#define C3DSIM_COHERENCE_PROTOCOL_HH

#include <cstdint>
#include <memory>

#include "cache/tag_array.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/inline_function.hh"

namespace c3d
{

class Machine;

/** Completion callback for a read request: state granted is Shared. */
using ReadDone = Continuation<void()>;

/** Completion callback for a write/upgrade request. */
using WriteDone = Continuation<void()>;

/** The socket-boundary coherence interface. */
class GlobalProtocol
{
  public:
    virtual ~GlobalProtocol() = default;

    /**
     * Read request (GetS) from socket @p req for the block at
     * @p addr; both the LLC and (if the design has one) the local
     * DRAM cache have missed. @p done fires when the data has
     * arrived at the requesting socket.
     */
    virtual void getS(SocketId req, Addr addr, ReadDone done) = 0;

    /**
     * Write-permission request from socket @p req. @p has_shared_copy
     * distinguishes Upgrade (LLC holds Shared) from GetX.
     * @p private_page is the §IV-D TLB classification hint (only
     * meaningful when the optimization is enabled).
     */
    virtual void getX(SocketId req, Addr addr, bool has_shared_copy,
                      bool private_page, WriteDone done) = 0;

    /**
     * The socket evicted a Modified block from its LLC.
     * Baseline: plain writeback to home memory. Clean designs: the
     * write-through that accompanies retaining a clean copy in the
     * local DRAM cache (§IV-A). Dirty designs never call this (the
     * dirty block sinks into the DRAM cache instead).
     */
    virtual void putX(SocketId req, Addr addr) = 0;

    /**
     * The socket's DRAM cache displaced a block.
     * @p dirty requires a memory writeback (dirty designs only);
     * clean displacements matter only to designs with an inclusive
     * directory, which must drop the sharer bit.
     */
    virtual void dramCacheEvicted(SocketId req, Addr addr,
                                  bool dirty) = 0;

    /** Human-readable design name. */
    virtual const char *name() const = 0;
};

/** Factory: build the protocol implementation for @p design. */
std::unique_ptr<GlobalProtocol>
makeProtocol(Design design, Machine &machine, StatGroup *stats);

} // namespace c3d

#endif // C3DSIM_COHERENCE_PROTOCOL_HH
