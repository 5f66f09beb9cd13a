/**
 * @file
 * The home directory's decisions, apart from timing.
 *
 * homeStep() decides one request for one block: the directory entry's
 * next value and the home's one action. DirectoryProtocol carries the
 * action out with messages, memory accesses and the block lock; the
 * model checker (src/check/model_checker.cc) explores the same
 * function, so a fix made here reaches both. The four directory
 * designs differ only in their row of one table (findDirDesign).
 */

#ifndef C3DSIM_COHERENCE_HOME_DECISIONS_HH
#define C3DSIM_COHERENCE_HOME_DECISIONS_HH

#include <cstdint>

#include "coherence/directory.hh"
#include "common/config.hh"
#include "common/types.hh"

namespace c3d
{

/** Per-design policy knobs for the home's decisions. */
struct DirPolicy
{
    /** Reads to untracked blocks allocate a directory entry. */
    bool allocateOnRead;
    /** Writes to untracked (Invalid) blocks must broadcast
     * invalidations to all remote DRAM caches. */
    bool broadcastOnUntrackedWrite;
    /** The §IV-D private-page hint may elide those broadcasts. */
    bool privatePagesElideBroadcast;
    /** PutX of a clean-design write-through leaves the evicting
     * socket tracked as a sharer (c3d-full-dir keeps M -> S). */
    bool putXKeepsSharer;
    /** Clean DRAM-cache evictions notify the home directory (only
     * meaningful for inclusive/full directories). */
    bool trackDramCacheEvictions;
};

/** A directory-based design: its policy and directory storage. */
struct DirDesign
{
    Design design;
    DirPolicy policy;
    /** Sparse set-associative slices with recalls (Table II), else
     * an idealized unbounded map. */
    bool sparse;
};

/** The row of @p d in the design table; nullptr for snoopy. */
const DirDesign *findDirDesign(Design d);

/** A request as it reaches the home. */
enum class HomeRequest : std::uint8_t
{
    GetS,          //!< read miss
    GetX,          //!< write miss without a local copy
    Upgrade,       //!< write to a Shared LLC copy
    PutX,          //!< Modified LLC eviction (writeback/write-through)
    CleanEviction, //!< clean DRAM-cache eviction notice
};

/** What the home does once the entry holds its next value. */
enum class HomeAction : std::uint8_t
{
    None,              //!< no response (PutX, eviction notice)
    ServeFromMemory,   //!< read home memory, send the data
    Grant,             //!< write response: memory data or a bare ack
    ForwardDowngrade,  //!< the owner downgrades and supplies the data
    ForwardInvalidate, //!< the owner invalidates and supplies the data
    InvalidateSharers, //!< invalidate `targets`, then grant
    Broadcast,         //!< invalidate every other socket, then grant
};

/** The home's decision for one request. */
struct HomeStep
{
    /** The entry afterwards; state Invalid means untracked. */
    DirEntry next;
    HomeAction action = HomeAction::None;
    /** The socket a forward probes (InvalidSocket otherwise). */
    SocketId owner = InvalidSocket;
    /** The sockets invalidated: the other sharers for
     * InvalidateSharers, every socket but the requester for Broadcast.
     */
    SocketMask targets = 0;
    /** The response carries the block (else a permission grant). */
    bool withData = false;
    /** A write from the tracked owner: its writeback is still in
     * flight. */
    bool race = false;
    /** The private-page hint skipped an untracked-write broadcast. */
    bool broadcastElided = false;
};

/**
 * Decide @p kind from @p req for a block whose entry is @p e
 * (DirEntry{} when untracked) on a machine of @p num_sockets sockets.
 * @param private_page GetX/Upgrade: the §IV-D classification is on and
 *        marks the page private.
 * @param still_held PutX: the evictor's LLC holds the block Modified
 *        again; CleanEviction: the evictor's LLC still holds a copy.
 *        Sampled at the evictor and carried by the message.
 */
HomeStep homeStep(const DirPolicy &policy, std::uint32_t num_sockets,
                  const DirEntry &e, HomeRequest kind, SocketId req,
                  bool private_page = false, bool still_held = false);

} // namespace c3d

#endif // C3DSIM_COHERENCE_HOME_DECISIONS_HH
