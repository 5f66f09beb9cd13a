/**
 * @file
 * Explicit-state model checker for the directory designs' coherence.
 *
 * The paper verifies the C3D coherence protocol with Murphi, proving
 * deadlock freedom, the Single-Writer-Multiple-Reader invariant and
 * per-location sequential consistency (§IV-C). c3dsim checks its own
 * protocol with an explicit-state BFS over one block on 2-3 sockets.
 * The home side is not restated here: every directory transition is
 * homeStep() (coherence/home_decisions.hh), the function
 * DirectoryProtocol calls, under the design's own DirPolicy. The
 * checker adds only the socket side -- LLC (I/S/M), a clean DRAM
 * cache (I/V) when the design has one, symbolic data as write
 * version numbers -- and a home that blocks while a write's
 * invalidations are in flight.
 *
 * Checked designs: baseline, c3d and c3d-full-dir. full-dir and
 * snoopy keep dirty data in the DRAM cache, which the socket side
 * does not model.
 *
 * Checked invariants in every reachable state:
 *  - SWMR: at most one socket holds Modified; while one does, no
 *    other socket holds any valid copy (its own DRAM cache may hold a
 *    stale one, exactly as §IV-C permits).
 *  - Data value / per-location SC: every readable copy carries the
 *    latest write version; a stale DRAM-cache copy may only exist
 *    shielded behind the socket's own Modified LLC block.
 *  - Clean property: while the directory is not in Modified, memory
 *    holds the latest version.
 *  - Sharing-vector validity: in Shared, the vector is a superset of
 *    all sockets holding a copy.
 *  - Deadlock freedom: every non-quiescent state has an enabled
 *    transition.
 *
 * Mutations inject a known bug, for negative testing and to show
 * each insight is needed: dropping the untracked-write broadcast (an
 * untracked DRAM-cache copy survives a remote write) and dropping the
 * PutX write-through (memory goes stale under a clean-cache read).
 */

#ifndef C3DSIM_CHECK_MODEL_CHECKER_HH
#define C3DSIM_CHECK_MODEL_CHECKER_HH

#include <cstdint>
#include <string>

#include "common/config.hh"

namespace c3d
{

/** A deliberately injected bug (negative testing). */
enum class Mutation
{
    None,
    DropBroadcast,    //!< clears the policy's broadcastOnUntrackedWrite
    DropWriteThrough, //!< the home ignores the PutX memory write
};

/** Checker parameters. */
struct CheckConfig
{
    Design design = Design::C3D; //!< baseline, c3d or c3d-full-dir
    Mutation mutation = Mutation::None;
    std::uint32_t numSockets = 3; //!< 2 or 3
    std::uint32_t maxVersion = 3; //!< write-depth bound (1..3)
};

/** Verification outcome. */
struct CheckResult
{
    bool ok = false;
    std::uint64_t statesExplored = 0;
    std::uint64_t transitionsFired = 0;
    std::string violation; //!< empty when ok
};

/** Exhaustively explore the protocol state space. */
CheckResult checkProtocol(const CheckConfig &cfg);

} // namespace c3d

#endif // C3DSIM_CHECK_MODEL_CHECKER_HH
