#include "coherence/home_decisions.hh"

namespace c3d
{

namespace
{

// baseline: sparse directory over LLCs, no DRAM cache (§V-A).
// full-dir: idealized inclusive directory, dirty DRAM caches (§III-B).
// c3d: sparse non-inclusive directory, clean DRAM caches, broadcasts
//   for untracked writes (§IV). c3d-full-dir: clean DRAM caches under
//   an idealized full directory: no broadcasts, M -> S on PutX (§V-A).
// clang-format off
const DirDesign kDirDesigns[] = {
    // design            allocOnRead bcastUntracked privElide putXKeeps trackDcEvict  sparse
    {Design::Baseline,   {true,       false,         false,    false,    false},       true},
    {Design::FullDir,    {true,       false,         false,    false,    true},        false},
    {Design::C3D,        {false,      true,          true,     false,    false},       true},
    {Design::C3DFullDir, {true,       false,         false,    true,     true},        false},
};
// clang-format on

SocketMask bit(SocketId s) { return SocketMask{1} << s; }

DirEntry
sharedBy(SocketMask sharers)
{
    DirEntry e;
    e.state = DirState::Shared;
    e.sharers = sharers;
    return e;
}

DirEntry
modifiedBy(SocketId owner)
{
    DirEntry e;
    e.state = DirState::Modified;
    e.sharers = bit(owner);
    e.owner = owner;
    return e;
}

} // namespace

const DirDesign *
findDirDesign(Design d)
{
    for (const DirDesign &row : kDirDesigns) {
        if (row.design == d)
            return &row;
    }
    return nullptr;
}

HomeStep
homeStep(const DirPolicy &policy, std::uint32_t num_sockets,
         const DirEntry &e, HomeRequest kind, SocketId req,
         bool private_page, bool still_held)
{
    HomeStep s;
    s.next = e;
    const bool modified = e.state == DirState::Modified;
    const bool owned_by_req = modified && e.owner == req;

    switch (kind) {
      case HomeRequest::GetS:
        s.withData = true;
        s.action = HomeAction::ServeFromMemory;
        if (modified) {
            // Slow remote hit (§III-B Fig. 4). The owner stays in the
            // vector even on a writeback race, so any DRAM-cache copy
            // it retains stays covered by future invalidations. The
            // owner may be the requester: its load missed while a
            // sibling core's GetX was outstanding, and its Modified
            // copy is written back before memory serves anyone.
            s.next = sharedBy(bit(e.owner) | bit(req));
            s.action = HomeAction::ForwardDowngrade;
            s.owner = e.owner;
        } else if (e.state == DirState::Shared) {
            s.next.addSharer(req);
        } else if (policy.allocateOnRead) {
            // Untracked: memory is fresh by the clean-cache /
            // inclusivity invariant of every directory design.
            s.next = sharedBy(bit(req));
        }
        return s;

      case HomeRequest::GetX:
      case HomeRequest::Upgrade: {
        const bool upgrade = kind == HomeRequest::Upgrade;
        s.next = modifiedBy(req);
        s.withData = !upgrade;
        s.action = HomeAction::Grant;
        if (modified && !owned_by_req) {
            // Ownership transfer: the owner forwards the dirty block.
            s.withData = true;
            s.action = HomeAction::ForwardInvalidate;
            s.owner = e.owner;
        } else if (owned_by_req) {
            // The requester re-acquires a block whose writeback is
            // still queued.
            s.race = true;
        } else if (e.state == DirState::Shared) {
            s.targets = e.sharers & ~bit(req);
            // An upgrade is a bare grant only while the requester's
            // copy is still covered by the vector.
            s.withData = !(upgrade && e.isSharer(req));
            s.action = HomeAction::InvalidateSharers;
        } else if (policy.broadcastOnUntrackedWrite) {
            // §IV-C: an untracked block may sit in any remote DRAM
            // cache.
            if (policy.privatePagesElideBroadcast && private_page) {
                s.broadcastElided = true;
            } else {
                s.action = HomeAction::Broadcast;
                const SocketMask all = num_sockets >= 64
                    ? ~SocketMask{0}
                    : (SocketMask{1} << num_sockets) - 1;
                s.targets = all & ~bit(req);
            }
        }
        return s;
      }

      case HomeRequest::PutX:
        if (owned_by_req && !still_held) {
            // c3d-full-dir: the evictor retains a clean copy in its
            // DRAM cache; keep it tracked as a sharer (M -> S).
            s.next = policy.putXKeepsSharer ? sharedBy(bit(req))
                                            : DirEntry{};
        }
        return s;

      case HomeRequest::CleanEviction:
        // Inclusive-directory bookkeeping: clear the sharer bit unless
        // the socket still holds the block on chip.
        if (policy.trackDramCacheEvictions &&
            e.state == DirState::Shared && !still_held) {
            s.next.removeSharer(req);
            if (s.next.sharers == 0)
                s.next = DirEntry{};
        }
        return s;
    }
    return s;
}

} // namespace c3d
