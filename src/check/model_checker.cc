#include "check/model_checker.hh"

#include <deque>
#include <unordered_set>
#include <vector>

#include "coherence/home_decisions.hh"
#include "common/log.hh"

namespace c3d
{

namespace
{

constexpr std::uint32_t MaxSockets = 3;

enum LlcState : std::uint8_t { LlcI = 0, LlcS = 1, LlcM = 2 };

/** A socket's request in flight: 0, or 1 + its HomeRequest. */
constexpr std::uint8_t PendNone = 0;

std::uint8_t
pend(HomeRequest r)
{
    return static_cast<std::uint8_t>(1 + static_cast<int>(r));
}

/** Abstract machine state (one block). */
struct State
{
    // Per socket. A version field is 0 while its copy is invalid.
    std::uint8_t llc[MaxSockets] = {LlcI, LlcI, LlcI};
    std::uint8_t llcVer[MaxSockets] = {0, 0, 0};
    std::uint8_t dcValid[MaxSockets] = {0, 0, 0};
    std::uint8_t dcVer[MaxSockets] = {0, 0, 0};
    std::uint8_t pending[MaxSockets] = {PendNone, PendNone, PendNone};

    // The home: its directory entry, and the invalidations in flight
    // for the write of busyReq. As in DirectoryProtocol, the entry
    // already holds the write's outcome while the block is busy.
    DirEntry dir;
    std::uint8_t invMask = 0;
    std::uint8_t busyReq = 0; //!< 0 while not busy

    std::uint8_t memVer = 0;
    std::uint8_t curVer = 0;

    bool busy() const { return invMask != 0; }

    std::uint64_t
    pack() const
    {
        std::uint64_t v = 0;
        auto push = [&v](std::uint64_t field, unsigned bits) {
            v = (v << bits) | (field & ((1ull << bits) - 1));
        };
        for (unsigned i = 0; i < MaxSockets; ++i) {
            push(llc[i], 2);
            push(llcVer[i], 2);
            push(dcValid[i], 1);
            push(dcVer[i], 2);
            push(pending[i], 2);
        }
        push(static_cast<std::uint8_t>(dir.state), 2);
        push(dir.sharers, 3);
        push(dir.owner, 2); // InvalidSocket packs as 3
        push(busyReq, 2);
        push(invMask, 3);
        push(memVer, 2);
        push(curVer, 2);
        return v;
    }
};

/** Rule-based successor generator. */
class Model
{
  public:
    explicit Model(const CheckConfig &cfg)
        : n(cfg.numSockets), vmax(cfg.maxVersion),
          writeThrough(cfg.mutation != Mutation::DropWriteThrough),
          dramCache(cfg.design != Design::Baseline)
    {
        c3d_assert(n >= 2 && n <= MaxSockets,
                   "checker supports 2 or 3 sockets");
        c3d_assert(vmax >= 1 && vmax <= 3, "version bound 1..3");
        c3d_assert(cfg.design == Design::Baseline ||
                       cfg.design == Design::C3D ||
                       cfg.design == Design::C3DFullDir,
                   "checker covers baseline, c3d and c3d-full-dir");
        policy = findDirDesign(cfg.design)->policy;
        if (cfg.mutation == Mutation::DropBroadcast)
            policy.broadcastOnUntrackedWrite = false;
    }

    /**
     * Enumerate successors of @p s into @p out. @return number of
     * enabled transitions.
     */
    std::size_t
    successors(const State &s, std::vector<State> &out) const
    {
        out.clear();

        for (std::uint32_t i = 0; i < n; ++i) {
            // A socket has one request at the home at a time; a load
            // may issue while the socket's own write waits for its
            // invalidations.
            const bool idle = s.pending[i] == PendNone;
            // Rule: local DRAM-cache read hit promotes into the LLC.
            if (s.llc[i] == LlcI && s.dcValid[i] && idle) {
                State t = s;
                t.llc[i] = LlcS;
                t.llcVer[i] = s.dcVer[i];
                out.push_back(t);
            }
            // Rules: issue GetS (LLC and DRAM cache both miss), GetX
            // (no copy) or Upgrade (Shared copy).
            auto issue = [&](HomeRequest r) {
                State t = s;
                t.pending[i] = pend(r);
                out.push_back(t);
            };
            if (s.llc[i] == LlcI && !s.dcValid[i] && idle)
                issue(HomeRequest::GetS);
            if (s.llc[i] != LlcM && idle && s.curVer < vmax) {
                issue(s.llc[i] == LlcI ? HomeRequest::GetX
                                       : HomeRequest::Upgrade);
            }
            // Rule: store hit on a Modified block.
            if (s.llc[i] == LlcM && s.curVer < vmax) {
                State t = s;
                ++t.curVer;
                t.llcVer[i] = t.curVer;
                out.push_back(t);
            }
            // Rule: silent Shared LLC eviction, into the DRAM cache
            // when the design has one.
            if (s.llc[i] == LlcS) {
                State t = s;
                evictLlc(t, i);
                out.push_back(t);
            }
            // Rule: DRAM-cache eviction, with the home's part of its
            // notice applied at once. The notice reaches the home
            // before any later request of this socket (per-link FIFO),
            // and it only drops a sharer that holds no copy, so its
            // order against other sockets' requests changes nothing.
            if (s.dcValid[i]) {
                State t = s;
                t.dcValid[i] = 0;
                t.dcVer[i] = 0;
                t.dir = homeStep(policy, n, s.dir,
                                 HomeRequest::CleanEviction, i, false,
                                 s.llc[i] != LlcI)
                            .next;
                out.push_back(t);
            }
            // Rule: Modified LLC eviction -> PutX (blocking home).
            if (s.llc[i] == LlcM && !s.busy()) {
                State t = s;
                evictLlc(t, i);
                if (writeThrough)
                    t.memVer = s.llcVer[i];
                t.dir =
                    homeStep(policy, n, s.dir, HomeRequest::PutX, i)
                        .next;
                out.push_back(t);
            }
            // Rule: the home processes a pending request.
            if (s.pending[i] != PendNone && !s.busy())
                processRequest(s, i, out);
        }

        // Rule: deliver one pending invalidation.
        for (std::uint32_t j = 0; j < n; ++j) {
            if (s.invMask & (1u << j)) {
                State t = s;
                invalidate(t, j);
                t.invMask &= ~(1u << j);
                if (!t.busy())
                    completeWrite(t, s.busyReq);
                out.push_back(t);
            }
        }
        return out.size();
    }

    /** Invariant check. @return empty string when OK. */
    std::string
    check(const State &s) const
    {
        // SWMR.
        std::uint32_t m_holders = 0;
        std::uint32_t m_socket = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (s.llc[i] == LlcM) {
                ++m_holders;
                m_socket = i;
            }
        }
        if (m_holders > 1)
            return "SWMR: two Modified holders";
        if (m_holders == 1) {
            for (std::uint32_t j = 0; j < n; ++j) {
                if (j == m_socket)
                    continue;
                if (s.llc[j] != LlcI)
                    return "SWMR: copy alive beside a Modified block";
                if (s.dcValid[j])
                    return "SWMR: DRAM-cache copy beside Modified";
            }
        }

        // Data value: every readable copy carries the latest version.
        for (std::uint32_t i = 0; i < n; ++i) {
            if (s.llc[i] != LlcI && s.llcVer[i] != s.curVer)
                return "data: LLC copy is stale";
            if (s.dcValid[i] && s.dcVer[i] != s.curVer &&
                s.llc[i] != LlcM) {
                return "data: readable DRAM-cache copy is stale";
            }
        }

        // Clean property: memory fresh unless the dir tracks an owner.
        if (s.dir.state != DirState::Modified && s.memVer != s.curVer)
            return "clean: memory stale without a tracked owner";

        // Shared-state vector is a superset of all holders.
        if (s.dir.state == DirState::Shared) {
            for (std::uint32_t i = 0; i < n; ++i) {
                const bool holds = s.llc[i] != LlcI || s.dcValid[i];
                if (holds && !s.dir.isSharer(i))
                    return "vector: holder missing from sharing vector";
            }
        }
        return {};
    }

    bool
    quiescent(const State &s) const
    {
        if (s.busy())
            return false;
        for (std::uint32_t i = 0; i < n; ++i)
            if (s.pending[i] != PendNone)
                return false;
        return true;
    }

  private:
    /** The home takes @p i's pending request (it is not busy). */
    void
    processRequest(const State &s, std::uint32_t i,
                   std::vector<State> &out) const
    {
        State t = s;
        t.pending[i] = PendNone;
        const HomeStep step =
            homeStep(policy, n, s.dir,
                     static_cast<HomeRequest>(s.pending[i] - 1), i);
        t.dir = step.next;

        switch (step.action) {
          case HomeAction::ServeFromMemory:
            // Memory is fresh: the clean property covers it.
            t.llc[i] = LlcS;
            t.llcVer[i] = s.memVer;
            break;
          case HomeAction::ForwardDowngrade: {
            // The owner (perhaps the requester itself) keeps a Shared
            // copy and writes the block through to its DRAM cache and
            // to memory.
            const SocketId j = step.owner;
            c3d_assert(s.llc[j] == LlcM, "tracked owner holds M");
            t.llc[j] = LlcS;
            if (dramCache) {
                t.dcValid[j] = 1;
                t.dcVer[j] = s.llcVer[j];
            }
            t.memVer = s.llcVer[j];
            t.llc[i] = LlcS;
            t.llcVer[i] = s.llcVer[j];
            break;
          }
          case HomeAction::ForwardInvalidate:
            // Atomic: a single target has no interleaving of
            // interest, and the write overwrites its data anyway.
            invalidate(t, step.owner);
            completeWrite(t, i);
            break;
          case HomeAction::Grant:
            completeWrite(t, i);
            break;
          case HomeAction::InvalidateSharers:
          case HomeAction::Broadcast: {
            if (step.targets) {
                t.invMask = static_cast<std::uint8_t>(step.targets);
                t.busyReq = static_cast<std::uint8_t>(i);
            } else {
                completeWrite(t, i);
            }
            break;
          }
          case HomeAction::None:
            c3d_panic("a request got no response");
        }
        out.push_back(t);
    }

    /** @p i's LLC drops its copy, kept clean in the DRAM cache when
     * the design has one. */
    void
    evictLlc(State &t, std::uint32_t i) const
    {
        if (dramCache) {
            t.dcValid[i] = 1;
            t.dcVer[i] = t.llcVer[i];
        }
        t.llc[i] = LlcI;
        t.llcVer[i] = 0;
    }

    /** Socket @p j loses every copy (LLC and DRAM cache). */
    static void
    invalidate(State &t, std::uint32_t j)
    {
        t.llc[j] = LlcI;
        t.llcVer[j] = 0;
        t.dcValid[j] = 0;
        t.dcVer[j] = 0;
    }

    /** @p i's write completes: the new version in its Modified LLC. */
    static void
    completeWrite(State &t, std::uint32_t i)
    {
        ++t.curVer;
        t.llc[i] = LlcM;
        t.llcVer[i] = t.curVer;
        // The store makes any clean local DRAM-cache copy stale; the
        // implementation invalidates it on completion.
        t.dcValid[i] = 0;
        t.dcVer[i] = 0;
        t.busyReq = 0;
    }

    const std::uint32_t n;
    const std::uint32_t vmax;
    const bool writeThrough;
    const bool dramCache;
    DirPolicy policy;
};

} // namespace

CheckResult
checkProtocol(const CheckConfig &cfg)
{
    Model model(cfg);
    CheckResult res;

    State init;
    std::unordered_set<std::uint64_t> visited;
    std::deque<State> frontier;

    visited.insert(init.pack());
    frontier.push_back(init);

    std::vector<State> succ;
    while (!frontier.empty()) {
        const State s = frontier.front();
        frontier.pop_front();
        ++res.statesExplored;

        const std::string bad = model.check(s);
        if (!bad.empty()) {
            res.ok = false;
            res.violation = bad;
            return res;
        }

        const std::size_t enabled = model.successors(s, succ);
        if (enabled == 0 && !model.quiescent(s)) {
            res.ok = false;
            res.violation = "deadlock: pending work with no "
                            "enabled transition";
            return res;
        }
        res.transitionsFired += enabled;
        for (const State &t : succ) {
            if (visited.insert(t.pack()).second)
                frontier.push_back(t);
        }
    }

    res.ok = true;
    return res;
}

} // namespace c3d
