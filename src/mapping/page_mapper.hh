/**
 * @file
 * Physical page placement across sockets (§V "Memory Allocation
 * Policy"): Interleave (INT), First-Touch-1 (FT1, from application
 * start) and First-Touch-2 (FT2, from the start of the parallel
 * phase).
 *
 * FT1's known pathology -- large regions mapped to one socket because
 * a single thread initializes memory before the parallel phase -- is
 * reproduced by letting workloads pre-touch pages (the serial
 * initialization) before any timed access.
 */

#ifndef C3DSIM_MAPPING_PAGE_MAPPER_HH
#define C3DSIM_MAPPING_PAGE_MAPPER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/flat_map.hh"

namespace c3d
{

/**
 * Assigns every page a home socket.
 *
 * Under the parallel kernel first-touch placement is deferred
 * (@p deferred_touch): cores cannot mutate the shared page map
 * mid-cell from several threads, and the map-at-access-time shortcut
 * was never architecturally honest anyway — a real first touch takes
 * an OS page fault before the access can proceed. Instead, a core
 * touching an unresolved page files a claim (timestamped with its
 * issue tick) and retries the access at the next synchronization
 * boundary; the cell executor's single-threaded barrier hook commits
 * all claims in (tick, core) order, so placement is deterministic for
 * any worker count. The page map is then read-only during cell
 * execution.
 */
class PageMapper
{
  public:
    PageMapper(MappingPolicy policy, std::uint32_t num_sockets,
               StatGroup *stats, bool deferred_touch = false)
        : policy(policy), numSockets(num_sockets),
          deferred(deferred_touch &&
                   policy != MappingPolicy::Interleave)
    {
        pagesMapped.init(stats, "mapper.pages_mapped",
                         "distinct pages placed");
        perSocketPages.resize(num_sockets);
        for (std::uint32_t s = 0; s < num_sockets; ++s) {
            perSocketPages[s].init(
                stats,
                "mapper.socket" + std::to_string(s) + "_pages",
                "pages homed at this socket");
        }
        if (deferred)
            claimBufs.resize(num_sockets);
    }

    /**
     * Serial-phase initialization touch (FT1 only). Called by the
     * workload setup for every page the single-threaded init phase
     * would write; under FT1 this pins the page to @p socket.
     */
    void
    preTouch(Addr addr, SocketId socket)
    {
        if (policy != MappingPolicy::FirstTouch1)
            return;
        mapIfNew(pageNumber(addr), socket);
    }

    /**
     * Resolve the home socket of @p addr for an access issued by
     * @p socket. First-touch policies place unmapped pages here.
     */
    SocketId
    homeOf(Addr addr, SocketId socket)
    {
        if (policy == MappingPolicy::Interleave)
            return static_cast<SocketId>(pageNumber(addr) % numSockets);

        const Addr page = pageNumber(addr);
        if (const SocketId *home = map.find(page))
            return *home;
        c3d_assert(!deferred,
                   "unresolved page reached homeOf under deferred "
                   "first-touch; the issue path must claim first");
        return mapIfNew(page, socket);
    }

    /** True when first-touch placement goes through claim(). */
    bool deferredTouch() const { return deferred; }

    /** True when homeOf() can answer without placing a page. */
    bool
    resolved(Addr addr) const
    {
        if (policy == MappingPolicy::Interleave)
            return true;
        return map.contains(pageNumber(addr));
    }

    /**
     * File a first-touch claim from @p socket for @p addr (deferred
     * mode). Called from the claiming socket's kernel thread; the
     * per-socket buffers keep filing contention-free.
     */
    void
    claim(SocketId socket, Addr addr, Tick tick, CoreId core)
    {
        c3d_assert(deferred, "claim() outside deferred mode");
        claimBufs[socket].push_back(
            Claim{tick, core, pageNumber(addr), socket});
    }

    /**
     * Place all pending claims, first touch winning in (issue tick,
     * core) order — the same winner a single-threaded kernel with an
     * OS fault queue would pick, independent of worker count. Runs
     * on the cell executor's barrier master only.
     */
    void
    commitClaims()
    {
        pendingClaims.clear();
        for (auto &buf : claimBufs) {
            pendingClaims.insert(pendingClaims.end(), buf.begin(),
                                 buf.end());
            buf.clear();
        }
        std::sort(pendingClaims.begin(), pendingClaims.end(),
                  [](const Claim &a, const Claim &b) {
                      if (a.tick != b.tick)
                          return a.tick < b.tick;
                      return a.core < b.core;
                  });
        for (const Claim &c : pendingClaims)
            mapIfNew(c.page, c.socket);
        pendingClaims.clear();
    }

    /** Home of an already-placed page; interleave for unmapped. */
    SocketId
    homeOfExisting(Addr addr) const
    {
        if (policy == MappingPolicy::Interleave)
            return static_cast<SocketId>(pageNumber(addr) % numSockets);
        const SocketId *home = map.find(pageNumber(addr));
        return home ? *home : 0;
    }

    MappingPolicy policyKind() const { return policy; }
    std::uint64_t mappedPages() const { return map.size(); }

    /** Pages homed at @p socket (placement-balance inspection). */
    std::uint64_t
    pagesAt(SocketId socket) const
    {
        return perSocketPages.at(socket).value();
    }

  private:
    SocketId
    mapIfNew(Addr page, SocketId socket)
    {
        auto [home, inserted] = map.tryEmplace(page, socket);
        if (inserted) {
            ++pagesMapped;
            ++perSocketPages[socket];
        }
        return *home;
    }

    struct Claim
    {
        Tick tick;
        CoreId core;
        Addr page;
        SocketId socket;
    };

    const MappingPolicy policy;
    const std::uint32_t numSockets;
    const bool deferred;
    FlatMap<Addr, SocketId> map;
    Counter pagesMapped;
    std::vector<Counter> perSocketPages;
    /** claimBufs[socket]: claims filed by that socket's thread. */
    std::vector<std::vector<Claim>> claimBufs;
    std::vector<Claim> pendingClaims; //!< commitClaims scratch
};

} // namespace c3d

#endif // C3DSIM_MAPPING_PAGE_MAPPER_HH
