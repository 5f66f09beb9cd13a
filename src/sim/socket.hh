/**
 * @file
 * One NUMA socket: per-core L1s, the shared LLC with its embedded
 * local directory, the optional DRAM cache, and the memory
 * controller for the socket's slice of physical memory.
 *
 * The socket implements the intra-socket access path (load/store from
 * a core down to the LLC and local DRAM cache) and the remote-side
 * probe operations that the global protocols invoke (invalidations,
 * downgrades, snoop probes). Inter-socket decisions live in the
 * protocol implementations.
 */

#ifndef C3DSIM_SIM_SOCKET_HH
#define C3DSIM_SIM_SOCKET_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/tag_array.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dramcache/dram_cache.hh"
#include "mem/memory_controller.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/inline_function.hh"
#include "sim/slab.hh"
#include "workload/tenant_stats.hh"

namespace c3d
{

class GlobalProtocol;

/** Outcome of a remote probe (snoopy protocol). */
struct SnoopResult
{
    bool present = false;   //!< any copy found on this socket
    bool suppliedDirty = false; //!< dirty data forwarded
};

/** One socket of the NUMA machine. */
class Socket
{
  public:
    Socket(EventQueue &eq, const SystemConfig &cfg, SocketId id,
           StatGroup *stats);

    /** Late binding: the machine wires the protocol after build. */
    void setProtocol(GlobalProtocol *p) { protocol = p; }

    /**
     * Per-tenant QoS attribution for composed workloads: @p by_core
     * maps each socket-local core to its tenant's stat set (nullptr
     * for idle cores) and @p tenant_idx to its tenant index
     * (DramCache::NoTenant for idle). Empty vectors -- the default --
     * disable tenant accounting entirely. Loads/stores and latency
     * are attributed here (the deepest layer that still knows the
     * requesting core); DRAM-cache hits/misses and block ownership
     * are attributed inside the DRAM cache itself via the tenant tag
     * threaded through probe().
     */
    void
    setTenantStats(std::vector<TenantStatSet *> by_core,
                   std::vector<std::uint32_t> tenant_idx)
    {
        tenantStats = std::move(by_core);
        tenantIdx = std::move(tenant_idx);
    }

    SocketId id() const { return socketId; }

    // ---- CPU-facing path ----------------------------------------------

    /**
     * Core @p core (socket-local index) loads the block at @p addr.
     * @p done fires when the data is available to the core. A core
     * has at most one load outstanding (asserted).
     */
    void load(std::uint32_t core, Addr addr, Continuation<void()> done);

    /**
     * Core @p core stores to the block at @p addr. @p done fires when
     * the store has acquired write permission and retired from the
     * store queue's perspective. A core has at most one store
     * outstanding (asserted).
     * @param private_page TLB classification hint (§IV-D).
     */
    void store(std::uint32_t core, Addr addr, bool private_page,
               Continuation<void()> done);

    // ---- protocol-facing remote-side operations -----------------------

    /**
     * Invalidate every copy of @p addr on this socket (DRAM cache
     * first, then LLC/L1s, per §IV-C). @p done receives whether a
     * dirty copy existed (its data is then forwarded / written back
     * by the caller).
     */
    void probeInvalidate(Addr addr, Continuation<void(bool)> done);

    /**
     * Downgrade this socket's copy of @p addr to Shared for a remote
     * GetS. A Modified LLC copy refreshes the DRAM-cache copy (the
     * PutX-through-DRAM-cache path of §IV-C) and reports dirty; a
     * dirty DRAM-cache copy (dirty designs) is marked clean and
     * reports dirty.
     */
    void probeDowngrade(Addr addr, Continuation<void(bool)> done);

    /**
     * Snoopy-protocol probe: search DRAM cache and LLC; a dirty copy
     * is supplied to the requester and transitions to clean/Shared
     * here. @p is_write additionally invalidates any found copy.
     * With @p retain_dirty (MOESI owned state, Dragon), a read probe
     * that finds dirty data supplies it but keeps the dirty copy
     * (parked in the DRAM cache) instead of cleaning itself.
     */
    void snoopProbe(Addr addr, bool is_write,
                    Continuation<void(SnoopResult)> done,
                    bool retain_dirty = false);

    // ---- structural helpers (used by protocol fills) -------------------

    /** Install a block granted Shared into LLC + requesting L1. */
    void fillRead(std::uint32_t core, Addr addr);

    /** Install/upgrade a block granted Modified for @p core. */
    void fillWrite(std::uint32_t core, Addr addr);

    /** Structural LLC state of @p addr (Invalid if absent). */
    CacheState llcState(Addr addr) const;

    /** Structural L1 state for @p core. */
    CacheState l1State(std::uint32_t core, Addr addr) const;

    DramCache *dramCache() { return dcache.get(); }
    const DramCache *dramCache() const { return dcache.get(); }
    MemoryController &memory() { return mem; }
    const MemoryController &memory() const { return mem; }

    std::uint64_t llcHits() const { return llcHitCount.value(); }
    std::uint64_t llcMisses() const { return llcMissCount.value(); }

  private:
    /**
     * A core's outstanding load or store: its issue tick and its
     * completion. The request path parks them here and each hop
     * captures only the core and the block, so no hop's capture
     * outgrows a continuation's inline budget.
     */
    struct InFlightOp
    {
        Tick start = 0;
        Continuation<void()> done;
    };

    /** Park a new @p kind ("load"/"store") op in @p op. */
    void beginOp(InFlightOp &op, const char *kind,
                 Continuation<void()> done);

    /** Sample @p latency (and the tenant's), then complete @p op. */
    void finishOp(InFlightOp &op, Histogram &latency,
                  std::uint32_t core);

    void
    finishLoad(std::uint32_t core)
    {
        finishOp(loadOps[core], loadLatency, core);
    }

    void
    finishStore(std::uint32_t core)
    {
        finishOp(storeOps[core], storeLatency, core);
    }

    /** Common read path after the L1 misses. */
    void accessLlcForRead(std::uint32_t core, Addr addr);

    /** Issue a GetS, merging with an outstanding one if present. */
    void issueGetS(std::uint32_t core, Addr addr);

    /** Issue a GetX/Upgrade (writes are not merged). */
    void issueGetX(std::uint32_t core, Addr addr, bool upgrade,
                   bool private_page);

    /** A snoop probe's on-chip step, one local-directory access
     * after the DRAM-cache step found (@p dc_present, @p dc_dirty). */
    void snoopOnChip(Addr blk, bool is_write, bool retain_dirty,
                     bool dc_present, bool dc_dirty,
                     Continuation<void(SnoopResult)> done);

    /** Install @p addr into @p core's L1 with @p state. */
    void fillL1(std::uint32_t core, Addr addr, CacheState state);

    /** Handle an LLC victim: L1 back-invalidate, DRAM-cache insert,
     * writeback/write-through via the protocol. */
    void handleLlcVictim(Addr victim, CacheState state,
                         std::uint64_t l1_sharers);

    /** Remove @p addr from LLC and all L1s. @return old LLC state. */
    CacheState invalidateOnChip(Addr addr);

    /** Invalidate all L1 copies except @p keep_core (-1: none). */
    void invalidateL1Sharers(Addr addr, std::uint64_t sharers,
                             std::int32_t keep_core);

    /** Downgrade Modified L1 copies to Shared (remote GetS). */
    void downgradeL1Sharers(Addr addr, std::uint64_t sharers);

    /** Tenant stat set of local @p core; nullptr when untracked. */
    TenantStatSet *
    tenantFor(std::uint32_t core) const
    {
        return core < tenantStats.size() ? tenantStats[core] : nullptr;
    }

    /** Tenant index of local @p core; NoTenant when untracked. */
    std::uint32_t
    tenantIdxFor(std::uint32_t core) const
    {
        return core < tenantIdx.size() ? tenantIdx[core]
                                       : DramCache::NoTenant;
    }

    EventQueue &eventq;
    const SystemConfig &cfg;
    const SocketId socketId;
    GlobalProtocol *protocol = nullptr;

    std::vector<TagArray> l1s;
    TagArray llc;
    std::unique_ptr<DramCache> dcache;
    MemoryController mem;

    /** Outstanding load and store of each local core. */
    std::vector<InFlightOp> loadOps;
    std::vector<InFlightOp> storeOps;

    /** One outstanding GetS with merged waiters. A concurrent
     * remote invalidation poisons the entry: the loads still
     * complete (they are ordered before the invalidating write) but
     * the fill is squashed, as an MSHR transient state would do. */
    struct PendingRead
    {
        std::uint32_t primary = 0; //!< core whose load issued the GetS
        /** Cores whose loads merged in, in arrival order. */
        std::vector<std::uint32_t, slab::Allocator<std::uint32_t>> merged;
        bool poisoned = false;
    };

    /** Read-miss merge table: block -> outstanding GetS. */
    FlatMap<Addr, PendingRead> pendingReads;

    /** Blocks with an invalidation probe mid-flight at this socket.
     * The DRAM-cache controller squashes victim inserts for them
     * (the insert would otherwise revive a dying block between the
     * DRAM-cache and LLC invalidation sub-steps). */
    FlatMap<Addr, std::uint32_t> invInFlight;

    Counter loads;
    Counter stores;
    Counter l1HitCount;
    Counter l1MissCount;
    Counter llcHitCount;
    Counter llcMissCount;
    Counter mergedReads;
    Counter upgradesIssued;
    Counter getXIssued;
    Counter getSIssued;
    Histogram loadLatency;
    Histogram storeLatency;

    /** Local core -> tenant stat set; empty = no tenant tracking. */
    std::vector<TenantStatSet *> tenantStats;
    /** Local core -> tenant index (DramCache attribution tag). */
    std::vector<std::uint32_t> tenantIdx;
};

} // namespace c3d

#endif // C3DSIM_SIM_SOCKET_HH
