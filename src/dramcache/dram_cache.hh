/**
 * @file
 * Die-stacked DRAM cache controller (Table II: 1 GB, block-based,
 * direct-mapped, 40 ns access, 8 channels x 12.8 GB/s, region-based
 * miss predictor).
 *
 * The organization follows Alloy-cache-style direct-mapped
 * tags-with-data: one DRAM access returns tag+data, so hit and miss
 * detection both cost the access latency unless the miss predictor
 * short-circuits the probe. Fill policy is victim caching: blocks
 * enter on LLC evictions (§II-C "massive victim cache").
 *
 * Dirty blocks are permitted only in the snoopy/full-dir designs; the
 * C3D designs keep the cache clean (§IV-A).
 *
 * Tag store: a direct-mapped cache has no replacement choice, so each
 * block frame is one 64-bit slot word, `blockNumber(addr) << 2 |
 * state`, using CacheState's values (Invalid is 0, so a zero word is
 * an empty frame). 58 block-number bits plus 2 state bits hold every
 * 64-bit address exactly; the resident address is
 * `(word >> 2) << BlockShift`. Frames map as a 1-way TagArray would:
 * `blk & (frames - 1)` for a power-of-two frame count, `blk % frames`
 * otherwise. Each probe, fill, invalidation and clean update reads
 * its frame once. Tenant owners live in a parallel array that exists
 * only while tenant tracking is on.
 *
 * Both arrays come zeroed from std::calloc, which hands out fresh
 * memory as untouched zero pages: a page becomes resident only when
 * a fill, clean update or owner change first writes one of its
 * frames, and a never-written frame reads 0 (empty). A row leaves
 * most frames of a paper-sized store unwritten (Table II's 1 GB
 * cache is a 128 MB tag store per socket), and pays host memory only
 * for the pages it writes. The allocator, not an mmap per machine,
 * decides whether a freed store's pages go back to the kernel, so a
 * many-row sweep does not fault every row's store in afresh.
 */

#ifndef C3DSIM_DRAMCACHE_DRAM_CACHE_HH
#define C3DSIM_DRAMCACHE_DRAM_CACHE_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/tag_array.hh" // CacheState
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dramcache/miss_predictor.hh"
#include "interconnect/channel.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"

namespace c3d
{

/** Result of a probe into the DRAM cache. */
struct DramCacheProbe
{
    bool present = false;
    bool dirty = false;
    /** Tick at which the probe outcome (and data, if any) is known. */
    Tick readyAt = 0;
};

/** Victim displaced by an insertion. */
struct DramCacheVictim
{
    bool valid = false;
    Addr addr = 0;
    bool dirty = false;
};

/** One socket's DRAM cache. */
class DramCache
{
  public:
    /** Requester tag for accesses with no tenant attribution. */
    static constexpr std::uint32_t NoTenant = 0xFFFFFFFFu;

    DramCache(EventQueue &eq, const SystemConfig &cfg, SocketId socket,
              StatGroup *stats);

    /**
     * Turn on per-tenant attribution (composed workloads). Registers
     * per-tenant hit/miss counters with the stat group (so the
     * warm-up reset covers them) and starts exact per-tenant block
     * occupancy bookkeeping. Runs without tenants never call this,
     * so plain rows stay byte-identical.
     */
    void enableTenantTracking(std::uint32_t tenants);

    /**
     * Probe for the block at @p addr (read path or snoop).
     * Consults the miss predictor first; a predicted-absent block is
     * answered in predictor latency without touching DRAM. @p done
     * fires when the outcome is known.
     * @param always_access bypass the predictor short-circuit and pay
     *        the full DRAM access even for absent blocks (remote
     *        snoop probes, §III-A: the DRAM cache must be searched).
     * @param tenant requester's tenant index (NoTenant: untracked).
     *        Counted against the tenant's hit/miss counters exactly
     *        where the cache's own hit/miss counters tick, and a hit
     *        transfers block ownership to the tenant.
     */
    void probe(Addr addr, Continuation<void(DramCacheProbe)> done,
               bool always_access = false,
               std::uint32_t tenant = NoTenant);

    /**
     * The probe without its completion event: look up, count, train
     * and charge the channel now, and return the outcome with the
     * tick it is known at (readyAt). probe() schedules @p done there;
     * a caller whose continuation outgrows probe()'s budget schedules
     * its own event at readyAt instead.
     */
    DramCacheProbe access(Addr addr, bool always_access = false,
                          std::uint32_t tenant = NoTenant);

    /**
     * Insert the block at @p addr (an LLC victim).
     * If the block is already present its state is updated in place.
     * The write occupies a DRAM channel but completes asynchronously
     * (off the critical path).
     * @param tenant owning tenant of the inserted block (NoTenant:
     *        unowned until a tracked probe hits it).
     * @return the displaced victim, if any.
     */
    DramCacheVictim insert(Addr addr, bool dirty,
                           std::uint32_t tenant = NoTenant);

    /**
     * Completion of invalidate(): (wasPresent, wasDirty). Its budget
     * holds a socket's probe continuation (`this`, the block and the
     * caller's own 32-byte continuation) inline, and 56 bytes plus
     * the two flags still fit the completion event's 64.
     */
    using InvalidateDone = InlineFunction<void(bool, bool), 48>;

    /**
     * Invalidate @p addr if present. @p done receives
     * (wasPresent, wasDirty) when the invalidation has completed;
     * predicted-absent blocks complete in predictor latency. An empty
     * @p done schedules nothing: the slot is cleared and the channel
     * charged at call time either way.
     */
    void invalidate(Addr addr, InvalidateDone done);

    /**
     * Refresh the cached copy of @p addr with clean data (downgrade /
     * write-through path). Inserts if absent. Off the critical path.
     * @return the displaced victim, if any.
     */
    DramCacheVictim updateClean(Addr addr,
                                std::uint32_t tenant = NoTenant);

    /**
     * Host-prefetch the slot word of @p addr's frame. No simulated
     * effect: callers issue it where they schedule the event that
     * will read the slot, so the host miss overlaps the wait.
     */
    void
    prefetch(Addr addr) const
    {
        __builtin_prefetch(&slots[slotOf(blockNumber(addr))]);
    }

    /** Structural presence check with no timing (tests/inspection). */
    bool
    contains(Addr addr) const
    {
        const Addr blk = blockNumber(addr);
        return holds(slots[slotOf(blk)], blk);
    }
    bool
    isDirty(Addr addr) const
    {
        const Addr blk = blockNumber(addr);
        const std::uint64_t w = slots[slotOf(blk)];
        return holds(w, blk) && stateOf(w) == CacheState::Modified;
    }

    std::uint64_t capacityBlocks() const { return slots.size(); }
    /** The tag store, capacityBlocks() slot words (tests/inspection). */
    const std::uint64_t *tagStore() const { return slots.begin(); }
    /** Count of resident blocks (linear scan; tests/inspection). */
    std::uint64_t validBlocks() const;

    std::uint64_t hitCount() const { return hits.value(); }
    std::uint64_t missCount() const { return misses.value(); }

    // ---- predictor accuracy (docs/predictors.md) -----------------------
    std::uint64_t predictorTrains() const
    {
        return predictor->trainEvents();
    }
    std::uint64_t predictorBypasses() const
    {
        return predictor->bypassEvents();
    }
    std::uint64_t predictorGhostHits() const
    {
        return predictor->ghostHits();
    }
    std::uint64_t predictorFalsePresents() const
    {
        return predictor->falsePresents();
    }

    // ---- per-tenant attribution (enableTenantTracking) -----------------
    bool tenantTrackingEnabled() const { return !tenantBlocks.empty(); }
    /** Blocks currently owned by tenant @p t (live gauge; unlike the
     * hit/miss counters it is NOT reset at the warm-up boundary). */
    std::uint64_t tenantOccupancy(std::uint32_t t) const
    {
        return tenantBlocks[t];
    }
    std::uint64_t tenantHitCount(std::uint32_t t) const
    {
        return tenantHits[t].value();
    }
    std::uint64_t tenantMissCount(std::uint32_t t) const
    {
        return tenantMisses[t].value();
    }

  private:
    /**
     * Fixed-size owning array of @p T over std::calloc/std::free (see
     * the file comment): elements start as zero bytes and stay
     * untouched pages until written.
     */
    template <typename T>
    class ZeroedArray
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "calloc's zero bytes must be a valid T");

      public:
        ZeroedArray() = default;
        explicit ZeroedArray(std::size_t n)
            : ptr(static_cast<T *>(std::calloc(n, sizeof(T)))), count(n)
        {
            if (!ptr)
                throw std::bad_alloc();
        }

        T &operator[](std::size_t i) { return ptr.get()[i]; }
        const T &operator[](std::size_t i) const { return ptr.get()[i]; }
        std::size_t size() const { return count; }
        bool empty() const { return count == 0; }
        const T *begin() const { return ptr.get(); }
        const T *end() const { return ptr.get() + count; }

      private:
        struct Free
        {
            void operator()(T *p) const { std::free(p); }
        };
        std::unique_ptr<T, Free> ptr;
        std::size_t count = 0;
    };

    /** Slot word of @p blk resident in @p state. */
    static std::uint64_t
    slotWord(Addr blk, CacheState state)
    {
        return blk << 2 | static_cast<std::uint64_t>(state);
    }
    static CacheState
    stateOf(std::uint64_t word)
    {
        return static_cast<CacheState>(word & 3);
    }
    /** Does slot word @p word hold block @p blk? */
    static bool
    holds(std::uint64_t word, Addr blk)
    {
        return word != 0 && (word >> 2) == blk;
    }

    /** Frame index of block @p blk (TagArray's 1-way mapping). */
    std::size_t
    slotOf(Addr blk) const
    {
        return static_cast<std::size_t>(
            slotsArePow2 ? (blk & slotMask) : (blk % slots.size()));
    }

    /** Serialize an access burst on the channel for @p addr. */
    Tick chargeChannel(Addr addr, Tick start);

    /**
     * Presence prediction (exact MissMap or counting filter).
     * @param present the slot's answer, which exact mode returns.
     */
    bool predictPresent(Addr addr, bool present);

    /** Tick tenant @p t's hit or miss counter (NoTenant: no-op). */
    void countTenant(std::uint32_t tenant, bool hit);

    /**
     * Fill frame @p slot with the absent block at @p addr, displacing
     * (and releasing the owner of) whatever it held. The new block
     * starts unowned.
     */
    DramCacheVictim fill(std::size_t slot, Addr addr, CacheState state);

    /**
     * Transfer ownership of frame @p slot to @p tenant (NoTenant or
     * tracking off: no-op). Owners are stored as tenant+1, 0 meaning
     * unowned.
     */
    void setOwner(std::size_t slot, std::uint32_t tenant);

    /** Frame @p slot's block left the cache: release its owner. */
    void dropOwner(std::size_t slot);

    EventQueue &eventq;
    /** One slot word per block frame (see the file comment). */
    ZeroedArray<std::uint64_t> slots;
    bool slotsArePow2 = false;
    std::uint64_t slotMask = 0;
    std::unique_ptr<MissPredictor> predictor;
    const bool predictorEnabled;
    const bool exactPredictor;
    const Tick predictorLatency;
    const Tick accessLatency;
    const bool allowDirty;
    std::vector<Channel> channels;

    /** Bytes moved per access burst: 64 B line + tag overhead. */
    static constexpr std::uint32_t BurstBytes = 80;

    Counter hits;
    Counter misses;
    Counter inserts;
    Counter writeUpdates;
    Counter invalidations;
    Counter evictionsClean;
    Counter evictionsDirty;

    /** For post-construction tenant counter registration. */
    StatGroup *statsGroup = nullptr;
    std::string statPrefix;

    // Per-tenant attribution; all empty unless enabled. The counter
    // vectors are sized once at enable time (the StatGroup keeps raw
    // pointers into them) and must never reallocate.
    std::vector<Counter> tenantHits;
    std::vector<Counter> tenantMisses;
    std::vector<std::uint64_t> tenantBlocks;
    /** Per-frame owner, tenant+1 (0 = unowned). */
    ZeroedArray<std::uint32_t> owners;
};

} // namespace c3d

#endif // C3DSIM_DRAMCACHE_DRAM_CACHE_HH
