/**
 * @file
 * Global-directory storage structures.
 *
 * Two organizations back the evaluated designs (§III-B, §V-A):
 *
 *  - SparseDirectory: a set-associative cache of directory entries
 *    (AMD-style "sparse 2x/32-way, socket-grain sharing vector",
 *    Table II). Allocation conflicts evict (recall) a victim entry,
 *    which the protocol must resolve by invalidating the victim's
 *    sharers. Used by baseline and C3D. Stored as three parallel
 *    rows -- 8-byte block keys, 8-byte LRU stamps, 16-byte entries
 *    -- so a set scan reads only the keys.
 *
 *  - FullDirectory: an unbounded map with no recalls, modelling the
 *    paper's idealized inclusive directory (full-dir, c3d-full-dir)
 *    that optimistically keeps a 10-cycle access latency. It stays a
 *    node-based std::unordered_map: a DirectoryStore entry keeps its
 *    address until it is erased (as SparseDirectory's fixed rows do),
 *    which an open-addressed table that moves values as it grows
 *    would break.
 */

#ifndef C3DSIM_COHERENCE_DIRECTORY_HH
#define C3DSIM_COHERENCE_DIRECTORY_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/inline_function.hh"

namespace c3d
{

/** Stable global-directory states (Fig. 5). */
enum class DirState : std::uint8_t
{
    Invalid,
    Shared,
    Modified,
};

/** A directory entry: state plus socket-grain sharing vector. */
struct DirEntry
{
    std::uint64_t sharers = 0; //!< bitmask of sockets
    SocketId owner = InvalidSocket;
    DirState state = DirState::Invalid;

    bool
    isSharer(SocketId s) const
    {
        return (sharers >> s) & 1;
    }
    void addSharer(SocketId s) { sharers |= (1ull << s); }
    void removeSharer(SocketId s) { sharers &= ~(1ull << s); }
    std::uint32_t
    sharerCount() const
    {
        return __builtin_popcountll(sharers);
    }
};

/** A directory entry recalled to make room for a new allocation. */
struct DirRecall
{
    bool valid = false;
    Addr addr = 0;
    DirEntry entry;
};

/** Abstract directory-slice storage. */
class DirectoryStore
{
  public:
    virtual ~DirectoryStore() = default;

    /** Look up @p addr; nullptr when untracked. */
    virtual DirEntry *find(Addr addr) = 0;

    /** Filter for recall victims (e.g. "block not locked"). */
    using Evictable = Continuation<bool(Addr)>;

    /**
     * Allocate (or find) an entry for @p addr. May displace a victim
     * whose sharers the caller must invalidate. @p evictable, when
     * set, restricts which victims may be recalled -- a block with a
     * transaction in flight must not lose its entry mid-transaction.
     */
    virtual DirEntry *allocate(Addr addr, DirRecall &recall,
                               const Evictable &evictable = {}) = 0;

    /** Drop the entry for @p addr (transition to untracked). */
    virtual void erase(Addr addr) = 0;

    /** Number of tracked blocks. */
    virtual std::uint64_t trackedBlocks() const = 0;

    /** Storage cost of this organization, in bits (§III-B). */
    virtual std::uint64_t storageBits() const = 0;
};

/**
 * Set-associative sparse directory with recalls.
 *
 * Each set is a contiguous row of 8-byte keys (the block number, or
 * NoBlock for a free way), so a lookup scans one row -- 256 bytes for
 * a 32-way set -- for both the hit and the first free way. The LRU
 * stamps and the DirEntry payloads live in parallel rows indexed the
 * same way and are touched only for the way that is used.
 */
class SparseDirectory : public DirectoryStore
{
  public:
    /**
     * @param num_entries capacity in entries
     * @param ways associativity
     * @param num_sockets sharing-vector width
     */
    SparseDirectory(std::uint64_t num_entries, std::uint32_t ways,
                    std::uint32_t num_sockets, StatGroup *stats,
                    const std::string &name)
        : numWays(ways), vectorBits(num_sockets)
    {
        c3d_assert(ways >= 1, "directory needs at least one way");
        std::uint64_t entries = num_entries < ways ? ways : num_entries;
        sets = entries / ways;
        setsArePow2 = (sets & (sets - 1)) == 0;
        setMask = setsArePow2 ? sets - 1 : 0;
        keys.assign(sets * ways, NoBlock);
        lastUse.assign(sets * ways, 0);
        payload.assign(sets * ways, DirEntry{});
        recalls.init(stats, name + ".recalls",
                     "entries displaced by allocation conflicts");
        allocations.init(stats, name + ".allocations",
                         "directory entries allocated");
    }

    DirEntry *
    find(Addr addr) override
    {
        const Addr blk = blockNumber(addr);
        const std::size_t base = setBase(blk);
        const Addr *row = &keys[base];
        for (std::uint32_t w = 0; w < numWays; ++w) {
            if (row[w] == blk)
                return use(base + w);
        }
        return nullptr;
    }

    DirEntry *
    allocate(Addr addr, DirRecall &recall,
             const Evictable &evictable = {}) override
    {
        recall.valid = false;
        const Addr blk = blockNumber(addr);
        const std::size_t base = setBase(blk);
        const Addr *row = &keys[base];
        std::uint32_t free_way = numWays;
        for (std::uint32_t w = 0; w < numWays; ++w) {
            if (row[w] == blk)
                return use(base + w);
            if (row[w] == NoBlock && free_way == numWays)
                free_way = w;
        }

        ++allocations;
        std::size_t victim = base + free_way;
        if (free_way == numWays) {
            // Recall the LRU way among those whose block is safe to
            // displace; fall back to plain LRU if none qualifies
            // (vanishingly rare: every way mid-transaction).
            const std::uint64_t *stamps = &lastUse[base];
            std::uint32_t lru = numWays;
            for (std::uint32_t w = 0; w < numWays; ++w) {
                if (evictable && !evictable(row[w] << BlockShift))
                    continue;
                if (lru == numWays || stamps[w] < stamps[lru])
                    lru = w;
            }
            if (lru == numWays) {
                lru = 0;
                for (std::uint32_t w = 1; w < numWays; ++w) {
                    if (stamps[w] < stamps[lru])
                        lru = w;
                }
            }
            victim = base + lru;
            ++recalls;
            recall.valid = true;
            recall.addr = keys[victim] << BlockShift;
            recall.entry = payload[victim];
        }
        keys[victim] = blk;
        payload[victim] = DirEntry{};
        return use(victim);
    }

    void
    erase(Addr addr) override
    {
        const Addr blk = blockNumber(addr);
        const std::size_t base = setBase(blk);
        for (std::uint32_t w = 0; w < numWays; ++w) {
            if (keys[base + w] == blk) {
                keys[base + w] = NoBlock;
                payload[base + w] = DirEntry{};
                return;
            }
        }
    }

    std::uint64_t
    trackedBlocks() const override
    {
        return static_cast<std::uint64_t>(
            keys.size() - std::count(keys.begin(), keys.end(), NoBlock));
    }

    std::uint64_t
    storageBits() const override
    {
        // Per entry: tag (assume 48-bit addresses) + state + vector.
        const std::uint64_t tag_bits = 48 - BlockShift;
        const std::uint64_t entry_bits = tag_bits + 2 + vectorBits;
        return keys.size() * entry_bits;
    }

    std::uint64_t recallCount() const { return recalls.value(); }

  private:
    /** Key of a free way; no block number reaches it. */
    static constexpr Addr NoBlock = ~Addr(0);

    /** First way of @p blk's set (set `blk % sets`). */
    std::size_t
    setBase(Addr blk) const
    {
        const Addr set = setsArePow2 ? (blk & setMask) : (blk % sets);
        return static_cast<std::size_t>(set) * numWays;
    }

    /** Stamp way @p slot most recently used; return its entry. */
    DirEntry *
    use(std::size_t slot)
    {
        lastUse[slot] = ++useStamp;
        return &payload[slot];
    }

    std::uint64_t sets = 0;
    bool setsArePow2 = false;
    std::uint64_t setMask = 0;
    const std::uint32_t numWays;
    const std::uint32_t vectorBits;
    std::uint64_t useStamp = 0;
    std::vector<Addr> keys;              //!< per way: block or NoBlock
    std::vector<std::uint64_t> lastUse;  //!< per way: LRU stamp
    std::vector<DirEntry> payload;       //!< per way: the entry
    Counter recalls;
    Counter allocations;
};

/** Idealized unbounded directory (no recalls). */
class FullDirectory : public DirectoryStore
{
  public:
    FullDirectory(std::uint32_t num_sockets, StatGroup *stats,
                  const std::string &name)
        : vectorBits(num_sockets)
    {
        allocations.init(stats, name + ".allocations",
                         "directory entries allocated");
        peakTracked.init(stats, name + ".peak_tracked",
                         "high-water mark of tracked blocks");
    }

    DirEntry *
    find(Addr addr) override
    {
        auto it = map.find(blockNumber(addr));
        return it == map.end() ? nullptr : &it->second;
    }

    DirEntry *
    allocate(Addr addr, DirRecall &recall,
             const Evictable & = {}) override
    {
        recall.valid = false;
        auto [it, inserted] = map.emplace(blockNumber(addr), DirEntry{});
        if (inserted) {
            ++allocations;
            if (map.size() > peakTracked.value()) {
                peakTracked += map.size() - peakTracked.value();
            }
        }
        return &it->second;
    }

    void erase(Addr addr) override { map.erase(blockNumber(addr)); }

    std::uint64_t trackedBlocks() const override { return map.size(); }

    std::uint64_t
    storageBits() const override
    {
        // An inclusive directory must provision for everything it may
        // track; report the high-water mark as the practical need.
        const std::uint64_t tag_bits = 48 - BlockShift;
        return peakTracked.value() * (tag_bits + 2 + vectorBits);
    }

  private:
    const std::uint32_t vectorBits;
    std::unordered_map<Addr, DirEntry> map;
    Counter allocations;
    Counter peakTracked;
};

/**
 * Analytic sparse-directory storage-cost model backing the §III-B
 * discussion ("a 256MB DRAM cache with a 1x sparse directory requires
 * 16MB of directory storage per socket; 2x doubles it; 1GB needs
 * 128MB").
 *
 * @param cache_bytes capacity a directory must cover per socket
 * @param provisioning 1x, 2x, ... over-provisioning factor
 * @return directory bytes per socket assuming 32-bit entries
 *         (the paper's 16 MB per 256 MB figure implies 4 B/entry:
 *         tag + state + a socket-grain sharing vector).
 */
inline std::uint64_t
sparseDirectoryBytes(std::uint64_t cache_bytes,
                     std::uint32_t provisioning)
{
    const std::uint64_t blocks = cache_bytes / BlockBytes;
    return blocks * provisioning * 4;
}

} // namespace c3d

#endif // C3DSIM_COHERENCE_DIRECTORY_HH
