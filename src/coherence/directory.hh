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
 *    sharers. Used by baseline and C3D.
 *
 *  - FullDirectory: an unbounded map with no recalls, modelling the
 *    paper's idealized inclusive directory (full-dir, c3d-full-dir)
 *    that optimistically keeps a 10-cycle access latency.
 */

#ifndef C3DSIM_COHERENCE_DIRECTORY_HH
#define C3DSIM_COHERENCE_DIRECTORY_HH

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
    DirState state = DirState::Invalid;
    std::uint64_t sharers = 0; //!< bitmask of sockets
    SocketId owner = InvalidSocket;

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

/** Set-associative sparse directory with recalls. */
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
        slots.assign(sets * ways, Slot{});
        recalls.init(stats, name + ".recalls",
                     "entries displaced by allocation conflicts");
        allocations.init(stats, name + ".allocations",
                         "directory entries allocated");
    }

    DirEntry *
    find(Addr addr) override
    {
        const Addr blk = blockNumber(addr);
        Slot *base = setBase(blk);
        for (std::uint32_t w = 0; w < numWays; ++w) {
            if (base[w].valid && base[w].tag == blk) {
                base[w].lastUse = ++useStamp;
                return &base[w].entry;
            }
        }
        return nullptr;
    }

    DirEntry *
    allocate(Addr addr, DirRecall &recall,
             const Evictable &evictable = {}) override
    {
        recall.valid = false;
        if (DirEntry *e = find(addr))
            return e;

        ++allocations;
        const Addr blk = blockNumber(addr);
        Slot *base = setBase(blk);
        Slot *victim = nullptr;
        for (std::uint32_t w = 0; w < numWays; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
        }
        if (!victim) {
            // Recall the LRU way among those whose block is safe to
            // displace; fall back to plain LRU if none qualifies
            // (vanishingly rare: every way mid-transaction).
            for (std::uint32_t w = 0; w < numWays; ++w) {
                const Addr victim_addr = base[w].tag << BlockShift;
                if (evictable && !evictable(victim_addr))
                    continue;
                if (!victim || base[w].lastUse < victim->lastUse)
                    victim = &base[w];
            }
            if (!victim) {
                victim = &base[0];
                for (std::uint32_t w = 1; w < numWays; ++w) {
                    if (base[w].lastUse < victim->lastUse)
                        victim = &base[w];
                }
            }
            ++recalls;
            recall.valid = true;
            recall.addr = victim->tag << BlockShift;
            recall.entry = victim->entry;
        }
        victim->valid = true;
        victim->tag = blk;
        victim->entry = DirEntry{};
        victim->lastUse = ++useStamp;
        return &victim->entry;
    }

    void
    erase(Addr addr) override
    {
        const Addr blk = blockNumber(addr);
        Slot *base = setBase(blk);
        for (std::uint32_t w = 0; w < numWays; ++w) {
            if (base[w].valid && base[w].tag == blk) {
                base[w] = Slot{};
                return;
            }
        }
    }

    std::uint64_t
    trackedBlocks() const override
    {
        std::uint64_t n = 0;
        for (const auto &s : slots)
            if (s.valid)
                ++n;
        return n;
    }

    std::uint64_t
    storageBits() const override
    {
        // Per entry: tag (assume 48-bit addresses) + state + vector.
        const std::uint64_t tag_bits = 48 - BlockShift;
        const std::uint64_t entry_bits = tag_bits + 2 + vectorBits;
        return slots.size() * entry_bits;
    }

    std::uint64_t recallCount() const { return recalls.value(); }

  private:
    struct Slot
    {
        bool valid = false;
        Addr tag = 0;
        DirEntry entry;
        std::uint64_t lastUse = 0;
    };

    Slot *
    setBase(Addr blk)
    {
        return &slots[(blk % sets) * numWays];
    }

    std::uint64_t sets = 0;
    const std::uint32_t numWays;
    const std::uint32_t vectorBits;
    std::uint64_t useStamp = 0;
    std::vector<Slot> slots;
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
