/**
 * @file
 * Unit tests for directory storage (sparse + full) and the blocking
 * table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "coherence/blocking.hh"
#include "coherence/directory.hh"
#include "common/rng.hh"
#include "common/sim_error.hh"

namespace c3d
{
namespace
{

TEST(SparseDirectory, AllocateFindErase)
{
    StatGroup g("t");
    SparseDirectory dir(1024, 32, 4, &g, "d");
    DirRecall recall;
    DirEntry *e = dir.allocate(0x1000, recall);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(recall.valid);
    e->state = DirState::Modified;
    e->owner = 2;
    DirEntry *f = dir.find(0x1000);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->state, DirState::Modified);
    EXPECT_EQ(f->owner, 2u);
    dir.erase(0x1000);
    EXPECT_EQ(dir.find(0x1000), nullptr);
}

TEST(SparseDirectory, SubBlockLookup)
{
    StatGroup g("t");
    SparseDirectory dir(1024, 32, 4, &g, "d");
    DirRecall recall;
    dir.allocate(0x1000, recall);
    EXPECT_NE(dir.find(0x1020), nullptr);
    EXPECT_EQ(dir.find(0x1040), nullptr);
}

TEST(SparseDirectory, ConflictRecallsLruVictim)
{
    StatGroup g("t");
    // 2 entries, 2 ways: a single set.
    SparseDirectory dir(2, 2, 4, &g, "d");
    DirRecall recall;
    DirEntry *a = dir.allocate(0 * BlockBytes, recall);
    a->state = DirState::Shared;
    a->addSharer(1);
    dir.allocate(1 * BlockBytes, recall);
    EXPECT_FALSE(recall.valid);
    // Third allocation in the same set recalls block 0 (LRU).
    dir.allocate(2 * BlockBytes, recall);
    ASSERT_TRUE(recall.valid);
    EXPECT_EQ(recall.addr, 0u);
    EXPECT_EQ(recall.entry.state, DirState::Shared);
    EXPECT_TRUE(recall.entry.isSharer(1));
    EXPECT_EQ(dir.recallCount(), 1u);
}

TEST(SparseDirectory, TrackedBlocksCount)
{
    StatGroup g("t");
    SparseDirectory dir(64, 8, 4, &g, "d");
    DirRecall recall;
    for (Addr i = 0; i < 10; ++i)
        dir.allocate(i * BlockBytes, recall);
    EXPECT_EQ(dir.trackedBlocks(), 10u);
}

TEST(SparseDirectory, StorageBitsScaleWithEntries)
{
    StatGroup g("t");
    SparseDirectory small(1024, 32, 4, &g, "s");
    SparseDirectory big(4096, 32, 4, &g, "b");
    EXPECT_EQ(big.storageBits(), 4 * small.storageBits());
}

/**
 * The array-of-structs sparse directory SparseDirectory replaced: one
 * 48-byte slot (valid, tag, entry, LRU stamp) per way. Kept here as
 * the oracle for the row layout.
 */
class AosSparseDirectory
{
  public:
    AosSparseDirectory(std::uint64_t num_entries, std::uint32_t ways)
        : numWays(ways)
    {
        const std::uint64_t entries =
            num_entries < ways ? ways : num_entries;
        sets = entries / ways;
        slots.assign(sets * ways, Slot{});
    }

    DirEntry *
    find(Addr addr)
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
             const DirectoryStore::Evictable &evictable)
    {
        recall.valid = false;
        if (DirEntry *e = find(addr))
            return e;
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
    erase(Addr addr)
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
    trackedBlocks() const
    {
        std::uint64_t n = 0;
        for (const auto &s : slots)
            n += s.valid;
        return n;
    }

  private:
    struct Slot
    {
        bool valid = false;
        Addr tag = 0;
        DirEntry entry;
        std::uint64_t lastUse = 0;
    };

    Slot *setBase(Addr blk) { return &slots[(blk % sets) * numWays]; }

    std::uint64_t sets = 0;
    const std::uint32_t numWays;
    std::uint64_t useStamp = 0;
    std::vector<Slot> slots;
};

/** Recall filter whose answer is a pure function of (block, epoch),
 * logging every block it is asked about. */
struct RecallFilter
{
    std::uint64_t epoch = 0;
    bool rejectAll = false;
    std::vector<Addr> asked;

    bool
    operator()(Addr addr)
    {
        asked.push_back(addr);
        if (rejectAll)
            return false;
        return ((blockNumber(addr) * 0x9E3779B97F4A7C15ull + epoch) >>
                61) != 0;
    }
};

void
expectSameEntry(const DirEntry *got, const DirEntry *want, int step)
{
    ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
    if (!got)
        return;
    EXPECT_EQ(got->state, want->state) << "step " << step;
    EXPECT_EQ(got->sharers, want->sharers) << "step " << step;
    EXPECT_EQ(got->owner, want->owner) << "step " << step;
}

/** Drive both organizations with one seeded stream. */
void
runDirectoryDifferential(std::uint64_t entries, std::uint32_t ways,
                         std::uint64_t seed)
{
    StatGroup g("t");
    SparseDirectory rows(entries, ways, 8, &g, "d");
    AosSparseDirectory oracle(entries, ways);
    RecallFilter rows_filter, oracle_filter;
    const DirectoryStore::Evictable rows_evictable =
        [f = &rows_filter](Addr a) { return (*f)(a); };
    const DirectoryStore::Evictable oracle_evictable =
        [f = &oracle_filter](Addr a) { return (*f)(a); };
    const DirectoryStore::Evictable unfiltered{};

    Rng rng(seed);
    // Four times the capacity in distinct blocks keeps sets full
    // and recalls frequent.
    const std::uint64_t blocks = entries * 4;
    std::uint64_t recalls = 0, rejected_all = 0;
    for (int step = 0; step < 40000; ++step) {
        const Addr addr = rng.below(blocks) * BlockBytes +
            rng.below(BlockBytes);
        const std::uint64_t op = rng.below(10);
        if (op < 4) {
            DirEntry *got = rows.find(addr);
            expectSameEntry(got, oracle.find(addr), step);
            if (got && rng.below(2)) {
                const SocketId s = static_cast<SocketId>(rng.below(8));
                got->addSharer(s);
                oracle.find(addr)->addSharer(s);
            }
        } else if (op < 9) {
            const std::uint64_t epoch = rng.next();
            const bool reject_all = rng.below(8) == 0;
            rows_filter.epoch = oracle_filter.epoch = epoch;
            rows_filter.rejectAll = oracle_filter.rejectAll = reject_all;
            rejected_all += reject_all;
            DirRecall got_recall, want_recall;
            const bool filtered = rng.below(4) != 0;
            DirEntry *got = rows.allocate(
                addr, got_recall,
                filtered ? rows_evictable : unfiltered);
            DirEntry *want = oracle.allocate(
                addr, want_recall,
                filtered ? oracle_evictable : unfiltered);
            expectSameEntry(got, want, step);
            ASSERT_EQ(got_recall.valid, want_recall.valid) << step;
            if (got_recall.valid) {
                ++recalls;
                EXPECT_EQ(got_recall.addr, want_recall.addr) << step;
                expectSameEntry(&got_recall.entry, &want_recall.entry,
                                step);
            }
            const auto state = static_cast<DirState>(rng.below(3));
            const SocketId owner = static_cast<SocketId>(rng.below(8));
            const std::uint64_t sharers = rng.below(256);
            for (DirEntry *e : {got, want}) {
                e->state = state;
                e->owner = owner;
                e->sharers = sharers;
            }
        } else {
            rows.erase(addr);
            oracle.erase(addr);
        }
        if (step % 512 == 0) {
            ASSERT_EQ(rows.trackedBlocks(), oracle.trackedBlocks());
        }
    }
    EXPECT_EQ(rows.trackedBlocks(), oracle.trackedBlocks());
    // The filter saw the same blocks in the same order.
    EXPECT_EQ(rows_filter.asked, oracle_filter.asked);
    EXPECT_EQ(rows.recallCount(), recalls);
    EXPECT_GT(recalls, 1000u);
    EXPECT_GT(rejected_all, 0u);
}

TEST(SparseDirectory, RowsMatchArrayOfStructsAtPowerOfTwoSets)
{
    runDirectoryDifferential(256, 8, 1); // 32 sets
}

TEST(SparseDirectory, RowsMatchArrayOfStructsAtOtherSetCounts)
{
    runDirectoryDifferential(240, 8, 2); // 30 sets
    runDirectoryDifferential(96, 32, 3); // 3 sets, 32 ways
}

TEST(FullDirectory, NoRecallsEver)
{
    StatGroup g("t");
    FullDirectory dir(4, &g, "d");
    DirRecall recall;
    for (Addr i = 0; i < 100000; ++i) {
        dir.allocate(i * BlockBytes, recall);
        ASSERT_FALSE(recall.valid);
    }
    EXPECT_EQ(dir.trackedBlocks(), 100000u);
}

TEST(FullDirectory, EraseUntracks)
{
    StatGroup g("t");
    FullDirectory dir(4, &g, "d");
    DirRecall recall;
    dir.allocate(0x40, recall);
    dir.erase(0x40);
    EXPECT_EQ(dir.find(0x40), nullptr);
    EXPECT_EQ(dir.trackedBlocks(), 0u);
}

TEST(FullDirectory, MatchesNodeMapOnSeededStream)
{
    // The open-addressed table against a std::unordered_map reference
    // through growth, backward-shift erases and re-allocation of
    // erased blocks, with every entry checked after every step.
    StatGroup g("t");
    FullDirectory dir(8, &g, "d");
    std::unordered_map<Addr, DirEntry> oracle;
    std::uint64_t peak = 0;
    Rng rng(25);
    const std::uint64_t blocks = 3000;
    for (int step = 0; step < 60000; ++step) {
        const Addr addr = rng.below(blocks) * BlockBytes +
            rng.below(BlockBytes);
        const Addr blk = blockNumber(addr);
        // Erase-heavy phases let the table drain and refill.
        const std::uint64_t op = rng.below((step / 10000) % 2 ? 12 : 8);
        if (op < 3) {
            auto it = oracle.find(blk);
            expectSameEntry(dir.find(addr),
                            it == oracle.end() ? nullptr : &it->second,
                            step);
        } else if (op < 7) {
            DirRecall recall;
            DirEntry *got = dir.allocate(addr, recall);
            ASSERT_FALSE(recall.valid) << step;
            DirEntry &want = oracle[blk];
            peak = std::max<std::uint64_t>(peak, oracle.size());
            expectSameEntry(got, &want, step);
            const auto state = static_cast<DirState>(rng.below(3));
            const SocketId owner = static_cast<SocketId>(rng.below(8));
            const std::uint64_t sharers = rng.below(256);
            for (DirEntry *e : {got, &want}) {
                e->state = state;
                e->owner = owner;
                e->sharers = sharers;
            }
        } else {
            dir.erase(addr);
            oracle.erase(blk);
        }
        ASSERT_EQ(dir.trackedBlocks(), oracle.size()) << step;
    }
    for (Addr b = 0; b < blocks; ++b) {
        auto it = oracle.find(b);
        expectSameEntry(dir.find(b * BlockBytes),
                        it == oracle.end() ? nullptr : &it->second, -1);
    }
    EXPECT_GT(peak, 1000u);
    EXPECT_LT(oracle.size(), peak);
    // Tag (48 - BlockShift) + 2 state bits + an 8-socket vector.
    EXPECT_EQ(dir.storageBits(), peak * (48 - BlockShift + 2 + 8));
}

TEST(DirEntry, SharerVectorOps)
{
    DirEntry e;
    e.addSharer(0);
    e.addSharer(3);
    EXPECT_TRUE(e.isSharer(0));
    EXPECT_FALSE(e.isSharer(1));
    EXPECT_TRUE(e.isSharer(3));
    EXPECT_EQ(e.sharerCount(), 2u);
    e.removeSharer(0);
    EXPECT_FALSE(e.isSharer(0));
    EXPECT_EQ(e.sharerCount(), 1u);
}

TEST(DirCostModel, MatchesPaperNumbers)
{
    // §III-B: 256 MB cache -> 16 MB at 1x, 32 MB at 2x; 1 GB at 2x
    // -> 128 MB.
    EXPECT_EQ(sparseDirectoryBytes(256ull << 20, 1), 16ull << 20);
    EXPECT_EQ(sparseDirectoryBytes(256ull << 20, 2), 32ull << 20);
    EXPECT_EQ(sparseDirectoryBytes(1024ull << 20, 2), 128ull << 20);
}

TEST(BlockingTable, FirstAcquireRunsInline)
{
    StatGroup g("t");
    BlockingTable bt;
    bt.init(&g, "bt");
    bool ran = false;
    bt.acquire(0x1000, [&] { ran = true; });
    EXPECT_TRUE(ran);
    EXPECT_TRUE(bt.isBusy(0x1000));
}

TEST(BlockingTable, ConflictQueuesUntilRelease)
{
    StatGroup g("t");
    BlockingTable bt;
    bt.init(&g, "bt");
    std::vector<int> order;
    bt.acquire(0x1000, [&] { order.push_back(1); });
    bt.acquire(0x1000, [&] { order.push_back(2); });
    bt.acquire(0x1000, [&] { order.push_back(3); });
    EXPECT_EQ(order, (std::vector<int>{1}));
    bt.release(0x1000);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    bt.release(0x1000);
    bt.release(0x1000);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(bt.isBusy(0x1000));
    EXPECT_EQ(bt.blockedCount(), 2u);
}

TEST(BlockingTable, DifferentBlocksIndependent)
{
    StatGroup g("t");
    BlockingTable bt;
    bt.init(&g, "bt");
    bool a = false, b = false;
    bt.acquire(0x1000, [&] { a = true; });
    bt.acquire(0x2000, [&] { b = true; });
    EXPECT_TRUE(a);
    EXPECT_TRUE(b);
    EXPECT_EQ(bt.blockedCount(), 0u);
}

TEST(BlockingTable, SameBlockDifferentOffsets)
{
    StatGroup g("t");
    BlockingTable bt;
    bt.init(&g, "bt");
    bool second = false;
    bt.acquire(0x1000, [] {});
    bt.acquire(0x1020, [&] { second = true; }); // same 64 B block
    EXPECT_FALSE(second);
    bt.release(0x1000);
    EXPECT_TRUE(second);
}

TEST(BlockingTablePanicTest, ReleaseWithoutAcquireThrows)
{
    StatGroup g("t");
    BlockingTable bt;
    bt.init(&g, "bt");
    try {
        bt.release(0x1000);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("unlocked"),
                  std::string::npos);
    }
}

} // namespace
} // namespace c3d
