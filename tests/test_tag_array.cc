/**
 * @file
 * Unit tests for the set-associative tag array.
 */

#include <gtest/gtest.h>

#include "cache/tag_array.hh"

namespace c3d
{
namespace
{

Addr
blockAddr(std::uint64_t n)
{
    return n * BlockBytes;
}

TEST(TagArray, Geometry)
{
    TagArray t;
    t.init(64 * 1024, 8);
    EXPECT_EQ(t.capacityBlocks(), 1024u);
    EXPECT_EQ(t.associativity(), 8u);
    EXPECT_EQ(t.numSets(), 128u);
}

TEST(TagArray, NonPowerOfTwoSetsKeepExactGeometry)
{
    // Power-of-two set counts take the mask fast path; odd set
    // counts (reachable via c3d-sweep --scale or --dram-cache-mb)
    // must keep the requested capacity and the exact modulo mapping
    // -- never a silent round-up.
    TagArray t;
    t.init(3 * 4 * BlockBytes, 4); // 3 sets, 4 ways
    EXPECT_EQ(t.numSets(), 3u);
    EXPECT_EQ(t.capacityBlocks(), 12u);
    // Blocks 0..2 map to distinct sets; 3 aliases into block 0's set
    // but its own way (4-way set).
    for (std::uint64_t n = 0; n < 4; ++n)
        t.allocate(blockAddr(n), CacheState::Shared);
    for (std::uint64_t n = 0; n < 4; ++n)
        EXPECT_NE(t.find(blockAddr(n)), nullptr) << n;
    // One set holds at most `ways` blocks: a fifth conflicting block
    // in set 0 must evict one of {0, 3, 6, 9}-style residents.
    t.allocate(blockAddr(6), CacheState::Shared);
    t.allocate(blockAddr(9), CacheState::Shared);
    AllocResult ar = t.allocate(blockAddr(12), CacheState::Shared);
    EXPECT_TRUE(ar.evictedValid);
}

TEST(TagArray, ConstFindMatchesMutableFind)
{
    TagArray t;
    t.init(4096, 4);
    t.allocate(blockAddr(9), CacheState::Modified);
    const TagArray &ct = t;
    const TagEntry *ce = ct.find(blockAddr(9));
    ASSERT_NE(ce, nullptr);
    EXPECT_EQ(ce, t.find(blockAddr(9)));
    EXPECT_EQ(ct.find(blockAddr(10)), nullptr);
}

TEST(TagArray, AllocateHitDoesNotEvict)
{
    // Re-allocating a resident block must reuse its entry even when
    // the set is full of older candidates the fused scan also sees.
    TagArray t;
    t.init(2 * BlockBytes, 2); // one set, two ways
    t.allocate(blockAddr(1), CacheState::Shared);
    t.allocate(blockAddr(2), CacheState::Shared);
    AllocResult ar = t.allocate(blockAddr(1), CacheState::Modified);
    EXPECT_FALSE(ar.evictedValid);
    EXPECT_EQ(ar.entry->state, CacheState::Modified);
    EXPECT_NE(t.find(blockAddr(2)), nullptr);
}

TEST(TagArray, MissThenHit)
{
    TagArray t;
    t.init(4096, 4);
    EXPECT_EQ(t.find(blockAddr(5)), nullptr);
    t.allocate(blockAddr(5), CacheState::Shared);
    TagEntry *e = t.find(blockAddr(5));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, CacheState::Shared);
}

TEST(TagArray, SubBlockAddressesAlias)
{
    TagArray t;
    t.init(4096, 4);
    t.allocate(blockAddr(3), CacheState::Modified);
    EXPECT_NE(t.find(blockAddr(3) + 1), nullptr);
    EXPECT_NE(t.find(blockAddr(3) + 63), nullptr);
    EXPECT_EQ(t.find(blockAddr(4)), nullptr);
}

TEST(TagArray, LruEviction)
{
    TagArray t;
    t.init(2 * BlockBytes, 2); // one set, two ways
    t.allocate(blockAddr(1), CacheState::Shared);
    t.allocate(blockAddr(2), CacheState::Shared);
    // Touch 1 so 2 becomes LRU.
    t.touch(t.find(blockAddr(1)));
    AllocResult ar = t.allocate(blockAddr(3), CacheState::Shared);
    EXPECT_TRUE(ar.evictedValid);
    EXPECT_EQ(ar.victimAddr, blockAddr(2));
    EXPECT_NE(t.find(blockAddr(1)), nullptr);
    EXPECT_EQ(t.find(blockAddr(2)), nullptr);
}

TEST(TagArray, VictimForNamesWhatAllocateEvicts)
{
    TagArray t;
    t.init(4 * BlockBytes, 2); // two sets, two ways
    // A set with a free way displaces nothing, and a miss has no hit.
    TagLookup look = t.lookup(blockAddr(0));
    EXPECT_EQ(look.hit, nullptr);
    EXPECT_EQ(look.victim, nullptr);
    t.allocate(blockAddr(0), CacheState::Shared);
    t.allocate(blockAddr(2), CacheState::Shared);
    // A hit names the entry find() names, and no victim.
    look = t.lookup(blockAddr(2));
    EXPECT_EQ(look.hit, t.find(blockAddr(2)));
    EXPECT_NE(look.hit, nullptr);
    EXPECT_EQ(look.victim, nullptr);
    look = t.lookup(blockAddr(1)); // other set, still free
    EXPECT_EQ(look.hit, nullptr);
    EXPECT_EQ(look.victim, nullptr);
    t.touch(t.find(blockAddr(0)));
    for (std::uint64_t n : {4, 6, 8}) {
        look = t.lookup(blockAddr(n));
        EXPECT_EQ(look.hit, nullptr) << n;
        ASSERT_NE(look.victim, nullptr);
        const Addr predicted = look.victim->tag << BlockShift;
        AllocResult ar = t.allocate(blockAddr(n), CacheState::Shared);
        EXPECT_TRUE(ar.evictedValid);
        EXPECT_EQ(ar.victimAddr, predicted) << n;
        // The filled block now hits.
        EXPECT_EQ(t.lookup(blockAddr(n)).hit, ar.entry) << n;
    }
    // An invalidated way is free again: a miss into it names no victim.
    t.invalidate(blockAddr(8));
    look = t.lookup(blockAddr(10));
    EXPECT_EQ(look.hit, nullptr);
    EXPECT_EQ(look.victim, nullptr);
}

TEST(TagArray, EvictionReportsVictimState)
{
    TagArray t;
    t.init(BlockBytes, 1); // direct-mapped, single entry
    t.allocate(blockAddr(0), CacheState::Modified);
    AllocResult ar = t.allocate(blockAddr(1), CacheState::Shared);
    EXPECT_TRUE(ar.evictedValid);
    EXPECT_EQ(ar.victimState, CacheState::Modified);
    EXPECT_EQ(ar.victimAddr, blockAddr(0));
}

TEST(TagArray, ReallocateExistingBlockDoesNotEvict)
{
    TagArray t;
    t.init(BlockBytes * 2, 2);
    t.allocate(blockAddr(1), CacheState::Shared);
    t.allocate(blockAddr(2), CacheState::Shared);
    AllocResult ar = t.allocate(blockAddr(1), CacheState::Modified);
    EXPECT_FALSE(ar.evictedValid);
    EXPECT_EQ(t.find(blockAddr(1))->state, CacheState::Modified);
    EXPECT_NE(t.find(blockAddr(2)), nullptr);
}

TEST(TagArray, InvalidateRemovesBlock)
{
    TagArray t;
    t.init(4096, 4);
    t.allocate(blockAddr(9), CacheState::Shared);
    EXPECT_TRUE(t.invalidate(blockAddr(9)));
    EXPECT_EQ(t.find(blockAddr(9)), nullptr);
    EXPECT_FALSE(t.invalidate(blockAddr(9)));
}

TEST(TagArray, InvalidSlotsReusedBeforeEviction)
{
    TagArray t;
    t.init(BlockBytes * 2, 2);
    t.allocate(blockAddr(1), CacheState::Shared);
    t.allocate(blockAddr(2), CacheState::Shared);
    t.invalidate(blockAddr(1));
    AllocResult ar = t.allocate(blockAddr(3), CacheState::Shared);
    EXPECT_FALSE(ar.evictedValid);
    EXPECT_NE(t.find(blockAddr(2)), nullptr);
    EXPECT_NE(t.find(blockAddr(3)), nullptr);
}

TEST(TagArray, ValidBlockCount)
{
    TagArray t;
    t.init(64 * 1024, 8);
    EXPECT_EQ(t.validBlocks(), 0u);
    for (std::uint64_t i = 0; i < 100; ++i)
        t.allocate(blockAddr(i), CacheState::Shared);
    EXPECT_EQ(t.validBlocks(), 100u);
    t.invalidate(blockAddr(50));
    EXPECT_EQ(t.validBlocks(), 99u);
}

TEST(TagArray, DirectMappedConflicts)
{
    TagArray t;
    t.init(8 * BlockBytes, 1); // 8 sets, direct-mapped
    t.allocate(blockAddr(0), CacheState::Shared);
    // Block 8 maps to the same set in an 8-set array.
    AllocResult ar = t.allocate(blockAddr(8), CacheState::Shared);
    EXPECT_TRUE(ar.evictedValid);
    EXPECT_EQ(ar.victimAddr, blockAddr(0));
    // Different sets do not conflict.
    AllocResult ar2 = t.allocate(blockAddr(1), CacheState::Shared);
    EXPECT_FALSE(ar2.evictedValid);
}

TEST(TagArray, AuxWordSurvivesTouch)
{
    TagArray t;
    t.init(4096, 4);
    AllocResult ar = t.allocate(blockAddr(2), CacheState::Shared);
    ar.entry->aux = 0xabcd;
    t.touch(ar.entry);
    EXPECT_EQ(t.find(blockAddr(2))->aux, 0xabcdu);
    // But a new allocation of the slot resets aux.
    t.invalidate(blockAddr(2));
    AllocResult ar2 = t.allocate(blockAddr(2), CacheState::Shared);
    EXPECT_EQ(ar2.entry->aux, 0u);
}

TEST(TagArray, CapacityWorkingSetFits)
{
    // A working set equal to capacity must not thrash under LRU when
    // accessed cyclically set-aligned.
    TagArray t;
    t.init(256 * BlockBytes, 4);
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t i = 0; i < 256; ++i) {
            if (pass > 0) {
                EXPECT_NE(t.find(blockAddr(i)), nullptr)
                    << "block " << i << " pass " << pass;
            }
            t.allocate(blockAddr(i), CacheState::Shared);
        }
    }
    EXPECT_EQ(t.validBlocks(), 256u);
}

} // namespace
} // namespace c3d
