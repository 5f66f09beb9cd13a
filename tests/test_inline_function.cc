/**
 * @file
 * Unit tests for InlineFunction<Sig, Bytes>, the simulator's one
 * move-only continuation type (sim/inline_function.hh).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

#include "dramcache/dram_cache.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/slab.hh"

namespace c3d
{
namespace
{

static_assert(sizeof(Continuation<void()>) == 32,
              "a continuation is as wide as the type it replaced");
static_assert(sizeof(Continuation<void(bool)>) == 32);
static_assert(sizeof(EventQueue::Callback) == 72,
              "events stay at their 64-byte budget plus one pointer");

/** Counts live instances and how many were moved. */
struct Tracker
{
    static inline int live = 0;
    static inline int moves = 0;

    Tracker() { ++live; }
    Tracker(const Tracker &) { ++live; }
    Tracker(Tracker &&) noexcept
    {
        ++live;
        ++moves;
    }
    ~Tracker() { --live; }
};

/** A capture that outgrows a 24-byte budget (and fits the slab). */
struct Wide
{
    std::array<std::uint64_t, 6> words{};
};

TEST(InlineFunction, BoolSignature)
{
    bool seen = false;
    InlineFunction<void(bool), 24> f = [&seen](bool dirty) {
        seen = dirty;
    };
    ASSERT_TRUE(f);
    EXPECT_FALSE(f.onHeap());
    f(true);
    EXPECT_TRUE(seen);
}

TEST(InlineFunction, ProbeResultSignature)
{
    DramCacheProbe got;
    Continuation<void(DramCacheProbe)> f = [&got](DramCacheProbe p) {
        got = p;
    };
    DramCacheProbe p;
    p.present = true;
    p.dirty = true;
    p.readyAt = 42;
    f(p);
    EXPECT_TRUE(got.present);
    EXPECT_TRUE(got.dirty);
    EXPECT_EQ(got.readyAt, 42u);
}

TEST(InlineFunction, ReturnsValues)
{
    const Addr pinned = 0x1000;
    const Continuation<bool(Addr)> evictable = [pinned](Addr a) {
        return a != pinned;
    };
    EXPECT_FALSE(evictable(0x1000));
    EXPECT_TRUE(evictable(0x2000));
}

TEST(InlineFunction, MoveOnlyCaptures)
{
    auto owned = std::make_unique<int>(7);
    int *raw = owned.get();
    int seen = 0;
    Continuation<void()> f = [p = std::move(owned), &seen] { seen = *p; };
    EXPECT_FALSE(f.onHeap());
    Continuation<void()> g = std::move(f);
    EXPECT_FALSE(f); // NOLINT: moved-from is empty by contract
    g();
    EXPECT_EQ(seen, 7);
    EXPECT_EQ(*raw, 7); // still owned by g's capture
}

TEST(InlineFunction, EmptyAndNullptr)
{
    Continuation<void()> a;
    Continuation<void()> b = nullptr;
    EXPECT_FALSE(a);
    EXPECT_FALSE(b);
    // Wrapping an empty continuation in an event yields an empty
    // event, not one that asserts when run.
    EventQueue::Callback cb = std::move(a);
    EXPECT_FALSE(cb);
}

TEST(InlineFunction, ContinuationNestsInsideAnEventWithoutSpilling)
{
    int fired = 0;
    Continuation<void()> done = [&fired] { ++fired; };
    EventQueue::Callback ev = [self = &fired, blk = Addr{64},
                               done = std::move(done)] {
        (void)self;
        (void)blk;
        done();
    };
    EXPECT_FALSE(ev.onHeap());
    ev();
    EXPECT_EQ(fired, 1);
}

TEST(InlineFunction, SpilledCallableReturnsItsNodeToTheSlab)
{
    Wide w;
    w.words[5] = 11;
    std::uint64_t seen = 0;
    // Warm the slab so the construction below is served from it.
    { Continuation<void()> warm = [w, &seen] { seen = w.words[0]; }; }

    const std::size_t before = slab::cachedNodes();
    {
        Continuation<void()> f = [w, &seen] { seen = w.words[5]; };
        EXPECT_TRUE(f.onHeap());
        EXPECT_EQ(slab::cachedNodes(), before - 1);
        f();
    }
    EXPECT_EQ(seen, 11u);
    EXPECT_EQ(slab::cachedNodes(), before);
}

TEST(InlineFunction, RelocatesInlineCallables)
{
    Tracker::live = 0;
    Tracker::moves = 0;
    int calls = 0;
    {
        Continuation<void()> f = [t = Tracker(), &calls] { ++calls; };
        EXPECT_FALSE(f.onHeap());
        const int moves_before = Tracker::moves;
        Continuation<void()> g = std::move(f); // relocate: move + destroy
        EXPECT_EQ(Tracker::moves, moves_before + 1);
        EXPECT_EQ(Tracker::live, 1);
        Continuation<void()> h;
        h = std::move(g);
        EXPECT_EQ(Tracker::moves, moves_before + 2);
        EXPECT_EQ(Tracker::live, 1);
        EXPECT_FALSE(g); // NOLINT: moved-from is empty by contract
        h();
    }
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(Tracker::live, 0);
}

TEST(InlineFunction, RelocatesSpilledCallablesWithoutCopying)
{
    Tracker::live = 0;
    Tracker::moves = 0;
    int calls = 0;
    {
        Continuation<void()> f = [t = Tracker(), w = Wide(), &calls] {
            (void)w;
            ++calls;
        };
        EXPECT_TRUE(f.onHeap());
        const int moves_before = Tracker::moves;
        // A spilled callable relocates by handing over its node.
        Continuation<void()> g = std::move(f);
        Continuation<void()> h;
        h = std::move(g);
        EXPECT_EQ(Tracker::moves, moves_before);
        EXPECT_EQ(Tracker::live, 1);
        EXPECT_TRUE(h.onHeap());
        h();
        // Assigning over a live callable destroys it first.
        h = [&calls] { calls += 10; };
        EXPECT_EQ(Tracker::live, 0);
        h();
    }
    EXPECT_EQ(calls, 11);
}

TEST(InlineFunction, SlabSharedReleasesOnLastOwner)
{
    Tracker::live = 0;
    {
        auto a = slab::Shared<Tracker>::make();
        EXPECT_EQ(Tracker::live, 1);
        auto b = a;
        Continuation<void()> f = [b = std::move(b)] { (void)b; };
        a = slab::Shared<Tracker>();
        EXPECT_EQ(Tracker::live, 1); // f still owns it
    }
    EXPECT_EQ(Tracker::live, 0);
}

} // namespace
} // namespace c3d
