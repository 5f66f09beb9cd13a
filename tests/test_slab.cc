/**
 * @file
 * Tests for the event-path slab (sim/slab.hh): the inline fast path
 * in every size class, cross-thread frees, donation to and refill
 * from the global pool, the thread-exit drain, cachedNodes()
 * accounting, and slab::Shared handles dropped on other threads.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "sim/slab.hh"

namespace c3d
{
namespace
{

using slab::detail::Batch;
using slab::detail::classOf;
using slab::detail::LocalHighWater;
using slab::detail::NumClasses;
using slab::detail::threadLists;

/** Run @p f on a fresh thread and wait for it (and its drain). */
template <typename F>
void
onFreshThread(F &&f)
{
    std::thread t(std::forward<F>(f));
    t.join();
}

/** Nodes in the calling thread's lists, all classes. */
std::size_t
localNodes()
{
    std::size_t n = 0;
    for (std::size_t c = 0; c < NumClasses; ++c)
        n += threadLists.count[c];
    return n;
}

/** Nodes in the global pool: cachedNodes() minus this thread's. */
std::size_t
globalNodes()
{
    return slab::cachedNodes() - localNodes();
}

TEST(Slab, SizesMapOntoThreeClasses)
{
    EXPECT_EQ(classOf(1), 0u);
    EXPECT_EQ(classOf(64), 0u);
    EXPECT_EQ(classOf(65), 1u);
    EXPECT_EQ(classOf(128), 1u);
    EXPECT_EQ(classOf(129), 2u);
    EXPECT_EQ(classOf(256), 2u);
    EXPECT_EQ(classOf(257), NumClasses);
}

TEST(Slab, RoundTripInEachSizeClass)
{
    for (const std::size_t size : {8, 64, 100, 128, 200, 256}) {
        // A free followed by an alloc of the same class hands the
        // node straight back (LIFO), whatever the exact size.
        void *p = slab::alloc(size);
        std::memset(p, 0xAB, size); // the whole request is usable
        const std::size_t cached = slab::cachedNodes();
        slab::free(p, size);
        EXPECT_EQ(slab::cachedNodes(), cached + 1) << size;
        void *q = slab::alloc(size);
        EXPECT_EQ(q, p) << size;
        EXPECT_EQ(slab::cachedNodes(), cached) << size;
        slab::free(q, size);
    }
}

TEST(Slab, LargeRequestsPassThroughUncached)
{
    const std::size_t cached = slab::cachedNodes();
    void *p = slab::alloc(1000);
    std::memset(p, 0xCD, 1000);
    EXPECT_EQ(slab::cachedNodes(), cached);
    slab::free(p, 1000);
    EXPECT_EQ(slab::cachedNodes(), cached);
}

TEST(Slab, CachedNodesCountsEveryAllocAndFree)
{
    std::vector<void *> nodes;
    for (int i = 0; i < 10; ++i)
        nodes.push_back(slab::alloc(64));
    const std::size_t cached = slab::cachedNodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        slab::free(nodes[i], 64);
        EXPECT_EQ(slab::cachedNodes(), cached + i + 1);
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        nodes[i] = slab::alloc(64);
        EXPECT_EQ(slab::cachedNodes(), cached + nodes.size() - i - 1);
    }
    for (void *p : nodes)
        slab::free(p, 64);
}

TEST(Slab, FreeOnOneThreadReuseOnAnother)
{
    // Allocated here, freed on a second thread: the free needs no
    // synchronization and lands on the freeing thread's list, whose
    // next allocation of the class reuses the node.
    void *p = slab::alloc(128);
    void *reused = nullptr;
    onFreshThread([&] {
        slab::free(p, 128);
        EXPECT_EQ(threadLists.count[classOf(128)], 1u);
        reused = slab::alloc(128);
        slab::free(reused, 128);
    });
    EXPECT_EQ(reused, p);
}

TEST(Slab, DonatesPastTheHighWaterMarkAndRefillsFromTheGlobalPool)
{
    const std::size_t c = classOf(256);
    std::size_t donated_global = 0;
    // A producer thread frees one node past the high-water mark: its
    // list donates one batch to the global pool and keeps the rest.
    onFreshThread([&] {
        std::vector<void *> nodes;
        for (std::uint32_t i = 0; i < LocalHighWater + 1; ++i)
            nodes.push_back(slab::alloc(256));
        const std::size_t global_before = globalNodes();
        const std::size_t local_before = threadLists.count[c];
        for (void *p : nodes)
            slab::free(p, 256);
        EXPECT_EQ(threadLists.count[c],
                  local_before + LocalHighWater + 1 - Batch);
        EXPECT_LE(threadLists.count[c], LocalHighWater);
        EXPECT_EQ(globalNodes(), global_before + Batch);
        donated_global = globalNodes();
    });
    // The producer's exit drained its own list but not the donation.
    EXPECT_GE(donated_global, Batch);
    // A consumer thread's first miss refills one batch at once: one
    // node for the caller, the rest into its list, under one lock.
    onFreshThread([&] {
        EXPECT_EQ(localNodes(), 0u);
        const std::size_t global_before = globalNodes();
        void *p = slab::alloc(256);
        EXPECT_EQ(threadLists.count[c], Batch - 1);
        EXPECT_EQ(globalNodes(), global_before - Batch);
        slab::free(p, 256);
    });
}

TEST(Slab, ThreadExitDrainsTheLocalLists)
{
    // A thread that caches nodes and exits returns them to the
    // allocator, not to the global pool; LeakSanitizer (the ASan CI
    // leg) sees no leak either way.
    const std::size_t global_before = globalNodes();
    onFreshThread([] {
        std::vector<void *> nodes;
        for (int i = 0; i < 100; ++i)
            nodes.push_back(slab::alloc(64));
        for (void *p : nodes)
            slab::free(p, 64);
        EXPECT_GE(threadLists.count[0], 100u);
    });
    // (A refill may have taken a batch out of the pool.)
    EXPECT_LE(globalNodes(), global_before);
}

/** Frees its node from a thread-local destructor that runs after
 * the slab's drain. */
struct LateFree
{
    void *node = nullptr;
    ~LateFree()
    {
        if (node)
            slab::free(node, 64);
    }
};

TEST(Slab, FreeAfterTheDrainPassesThrough)
{
    // Thread-local destructors run in reverse order of construction:
    // holder is built before the slab arms the thread's drain, so it
    // frees after the drain. That node must pass through to the
    // allocator (leak-clean under ASan) and not revive the lists.
    const std::size_t global_before = globalNodes();
    onFreshThread([] {
        thread_local LateFree holder;
        holder.node = slab::alloc(64); // first refill arms the drain
    });
    EXPECT_LE(globalNodes(), global_before);
}

struct Counted
{
    static inline int live = 0;
    int value;
    explicit Counted(int v) : value(v) { ++live; }
    ~Counted() { --live; }
};

TEST(SlabShared, CopiesDroppedOnOtherThreads)
{
    // A fan-in's handles ride packets to other kernel threads and may
    // be dropped there: the last drop, wherever it happens, frees the
    // node.
    Counted::live = 0;
    {
        auto fan = slab::Shared<Counted>::make(3);
        std::vector<std::thread> threads;
        for (int i = 0; i < 4; ++i) {
            threads.emplace_back([h = fan] {
                EXPECT_EQ(h->value, 3);
            });
        }
        fan = slab::Shared<Counted>();
        for (std::thread &t : threads)
            t.join();
    }
    EXPECT_EQ(Counted::live, 0);
}

} // namespace
} // namespace c3d
