#include "sim/slab.hh"

#include <mutex>
#include <new>

namespace c3d
{
namespace slab
{
namespace
{

constexpr std::size_t kClassSizes[] = {64, 128, 256};
constexpr std::size_t kNumClasses = 3;

// Donate half the high-water mark per trip so a produce-on-A /
// free-on-B pattern settles into batched handoffs instead of
// ping-ponging single nodes through the global lock.
constexpr std::size_t kLocalHighWater = 1024;
constexpr std::size_t kBatch = 512;

struct FreeNode
{
    FreeNode *next;
};

// Returns kNumClasses for sizes that pass through to operator new.
inline std::size_t
classOf(std::size_t size)
{
    for (std::size_t c = 0; c < kNumClasses; ++c) {
        if (size <= kClassSizes[c])
            return c;
    }
    return kNumClasses;
}

struct GlobalPool
{
    std::mutex mtx;
    FreeNode *head[kNumClasses] = {};
    std::size_t count[kNumClasses] = {};

    ~GlobalPool()
    {
        for (std::size_t c = 0; c < kNumClasses; ++c) {
            while (head[c]) {
                FreeNode *n = head[c];
                head[c] = n->next;
                ::operator delete(n);
            }
        }
    }
};

GlobalPool &
globalPool()
{
    static GlobalPool pool;
    return pool;
}

struct ThreadCache
{
    FreeNode *head[kNumClasses] = {};
    std::size_t count[kNumClasses] = {};

    ~ThreadCache()
    {
        // Worker threads come and go per sweep row; returning their
        // cache straight to the allocator keeps shutdown independent
        // of global-pool destruction order and leak-clean.
        for (std::size_t c = 0; c < kNumClasses; ++c) {
            while (head[c]) {
                FreeNode *n = head[c];
                head[c] = n->next;
                ::operator delete(n);
            }
        }
    }
};

ThreadCache &
threadCache()
{
    thread_local ThreadCache cache;
    return cache;
}

} // namespace

void *
alloc(std::size_t size)
{
    const std::size_t c = classOf(size);
    if (c == kNumClasses)
        return ::operator new(size);

    ThreadCache &tc = threadCache();
    if (tc.head[c]) {
        FreeNode *n = tc.head[c];
        tc.head[c] = n->next;
        --tc.count[c];
        return n;
    }

    // Local miss: take one node for the caller plus up to a batch
    // for the local cache, all under a single lock acquisition.
    GlobalPool &gp = globalPool();
    {
        std::lock_guard<std::mutex> lock(gp.mtx);
        if (gp.head[c]) {
            FreeNode *n = gp.head[c];
            gp.head[c] = n->next;
            --gp.count[c];
            std::size_t moved = 0;
            while (gp.head[c] && moved + 1 < kBatch) {
                FreeNode *m = gp.head[c];
                gp.head[c] = m->next;
                --gp.count[c];
                m->next = tc.head[c];
                tc.head[c] = m;
                ++tc.count[c];
                ++moved;
            }
            return n;
        }
    }
    return ::operator new(kClassSizes[c]);
}

void
free(void *ptr, std::size_t size)
{
    const std::size_t c = classOf(size);
    if (c == kNumClasses) {
        ::operator delete(ptr);
        return;
    }

    ThreadCache &tc = threadCache();
    FreeNode *n = static_cast<FreeNode *>(ptr);
    n->next = tc.head[c];
    tc.head[c] = n;
    ++tc.count[c];

    if (tc.count[c] <= kLocalHighWater)
        return;

    // Donate a batch to the global pool.
    FreeNode *batch_head = tc.head[c];
    FreeNode *batch_tail = batch_head;
    for (std::size_t i = 1; i < kBatch; ++i)
        batch_tail = batch_tail->next;
    tc.head[c] = batch_tail->next;
    tc.count[c] -= kBatch;

    GlobalPool &gp = globalPool();
    std::lock_guard<std::mutex> lock(gp.mtx);
    batch_tail->next = gp.head[c];
    gp.head[c] = batch_head;
    gp.count[c] += kBatch;
}

std::size_t
cachedNodes()
{
    std::size_t n = 0;
    ThreadCache &tc = threadCache();
    for (std::size_t c = 0; c < kNumClasses; ++c)
        n += tc.count[c];
    GlobalPool &gp = globalPool();
    std::lock_guard<std::mutex> lock(gp.mtx);
    for (std::size_t c = 0; c < kNumClasses; ++c)
        n += gp.count[c];
    return n;
}

} // namespace slab
} // namespace c3d
