#include "sim/slab.hh"

#include <mutex>
#include <new>

namespace c3d
{
namespace slab
{
namespace detail
{
namespace
{

struct GlobalPool
{
    std::mutex mtx;
    FreeNode *head[NumClasses] = {};
    std::size_t count[NumClasses] = {};

    ~GlobalPool()
    {
        for (std::size_t c = 0; c < NumClasses; ++c) {
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

/**
 * Returns the thread's cached nodes straight to the allocator at
 * thread exit. Worker threads come and go per sweep row; draining
 * here keeps shutdown independent of global-pool destruction order
 * and leak-clean. A node freed after the drain (by a later
 * thread-local destructor) passes through to operator delete.
 */
struct ThreadDrain
{
    ~ThreadDrain()
    {
        ThreadLists &tl = threadLists;
        for (std::size_t c = 0; c < NumClasses; ++c) {
            while (tl.head[c]) {
                FreeNode *n = tl.head[c];
                tl.head[c] = n->next;
                ::operator delete(n);
            }
            tl.count[c] = 0;
        }
        tl.highWater = 0;
        tl.exited = true;
    }
};

/** Register the thread's drain (once per thread) and lift the
 * high-water mark off 0, so frees stay on the inline path. */
void
arm(ThreadLists &tl)
{
    thread_local ThreadDrain drain;
    (void)drain;
    tl.highWater = LocalHighWater;
}

} // namespace

void *
refill(std::size_t c)
{
    ThreadLists &tl = threadLists;
    if (tl.exited)
        return ::operator new(ClassBytes[c]);
    if (tl.highWater == 0)
        arm(tl);

    // Take one node for the caller plus up to a batch for the local
    // lists, all under a single lock acquisition.
    GlobalPool &gp = globalPool();
    {
        std::lock_guard<std::mutex> lock(gp.mtx);
        if (gp.head[c]) {
            FreeNode *n = gp.head[c];
            gp.head[c] = n->next;
            --gp.count[c];
            std::uint32_t moved = 0;
            while (gp.head[c] && moved + 1 < Batch) {
                FreeNode *m = gp.head[c];
                gp.head[c] = m->next;
                --gp.count[c];
                m->next = tl.head[c];
                tl.head[c] = m;
                ++tl.count[c];
                ++moved;
            }
            return n;
        }
    }
    return ::operator new(ClassBytes[c]);
}

void
overflowLocal(std::size_t c)
{
    ThreadLists &tl = threadLists;
    if (tl.highWater == 0) {
        if (tl.exited) {
            // Past the drain: hand the node just pushed back.
            FreeNode *n = tl.head[c];
            tl.head[c] = n->next;
            --tl.count[c];
            ::operator delete(n);
            return;
        }
        arm(tl);
        if (tl.count[c] <= tl.highWater)
            return;
    }

    // Donate a batch to the global pool.
    FreeNode *batch_head = tl.head[c];
    FreeNode *batch_tail = batch_head;
    for (std::uint32_t i = 1; i < Batch; ++i)
        batch_tail = batch_tail->next;
    tl.head[c] = batch_tail->next;
    tl.count[c] -= Batch;

    GlobalPool &gp = globalPool();
    std::lock_guard<std::mutex> lock(gp.mtx);
    batch_tail->next = gp.head[c];
    gp.head[c] = batch_head;
    gp.count[c] += Batch;
}

} // namespace detail

std::size_t
cachedNodes()
{
    using namespace detail;
    std::size_t n = 0;
    const ThreadLists &tl = threadLists;
    for (std::size_t c = 0; c < NumClasses; ++c)
        n += tl.count[c];
    GlobalPool &gp = globalPool();
    std::lock_guard<std::mutex> lock(gp.mtx);
    for (std::size_t c = 0; c < NumClasses; ++c)
        n += gp.count[c];
    return n;
}

} // namespace slab
} // namespace c3d
