/**
 * @file
 * Thread-cached slab recycler for event-path allocations.
 *
 * The request path's remaining dynamic storage is small, short-lived
 * and fixed-size: the event kernel's nodes (one per scheduled event,
 * sim/event_queue.hh), InlineFunction captures that outgrow their
 * budget, fan-in and join state shared by a transaction's probes, and
 * the waiter lists hung off the per-block tables (queued block-lock
 * starts, merged reads; the tables themselves are FlatMaps,
 * sim/flat_map.hh). All of it is allocated and freed at event
 * rates, so going through malloc on
 * every one costs real throughput and — under the parallel kernel —
 * contends on the global allocator.
 *
 * slab::alloc/free keep per-thread free lists for three small size
 * classes (64, 128 and 256 bytes; larger requests pass through to
 * operator new). Frees always push onto the *freeing* thread's local
 * list — a node allocated by socket 0's worker may be freed by
 * socket 2's worker after a cross-queue hop, and that must not
 * require synchronization on the fast path. When a local list grows
 * past a high-water mark it donates a batch to a mutex-protected
 * global pool, which refills other threads' lists; this bounds
 * per-thread hoarding when producers and consumers are different
 * threads. All memory is released at thread exit (local caches) and
 * process exit (global pool), keeping LeakSanitizer clean.
 *
 * On top of the raw interface: Allocator (for standard containers),
 * Unique (sole owner) and Shared (intrusively counted owner). Events
 * that may be dropped unrun — a row torn down mid-flight — must hold
 * slab memory through one of these, never a raw pointer.
 */

#ifndef C3DSIM_SIM_SLAB_HH
#define C3DSIM_SIM_SLAB_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

namespace c3d
{
namespace slab
{

/**
 * Allocate @p size bytes (alignment suitable for any object of
 * fundamental alignment). Small sizes are served from the calling
 * thread's cache; sizes above the largest class fall through to
 * ::operator new.
 */
void *alloc(std::size_t size);

/** Return memory obtained from alloc(); @p size must match. */
void free(void *ptr, std::size_t size);

/** Nodes currently cached (local + global), for tests. */
std::size_t cachedNodes();

/** Standard-library allocator over alloc()/free(). */
template <typename T>
struct Allocator
{
    using value_type = T;

    Allocator() noexcept = default;
    template <typename U>
    Allocator(const Allocator<U> &) noexcept {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(alloc(n * sizeof(T)));
    }

    void deallocate(T *p, std::size_t n) noexcept { free(p, n * sizeof(T)); }

    template <typename U>
    bool operator==(const Allocator<U> &) const noexcept { return true; }
    template <typename U>
    bool operator!=(const Allocator<U> &) const noexcept { return false; }
};

/** Construct a T in slab memory. */
template <typename T, typename... A>
T *
create(A &&...args)
{
    void *mem = alloc(sizeof(T));
    try {
        return ::new (mem) T(std::forward<A>(args)...);
    } catch (...) {
        free(mem, sizeof(T));
        throw;
    }
}

/** Destroy and release a T made by create(). */
struct Delete
{
    template <typename T>
    void
    operator()(T *p) const noexcept
    {
        p->~T();
        free(p, sizeof(T));
    }
};

/** Sole owner of a slab-allocated T. */
template <typename T>
using Unique = std::unique_ptr<T, Delete>;

template <typename T, typename... A>
Unique<T>
makeUnique(A &&...args)
{
    return Unique<T>(create<T>(std::forward<A>(args)...));
}

/**
 * Shared owner of a slab-allocated T, one pointer wide. The count is
 * atomic: a fan-in's handles ride packets to other sockets' kernel
 * threads and may be dropped there.
 */
template <typename T>
class Shared
{
  public:
    Shared() noexcept = default;

    template <typename... A>
    static Shared
    make(A &&...args)
    {
        Shared s;
        s.node = create<Node>(std::forward<A>(args)...);
        return s;
    }

    Shared(const Shared &o) noexcept : node(o.node)
    {
        if (node)
            node->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Shared(Shared &&o) noexcept : node(std::exchange(o.node, nullptr)) {}

    Shared &
    operator=(Shared o) noexcept
    {
        std::swap(node, o.node);
        return *this;
    }

    ~Shared()
    {
        if (node && node->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
            Delete{}(node);
    }

    T *operator->() const noexcept { return &node->value; }
    T &operator*() const noexcept { return node->value; }

  private:
    struct Node
    {
        template <typename... A>
        explicit Node(A &&...args) : value{std::forward<A>(args)...}
        {
        }

        std::atomic<std::uint32_t> refs{1};
        T value;
    };

    Node *node = nullptr;
};

} // namespace slab
} // namespace c3d

#endif // C3DSIM_SIM_SLAB_HH
