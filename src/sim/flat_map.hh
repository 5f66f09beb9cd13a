/**
 * @file
 * Open-addressed hash map for every per-block and per-page table on
 * the request path: outstanding reads, in-flight invalidations, block
 * locks, page homes, page classifications, the full directory's
 * entries and snoopy's home lines.
 *
 * Keys are unsigned integers (block or page numbers) and the all-ones
 * key marks a free slot, so a table is two flat arrays: a key row
 * that lookups scan, and a value row touched only on a hit. The
 * capacity is a power of two, the home slot is a multiplicative
 * (Fibonacci) hash of the key, collisions probe linearly, and erase
 * shifts the rest of the probe run back instead of leaving
 * tombstones, so a lookup never scans past the first free slot. The
 * table grows (doubling) once it is half full and never shrinks; it
 * allocates nothing until the first insert and nothing per insert
 * after that.
 *
 * Values move when the table grows and when an erase shifts a run
 * back: a pointer from find() or tryEmplace() is valid only until the
 * next insert or erase. Every user holds such a pointer within one
 * event, before its next insert or erase on that table (for the
 * directory, DirectoryStore states this contract).
 */

#ifndef C3DSIM_SIM_FLAT_MAP_HH
#define C3DSIM_SIM_FLAT_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/log.hh"

namespace c3d
{

template <typename K, typename V>
class FlatMap
{
    static_assert(std::is_unsigned_v<K>, "FlatMap keys are unsigned");

  public:
    /** The reserved key of a free slot. */
    static constexpr K EmptyKey = ~K(0);

    FlatMap() = default;
    FlatMap(const FlatMap &) = delete;
    FlatMap &operator=(const FlatMap &) = delete;

    FlatMap(FlatMap &&o) noexcept { swap(o); }
    FlatMap &operator=(FlatMap &&) = delete;

    ~FlatMap() { release(); }

    /** The value of @p key; nullptr when absent. */
    V *
    find(K key)
    {
        const std::size_t i = slotOf(key);
        return i == NoSlot ? nullptr : &vals[i];
    }

    const V *
    find(K key) const
    {
        const std::size_t i = slotOf(key);
        return i == NoSlot ? nullptr : &vals[i];
    }

    bool contains(K key) const { return slotOf(key) != NoSlot; }

    /**
     * The value of @p key, inserting one built from @p args when
     * absent. @return the value and whether it was inserted.
     */
    template <typename... A>
    std::pair<V *, bool>
    tryEmplace(K key, A &&...args)
    {
        c3d_assert(key != EmptyKey, "FlatMap key collides with EmptyKey");
        if ((count + 1) * 2 > cap)
            grow();
        std::size_t i = homeOf(key);
        while (keys[i] != EmptyKey) {
            if (keys[i] == key)
                return {&vals[i], false};
            i = (i + 1) & mask;
        }
        ::new (&vals[i]) V(std::forward<A>(args)...);
        keys[i] = key;
        ++count;
        return {&vals[i], true};
    }

    /** The value of @p key, value-initialized when absent. */
    V &operator[](K key) { return *tryEmplace(key).first; }

    /** Erase @p key. @return whether it was present. */
    bool
    erase(K key)
    {
        std::size_t hole = slotOf(key);
        if (hole == NoSlot)
            return false;
        vals[hole].~V();
        // Backward shift: move each later entry of the probe run into
        // the hole unless its home lies cyclically in (hole, j].
        for (std::size_t j = (hole + 1) & mask; keys[j] != EmptyKey;
             j = (j + 1) & mask) {
            if (((j - homeOf(keys[j])) & mask) < ((j - hole) & mask))
                continue;
            keys[hole] = keys[j];
            ::new (&vals[hole]) V(std::move(vals[j]));
            vals[j].~V();
            hole = j;
        }
        keys[hole] = EmptyKey;
        --count;
        return true;
    }

    std::size_t size() const { return count; }

    /** Visit every (key, value) pair in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < cap; ++i) {
            if (keys[i] != EmptyKey)
                fn(keys[i], static_cast<const V &>(vals[i]));
        }
    }

    /** Slot count (a power of two; 0 before the first insert). */
    std::size_t capacity() const { return cap; }

    /** Home slot of @p key at the current capacity (cap > 0). */
    std::size_t
    homeOf(K key) const
    {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >>
            shift);
    }

  private:
    static constexpr std::size_t NoSlot = ~std::size_t(0);
    static constexpr std::size_t MinCapacity = 16;

    /** Slot holding @p key, or NoSlot. */
    std::size_t
    slotOf(K key) const
    {
        if (count == 0)
            return NoSlot;
        for (std::size_t i = homeOf(key);; i = (i + 1) & mask) {
            if (keys[i] == EmptyKey)
                return NoSlot;
            if (keys[i] == key)
                return i;
        }
    }

    /** Double the capacity (or allocate the first table). */
    void
    grow()
    {
        FlatMap bigger;
        bigger.allocate(cap ? cap * 2 : MinCapacity);
        for (std::size_t i = 0; i < cap; ++i) {
            if (keys[i] == EmptyKey)
                continue;
            std::size_t j = bigger.homeOf(keys[i]);
            while (bigger.keys[j] != EmptyKey)
                j = (j + 1) & bigger.mask;
            bigger.keys[j] = keys[i];
            ::new (&bigger.vals[j]) V(std::move(vals[i]));
            ++bigger.count;
        }
        swap(bigger);
    }

    void
    allocate(std::size_t slots)
    {
        keys.reset(new K[slots]);
        std::fill_n(keys.get(), slots, EmptyKey);
        vals = std::allocator<V>().allocate(slots);
        cap = slots;
        mask = slots - 1;
        shift = 64 - static_cast<unsigned>(__builtin_ctzll(slots));
    }

    /** Destroy every value and free both rows. */
    void
    release()
    {
        for (std::size_t i = 0; i < cap; ++i) {
            if (keys[i] != EmptyKey)
                vals[i].~V();
        }
        if (vals)
            std::allocator<V>().deallocate(vals, cap);
        keys.reset();
        vals = nullptr;
        cap = count = mask = 0;
    }

    void
    swap(FlatMap &o) noexcept
    {
        std::swap(keys, o.keys);
        std::swap(vals, o.vals);
        std::swap(cap, o.cap);
        std::swap(count, o.count);
        std::swap(mask, o.mask);
        std::swap(shift, o.shift);
    }

    std::unique_ptr<K[]> keys;
    V *vals = nullptr; //!< constructed where keys[i] != EmptyKey
    std::size_t cap = 0;
    std::size_t count = 0;
    std::size_t mask = 0;
    unsigned shift = 64;
};

} // namespace c3d

#endif // C3DSIM_SIM_FLAT_MAP_HH
