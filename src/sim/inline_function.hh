/**
 * @file
 * Move-only callable with fixed-size inline storage, templated on its
 * call signature and capture budget.
 *
 * One type carries every continuation the simulator runs. An event
 * (EventQueue::Callback = InlineFunction<void()>, 64-byte budget)
 * and every request-path continuation a protocol hop hands to the
 * next (Continuation<Sig> = InlineFunction<Sig, 24>, 32 bytes in
 * all) store their capture in place. A Continuation is sized so that
 * one fits inside an event capture beside a `this` pointer, a block
 * address and a few scalars: the request path nests continuation in
 * event in continuation without touching the allocator.
 *
 * A callable larger than its budget (or over-aligned, or with a
 * throwing move) spills to one node of the event-path slab
 * (sim/slab.hh), which recycles it without calling malloc once warm;
 * only callables above the slab's largest size class or with
 * extended alignment reach operator new. onHeap() flags a spill so
 * benchmarks and tests can assert that events never pay for one.
 * docs/perf.md lists the budget of each signature.
 */

#ifndef C3DSIM_SIM_INLINE_FUNCTION_HH
#define C3DSIM_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/log.hh"
#include "sim/slab.hh"

namespace c3d
{

template <typename Sig, std::size_t Bytes = 64>
class InlineFunction;

/** Move-only callable of signature `R(Args...)`, @p Bytes inline. */
template <typename R, typename... Args, std::size_t Bytes>
class InlineFunction<R(Args...), Bytes>
{
  public:
    /** Inline capture budget, in bytes. See docs/perf.md before
     * growing a capture past it. */
    static constexpr std::size_t InlineBytes = Bytes;
    static constexpr std::size_t InlineAlign = alignof(void *);
    static_assert(Bytes >= sizeof(void *) && Bytes % InlineAlign == 0,
                  "budget must hold a spill pointer and keep alignment");

    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {} // NOLINT: implicit

    template <typename F, typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, InlineFunction> &&
                  std::is_invocable_r_v<R, Fn &, Args...>>>
    InlineFunction(F &&f) // NOLINT: implicit by design
    {
        if constexpr (isInlineFunction<Fn>::value) {
            // Wrapping an empty callable yields an empty one.
            if (!f)
                return;
        }
        if constexpr (fitsInline<Fn>) {
            ::new (static_cast<void *>(storage)) Fn(std::forward<F>(f));
            ops = &InlineModel<Fn>::ops;
        } else {
            ::new (static_cast<void *>(storage))
                (Fn *)(HeapModel<Fn>::make(std::forward<F>(f)));
            ops = &HeapModel<Fn>::ops;
        }
    }

    InlineFunction(InlineFunction &&other) noexcept : ops(other.ops)
    {
        relocateFrom(other);
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this == &other)
            return *this;
        reset();
        ops = other.ops;
        relocateFrom(other);
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    /** Invoke. Const, as for the standard library's type-erased
     * function: the callable may still mutate its own capture. */
    R
    operator()(Args... args) const
    {
        c3d_assert(ops, "invoking an empty InlineFunction");
        return ops->invoke(storage, std::forward<Args>(args)...);
    }

    explicit operator bool() const noexcept { return ops != nullptr; }

    /** True when the callable spilled out of the inline buffer. */
    bool onHeap() const noexcept { return ops && ops->heap; }

  private:
    template <typename T>
    struct isInlineFunction : std::false_type {};
    template <typename S, std::size_t B>
    struct isInlineFunction<InlineFunction<S, B>> : std::true_type {};

    template <typename Fn>
    static constexpr bool fitsInline =
        sizeof(Fn) <= Bytes && alignof(Fn) <= InlineAlign &&
        std::is_nothrow_move_constructible_v<Fn>;

    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct dst from src, then destroy src; nullptr
         * when a byte copy does both (trivial captures, spills). */
        void (*relocate)(void *dst, void *src) noexcept;
        /** nullptr when destruction is a no-op. */
        void (*destroy)(void *) noexcept;
        bool heap;
    };

    template <typename Fn>
    struct InlineModel
    {
        static Fn *at(void *s) { return std::launder(
            reinterpret_cast<Fn *>(s)); }
        static R invoke(void *s, Args &&...args)
        {
            return (*at(s))(std::forward<Args>(args)...);
        }
        static void
        relocate(void *dst, void *src) noexcept
        {
            ::new (dst) Fn(std::move(*at(src)));
            at(src)->~Fn();
        }
        static void destroy(void *s) noexcept { at(s)->~Fn(); }
        static constexpr bool trivial =
            std::is_trivially_copyable_v<Fn>;
        static constexpr Ops ops{
            &invoke, trivial ? nullptr : &relocate,
            std::is_trivially_destructible_v<Fn> ? nullptr : &destroy,
            false};
    };

    template <typename Fn>
    struct HeapModel
    {
        // Spilled captures recycle through the event-path slab
        // (small fixed sizes, freed at event rates, possibly on a
        // different kernel thread than the allocating one).
        // Over-aligned callables keep plain new, which honors
        // extended alignment.
        static constexpr bool slabBacked =
            alignof(Fn) <= alignof(std::max_align_t);

        template <typename F>
        static Fn *
        make(F &&f)
        {
            if constexpr (slabBacked)
                return slab::create<Fn>(std::forward<F>(f));
            else
                return new Fn(std::forward<F>(f));
        }

        static Fn *at(void *s) { return *std::launder(
            reinterpret_cast<Fn **>(s)); }
        static R invoke(void *s, Args &&...args)
        {
            return (*at(s))(std::forward<Args>(args)...);
        }
        static void
        destroy(void *s) noexcept
        {
            if constexpr (slabBacked)
                slab::Delete{}(at(s));
            else
                delete at(s);
        }
        static constexpr Ops ops{&invoke, nullptr, &destroy, true};
    };

    /** Take over @p other's callable (ops already copied). */
    void
    relocateFrom(InlineFunction &other) noexcept
    {
        if (!ops)
            return;
        if (ops->relocate) {
            ops->relocate(storage, other.storage);
        } else {
            // A fixed-size copy of the whole buffer beats an indirect
            // call; the bytes past the callable are copied unread.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
            std::memcpy(storage, other.storage, Bytes);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
        }
        other.ops = nullptr;
    }

    void
    reset() noexcept
    {
        if (ops && ops->destroy)
            ops->destroy(storage);
        ops = nullptr;
    }

    const Ops *ops = nullptr;
    alignas(InlineAlign) mutable unsigned char storage[Bytes];
};

/**
 * Request-path continuation budget: 24 bytes inline, 32 in all, so a
 * continuation nests inside a 64-byte event capture.
 */
constexpr std::size_t ContinuationBytes = 24;

/** A continuation handed from one request-path hop to the next. */
template <typename Sig>
using Continuation = InlineFunction<Sig, ContinuationBytes>;

} // namespace c3d

#endif // C3DSIM_SIM_INLINE_FUNCTION_HH
