/**
 * @file
 * Google-benchmark microbenchmarks of the simulator primitives: the
 * event queue and the queue router's outboxes, tag array, miss
 * predictor and RNG. These bound the simulator's own throughput
 * (events/second), which determines how large a machine/trace the
 * harness can afford.
 */

#include <benchmark/benchmark.h>

#include "cache/tag_array.hh"
#include "common/rng.hh"
#include "dramcache/miss_predictor.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/queue_router.hh"
#include "sim/watchdog.hh"

namespace
{

/** 1024 events at small mixed delays per iteration. */
void
scheduleRun(benchmark::State &state, c3d::WatchdogState *watchdog)
{
    c3d::EventQueue eq;
    eq.attachWatchdog(watchdog);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i)
            eq.schedule(static_cast<c3d::Tick>(i & 7),
                        [&sink] { ++sink; });
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 1024);
}

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    scheduleRun(state, nullptr);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueScheduleRunWatchdog(benchmark::State &state)
{
    // The same loop with the progress watchdog armed at c3d-sweep's
    // default (livelock detector at 2M same-tick events): the pair
    // measures the watchdog's per-event cost (docs/robustness.md).
    c3d::WatchdogState watchdog;
    watchdog.arm(c3d::WatchdogLimits{/*wallMs=*/0, /*maxEvents=*/0,
                                     /*stallEvents=*/2000000});
    scheduleRun(state, &watchdog);
}
BENCHMARK(BM_EventQueueScheduleRunWatchdog);

void
BM_EventQueueSameTickBurst(benchmark::State &state)
{
    // Barrier-style bursts: many events land on one tick and must
    // drain in FIFO order. Exercises single-bucket append/drain.
    c3d::EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i)
            eq.schedule(3, [&sink] { ++sink; });
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueSameTickBurst);

void
BM_EventQueueFarFuture(benchmark::State &state)
{
    // Delays beyond the wheel span land in the overflow heap and
    // migrate into the wheel as the base advances -- the pattern a
    // congested memory channel produces with far-future ready times.
    c3d::EventQueue eq;
    std::uint64_t sink = 0;
    const c3d::Tick far = 4 * c3d::EventQueue::WheelSpan;
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i)
            eq.schedule(far + static_cast<c3d::Tick>(i & 63),
                        [&sink] { ++sink; });
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueFarFuture);

void
BM_QueueRouterInjectFlush(benchmark::State &state)
{
    // The parallel kernel's cross-socket path: 1024 deliveries staged
    // in socket 0's outbox for socket 1, flushed into socket 1's
    // queue at the cell barrier, then run. Each capture nests a
    // request-path continuation, as the protocol's arrivals do, so
    // every move of a staged callable is a real relocation.
    c3d::EventQueue q0, q1;
    c3d::QueueRouter rt;
    rt.initMulti({&q0, &q1});
    std::uint64_t sink = 0;
    for (auto _ : state) {
        const c3d::Tick base = q1.now() + 1;
        for (int i = 0; i < 1024; ++i) {
            rt.inject(0, 1, base + static_cast<c3d::Tick>(i & 7),
                      [done = c3d::Continuation<void()>(
                           [&sink] { ++sink; })] { done(); });
        }
        const unsigned sealed = rt.currentParity();
        rt.flipParity();
        rt.flushTo(1, sealed);
        q1.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_QueueRouterInjectFlush);

void
BM_TagArrayLookup(benchmark::State &state)
{
    c3d::TagArray tags;
    tags.init(1 << 20, 16);
    c3d::Rng rng(1);
    for (int i = 0; i < 10000; ++i)
        tags.allocate(rng.below(1 << 20), c3d::CacheState::Shared);
    std::uint64_t hits = 0;
    for (auto _ : state) {
        hits += tags.find(rng.below(1 << 20)) != nullptr;
    }
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagArrayLookup);

void
BM_TagArrayAllocate(benchmark::State &state)
{
    c3d::TagArray tags;
    tags.init(1 << 18, 8);
    c3d::Rng rng(2);
    for (auto _ : state) {
        tags.allocate(rng.below(1 << 22) * c3d::BlockBytes,
                      c3d::CacheState::Shared);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagArrayAllocate);

void
BM_TagArrayAllocateEvict(benchmark::State &state)
{
    // Every allocation displaces a valid LRU victim: the array is
    // pre-filled and the address stream never reuses a block, so this
    // isolates the fused find+victim scan plus eviction bookkeeping.
    c3d::TagArray tags;
    tags.init(1 << 18, 8);
    c3d::Addr next = 0;
    const std::uint64_t blocks = tags.capacityBlocks();
    for (std::uint64_t i = 0; i < blocks; ++i)
        tags.allocate((next++) * c3d::BlockBytes,
                      c3d::CacheState::Shared);
    std::uint64_t evictions = 0;
    for (auto _ : state) {
        evictions += tags.allocate((next++) * c3d::BlockBytes,
                                   c3d::CacheState::Shared).evictedValid;
    }
    benchmark::DoNotOptimize(evictions);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagArrayAllocateEvict);

void
BM_MissPredictor(benchmark::State &state)
{
    c3d::StatGroup stats("bench");
    c3d::MissPredictor pred;
    pred.init(4096, 4096, &stats, "pred");
    c3d::Rng rng(3);
    for (int i = 0; i < 4096; ++i)
        pred.onInsert(rng.below(1u << 30));
    std::uint64_t present = 0;
    for (auto _ : state)
        present += pred.mayBePresent(rng.below(1u << 30));
    benchmark::DoNotOptimize(present);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MissPredictor);

void
BM_RngBelow(benchmark::State &state)
{
    c3d::Rng rng(4);
    std::uint64_t sink = 0;
    for (auto _ : state)
        sink += rng.below(12345);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngBelow);

} // namespace

BENCHMARK_MAIN();
