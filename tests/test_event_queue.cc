/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/sim_error.hh"
#include "sim/event_queue.hh"
#include "sim/queue_router.hh"
#include "test_helpers.hh"

namespace c3d
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbacksMayScheduleMore)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 10)
            eq.schedule(7, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(eq.now(), 63u);
}

TEST(EventQueue, MaxTickStopsEarly)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ScheduleAtAbsoluteTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.scheduleAt(42, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, ZeroDelayRunsAtCurrentTick)
{
    EventQueue eq;
    Tick seen = MaxTick;
    eq.schedule(17, [&] {
        eq.schedule(0, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 17u);
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    eq.run();
    eq.schedule(9, [] {});
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.eventsExecuted(), 0u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 25; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 25u);
}

TEST(EventQueue, WheelWrapAround)
{
    // Delays beyond the wheel span park in the overflow heap; as the
    // wheel base advances past the span boundary they must migrate in
    // and still run in global (tick, sequence) order.
    EventQueue eq;
    std::vector<Tick> order;
    const Tick span = EventQueue::WheelSpan;
    eq.schedule(3 * span + 5, [&] { order.push_back(eq.now()); });
    eq.schedule(span - 1, [&] { order.push_back(eq.now()); });
    eq.schedule(span, [&] { order.push_back(eq.now()); });
    eq.schedule(span + 1, [&] { order.push_back(eq.now()); });
    eq.schedule(1, [&] { order.push_back(eq.now()); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<Tick>{1, span - 1, span, span + 1,
                                        3 * span + 5}));
}

TEST(EventQueue, FarFutureSameTickKeepsScheduleOrder)
{
    // Two events land on the same far-future tick via the overflow
    // heap, a third is scheduled directly once that tick is within
    // the wheel horizon. All three must run in schedule order.
    EventQueue eq;
    std::vector<int> order;
    const Tick target = 2 * EventQueue::WheelSpan + 7;
    eq.scheduleAt(target, [&] { order.push_back(0); });
    eq.scheduleAt(target, [&] { order.push_back(1); });
    // An intermediate event advances the wheel base far enough that
    // `target` is inside the horizon when the third event schedules.
    eq.scheduleAt(2 * EventQueue::WheelSpan, [&] {
        eq.scheduleAt(target, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, InterleavedScheduleAndScheduleAt)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(0);
        eq.schedule(5, [&] { order.push_back(3); });     // tick 15
        eq.scheduleAt(12, [&] { order.push_back(1); });
        eq.scheduleAt(15, [&] { order.push_back(4); });  // after the
        eq.schedule(2, [&] { order.push_back(2); });     // tick 12
    });
    EXPECT_TRUE(eq.run());
    // Tick 12 runs 1 then 2 (schedule order), tick 15 runs 3 then 4.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 15u);
}

TEST(EventQueue, RunMaxTickBoundary)
{
    // An event exactly at maxTick runs; maxTick + 1 does not.
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(50, [&] { ++fired; });
    eq.scheduleAt(51, [&] { ++fired; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.run(51));
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ScheduleAfterMaxTickStopRunsBeforeFarEvents)
{
    // Stop mid-run with a far-future event pending, then schedule an
    // earlier event: it must still run first. Regression guard for
    // the wheel base advancing past unexecuted time.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(0); });
    eq.schedule(3 * EventQueue::WheelSpan, [&] { order.push_back(2); });
    EXPECT_FALSE(eq.run(100));
    eq.scheduleAt(200, [&] { order.push_back(1); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ResetClearsFarFutureEvents)
{
    EventQueue eq;
    eq.schedule(5 * EventQueue::WheelSpan, [] { FAIL(); });
    eq.schedule(1, [] { FAIL(); });
    EXPECT_EQ(eq.pending(), 2u);
    eq.reset();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.run());
}

TEST(EventQueue, MatchesReferenceModelOnRandomSchedule)
{
    // Differential test: execution order must equal a stable sort of
    // (tick, schedule sequence) over a random mix of near, same-tick
    // and far-future events, including events scheduled mid-run.
    EventQueue eq;
    Rng rng(12345);
    std::vector<std::pair<Tick, int>> expected; // (tick, id)
    std::vector<int> got;
    int next_id = 0;

    std::function<void(int)> spawn = [&](int depth) {
        const int n = 1 + static_cast<int>(rng.below(4));
        for (int i = 0; i < n; ++i) {
            // Mix: same-tick, short, wheel-boundary and far delays.
            static const Tick kinds[] = {0, 1, 7,
                                         EventQueue::WheelSpan - 1,
                                         EventQueue::WheelSpan,
                                         EventQueue::WheelSpan + 3,
                                         3 * EventQueue::WheelSpan};
            const Tick delay = kinds[rng.below(7)];
            const int id = next_id++;
            expected.emplace_back(eq.now() + delay, id);
            eq.schedule(delay, [&, id, depth] {
                got.push_back(id);
                if (depth < 3)
                    spawn(depth + 1);
            });
        }
    };
    spawn(0);
    EXPECT_TRUE(eq.run());

    // expected was appended in schedule order, so a stable sort by
    // tick yields the (tick, sequence) reference order.
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expected[i].second) << "at event " << i;
}

TEST(EventQueue, SimulatorSizedCapturesStayInline)
{
    // The largest capture any simulator scheduler builds: a `this`
    // pointer, an address, a few scalars and one nested request-path
    // continuation. It must fit the event's 64-byte inline budget --
    // the hot path pays no heap allocation.
    EventQueue eq;
    struct BigCapture
    {
        void *self;
        Addr blk;
        bool a, b, c;
        Continuation<void()> done;
    };
    static_assert(EventQueue::Callback::InlineBytes == 64,
                  "the event budget is pinned at 64 bytes");
    static_assert(sizeof(BigCapture) <= EventQueue::Callback::InlineBytes,
                  "simulator capture outgrew the inline budget");
    int fired = 0;
    BigCapture cap{&eq, 0x1234, true, false, true, [&] { ++fired; }};
    eq.schedule(1, [cap = std::move(cap)] { cap.done(); });
    EXPECT_EQ(eq.heapCallbackEvents(), 0u);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, OversizedCapturesFallBackToHeap)
{
    EventQueue eq;
    std::array<std::uint64_t, 16> payload{};
    payload[15] = 99;
    int seen = 0;
    eq.schedule(1, [payload, &seen] {
        seen = static_cast<int>(payload[15]);
    });
    EXPECT_EQ(eq.heapCallbackEvents(), 1u);
    eq.run();
    EXPECT_EQ(seen, 99);
}

TEST(EventQueue, ChunkedRunMatchesContinuousRun)
{
    // The parallel kernel advances each socket's queue in W-wide
    // cells via run(cellEnd). Pin the boundary semantics it relies
    // on: an event exactly at cellEnd runs in that chunk, one at
    // cellEnd+1 does not, and chunked execution produces exactly the
    // continuous execution log.
    constexpr Tick W = 64;
    struct Driver
    {
        EventQueue eq;
        Rng rng{991};
        std::vector<Tick> log;
        std::function<void(int)> spawn;
        Driver()
        {
            spawn = [this](int depth) {
                const int n = 1 + static_cast<int>(rng.below(3));
                for (int i = 0; i < n; ++i) {
                    const Tick delay = rng.below(3 * W);
                    eq.schedule(delay, [this, depth] {
                        log.push_back(eq.now());
                        if (depth < 4)
                            spawn(depth + 1);
                    });
                }
            };
            spawn(0);
        }
    };

    Driver cont;
    EXPECT_TRUE(cont.eq.run());

    Driver chunked;
    Tick cell_base = 0;
    while (true) {
        if (chunked.eq.run(cell_base + W - 1))
            break; // drained
        cell_base += W;
    }
    EXPECT_EQ(chunked.log, cont.log);
}

TEST(EventQueue, TwoQueueLockstepMatchesMergedModel)
{
    // Model test for the multi-queue kernel's causality contract:
    // two queues advance in lockstep W-cells; an event may inject
    // into the *other* queue only with delay >= W (the lookahead),
    // and such injections are buffered and flushed at the cell
    // boundary -- exactly the Interconnect/QueueRouter shape. The
    // outcome must match a merged single-queue execution of the same
    // event program: every event fires on the same queue at the same
    // tick, and each queue's timeline is identical.
    //
    // The program is a pure function of the event id (splitmix-style
    // hash), so both harnesses unfold the identical event tree
    // regardless of interleaving.
    constexpr Tick W = 64;
    constexpr int Fanout = 4;
    auto mix = [](std::uint64_t x) {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    };
    struct Ev {
        std::uint64_t id;
        int q;
        int depth;
    };
    // children(ev) -> (dst queue, delay, child id); delay >= W iff
    // the child lands on the other queue.
    auto childrenOf = [&](const Ev &ev) {
        std::vector<std::tuple<int, Tick, std::uint64_t>> out;
        if (ev.depth >= 4)
            return out;
        const std::uint64_t h = mix(ev.id);
        const int n = static_cast<int>(h % 3);
        for (int i = 0; i < n; ++i) {
            const std::uint64_t hc = mix(ev.id * Fanout + 1 + i);
            const bool remote = (hc & 1) != 0;
            const int dst = remote ? 1 - ev.q : ev.q;
            const Tick delay =
                (remote ? W : 0) + static_cast<Tick>((hc >> 1) % (2 * W));
            out.emplace_back(dst, delay,
                             ev.id * Fanout + 1 + i);
        }
        return out;
    };
    using Log = std::vector<std::pair<Tick, std::uint64_t>>;

    // Harness 1: merged single queue, remote injections scheduled
    // directly (a single queue needs no lookahead buffering).
    Log merged_log[2];
    {
        EventQueue eq;
        std::function<void(Ev)> exec = [&](Ev ev) {
            merged_log[ev.q].emplace_back(eq.now(), ev.id);
            for (const auto &[dst, delay, cid] : childrenOf(ev)) {
                Ev child{cid, dst, ev.depth + 1};
                eq.schedule(delay, [&, child] { exec(child); });
            }
        };
        for (int q = 0; q < 2; ++q) {
            for (std::uint64_t r = 0; r < 3; ++r) {
                Ev root{mix(q * 1000 + r) % 1000 + 1,
                        q, 0};
                eq.scheduleAt(r * 17 + q, [&, root] { exec(root); });
            }
        }
        EXPECT_TRUE(eq.run());
    }

    // Harness 2: two queues in lockstep cells with boundary-flushed
    // cross-queue outboxes.
    Log cell_log[2];
    {
        EventQueue qs[2];
        // outbox[src]: (dst, tick, event) buffered during src's cell.
        std::vector<std::tuple<int, Tick, Ev>> outbox[2];
        std::function<void(int, Ev)> exec = [&](int self, Ev ev) {
            cell_log[ev.q].emplace_back(qs[self].now(), ev.id);
            for (const auto &[dst, delay, cid] : childrenOf(ev)) {
                const Ev child{cid, dst, ev.depth + 1};
                const Tick when = qs[self].now() + delay;
                if (dst == self) {
                    qs[self].scheduleAt(
                        when, [&, self, child] { exec(self, child); });
                } else {
                    outbox[self].emplace_back(dst, when, child);
                }
            }
        };
        for (int q = 0; q < 2; ++q) {
            for (std::uint64_t r = 0; r < 3; ++r) {
                Ev root{mix(q * 1000 + r) % 1000 + 1, q, 0};
                qs[q].scheduleAt(r * 17 + q,
                                 [&, q, root] { exec(q, root); });
            }
        }
        Tick cell_base = 0;
        while (true) {
            bool drained = true;
            for (int q = 0; q < 2; ++q)
                drained &= qs[q].run(cell_base + W - 1);
            // Causality check: nothing buffered this cell may target
            // a tick inside it (delay >= W guarantees this).
            for (int src = 0; src < 2; ++src) {
                for (auto &entry : outbox[src]) {
                    const int dst = std::get<0>(entry);
                    const Tick when = std::get<1>(entry);
                    const Ev e = std::get<2>(entry);
                    ASSERT_GE(when, cell_base + W);
                    drained = false;
                    qs[dst].scheduleAt(when,
                                       [&, dst, e] { exec(dst, e); });
                }
                outbox[src].clear();
            }
            if (drained)
                break;
            cell_base += W;
        }
    }

    // Same events at the same ticks on each queue. Same-tick order
    // within a queue can legally differ between the harnesses (the
    // merged queue serializes by global schedule time, the lockstep
    // pair by flush order), so compare canonically sorted timelines
    // and require per-queue tick monotonicity of the raw logs.
    for (int q = 0; q < 2; ++q) {
        for (std::size_t i = 1; i < cell_log[q].size(); ++i)
            EXPECT_LE(cell_log[q][i - 1].first, cell_log[q][i].first);
        Log a = merged_log[q], b = cell_log[q];
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b) << "queue " << q;
    }
}

TEST(EventQueuePanicTest, PastSchedulingThrowsSimError)
{
    EventQueue eq;
    eq.schedule(10, [&] { eq.scheduleAt(5, [] {}); });
    try {
        eq.run();
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("past"),
                  std::string::npos);
        // run() publishes the queue clock, so the error carries
        // the simulated tick of the offending event.
        EXPECT_TRUE(e.tickKnown());
        EXPECT_EQ(e.tick(), 10u);
    }
}

// ---- event node lifetime ---------------------------------------------
// Each event is built once, inside its node, and runs there: the one
// move a probe sees is its construction from the caller's temporary.

using test::LifeProbe;
using test::LifeTally;

TEST(EventNode, ScheduledCallableIsNeverMovedBeforeItRuns)
{
    EventQueue eq;
    LifeTally near, far, at;
    eq.schedule(3, LifeProbe(near));
    eq.schedule(5 * EventQueue::WheelSpan, LifeProbe(far));
    eq.scheduleAt(7, LifeProbe(at));
    // Same-tick neighbours share the probe's bucket list.
    for (int i = 0; i < 100; ++i)
        eq.schedule(3, [] {});
    EXPECT_TRUE(eq.run());
    for (const LifeTally *t : {&near, &far, &at}) {
        EXPECT_EQ(t->runs, 1);
        EXPECT_EQ(t->moves, 1);
        EXPECT_EQ(t->movesAtRun, 1);
        EXPECT_EQ(t->drops, 1);
    }
}

TEST(EventNode, RouterInjectFlushRunNeverMovesTheCallable)
{
    EventQueue q0, q1;
    QueueRouter rt;
    rt.initMulti({&q0, &q1});
    LifeTally t;
    rt.inject(0, 1, 10, LifeProbe(t));
    EXPECT_EQ(t.moves, 1);
    EXPECT_EQ(rt.minPending(0), 10u);
    rt.flipParity();
    rt.flushTo(1, 0);
    EXPECT_TRUE(rt.parityEmpty(0));
    EXPECT_TRUE(q1.run());
    EXPECT_EQ(t.runs, 1);
    EXPECT_EQ(t.movesAtRun, 1);
    EXPECT_EQ(t.moves, 1);
    EXPECT_EQ(t.drops, 1);
}

TEST(EventNode, RunFreesTheNodeAfterTheCall)
{
    EventQueue eq;
    LifeTally t;
    int drops_seen_inside = -1;
    eq.schedule(1, LifeProbe(t));
    eq.schedule(1, [&] { drops_seen_inside = t.drops; });
    eq.run();
    EXPECT_EQ(drops_seen_inside, 1);
    EXPECT_EQ(t.drops, 1);
}

TEST(EventNode, ResetFreesWheelAndOverflowEventsOnce)
{
    EventQueue eq;
    LifeTally wheel, overflow;
    eq.schedule(2, LifeProbe(wheel));
    eq.schedule(3 * EventQueue::WheelSpan, LifeProbe(overflow));
    eq.reset();
    EXPECT_EQ(wheel.drops, 1);
    EXPECT_EQ(overflow.drops, 1);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(wheel.runs + overflow.runs, 0);
    EXPECT_EQ(wheel.drops + overflow.drops, 2);
}

TEST(EventNode, DestructionFreesPendingEventsOnce)
{
    LifeTally wheel, overflow, made;
    {
        EventQueue eq;
        eq.schedule(2, LifeProbe(wheel));
        eq.schedule(3 * EventQueue::WheelSpan, LifeProbe(overflow));
        EventQueue::EventPtr e = EventQueue::makeEvent(LifeProbe(made));
        e->when = 9;
        eq.insert(e.release());
    }
    for (const LifeTally *t : {&wheel, &overflow, &made}) {
        EXPECT_EQ(t->runs, 0);
        EXPECT_EQ(t->drops, 1);
    }
}

TEST(EventNode, RouterDestructionFreesStagedEventsInBothParities)
{
    LifeTally even, odd;
    EventQueue q0, q1;
    {
        QueueRouter rt;
        rt.initMulti({&q0, &q1});
        rt.inject(0, 1, 100, LifeProbe(even));
        rt.flipParity();
        rt.inject(1, 0, 100, LifeProbe(odd));
        EXPECT_FALSE(rt.parityEmpty(0));
        EXPECT_FALSE(rt.parityEmpty(1));
    }
    EXPECT_EQ(even.drops, 1);
    EXPECT_EQ(odd.drops, 1);
    EXPECT_EQ(q0.pending() + q1.pending(), 0u);
}

TEST(EventNode, RouterReinitFreesStagedEvents)
{
    LifeTally t;
    EventQueue q0, q1;
    QueueRouter rt;
    rt.initMulti({&q0, &q1});
    rt.inject(0, 1, 100, LifeProbe(t));
    rt.initSingle(q0, 2);
    EXPECT_EQ(t.drops, 1);
    EXPECT_EQ(t.runs, 0);
}

TEST(EventNode, ThrowingCallbackFreesItsNodeAndTheQueueRunsOn)
{
    EventQueue eq;
    LifeTally thrower, next;
    eq.schedule(1, LifeProbe(thrower, /*throw_on_run=*/true));
    eq.schedule(2, LifeProbe(next));
    EXPECT_THROW(eq.run(), SimError);
    EXPECT_EQ(thrower.runs, 1);
    EXPECT_EQ(thrower.drops, 1);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(next.runs, 1);
    EXPECT_EQ(next.drops, 1);
}

TEST(EventNode, InsertingIntoThePastFreesTheNode)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    LifeTally t;
    EventQueue::EventPtr e = EventQueue::makeEvent(LifeProbe(t));
    e->when = 5;
    EXPECT_THROW(eq.insert(e.release()), SimError);
    EXPECT_EQ(t.drops, 1);
    EXPECT_EQ(eq.pending(), 0u);
}

} // namespace
} // namespace c3d
