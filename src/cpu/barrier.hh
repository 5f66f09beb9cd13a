/**
 * @file
 * Simulated thread barrier.
 *
 * Iterative parallel kernels (the PARSEC workloads the paper
 * evaluates) synchronize at barriers every iteration, which bounds
 * the skew between threads. Without this, per-core placement and
 * caching feedback loops let fast cores run away from slow ones and
 * the completion-time metric degenerates to the unluckiest core.
 *
 * Two release disciplines:
 *
 * - Legacy (sequential kernel): the last arriver releases everyone
 *   inline at its own tick.
 * - Quantized (multi-queue kernel): arrivals from different kernel
 *   threads are collected under a mutex; the cell executor's
 *   single-threaded barrier hook releases a complete episode at the
 *   next cell boundary, scheduling each core's resume into that
 *   core's own queue in ascending core order. The release tick is
 *   quantized up to the boundary, but the decision (who was waiting
 *   by the end of a cell) depends only on deterministic event ticks,
 *   so the outcome is identical for any worker count.
 */

#ifndef C3DSIM_CPU_BARRIER_HH
#define C3DSIM_CPU_BARRIER_HH

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/inline_function.hh"

namespace c3d
{

/** A reusable N-party rendezvous. */
class Barrier
{
  public:
    void
    init(std::uint32_t parties, StatGroup *stats,
         const std::string &name)
    {
        numParties = parties;
        episodes.init(stats, name + ".episodes",
                      "barrier episodes completed");
    }

    /** Switch to boundary-released episodes (multi-queue kernel). */
    void enableQuantized() { quantized = true; }

    std::uint32_t parties() const { return numParties; }

    /** A party may drop out permanently (finished its quota). */
    void
    retire()
    {
        if (quantized) {
            std::lock_guard<std::mutex> g(mu);
            c3d_assert(numParties > 0, "retire with no parties");
            --numParties;
            // A retirement that completes the episode is picked up
            // by the next quantRelease() boundary.
            return;
        }
        c3d_assert(numParties > 0, "retire with no parties");
        --numParties;
        if (arrived >= numParties)
            release();
    }

    /**
     * Arrive at the barrier. Legacy mode: @p resume runs inline at
     * the last arriver's tick (@p core is unused). Quantized mode:
     * @p resume is scheduled onto @p core's queue by the next
     * quantRelease() that finds the episode complete.
     */
    void
    arrive(CoreId core, Continuation<void()> resume)
    {
        if (quantized) {
            std::lock_guard<std::mutex> g(mu);
            qWaiting.emplace_back(core, std::move(resume));
            return;
        }
        (void)core;
        waiting.push_back(std::move(resume));
        ++arrived;
        if (arrived >= numParties)
            release();
    }

    std::uint32_t
    waitingCount() const
    {
        if (quantized) {
            std::lock_guard<std::mutex> g(mu);
            return static_cast<std::uint32_t>(qWaiting.size());
        }
        return arrived;
    }

    /**
     * Quantized-mode release hook; runs single-threaded on the cell
     * executor's barrier master. If every remaining party has
     * arrived, schedule all resumes at tick @p q, each into the queue
     * @p queue_of(core) names, in ascending core order. Returns
     * whether an episode was released.
     */
    template <typename QueueOf>
    bool
    quantRelease(Tick q, QueueOf &&queue_of)
    {
        std::lock_guard<std::mutex> g(mu);
        if (qWaiting.empty() || qWaiting.size() < numParties)
            return false;
        ++episodes;
        std::sort(qWaiting.begin(), qWaiting.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (auto &w : qWaiting) {
            queue_of(w.first).scheduleAt(q, std::move(w.second));
        }
        qWaiting.clear();
        return true;
    }

  private:
    void
    release()
    {
        ++episodes;
        arrived = 0;
        std::vector<Continuation<void()>> ready;
        ready.swap(waiting);
        for (auto &fn : ready)
            fn();
    }

    std::uint32_t numParties = 0;
    bool quantized = false;
    std::uint32_t arrived = 0;
    std::vector<Continuation<void()>> waiting;
    /** Quantized-mode state; mu orders cross-thread arrivals. */
    mutable std::mutex mu;
    std::vector<std::pair<CoreId, Continuation<void()>>> qWaiting;
    Counter episodes;
};

} // namespace c3d

#endif // C3DSIM_CPU_BARRIER_HH
