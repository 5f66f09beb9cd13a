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
 * Episodes are released at cell boundaries. Arrivals from different
 * kernel threads are collected under a mutex; the cell executor's
 * single-threaded boundary hook releases a complete episode at the
 * next cell boundary, scheduling each core's resume into that core's
 * own queue in ascending core order. The release tick is quantized
 * up to the boundary, but the decision (who was waiting by the end
 * of a cell) depends only on deterministic event ticks, so the
 * outcome is identical for any worker count.
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

    std::uint32_t parties() const { return numParties; }

    /**
     * A party may drop out permanently (finished its quota). A
     * retirement that completes the episode is picked up by the next
     * quantRelease() boundary.
     */
    void
    retire()
    {
        std::lock_guard<std::mutex> g(mu);
        c3d_assert(numParties > 0, "retire with no parties");
        --numParties;
    }

    /**
     * Arrive at the barrier: @p resume is scheduled onto @p core's
     * queue by the next quantRelease() that finds the episode
     * complete.
     */
    void
    arrive(CoreId core, Continuation<void()> resume)
    {
        std::lock_guard<std::mutex> g(mu);
        waiting.emplace_back(core, std::move(resume));
    }

    /**
     * Boundary release hook; runs single-threaded on the cell
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
        if (waiting.empty() || waiting.size() < numParties)
            return false;
        ++episodes;
        std::sort(waiting.begin(), waiting.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (auto &w : waiting) {
            queue_of(w.first).scheduleAt(q, std::move(w.second));
        }
        waiting.clear();
        return true;
    }

  private:
    std::uint32_t numParties = 0;
    /** Arrivals of the open episode; mu orders cross-thread ones. */
    std::mutex mu;
    std::vector<std::pair<CoreId, Continuation<void()>>> waiting;
    Counter episodes;
};

} // namespace c3d

#endif // C3DSIM_CPU_BARRIER_HH
