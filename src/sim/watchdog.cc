#include "sim/watchdog.hh"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace c3d
{

namespace
{

/** Handshake between the caller and its sacrificial thread. */
struct SiblingRun
{
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::exception_ptr error;
};

/** One abandoned run: the thread plus everything it may touch. */
struct Abandoned
{
    std::thread thread;
    std::shared_ptr<SiblingRun> run;
    std::shared_ptr<void> keepAlive;
};

std::mutex registryMu;

/**
 * Deliberately leaked: an abandoned thread may still be parked at
 * process exit, and destroying a joinable std::thread terminates
 * the process (which would turn a contained row failure into
 * SIGABRT on the way out). Process teardown reclaims the threads.
 */
std::vector<Abandoned> &
abandonedRegistry()
{
    static std::vector<Abandoned> &r = *new std::vector<Abandoned>;
    return r;
}

} // namespace

void
runWithSiblingWatchdog(WatchdogState &state, std::function<void()> body,
                       std::shared_ptr<void> keep_alive)
{
    const std::uint64_t wall_ms = state.budgets().wallMs;

    auto run = std::make_shared<SiblingRun>();
    std::thread worker([run, body = std::move(body)] {
        std::exception_ptr error;
        try {
            body();
        } catch (...) {
            error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(run->mu);
        run->error = error;
        run->done = true;
        run->cv.notify_all();
    });

    const auto budget = std::chrono::milliseconds(wall_ms);
    std::unique_lock<std::mutex> lock(run->mu);
    const auto finished = [&] { return run->done; };
    if (!run->cv.wait_for(lock, budget, finished)) {
        // A run still executing events stops at its next bulk fold
        // (EventQueue::watchdogCheck) and finishes with that SimError.
        state.raiseWallExpiry();
        run->cv.wait_for(lock, budget, finished);
    }
    const bool done = run->done;
    lock.unlock();

    if (done) {
        worker.join();
        if (run->error)
            std::rethrow_exception(run->error);
        return;
    }

    {
        std::lock_guard<std::mutex> guard(registryMu);
        abandonedRegistry().push_back(
            Abandoned{std::move(worker), run, std::move(keep_alive)});
    }
    c3d_panic("sibling watchdog: no completion %llu ms after the "
              "%llu ms wall-clock budget ran out; the run is stalled "
              "inside a single event and has been abandoned on its "
              "worker thread",
              static_cast<unsigned long long>(wall_ms),
              static_cast<unsigned long long>(wall_ms));
}

std::size_t
abandonedWatchdogThreads()
{
    std::lock_guard<std::mutex> guard(registryMu);
    return abandonedRegistry().size();
}

std::size_t
reapAbandonedWatchdogThreads()
{
    std::lock_guard<std::mutex> guard(registryMu);
    std::vector<Abandoned> &registry = abandonedRegistry();
    std::size_t reaped = 0;
    for (std::size_t i = registry.size(); i-- > 0;) {
        Abandoned &a = registry[i];
        bool done;
        {
            std::lock_guard<std::mutex> lk(a.run->mu);
            done = a.run->done;
        }
        if (!done)
            continue;
        a.thread.join();
        registry.erase(registry.begin() +
                       static_cast<std::ptrdiff_t>(i));
        ++reaped;
    }
    return reaped;
}

} // namespace c3d
