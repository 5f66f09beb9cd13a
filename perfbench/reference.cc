#include "reference.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench
{

namespace
{

/** Events one thread handles in a pass. */
constexpr std::uint64_t Events = 1u << 20;
/** Working set shared by the threads: 64 MiB of 64-bit words (a
 * power of two), larger than a last-level cache. */
constexpr std::size_t Words = std::size_t{1} << 23;
constexpr std::uint32_t Sets = 4096;
constexpr std::uint32_t Ways = 8;
constexpr std::size_t DirEntries = 1u << 15;
constexpr std::size_t Pending = 1024;

std::atomic<std::uint64_t> sink{0};

/** The working set persists across passes, so no pass pays for page
 * faults. Passes only read it, so threads share it. */
const std::vector<std::uint64_t> &
workingSet()
{
    static const std::vector<std::uint64_t> mem = [] {
        std::vector<std::uint64_t> m(Words);
        for (std::size_t i = 0; i < Words; ++i)
            m[i] = i * 0x9E3779B97F4A7C15ull;
        return m;
    }();
    return mem;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                   ru.ru_stime.tv_usec);
}

/**
 * One thread's pass: a small discrete-event loop over a cache model.
 * @p thread picks the thread's own event stream.
 */
void
pass(const std::vector<std::uint64_t> &mem, unsigned thread)
{
    using Event = std::pair<std::uint64_t, std::uint64_t>; // tick, state
    std::vector<Event> heap;
    heap.reserve(Pending);
    std::uint64_t st = 0x9E3779B97F4A7C15ull * (thread + 1);
    for (std::size_t i = 0; i < Pending; ++i) {
        st = st * 6364136223846793005ull + 1442695040888963407ull;
        heap.emplace_back(i, st);
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<Event>());

    std::vector<std::uint64_t> tags(Sets * Ways, ~0ull);
    std::vector<std::uint32_t> stamps(Sets * Ways, 0);
    std::unordered_map<std::uint64_t, std::uint32_t> dir;
    dir.reserve(DirEntries);
    const std::uint64_t delays[4] = {1, 4, 20, 100};
    const std::uint64_t lines = Words / 8;
    std::uint64_t sum = 0, prev = 0;

    for (std::uint32_t n = 1; n <= Events; ++n) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<Event>());
        auto [tick, s] = heap.back();
        heap.pop_back();
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t r = s >> 17;
        // Half the references stay near the previous line.
        const std::uint64_t line =
            ((r & 1) ? prev + ((r >> 2) & 63) : (r >> 2)) & (lines - 1);
        prev = line;
        sum += mem[line * 8];

        const std::uint32_t set =
            static_cast<std::uint32_t>((line ^ (line >> 12)) & (Sets - 1));
        std::uint64_t *t = &tags[set * Ways];
        std::uint32_t *age = &stamps[set * Ways];
        std::uint32_t way = 0;
        while (way < Ways && t[way] != line)
            ++way;
        if (way == Ways) {
            way = static_cast<std::uint32_t>(
                std::min_element(age, age + Ways) - age);
            if (t[way] != ~0ull)
                dir.erase(t[way]);
            t[way] = line;
            dir[line] = n;
            if (dir.size() > DirEntries)
                dir.erase(dir.begin());
        } else {
            sum += dir.count(line);
        }
        age[way] = n;
        heap.emplace_back(tick + delays[r & 3], s);
        std::push_heap(heap.begin(), heap.end(), std::greater<Event>());
    }
    sink.fetch_add(sum, std::memory_order_relaxed);
}

} // namespace

ReferenceTiming
runReference(unsigned threads)
{
    threads = std::max(1u, threads);
    const std::vector<std::uint64_t> &mem = workingSet();

    ReferenceTiming out;
    const double cpu0 = cpuSeconds();
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (unsigned i = 1; i < threads; ++i)
        pool.emplace_back([&mem, i] { pass(mem, i); });
    pass(mem, 0);
    for (std::thread &t : pool)
        t.join();
    out.wall = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    out.cpu = cpuSeconds() - cpu0;
    return out;
}

} // namespace perfbench
