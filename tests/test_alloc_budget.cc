/**
 * @file
 * Allocation budget of the request path (docs/perf.md).
 *
 * This binary replaces the global operator new/delete with counting
 * versions and counts the allocations made inside Runner::run for a
 * small row of every design and every snoopy protocol variant. The
 * request path -- events, continuations, block locks, fan-ins, the
 * per-block tables -- recycles its storage through the event-path
 * slab, so what remains is warm-up: the slab's first fills (event
 * nodes included) and the per-block tables growing to their working
 * size -- a fraction of an allocation per memory operation. A per-hop
 * heap node anywhere on the path (a std::deque per block lock, a
 * shared_ptr per fan-in, a spilled continuation on plain new) costs
 * at least one per transaction and breaks the bound.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/log.hh"
#include "sim/runner.hh"
#include "test_helpers.hh"
#include "trace/workload.hh"

namespace
{

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace c3d
{
namespace
{

using test::tinyConfig;
using test::tinyProfile;

constexpr std::uint64_t WarmupOps = 2000;
constexpr std::uint64_t MeasureOps = 10000;

/**
 * Allocations per memory operation any row may make. Measured on
 * these rows (x86-64, gcc 12.2, Release): 0.003 (baseline, c3d) and
 * 0.004 (snoopy and each of its four variants, full-dir,
 * c3d-full-dir) per op -- the slab's first fills and the open-
 * addressed per-block tables doubling to their working size. While
 * snoopy's home lines and the full directory's entries were nodes of
 * a std::unordered_map, those rows made 0.203 to 0.204: one node per
 * block first touched, so a node-based table back on the path fails
 * here by design name. With vector-backed wheel buckets, whose
 * growth to working size was most of the count, the rows made 0.33
 * to 0.61; before the request path stopped allocating they made 11
 * to 21, and restoring just the std::deque per block lock puts every
 * row at 2.4 or more.
 */
constexpr double MaxAllocsPerOp = 0.02;

/** Allocations inside Runner::run for one row, per memory op. */
double
allocsPerOp(const SystemConfig &cfg)
{
    SyntheticWorkload wl(tinyProfile(), cfg.totalCores(),
                         cfg.coresPerSocket);
    Runner r(cfg, wl);
    allocations = 0;
    counting = true;
    r.run(WarmupOps, MeasureOps);
    counting = false;
    const double ops =
        static_cast<double>((WarmupOps + MeasureOps) * cfg.totalCores());
    return static_cast<double>(allocations.load()) / ops;
}

TEST(AllocBudget, EveryDesignStaysUnderBudget)
{
    setQuiet(true);
    for (const Design d :
         {Design::Baseline, Design::Snoopy, Design::FullDir,
          Design::C3D, Design::C3DFullDir}) {
        const double per_op = allocsPerOp(tinyConfig(d));
        std::printf("%-14s %.3f allocations per memory op\n",
                    designName(d), per_op);
        EXPECT_LT(per_op, MaxAllocsPerOp) << "design " << designName(d);
    }
}

TEST(AllocBudget, EverySnoopyProtocolStaysUnderBudget)
{
    setQuiet(true);
    for (const Protocol p : {Protocol::Mesi, Protocol::Mesif,
                             Protocol::Moesi, Protocol::Dragon}) {
        SystemConfig cfg = tinyConfig(Design::Snoopy);
        cfg.protocol = p;
        const double per_op = allocsPerOp(cfg);
        std::printf("snoopy/%-7s %.3f allocations per memory op\n",
                    protocolName(p), per_op);
        EXPECT_LT(per_op, MaxAllocsPerOp) << protocolName(p);
    }
}

TEST(AllocBudget, CounterSeesHeapAllocations)
{
    // Guard against the replacement silently not linking in: a
    // plain new inside the window must register.
    allocations = 0;
    counting = true;
    delete new int(7);
    counting = false;
    EXPECT_EQ(allocations.load(), 1u);
}

} // namespace
} // namespace c3d
