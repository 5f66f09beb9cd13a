/**
 * @file
 * Page-fault probe for perfbench's `setup_s` on the default row
 * (facesim/c3d/4-socket): repeats perfbench's untraced sequence -- one
 * warm-up row, one reference pass, then seven set-up-only passes
 * (workload + Runner construction) -- and prints, per pass, the glibc
 * arena before/after (mallinfo2) and the minor page faults it took
 * (getrusage), then the median set-up time. It then runs one full row
 * and prints that row's minor faults and the process's peak RSS before
 * and after it, so faults that set-up sheds but the row still needs
 * show up as moved rather than removed. The peak includes the
 * reference pass's 64 MiB working set.
 *
 * Figures on a 4-core x86-64 host, gcc 12 Release, default glibc
 * thresholds. With the DRAM-cache tag store zero-filled at
 * construction, a pass took about 4,800 faults and 14 ms while glibc
 * trimmed the heap between passes, and 0-60 faults and 1.7-3.6 ms once
 * it kept the freed heap; the row then took 32 faults. With the tag
 * store on calloc's untouched zero pages, every pass takes about 870
 * faults and 2 ms: the L1 and LLC tag arrays and the sparse
 * directories, which are written in full at construction. The row
 * takes about 4,100 faults, of which about 2,100 are the tag-store
 * pages it writes (524 of each socket's 1,025) and the rest heap pages
 * the trimmed set-up passes no longer leave behind.
 *
 * It links against the perfbench library of the checkout under test:
 *
 *   cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release
 *   cmake --build .bench_build/perfbench -j --target c3dsim_perfbench
 *   g++ -O2 -std=c++17 -Isrc -Iperfbench scripts/setup_fault_probe.cc \
 *       perfbench/reference.cc .bench_build/perfbench/libc3dsim_perfbench.a \
 *       -lpthread -o setup_fault_probe
 *   ./setup_fault_probe
 *   MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=67108864 \
 *       ./setup_fault_probe
 *
 * The second run raises glibc's mmap and trim thresholds so freed heap
 * stays mapped; comparing the two separates page-faulting from set-up
 * work.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "exp/sweep_engine.hh"
#include "exp/sweep_grid.hh"
#include "reference.hh"
#include "sim/runner.hh"
#include "trace/workload.hh"

using namespace c3d;

static rusage
usage()
{
    rusage r{};
    getrusage(RUSAGE_SELF, &r);
    return r;
}

int
main()
{
    exp::SweepGrid g;
    g.workloads = {facesimProfile()};
    g.designs = {Design::C3D};
    g.sockets = {4};
    const exp::RunSpec spec = g.expand().front();
    RunOptions o;
    o.watchdog.stallEvents = 2000000;
    exp::SweepEngine::simulateSpec(spec, o);
    perfbench::runReference(1);

    constexpr int Passes = 7;
    std::vector<double> secs;
    for (int i = 0; i < Passes; ++i) {
        const struct mallinfo2 m0 = mallinfo2();
        const long f0 = usage().ru_minflt;
        const auto start = std::chrono::steady_clock::now();
        const WorkloadProfile prof = spec.profile.scaled(spec.scale);
        SyntheticWorkload wl(prof, spec.cfg.totalCores(),
                             spec.cfg.coresPerSocket);
        Runner r(spec.cfg, wl, o);
        secs.push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count());
        const long faults = usage().ru_minflt - f0;
        const struct mallinfo2 m1 = mallinfo2();
        std::printf("pass %d: arena %zu -> %zu KB (free %zu -> %zu KB), "
                    "%ld minor faults, %.3f ms\n",
                    i, m0.arena >> 10, m1.arena >> 10, m0.fordblks >> 10,
                    m1.fordblks >> 10, faults, secs.back() * 1e3);
    }
    std::sort(secs.begin(), secs.end());
    std::printf("setup median %.3f ms\n", secs[Passes / 2] * 1e3);

    // One full row after the set-up passes: faults that set-up no
    // longer takes but the row still needs show up here instead.
    const rusage u0 = usage();
    exp::SweepEngine::simulateSpec(spec, o);
    const rusage u1 = usage();
    std::printf("row: %ld minor faults, peak RSS %.1f -> %.1f MB\n",
                u1.ru_minflt - u0.ru_minflt, u0.ru_maxrss / 1024.0,
                u1.ru_maxrss / 1024.0);
}
