/**
 * @file
 * Page-fault probe for perfbench's `setup_s` on the default row
 * (facesim/c3d/4-socket): repeats perfbench's untraced sequence -- one
 * warm-up row, one reference pass, then seven set-up-only passes
 * (workload + Runner construction) -- and prints, per pass, the glibc
 * arena before/after (mallinfo2) and the minor page faults it took
 * (getrusage), then the median set-up time.
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

static long
minorFaults()
{
    rusage r{};
    getrusage(RUSAGE_SELF, &r);
    return r.ru_minflt;
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
        const long f0 = minorFaults();
        const auto start = std::chrono::steady_clock::now();
        const WorkloadProfile prof = spec.profile.scaled(spec.scale);
        SyntheticWorkload wl(prof, spec.cfg.totalCores(),
                             spec.cfg.coresPerSocket);
        Runner r(spec.cfg, wl, o);
        secs.push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count());
        const long faults = minorFaults() - f0;
        const struct mallinfo2 m1 = mallinfo2();
        std::printf("pass %d: arena %zu -> %zu KB (free %zu -> %zu KB), "
                    "%ld minor faults, %.3f ms\n",
                    i, m0.arena >> 10, m1.arena >> 10, m0.fordblks >> 10,
                    m1.fordblks >> 10, faults, secs.back() * 1e3);
    }
    std::sort(secs.begin(), secs.end());
    std::printf("setup median %.3f ms\n", secs[Passes / 2] * 1e3);
}
