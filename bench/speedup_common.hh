/**
 * @file
 * Shared driver for the Fig. 6 / Fig. 7 speedup comparisons: a
 * declarative workloads x designs grid on the sweep engine, printed
 * as speedups vs the no-DRAM-cache baseline.
 */

#ifndef C3DSIM_BENCH_SPEEDUP_COMMON_HH
#define C3DSIM_BENCH_SPEEDUP_COMMON_HH

#include <cstdio>
#include <vector>

#include "bench_main.hh"

namespace c3d::bench
{

inline int
runSpeedupComparison(int argc, char **argv, const char *experiment,
                     const char *claim, std::uint32_t sockets)
{
    BenchRun br(argc, argv, experiment, claim);
    if (!br.ok())
        return br.exitCode();

    exp::SweepGrid grid;
    grid.workloads = parallelProfiles();
    grid.designs = {Design::Baseline, Design::Snoopy, Design::FullDir,
                    Design::C3D, Design::C3DFullDir};
    grid.sockets = {sockets};
    grid = br.quickened(grid);

    const exp::ResultTable table = br.run(grid);
    if (br.emit(table))
        return 0;

    std::vector<std::string> names;
    std::vector<Series> series;
    for (std::size_t d = 1; d < grid.designs.size(); ++d)
        series.push_back({designName(grid.designs[d]), {}});
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        names.push_back(grid.workloads[w].name);
        const exp::AxisPattern at =
            exp::AxisPattern().workload(w).variant(0);
        const double base = ticksAt(table, exp::AxisPattern(at).design(0));
        for (std::size_t d = 1; d < grid.designs.size(); ++d)
            series[d - 1].values.push_back(
                base / ticksAt(table, exp::AxisPattern(at).design(d)));
    }
    printTable(names, series);
    return 0;
}

} // namespace c3d::bench

#endif // C3DSIM_BENCH_SPEEDUP_COMMON_HH
