/**
 * @file
 * Fig. 11: sensitivity to inter-socket hop latency (5/10/20/30 ns).
 *
 * Paper shape: C3D's speedup grows with inter-socket latency (more
 * NUMA pain to remove) but stays >=1.10x even at an unrealistically
 * fast 5 ns; c3d beats full-dir and snoopy at every point.
 */

#include <cstdio>
#include <vector>

#include "bench_main.hh"

int
main(int argc, char **argv)
{
    using namespace c3d;
    using namespace c3d::bench;

    BenchRun br(argc, argv,
                "Fig. 11: speedup vs inter-socket hop latency "
                "(5/10/20/30 ns, geomean)",
                "c3d >=1.10x even at 5ns; gains grow with latency; "
                "c3d on top throughout");
    if (!br.ok())
        return br.exitCode();

    // Hop latency applies to every design including the baseline, so
    // each variant's speedups are computed against the baseline run
    // of the same variant.
    exp::SweepGrid grid;
    grid.workloads = {facesimProfile(), streamclusterProfile(),
                      cannealProfile(), nutchProfile()};
    grid.designs = {Design::Baseline, Design::Snoopy, Design::FullDir,
                    Design::C3D};
    const std::vector<std::uint64_t> lat_ns = {5, 10, 20, 30};
    for (const std::uint64_t ns : lat_ns) {
        grid.variants.push_back(
            {std::to_string(ns) + "ns" + (ns == 20 ? " (default)" : ""),
             [ns](SystemConfig &c) { c.hopLatency = nsToTicks(ns); }});
    }
    grid = br.quickened(grid);

    const exp::ResultTable table = br.run(grid);
    if (br.emit(table))
        return 0;

    std::vector<std::string> rows;
    std::vector<Series> series;
    for (std::size_t d = 1; d < grid.designs.size(); ++d)
        series.push_back({designName(grid.designs[d]), {}});
    for (std::size_t v = 0; v < grid.variants.size(); ++v) {
        rows.push_back(grid.variants[v].name);
        for (std::size_t d = 1; d < grid.designs.size(); ++d) {
            std::vector<double> speedups;
            for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
                const exp::AxisPattern at =
                    exp::AxisPattern().workload(w).variant(v);
                speedups.push_back(
                    ticksAt(table, exp::AxisPattern(at).design(0)) /
                    ticksAt(table, exp::AxisPattern(at).design(d)));
            }
            series[d - 1].values.push_back(geomean(speedups));
        }
    }

    printTable(rows, series);
    return 0;
}
