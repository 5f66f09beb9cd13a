/**
 * @file
 * Fig. 2: NUMA bottleneck analysis. Speedup of idealized machines
 * over the 4-socket baseline: zero inter-socket latency, infinite
 * memory bandwidth, infinite QPI bandwidth, and both-infinite.
 *
 * Paper: 0-QPI-latency delivers 14-60% speedups; the bandwidth
 * idealizations deliver little -- latency, not bandwidth, is the
 * bottleneck.
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
                "Fig. 2: NUMA bottleneck analysis (baseline machine "
                "idealizations)",
                "zero-QPI-latency speeds up 14-60%; infinite "
                "bandwidth barely helps");
    if (!br.ok())
        return br.exitCode();

    exp::SweepGrid grid;
    grid.workloads = parallelProfiles();
    grid.designs = {Design::Baseline};
    grid.variants = {
        {"base", nullptr},
        {"0_qpi_lat", [](SystemConfig &c) { c.zeroHopLatency = true; }},
        {"inf_mem_bw",
         [](SystemConfig &c) { c.infiniteMemBandwidth = true; }},
        {"inf_qpi_bw",
         [](SystemConfig &c) { c.infiniteLinkBandwidth = true; }},
        {"inf_both",
         [](SystemConfig &c) {
             c.infiniteMemBandwidth = true;
             c.infiniteLinkBandwidth = true;
         }},
    };
    grid = br.quickened(grid);

    const exp::ResultTable table = br.run(grid);
    if (br.emit(table))
        return 0;

    std::vector<std::string> names;
    std::vector<Series> series;
    for (std::size_t v = 1; v < grid.variants.size(); ++v)
        series.push_back({grid.variants[v].name, {}});
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        names.push_back(grid.workloads[w].name);
        const exp::AxisPattern at = exp::AxisPattern().workload(w);
        const double base = ticksAt(table, exp::AxisPattern(at).variant(0));
        for (std::size_t v = 1; v < grid.variants.size(); ++v)
            series[v - 1].values.push_back(
                base / ticksAt(table, exp::AxisPattern(at).variant(v)));
    }
    printTable(names, series);
    std::printf("\npaper shape: 0_qpi_lat in 1.14-1.60x; bandwidth "
                "columns near 1.0x\n");
    return 0;
}
