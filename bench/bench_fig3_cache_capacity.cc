/**
 * @file
 * Fig. 3: memory accesses as a function of LLC capacity, normalized
 * to a 16 MB LLC (functional cache model; the paper sweeps 64 MB,
 * 256 MB and 1 GB).
 *
 * The capacity points form a variant axis patching llcBytes; the
 * functional replay runs through the sweep engine with a custom run
 * function (no timing simulation), so the four capacity points of
 * each workload execute in parallel under --jobs.
 *
 * Paper: the 256 MB and 1 GB points eliminate 38.6-45.5% of memory
 * accesses on average -- the temporal locality DRAM caches can
 * capture lies beyond today's on-chip capacities.
 */

#include <cstdio>
#include <vector>

#include "bench_main.hh"
#include "cache/capacity_analyzer.hh"

int
main(int argc, char **argv)
{
    using namespace c3d;
    using namespace c3d::bench;

    BenchRun br(argc, argv,
                "Fig. 3: memory accesses vs cache capacity "
                "(normalized to 16 MB LLC)",
                "64MB/256MB/1GB caches remove up to ~45% of memory "
                "accesses on average");
    if (!br.ok())
        return br.exitCode();

    // Functional model: full-size footprints and capacities (scale
    // 1), since no timing is simulated. measureOps = references per
    // core replayed against the tag arrays.
    exp::SweepGrid grid;
    grid.workloads = parallelProfiles();
    grid.designs = {Design::Baseline};
    grid.scale = 1;
    grid.measureOps = 400000;
    grid.warmupOps = 1; // unused by the replay; avoid the auto quota
    const std::vector<std::uint64_t> sizes_mb = {16, 64, 256, 1024};
    for (const std::uint64_t mb : sizes_mb) {
        grid.variants.push_back(
            {std::to_string(mb) + "MB",
             [mb](SystemConfig &c) { c.llcBytes = mb << 20; }});
    }
    grid = br.quickened(grid);

    const auto replay = [](const exp::RunSpec &spec) {
        SyntheticWorkload wl(spec.profile.scaled(spec.scale),
                             spec.cfg.totalCores(),
                             spec.cfg.coresPerSocket);
        const CapacityResult r = analyzeCapacity(
            wl, spec.cfg.numSockets, spec.cfg.coresPerSocket,
            spec.cfg.llcBytes, spec.cfg.llcWays, /*shared=*/false,
            spec.measureOps);
        RunResult m;
        m.instructions = r.references;
        m.memReads = r.cacheMisses;
        m.llcMisses = r.cacheMisses;
        m.remoteMemReads = r.remoteMisses;
        return m;
    };

    const exp::ResultTable table = br.run(grid, replay);
    if (br.emit(table))
        return 0;

    std::vector<std::string> names;
    std::vector<Series> series;
    for (const exp::ConfigVariant &v : grid.variants)
        series.push_back({v.name, {}});
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        names.push_back(grid.workloads[w].name);
        const exp::AxisPattern at = exp::AxisPattern().workload(w);
        const exp::ResultRow *base =
            table.find(exp::AxisPattern(at).variant(0));
        const double base_misses = base
            ? static_cast<double>(base->metrics.llcMisses) : 0.0;
        for (std::size_t v = 0; v < grid.variants.size(); ++v) {
            const exp::ResultRow *row =
                table.find(exp::AxisPattern(at).variant(v));
            series[v].values.push_back(
                row && base_misses > 0
                    ? static_cast<double>(row->metrics.llcMisses) /
                        base_misses
                    : 1.0);
        }
    }
    printTable(names, series);
    std::printf("\npaper shape: monotone decrease; 1GB point around "
                "0.55-0.61 of the 16MB baseline on average\n");
    return 0;
}
