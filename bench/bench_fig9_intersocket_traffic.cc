/**
 * @file
 * Fig. 9: inter-socket traffic of every design normalized to the
 * baseline, 4-socket machine.
 *
 * Paper shape: c3d carries ~35.9% less traffic than baseline and
 * only ~5% more than full-dir / c3d-full-dir; snoopy carries much
 * more (broadcast probes on every miss); c3d even beats full-dir on
 * some workloads (e.g. facesim) because dirty remote hits cost
 * full-dir extra data forwarding.
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
                "Fig. 9: inter-socket traffic normalized to baseline",
                "c3d ~0.64x of baseline, ~5% above full-dir; snoopy "
                "well above 1x");
    if (!br.ok())
        return br.exitCode();

    exp::SweepGrid grid;
    grid.workloads = parallelProfiles();
    grid.designs = {Design::Baseline, Design::Snoopy, Design::FullDir,
                    Design::C3D, Design::C3DFullDir};
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
        const exp::ResultRow *base =
            table.find(exp::AxisPattern(at).design(0));
        if (!base)
            c3d_fatal("sweep table is missing an expected row");
        for (std::size_t d = 1; d < grid.designs.size(); ++d) {
            const exp::ResultRow *row =
                table.find(exp::AxisPattern(at).design(d));
            if (!row)
                c3d_fatal("sweep table is missing an expected row");
            series[d - 1].values.push_back(
                base->metrics.interSocketBytes
                    ? static_cast<double>(
                          row->metrics.interSocketBytes) /
                        static_cast<double>(
                            base->metrics.interSocketBytes)
                    : 1.0);
        }
    }

    printTable(names, series);
    return 0;
}
