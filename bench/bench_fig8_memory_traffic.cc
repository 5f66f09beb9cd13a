/**
 * @file
 * Fig. 8: C3D memory traffic (reads / writes / total) normalized to
 * the baseline without DRAM caches, 4-socket, 1 GB DRAM cache.
 *
 * Paper shape: up to 98% of memory accesses removed (streamcluster),
 * 49% on average; remote reads drop by 70.9% on average (up to 99%);
 * writes unchanged (clean caches write through).
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
                "Fig. 8: C3D memory traffic normalized to baseline",
                "reads drop ~71% avg (up to 99%); writes ~1.0; total "
                "~0.51 avg");
    if (!br.ok())
        return br.exitCode();

    exp::SweepGrid grid;
    grid.workloads = parallelProfiles();
    grid.designs = {Design::Baseline, Design::C3D};
    grid = br.quickened(grid);

    const exp::ResultTable table = br.run(grid);
    if (br.emit(table))
        return 0;

    std::vector<std::string> names;
    Series reads{"reads", {}};
    Series writes{"writes", {}};
    Series total{"total", {}};
    Series remote_reads{"remote-reads", {}};

    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b)
                 : 1.0;
    };
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        names.push_back(grid.workloads[w].name);
        const exp::AxisPattern at =
            exp::AxisPattern().workload(w).variant(0);
        const exp::ResultRow *base =
            table.find(exp::AxisPattern(at).design(0));
        const exp::ResultRow *c3d =
            table.find(exp::AxisPattern(at).design(1));
        if (!base || !c3d)
            c3d_fatal("sweep table is missing an expected row");
        reads.values.push_back(
            ratio(c3d->metrics.memReads, base->metrics.memReads));
        writes.values.push_back(
            ratio(c3d->metrics.memWrites, base->metrics.memWrites));
        total.values.push_back(ratio(c3d->metrics.memAccesses(),
                                     base->metrics.memAccesses()));
        remote_reads.values.push_back(
            ratio(c3d->metrics.remoteMemReads,
                  base->metrics.remoteMemReads));
    }

    printTable(names, {reads, writes, total, remote_reads});
    std::printf("\npaper shape: reads far below 1.0 (streamcluster "
                "~0.02), writes ~=1.0, remote reads ~0.29 avg\n");
    return 0;
}
