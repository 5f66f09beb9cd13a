/**
 * @file
 * §VI-C: reducing broadcast traffic with TLB private/shared page
 * classification.
 *
 * Paper shape: for the parallel workloads ~5% of broadcasts are
 * filtered and the overall traffic change is negligible (<0.1%); for
 * single-threaded mcf, whose write working set exceeds the LLC, the
 * classification removes essentially all write-related broadcast
 * traffic -- useful but non-essential.
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
                "SVI-C: TLB page classification vs C3D broadcasts",
                "parallel workloads: ~5% of broadcasts elided, "
                "<0.1% traffic change; mcf: ~all broadcasts elided");
    if (!br.ok())
        return br.exitCode();

    exp::SweepGrid grid;
    grid.workloads = parallelProfiles();
    grid.workloads.push_back(mcfProfile());
    grid.designs = {Design::C3D};
    grid.variants = {
        {"base", nullptr},
        {"tlb",
         [](SystemConfig &c) { c.tlbPageClassification = true; }},
    };
    grid = br.quickened(grid);
    if (br.isQuick()) {
        // Keep single-threaded mcf -- the workload the headline
        // claim is about -- instead of the default first-two trim.
        grid.workloads = {facesimProfile(), mcfProfile()};
    }

    const exp::ResultTable table = br.run(grid);
    if (br.emit(table))
        return 0;

    std::printf("%-16s %12s %12s %10s %12s\n", "workload",
                "bcast base", "bcast +tlb", "elided%", "noc delta%");
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const exp::AxisPattern at = exp::AxisPattern().workload(w);
        const exp::ResultRow *base =
            table.find(exp::AxisPattern(at).variant(0));
        const exp::ResultRow *tlb =
            table.find(exp::AxisPattern(at).variant(1));
        if (!base || !tlb)
            c3d_fatal("sweep table is missing an expected row");

        const std::uint64_t total_write_misses =
            tlb->metrics.broadcasts + tlb->metrics.broadcastsElided;
        const double elided_pct = total_write_misses
            ? 100.0 *
                static_cast<double>(tlb->metrics.broadcastsElided) /
                static_cast<double>(total_write_misses)
            : 0.0;
        const double noc_delta = base->metrics.interSocketBytes
            ? 100.0 *
                (static_cast<double>(tlb->metrics.interSocketBytes) /
                     static_cast<double>(
                         base->metrics.interSocketBytes) -
                 1.0)
            : 0.0;
        std::printf("%-16s %12llu %12llu %9.1f%% %11.2f%%\n",
                    base->workload.c_str(),
                    static_cast<unsigned long long>(
                        base->metrics.broadcasts),
                    static_cast<unsigned long long>(
                        tlb->metrics.broadcasts),
                    elided_pct, noc_delta);
    }
    return 0;
}
