/**
 * @file
 * Ablation studies of the design choices DESIGN.md calls out:
 *
 *  1. Clean vs dirty DRAM caches under the same (full) directory:
 *     isolates §IV-A's clean-cache insight from directory effects.
 *  2. Miss predictor: exact MissMap vs counting filter vs disabled.
 *  3. Mapping policy (INT / FT1 / FT2) on the C3D machine.
 *  4. Private vs shared DRAM-cache organization (§II-C), functional
 *     hit-rate comparison.
 *
 * Each study is one declarative grid on the sweep engine; under
 * --json the four result tables are concatenated (variant names
 * carry a study prefix).
 */

#include <cstdio>
#include <vector>

#include "bench_main.hh"
#include "cache/capacity_analyzer.hh"

namespace
{

using namespace c3d;
using namespace c3d::bench;

void
ablateCleanVsDirty(const BenchRun &br, exp::ResultTable &all)
{
    exp::SweepGrid grid;
    grid.workloads = {facesimProfile(), nutchProfile(),
                      streamclusterProfile()};
    grid.designs = {Design::Baseline, Design::FullDir,
                    Design::C3DFullDir};
    grid.variants = {{"clean-vs-dirty", nullptr}};
    grid = br.quickened(grid);

    const exp::ResultTable table = br.run(grid);
    all.append(table);
    if (br.jsonOnly())
        return;

    std::printf("\n--- ablation 1: clean (c3d-full-dir) vs dirty "
                "(full-dir) under a full directory ---\n");
    std::printf("%-16s %14s %14s %14s\n", "workload", "dirty(x)",
                "clean(x)", "clean adv.");
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const exp::AxisPattern at =
            exp::AxisPattern().workload(w).variant(0);
        const double base = ticksAt(table, exp::AxisPattern(at).design(0));
        const double sd =
            base / ticksAt(table, exp::AxisPattern(at).design(1));
        const double sc =
            base / ticksAt(table, exp::AxisPattern(at).design(2));
        std::printf("%-16s %14.3f %14.3f %13.1f%%\n",
                    grid.workloads[w].name.c_str(), sd, sc,
                    100.0 * (sc / sd - 1.0));
    }
}

void
ablateMissPredictor(const BenchRun &br, exp::ResultTable &all)
{
    // Two grids: the predictor variants only exist on the C3D
    // machine, and the no-DRAM-cache baseline reference would
    // otherwise be simulated once per variant for identical results.
    exp::SweepGrid ref;
    ref.workloads = {cannealProfile(), streamclusterProfile()};
    ref.designs = {Design::Baseline};
    ref.variants = {{"predictor=reference", nullptr}};
    ref = br.quickened(ref);

    exp::SweepGrid grid;
    grid.workloads = ref.workloads;
    grid.designs = {Design::C3D};
    grid.variants = {
        {"predictor=missmap", nullptr},
        {"predictor=counting",
         [](SystemConfig &c) { c.missPredictorExact = false; }},
        {"predictor=disabled",
         [](SystemConfig &c) { c.missPredictorEnabled = false; }},
    };
    grid = br.quickened(grid);

    const exp::ResultTable base_table = br.run(ref);
    const exp::ResultTable table = br.run(grid);
    all.append(base_table);
    all.append(table);
    if (br.jsonOnly())
        return;

    std::printf("\n--- ablation 2: DRAM-cache miss predictor ---\n");
    std::printf("%-16s %14s %14s %14s\n", "workload", "missmap(x)",
                "counting(x)", "disabled(x)");
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const exp::AxisPattern at = exp::AxisPattern().workload(w).design(0);
        const double base =
            ticksAt(base_table, exp::AxisPattern(at).variant(0));
        std::printf("%-16s %14.3f %14.3f %14.3f\n",
                    grid.workloads[w].name.c_str(),
                    base / ticksAt(table, exp::AxisPattern(at).variant(0)),
                    base / ticksAt(table, exp::AxisPattern(at).variant(1)),
                    base / ticksAt(table, exp::AxisPattern(at).variant(2)));
    }
}

void
ablateMappingPolicy(const BenchRun &br, exp::ResultTable &all)
{
    exp::SweepGrid grid;
    grid.workloads = {facesimProfile(), cassandraProfile()};
    grid.designs = {Design::C3D};
    grid.variants = {{"mapping-policy", nullptr}};
    grid.mappings = {MappingPolicy::Interleave,
                     MappingPolicy::FirstTouch1,
                     MappingPolicy::FirstTouch2};
    grid = br.quickened(grid);

    const exp::ResultTable table = br.run(grid);
    all.append(table);
    if (br.jsonOnly())
        return;

    std::printf("\n--- ablation 3: page placement policy under C3D "
                "---\n");
    std::printf("%-16s %14s %14s %14s\n", "workload", "INT ticks",
                "FT1 ticks", "FT2 ticks");
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        std::vector<double> ticks;
        for (std::size_t m = 0; m < grid.mappings.size(); ++m) {
            const exp::ResultRow *row =
                table.find(exp::AxisPattern().workload(w).mapping(m));
            if (!row)
                c3d_fatal("sweep table is missing an expected row");
            ticks.push_back(
                static_cast<double>(row->metrics.measuredTicks));
        }
        std::printf("%-16s %14.0f %14.0f %14.0f\n",
                    grid.workloads[w].name.c_str(), ticks[0],
                    ticks[1], ticks[2]);
    }
}

void
ablateSharedVsPrivate(const BenchRun &br, exp::ResultTable &all)
{
    exp::SweepGrid grid;
    grid.workloads = {streamclusterProfile(), cannealProfile(),
                      tunkrankProfile()};
    grid.designs = {Design::C3D};
    grid.variants = {{"dram-cache=private", nullptr},
                     {"dram-cache=shared", nullptr}};
    grid.measureOps = 200000;
    grid.warmupOps = 1; // unused by the functional replay
    grid = br.quickened(grid);

    // Functional replay against the (scaled) DRAM-cache capacity:
    // variant 1 pools all sockets' capacity into one shared cache.
    const auto replay = [](const exp::RunSpec &spec) {
        SyntheticWorkload wl(spec.profile.scaled(spec.scale),
                             spec.cfg.totalCores(),
                             spec.cfg.coresPerSocket);
        const CapacityResult r = analyzeCapacity(
            wl, spec.cfg.numSockets, spec.cfg.coresPerSocket,
            spec.cfg.dramCacheBytes, /*ways=*/1,
            /*shared=*/spec.variantIdx == 1, spec.measureOps);
        RunResult m;
        m.instructions = r.references;
        m.memReads = r.cacheMisses;
        m.llcMisses = r.cacheMisses;
        m.remoteMemReads = r.remoteMisses;
        return m;
    };

    const exp::ResultTable table = br.run(grid, replay);
    all.append(table);
    if (br.jsonOnly())
        return;

    std::printf("\n--- ablation 4: shared vs private DRAM-cache "
                "organization (functional, SII-C) ---\n");
    std::printf("%-16s %16s %16s %18s\n", "workload",
                "private miss%", "shared miss%", "private remote%");
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        const exp::AxisPattern at = exp::AxisPattern().workload(w);
        const exp::ResultRow *priv =
            table.find(exp::AxisPattern(at).variant(0));
        const exp::ResultRow *shared =
            table.find(exp::AxisPattern(at).variant(1));
        if (!priv || !shared)
            c3d_fatal("sweep table is missing an expected row");
        const auto miss_rate = [](const exp::ResultRow *r) {
            return r->metrics.instructions
                ? static_cast<double>(r->metrics.llcMisses) /
                    static_cast<double>(r->metrics.instructions)
                : 0.0;
        };
        std::printf("%-16s %15.1f%% %15.1f%% %17.1f%%\n",
                    priv->workload.c_str(), 100.0 * miss_rate(priv),
                    100.0 * miss_rate(shared),
                    priv->metrics.llcMisses
                        ? 100.0 *
                            static_cast<double>(
                                priv->metrics.remoteMemReads) /
                            static_cast<double>(
                                priv->metrics.llcMisses)
                        : 0.0);
    }
    std::printf("(shared pools capacity -> fewer misses, but every "
                "miss to a remote home still crosses sockets;\n"
                " private replicates -> slightly more misses, but "
                "local hits remove inter-socket trips: SII-C)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    BenchRun br(argc, argv,
                "Ablations: clean property, miss predictor, "
                "placement policy, shared-vs-private",
                "design-choice isolation studies (DESIGN.md 5)");
    if (!br.ok())
        return br.exitCode();

    exp::ResultTable all;
    ablateCleanVsDirty(br, all);
    ablateMissPredictor(br, all);
    ablateMappingPolicy(br, all);
    ablateSharedVsPrivate(br, all);
    br.emit(all);
    return 0;
}
