#include "workload/composed_workload.hh"

#include <algorithm>

#include "common/hash.hh"
#include "common/log.hh"
#include "common/rng.hh"

namespace c3d
{

namespace
{

std::uint32_t
clampGap(std::uint64_t delay)
{
    return delay > 0xFFFFFFFFull ? 0xFFFFFFFFu
                                 : static_cast<std::uint32_t>(delay);
}

std::uint64_t
foldU64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        h = fnv1aByte(h, static_cast<unsigned char>(v >> (8 * i)));
    return h;
}

/**
 * Discrete Poisson-process arrival: the delay to each core's first
 * reference is geometric with mean ~@p mean (failures before success
 * at p = 1/mean), drawn from an Rng seeded by (seed, tenant, core)
 * so it is reproducible and independent of everything the simulator
 * does. Capped at 16x the mean -- the tail of a geometric past that
 * point carries ~1e-7 of the mass and a bound keeps worst-case
 * construction cost and warm-up skew predictable.
 */
std::uint64_t
poissonDelay(std::uint64_t seed, std::uint32_t tenant,
             std::uint32_t core, std::uint64_t mean)
{
    if (mean == 0)
        return 0;
    std::uint64_t h = Fnv1aOffset;
    h = foldU64(h, seed);
    h = foldU64(h, tenant);
    h = foldU64(h, core);
    Rng rng(h);
    const double p = 1.0 / static_cast<double>(mean);
    const std::uint64_t cap = 16 * mean;
    std::uint64_t delay = 0;
    while (delay < cap && !rng.chance(p))
        ++delay;
    return delay;
}

} // namespace

ComposedWorkload::ComposedWorkload(const CompositionSpec &spec,
                                   std::uint64_t seed,
                                   std::uint32_t total_cores)
{
    c3d_assert(!spec.tenants.empty(), "composition without tenants");
    workloadName = compositionWorkloadName(spec.manifestPath,
                                           compositionHashOf(spec));

    members.reserve(spec.tenants.size());
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
        auto m = std::make_unique<Member>();
        m->spec = spec.tenants[i];
        std::string error;
        if (!m->reader.open(m->spec.tracePath, error,
                            &m->spec.traceHash))
            c3d_panic("composition '%s': %s",
                      spec.manifestPath.c_str(), error.c_str());
        // "t<idx>:<basename>@<hash8>": reuse the trace naming rule,
        // swapping its "trace:" prefix for the tenant index.
        m->label = "t" + std::to_string(i) + ":" +
            traceWorkloadName(m->spec.tracePath, m->spec.traceHash)
                .substr(6);
        members.push_back(std::move(m));
    }

    // Bind lanes to cores. Each (tenant, lane) pair is bound to AT
    // MOST one core: sharing a streaming lane between two cores
    // would make each core's stream depend on their call
    // interleaving -- timing-dependent, breaking determinism.
    slots.assign(total_cores, Slot{});
    coreTenant.assign(total_cores, -1);
    const auto num_tenants =
        static_cast<std::uint32_t>(members.size());
    if (spec.assignment == AssignPolicy::Block) {
        std::uint32_t c = 0;
        for (std::uint32_t i = 0;
             i < num_tenants && c < total_cores; ++i) {
            const std::uint32_t lanes = members[i]->reader.numCores();
            for (std::uint32_t l = 0;
                 l < lanes && c < total_cores; ++l, ++c) {
                slots[c].tenant = static_cast<std::int32_t>(i);
                slots[c].lane = l;
                coreTenant[c] = static_cast<std::int32_t>(i);
            }
        }
        active = c;
    } else {
        std::uint32_t min_lanes = ~std::uint32_t(0);
        for (const auto &m : members)
            min_lanes = std::min(min_lanes, m->reader.numCores());
        active = std::min(total_cores, num_tenants * min_lanes);
        for (std::uint32_t c = 0; c < active; ++c) {
            slots[c].tenant =
                static_cast<std::int32_t>(c % num_tenants);
            slots[c].lane = c / num_tenants;
            coreTenant[c] = slots[c].tenant;
        }
    }

    for (std::uint32_t c = 0; c < active; ++c) {
        Slot &slot = slots[c];
        const auto tenant =
            static_cast<std::uint32_t>(slot.tenant);
        std::uint64_t delay = 0;
        switch (spec.arrival) {
          case ArrivalProcess::Fixed:
            break;
          case ArrivalProcess::Staggered:
            delay = static_cast<std::uint64_t>(tenant) *
                spec.staggerGap;
            break;
          case ArrivalProcess::Poisson:
            delay = poissonDelay(seed, tenant, c,
                                 spec.arrivalMeanGap);
            break;
        }
        slot.initialGap = clampGap(delay);
    }
}

TraceOp
ComposedWorkload::next(CoreId core)
{
    c3d_assert(core < slots.size() && slots[core].tenant >= 0,
               "composed workload driven on an unbound core");
    Slot &slot = slots[core];
    Member &m = *members[static_cast<std::size_t>(slot.tenant)];

    // Phase boundary: jump forward in the tenant's trace by
    // discarding records. Skipped records do not count as ops, so
    // the boundary fires exactly once per period.
    const std::uint64_t period = m.spec.phasePeriodOps;
    if (period && slot.ops > 0 && slot.ops % period == 0) {
        for (std::uint64_t i = 0; i < m.spec.phaseSkipOps; ++i)
            m.reader.next(slot.lane);
    }

    TraceOp op = m.reader.next(slot.lane);
    if (slot.ops == 0 && slot.initialGap) {
        // The arrival delay is extra compute before the core's first
        // reference -- stream-encoded, never scheduled.
        op.gap = clampGap(static_cast<std::uint64_t>(op.gap) +
                          slot.initialGap);
    }
    ++slot.ops;
    return op;
}

std::uint32_t
ComposedWorkload::activeCores(std::uint32_t total) const
{
    return std::min(total, active);
}

std::vector<std::string>
ComposedWorkload::tenantNames() const
{
    std::vector<std::string> names;
    names.reserve(members.size());
    for (const auto &m : members)
        names.push_back(m->label);
    return names;
}

} // namespace c3d
