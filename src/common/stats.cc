#include "common/stats.hh"

#include <iomanip>

namespace c3d
{

void
Counter::init(StatGroup *group, std::string name, std::string desc)
{
    statName = std::move(name);
    statDesc = std::move(desc);
    if (group)
        group->addCounter(this);
}

void
Histogram::init(StatGroup *group, std::string name, std::string desc)
{
    statName = std::move(name);
    statDesc = std::move(desc);
    if (group)
        group->addHistogram(this);
}

std::uint64_t
Histogram::percentile(double p) const
{
    const std::uint64_t nsamples = count();
    const std::uint64_t vmin = min();
    const std::uint64_t vmax = max();
    if (nsamples == 0)
        return 0;
    if (p <= 0.0)
        return vmin;
    if (p >= 100.0)
        return vmax;

    // Rank of the requested percentile, 1-based (nearest-rank
    // definition): the smallest rank whose cumulative share of the
    // samples reaches p%. Computed without libm so every platform
    // agrees on the answer.
    std::uint64_t rank =
        static_cast<std::uint64_t>(p / 100.0 *
                                   static_cast<double>(nsamples));
    if (static_cast<double>(rank) * 100.0 <
        p * static_cast<double>(nsamples))
        ++rank;
    if (rank < 1)
        rank = 1;
    if (rank > nsamples)
        rank = nsamples;

    std::uint64_t seen = 0;
    for (unsigned b = 0; b < NumBuckets; ++b) {
        const std::uint64_t here = bucket(b);
        if (here == 0 || seen + here < rank) {
            seen += here;
            continue;
        }
        // Bucket b covers [2^(b-1), 2^b - 1] (bucket 0 is {0};
        // bucket 64 ends at the top of the range).
        // Interpolate by the rank's position within the bucket.
        if (b == 0)
            return vmin; // all-zero samples: min() == 0
        const std::uint64_t lo = std::uint64_t(1) << (b - 1);
        const std::uint64_t hi =
            b >= 64 ? ~std::uint64_t(0) : (std::uint64_t(1) << b) - 1;
        const std::uint64_t pos = rank - seen - 1; // 0-based in bucket
        std::uint64_t value = lo;
        if (here > 1)
            value = lo + (hi - lo) / (here - 1) * pos;
        if (value < vmin)
            value = vmin;
        if (value > vmax)
            value = vmax;
        return value;
    }
    return vmax; // unreachable: ranks always land in a bucket
}

std::uint64_t
StatGroup::valueOf(const std::string &name) const
{
    for (const auto *c : counters) {
        if (c->name() == name)
            return c->value();
    }
    c3d_panic("no counter named '%s' in stat group '%s'", name.c_str(),
              groupName.c_str());
}

bool
StatGroup::has(const std::string &name) const
{
    for (const auto *c : counters) {
        if (c->name() == name)
            return true;
    }
    return false;
}

std::uint64_t
StatGroup::sumMatching(const std::string &substring) const
{
    std::uint64_t sum = 0;
    for (const auto *c : counters) {
        if (c->name().find(substring) != std::string::npos)
            sum += c->value();
    }
    return sum;
}

const Histogram *
StatGroup::histogramOf(const std::string &name) const
{
    for (const auto *h : histograms) {
        if (h->name() == name)
            return h;
    }
    return nullptr;
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto *c : counters) {
        os << std::left << std::setw(48) << c->name() << " "
           << std::right << std::setw(16) << c->value();
        if (!c->desc().empty())
            os << "  # " << c->desc();
        os << "\n";
    }
}

} // namespace c3d
