/**
 * @file
 * TLB/page-table private-vs-shared page classification (§IV-D).
 *
 * Page-table entries are extended with an owner core id and a
 * classification bit. The first access classifies the page private to
 * the touching thread; a later access by a different thread
 * re-classifies it shared (one-way transition; we do not model thread
 * migration, the other mismatch cause in the paper). C3D consults the
 * classification on write misses: a GetX to a private page may skip
 * the invalidation broadcast.
 */

#ifndef C3DSIM_MAPPING_PAGE_CLASSIFIER_HH
#define C3DSIM_MAPPING_PAGE_CLASSIFIER_HH

#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/flat_map.hh"

namespace c3d
{

/** Per-page private/shared tracking. */
class PageClassifier
{
  public:
    explicit PageClassifier(StatGroup *stats)
    {
        classifiedPrivate.init(stats, "classifier.private_pages",
                               "pages first-classified private");
        reclassified.init(stats, "classifier.reclassified",
                          "private->shared transitions");
        trapCount.init(stats, "classifier.traps",
                       "OS traps (first touch or reclassification)");
    }

    /**
     * Record an access by @p core and return whether the page is
     * currently private to the accessor.
     * @param trapped set when the access took an OS trap (first touch
     *        or private->shared transition), which costs the core
     *        the configured trap penalty.
     */
    bool
    accessAndClassify(Addr addr, CoreId core, bool &trapped)
    {
        trapped = false;
        auto [slot, first_touch] = table.tryEmplace(
            pageNumber(addr), Entry{core, /*shared=*/false});
        if (first_touch) {
            ++classifiedPrivate;
            ++trapCount;
            trapped = true;
            return true;
        }
        Entry &e = *slot;
        if (e.shared)
            return false;
        if (e.owner == core)
            return true;
        // Active sharing: private -> shared, trapping the owner to
        // flush pending writes (§IV-D). No shootdown needed.
        e.shared = true;
        ++reclassified;
        ++trapCount;
        trapped = true;
        return false;
    }

    /** Classification only, without recording an access. */
    bool
    isPrivateTo(Addr addr, CoreId core) const
    {
        const Entry *e = table.find(pageNumber(addr));
        return e && !e->shared && e->owner == core;
    }

    std::uint64_t privatePages() const
    {
        return classifiedPrivate.value() - reclassified.value();
    }
    std::uint64_t reclassifications() const
    {
        return reclassified.value();
    }

  private:
    struct Entry
    {
        CoreId owner;
        bool shared;
    };

    FlatMap<Addr, Entry> table;
    Counter classifiedPrivate;
    Counter reclassified;
    Counter trapCount;
};

} // namespace c3d

#endif // C3DSIM_MAPPING_PAGE_CLASSIFIER_HH
