#include "dramcache/dram_cache.hh"

#include <algorithm>

namespace c3d
{

// The slot word stores CacheState's own values in its low two bits.
static_assert(static_cast<int>(CacheState::Invalid) == 0 &&
                  static_cast<int>(CacheState::Shared) < 4 &&
                  static_cast<int>(CacheState::Modified) < 4,
              "slot word packs CacheState into two bits");

DramCache::DramCache(EventQueue &eq, const SystemConfig &cfg,
                     SocketId socket, StatGroup *stats)
    : eventq(eq),
      predictorEnabled(cfg.missPredictorEnabled),
      exactPredictor(cfg.missPredictorExact),
      predictorLatency(cfg.missPredictorLatency),
      accessLatency(cfg.dramCacheLatency),
      allowDirty(cfg.dirtyDramCache())
{
    const std::uint64_t frames =
        std::max<std::uint64_t>(cfg.dramCacheBytes / BlockBytes, 1);
    slots.assign(frames, 0);
    slotsArePow2 = (frames & (frames - 1)) == 0;
    slotMask = slotsArePow2 ? frames - 1 : 0;

    const std::string prefix =
        "socket" + std::to_string(socket) + ".dram_cache";

    predictor = makePresencePredictor(cfg);
    predictor->configure(cfg, stats, prefix + ".predictor");

    channels.resize(cfg.dramCacheChannels);
    const Bandwidth bw = Bandwidth::fromGBps(cfg.dramCacheChannelGBps);
    for (std::uint32_t i = 0; i < channels.size(); ++i) {
        channels[i].init(bw, stats,
                         prefix + ".ch" + std::to_string(i));
    }

    hits.init(stats, prefix + ".hits", "probes that found the block");
    misses.init(stats, prefix + ".misses", "probes that missed");
    inserts.init(stats, prefix + ".inserts", "victim-cache fills");
    writeUpdates.init(stats, prefix + ".write_updates",
                      "clean refreshes of resident blocks");
    invalidations.init(stats, prefix + ".invalidations",
                       "coherence invalidations applied");
    evictionsClean.init(stats, prefix + ".evictions_clean",
                        "clean blocks displaced");
    evictionsDirty.init(stats, prefix + ".evictions_dirty",
                        "dirty blocks displaced (writeback needed)");

    statsGroup = stats;
    statPrefix = prefix;
}

void
DramCache::enableTenantTracking(std::uint32_t tenants)
{
    c3d_assert(tenantBlocks.empty(), "tenant tracking enabled twice");
    tenantBlocks.assign(tenants, 0);
    owners.assign(slots.size(), 0);
    tenantHits = std::vector<Counter>(tenants);
    tenantMisses = std::vector<Counter>(tenants);
    for (std::uint32_t t = 0; t < tenants; ++t) {
        const std::string tp =
            statPrefix + ".tenant" + std::to_string(t);
        tenantHits[t].init(statsGroup, tp + ".hits",
                           "tenant probes that found the block");
        tenantMisses[t].init(statsGroup, tp + ".misses",
                             "tenant probes that missed");
    }
}

void
DramCache::countTenant(std::uint32_t tenant, bool hit)
{
    if (tenant == NoTenant || tenantBlocks.empty())
        return;
    if (hit)
        ++tenantHits[tenant];
    else
        ++tenantMisses[tenant];
}

std::uint64_t
DramCache::validBlocks() const
{
    return static_cast<std::uint64_t>(
        slots.size() - std::count(slots.begin(), slots.end(), 0));
}

void
DramCache::setOwner(std::size_t slot, std::uint32_t tenant)
{
    if (tenant == NoTenant || owners.empty())
        return;
    const std::uint32_t tag = tenant + 1;
    if (owners[slot] == tag)
        return;
    dropOwner(slot);
    owners[slot] = tag;
    ++tenantBlocks[tenant];
}

void
DramCache::dropOwner(std::size_t slot)
{
    if (owners.empty() || !owners[slot])
        return;
    --tenantBlocks[owners[slot] - 1];
    owners[slot] = 0;
}

Tick
DramCache::chargeChannel(Addr addr, Tick start)
{
    Channel &ch = channels[blockNumber(addr) % channels.size()];
    return ch.acquire(start, BurstBytes);
}

bool
DramCache::predictPresent(Addr addr, bool present)
{
    if (exactPredictor) {
        // MissMap mode: exact block-grain presence, never wrong in
        // either direction.
        predictor->recordExactQuery(present);
        return present;
    }
    return predictor->mayBePresent(addr);
}

DramCacheVictim
DramCache::fill(std::size_t slot, Addr addr, CacheState state)
{
    DramCacheVictim victim;
    if (const std::uint64_t old = slots[slot]) {
        victim.valid = true;
        victim.addr = (old >> 2) << BlockShift;
        victim.dirty = stateOf(old) == CacheState::Modified;
        if (victim.dirty)
            ++evictionsDirty;
        else
            ++evictionsClean;
        predictor->onRemove(victim.addr);
        dropOwner(slot);
    }
    slots[slot] = slotWord(blockNumber(addr), state);
    predictor->onInsert(addr);
    return victim;
}

void
DramCache::probe(Addr addr, Continuation<void(DramCacheProbe)> done,
                 bool always_access, std::uint32_t tenant)
{
    const Tick now = eventq.now();
    const Addr blk = blockNumber(addr);
    const std::size_t slot = slotOf(blk);
    const std::uint64_t word = slots[slot];
    const bool present = holds(word, blk);

    if (!always_access && predictorEnabled &&
        !predictPresent(addr, present)) {
        // Predicted absent: answer without a DRAM access. The
        // counting filter never reports absent for a present block,
        // so this path cannot hide data.
        ++misses;
        countTenant(tenant, false);
        predictor->trainOnProbe(addr, tenant, false);
        DramCacheProbe res;
        res.readyAt = now + predictorLatency;
        eventq.scheduleAt(res.readyAt,
                          [done = std::move(done), res] { done(res); });
        return;
    }

    const Tick access_start =
        now + (predictorEnabled ? predictorLatency : 0);
    const Tick ready = chargeChannel(addr, access_start + accessLatency);

    DramCacheProbe res;
    if (present) {
        ++hits;
        countTenant(tenant, true);
        setOwner(slot, tenant);
        res.present = true;
        res.dirty = stateOf(word) == CacheState::Modified;
    } else {
        ++misses;
        countTenant(tenant, false);
        if (predictorEnabled && !exactPredictor)
            predictor->recordFalsePresent();
    }
    // Demand probes are the admission gate's training stream; remote
    // snoops (always_access) say nothing about local reuse.
    if (!always_access)
        predictor->trainOnProbe(addr, tenant, present);
    res.readyAt = ready;
    eventq.scheduleAt(ready, [done = std::move(done), res] { done(res); });
}

DramCacheVictim
DramCache::insert(Addr addr, bool dirty, std::uint32_t tenant)
{
    c3d_assert(!dirty || allowDirty,
               "dirty insert into a clean DRAM cache");

    DramCacheVictim victim;
    const Addr blk = blockNumber(addr);
    const std::size_t slot = slotOf(blk);
    const bool was_present = holds(slots[slot], blk);
    // Admission gate (docs/predictors.md): a clean fill the predictor
    // rejects never touches DRAM -- no channel traffic, no victim.
    // Dirty victims are always admitted (the dirty designs rely on
    // the cache to hold modified data), and a block already resident
    // is an in-place update, not an admission decision.
    if (!was_present && !dirty && !predictor->admit(addr, tenant))
        return victim;
    ++inserts;

    // The fill write occupies a channel but nobody waits for it.
    chargeChannel(addr, eventq.now() + accessLatency);

    const CacheState new_state =
        dirty ? CacheState::Modified : CacheState::Shared;

    if (was_present)
        slots[slot] = slotWord(blk, new_state);
    else
        victim = fill(slot, addr, new_state);
    // A fresh fill starts unowned; an in-place update keeps its owner
    // unless the insert names one.
    setOwner(slot, tenant);
    return victim;
}

void
DramCache::invalidate(Addr addr, InvalidateDone done)
{
    const Tick now = eventq.now();
    const Addr blk = blockNumber(addr);
    const std::size_t slot = slotOf(blk);
    const std::uint64_t word = slots[slot];
    const bool present = holds(word, blk);

    if (predictorEnabled && !predictPresent(addr, present)) {
        eventq.scheduleAt(now + predictorLatency,
                          [done = std::move(done)] { done(false, false); });
        return;
    }

    const Tick access_start =
        now + (predictorEnabled ? predictorLatency : 0);

    bool dirty = false;
    if (present) {
        dirty = stateOf(word) == CacheState::Modified;
        dropOwner(slot);
        slots[slot] = 0;
        predictor->onRemove(addr);
        ++invalidations;
    } else if (predictorEnabled && !exactPredictor) {
        predictor->recordFalsePresent();
    }
    // §III-A: invalidating a (possibly) present block requires the
    // DRAM access -- to check dirtiness and clear the tag.
    const Tick ready = chargeChannel(addr, access_start + accessLatency);
    eventq.scheduleAt(ready,
                      [done = std::move(done), present, dirty] {
                          done(present, dirty);
                      });
}

DramCacheVictim
DramCache::updateClean(Addr addr, std::uint32_t tenant)
{
    const Addr blk = blockNumber(addr);
    const std::size_t slot = slotOf(blk);

    if (holds(slots[slot], blk)) {
        chargeChannel(addr, eventq.now() + accessLatency);
        ++writeUpdates;
        slots[slot] = slotWord(blk, CacheState::Shared);
        setOwner(slot, tenant);
        return {};
    }

    // The insert-if-absent branch is a clean fill like any other and
    // passes through the same admission gate.
    if (!predictor->admit(addr, tenant))
        return {};
    chargeChannel(addr, eventq.now() + accessLatency);

    ++inserts;
    const DramCacheVictim victim =
        fill(slot, addr, CacheState::Shared);
    setOwner(slot, tenant);
    return victim;
}

} // namespace c3d
