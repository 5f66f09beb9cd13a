#include "sim/socket.hh"

#include "coherence/protocol.hh"

namespace c3d
{

Socket::Socket(EventQueue &eq, const SystemConfig &cfg, SocketId id,
               StatGroup *stats)
    : eventq(eq), cfg(cfg), socketId(id),
      mem(eq, cfg, id, stats)
{
    l1s.resize(cfg.coresPerSocket);
    for (auto &l1 : l1s)
        l1.init(cfg.l1Bytes, cfg.l1Ways);
    llc.init(cfg.llcBytes, cfg.llcWays);

    if (cfg.designUsesDramCache())
        dcache = std::make_unique<DramCache>(eq, cfg, id, stats);

    const std::string prefix = "socket" + std::to_string(id);
    loads.init(stats, prefix + ".loads", "loads issued to this socket");
    stores.init(stats, prefix + ".stores", "stores issued");
    l1HitCount.init(stats, prefix + ".l1_hits", "L1 hits");
    l1MissCount.init(stats, prefix + ".l1_misses", "L1 misses");
    llcHitCount.init(stats, prefix + ".llc_hits", "LLC hits");
    llcMissCount.init(stats, prefix + ".llc_misses", "LLC misses");
    mergedReads.init(stats, prefix + ".merged_reads",
                     "read misses merged into an outstanding GetS");
    upgradesIssued.init(stats, prefix + ".upgrades", "Upgrade requests");
    getXIssued.init(stats, prefix + ".getx", "GetX requests");
    getSIssued.init(stats, prefix + ".gets", "GetS requests");
    loadLatency.init(stats, prefix + ".load_latency",
                     "load completion latency (ticks)");
    storeLatency.init(stats, prefix + ".store_latency",
                      "store write-permission latency (ticks)");
}

// --------------------------------------------------------------------
// CPU-facing path
// --------------------------------------------------------------------

void
Socket::finishLoad(std::uint32_t core, Tick start,
                   const Continuation<void()> &done)
{
    const Tick lat = eventq.now() - start;
    loadLatency.sample(lat);
    if (TenantStatSet *t = tenantFor(core))
        t->memLatency.sample(lat);
    done();
}

void
Socket::finishStore(std::uint32_t core, Tick start,
                    const Continuation<void()> &done)
{
    const Tick lat = eventq.now() - start;
    storeLatency.sample(lat);
    if (TenantStatSet *t = tenantFor(core))
        t->memLatency.sample(lat);
    done();
}

void
Socket::load(std::uint32_t core, Addr addr, Continuation<void()> done)
{
    ++loads;
    if (TenantStatSet *t = tenantFor(core))
        ++t->loads;
    const Addr blk = blockAlign(addr);
    const Tick start = eventq.now();

    TagArray &l1 = l1s[core];
    if (TagEntry *e = l1.find(blk)) {
        ++l1HitCount;
        l1.touch(e);
        eventq.schedule(cfg.l1Latency,
                        [this, core, start, done = std::move(done)] {
            finishLoad(core, start, done);
        });
        return;
    }
    ++l1MissCount;
    eventq.schedule(cfg.l1Latency, [this, core, blk, start,
                                    done = std::move(done)]() mutable {
        accessLlcForRead(core, blk, start, std::move(done));
    });
}

void
Socket::accessLlcForRead(std::uint32_t core, Addr blk, Tick start,
                         Continuation<void()> done)
{
    if (TagEntry *e = llc.find(blk)) {
        ++llcHitCount;
        llc.touch(e);
        e->aux |= (1ull << core);
        const CacheState l1_state = e->state == CacheState::Modified &&
            e->aux == (1ull << core)
            ? CacheState::Modified : CacheState::Shared;
        // Data hit: tag + data access.
        eventq.schedule(cfg.llcTagLatency + cfg.llcDataLatency,
                        [this, core, l1_state, blk, start,
                         done = std::move(done)] {
            // Install into the L1 as Shared unless this core is the
            // sole owner of a Modified block.
            fillL1(core, blk,
                   l1_state == CacheState::Modified
                   ? CacheState::Modified : CacheState::Shared);
            finishLoad(core, start, done);
        });
        return;
    }

    ++llcMissCount;
    // Tag miss known after the tag access; the DRAM-cache probe then
    // reads the block's slot word.
    if (dcache)
        dcache->prefetch(blk);
    eventq.schedule(cfg.llcTagLatency, [this, core, blk, start,
                                        done = std::move(done)]() mutable {
        if (dcache) {
            // The tenant tag rides into the cache so hits/misses are
            // counted exactly where the cache's own counters tick
            // (exact attribution even under racing invalidations).
            dcache->probe(blk, [this, core, blk, start,
                                done = std::move(done)]
                          (DramCacheProbe res) mutable {
                // Re-validate at fill time: an invalidation may have
                // raced with the probe (the in-flight access is
                // squashed, as a transient MSHR state would).
                if (res.present && dcache->contains(blk)) {
                    // Local DRAM-cache hit: the fast path that makes
                    // private DRAM caches attack the NUMA bottleneck.
                    fillRead(core, blk);
                    finishLoad(core, start, done);
                } else {
                    issueGetS(core, blk, start, std::move(done));
                }
            }, /*always_access=*/false, tenantIdxFor(core));
        } else {
            issueGetS(core, blk, start, std::move(done));
        }
    });
}

void
Socket::issueGetS(std::uint32_t core, Addr blk, Tick start,
                  Continuation<void()> done)
{
    if (PendingRead *outstanding = pendingReads.find(blk)) {
        // Merge with the outstanding GetS (MSHR hit).
        ++mergedReads;
        outstanding->merged.push_back({core, start, std::move(done)});
        return;
    }

    ++getSIssued;
    pendingReads[blk].primary = {core, start, std::move(done)};
    protocol->getS(socketId, blk, [this, blk] {
        PendingRead pending = std::move(*pendingReads.find(blk));
        pendingReads.erase(blk);
        // A racing invalidation poisoned the fill: the loads still
        // complete with the pre-write value, but nothing is cached.
        const PendingRead::Waiter &first = pending.primary;
        if (!pending.poisoned)
            fillRead(first.core, blk);
        finishLoad(first.core, first.start, first.done);
        for (const PendingRead::Waiter &w : pending.merged) {
            // The primary requester filled the LLC unless the fill
            // was squashed by a racing invalidation.
            if (llc.find(blk))
                fillL1(w.core, blk, CacheState::Shared);
            finishLoad(w.core, w.start, w.done);
        }
    });
}

void
Socket::store(std::uint32_t core, Addr addr, bool private_page,
              Continuation<void()> done)
{
    ++stores;
    if (TenantStatSet *t = tenantFor(core))
        ++t->stores;
    const Addr blk = blockAlign(addr);
    const Tick start = eventq.now();

    TagArray &l1 = l1s[core];
    if (TagEntry *e = l1.find(blk);
        e && e->state == CacheState::Modified) {
        l1.touch(e);
        eventq.schedule(cfg.l1Latency,
                        [this, core, start, done = std::move(done)] {
            finishStore(core, start, done);
        });
        return;
    }

    // Need the LLC's view (local directory, 7-cycle embedded tag).
    // The capture order packs the bool into core's padding.
    eventq.schedule(cfg.l1Latency + cfg.localDirLatency,
                    [this, core, private_page, blk, start,
                     done = std::move(done)]() mutable {
        TagEntry *e = llc.find(blk);
        if (e && e->state == CacheState::Modified) {
            // Socket already owns the block: invalidate sibling L1
            // copies via the local directory and take it Modified.
            llc.touch(e);
            invalidateL1Sharers(blk, e->aux,
                                static_cast<std::int32_t>(core));
            e->aux = (1ull << core);
            fillL1(core, blk, CacheState::Modified);
            eventq.schedule(cfg.llcDataLatency,
                            [this, core, start, done = std::move(done)] {
                finishStore(core, start, done);
            });
            return;
        }
        const bool upgrade = e && e->state == CacheState::Shared;
        issueGetX(core, blk, upgrade, private_page, start,
                  std::move(done));
    });
}

void
Socket::issueGetX(std::uint32_t core, Addr blk, bool upgrade,
                  bool private_page, Tick start,
                  Continuation<void()> done)
{
    if (upgrade)
        ++upgradesIssued;
    else
        ++getXIssued;

    protocol->getX(socketId, blk, upgrade, private_page,
                   [this, core, blk, start, done = std::move(done)] {
        fillWrite(core, blk);
        // The local DRAM cache may hold a now-stale clean copy of the
        // block; kill it off the critical path.
        if (dcache && dcache->contains(blk)) {
            dcache->invalidate(blk, [](bool, bool) {});
        }
        finishStore(core, start, done);
    });
}

// --------------------------------------------------------------------
// Fills and evictions
// --------------------------------------------------------------------

void
Socket::fillL1(std::uint32_t core, Addr blk, CacheState state)
{
    TagArray &l1 = l1s[core];
    AllocResult ar = l1.allocate(blk, state);
    if (ar.evictedValid) {
        // L1 victim: the inclusive LLC absorbs dirty data.
        if (TagEntry *le = llc.find(ar.victimAddr)) {
            if (ar.victimState == CacheState::Modified)
                le->state = CacheState::Modified;
            le->aux &= ~(1ull << core);
        }
    }
}

void
Socket::fillRead(std::uint32_t core, Addr blk)
{
    if (watchingBlock(blk))
        watchTrace(eventq.now(), "fillRead", "socket %u core %u",
                   socketId, core);
    AllocResult ar = llc.allocate(blk, CacheState::Shared);
    if (ar.evictedValid)
        handleLlcVictim(ar.victimAddr, ar.victimState, ar.victimAux);
    ar.entry->aux = (1ull << core);
    fillL1(core, blk, CacheState::Shared);
}

void
Socket::fillWrite(std::uint32_t core, Addr blk)
{
    if (watchingBlock(blk))
        watchTrace(eventq.now(), "fillWrite", "socket %u core %u",
                   socketId, core);
    if (TagEntry *e = llc.find(blk)) {
        e->state = CacheState::Modified;
        llc.touch(e);
        invalidateL1Sharers(blk, e->aux,
                            static_cast<std::int32_t>(core));
        e->aux = (1ull << core);
    } else {
        AllocResult ar = llc.allocate(blk, CacheState::Modified);
        if (ar.evictedValid)
            handleLlcVictim(ar.victimAddr, ar.victimState,
                            ar.victimAux);
        ar.entry->aux = (1ull << core);
    }
    fillL1(core, blk, CacheState::Modified);
}

void
Socket::handleLlcVictim(Addr victim, CacheState state,
                        std::uint64_t l1_sharers)
{
    if (watchingBlock(victim))
        watchTrace(eventq.now(), "llcVictim", "socket %u state %d",
                   socketId, static_cast<int>(state));
    // Inclusive LLC: back-invalidate any L1 copies; a dirty L1 copy
    // folds into the victim's dirtiness.
    bool dirty = state == CacheState::Modified;
    for (std::uint32_t c = 0; c < l1s.size(); ++c) {
        if ((l1_sharers >> c) & 1) {
            if (TagEntry *e = l1s[c].find(victim)) {
                if (e->state == CacheState::Modified)
                    dirty = true;
                l1s[c].invalidate(victim);
            }
        }
    }

    if (dcache) {
        // Victim caching (§II-C): the LLC victim sinks into the DRAM
        // cache. Clean designs insert clean and write dirty data
        // through to memory (§IV-A); dirty designs let the dirty
        // block live in the DRAM cache. A victim with an invalidation
        // probe in flight is dying: the insert is squashed (dirty
        // data still reaches memory through a writeback).
        if (!invInFlight.contains(victim)) {
            const bool insert_dirty = dirty && cfg.dirtyDramCache();
            DramCacheVictim dv = dcache->insert(victim, insert_dirty);
            if (dv.valid)
                protocol->dramCacheEvicted(socketId, dv.addr,
                                           dv.dirty);
        } else if (dirty && cfg.dirtyDramCache()) {
            // The dirty block cannot sink into the DRAM cache; fall
            // back to a plain memory writeback so the data survives.
            protocol->putX(socketId, victim);
        }
        if (dirty && cfg.cleanDramCache())
            protocol->putX(socketId, victim);
    } else if (dirty) {
        // Baseline: plain writeback to the home memory.
        protocol->putX(socketId, victim);
    }
}

CacheState
Socket::invalidateOnChip(Addr addr)
{
    const Addr blk = blockAlign(addr);
    if (watchingBlock(blk))
        watchTrace(eventq.now(), "invalidateOnChip", "socket %u",
                   socketId);
    // Squash any in-flight read fill for this block.
    if (PendingRead *pending = pendingReads.find(blk))
        pending->poisoned = true;
    CacheState old_state = CacheState::Invalid;
    if (TagEntry *e = llc.find(blk)) {
        old_state = e->state;
        invalidateL1Sharers(blk, e->aux, -1);
        // A dirty L1 copy means the socket holds modified data even
        // if the LLC tag itself says Shared.
        llc.invalidate(blk);
    } else {
        // Non-inclusive corner: no LLC entry implies no L1 copies
        // (we maintain L1-in-LLC inclusion), nothing to do.
    }
    return old_state;
}

void
Socket::invalidateL1Sharers(Addr blk, std::uint64_t sharers,
                            std::int32_t keep_core)
{
    for (std::uint32_t c = 0; c < l1s.size(); ++c) {
        if (keep_core >= 0 && c == static_cast<std::uint32_t>(keep_core))
            continue;
        if ((sharers >> c) & 1)
            l1s[c].invalidate(blk);
    }
}

void
Socket::downgradeL1Sharers(Addr blk, std::uint64_t sharers)
{
    for (std::uint32_t c = 0; c < l1s.size(); ++c) {
        if (!((sharers >> c) & 1))
            continue;
        if (TagEntry *e = l1s[c].find(blk)) {
            if (e->state == CacheState::Modified)
                e->state = CacheState::Shared;
        }
    }
}

// --------------------------------------------------------------------
// Remote-side probes
// --------------------------------------------------------------------

void
Socket::probeInvalidate(Addr addr, Continuation<void(bool)> done)
{
    const Addr blk = blockAlign(addr);

    if (dcache) {
        // §IV-C: invalidations go DRAM cache first, then on-chip.
        // While the probe is in flight, LLC-victim inserts for this
        // block are squashed (see handleLlcVictim).
        ++invInFlight[blk];
        dcache->invalidate(blk, [this, blk, done = std::move(done)]
                           (bool, bool dc_dirty) mutable {
            eventq.schedule(cfg.localDirLatency,
                            [this, blk, dc_dirty,
                             done = std::move(done)]() mutable {
                const CacheState s = invalidateOnChip(blk);
                std::uint32_t *probes = invInFlight.find(blk);
                if (probes && --*probes == 0)
                    invInFlight.erase(blk);
                done(dc_dirty || s == CacheState::Modified);
            });
        });
    } else {
        eventq.schedule(cfg.localDirLatency,
                        [this, blk, done = std::move(done)]() mutable {
            const CacheState s = invalidateOnChip(blk);
            done(s == CacheState::Modified);
        });
    }
}

void
Socket::probeDowngrade(Addr addr, Continuation<void(bool)> done)
{
    const Addr blk = blockAlign(addr);

    eventq.schedule(cfg.localDirLatency,
                    [this, blk, done = std::move(done)]() mutable {
        TagEntry *e = llc.find(blk);
        if (watchingBlock(blk))
            watchTrace(eventq.now(), "probeDowngrade",
                       "socket %u llc_state %d", socketId,
                       e ? static_cast<int>(e->state) : -1);
        if (e && e->state == CacheState::Modified) {
            // Downgrade M->S; dirty L1 copies fold into the LLC
            // (local directory pulls them in) and are downgraded too,
            // so no core retains silent write permission.
            e->state = CacheState::Shared;
            downgradeL1Sharers(blk, e->aux);
            // Refresh the (possibly stale) DRAM-cache copy so a later
            // silent LLC eviction cannot expose stale data: the
            // PutX-through-DRAM-cache path of §IV-C.
            if (dcache) {
                DramCacheVictim dv = dcache->updateClean(blk);
                if (dv.valid)
                    protocol->dramCacheEvicted(socketId, dv.addr,
                                               dv.dirty);
            }
            // LLC data read to forward the block.
            eventq.schedule(cfg.llcDataLatency,
                            [done = std::move(done)] { done(true); });
            return;
        }
        // Not modified on chip; dirty designs may hold the dirty
        // block in the DRAM cache.
        if (dcache && cfg.dirtyDramCache()) {
            dcache->probe(blk, [this, blk, done = std::move(done)]
                          (DramCacheProbe res) mutable {
                if (res.present && res.dirty) {
                    // Supply data and keep a clean copy.
                    DramCacheVictim dv = dcache->updateClean(blk);
                    (void)dv; // update of resident block: no victim
                    done(true);
                } else {
                    done(false);
                }
            });
            return;
        }
        done(false);
    });
}

void
Socket::snoopProbe(Addr addr, bool is_write,
                   Continuation<void(SnoopResult)> done,
                   bool retain_dirty)
{
    const Addr blk = blockAlign(addr);

    auto on_chip = [this, blk, is_write, retain_dirty,
                    done = std::move(done)](bool dc_present,
                                            bool dc_dirty) mutable {
        eventq.schedule(cfg.localDirLatency,
                        [this, blk, is_write, retain_dirty,
                         dc_present, dc_dirty,
                         done = std::move(done)]() mutable {
            SnoopResult res;
            res.present = dc_present;
            res.suppliedDirty = dc_dirty;
            TagEntry *e = llc.find(blk);
            if (e) {
                res.present = true;
                if (e->state == CacheState::Modified)
                    res.suppliedDirty = true;
                if (is_write) {
                    invalidateOnChip(blk);
                } else if (e->state == CacheState::Modified) {
                    e->state = CacheState::Shared;
                    downgradeL1Sharers(blk, e->aux);
                    if (retain_dirty && dcache) {
                        // MOESI owned state: the supplier forwards
                        // the data but stays responsible for the
                        // dirty block. The LLC downgrades (so local
                        // stores re-arbitrate), and the dirtiness
                        // parks in the DRAM cache until evicted.
                        DramCacheVictim dv = dcache->insert(blk,
                                                            true);
                        if (dv.valid)
                            protocol->dramCacheEvicted(socketId,
                                                       dv.addr,
                                                       dv.dirty);
                    }
                }
            }
            if (is_write && dcache) {
                // Close the insert-squash window opened below only
                // after the on-chip invalidation has applied.
                std::uint32_t *probes = invInFlight.find(blk);
                if (probes && --*probes == 0)
                    invInFlight.erase(blk);
            }
            done(res);
        });
    };

    if (dcache) {
        if (is_write) {
            ++invInFlight[blk];
            dcache->invalidate(blk, [on_chip = std::move(on_chip)]
                               (bool present, bool dirty) mutable {
                on_chip(present, dirty);
            });
        } else {
            // §III-A: a snoop must search the DRAM cache; the full
            // access sits on the requester's critical path.
            dcache->probe(blk, [this, blk, retain_dirty,
                                on_chip = std::move(on_chip)]
                          (DramCacheProbe res) mutable {
                if (res.present && res.dirty && !retain_dirty) {
                    // Forwarding a dirty block cleans it (memory is
                    // updated by the requester-side protocol).
                    dcache->updateClean(blk);
                }
                on_chip(res.present, res.present && res.dirty);
            }, /*always_access=*/true);
        }
    } else {
        on_chip(false, false);
    }
}

CacheState
Socket::llcState(Addr addr) const
{
    const TagEntry *e = llc.find(blockAlign(addr));
    return e ? e->state : CacheState::Invalid;
}

CacheState
Socket::l1State(std::uint32_t core, Addr addr) const
{
    const TagEntry *e = l1s[core].find(blockAlign(addr));
    return e ? e->state : CacheState::Invalid;
}

} // namespace c3d
