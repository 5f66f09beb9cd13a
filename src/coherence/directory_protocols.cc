#include "coherence/directory_protocols.hh"

namespace c3d
{

DirectoryProtocol::DirectoryProtocol(Machine &machine, StatGroup *stats,
                                     const DirDesign &design)
    : ProtocolBase(machine, stats), designName(enumName(design.design)),
      policy(design.policy)
{
    const SystemConfig &c = cfg();
    dirs.reserve(c.numSockets);
    for (SocketId s = 0; s < c.numSockets; ++s) {
        const std::string nm = "dir" + std::to_string(s);
        if (design.sparse) {
            // Table II: sparse 2x over one LLC's blocks, 32-way,
            // socket-grain sharing vector.
            const std::uint64_t entries =
                (c.llcBytes / BlockBytes) * c.sparseDirFactor;
            dirs.push_back(std::make_unique<SparseDirectory>(
                entries, c.sparseDirWays, c.numSockets, stats, nm));
        } else {
            dirs.push_back(std::make_unique<FullDirectory>(
                c.numSockets, stats, nm));
        }
    }

    readsFromMemory.init(stats, "proto.reads_from_memory",
                         "GetS served by home memory");
    readsFromOwner.init(stats, "proto.reads_from_owner",
                        "GetS served by a remote owner socket");
    writesServedByOwner.init(stats, "proto.writes_from_owner",
                             "GetX served by a remote owner socket");
}

DirectoryStore::Evictable
DirectoryProtocol::notBusyAt(SocketId home)
{
    return [this, home](Addr a) {
        return !homeLocks[home].isBusy(a);
    };
}

Continuation<bool(Addr)>
DirectoryProtocol::trackedAt(SocketId home)
{
    return [this, home](Addr a) {
        return dirs[home]->find(a) != nullptr;
    };
}

HomeStep
DirectoryProtocol::decide(SocketId home, Addr addr, HomeRequest kind,
                          SocketId req, bool private_page,
                          bool still_held)
{
    DirEntry *e = dirs[home]->find(addr);
    const DirEntry cur = e ? *e : DirEntry{};
    if (watchingBlock(addr)) {
        watchTrace(queueAt(home).now(), "home",
                   "request %d req %u home %u state %d sharers %llx",
                   static_cast<int>(kind), req, home,
                   static_cast<int>(cur.state),
                   static_cast<unsigned long long>(cur.sharers));
    }
    const HomeStep step = homeStep(policy, cfg().numSockets, cur, kind,
                                   req, private_page, still_held);
    if (e) {
        if (step.next.state == DirState::Invalid)
            dirs[home]->erase(addr);
        else
            *e = step.next;
    } else if (step.next.state != DirState::Invalid) {
        DirRecall recall;
        *dirs[home]->allocate(addr, recall, notBusyAt(home)) = step.next;
        resolveRecall(home, recall, trackedAt(home));
    }
    return step;
}

// --------------------------------------------------------------------
// GetS
// --------------------------------------------------------------------

void
DirectoryProtocol::getS(SocketId req, Addr addr, ReadDone done)
{
    const SocketId home = m.homeOf(addr, req);
    sendCtrl(req, home, [this, req, home, addr,
                         done = std::move(done)]() mutable {
        homeLocks[home].acquire(addr, [this, req, home, addr,
                                       done = std::move(done)]() mutable {
            queueAt(home).schedule(cfg().globalDirLatency,
                                   [this, req, home, addr,
                                    done = std::move(done)]() mutable {
                handleGetS(req, home, addr, std::move(done));
            });
        });
    });
}

void
DirectoryProtocol::serveFromMemory(SocketId req, SocketId home,
                                   Addr addr, ReadDone deliver)
{
    // The block lock is released when the response *leaves* the home,
    // not when it lands at the requester: the home is the ordering
    // point, and any later transaction's packet toward the same
    // destination departs at least globalDirLatency afterwards on the
    // same deterministic route, so it can never pass the response
    // (per-link FIFO). Previously the lock rode to the requester and
    // was released there with no return message — a whole extra
    // network traversal of artificial serialization on every miss.
    ++readsFromMemory;
    m.socket(home).memory().read(addr, /*remote=*/req != home,
                                 [this, req, home, addr,
                                  deliver = std::move(deliver)]() mutable {
        sendData(home, req, std::move(deliver));
        homeLocks[home].release(addr);
    });
}

void
DirectoryProtocol::handleGetS(SocketId req, SocketId home, Addr addr,
                              ReadDone done)
{
    const HomeStep step = decide(home, addr, HomeRequest::GetS, req);
    if (step.action == HomeAction::ForwardDowngrade) {
        // Slow remote hit path (§III-B Fig. 4): forward to the owner,
        // which may be the requester itself (homeStep). The directory
        // transition happened above, at the home, at forward time:
        // the entry cannot change underneath the in-flight probe
        // because the block lock is held (victim selection skips busy
        // blocks, and every other transaction for this block queues
        // on the lock).
        const SocketId owner = step.owner;
        ++fwdRequests;
        sendCtrl(home, owner, [this, req, home, owner, addr,
                               done = std::move(done)]() mutable {
            m.socket(owner).probeDowngrade(addr,
                                           [this, req, home, owner, addr,
                                            done = std::move(done)]
                                           (bool dirty) mutable {
                if (dirty) {
                    ++dirtyFwds;
                    ++readsFromOwner;
                    // Reflective writeback keeps memory fresh.
                    sendData(owner, home, [this, home, addr] {
                        m.socket(home).memory().write(addr, false);
                    });
                    // Data straight to the requester; the lock rides
                    // home on an unblock ack only after the data has
                    // landed, so no later probe for this block can
                    // pass the fill in flight.
                    sendData(owner, req,
                             [this, req, home, addr,
                              done = std::move(done)]() mutable {
                        done();
                        sendCtrl(req, home, [this, home, addr] {
                            homeLocks[home].release(addr);
                        });
                    });
                } else {
                    // The owner wrote the block back concurrently.
                    // Hand the request back to the home, which owns
                    // the memory being read — the old code read home
                    // memory from the owner's side with zero flight
                    // time.
                    ++fwdRaces;
                    sendCtrl(owner, home,
                             [this, req, home, addr,
                              done = std::move(done)]() mutable {
                        serveFromMemory(req, home, addr,
                                        std::move(done));
                    });
                }
            });
        });
        return;
    }

    serveFromMemory(req, home, addr, std::move(done));
}

// --------------------------------------------------------------------
// GetX / Upgrade
// --------------------------------------------------------------------

void
DirectoryProtocol::getX(SocketId req, Addr addr, bool has_shared_copy,
                        bool private_page, WriteDone done)
{
    const SocketId home = m.homeOf(addr, req);
    sendCtrl(req, home, [this, req, home, addr, has_shared_copy,
                         private_page, done = std::move(done)]() mutable {
        const Tick lock_req_at = queueAt(home).now();
        homeLocks[home].acquire(addr,
                                [this, req, home, addr, has_shared_copy,
                                 private_page, lock_req_at,
                                 done = std::move(done)]() mutable {
            lockWaitTime.sample(queueAt(home).now() - lock_req_at);
            queueAt(home).schedule(cfg().globalDirLatency,
                                   [this, req, home, addr,
                                    has_shared_copy, private_page,
                                    done = std::move(done)]() mutable {
                handleGetX(req, home, addr, has_shared_copy,
                           private_page, std::move(done));
            });
        });
    });
}

void
DirectoryProtocol::respondWrite(SocketId req, SocketId home, Addr addr,
                                bool with_data, WriteDone done)
{
    if (with_data) {
        serveFromMemory(req, home, addr, std::move(done));
    } else {
        // Upgrade ack: release when the grant leaves the home (same
        // ordering-point argument as serveFromMemory).
        sendCtrl(home, req, std::move(done));
        homeLocks[home].release(addr);
    }
}

void
DirectoryProtocol::handleGetX(SocketId req, SocketId home, Addr addr,
                              bool upgrade, bool private_page,
                              WriteDone done)
{
    const HomeStep step = decide(
        home, addr, upgrade ? HomeRequest::Upgrade : HomeRequest::GetX,
        req, cfg().tlbPageClassification && private_page);
    const bool with_data = step.withData;

    switch (step.action) {
      case HomeAction::ForwardInvalidate: {
        // Ownership transfer: invalidate the owner; it forwards the
        // dirty block directly to the requester. As in handleGetS,
        // the directory transition happened at the home at forward
        // time — the block lock pins the entry until the transfer
        // completes.
        const SocketId owner = step.owner;
        ++fwdRequests;
        sendCtrl(home, owner, [this, req, home, owner, addr,
                               done = std::move(done)]() mutable {
            m.socket(owner).probeInvalidate(addr,
                                            [this, req, home, owner,
                                             addr,
                                             done = std::move(done)]
                                            (bool dirty) mutable {
                if (dirty) {
                    ++dirtyFwds;
                    ++writesServedByOwner;
                    // Data straight to the requester; the unblock
                    // ack releases the block lock at the home only
                    // once the fill has landed (so later probes
                    // cannot pass it in flight).
                    sendData(owner, req,
                             [this, req, home, addr,
                              done = std::move(done)]() mutable {
                        done();
                        sendCtrl(req, home, [this, home, addr] {
                            homeLocks[home].release(addr);
                        });
                    });
                } else {
                    // Writeback race: no copy at the owner. Route
                    // back to the home, whose memory serves the
                    // write (the old code read home memory from the
                    // owner's side with zero flight time).
                    ++fwdRaces;
                    sendCtrl(owner, home,
                             [this, req, home, addr,
                              done = std::move(done)]() mutable {
                        serveFromMemory(req, home, addr,
                                        std::move(done));
                    });
                }
            });
        });
        return;
      }

      case HomeAction::InvalidateSharers:
        invalidateSockets(home, step.targets, addr,
                          [this, req, home, addr, with_data,
                           done = std::move(done)](bool) mutable {
            respondWrite(req, home, addr, with_data, std::move(done));
        });
        return;

      case HomeAction::Broadcast: {
        // §IV-C: broadcast invalidations to every remote DRAM cache;
        // the response leaves once both the acks have returned and
        // the memory data (read in parallel with the probes, §V-A)
        // is ready. The whole join lives at the home: the memory
        // read completes here and the acks fan in here, and only
        // when both are in does the single response (data, or a
        // control grant for an upgrade) depart for the requester.
        ++broadcasts;
        auto join = slab::Shared<WriteJoin>::make(
            req, home, addr, with_data, /*memPending=*/with_data,
            /*acksPending=*/true, std::move(done));
        if (with_data) {
            ++readsFromMemory;
            m.socket(home).memory().read(
                addr, req != home, [this, join] {
                join->memPending = false;
                if (!join->acksPending)
                    finishBroadcastWrite(*join);
            });
        }
        invalidateSockets(home, step.targets, addr,
                          [this, join](bool saw_dirty) {
            if (saw_dirty) {
                // Clean DRAM caches can never hold dirty data;
                // a dirty find here means an on-chip M copy
                // slipped out of tracking (writeback race).
                ++fwdRaces;
            }
            join->acksPending = false;
            if (!join->memPending)
                finishBroadcastWrite(*join);
        });
        return;
      }

      case HomeAction::Grant:
        if (step.race)
            ++fwdRaces;
        if (step.broadcastElided)
            ++broadcastsElided;
        respondWrite(req, home, addr, with_data, std::move(done));
        return;

      default:
        c3d_panic("a write got home action %d",
                  static_cast<int>(step.action));
    }
}

void
DirectoryProtocol::finishBroadcastWrite(WriteJoin &join)
{
    if (join.withData)
        sendData(join.home, join.req, std::move(join.done));
    else
        sendCtrl(join.home, join.req, std::move(join.done));
    homeLocks[join.home].release(join.addr);
}

// --------------------------------------------------------------------
// Writebacks
// --------------------------------------------------------------------

void
DirectoryProtocol::putX(SocketId req, Addr addr)
{
    // Sample the evictor's LLC state now, at the requester, and let
    // the packet carry it: the home-side handler must not reach into
    // another socket's cache (cross-thread under the parallel
    // kernel, and architecturally the writeback message carries the
    // evictor's state anyway). The block lock serializes every
    // transaction that could change req's state for this block while
    // the writeback is in flight.
    writeBack(req, addr,
              m.socket(req).llcState(addr) == CacheState::Modified);
}

void
DirectoryProtocol::writeBack(SocketId req, Addr addr, bool still_owner)
{
    const SocketId home = m.homeOf(addr, req);
    sendData(req, home, [this, req, home, addr, still_owner] {
        homeLocks[home].acquire(addr, [this, req, home, addr,
                                       still_owner] {
            queueAt(home).schedule(cfg().globalDirLatency,
                                   [this, req, home, addr,
                                    still_owner] {
                m.socket(home).memory().write(addr,
                                              /*remote=*/req != home);
                decide(home, addr, HomeRequest::PutX, req, false,
                       still_owner);
                homeLocks[home].release(addr);
            });
        });
    });
}

void
DirectoryProtocol::dramCacheEvicted(SocketId req, Addr addr, bool dirty)
{
    if (dirty) {
        // Dirty DRAM-cache victim (dirty designs only): the socket's
        // last copy goes home exactly as a PutX does.
        writeBack(req, addr, /*still_owner=*/false);
        return;
    }

    if (!policy.trackDramCacheEvictions)
        return; // silent clean eviction (sparse / snoop designs)

    // As with putX, the evictor's residual LLC state is sampled here
    // and carried by the notification packet; the block lock keeps it
    // valid until the directory update runs.
    const SocketId home = m.homeOf(addr, req);
    const bool still_held =
        m.socket(req).llcState(addr) != CacheState::Invalid;
    sendCtrl(req, home, [this, req, home, addr, still_held] {
        homeLocks[home].acquire(addr, [this, req, home, addr,
                                       still_held] {
            queueAt(home).schedule(cfg().globalDirLatency,
                                   [this, req, home, addr,
                                    still_held] {
                decide(home, addr, HomeRequest::CleanEviction, req,
                       false, still_held);
                homeLocks[home].release(addr);
            });
        });
    });
}

} // namespace c3d
