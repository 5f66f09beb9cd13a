#include "coherence/snoopy_protocol.hh"

namespace c3d
{

SnoopyProtocol::SnoopyProtocol(Machine &machine, StatGroup *stats,
                               std::unique_ptr<SnoopVariant> var)
    : ProtocolBase(machine, stats), variant(std::move(var))
{
    snoops.init(stats, "proto.snoops", "snoop probes sent");
    snoopHitsDirty.init(stats, "proto.snoop_dirty_hits",
                        "snoops that supplied dirty data");
    snoopMemoryServed.init(stats, "proto.snoop_memory_served",
                           "snoop transactions served by memory");
    cleanForwards.init(stats, "proto.snoop_clean_forwards",
                       "clean cache-to-cache forwards (MESIF F "
                       "state / owner supply)");
    supplierFallbacks.init(stats, "proto.snoop_supplier_fallbacks",
                           "designated suppliers that had silently "
                           "lost the copy (fallback memory read)");
    updatesSent.init(stats, "proto.snoop_updates",
                     "update data packets sent to sharers (Dragon)");

    homeLines.resize(m.numSockets());
}

/** Join state for a broadcast transaction (requester side). */
struct SnoopyProtocol::SnoopJoin
{
    SocketId req;
    SocketId home;
    Addr addr;
    bool isWrite;
    bool updateCopies;
    bool memPending;
    std::uint32_t pendingProbes;
    ReadDone done;
    bool dataArrived = false;
    bool completed = false;
};

const HomeLineState &
SnoopyProtocol::lineAt(SocketId home, Addr addr) const
{
    static constexpr HomeLineState Absent{};
    const HomeLineState *line = homeLines[home].find(blockAlign(addr));
    return line ? *line : Absent;
}

template <typename F>
void
SnoopyProtocol::updateLine(SocketId home, Addr addr, F &&change)
{
    FlatMap<Addr, HomeLineState> &lines = homeLines[home];
    const Addr blk = blockAlign(addr);
    HomeLineState &line = *lines.tryEmplace(blk).first;
    change(line);
    if (line.empty())
        lines.erase(blk);
}

std::uint64_t
SnoopyProtocol::homeLineCount() const
{
    std::uint64_t n = 0;
    for (const auto &lines : homeLines)
        n += lines.size();
    return n;
}

std::uint64_t
SnoopyProtocol::emptyHomeLines() const
{
    std::uint64_t n = 0;
    for (const auto &lines : homeLines) {
        lines.forEach([&n](Addr, const HomeLineState &line) {
            n += line.empty();
        });
    }
    return n;
}

void
SnoopyProtocol::requestTransaction(SocketId req, Addr addr,
                                   bool is_write,
                                   bool has_shared_copy, ReadDone done)
{
    // The home socket is the ordering point (home-snoop flavour, as
    // in QPI): same-block transactions serialize there, which keeps
    // concurrent GetX from creating two owners. The variant's plan
    // is computed under the block lock, on the home's queue -- the
    // only place the per-line home state may be read.
    const SocketId home = m.homeOf(addr, req);
    sendCtrl(req, home, [this, req, home, addr, is_write,
                         has_shared_copy,
                         done = std::move(done)]() mutable {
        homeLocks[home].acquire(
            addr, [this, req, home, addr, is_write, has_shared_copy,
                   done = std::move(done)]() mutable {
                const SnoopPlan plan = variant->plan(
                    lineAt(home, addr), req, is_write,
                    has_shared_copy);
                runBroadcast(req, home, addr, is_write, plan,
                             std::move(done));
            });
    });
}

void
SnoopyProtocol::tryComplete(SnoopJoin &join)
{
    if (join.completed)
        return;
    // Complete as soon as supplied data arrives (a dirty owner or
    // clean forwarder sent the block), or when every ack and the
    // memory data are in.
    if (!join.dataArrived && (join.pendingProbes != 0 || join.memPending))
        return;
    join.completed = true;
    // The join completes at the requester (every ack and data packet
    // lands there), so the completion runs req-side. The home lock
    // and line state are home state: releasing or committing from
    // the requester both races under the parallel kernel and lets a
    // later transaction's probes depart the ordering point before
    // this transaction's fill has landed. Send an explicit completion
    // notice back to the home and commit+release on its arrival --
    // the one extra control packet is the price of a real ordering
    // point.
    join.done();
    const SocketId req = join.req;
    const SocketId home = join.home;
    const Addr addr = join.addr;
    const bool is_write = join.isWrite;
    const bool update = join.updateCopies;
    if (req == home) {
        commitAndRelease(home, req, addr, is_write, update);
    } else {
        sendCtrl(req, home, [this, req, home, addr, is_write, update] {
            commitAndRelease(home, req, addr, is_write, update);
        });
    }
}

void
SnoopyProtocol::commitAndRelease(SocketId home, SocketId req,
                                 Addr addr, bool is_write,
                                 bool update_copies)
{
    if (update_copies) {
        // Dragon: the ordering point redistributes the new data to
        // every believed copy; they stay valid (update, not
        // invalidate). Pure timing traffic at the receiving socket.
        const std::uint32_t stale =
            lineAt(home, addr).copies & ~(1u << req);
        for (SocketId t = 0; t < m.numSockets(); ++t) {
            if (stale & (1u << t)) {
                ++updatesSent;
                sendData(home, t, [] {});
            }
        }
    }
    updateLine(home, addr, [&](HomeLineState &line) {
        variant->complete(line, req, is_write);
    });
    homeLocks[home].release(addr);
}

void
SnoopyProtocol::runBroadcast(SocketId req, SocketId home, Addr addr,
                             bool is_write, const SnoopPlan &plan,
                             ReadDone done)
{
    const SocketMask targets = othersThan(req);
    auto join = slab::Shared<SnoopJoin>::make(SnoopJoin{
        req, home, addr, is_write, plan.updateCopies,
        plan.withMemoryRead,
        static_cast<std::uint32_t>(__builtin_popcountll(targets)),
        std::move(done)});

    // Parallel memory access at the home socket (§V-A: "we access
    // the memory in parallel with probing remote caches").
    if (plan.withMemoryRead) {
        m.socket(home).memory().read(addr, req != home,
                                     [this, req, home, join]() mutable {
            sendData(home, req, [this, join = std::move(join)] {
                join->memPending = false;
                tryComplete(*join);
            });
        });
    }

    const bool probe_invalidate = plan.invalidateOthers;
    const bool retain = plan.supplierRetainsDirty;
    const bool reflective = plan.reflectiveWrite;
    forEachSocket(targets, [&](SocketId t) {
        ++snoops;
        const bool is_supplier =
            plan.supplier == static_cast<std::int32_t>(t);
        // Probes fan out from the ordering point; the home "probing
        // itself" is a local action (no interconnect traffic). The
        // probe reads t's DRAM-cache slot word one hop later.
        if (const DramCache *dc = m.socket(t).dramCache())
            dc->prefetch(addr);
        sendCtrl(home, t, [this, req, home, t, addr, probe_invalidate,
                           retain, reflective, is_supplier,
                           join]() mutable {
            // The join's request fields are immutable, so reading
            // them here keeps this continuation within its budget.
            m.socket(t).snoopProbe(addr, probe_invalidate,
                                   [this, t, reflective, is_supplier,
                                    join = std::move(join)]
                                   (SnoopResult res) mutable {
                const SocketId req = join->req;
                const SocketId home = join->home;
                const Addr addr = join->addr;
                // Every probe answers the requester once, with data
                // (a supplier) or with a bare ack.
                auto answer = [this, &join](bool with_data) {
                    return [this, with_data, join = std::move(join)] {
                        --join->pendingProbes;
                        if (with_data)
                            join->dataArrived = true;
                        tryComplete(*join);
                    };
                };
                if (res.suppliedDirty) {
                    ++snoopHitsDirty;
                    ++dirtyFwds;
                    if (reflective) {
                        // Dirty data goes straight to the requester;
                        // memory is refreshed reflectively.
                        const SocketId hm = m.homeOf(addr, req);
                        sendData(t, hm, [this, hm, addr] {
                            m.socket(hm).memory().write(addr, false);
                        });
                    }
                    sendData(t, req, answer(true));
                } else if (is_supplier && res.present) {
                    // MESIF-style clean forward: the designated
                    // supplier still holds the block and sends it in
                    // memory's stead.
                    ++cleanForwards;
                    sendData(t, req, answer(true));
                } else if (is_supplier) {
                    // The believed supplier silently lost its copy:
                    // recover with a fallback memory read at the
                    // home. Deterministic — the stale home state
                    // costs latency, never correctness.
                    ++supplierFallbacks;
                    sendCtrl(t, home, [this, req, home, addr,
                                       ack = answer(true)]() mutable {
                        ++snoopMemoryServed;
                        m.socket(home).memory().read(
                            addr, req != home,
                            [this, req, home,
                             ack = std::move(ack)]() mutable {
                            sendData(home, req, std::move(ack));
                        });
                    });
                } else {
                    sendCtrl(t, req, answer(false));
                }
            }, retain);
        });
    });

    if (!targets && !plan.withMemoryRead) {
        // Single-socket machines only (othersThan(req) is never
        // empty otherwise), so this runs on a single-queue machine;
        // still pin to the home queue for uniformity.
        queueAt(home).schedule(0, [this, join] { tryComplete(*join); });
    }
}

void
SnoopyProtocol::getS(SocketId req, Addr addr, ReadDone done)
{
    requestTransaction(req, addr, /*is_write=*/false,
                       /*has_shared_copy=*/false, std::move(done));
}

void
SnoopyProtocol::getX(SocketId req, Addr addr, bool has_shared_copy,
                     bool /*private_page*/, WriteDone done)
{
    // An upgrade needs no data: invalidation acks suffice. A full
    // GetX reads memory in parallel with the (in)validating probes.
    requestTransaction(req, addr, /*is_write=*/true, has_shared_copy,
                       std::move(done));
}

void
SnoopyProtocol::putX(SocketId req, Addr addr)
{
    // Only the baseline/clean designs emit PutX; snoopy sinks dirty
    // LLC victims into the DRAM cache. Reaching here means the
    // machine was configured without a DRAM cache: write to memory
    // (through the home's store buffer) and retire the line from the
    // home's books.
    const SocketId home = m.homeOf(addr, req);
    sendData(req, home, [this, req, home, addr] {
        updateLine(home, addr, [&](HomeLineState &line) {
            variant->evicted(line, req);
        });
        m.socket(home).memory().write(addr, req != home);
    });
}

void
SnoopyProtocol::dramCacheEvicted(SocketId req, Addr addr, bool dirty)
{
    if (!dirty)
        return; // silent clean eviction (home state goes stale)
    const SocketId home = m.homeOf(addr, req);
    sendData(req, home, [this, req, home, addr] {
        updateLine(home, addr, [&](HomeLineState &line) {
            variant->evicted(line, req);
        });
        m.socket(home).memory().write(addr, req != home);
    });
}

std::unique_ptr<GlobalProtocol>
makeSnoopyProtocol(Machine &m, StatGroup *stats)
{
    return std::make_unique<SnoopyProtocol>(
        m, stats, makeSnoopVariant(m.config().protocol));
}

} // namespace c3d
