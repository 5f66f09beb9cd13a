/**
 * @file
 * Per-block transaction serialization at a directory slice.
 *
 * The simulated directories are blocking: at most one coherence
 * transaction per block is in flight; later requests queue in arrival
 * order and start when the active transaction releases the block.
 * Blocking directories are a common commercial design point and keep
 * the transient-state space small enough to verify exhaustively (the
 * model checker in src/check covers the same machines).
 */

#ifndef C3DSIM_COHERENCE_BLOCKING_HH
#define C3DSIM_COHERENCE_BLOCKING_HH

#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/flat_map.hh"
#include "sim/inline_function.hh"
#include "sim/slab.hh"

namespace c3d
{

/**
 * Serializes transactions per block address. Allocation-free per
 * transaction: the table is an open-addressed FlatMap that allocates
 * only when it grows, and an uncontended block's waiter list stays
 * empty (an empty vector owns no memory).
 */
class BlockingTable
{
  public:
    /**
     * A transaction's start. Starts wait in the table, never inside
     * an event, so the budget fits the largest acquire capture
     * (DirectoryProtocol::getX, 72 bytes) rather than nesting in 64.
     */
    using Start = InlineFunction<void(), 72>;

    void
    init(StatGroup *stats, const std::string &name)
    {
        conflicts.init(stats, name + ".blocked",
                       "transactions that waited for the block");
        admitted.init(stats, name + ".admitted",
                      "transactions admitted");
    }

    /**
     * Acquire the block for a transaction. If the block is free the
     * transaction starts immediately (@p start runs inline);
     * otherwise it queues and runs when released.
     */
    void
    acquire(Addr addr, Start start)
    {
        const Addr blk = blockNumber(addr);
        auto [waiters, inserted] = table.tryEmplace(blk);
        ++admitted;
        if (inserted) {
            start();
        } else {
            ++conflicts;
            waiters->push_back(std::move(start));
        }
    }

    /**
     * Release the block; the oldest queued transaction (if any)
     * starts inline.
     */
    void
    release(Addr addr)
    {
        const Addr blk = blockNumber(addr);
        Waiters *waiters = table.find(blk);
        c3d_assert(waiters, "release of unlocked block");
        if (waiters->empty()) {
            table.erase(blk);
            return;
        }
        Start next = std::move(waiters->front());
        waiters->erase(waiters->begin());
        next();
    }

    /** Whether a transaction currently owns @p addr's block. */
    bool
    isBusy(Addr addr) const
    {
        return table.contains(blockNumber(addr));
    }

    std::size_t activeBlocks() const { return table.size(); }
    std::uint64_t blockedCount() const { return conflicts.value(); }

  private:
    /** FIFO of queued starts; rarely longer than one or two. */
    using Waiters = std::vector<Start, slab::Allocator<Start>>;
    FlatMap<Addr, Waiters> table;
    Counter conflicts;
    Counter admitted;
};

} // namespace c3d

#endif // C3DSIM_COHERENCE_BLOCKING_HH
