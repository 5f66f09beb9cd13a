/**
 * @file
 * Main-memory timing model: a per-socket memory controller fronting
 * N DDR channels (Table II: 50 ns access, DDR3-1600, 2 channels of
 * 12.8 GB/s).
 *
 * The model charges a fixed access latency plus channel serialization
 * of the 64 B line; requests hash to channels by block address, so
 * hot channels queue up and congestion is visible (Fig. 2's
 * infinite-bandwidth idealization disables the serialization).
 */

#ifndef C3DSIM_MEM_MEMORY_CONTROLLER_HH
#define C3DSIM_MEM_MEMORY_CONTROLLER_HH

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "interconnect/channel.hh"
#include "sim/event_queue.hh"

namespace c3d
{

/** One socket's slice of physical memory. */
class MemoryController
{
  public:
    MemoryController(EventQueue &eq, const SystemConfig &cfg,
                     SocketId socket, StatGroup *stats);

    /**
     * Issue a read of the block at @p addr; @p done fires when the
     * data is available at the controller. The continuation is
     * moved once, into its event node, and runs there.
     * @param remote whether the requester is on another socket
     *               (for local/remote accounting only).
     */
    void read(Addr addr, bool remote, EventQueue::Callback &&done);

    /**
     * Issue a write of the block at @p addr. Writes are posted: the
     * controller absorbs them without a completion callback, but they
     * still occupy channel bandwidth.
     */
    void write(Addr addr, bool remote);

    std::uint64_t reads() const { return readCount.value(); }
    std::uint64_t writes() const { return writeCount.value(); }
    std::uint64_t remoteReads() const { return remoteReadCount.value(); }
    std::uint64_t remoteWrites() const { return remoteWriteCount.value(); }

  private:
    Channel &channelFor(Addr addr);

    EventQueue &eventq;
    const Tick accessLatency;
    std::vector<Channel> channels;

    Counter readCount;
    Counter writeCount;
    Counter remoteReadCount;
    Counter remoteWriteCount;
    Histogram readLatency;
};

} // namespace c3d

#endif // C3DSIM_MEM_MEMORY_CONTROLLER_HH
