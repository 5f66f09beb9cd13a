/**
 * @file
 * Fundamental scalar types and unit helpers used across c3dsim.
 *
 * The simulator counts time in CPU cycles of a 3 GHz clock (the paper's
 * core frequency, Table II). All nanosecond-denominated latencies from
 * the paper convert exactly: 1 ns == 3 cycles.
 */

#ifndef C3DSIM_COMMON_TYPES_HH
#define C3DSIM_COMMON_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <limits>

namespace c3d
{

/** Simulated time, in CPU cycles @ 3 GHz. */
using Tick = std::uint64_t;

/** A physical (simulated) byte address. */
using Addr = std::uint64_t;

/** Core / thread identifier, unique across the machine. */
using CoreId = std::uint32_t;

/** Socket identifier. */
using SocketId = std::uint32_t;

/** A set of sockets, bit s = socket s (64 sockets at most, the width
 * of a directory sharer vector). */
using SocketMask = std::uint64_t;

/** Sentinel for "no tick scheduled". */
constexpr Tick MaxTick = std::numeric_limits<Tick>::max();

/** Sentinel socket id. */
constexpr SocketId InvalidSocket = static_cast<SocketId>(-1);

/**
 * Host cache-line size (x86-64, AArch64 servers). State that two
 * kernel worker threads write is padded to it, so one worker's
 * writes never invalidate the line another worker is using.
 */
constexpr std::size_t HostLineBytes = 64;

/** Cache block size in bytes (Table II: 64 B lines). */
constexpr std::uint32_t BlockBytes = 64;
constexpr std::uint32_t BlockShift = 6;

/** OS page size in bytes. */
constexpr std::uint32_t PageBytes = 4096;
constexpr std::uint32_t PageShift = 12;

/** Core clock in GHz; ns-to-cycle conversion factor. */
constexpr std::uint32_t CyclesPerNs = 3;

/** Convert a latency in nanoseconds to ticks (cycles @ 3 GHz). */
constexpr Tick
nsToTicks(std::uint64_t ns)
{
    return ns * CyclesPerNs;
}

/** Convert ticks to (truncated) nanoseconds. */
constexpr std::uint64_t
ticksToNs(Tick t)
{
    return t / CyclesPerNs;
}

/** Align an address down to its cache-block base. */
constexpr Addr
blockAlign(Addr a)
{
    return a & ~static_cast<Addr>(BlockBytes - 1);
}

/** Cache-block number of an address. */
constexpr Addr
blockNumber(Addr a)
{
    return a >> BlockShift;
}

/** Page number of an address. */
constexpr Addr
pageNumber(Addr a)
{
    return a >> PageShift;
}

/** Align an address down to its page base. */
constexpr Addr
pageAlign(Addr a)
{
    return a & ~static_cast<Addr>(PageBytes - 1);
}

/** Memory reference kind carried by trace records. */
enum class MemOp : std::uint8_t
{
    Read,
    Write,
};

/**
 * Bytes-per-tick bandwidth representation.
 *
 * Bandwidths in the paper are given in GB/s. At 3 GHz,
 * X GB/s == X/3 bytes per cycle. To keep integral math we store
 * bandwidth as (bytes << FixedShift) per tick.
 */
class Bandwidth
{
  public:
    static constexpr std::uint32_t FixedShift = 16;

    Bandwidth() : bytesPerTickFp(0) {}

    /** Construct from GB/s (1 GB == 1e9 bytes). */
    static Bandwidth
    fromGBps(double gbps)
    {
        Bandwidth b;
        const double bytes_per_ns = gbps; // 1 GB/s == 1 byte/ns
        const double bytes_per_tick = bytes_per_ns / CyclesPerNs;
        b.bytesPerTickFp = static_cast<std::uint64_t>(
            bytes_per_tick * (1ull << FixedShift));
        return b;
    }

    bool valid() const { return bytesPerTickFp != 0; }

    /** Ticks needed to serialize @p bytes at this bandwidth. */
    Tick
    serializationTicks(std::uint64_t bytes) const
    {
        if (!valid())
            return 0; // infinite bandwidth
        const std::uint64_t num = bytes << FixedShift;
        return (num + bytesPerTickFp - 1) / bytesPerTickFp;
    }

    double
    gbps() const
    {
        return static_cast<double>(bytesPerTickFp) /
            (1ull << FixedShift) * CyclesPerNs;
    }

  private:
    std::uint64_t bytesPerTickFp;
};

} // namespace c3d

#endif // C3DSIM_COMMON_TYPES_HH
