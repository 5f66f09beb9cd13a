/**
 * @file
 * Per-line state machines for the snoopy protocol family.
 *
 * The timing protocol (snoopy_protocol.cc) is one broadcast engine;
 * what distinguishes MESI, MESIF, MOESI and Dragon is how the home
 * ordering point plans a transaction and how the home-side per-line
 * state evolves. Each variant implements that as a pure state
 * machine over HomeLineState behind the SnoopVariant transition
 * interface -- no events, no machine access -- so the same tables
 * drive both the timing simulator and the randomized differential
 * harness in tests/test_model_checker.cc (docs/coherence.md).
 *
 * The home state is advisory for MESI (the plan never reads it, so
 * the mesi variant reproduces the pre-matrix snoopy protocol bit for
 * bit) and load-bearing for the others: a designated supplier that
 * silently lost its copy is recovered by a deterministic fallback
 * memory read at the home, never by guessing.
 */

#ifndef C3DSIM_COHERENCE_SNOOPY_VARIANTS_HH
#define C3DSIM_COHERENCE_SNOOPY_VARIANTS_HH

#include <cstdint>
#include <memory>

#include "common/config.hh"
#include "common/types.hh"

namespace c3d
{

/**
 * What the home ordering point believes about one cache line.
 * Believed, not known: clean copies die silently (LLC and DRAM-cache
 * evictions of clean blocks send no packet), so `copies`, `owner`
 * and `forwarder` may be stale-optimistic. Every plan that leans on
 * them must tolerate a probe finding nothing.
 */
struct HomeLineState
{
    std::uint32_t copies = 0;    //!< socket bitmap of believed holders
    std::int32_t owner = -1;     //!< believed dirty owner (-1: none)
    std::int32_t forwarder = -1; //!< believed clean supplier (-1: none)

    bool holds(SocketId s) const { return copies & (1u << s); }
    /** Nothing believed: reads exactly as a line never touched. */
    bool empty() const
    {
        return copies == 0 && owner < 0 && forwarder < 0;
    }
    void add(SocketId s) { copies |= 1u << s; }
    void remove(SocketId s)
    {
        copies &= ~(1u << s);
        if (owner == static_cast<std::int32_t>(s))
            owner = -1;
        if (forwarder == static_cast<std::int32_t>(s))
            forwarder = -1;
    }
};

/** How one broadcast transaction should run. */
struct SnoopPlan
{
    /** Home reads memory in parallel with the probes. */
    bool withMemoryRead = false;
    /** Probes invalidate remote copies (else they downgrade). */
    bool invalidateOthers = false;
    /** Write updates remote copies in place instead (Dragon). */
    bool updateCopies = false;
    /** A dirty supplier keeps its dirty copy (MOESI owned state). */
    bool supplierRetainsDirty = false;
    /** Dirty supply also refreshes home memory reflectively. */
    bool reflectiveWrite = true;
    /**
     * Socket expected to supply the data instead of memory (-1:
     * none). If its probe finds no copy, the home issues a fallback
     * memory read -- deterministic recovery from stale home state.
     */
    std::int32_t supplier = -1;
};

/** The shared transition interface the variants implement. */
class SnoopVariant
{
  public:
    virtual ~SnoopVariant() = default;

    virtual Protocol protocol() const = 0;
    const char *name() const { return protocolName(protocol()); }

    /**
     * Plan the broadcast for a request. Pure: reads @p line, never
     * mutates and never schedules. @p has_shared_copy distinguishes
     * an upgrade from a full miss (requester-local knowledge).
     */
    virtual SnoopPlan plan(const HomeLineState &line, SocketId req,
                           bool is_write,
                           bool has_shared_copy) const = 0;

    /**
     * Commit the home-side state once the transaction's completion
     * notice reaches the home (under the block lock, so the next
     * same-block plan sees the committed state).
     */
    virtual void complete(HomeLineState &line, SocketId req,
                          bool is_write) const = 0;

    /**
     * A socket wrote dirty data back (LLC PutX or dirty DRAM-cache
     * eviction); it no longer holds the line.
     */
    virtual void evicted(HomeLineState &line, SocketId who) const
    {
        line.remove(who);
    }
};

/** Build the state machine for @p p. */
std::unique_ptr<SnoopVariant> makeSnoopVariant(Protocol p);

} // namespace c3d

#endif // C3DSIM_COHERENCE_SNOOPY_VARIANTS_HH
