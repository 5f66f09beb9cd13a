/**
 * @file
 * Shared helpers for the c3dsim test suite: small scaled machine
 * configurations and workload profiles that keep unit/integration
 * tests fast while preserving the capacity ratios of Table II.
 */

#ifndef C3DSIM_TESTS_TEST_HELPERS_HH
#define C3DSIM_TESTS_TEST_HELPERS_HH

#include "common/config.hh"
#include "common/log.hh"
#include "trace/workload.hh"

namespace c3d::test
{

/** Scale used by tests: 1/256 of the paper machine. */
constexpr std::uint32_t TestScale = 256;

/** A small but fully-featured machine for fast tests. */
inline SystemConfig
tinyConfig(Design design = Design::C3D, std::uint32_t sockets = 4,
           std::uint32_t cores_per_socket = 2)
{
    SystemConfig cfg;
    cfg.numSockets = sockets;
    cfg.coresPerSocket = cores_per_socket;
    cfg.design = design;
    cfg = cfg.scaled(TestScale);
    return cfg;
}

/** A small workload whose footprint matches tinyConfig's capacities. */
inline WorkloadProfile
tinyProfile(const char *name = "tiny")
{
    WorkloadProfile p;
    p.name = name;
    p.sharedHotBytes = 64 * 1024;
    p.sharedColdBytes = 768 * 1024;
    p.streamBytes = 0;
    p.migratoryBytes = 32 * 1024;
    p.privateBytesPerThread = 64 * 1024;
    p.fracSharedHot = 0.3;
    p.fracSharedCold = 0.3;
    p.fracMigratory = 0.05;
    p.writeFracShared = 0.12;
    p.writeFracSharedCold = 0.02;
    p.writeFracPrivate = 0.2;
    p.avgGap = 3;
    return p;
}

/** What happened to the LifeProbes sharing one tally. */
struct LifeTally
{
    int moves = 0;       //!< move constructions, all probes
    int movesAtRun = -1; //!< `moves` when a probe last ran
    int runs = 0;
    int drops = 0; //!< destructions of probes not moved from
};

/**
 * Event callable that reports its own life to a LifeTally: how often
 * it was moved, when it ran and whether its live instance was
 * destroyed (moved-from shells do not count), so a test can pin how
 * a queue builds, runs and frees events. Throws SimError when run if
 * @c throws is set.
 */
struct LifeProbe
{
    LifeTally *tally;
    bool throws = false;
    bool live = true;

    explicit LifeProbe(LifeTally &t, bool throw_on_run = false)
        : tally(&t), throws(throw_on_run)
    {
    }

    LifeProbe(LifeProbe &&o) noexcept
        : tally(o.tally), throws(o.throws)
    {
        o.live = false;
        ++tally->moves;
    }

    LifeProbe(const LifeProbe &) = delete;
    LifeProbe &operator=(const LifeProbe &) = delete;
    LifeProbe &operator=(LifeProbe &&) = delete;

    ~LifeProbe()
    {
        if (live)
            ++tally->drops;
    }

    void
    operator()() const
    {
        tally->movesAtRun = tally->moves;
        ++tally->runs;
        if (throws)
            c3d_panic("LifeProbe: thrown on request");
    }
};

} // namespace c3d::test

#endif // C3DSIM_TESTS_TEST_HELPERS_HH
