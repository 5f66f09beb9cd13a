/**
 * @file
 * Name-keyed protocol registry.
 *
 * Dispatch runs through a table rather than a bare switch so an
 * out-of-range value produces a diagnostic naming the offending
 * value and the valid set. c3d_panic throws SimError, so a sweep
 * under --fail-policy=skip/retry contains a bad spec instead of
 * tearing the whole process down.
 */

#include <cstdio>
#include <cstring>

#include "coherence/protocol.hh"

#include "coherence/directory_protocols.hh"
#include "coherence/snoopy_protocol.hh"
#include "common/log.hh"

namespace c3d
{

namespace
{

using ProtocolFactory =
    std::unique_ptr<GlobalProtocol> (*)(Machine &, StatGroup *);

struct DesignEntry
{
    Design design;
    ProtocolFactory make;
};

const DesignEntry kDesignRegistry[] = {
    {Design::Baseline, makeBaselineProtocol},
    {Design::Snoopy, makeSnoopyProtocol},
    {Design::FullDir, makeFullDirProtocol},
    {Design::C3D, makeC3DProtocol},
    {Design::C3DFullDir, makeC3DFullDirProtocol},
};

/** "baseline, snoopy, full-dir, ..." for diagnostics. */
void
validDesignSet(char *buf, std::size_t cap)
{
    std::size_t off = 0;
    for (const DesignEntry &e : kDesignRegistry) {
        const int n = std::snprintf(buf + off, cap - off, "%s%s",
                                    off ? ", " : "",
                                    designName(e.design));
        if (n < 0 || static_cast<std::size_t>(n) >= cap - off)
            break;
        off += static_cast<std::size_t>(n);
    }
}

} // namespace

std::unique_ptr<GlobalProtocol>
makeProtocol(Design design, Machine &machine, StatGroup *stats)
{
    for (const DesignEntry &e : kDesignRegistry) {
        if (e.design == design)
            return e.make(machine, stats);
    }
    char valid[128];
    validDesignSet(valid, sizeof(valid));
    c3d_panic("unknown design %d (valid: %s)",
              static_cast<int>(design), valid);
}

} // namespace c3d
