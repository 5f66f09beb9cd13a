/**
 * @file
 * Protocol registry: snoopy, or a DirectoryProtocol built from the
 * design's row of the directory-design table (home_decisions.hh).
 *
 * An out-of-range value produces a diagnostic naming the offending
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

/** "baseline, snoopy, full-dir, ..." for diagnostics. */
void
validDesignSet(char *buf, std::size_t cap)
{
    std::size_t off = 0;
    for (const EnumName<Design> &e : enumNames(Design{})) {
        const int n = std::snprintf(buf + off, cap - off, "%s%s",
                                    off ? ", " : "", e.name);
        if (n < 0 || static_cast<std::size_t>(n) >= cap - off)
            break;
        off += static_cast<std::size_t>(n);
    }
}

} // namespace

std::unique_ptr<GlobalProtocol>
makeProtocol(Design design, Machine &machine, StatGroup *stats)
{
    if (design == Design::Snoopy)
        return makeSnoopyProtocol(machine, stats);
    if (const DirDesign *d = findDirDesign(design))
        return std::make_unique<DirectoryProtocol>(machine, stats, *d);
    char valid[128];
    validDesignSet(valid, sizeof(valid));
    c3d_panic("unknown design %d (valid: %s)",
              static_cast<int>(design), valid);
}

} // namespace c3d
