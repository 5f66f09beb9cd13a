/**
 * @file
 * Tests for the explicit-state protocol checker (§IV-C verification),
 * for the home decisions it shares with DirectoryProtocol, and the
 * randomized differential harness over the snoopy-family
 * variant state machines (docs/coherence.md): MESI, MESIF, MOESI and
 * Dragon run the same seeded random traces through an abstract
 * versioned-memory model driven by the production SnoopVariant
 * tables, checking data freshness, single-dirty, update consistency
 * and final-memory-image agreement across all variants.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "check/model_checker.hh"
#include "coherence/home_decisions.hh"
#include "coherence/snoopy_variants.hh"

namespace c3d
{
namespace
{

TEST(ModelChecker, C3DTwoSocketsCoherent)
{
    CheckConfig cfg;
    cfg.design = Design::C3D;
    cfg.numSockets = 2;
    const CheckResult r = checkProtocol(cfg);
    EXPECT_TRUE(r.ok) << r.violation;
    EXPECT_GT(r.statesExplored, 100u);
}

TEST(ModelChecker, C3DThreeSocketsCoherent)
{
    CheckConfig cfg;
    cfg.design = Design::C3D;
    cfg.numSockets = 3;
    const CheckResult r = checkProtocol(cfg);
    EXPECT_TRUE(r.ok) << r.violation;
    // Three sockets explore a much larger space.
    EXPECT_GT(r.statesExplored, 10000u);
}

TEST(ModelChecker, BaselineCoherent)
{
    for (const std::uint32_t sockets : {2u, 3u}) {
        CheckConfig cfg;
        cfg.design = Design::Baseline;
        cfg.numSockets = sockets;
        const CheckResult r = checkProtocol(cfg);
        EXPECT_TRUE(r.ok) << sockets << " sockets: " << r.violation;
    }
}

TEST(ModelChecker, C3DFullDirCoherent)
{
    CheckConfig cfg;
    cfg.design = Design::C3DFullDir;
    cfg.numSockets = 3;
    const CheckResult r = checkProtocol(cfg);
    EXPECT_TRUE(r.ok) << r.violation;
}

TEST(ModelChecker, DroppingBroadcastBreaksCoherence)
{
    // §IV-C: writes to untracked blocks must broadcast; without it an
    // untracked DRAM-cache copy survives a remote write.
    CheckConfig cfg;
    cfg.mutation = Mutation::DropBroadcast;
    cfg.numSockets = 2;
    const CheckResult r = checkProtocol(cfg);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.violation.find("SWMR"), std::string::npos)
        << r.violation;
}

TEST(ModelChecker, DroppingWriteThroughBreaksCleanProperty)
{
    // §IV-A: without the write-through, memory goes stale while the
    // directory is untracked -- the clean-cache invariant fails.
    CheckConfig cfg;
    cfg.mutation = Mutation::DropWriteThrough;
    cfg.numSockets = 2;
    const CheckResult r = checkProtocol(cfg);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.violation.find("clean"), std::string::npos)
        << r.violation;
}

TEST(ModelChecker, DeterministicStateCounts)
{
    CheckConfig cfg;
    cfg.design = Design::C3D;
    cfg.numSockets = 2;
    const CheckResult a = checkProtocol(cfg);
    const CheckResult b = checkProtocol(cfg);
    EXPECT_EQ(a.statesExplored, b.statesExplored);
    EXPECT_EQ(a.transitionsFired, b.transitionsFired);
}

TEST(ModelChecker, C3DReachableSpaceIsPinned)
{
    // Literal counts of c3d's reachable space: a rule or state field
    // that changes what the BFS explores changes these. The model
    // that wrote its own directory rules reached 7,726/26,814 and
    // 53,576/234,193; those states collapse to exactly these once
    // fields no rule reads are cleared (an Invalid line's version, a
    // leftover requester and the upgrade flag outside a write, and
    // the entry during a write's invalidations, held at the write's
    // outcome).
    struct Pin
    {
        std::uint32_t sockets;
        std::uint32_t maxVersion;
        std::uint64_t states;
        std::uint64_t transitions;
    };
    const Pin pins[] = {{2, 3, 2696, 9822}, {3, 1, 20364, 95856}};
    for (const Pin &p : pins) {
        CheckConfig cfg;
        cfg.design = Design::C3D;
        cfg.numSockets = p.sockets;
        cfg.maxVersion = p.maxVersion;
        const CheckResult r = checkProtocol(cfg);
        EXPECT_TRUE(r.ok) << r.violation;
        EXPECT_EQ(r.statesExplored, p.states) << p.sockets << " sockets";
        EXPECT_EQ(r.transitionsFired, p.transitions)
            << p.sockets << " sockets";
    }
}

TEST(ModelChecker, DeeperWriteBoundExploresMore)
{
    CheckConfig shallow;
    shallow.numSockets = 2;
    shallow.maxVersion = 1;
    CheckConfig deep;
    deep.numSockets = 2;
    deep.maxVersion = 3;
    const CheckResult a = checkProtocol(shallow);
    const CheckResult b = checkProtocol(deep);
    EXPECT_TRUE(a.ok);
    EXPECT_TRUE(b.ok);
    EXPECT_GT(b.statesExplored, a.statesExplored);
}

// ---- the home decisions DirectoryProtocol and the checker share -----
//
// Entries in text: "I" untracked, "S02" Shared by sockets 0 and 2,
// "M1" Modified at socket 1 (sharers = {owner}). A decision in text:
// next entry, action (with the sockets it probes), "+" when the
// response carries data, and "race" for a writeback race.

std::string
socketsText(SocketMask set)
{
    std::string out;
    for (SocketId s = 0; s < 64; ++s)
        if ((set >> s) & 1)
            out += std::to_string(s);
    return out;
}

std::string
entryText(const DirEntry &e)
{
    switch (e.state) {
      case DirState::Invalid:
        return "I";
      case DirState::Shared:
        return "S" + socketsText(e.sharers);
      case DirState::Modified:
        return "M" + std::to_string(e.owner) +
            (e.sharers == SocketMask{1} << e.owner
                 ? "" : "/" + socketsText(e.sharers));
    }
    return "?";
}

DirEntry
parseEntry(const std::string &text)
{
    DirEntry e;
    if (text[0] == 'S')
        e.state = DirState::Shared;
    else if (text[0] == 'M')
        e.state = DirState::Modified;
    for (std::size_t i = 1; i < text.size(); ++i)
        e.addSharer(static_cast<SocketId>(text[i] - '0'));
    if (e.state == DirState::Modified)
        e.owner = static_cast<SocketId>(text[1] - '0');
    return e;
}

std::string
stepText(const HomeStep &s)
{
    static const char *const actions[] = {"-",     "mem",   "grant",
                                          "fwd-s", "fwd-x", "inv",
                                          "bcast"};
    std::string out = entryText(s.next) + " " +
        actions[static_cast<int>(s.action)];
    if (s.owner != InvalidSocket)
        out += "{" + std::to_string(s.owner) + "}";
    if (s.action == HomeAction::InvalidateSharers || s.targets)
        out += "{" + socketsText(s.targets) + "}";
    out += s.withData ? " +" : " -";
    if (s.race)
        out += " race";
    return out;
}

TEST(HomeStep, EveryDesignStateRequesterAndRequest)
{
    // Socket 1 requests on a 3-socket machine. Its role follows from
    // the entry: I neither; S1, S12 sharer; S02 neither; M1 owner; M2
    // neither. PutX and CleanEviction come from a socket whose LLC no
    // longer holds the block.
    constexpr Design designs[] = {Design::Baseline, Design::FullDir,
                                  Design::C3D, Design::C3DFullDir};
    struct Case
    {
        const char *entry;
        HomeRequest kind;
        const char *want[4]; //!< baseline, full-dir, c3d, c3d-full-dir
    };
    using R = HomeRequest;
    const Case cases[] = {
        // clang-format off
        {"I",   R::GetS, {"S1 mem +", "S1 mem +", "I mem +", "S1 mem +"}},
        {"S1",  R::GetS, {"S1 mem +", "S1 mem +", "S1 mem +", "S1 mem +"}},
        {"S12", R::GetS, {"S12 mem +", "S12 mem +", "S12 mem +", "S12 mem +"}},
        {"S02", R::GetS, {"S012 mem +", "S012 mem +", "S012 mem +", "S012 mem +"}},
        {"M1",  R::GetS, {"S1 fwd-s{1} +", "S1 fwd-s{1} +", "S1 fwd-s{1} +", "S1 fwd-s{1} +"}},
        {"M2",  R::GetS, {"S12 fwd-s{2} +", "S12 fwd-s{2} +", "S12 fwd-s{2} +", "S12 fwd-s{2} +"}},

        {"I",   R::GetX, {"M1 grant +", "M1 grant +", "M1 bcast{02} +", "M1 grant +"}},
        {"S1",  R::GetX, {"M1 inv{} +", "M1 inv{} +", "M1 inv{} +", "M1 inv{} +"}},
        {"S12", R::GetX, {"M1 inv{2} +", "M1 inv{2} +", "M1 inv{2} +", "M1 inv{2} +"}},
        {"S02", R::GetX, {"M1 inv{02} +", "M1 inv{02} +", "M1 inv{02} +", "M1 inv{02} +"}},
        {"M1",  R::GetX, {"M1 grant + race", "M1 grant + race", "M1 grant + race", "M1 grant + race"}},
        {"M2",  R::GetX, {"M1 fwd-x{2} +", "M1 fwd-x{2} +", "M1 fwd-x{2} +", "M1 fwd-x{2} +"}},

        {"I",   R::Upgrade, {"M1 grant -", "M1 grant -", "M1 bcast{02} -", "M1 grant -"}},
        {"S1",  R::Upgrade, {"M1 inv{} -", "M1 inv{} -", "M1 inv{} -", "M1 inv{} -"}},
        {"S12", R::Upgrade, {"M1 inv{2} -", "M1 inv{2} -", "M1 inv{2} -", "M1 inv{2} -"}},
        {"S02", R::Upgrade, {"M1 inv{02} +", "M1 inv{02} +", "M1 inv{02} +", "M1 inv{02} +"}},
        {"M1",  R::Upgrade, {"M1 grant - race", "M1 grant - race", "M1 grant - race", "M1 grant - race"}},
        {"M2",  R::Upgrade, {"M1 fwd-x{2} +", "M1 fwd-x{2} +", "M1 fwd-x{2} +", "M1 fwd-x{2} +"}},

        {"I",   R::PutX, {"I - -", "I - -", "I - -", "I - -"}},
        {"S1",  R::PutX, {"S1 - -", "S1 - -", "S1 - -", "S1 - -"}},
        {"S12", R::PutX, {"S12 - -", "S12 - -", "S12 - -", "S12 - -"}},
        {"S02", R::PutX, {"S02 - -", "S02 - -", "S02 - -", "S02 - -"}},
        {"M1",  R::PutX, {"I - -", "I - -", "I - -", "S1 - -"}},
        {"M2",  R::PutX, {"M2 - -", "M2 - -", "M2 - -", "M2 - -"}},

        {"I",   R::CleanEviction, {"I - -", "I - -", "I - -", "I - -"}},
        {"S1",  R::CleanEviction, {"S1 - -", "I - -", "S1 - -", "I - -"}},
        {"S12", R::CleanEviction, {"S12 - -", "S2 - -", "S12 - -", "S2 - -"}},
        {"S02", R::CleanEviction, {"S02 - -", "S02 - -", "S02 - -", "S02 - -"}},
        {"M1",  R::CleanEviction, {"M1 - -", "M1 - -", "M1 - -", "M1 - -"}},
        {"M2",  R::CleanEviction, {"M2 - -", "M2 - -", "M2 - -", "M2 - -"}},
        // clang-format on
    };
    for (const Case &c : cases) {
        for (std::size_t d = 0; d < 4; ++d) {
            const HomeStep step =
                homeStep(findDirDesign(designs[d])->policy, 3,
                         parseEntry(c.entry), c.kind, /*req=*/1);
            EXPECT_EQ(stepText(step), c.want[d])
                << designName(designs[d]) << ", entry " << c.entry
                << ", request " << static_cast<int>(c.kind);
            EXPECT_FALSE(step.broadcastElided);
        }
    }
}

TEST(HomeStep, HintsCarriedByTheRequest)
{
    const DirPolicy &c3d = findDirDesign(Design::C3D)->policy;
    // §IV-D: a private page spares c3d the untracked-write broadcast.
    const HomeStep priv = homeStep(c3d, 3, DirEntry{},
                                   HomeRequest::GetX, 1,
                                   /*private_page=*/true);
    EXPECT_EQ(stepText(priv), "M1 grant +");
    EXPECT_TRUE(priv.broadcastElided);
    for (const Design d :
         {Design::Baseline, Design::FullDir, Design::C3DFullDir}) {
        const HomeStep s = homeStep(findDirDesign(d)->policy, 3,
                                    DirEntry{}, HomeRequest::GetX, 1,
                                    /*private_page=*/true);
        EXPECT_EQ(stepText(s), "M1 grant +") << designName(d);
        EXPECT_FALSE(s.broadcastElided) << designName(d);
    }

    // An evictor that holds the block again keeps its entry.
    for (const Design d : {Design::Baseline, Design::FullDir,
                           Design::C3D, Design::C3DFullDir}) {
        const DirPolicy &p = findDirDesign(d)->policy;
        EXPECT_EQ(stepText(homeStep(p, 3, parseEntry("M1"),
                                    HomeRequest::PutX, 1, false,
                                    /*still_held=*/true)),
                  "M1 - -")
            << designName(d);
        EXPECT_EQ(stepText(homeStep(p, 3, parseEntry("S12"),
                                    HomeRequest::CleanEviction, 1,
                                    false, /*still_held=*/true)),
                  "S12 - -")
            << designName(d);
    }
    EXPECT_EQ(findDirDesign(Design::Snoopy), nullptr);
}

// ---- randomized snoopy-variant differential harness -----------------
//
// An abstract machine with versioned data: every write to a line
// bumps its version, so "the requester received current data" is the
// check `supplied version == write count`. The model mirrors the
// generic broadcast engine's semantics (snoopy_protocol.cc) -- probe
// supply rules, supplier fallback, reflective writes, updates --
// while all protocol-specific decisions come from the production
// SnoopVariant plan/complete/evicted tables. Clean copies drop
// silently (never telling the home), exactly the staleness the real
// engine must tolerate.

struct AbstractCopy
{
    bool present = false;
    bool dirty = false;
    std::uint64_t version = 0;
};

struct AbstractLine
{
    std::uint64_t mem = 0;    //!< version memory holds
    std::uint64_t writes = 0; //!< latest version in existence
    HomeLineState home;
    std::vector<AbstractCopy> copy;
};

class AbstractSnoopMachine
{
  public:
    AbstractSnoopMachine(Protocol p, int sockets, int lines)
        : variant(makeSnoopVariant(p)), proto(p)
    {
        line.resize(static_cast<std::size_t>(lines));
        for (AbstractLine &l : line)
            l.copy.resize(static_cast<std::size_t>(sockets));
    }

    const std::string &firstViolation() const { return violation; }

    std::uint64_t memImage(int li) const
    {
        return line[static_cast<std::size_t>(li)].mem;
    }

    void
    access(int s, int li, bool is_write)
    {
        AbstractLine &l = line[static_cast<std::size_t>(li)];
        AbstractCopy &rc = l.copy[static_cast<std::size_t>(s)];

        if (!is_write && rc.present) {
            // Local read hit: no transaction; the copy must be
            // current (a stale survivor means a broken plan).
            expect(rc.version == l.writes, li,
                   "read hit on stale copy");
            return;
        }
        if (is_write && rc.dirty && soleCopy(l, s)) {
            // Exclusive write hit: silent local version bump.
            rc.version = ++l.writes;
            audit(l, li);
            return;
        }
        transact(l, li, s, is_write);
        audit(l, li);
    }

    /** Random eviction; dirty copies write back and notify home. */
    void
    evict(int s, int li)
    {
        AbstractLine &l = line[static_cast<std::size_t>(li)];
        AbstractCopy &c = l.copy[static_cast<std::size_t>(s)];
        if (!c.present)
            return;
        if (c.dirty) {
            l.mem = c.version;
            variant->evicted(l.home, static_cast<SocketId>(s));
        }
        // Clean copies die silently: the home keeps believing.
        c = AbstractCopy{};
    }

    /** Write every dirty copy back; the surviving memory image. */
    void
    flush()
    {
        for (std::size_t li = 0; li < line.size(); ++li) {
            for (std::size_t s = 0; s < line[li].copy.size(); ++s) {
                if (line[li].copy[s].dirty)
                    evict(static_cast<int>(s), static_cast<int>(li));
            }
            expect(line[li].mem == line[li].writes,
                   static_cast<int>(li),
                   "flushed memory image lost a write");
        }
    }

  private:
    bool
    soleCopy(const AbstractLine &l, int s) const
    {
        for (std::size_t t = 0; t < l.copy.size(); ++t) {
            if (static_cast<int>(t) != s && l.copy[t].present)
                return false;
        }
        return true;
    }

    void
    transact(AbstractLine &l, int li, int s, bool is_write)
    {
        AbstractCopy &rc = l.copy[static_cast<std::size_t>(s)];
        const bool has_shared = rc.present && !rc.dirty;
        const SnoopPlan plan = variant->plan(
            l.home, static_cast<SocketId>(s), is_write, has_shared);

        // Probe phase: dirty holders always supply; the planned
        // supplier forwards clean or triggers the fallback memory
        // read; invalidating plans strip every other copy.
        bool have_data = rc.present; // upgrades carry their own data
        std::uint64_t data = rc.present ? rc.version : 0;
        for (std::size_t t = 0; t < l.copy.size(); ++t) {
            if (static_cast<int>(t) == s)
                continue;
            AbstractCopy &c = l.copy[t];
            const bool planned_supplier =
                plan.supplier == static_cast<std::int32_t>(t);
            if (c.present && c.dirty) {
                have_data = true;
                data = std::max(data, c.version);
                if (plan.reflectiveWrite)
                    l.mem = c.version;
                if (plan.invalidateOthers)
                    c = AbstractCopy{};
                else if (!plan.supplierRetainsDirty)
                    c.dirty = false;
            } else if (c.present) {
                if (planned_supplier) {
                    have_data = true;
                    data = std::max(data, c.version);
                }
                if (plan.invalidateOthers)
                    c = AbstractCopy{};
            } else if (planned_supplier) {
                // Stale home state: deterministic fallback read.
                have_data = true;
                data = std::max(data, l.mem);
            }
        }
        if (plan.withMemoryRead && !have_data) {
            have_data = true;
            data = l.mem;
        }

        expect(have_data, li, "transaction with no data source");
        expect(data == l.writes, li, "stale data supplied");

        // Update phase (Dragon): every believed copy still held gets
        // the new version in place.
        const std::uint64_t new_version =
            is_write ? l.writes + 1 : data;
        if (is_write && plan.updateCopies) {
            for (std::size_t t = 0; t < l.copy.size(); ++t) {
                if (static_cast<int>(t) == s || !l.copy[t].present)
                    continue;
                expect(l.home.holds(static_cast<SocketId>(t)), li,
                       "live copy unknown to home missed an update");
                l.copy[t].version = new_version;
                l.copy[t].dirty = false;
            }
        }

        rc.present = true;
        rc.dirty = is_write;
        rc.version = new_version;
        if (is_write)
            l.writes = new_version;

        variant->complete(l.home, static_cast<SocketId>(s),
                          is_write);
    }

    void
    audit(const AbstractLine &l, int li)
    {
        int dirty = 0;
        int holders = 0;
        for (const AbstractCopy &c : l.copy) {
            if (!c.present)
                continue;
            ++holders;
            dirty += c.dirty;
            // Freshness: invalidation or update must have reached
            // every surviving copy.
            expect(c.version == l.writes, li, "stale copy survived");
        }
        expect(dirty <= 1, li, "two dirty copies");
        // SWMR structure: invalidating protocols leave a dirty copy
        // alone; MOESI's owned state and Dragon's update sharing
        // legitimately pair a dirty owner with clean sharers.
        if (dirty == 1 && proto != Protocol::Moesi &&
            proto != Protocol::Dragon)
            expect(holders == 1, li, "dirty copy with sharers");
    }

    void
    expect(bool ok, int li, const char *what)
    {
        if (ok || !violation.empty())
            return;
        violation = std::string(what) + " (line " +
            std::to_string(li) + ", " + variant->name() + ")";
    }

    std::unique_ptr<SnoopVariant> variant;
    Protocol proto;
    std::vector<AbstractLine> line;
    std::string violation;
};

constexpr Protocol AllProtocols[] = {Protocol::Mesi, Protocol::Mesif,
                                     Protocol::Moesi,
                                     Protocol::Dragon};

TEST(SnoopVariantDifferential, RandomTracesHoldInvariants)
{
    constexpr int Sockets = 4;
    constexpr int Lines = 3;
    constexpr int Ops = 4000;

    for (std::uint32_t seed = 1; seed <= 5; ++seed) {
        // One trace per seed, replayed through every variant.
        std::vector<std::uint64_t> image[4];
        for (std::size_t v = 0; v < 4; ++v) {
            AbstractSnoopMachine m(AllProtocols[v], Sockets, Lines);
            std::mt19937 rng(seed);
            for (int i = 0; i < Ops; ++i) {
                const int s = static_cast<int>(rng() % Sockets);
                const int li = static_cast<int>(rng() % Lines);
                const std::uint32_t roll = rng() % 10;
                if (roll < 4)
                    m.access(s, li, /*is_write=*/false);
                else if (roll < 8)
                    m.access(s, li, /*is_write=*/true);
                else
                    m.evict(s, li);
            }
            m.flush();
            EXPECT_EQ(m.firstViolation(), "")
                << protocolName(AllProtocols[v]) << " seed " << seed;
            for (int li = 0; li < Lines; ++li)
                image[v].push_back(m.memImage(li));
        }
        // Differential: every variant ends with the same memory
        // image for the same trace.
        for (std::size_t v = 1; v < 4; ++v) {
            EXPECT_EQ(image[0], image[v])
                << "memory image diverged: "
                << protocolName(AllProtocols[0]) << " vs "
                << protocolName(AllProtocols[v]) << " seed " << seed;
        }
    }
}

TEST(SnoopVariantDifferential, StaleHomeStateIsRecovered)
{
    // Force the stale-forwarder path: a clean copy drops silently,
    // then a read planned to be served by it must still get current
    // data via the fallback memory read.
    for (const Protocol p :
         {Protocol::Mesif, Protocol::Moesi, Protocol::Dragon}) {
        AbstractSnoopMachine m(p, 3, 1);
        m.access(0, 0, true);  // socket 0 writes (v1)
        m.access(1, 0, false); // socket 1 reads; believed supplier
        m.evict(1, 0);         // ... drops its clean copy silently
        m.evict(0, 0);         // owner writes back
        m.access(2, 0, false); // must recover v1 from memory
        EXPECT_EQ(m.firstViolation(), "") << protocolName(p);
    }
}

} // namespace
} // namespace c3d
