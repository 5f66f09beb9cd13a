#include "probes.hh"

#include <algorithm>
#include <cctype>

#include "cache/tag_array.hh"
#include "coherence/directory.hh"
#include "dramcache/dram_cache.hh"
#include "mem/memory_controller.hh"
#include "sim/event_queue.hh"
#include "sim/machine.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

// ---- TimedWorkload ----------------------------------------------------

TimedWorkload::TimedWorkload(c3d::Workload &inner_, std::uint32_t cores,
                             std::size_t keep_addrs)
    : inner(inner_), keepAddrs(keep_addrs), lanes(cores)
{
    for (Lane &l : lanes)
        l.addrs.reserve(keepAddrs);
}

c3d::TraceOp
TimedWorkload::next(c3d::CoreId core)
{
    Lane &lane = lanes[core];
    const auto start = Clock::now();
    const c3d::TraceOp op = inner.next(core);
    lane.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count());
    ++lane.calls;
    if (lane.addrs.size() < keepAddrs)
        lane.addrs.push_back(op.addr);
    return op;
}

std::uint64_t
TimedWorkload::calls() const
{
    std::uint64_t n = 0;
    for (const Lane &l : lanes)
        n += l.calls;
    return n;
}

std::uint64_t
TimedWorkload::nanoseconds() const
{
    std::uint64_t n = 0;
    for (const Lane &l : lanes)
        n += l.ns;
    return n;
}

std::vector<c3d::Addr>
TimedWorkload::addressStream() const
{
    std::vector<c3d::Addr> out;
    for (std::size_t i = 0; i < keepAddrs; ++i) {
        for (const Lane &l : lanes) {
            if (i < l.addrs.size())
                out.push_back(l.addrs[i]);
        }
    }
    return out;
}

// ---- StatSummary ------------------------------------------------------

namespace
{

/** "socket2.dram_cache.ch7.busy_ticks" -> "socketN.dram_cache.chN.busy_ticks" */
std::string
kindOf(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (std::size_t i = 0; i < name.size(); ++i) {
        if (std::isdigit(static_cast<unsigned char>(name[i]))) {
            out.push_back('N');
            while (i + 1 < name.size() &&
                   std::isdigit(static_cast<unsigned char>(name[i + 1])))
                ++i;
        } else {
            out.push_back(name[i]);
        }
    }
    return out;
}

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    return fnv1a(std::to_string(v) + ";", h);
}

} // namespace

std::uint64_t
StatSummary::at(const std::string &key) const
{
    const auto it = counters.find(key);
    return it == counters.end() ? 0 : it->second;
}

double
StatSummary::histMean(const std::string &key) const
{
    const auto it = hists.find(key);
    if (it == hists.end() || it->second.count == 0)
        return 0.0;
    return static_cast<double>(it->second.sum) / it->second.count;
}

std::uint64_t
StatSummary::histP99(const std::string &key) const
{
    const auto it = hists.find(key);
    return it == hists.end() ? 0 : it->second.p99Max;
}

void
StatSummary::add(const StatSummary &o)
{
    for (const auto &[k, v] : o.counters)
        counters[k] += v;
    for (const auto &[k, h] : o.hists) {
        Hist &mine = hists[k];
        mine.count += h.count;
        mine.sum += h.sum;
        mine.p99Max = std::max(mine.p99Max, h.p99Max);
    }
    digest = mix(digest, o.digest);
}

StatSummary
summarize(const c3d::StatGroup &sg)
{
    StatSummary s;
    std::uint64_t h = fnv1a("stats");
    for (const c3d::Counter *c : sg.allCounters()) {
        s.counters[kindOf(c->name())] += c->value();
        h = mix(fnv1a(c->name(), h), c->value());
    }
    for (const c3d::Histogram *hist : sg.allHistograms()) {
        StatSummary::Hist &k = s.hists[kindOf(hist->name())];
        k.count += hist->count();
        k.sum += hist->sum();
        k.p99Max = std::max(k.p99Max, hist->percentile(99));
        h = fnv1a(hist->name(), h);
        h = mix(mix(h, hist->count()), hist->sum());
        h = mix(mix(h, hist->min()), hist->max());
        for (unsigned b = 0; b < 64; ++b)
            h = mix(h, hist->bucket(b));
    }
    s.digest = h;
    return s;
}

// ---- standalone layer timings ------------------------------------------

namespace
{

/** Median over three passes of @p pass's nanoseconds per op. */
template <typename Pass>
double
medianNsPerOp(std::size_t ops, Pass &&pass)
{
    std::vector<double> ns;
    for (int r = 0; r < 3; ++r) {
        const auto start = Clock::now();
        pass();
        ns.push_back(secondsSince(start) * 1e9 /
                     static_cast<double>(std::max<std::size_t>(ops, 1)));
    }
    std::sort(ns.begin(), ns.end());
    return ns[1];
}

/** Completions between event-queue drains in the callback benches. */
constexpr std::size_t DrainEvery = 256;

/** Keeps the replays' lookups observable to the optimizer. */
volatile std::uint64_t observed = 0;

} // namespace

LayerTimings
timeLayers(const c3d::SystemConfig &cfg,
           const std::vector<c3d::Addr> &stream)
{
    LayerTimings t;
    const std::size_t n = stream.size();
    std::uint64_t sink = 0;

    // Tag arrays at the LLC's geometry: allocate every reference into
    // a fresh array, then look every reference up in the filled one.
    {
        c3d::TagArray tags;
        t.nsPerAllocate = medianNsPerOp(n, [&] {
            tags.init(cfg.llcBytes, cfg.llcWays);
            for (const c3d::Addr a : stream)
                tags.allocate(a, c3d::CacheState::Shared);
        });
        t.nsPerFind = medianNsPerOp(n, [&] {
            for (const c3d::Addr a : stream)
                sink += tags.find(a) != nullptr;
        });
    }

    // One socket's DRAM cache: insert the stream, then probe it,
    // draining the probe completions every DrainEvery calls.
    {
        c3d::EventQueue eq;
        c3d::StatGroup sg;
        c3d::DramCache dc(eq, cfg, 0, &sg);
        t.nsPerInsert = medianNsPerOp(n, [&] {
            for (const c3d::Addr a : stream)
                dc.insert(a, false);
            eq.run();
        });
        t.nsPerProbe = medianNsPerOp(n, [&] {
            for (std::size_t i = 0; i < n; ++i) {
                dc.probe(stream[i], [&sink](c3d::DramCacheProbe p) {
                    sink += p.present;
                });
                if (i % DrainEvery == DrainEvery - 1)
                    eq.run();
            }
            eq.run();
        });
    }

    // One home's sparse directory slice, accessed as the protocol
    // does: find, and allocate on a miss.
    {
        c3d::StatGroup sg;
        c3d::SparseDirectory dir(
            (cfg.llcBytes / c3d::BlockBytes) * cfg.sparseDirFactor,
            cfg.sparseDirWays, cfg.numSockets, &sg, "bench_dir");
        t.nsPerDirFind = medianNsPerOp(n, [&] {
            c3d::DirRecall recall;
            for (const c3d::Addr a : stream) {
                if (!dir.find(a))
                    dir.allocate(a, recall);
            }
        });
    }

    // The machine's interconnect: socket-to-socket packets of both
    // kinds, delivered by the sequential kernel's queue.
    if (cfg.numSockets >= 2) {
        c3d::Machine m(cfg);
        const std::uint32_t s = cfg.numSockets;
        t.nsPerSend = medianNsPerOp(n, [&] {
            for (std::size_t i = 0; i < n; ++i) {
                const auto src = static_cast<c3d::SocketId>(i % s);
                const auto dst = static_cast<c3d::SocketId>(
                    (src + 1 + (i / s) % (s - 1)) % s);
                m.interconnect().send(
                    src, dst,
                    (i & 1) ? c3d::PacketKind::Data
                            : c3d::PacketKind::Control,
                    [&sink] { ++sink; });
                if (i % DrainEvery == DrainEvery - 1)
                    m.eventQueue().run();
            }
            m.eventQueue().run();
        });
    }

    // One socket's memory controller, half the reads remote.
    {
        c3d::EventQueue eq;
        c3d::StatGroup sg;
        c3d::MemoryController mc(eq, cfg, 0, &sg);
        t.nsPerRead = medianNsPerOp(n, [&] {
            for (std::size_t i = 0; i < n; ++i) {
                mc.read(stream[i], i & 1, [&sink] { ++sink; });
                if (i % DrainEvery == DrainEvery - 1)
                    eq.run();
            }
            eq.run();
        });
    }

    // The event kernel at the machine's latency mix: a fixed
    // population of events, each rescheduling itself at the next
    // delay of the mix until the budget is spent.
    {
        const std::vector<c3d::Tick> delays = {
            0, 1, cfg.l1Latency, cfg.llcTagLatency + cfg.llcDataLatency,
            cfg.dramCacheLatency, cfg.memLatency, cfg.hopLatency,
            cfg.missPredictorLatency};
        struct Pump
        {
            c3d::EventQueue *eq;
            const std::vector<c3d::Tick> *delays;
            std::uint64_t left;
            std::size_t i = 0;

            void
            fire()
            {
                if (left == 0)
                    return;
                --left;
                const c3d::Tick d = (*delays)[i++ % delays->size()];
                eq->schedule(d, [this] { fire(); });
            }
        };
        t.nsPerEvent = medianNsPerOp(n, [&] {
            c3d::EventQueue eq;
            Pump pump{&eq, &delays, n};
            for (int k = 0; k < 256; ++k)
                pump.fire();
            eq.run();
        });
    }

    observed = sink;
    return t;
}

} // namespace perfbench
