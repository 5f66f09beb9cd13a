#include "sim/machine.hh"

#include <algorithm>

namespace c3d
{

Machine::Machine(const SystemConfig &config, KernelMode kernel_mode)
    : cfg(config), mode(kernel_mode),
      cellW(std::max<Tick>(1, cfg.hopLatency)),
      statGroup("machine")
{
    if (mode == KernelMode::MultiQueue) {
        c3d_assert(parallelKernelEligible(cfg),
                   "MultiQueue kernel on an ineligible config");
        queues.reserve(cfg.numSockets);
        std::vector<EventQueue *> raw;
        for (SocketId s = 0; s < cfg.numSockets; ++s) {
            queues.push_back(std::make_unique<EventQueue>());
            raw.push_back(queues.back().get());
        }
        router_.initMulti(raw);
    } else {
        queues.push_back(std::make_unique<EventQueue>());
        router_.initSingle(*queues[0], cfg.numSockets);
    }

    noc = std::make_unique<Interconnect>(router_, cfg, &statGroup);
    noc->setFaultInjector(&faultInjector_);
    mapper = std::make_unique<PageMapper>(
        cfg.mapping, cfg.numSockets, &statGroup,
        /*deferred_touch=*/mode == KernelMode::MultiQueue);
    classifier = std::make_unique<PageClassifier>(&statGroup);

    sockets.reserve(cfg.numSockets);
    for (SocketId s = 0; s < cfg.numSockets; ++s) {
        sockets.push_back(std::make_unique<Socket>(
            router_.at(s), cfg, s, &statGroup));
    }

    proto = makeProtocol(cfg.design, *this, &statGroup);
    for (auto &s : sockets)
        s->setProtocol(proto.get());
}

Machine::~Machine() = default;

std::uint64_t
Machine::totalEventsExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues)
        n += q->eventsExecuted();
    return n;
}

std::uint64_t
Machine::totalHeapCallbackEvents() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues)
        n += q->heapCallbackEvents();
    return n;
}

std::uint64_t
Machine::totalPendingEvents() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues)
        n += q->pending();
    return n;
}

std::uint64_t
Machine::interSocketBytes() const
{
    return noc->totalBytes();
}

} // namespace c3d
