#include "kernel/tracepoint.hh"

#include <algorithm>

namespace reqobs::kernel {

ProbeHandle
TracepointRegistry::attach(TracepointId point, TracepointProbe probe)
{
    const ProbeHandle h = nextHandle_++;
    probes_.push_back(Entry{h, point, std::move(probe)});
    return h;
}

void
TracepointRegistry::detach(ProbeHandle handle)
{
    probes_.erase(std::remove_if(probes_.begin(), probes_.end(),
                                 [handle](const Entry &e) {
                                     return e.handle == handle;
                                 }),
                  probes_.end());
}

sim::Tick
TracepointRegistry::fire(const RawSyscallEvent &event)
{
    ++fired_;
    sim::Tick cost = 0;
    for (auto &entry : probes_) {
        if (entry.point == event.point)
            cost += entry.probe(event);
    }
    return cost;
}

std::size_t
TracepointRegistry::probeCount(TracepointId point) const
{
    std::size_t n = 0;
    for (const auto &entry : probes_)
        if (entry.point == point)
            ++n;
    return n;
}

} // namespace reqobs::kernel
