#include "core/sampling.hh"

namespace reqobs::core {

using ebpf::probes::SyscallStats;

std::uint64_t
lostEvents(const LossSnap &now, const LossSnap &snap,
           std::uint64_t window_count, double share)
{
    const std::uint64_t d_inprog =
        (now.loss - now.misses) - (snap.loss - snap.misses);
    const std::uint64_t d_miss = now.misses - snap.misses;
    const std::uint64_t d_runs = now.runs - snap.runs;
    std::uint64_t est =
        share == 1.0 ? d_inprog
                     : static_cast<std::uint64_t>(
                           static_cast<double>(d_inprog) * share + 0.5);
    if (d_miss > 0 && d_runs > 0)
        est += (window_count * d_miss + d_runs / 2) / d_runs;
    return est;
}

ProgramLoss
WindowStage::readLoss(const AgentHealth &h) const
{
    auto snap = [this](bool attached, const char *name) -> LossSnap {
        if (!lossAware_ || !attached)
            return {};
        return {runtime_.probeLoss(name), runtime_.probeMissesFor(name),
                runtime_.probeRunsFor(name)};
    };
    return {snap(h.sendAttached, "send.delta_exit"),
            snap(h.recvAttached, "recv.delta_exit"),
            snap(h.pollAttached, "poll.duration_enter"),
            snap(h.pollAttached, "poll.duration_exit")};
}

void
WindowStage::refreshLoss(AgentHealth &h) const
{
    h.mapUpdateFails = lossBase.mapUpdateFails + runtime_.mapUpdateFails();
    h.ringbufDrops = lossBase.ringbufDrops + runtime_.ringbufDrops();
    h.probeMisses = lossBase.probeMisses + runtime_.probeMisses();
}

void
WindowStage::close(MetricsSample &s, const WindowMark &start,
                   const WindowMark &now, double share,
                   AgentHealth &health) const
{
    s.send = diffStats(start.send, now.send);
    s.recv = diffStats(start.recv, now.recv);
    if (now.poll.count > start.poll.count &&
        now.poll.sumNs >= start.poll.sumNs) {
        s.pollCount = now.poll.count - start.poll.count;
        s.pollMeanDurNs =
            static_cast<double>(now.poll.sumNs - start.poll.sumNs) /
            static_cast<double>(s.pollCount);
    }
    refreshLoss(health);
    if (lossAware_) {
        const ProgramLoss &a = start.loss;
        const ProgramLoss &b = now.loss;
        const std::uint64_t d_send =
            lostEvents(b.send, a.send, s.send.count, share);
        const std::uint64_t d_recv =
            lostEvents(b.recv, a.recv, s.recv.count, share);
        const std::uint64_t d_poll =
            lostEvents(b.pollEnter, a.pollEnter, s.pollCount, share) +
            lostEvents(b.pollExit, a.pollExit, s.pollCount, share);
        s.send = correctForLoss(s.send, d_send);
        s.recv = correctForLoss(s.recv, d_recv);
        // Poll durations are per-event measurements, not inter-event
        // deltas: losing one loses a sample without biasing the others'
        // mean, so only the count is restored.
        if (s.pollCount > 0)
            s.pollCount += d_poll;
        health.lossCorrectedEvents += d_send + d_recv + d_poll;
    }
    s.health = health;
}

const MetricsSample &
MetricChain::observe(MetricsSample s)
{
    s.rpsObsv = rpsFromWindow(s.send);
    state_.rps.observe(s.send);
    s.saturated = state_.saturation.observe(s.send);
    if (s.pollCount > 0)
        state_.slack.observe(s.pollMeanDurNs);
    s.slack = state_.slack.slack();
    samples_.push_back(s);
    return samples_.back();
}

double
overallRps(const SyscallStats &s)
{
    if (s.count == 0 || s.sumNs == 0)
        return 0.0;
    return 1e9 * static_cast<double>(s.count) /
           static_cast<double>(s.sumNs);
}

double
overallVariance(const SyscallStats &s)
{
    return diffStats(SyscallStats{}, s).varianceNs2;
}

double
overallMeanNs(const SyscallStats &s)
{
    if (s.count == 0)
        return 0.0;
    return static_cast<double>(s.sumNs) / static_cast<double>(s.count);
}

} // namespace reqobs::core
