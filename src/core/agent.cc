#include "core/agent.hh"

#include "sim/logging.hh"

namespace reqobs::core {

using ebpf::probes::SyscallStats;

ObservabilityAgent::ObservabilityAgent(kernel::Kernel &kernel,
                                       kernel::Pid tgid,
                                       const SyscallProfile &profile,
                                       const AgentConfig &config)
    : kernel_(kernel), tgid_(tgid), profile_(profile), config_(config),
      runtime_(std::make_unique<ebpf::EbpfRuntime>(kernel, config.runtime)),
      stage_(*runtime_, config.lossAware),
      chain_(config.saturation, config.slack),
      alive_(std::make_shared<bool>(true))
{}

ObservabilityAgent::~ObservabilityAgent()
{
    *alive_ = false;
    stop();
}

void
ObservabilityAgent::start()
{
    if (running_)
        sim::fatal("ObservabilityAgent: start() called twice");

    sendMaps_ = ebpf::probes::createDeltaMaps(*runtime_, "send");
    recvMaps_ = ebpf::probes::createDeltaMaps(*runtime_, "recv");
    pollMaps_ = ebpf::probes::createDurationMaps(*runtime_, "poll");

    // Returns whether the probe is live. A rejected or fault-failed
    // attach is fatal unless the agent is configured for
    // partial-operation mode, in which case the family is simply marked
    // unhealthy and sampling continues on whatever did attach.
    auto attach = [this](ebpf::ProgramSpec spec, const char *name,
                         kernel::TracepointId point) -> bool {
        spec.name = name;
        ebpf::VerifyResult vr =
            runtime_->loadAndAttach(std::move(spec), point);
        if (!vr) {
            if (config_.tolerateAttachFailures)
                return false;
            sim::fatal("probe rejected by the verifier: %s",
                       vr.error.c_str());
        }
        return true;
    };

    const unsigned shift = ebpf::probes::kDeltaShift;
    const bool guarded = config_.guardedProbes;
    health_ = AgentHealth{};
    health_.sendAttached =
        attach(ebpf::probes::buildDeltaExit(*runtime_, tgid_,
                                            profile_.sendFamily, sendMaps_,
                                            shift, guarded),
               "send.delta_exit", kernel::TracepointId::SysExit);
    health_.recvAttached =
        attach(ebpf::probes::buildDeltaExit(*runtime_, tgid_,
                                            profile_.recvFamily, recvMaps_,
                                            shift, guarded),
               "recv.delta_exit", kernel::TracepointId::SysExit);
    const bool poll_enter =
        attach(ebpf::probes::buildDurationEnter(*runtime_, tgid_,
                                                profile_.pollSyscall,
                                                pollMaps_),
               "poll.duration_enter", kernel::TracepointId::SysEnter);
    const bool poll_exit =
        attach(ebpf::probes::buildDurationExit(*runtime_, tgid_,
                                               profile_.pollSyscall,
                                               pollMaps_, shift, guarded),
               "poll.duration_exit", kernel::TracepointId::SysExit);
    health_.pollAttached = poll_enter && poll_exit;

    running_ = true;
    backoff_ = 1;
    start_ = WindowMark{};
    tearNextWindow_ = false;
    stage_.lossBase = AgentHealth{};
    scheduleSample();
}

void
ObservabilityAgent::stop()
{
    if (!running_)
        return;
    running_ = false;
    sampleTimer_.cancel();
    runtime_->unloadAll();
}

SyscallStats
ObservabilityAgent::readStats(int fd) const
{
    return runtime_->arrayAt(fd).at<SyscallStats>(0);
}

WindowMark
ObservabilityAgent::readMark() const
{
    // A detached family's map never advances; reading it anyway would
    // only feed zero windows. Partial-operation mode: read what's live.
    WindowMark m;
    if (health_.sendAttached)
        m.send = readStats(sendMaps_.statsFd);
    if (health_.recvAttached)
        m.recv = readStats(recvMaps_.statsFd);
    if (health_.pollAttached)
        m.poll = readStats(pollMaps_.statsFd);
    m.loss = stage_.readLoss(health_);
    return m;
}

void
ObservabilityAgent::scheduleSample()
{
    auto alive = alive_;
    sampleTimer_ = kernel_.sim().schedule(
        config_.samplePeriod * backoff_, [this, alive] {
            if (!*alive || !running_)
                return;
            takeSample();
            scheduleSample();
        });
}

void
ObservabilityAgent::takeSample()
{
    const WindowMark now = readMark();

    // A cumulative counter moving backwards means the kernel-side map
    // state was reset under us (a wiped map / lost pin across a
    // restart). Differencing across the reset would wrap the u64 into
    // an astronomical window; a restart-spanning window (marked torn by
    // the supervisor) likewise holds one outage-wide delta. Both tear
    // down exactly this window: reseed the window start, emit nothing.
    const bool regressed =
        (health_.sendAttached && now.send.count < start_.send.count) ||
        (health_.recvAttached && now.recv.count < start_.recv.count) ||
        (health_.pollAttached && now.poll.count < start_.poll.count);
    if (regressed || tearNextWindow_) {
        tearNextWindow_ = false;
        ++health_.discontinuities;
        start_ = now;
        return;
    }

    // Freshness gate on the first attached family (send preferred: it is
    // Eq. 1's signal). With everything detached every window is stale and
    // the agent idles at maximum backoff instead of crashing.
    const std::uint64_t fresh =
        health_.sendAttached ? now.send.count - start_.send.count
        : health_.recvAttached ? now.recv.count - start_.recv.count
                               : now.poll.count - start_.poll.count;
    if (fresh < config_.minWindowSyscalls) {
        // keep accumulating this window
        ++health_.staleWindows;
        if (config_.staleBackoff && backoff_ < config_.maxBackoffFactor)
            backoff_ *= 2;
        health_.backoffFactor = backoff_;
        return;
    }
    backoff_ = 1;
    health_.backoffFactor = backoff_;

    MetricsSample s;
    s.t = kernel_.sim().now();
    stage_.close(s, start_, now, 1.0, health_);
    const MetricsSample &out = chain_.observe(s);
    start_ = now;
    if (config_.sampleHook)
        config_.sampleHook(out);
}

AgentCheckpoint
ObservabilityAgent::checkpoint() const
{
    return {start_, chain_.state(), health_};
}

void
ObservabilityAgent::restore(const AgentCheckpoint &ckpt)
{
    // This (fresh) runtime's loss counters restart at zero: the window
    // starts from none lost, and the checkpointed totals become base
    // offsets.
    start_ = ckpt.start;
    start_.loss = ProgramLoss{};
    chain_.restore(ckpt.estimators);
    // Attach health stays this incarnation's; the cumulative counters
    // resume from the checkpoint.
    health_.staleWindows = ckpt.health.staleWindows;
    health_.discontinuities = ckpt.health.discontinuities;
    health_.lossCorrectedEvents = ckpt.health.lossCorrectedEvents;
    stage_.lossBase = ckpt.health;
    stage_.refreshLoss(health_);
}

} // namespace reqobs::core
