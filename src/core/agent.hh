/**
 * @file
 * The observability agent: the paper's end-to-end pipeline.
 *
 * On start() the agent creates the eBPF maps, authors the probe bytecode
 * (delta probes for the send and recv families, a Listing-1 duration
 * probe pair for the poll syscall), verifies and attaches them to the
 * kernel's raw_syscalls tracepoints, then samples the in-kernel
 * cumulative counters on a fixed period. Each sample with enough new
 * syscalls becomes a MetricsSample through the window stage shared with
 * MultiTenantAgent (core/sampling: differencing, loss correction, the
 * Eq. 1 / Eq. 2 / slack chain) — no userspace cooperation from the
 * observed application anywhere in the path. What is this agent's own:
 * the single-tgid probes, torn-window detection, stale backoff and the
 * checkpoint/restore hooks the Supervisor drives.
 */

#ifndef REQOBS_CORE_AGENT_HH
#define REQOBS_CORE_AGENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/profile.hh"
#include "core/sampling.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "kernel/kernel.hh"

namespace reqobs::core {

/** Agent tunables. */
struct AgentConfig
{
    /** Counter-sampling period. */
    sim::Tick samplePeriod = sim::milliseconds(100);
    /**
     * Minimum new send-family syscalls before a sample is emitted; below
     * this the window keeps accumulating (the paper finds Eq. 1 needs
     * >= ~2048 syscalls for stable estimates; low-rate workloads use the
     * accumulate-until-enough behaviour this implements).
     */
    std::uint64_t minWindowSyscalls = 256;
    SaturationConfig saturation;
    SlackConfig slack;
    ebpf::RuntimeConfig runtime;
    /**
     * Degradation-hardening knobs. All default off: the hardened paths
     * cost extra probe instructions / change scheduling, so clean runs
     * keep the exact pre-hardening behaviour. runExperiment() switches
     * them on automatically when a FaultPlan is active.
     * @{
     */
    /** Survive probe-attach failures in partial-operation mode. */
    bool tolerateAttachFailures = false;
    /** Emit guarded probe bytecode (ret<0 / inverted-timestamp skips). */
    bool guardedProbes = false;
    /** Double the sampling period while windows stay stale. */
    bool staleBackoff = false;
    /** Backoff ceiling as a multiple of samplePeriod. */
    unsigned maxBackoffFactor = 8;
    /**
     * De-bias each window for events the kernel counted as lost (missed
     * probe runs, failed map updates, ring-buffer drops) before feeding
     * the estimators — see correctForLoss(). Clean runs lose nothing,
     * so the correction is exactly inert there.
     */
    bool lossAware = false;
    /** @} */

    /**
     * @name Heavy-hitter sketch (MultiTenantAgent only).
     *
     * Attach an extra in-kernel probe that counts send-family events
     * per tenant slot in an eHashPipe-style hash pipe, so a controller
     * finds the noisiest tenants via SketchMap::topK() without reading
     * every stats slot. Off by default: the extra probe costs per-event
     * time, so existing runs are unchanged.
     * @{
     */
    bool heavyHitterSketch = false;
    std::uint32_t sketchStages = 4; ///< hash-pipe depth
    std::uint32_t sketchWidth = 8;  ///< slots per stage
    /** @} */

    /**
     * Run-queue latency histogram (MultiTenantAgent only). Attaches the
     * runqlat probe pair to the sched tracepoints and stamps a
     * per-tenant run-queue wait p99 onto every sample — the fourth
     * metric family next to Eq. 1, Eq. 2 and epoll slack. Only
     * meaningful under SchedModel::Discrete: the GPS fluid model never
     * fires sched tracepoints, so the histogram stays empty. Off by
     * default (attached probes change event costs).
     */
    bool runqlatHistogram = false;

    /**
     * Called after every emitted sample — the supervisor's checkpoint
     * hook. Unset (the default) means no call and no overhead.
     */
    std::function<void(const MetricsSample &)> sampleHook;
};

/**
 * Userspace agent state worth surviving a crash: the window-start
 * counter snapshots plus the estimator chain's state (never its
 * samples: the supervisor checkpoints after every one) plus the
 * cumulative health counters. Together with the runtime's kernel-side
 * map snapshot (EbpfRuntime::snapshotMaps) this is everything a
 * replacement agent needs to continue the metric stream where the dead
 * one left off.
 */
struct AgentCheckpoint
{
    WindowMark start; ///< window start (the loss half is not restored)
    EstimatorState estimators;
    AgentHealth health; ///< cumulative counters at checkpoint time
};

/** See file comment. */
class ObservabilityAgent
{
  public:
    /**
     * @param tgid    The observed application's process id.
     * @param profile Which syscalls carry its request signal.
     */
    ObservabilityAgent(kernel::Kernel &kernel, kernel::Pid tgid,
                       const SyscallProfile &profile,
                       const AgentConfig &config = {});

    ~ObservabilityAgent();

    ObservabilityAgent(const ObservabilityAgent &) = delete;
    ObservabilityAgent &operator=(const ObservabilityAgent &) = delete;

    /** Load + attach the probes and begin periodic sampling. */
    void start();

    /** Detach probes and stop sampling. */
    void stop();

    bool running() const { return running_; }

    /** @name Live estimates. @{ */
    const RpsEstimator &rps() const { return chain_.rps(); }
    const SaturationDetector &saturation() const
    {
        return chain_.saturation();
    }
    const SlackEstimator &slackEstimator() const
    {
        return chain_.slackEstimator();
    }
    /** @} */

    /** All emitted samples. */
    const std::vector<MetricsSample> &samples() const
    {
        return chain_.samples();
    }

    /** Live pipeline self-diagnostics. */
    const AgentHealth &health() const { return health_; }

    /** @name Whole-run aggregates from the cumulative kernel counters. @{ */
    double overallObservedRps() const
    {
        return overallRps(readStats(sendMaps_.statsFd));
    }
    double overallSendVariance() const
    {
        return overallVariance(readStats(sendMaps_.statsFd));
    }
    double overallRecvVariance() const
    {
        return overallVariance(readStats(recvMaps_.statsFd));
    }
    double overallPollMeanDurationNs() const
    {
        return overallMeanNs(readStats(pollMaps_.statsFd));
    }
    std::uint64_t sendSyscalls() const
    {
        return readStats(sendMaps_.statsFd).count;
    }
    /** @} */

    ebpf::EbpfRuntime &runtime() { return *runtime_; }
    const SyscallProfile &profile() const { return profile_; }

    /** @name Crash-recovery support (see core/supervisor). @{ */

    /** Snapshot the userspace state (estimators + counter snapshots). */
    AgentCheckpoint checkpoint() const;

    /**
     * Adopt a checkpoint into a freshly start()ed agent. The new
     * incarnation's attach health is kept; estimator state and the
     * cumulative counters resume from the checkpoint (this runtime's
     * own loss counters restart at zero, so the checkpointed totals
     * become base offsets).
     */
    void restore(const AgentCheckpoint &ckpt);

    /**
     * Drop the currently-accumulating window at the next sample tick:
     * a window spanning an outage mixes pre-crash and post-restart
     * event streams (including the one outage-wide delta) and must be
     * torn down, not emitted.
     */
    void markWindowTorn() { tearNextWindow_ = true; }

    /**
     * Fault hook: silently stop the periodic sampler while the agent
     * still reports running() — a hung collector thread. Only an
     * external watchdog can notice and recover.
     */
    void stallSampler() { sampleTimer_.cancel(); }
    /** @} */

  private:
    kernel::Kernel &kernel_;
    kernel::Pid tgid_;
    SyscallProfile profile_;
    AgentConfig config_;
    std::unique_ptr<ebpf::EbpfRuntime> runtime_;
    WindowStage stage_;
    MetricChain chain_;

    ebpf::probes::DeltaMaps sendMaps_;
    ebpf::probes::DeltaMaps recvMaps_;
    ebpf::probes::DurationMaps pollMaps_;

    bool running_ = false;
    sim::EventId sampleTimer_;
    AgentHealth health_;
    unsigned backoff_ = 1; ///< current samplePeriod multiplier
    /** Counters at the start of the currently-accumulating window. */
    WindowMark start_;
    bool tearNextWindow_ = false;
    /** Teardown guard; last member so it outlives everything above. */
    std::shared_ptr<bool> alive_;

    ebpf::probes::SyscallStats readStats(int fd) const;
    /** The live families' counters now (detached ones read zero). */
    WindowMark readMark() const;
    void scheduleSample();
    void takeSample();
};

} // namespace reqobs::core

#endif // REQOBS_CORE_AGENT_HH
