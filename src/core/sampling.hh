/**
 * @file
 * The sampling pipeline's per-window stage, shared by both agents.
 *
 * An agent samples cumulative in-kernel counters on a period and turns
 * each window into a MetricsSample in three steps, all defined here:
 * WindowStage::close differences two WindowMarks (the send/recv/poll
 * SyscallStats plus the probe programs' loss counters) into send and
 * recv DeltaWindows and a poll count and mean, then de-biases them for
 * the events the kernel lost (lostEvents + correctForLoss); MetricChain
 * feeds the result to the Eq. 1 / Eq. 2 / slack estimators and records
 * it. ObservabilityAgent runs one stream (share = 1); MultiTenantAgent
 * runs one per tenant, each claiming its share of the program-wide
 * in-program losses. The two samplers differ only in the probes they
 * attach and how they read a mark.
 */

#ifndef REQOBS_CORE_SAMPLING_HH
#define REQOBS_CORE_SAMPLING_HH

#include <cstdint>
#include <vector>

#include "core/estimators.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"

namespace reqobs::core {

/**
 * Agent self-diagnostics, stamped on every MetricsSample and queryable
 * live. Lets consumers of a degraded sample stream distinguish "the
 * application is quiet" from "the observability pipeline is sick".
 */
struct AgentHealth
{
    bool sendAttached = false; ///< send delta probe live
    bool recvAttached = false; ///< recv delta probe live
    bool pollAttached = false; ///< both halves of the duration pair live
    std::uint64_t mapUpdateFails = 0; ///< cumulative failed map updates
    std::uint64_t ringbufDrops = 0;   ///< cumulative ring-buffer drops
    std::uint64_t probeMisses = 0;    ///< cumulative missed probe runs
    std::uint64_t staleWindows = 0;   ///< sample ticks below the window min
    std::uint64_t discontinuities = 0; ///< torn windows dropped (counter
                                       ///  resets, restart-spanning windows)
    std::uint64_t lossCorrectedEvents = 0; ///< events re-added by the
                                           ///  loss-aware correction
    unsigned backoffFactor = 1;       ///< current sampling-period multiplier

    /** Any probe family missing or any in-kernel data loss observed. */
    bool degraded() const
    {
        return !sendAttached || !recvAttached || !pollAttached ||
               mapUpdateFails > 0 || ringbufDrops > 0 || probeMisses > 0 ||
               discontinuities > 0;
    }
};

/** One emitted metrics window. */
struct MetricsSample
{
    sim::Tick t = 0;            ///< sample timestamp
    DeltaWindow send;           ///< inter-send deltas
    DeltaWindow recv;           ///< inter-recv deltas
    double rpsObsv = 0.0;       ///< Eq. 1 on the send window
    std::uint64_t pollCount = 0;
    double pollMeanDurNs = 0.0; ///< mean poll-syscall duration
    bool saturated = false;     ///< detector state after this window
    double slack = 0.0;         ///< slack estimate after this window
    AgentHealth health;         ///< pipeline self-diagnostics at emit time
    /** @name Run-queue latency window (runqlat family). Zeros unless
     *  AgentConfig::runqlatHistogram under SchedModel::Discrete. @{ */
    std::uint64_t runqCount = 0; ///< switch-ins bucketed this window
    double runqP99Ns = 0.0;      ///< window run-queue wait p99 (ns)
    /** @} */
};

/** One probe program's loss counters, as EbpfRuntime exports them. */
struct LossSnap
{
    std::uint64_t loss = 0;   ///< misses + map fails + ringbuf drops
    std::uint64_t misses = 0; ///< pre-filter missed runs
    std::uint64_t runs = 0;   ///< completed runs (every syscall)
};

/**
 * Events one program lost over a window of @p window_count recorded
 * events, from its loss counters at the window's end (@p now) and start
 * (@p snap). In-program losses (failed map updates, ring-buffer drops)
 * happen after the bytecode's syscall-id filter: absolute counts of lost
 * family events, but counted program-wide, so a stream claims @p share
 * of them — its fraction of the tick's fresh events; share 1 (a single
 * stream) takes the count exactly. Missed runs happen before the
 * program and its filter run, across every syscall the tracepoint fires
 * for, so only the family's share was really lost: they scale by the
 * window's recorded-events-per-run ratio (misses strike independently
 * of syscall type).
 */
std::uint64_t lostEvents(const LossSnap &now, const LossSnap &snap,
                         std::uint64_t window_count, double share);

/** The loss counters of the four programs feeding the three families. */
struct ProgramLoss
{
    LossSnap send, recv, pollEnter, pollExit;
};

/** One stream's cumulative in-kernel counters at a window boundary. */
struct WindowMark
{
    ebpf::probes::SyscallStats send{}, recv{}, poll{};
    ProgramLoss loss; ///< zeros unless the agent is loss-aware
};

/** See file comment; one per agent, bound to the agent's runtime. */
class WindowStage
{
  public:
    WindowStage(const ebpf::EbpfRuntime &runtime, bool loss_aware)
        : runtime_(runtime), lossAware_(loss_aware)
    {}

    /**
     * The live programs' loss counters now: zeros unless loss-aware,
     * and for any family @p h does not report attached.
     */
    ProgramLoss readLoss(const AgentHealth &h) const;

    /**
     * Close the window @p start → @p now into @p s: the send and recv
     * windows and the poll count and mean, de-biased for lost events
     * (@p share: see lostEvents) when loss-aware. Refreshes @p health's
     * loss counters, adds the re-added events to it and stamps it on
     * @p s.
     */
    void close(MetricsSample &s, const WindowMark &start,
               const WindowMark &now, double share,
               AgentHealth &health) const;

    /** Set @p h's cumulative loss counters: lossBase plus the runtime's. */
    void refreshLoss(AgentHealth &h) const;

    /** Loss totals of a previous incarnation, carried across a restart
     *  (a fresh runtime's own counters start at zero). */
    AgentHealth lossBase;

  private:
    const ebpf::EbpfRuntime &runtime_;
    bool lossAware_;
};

/** A chain's estimator state: what a checkpoint carries (no samples). */
struct EstimatorState
{
    RpsEstimator rps;
    SaturationDetector saturation;
    SlackEstimator slack;
};

/**
 * One stream's estimator chain — Eq. 1 RPS, Eq. 2 saturation, epoll
 * slack — and every sample it emitted.
 */
class MetricChain
{
  public:
    MetricChain(const SaturationConfig &saturation,
                const SlackConfig &slack)
        : state_{RpsEstimator{}, SaturationDetector(saturation),
                 SlackEstimator(slack)}
    {}

    /**
     * Feed one closed window to the estimators, fill in its estimates
     * (rpsObsv, saturated, slack) and record it.
     */
    const MetricsSample &observe(MetricsSample s);

    const std::vector<MetricsSample> &samples() const { return samples_; }
    const RpsEstimator &rps() const { return state_.rps; }
    const SaturationDetector &saturation() const
    {
        return state_.saturation;
    }
    const SlackEstimator &slackEstimator() const { return state_.slack; }

    const EstimatorState &state() const { return state_; }
    void restore(const EstimatorState &state) { state_ = state; }

  private:
    EstimatorState state_;
    std::vector<MetricsSample> samples_;
};

/** @name Whole-run readers over one cumulative SyscallStats. @{ */
/** Eq. 1 over every delta counted (0 before any). */
double overallRps(const ebpf::probes::SyscallStats &s);
/** Eq. 2 variance over every delta counted. */
double overallVariance(const ebpf::probes::SyscallStats &s);
/** Mean duration (ns) over every event a duration probe counted. */
double overallMeanNs(const ebpf::probes::SyscallStats &s);
/** @} */

} // namespace reqobs::core

#endif // REQOBS_CORE_SAMPLING_HH
