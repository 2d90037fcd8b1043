/**
 * @file
 * The multi-tenant observability agent: the machine-level sampler.
 *
 * One window and estimator stage, two samplers. The stage — window
 * differencing, loss correction, the Eq. 1 / Eq. 2 / slack chain — is
 * core/sampling, shared with the single-tenant ObservabilityAgent; the
 * samplers differ only in what they attach and read. MultiTenantAgent
 * attaches ONE probe set per machine — tenant-scoped bytecode from
 * ebpf/probes (tgid-match prologue, per-tenant stats-map slots) — and on
 * each sample tick closes every fresh tenant's window into that
 * tenant's MetricChain, prorating the program-wide in-program losses by
 * the tenant's share of the tick's fresh events. All attribution happens
 * inside the verified bytecode; userspace only ever reads per-slot
 * counters.
 */

#ifndef REQOBS_CORE_TENANT_METRICS_HH
#define REQOBS_CORE_TENANT_METRICS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.hh"
#include "core/profile.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "kernel/kernel.hh"

namespace reqobs::core {

/** Probe bindings for one tenant on a machine. */
struct TenantBinding
{
    std::string name;       ///< workload name (labels/results)
    kernel::Pid tgid = 0;   ///< the tenant process the probes filter on
    SyscallProfile profile; ///< its syscall vocabulary
};

/** See file comment. */
class MultiTenantAgent
{
  public:
    MultiTenantAgent(kernel::Kernel &kernel,
                     std::vector<TenantBinding> tenants,
                     const AgentConfig &config = {});

    ~MultiTenantAgent();

    MultiTenantAgent(const MultiTenantAgent &) = delete;
    MultiTenantAgent &operator=(const MultiTenantAgent &) = delete;

    /** Author, verify and attach the tenant probes; begin sampling. */
    void start();

    /** Detach probes and stop sampling. */
    void stop();

    bool running() const { return running_; }

    std::size_t tenantCount() const { return tenants_.size(); }
    const TenantBinding &binding(std::size_t i) const { return tenants_[i]; }
    const MetricChain &tenant(std::size_t i) const { return chains_[i]; }

    /** @name Whole-run aggregates from tenant @p i's cumulative slots. @{ */
    double overallObservedRps(std::size_t i) const
    {
        return overallRps(readSlot(sendMaps_.statsFd, i));
    }
    double overallSendVariance(std::size_t i) const
    {
        return overallVariance(readSlot(sendMaps_.statsFd, i));
    }
    double overallPollMeanDurationNs(std::size_t i) const
    {
        return overallMeanNs(readSlot(pollMaps_.statsFd, i));
    }
    /** Send-family syscalls attributed to tenant @p i in-kernel. */
    std::uint64_t sendSyscalls(std::size_t i) const
    {
        return readSlot(sendMaps_.statsFd, i).count;
    }
    /** Whole-run run-queue wait p99 (0 without runqlatHistogram). */
    double overallRunqP99Ns(std::size_t i) const;
    /** @} */

    /**
     * Noisiest tenants by in-kernel send-event count, read from the
     * heavy-hitter sketch: (tenant slot, approximate count) sorted
     * descending. Empty unless AgentConfig::heavyHitterSketch.
     */
    std::vector<std::pair<std::uint32_t, std::uint64_t>>
    topTenants(std::size_t k) const;

    /** Machine-level pipeline health (probe attach + loss counters). */
    const AgentHealth &health() const { return health_; }

    ebpf::EbpfRuntime &runtime() { return *runtime_; }

  private:
    kernel::Kernel &kernel_;
    std::vector<TenantBinding> tenants_;
    AgentConfig config_;
    std::unique_ptr<ebpf::EbpfRuntime> runtime_;
    WindowStage stage_;
    std::vector<MetricChain> chains_; ///< one per tenant

    ebpf::probes::DeltaMaps sendMaps_;
    ebpf::probes::DeltaMaps recvMaps_;
    ebpf::probes::DurationMaps pollMaps_;
    int sketchFd_ = -1; ///< heavy-hitter sketch (when enabled)
    ebpf::probes::RunqlatMaps runqMaps_; ///< runqlat pair (when enabled)

    bool running_ = false;
    sim::EventId sampleTimer_;
    AgentHealth health_;

    /** Per-tenant counters at the start of the accumulating window. */
    std::vector<WindowMark> start_;
    /** Per-tenant cumulative runqlat histogram at window start. */
    std::vector<std::vector<std::uint64_t>> runqSnap_;

    /** Teardown guard; last member so it outlives everything above. */
    std::shared_ptr<bool> alive_;

    ebpf::probes::SyscallStats readSlot(int fd, std::size_t slot) const;
    void scheduleSample();
    void takeSample();
};

} // namespace reqobs::core

#endif // REQOBS_CORE_TENANT_METRICS_HH
