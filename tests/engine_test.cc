/**
 * @file
 * The eBPF engine on the paths that produce results.
 *
 * Coverage: with the default runtime config, every program the agents
 * attach (paper and hardened ObservabilityAgent, the Supervisor's
 * agent, MultiTenantAgent with its heavy-hitter and runqlat families)
 * runs a native kernel (the front-door pair is checked alongside its
 * engine-equality test in frontdoor_test.cc), checked by the kernel
 * name each program reports. Agents rename their probes before attach,
 * so this only holds because native compilation binds the shape the
 * builder stored, not the name.
 *
 * Differential: whole runs (a figure sweep point, a storm with a front
 * door, a co-location cluster, a discrete-scheduler runqlat cluster, a
 * supervised chaos run) produce identical simulated results, field by
 * field, under the Reference, Translated and Native engines.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cluster_bytes.hh"
#include "core/agent.hh"
#include "core/cluster.hh"
#include "core/experiment.hh"
#include "core/profile.hh"
#include "core/supervisor.hh"
#include "core/tenant_metrics.hh"
#include "ebpf/runtime.hh"
#include "kernel/kernel.hh"
#include "sim/simulation.hh"
#include "workload/config.hh"

namespace reqobs {
namespace {

using ebpf::ExecEngine;

/** Every loaded program reports its native kernel by name, in attach
 *  order (the runtime reports "vm" for a program that did not bind). */
void
expectAllNative(ebpf::EbpfRuntime &rt,
                const std::vector<std::string> &kernels)
{
    const auto progs = rt.probeCounters();
    ASSERT_EQ(progs.size(), kernels.size());
    for (std::size_t i = 0; i < progs.size(); ++i)
        EXPECT_EQ(progs[i].kernel, kernels[i]) << progs[i].name;
}

/** The four ObservabilityAgent probes, attach order. */
const std::vector<std::string> kAgentKernels = {
    "delta_exit", "delta_exit", "duration_enter", "duration_exit"};

core::AgentConfig
hardened()
{
    // What runExperiment switches on under an active fault plan.
    core::AgentConfig ac;
    ac.tolerateAttachFailures = true;
    ac.guardedProbes = true;
    ac.staleBackoff = true;
    ac.lossAware = true;
    return ac;
}

// ---------------------------------------------------------------------
// Agent-path native coverage.

TEST(AgentNativeCoverage, ObservabilityAgentPaperAndHardened)
{
    for (const core::AgentConfig &ac : {core::AgentConfig{}, hardened()}) {
        for (const auto &wl : workload::paperWorkloads()) {
            sim::Simulation sim(1);
            kernel::Kernel kernel(sim);
            core::ObservabilityAgent agent(kernel, 100,
                                           core::profileFor(wl), ac);
            agent.start();
            SCOPED_TRACE(wl.name + (ac.guardedProbes ? " hardened"
                                                      : " paper"));
            expectAllNative(agent.runtime(), kAgentKernels);
        }
    }
}

TEST(AgentNativeCoverage, SupervisedAgent)
{
    sim::Simulation sim(1);
    kernel::Kernel kernel(sim);
    core::Supervisor sup(kernel, 100, core::genericProfile(), hardened(),
                         core::SupervisorConfig{}, nullptr, sim.forkRng());
    sup.start();
    ASSERT_NE(sup.agent(), nullptr);
    expectAllNative(sup.agent()->runtime(), kAgentKernels);
}

TEST(AgentNativeCoverage, MultiTenantAgentEveryFamily)
{
    for (const bool guarded : {false, true}) {
        sim::Simulation sim(1);
        kernel::Kernel kernel(sim);
        std::vector<core::TenantBinding> tenants;
        kernel::Pid tgid = 100;
        for (const char *name : {"img-dnn", "xapian", "silo"}) {
            const auto wl = workload::workloadByName(name);
            tenants.push_back({wl.name, tgid, core::profileFor(wl)});
            tgid += 100;
        }
        core::AgentConfig ac;
        ac.guardedProbes = guarded;
        ac.heavyHitterSketch = true;
        ac.runqlatHistogram = true;
        core::MultiTenantAgent agent(kernel, std::move(tenants), ac);
        agent.start();
        SCOPED_TRACE(guarded ? "guarded" : "paper");
        // heavy hitter + send/recv delta + poll pair + runqlat triple
        expectAllNative(agent.runtime(),
                        {"tenant_heavy_hitter", "tenant_delta_exit",
                         "tenant_delta_exit", "tenant_duration_enter",
                         "tenant_duration_exit", "id_stamp", "id_stamp",
                         "runqlat_switch"});
    }
}

// ---------------------------------------------------------------------
// Whole-run engine differential.

constexpr ExecEngine kEngines[] = {ExecEngine::Reference,
                                   ExecEngine::Translated,
                                   ExecEngine::Native};

const char *
engineName(ExecEngine e)
{
    switch (e) {
    case ExecEngine::Reference:
        return "reference";
    case ExecEngine::Translated:
        return "translated";
    case ExecEngine::Native:
        return "native";
    }
    return "?";
}

/** One "name value" line per simulated field; doubles as hex floats. */
class Fields
{
  public:
    void add(const std::string &name, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%a", v);
        lines_.push_back(name + " " + buf);
    }

    void add(const std::string &name, std::uint64_t v)
    {
        lines_.push_back(name + " " + std::to_string(v));
    }

    void add(const std::string &name, std::int64_t v)
    {
        lines_.push_back(name + " " + std::to_string(v));
    }

    void add(const std::string &name, bool v) { add(name, std::uint64_t{v}); }

    /** Each line of @p text as one field. */
    void addLines(const std::string &text)
    {
        std::istringstream in(text);
        for (std::string line; std::getline(in, line);)
            lines_.push_back(line);
    }

    const std::vector<std::string> &lines() const { return lines_; }

  private:
    std::vector<std::string> lines_;
};

void
addHealth(Fields &f, const std::string &p, const core::AgentHealth &h)
{
    f.add(p + "sendAttached", h.sendAttached);
    f.add(p + "recvAttached", h.recvAttached);
    f.add(p + "pollAttached", h.pollAttached);
    f.add(p + "mapUpdateFails", h.mapUpdateFails);
    f.add(p + "ringbufDrops", h.ringbufDrops);
    f.add(p + "probeMisses", h.probeMisses);
    f.add(p + "staleWindows", h.staleWindows);
    f.add(p + "discontinuities", h.discontinuities);
    f.add(p + "lossCorrectedEvents", h.lossCorrectedEvents);
    f.add(p + "backoffFactor", std::uint64_t{h.backoffFactor});
}

Fields
fieldsOf(const core::ExperimentResult &r)
{
    Fields f;
    f.add("offeredRps", r.offeredRps);
    f.add("achievedRps", r.achievedRps);
    f.add("observedRps", r.observedRps);
    f.add("completed", r.completed);
    f.add("p50Ns", r.p50Ns);
    f.add("p95Ns", r.p95Ns);
    f.add("p99Ns", r.p99Ns);
    f.add("qosViolated", r.qosViolated);
    f.add("sendVarNs2", r.sendVarNs2);
    f.add("recvVarNs2", r.recvVarNs2);
    f.add("pollMeanDurNs", r.pollMeanDurNs);
    f.add("syscalls", r.syscalls);
    f.add("probeEvents", r.probeEvents);
    f.add("probeInsns", r.probeInsns);
    f.add("probeCostNs", std::int64_t{r.probeCostNs});
    f.add("samples", std::uint64_t{r.samples.size()});
    for (std::size_t i = 0; i < r.samples.size(); ++i) {
        const core::MetricsSample &s = r.samples[i];
        const std::string p = "sample[" + std::to_string(i) + "].";
        f.add(p + "t", std::int64_t{s.t});
        f.add(p + "send.count", s.send.count);
        f.add(p + "send.meanNs", s.send.meanNs);
        f.add(p + "send.varianceNs2", s.send.varianceNs2);
        f.add(p + "recv.count", s.recv.count);
        f.add(p + "recv.meanNs", s.recv.meanNs);
        f.add(p + "recv.varianceNs2", s.recv.varianceNs2);
        f.add(p + "rpsObsv", s.rpsObsv);
        f.add(p + "pollCount", s.pollCount);
        f.add(p + "pollMeanDurNs", s.pollMeanDurNs);
        f.add(p + "saturated", s.saturated);
        f.add(p + "slack", s.slack);
        addHealth(f, p + "health.", s.health);
        f.add(p + "runqCount", s.runqCount);
        f.add(p + "runqP99Ns", s.runqP99Ns);
    }
    const fault::FaultCounts &fc = r.faultCounts;
    const std::pair<const char *, std::uint64_t> faults[] = {
        {"eintr", fc.eintr},
        {"eagain", fc.eagain},
        {"partialOps", fc.partialOps},
        {"spuriousWakeups", fc.spuriousWakeups},
        {"mapUpdateFails", fc.mapUpdateFails},
        {"ringbufDrops", fc.ringbufDrops},
        {"attachFails", fc.attachFails},
        {"probeMisses", fc.probeMisses},
        {"linkFlapHolds", fc.linkFlapHolds},
        {"connResets", fc.connResets},
        {"agentCrashes", fc.agentCrashes},
        {"samplerStalls", fc.samplerStalls},
        {"mapWipes", fc.mapWipes},
        {"synFloodConns", fc.synFloodConns},
        {"backlogOverflows", fc.backlogOverflows},
        {"retransmitDrops", fc.retransmitDrops},
        {"schedDelays", fc.schedDelays},
    };
    for (const auto &[name, v] : faults)
        f.add(std::string("faultCounts.") + name, v);
    addHealth(f, "agentHealth.", r.agentHealth);
    f.add("probeMapUpdateFails", r.probeMapUpdateFails);
    f.add("probeRingbufDrops", r.probeRingbufDrops);
    const core::SupervisorStats &ss = r.supervisorStats;
    f.add("supervisor.crashes", ss.crashes);
    f.add("supervisor.stallsDetected", ss.stallsDetected);
    f.add("supervisor.restarts", ss.restarts);
    f.add("supervisor.failedStarts", ss.failedStarts);
    f.add("supervisor.mapWipes", ss.mapWipes);
    f.add("supervisor.checkpoints", ss.checkpoints);
    f.add("supervisor.restores", ss.restores);
    f.add("supervisor.circuitOpen", ss.circuitOpen);
    f.add("supervisor.downtime", std::int64_t{ss.downtime});
    const net::FrontDoorCounts &c = r.frontDoorCounts;
    const std::pair<const char *, std::uint64_t> door[] = {
        {"syns", c.syns},
        {"ingressDrops", c.ingressDrops},
        {"synQueueOverflows", c.synQueueOverflows},
        {"backlogOverflows", c.backlogOverflows},
        {"budgetDrops", c.budgetDrops},
        {"shedDrops", c.shedDrops},
        {"retransmits", c.retransmits},
        {"accepted", c.accepted},
        {"failed", c.failed},
        {"lorisReaped", c.lorisReaped},
        {"floodSyns", c.floodSyns},
    };
    for (const auto &[name, v] : door)
        f.add(std::string("frontDoor.") + name, v);
    f.add("frontDoorAcceptP50Ns", r.frontDoorAcceptP50Ns);
    f.add("frontDoorAcceptP99Ns", r.frontDoorAcceptP99Ns);
    f.add("stormEstablished", r.stormEstablished);
    f.add("stormFailed", r.stormFailed);
    f.add("stormConnP99Ns", r.stormConnP99Ns);
    return f;
}

Fields
fieldsOf(const core::ClusterExperimentResult &r)
{
    Fields f;
    f.addLines(test::clusterBytes(r));
    return f;
}

void
expectSameFields(const Fields &want, const Fields &got, ExecEngine engine)
{
    const auto &a = want.lines();
    const auto &b = got.lines();
    EXPECT_EQ(a.size(), b.size()) << engineName(engine);
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        ASSERT_EQ(a[i], b[i])
            << engineName(engine) << " differs from the reference engine";
    }
}

/**
 * Run @p config under every engine; all must match the oracle, whose
 * result is returned so callers can check the run did real work.
 */
template <typename Config, typename Run>
auto
expectEnginesAgree(Config config, Run run)
{
    config.agent.runtime.engine = kEngines[0];
    const auto oracle = run(config);
    const Fields want = fieldsOf(oracle);
    for (std::size_t i = 1; i < std::size(kEngines); ++i) {
        config.agent.runtime.engine = kEngines[i];
        expectSameFields(want, fieldsOf(run(config)), kEngines[i]);
    }
    return oracle;
}

core::ExperimentResult
runOne(const core::ExperimentConfig &c)
{
    return core::runExperiment(c);
}

core::ClusterExperimentResult
runCluster(const core::ClusterExperimentConfig &c)
{
    return core::runClusterExperiment(c);
}

TEST(EngineDifferential, FigureSweepPoint)
{
    core::ExperimentConfig base;
    base.workload = workload::workloadByName("img-dnn");
    base.seed = 5;
    core::SweepScaling scaling;
    scaling.minRequests = 1500;
    scaling.maxRequests = 3000;
    scaling.scaleWarmup = true;
    scaling.scaleSampling = true;
    const auto r =
        expectEnginesAgree(core::sweepPointConfig(base, 0.6, scaling), runOne);
    EXPECT_GT(r.probeEvents, 0u);
    EXPECT_FALSE(r.samples.empty());
}

TEST(EngineDifferential, StormWithFrontDoor)
{
    core::ExperimentConfig cfg;
    cfg.workload = workload::workloadByName("data-caching");
    cfg.workload.saturationRps =
        std::min(cfg.workload.saturationRps, 4000.0);
    cfg.offeredRps = 0.5 * cfg.workload.saturationRps;
    cfg.requests = 2000;
    cfg.seed = 9;
    cfg.frontDoor.enabled = true;
    cfg.frontDoor.listener.synQueueDepth = 4;
    cfg.frontDoor.listener.acceptBacklog = 4;
    cfg.frontDoor.stormEnabled = true;
    cfg.frontDoor.storm.connRps = 2000.0;
    cfg.frontDoor.storm.lorisFraction = 0.3;
    cfg.frontDoor.storm.lorisHold = sim::milliseconds(100);
    const auto r = expectEnginesAgree(cfg, runOne);
    EXPECT_GT(r.probeEvents, 0u);
    EXPECT_GT(r.stormEstablished, 0u);
    EXPECT_GT(r.frontDoorCounts.retransmits, 0u);
}

TEST(EngineDifferential, ColocationCluster)
{
    core::ClusterExperimentConfig cfg;
    for (const char *name : {"img-dnn", "xapian"}) {
        core::ClusterTenantSpec t;
        t.workload = workload::workloadByName(name);
        t.offeredRps = 400.0;
        t.requests = 800;
        cfg.tenants.push_back(std::move(t));
    }
    cfg.machines = 2;
    cfg.netem.delay = sim::microseconds(150);
    cfg.netem.jitter = sim::microseconds(30);
    cfg.agent.heavyHitterSketch = true;
    cfg.seed = 21;
    const auto r = expectEnginesAgree(cfg, runCluster);
    EXPECT_GT(r.probeEvents, 0u);
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_EQ(r.tenants[0].machines.size(), 2u);
    EXPECT_FALSE(r.tenants[0].fleetSeries.empty());
}

TEST(EngineDifferential, DiscreteSchedulerRunqlatCluster)
{
    core::ClusterExperimentConfig cfg;
    for (const char *name : {"img-dnn", "xapian"}) {
        core::ClusterTenantSpec t;
        t.workload = workload::workloadByName(name);
        t.offeredRps = 0.25 * t.workload.saturationRps;
        t.requests = 800;
        cfg.tenants.push_back(std::move(t));
    }
    cfg.machines = 1;
    cfg.sched = kernel::SchedModel::Discrete;
    cfg.antagonist = true;
    cfg.antagonistConfig.threads = 48;
    cfg.agent.minWindowSyscalls = 64;
    cfg.agent.runqlatHistogram = true;
    cfg.seed = 13;
    const auto r = expectEnginesAgree(cfg, runCluster);
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_GT(r.tenants[0].runqP99Ns, 0.0);
}

TEST(EngineDifferential, SupervisedChaosRun)
{
    core::ExperimentConfig cfg;
    cfg.workload = workload::workloadByName("data-caching");
    cfg.workload.saturationRps =
        std::min(cfg.workload.saturationRps, 4000.0);
    cfg.offeredRps = 0.7 * cfg.workload.saturationRps;
    cfg.requests = 3000;
    cfg.seed = 17;
    cfg.supervised = true;
    cfg.fault.eintrProbability = 0.02;
    cfg.fault.mapUpdateFailProbability = 0.01;
    cfg.fault.ringbufDropProbability = 0.01;
    cfg.fault.probeMissProbability = 0.02;
    cfg.fault.clockJitterNs = 500;
    cfg.fault.agentCrashMtbf = sim::milliseconds(300);
    cfg.supervisor.restartBackoffInitial = sim::milliseconds(50);
    cfg.supervisor.restartBackoffMax = sim::milliseconds(200);
    const auto r = expectEnginesAgree(cfg, runOne);
    EXPECT_GT(r.supervisorStats.restarts, 0u);
    EXPECT_GT(r.faultCounts.probeMisses, 0u);
    EXPECT_GT(r.faultCounts.mapUpdateFails, 0u);
}

} // namespace
} // namespace reqobs
