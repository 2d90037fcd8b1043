/**
 * @file
 * Host-time benchmark of the whole simulator (see README.md).
 *
 *   perfbench --workload fig-sweep|fleet-runq|storm-door --seed N
 *             --seconds S --trace 0|1
 *
 * Untraced (--trace 0): repeats passes of the workload through the
 * library's public entry points (core::runExperiment,
 * core::runClusterExperiment) for S seconds and reports the median pass
 * wall time; separately builds every run's stack up to its first
 * simulated event several times and reports the median set-up time.
 *
 * Traced (--trace 1): alternates passes that build each run's stack from
 * the public classes (Machine, LoadGenerator, StormGenerator,
 * FleetLoadGenerator, ObservabilityAgent, MultiTenantAgent), timing and
 * counting at their boundaries, with plain public-entry-point passes. The
 * self-built results must hash equal to the entry point's, so the
 * instrumentation provably changes no simulated statistic.
 *
 * Every simulation run is checked (invariants here, recorded digests in
 * run.py). The last stdout line is one JSON object for run.py.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "client/fleet_generator.hh"
#include "client/load_generator.hh"
#include "client/storm_generator.hh"
#include "core/cluster.hh"
#include "core/experiment.hh"
#include "core/fleet.hh"
#include "core/profile.hh"
#include "core/tenant_metrics.hh"
#include "ebpf/runtime.hh"
#include "kernel/cpu.hh"
#include "kernel/kernel.hh"
#include "sim/simulation.hh"
#include "workload/machine.hh"
#include "workload/server_app.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace reqobs;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads. Each is generated from the seed alone; the library receives
// only the resulting configs.
// ---------------------------------------------------------------------------

enum class WorkloadId
{
    FigSweep,
    FleetRunq,
    StormDoor,
};

/** The Fig. 2 load levels, as literals so every run matches the bench. */
const std::vector<double> kFigFractions = {0.1, 0.2, 0.3, 0.4, 0.5,
                                           0.6, 0.7, 0.8, 0.9, 1.0};

/** Same values as bench::benchConfig / bench::benchScaling (Fig. 2). */
core::ExperimentConfig
figBase(const workload::WorkloadConfig &wl, std::uint64_t seed)
{
    core::ExperimentConfig cfg;
    cfg.workload = wl;
    cfg.seed = seed;
    cfg.agent.minWindowSyscalls = 512;
    return cfg;
}

core::SweepScaling
figScaling()
{
    core::SweepScaling s;
    s.requestsPerRps = 4.0;
    s.minRequests = 2500;
    s.maxRequests = 25000;
    s.scaleWarmup = true;
    s.scaleSampling = true;
    s.perLevelSeedOffset = true;
    return s;
}

std::vector<core::ExperimentConfig>
figSweepConfigs(std::uint64_t seed)
{
    std::vector<core::ExperimentConfig> out;
    for (const auto &wl : workload::paperWorkloads())
        for (double f : kFigFractions)
            out.push_back(
                core::sweepPointConfig(figBase(wl, seed), f, figScaling()));
    return out;
}

/**
 * bench_frontdoor part 1 at its top storm level: an 8-core edge host,
 * data-caching at 0.95 load on persistent connections, and a
 * 5 k conns/s short-lived storm split over two front-door listeners.
 */
core::ExperimentConfig
stormDoorConfig(std::uint64_t seed)
{
    const auto wl = workload::workloadByName("data-caching");
    core::ExperimentConfig cfg = figBase(wl, seed);
    cfg.system = kernel::amdEpyc7302();
    cfg.system.sockets = 1;
    cfg.system.coresPerSocket = 8;
    cfg.system.threadsPerCore = 1;
    cfg.offeredRps = 0.95 * wl.saturationRps;
    cfg.requests = 30000;
    cfg.warmup = sim::milliseconds(200);
    cfg.frontDoor.enabled = true;
    cfg.frontDoor.listener.serviceDemand = sim::microseconds(200);
    cfg.frontDoor.listeners = 2;
    cfg.frontDoor.stormEnabled = true;
    cfg.frontDoor.storm.connRps = 5000.0;
    cfg.frontDoor.storm.warmup = cfg.warmup;
    return cfg;
}

/**
 * Storm runs per pass, seeded seed * kStormRuns + k: one short run's
 * seed-specific amount of work would otherwise move a whole pass.
 */
constexpr unsigned kStormRuns = 4;

constexpr unsigned kFleetMachines = 4;
constexpr double kFleetLoad = 0.7;
/** Seconds of steady arrivals; the antagonist wakes halfway through. */
constexpr double kFleetArrivalSeconds = 9.0;

/**
 * bench_runqlat's scenario scaled to a fleet: 4 machines x 3 co-located
 * tenants at ~0.7 machine load, round-robin balancing, the discrete
 * scheduler with the runqlat family on, and a 48-thread antagonist on
 * every machine that switches on halfway through the arrivals.
 */
core::ClusterExperimentConfig
fleetRunqConfig(std::uint64_t seed)
{
    core::ClusterExperimentConfig cfg;
    const std::vector<std::string> names = {"img-dnn", "xapian", "silo"};
    for (const auto &name : names) {
        core::ClusterTenantSpec t;
        t.workload = workload::workloadByName(name);
        t.offeredRps = kFleetLoad * t.workload.saturationRps /
                       static_cast<double>(names.size()) * kFleetMachines;
        t.requests =
            static_cast<std::uint64_t>(t.offeredRps * kFleetArrivalSeconds);
        cfg.tenants.push_back(std::move(t));
    }
    cfg.machines = kFleetMachines;
    cfg.lbPolicy = net::LbPolicy::RoundRobin;
    cfg.sched = kernel::SchedModel::Discrete;
    cfg.agent.minWindowSyscalls = 128;
    cfg.agent.runqlatHistogram = true;
    cfg.antagonist = true;
    cfg.antagonistConfig.threads = 48;
    cfg.antagonistConfig.startAt = cfg.warmup +
        static_cast<sim::Tick>(kFleetArrivalSeconds / 2.0 * 1e9);
    cfg.seed = seed;
    return cfg;
}

// ---------------------------------------------------------------------------
// Output digests: FNV-1a over every simulated field of a result. Engine
// telemetry (how a cluster run executed) is left out; nothing hashed is a
// host time.
// ---------------------------------------------------------------------------

class Digest
{
  public:
    template <typename T>
    void add(T v)
    {
        static_assert(std::is_arithmetic_v<T>);
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 1099511628211ull;
        }
    }

    void add(const std::string &s)
    {
        add(s.size());
        for (char c : s)
            add(c);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

void
addWindow(Digest &d, const core::DeltaWindow &w)
{
    d.add(w.count);
    d.add(w.meanNs);
    d.add(w.varianceNs2);
}

void
addHealth(Digest &d, const core::AgentHealth &h)
{
    d.add(h.sendAttached);
    d.add(h.recvAttached);
    d.add(h.pollAttached);
    d.add(h.mapUpdateFails);
    d.add(h.ringbufDrops);
    d.add(h.probeMisses);
    d.add(h.staleWindows);
    d.add(h.discontinuities);
    d.add(h.lossCorrectedEvents);
    d.add(h.backoffFactor);
}

std::uint64_t
digestOf(const core::ExperimentResult &r)
{
    Digest d;
    d.add(r.offeredRps);
    d.add(r.achievedRps);
    d.add(r.observedRps);
    d.add(r.completed);
    d.add(r.p50Ns);
    d.add(r.p95Ns);
    d.add(r.p99Ns);
    d.add(r.qosViolated);
    d.add(r.sendVarNs2);
    d.add(r.recvVarNs2);
    d.add(r.pollMeanDurNs);
    d.add(r.syscalls);
    d.add(r.probeEvents);
    d.add(r.probeInsns);
    d.add(r.probeCostNs);
    d.add(r.samples.size());
    for (const core::MetricsSample &s : r.samples) {
        d.add(s.t);
        addWindow(d, s.send);
        addWindow(d, s.recv);
        d.add(s.rpsObsv);
        d.add(s.pollCount);
        d.add(s.pollMeanDurNs);
        d.add(s.saturated);
        d.add(s.slack);
        addHealth(d, s.health);
        d.add(s.runqCount);
        d.add(s.runqP99Ns);
    }
    addHealth(d, r.agentHealth);
    d.add(r.probeMapUpdateFails);
    d.add(r.probeRingbufDrops);
    const net::FrontDoorCounts &c = r.frontDoorCounts;
    for (std::uint64_t v :
         {c.syns, c.ingressDrops, c.synQueueOverflows, c.backlogOverflows,
          c.budgetDrops, c.shedDrops, c.retransmits, c.accepted, c.failed,
          c.lorisReaped, c.floodSyns})
        d.add(v);
    d.add(r.frontDoorAcceptP50Ns);
    d.add(r.frontDoorAcceptP99Ns);
    d.add(r.stormEstablished);
    d.add(r.stormFailed);
    d.add(r.stormConnP99Ns);
    return d.value();
}

std::uint64_t
digestOf(const core::ClusterExperimentResult &r)
{
    Digest d;
    d.add(r.tenants.size());
    for (const core::ClusterTenantResult &t : r.tenants) {
        d.add(t.name);
        d.add(t.offeredRps);
        d.add(t.achievedRps);
        d.add(t.observedRps);
        d.add(t.completed);
        d.add(t.p50Ns);
        d.add(t.p95Ns);
        d.add(t.p99Ns);
        d.add(t.qosViolated);
        d.add(t.arrivals);
        d.add(t.shedded);
        d.add(t.shedDropped);
        d.add(t.machines.size());
        for (const core::TenantMachineResult &m : t.machines) {
            d.add(m.observedRps);
            d.add(m.achievedRps);
            d.add(m.completed);
            d.add(m.sendVarNs2);
            d.add(m.pollMeanDurNs);
            d.add(m.probeSendSyscalls);
            d.add(m.kernelSyscalls);
            d.add(m.samples);
            d.add(m.runqP99Ns);
        }
        d.add(t.fleetSeries.size());
        for (const core::FleetSample &s : t.fleetSeries) {
            d.add(s.t);
            d.add(s.rpsObsv);
            d.add(s.varianceNs2);
            d.add(s.slack);
            d.add(s.sendCount);
            d.add(s.contributors);
            d.add(s.runqP99Ns);
        }
        d.add(t.runqP99Ns);
    }
    d.add(r.fleetOfferedRps);
    d.add(r.fleetAchievedRps);
    d.add(r.fleetObservedRps);
    d.add(r.syscalls);
    d.add(r.probeEvents);
    d.add(r.probeInsns);
    d.add(r.probeCostNs);
    return d.value();
}

// ---------------------------------------------------------------------------
// Output checks on one simulation run. Each returns the problems found.
// ---------------------------------------------------------------------------

using Problems = std::vector<std::string>;

void
require(Problems &out, bool ok, const std::string &what)
{
    if (!ok)
        out.push_back(what);
}

Problems
checkExperiment(const core::ExperimentConfig &cfg,
                const core::ExperimentResult &r)
{
    Problems p;
    for (double v : {r.achievedRps, r.observedRps, r.sendVarNs2,
                     r.recvVarNs2, r.pollMeanDurNs})
        require(p, std::isfinite(v), "non-finite estimate");
    for (const core::MetricsSample &s : r.samples)
        require(p, std::isfinite(s.rpsObsv) && std::isfinite(s.slack),
                "non-finite window estimate");
    require(p, r.completed > 0, "no request completed");
    // The generator stops sending at maxRequests, so this bounds sent.
    require(p, r.completed <= cfg.requests, "completed > requests sent");
    require(p, r.syscalls > 0 && r.probeEvents > 0, "no traced syscalls");
    require(p, r.probeMapUpdateFails == 0, "eBPF map update failed");
    require(p, r.probeRingbufDrops == 0, "eBPF ring buffer dropped");
    return p;
}

Problems
checkCluster(const core::ClusterExperimentConfig &cfg,
             const core::ClusterExperimentResult &r)
{
    Problems p;
    require(p, r.tenants.size() == cfg.tenants.size(), "tenant count");
    for (std::size_t t = 0; t < r.tenants.size(); ++t) {
        const core::ClusterTenantResult &tr = r.tenants[t];
        require(p, std::isfinite(tr.achievedRps) &&
                       std::isfinite(tr.observedRps) &&
                       std::isfinite(tr.runqP99Ns),
                "non-finite estimate");
        require(p, tr.completed > 0, "no request completed");
        require(p, tr.completed <= tr.arrivals &&
                       tr.arrivals <= cfg.tenants[t].requests,
                "completed > requests sent");
        for (const core::TenantMachineResult &m : tr.machines) {
            require(p, std::isfinite(m.observedRps) &&
                           std::isfinite(m.sendVarNs2),
                    "non-finite per-machine estimate");
            require(p, m.probeSendSyscalls <= m.kernelSyscalls,
                    "probe-attributed sends > kernel per-tgid syscalls");
        }
        for (const core::FleetSample &s : tr.fleetSeries)
            require(p, std::isfinite(s.rpsObsv) && std::isfinite(s.slack),
                    "non-finite fleet window");
    }
    require(p, r.syscalls > 0 && r.probeEvents > 0, "no traced syscalls");
    return p;
}

/** |RPS_obsv - RPS_real| / RPS_real over a run's tenants (sum, count). */
struct ErrSum
{
    double sum = 0.0;
    std::size_t n = 0;

    void add(double observed, double real)
    {
        sum += std::fabs(observed - real) / real;
        ++n;
    }
    double pct() const { return n ? 100.0 * sum / static_cast<double>(n) : 0.0; }
};

// ---------------------------------------------------------------------------
// Per-layer instrumentation, all from outside the library.
// ---------------------------------------------------------------------------

/**
 * Host time spent running attached eBPF programs. Two zero-cost C++
 * probes bracket the agent's programs on each tracepoint: fire() runs
 * probes in attach order and sums their costs, so the brackets add
 * nothing to any simulated quantity. Probes hold `this`, so the timer
 * must outlive the kernels it is armed on.
 */
class ProbeTimer
{
  public:
    ProbeTimer() = default;
    ProbeTimer(const ProbeTimer &) = delete;
    ProbeTimer &operator=(const ProbeTimer &) = delete;

    /** Before the agent attaches: open a bracket on every tracepoint. */
    void armBefore(kernel::TracepointRegistry &reg)
    {
        for (std::size_t i = 0; i < kernel::kTracepointCount; ++i) {
            const auto point = static_cast<kernel::TracepointId>(i);
            before_.push_back(
                {&reg, point, reg.attach(point, [this](const auto &) {
                     t0_ = Clock::now();
                     return sim::Tick{0};
                 })});
        }
    }

    /** After the agent attached: close brackets that hold programs. */
    void armAfter(kernel::TracepointRegistry &reg)
    {
        for (const Bracket &b : before_) {
            if (b.reg != &reg)
                continue;
            if (reg.probeCount(b.point) > 1)
                reg.attach(b.point, [this](const auto &) {
                    total_ += Clock::now() - t0_;
                    return sim::Tick{0};
                });
            else
                reg.detach(b.handle);
        }
    }

    double seconds() const
    {
        return std::chrono::duration<double>(total_).count();
    }

  private:
    struct Bracket
    {
        kernel::TracepointRegistry *reg;
        kernel::TracepointId point;
        kernel::ProbeHandle handle;
    };

    std::vector<Bracket> before_;
    Clock::time_point t0_;
    Clock::duration total_{};
};

/** One traced pass, summed over its simulation runs. */
struct LayerCounts
{
    double setupS = 0.0; ///< construction + probe load + starts
    double buildS = 0.0; ///< construction before agent start
    double loadS = 0.0;  ///< agent start(): author, verify, compile
    double runS = 0.0;   ///< Simulation::runUntil
    double execS = 0.0;  ///< inside attached eBPF programs
    std::uint64_t events = 0;
    std::uint64_t syscalls = 0;
    std::uint64_t fires = 0;
    std::uint64_t cpuDispatches = 0;
    std::uint64_t cpuPreemptions = 0;
    std::uint64_t cpuCompleted = 0;
    std::uint64_t programs = 0;
    std::uint64_t nativePrograms = 0;
    std::uint64_t probeRuns = 0;
    std::uint64_t probeInsns = 0;
    std::uint64_t mapUpdateFails = 0;
    std::uint64_t ringbufDrops = 0;
    std::uint64_t doorAccepted = 0;
    std::uint64_t doorDrops = 0;
    std::uint64_t doorRetransmits = 0;
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t stormEstablished = 0;
    std::uint64_t stormFailed = 0;
    std::uint64_t agentSamples = 0;
    std::uint64_t degradedSamples = 0;

    void addMachine(workload::Machine &m)
    {
        kernel::Kernel &k = m.kernel();
        syscalls += k.syscallCount();
        fires += k.tracepoints().firedCount();
        cpuDispatches += k.cpu().dispatches();
        cpuPreemptions += k.cpu().preemptions();
        cpuCompleted += k.cpu().completedJobs();
        if (net::FrontDoor *door = m.frontDoor()) {
            const net::FrontDoorCounts c = door->totals();
            doorAccepted += c.accepted;
            doorDrops += c.drops();
            doorRetransmits += c.retransmits;
        }
    }

    void addRuntime(const ebpf::EbpfRuntime &rt)
    {
        programs += rt.loadedPrograms();
        nativePrograms += rt.nativePrograms();
        probeRuns += rt.eventsProcessed();
        probeInsns += rt.insnsInterpreted();
        mapUpdateFails += rt.mapUpdateFails();
        ringbufDrops += rt.ringbufDrops();
    }

    void addSamples(const std::vector<core::MetricsSample> &samples)
    {
        agentSamples += samples.size();
        for (const core::MetricsSample &s : samples)
            degradedSamples += s.health.degraded() ? 1 : 0;
    }
};

/** Build-phase timestamps of one self-built run. */
struct SetupSpans
{
    Clock::time_point t0;
    double buildS = 0.0;
    double loadS = 0.0;
    double setupS = 0.0;

    void add(LayerCounts &lc) const
    {
        lc.buildS += buildS;
        lc.loadS += loadS;
        lc.setupS += setupS;
    }
};

// ---------------------------------------------------------------------------
// Self-built single-machine stack: runExperiment()'s construction, in the
// same order (the RNG fork order is part of the result), for the
// configurations these workloads use (no faults, no supervisor).
// ---------------------------------------------------------------------------

struct SingleStack
{
    // Declaration order is runExperiment()'s construction order, so the
    // implicit destructor tears down in its order too.
    std::unique_ptr<sim::Simulation> sim;
    std::unique_ptr<workload::Machine> machine;
    workload::ServerApp *app = nullptr;
    client::ClientConfig cc;
    std::unique_ptr<client::LoadGenerator> gen;
    std::vector<std::unique_ptr<client::StormGenerator>> storms;
    std::unique_ptr<core::ObservabilityAgent> agent;
    SetupSpans spans;

    /** Construct and start everything, stopping before the first event. */
    void build(const core::ExperimentConfig &cfg, ProbeTimer *timer)
    {
        spans.t0 = Clock::now();
        sim = std::make_unique<sim::Simulation>(cfg.seed);
        kernel::KernelConfig kc;
        kc.cpu = cfg.system.toCpuConfig();
        machine = std::make_unique<workload::Machine>(*sim, kc);
        app = &machine->addTenant(cfg.workload);

        cc.offeredRps = cfg.offeredRps;
        cc.maxRequests = cfg.requests;
        cc.warmup = cfg.warmup;
        cc.qosLatency = cfg.qosLatency > 0
                            ? cfg.qosLatency
                            : core::defaultQosLatency(cfg.workload, cfg.netem);
        gen = std::make_unique<client::LoadGenerator>(*sim, *app, cfg.netem,
                                                      cfg.tcp, cc);
        if (cfg.frontDoor.enabled) {
            machine->enableFrontDoor(cfg.frontDoor.door);
            const unsigned n = std::max(1u, cfg.frontDoor.listeners);
            std::vector<unsigned> ids;
            for (unsigned i = 0; i < n; ++i)
                ids.push_back(machine->addFrontDoorListener(
                    0, cfg.frontDoor.listener));
            if (cfg.frontDoor.stormEnabled) {
                for (unsigned id : ids) {
                    client::StormConfig sc = cfg.frontDoor.storm;
                    sc.connRps /= n;
                    sc.listener = id;
                    storms.push_back(
                        std::make_unique<client::StormGenerator>(
                            *sim, *machine->frontDoor(), cfg.netem, cfg.tcp,
                            sc));
                }
            }
        }
        agent = std::make_unique<core::ObservabilityAgent>(
            machine->kernel(), app->frontPid(),
            core::profileFor(cfg.workload), cfg.agent);
        machine->start();
        spans.buildS = secondsSince(spans.t0);

        kernel::TracepointRegistry &reg = machine->kernel().tracepoints();
        if (timer)
            timer->armBefore(reg);
        const Clock::time_point t_load = Clock::now();
        agent->start();
        spans.loadS = secondsSince(t_load);
        if (timer)
            timer->armAfter(reg);

        gen->start();
        for (auto &s : storms)
            s->start();
        spans.setupS = secondsSince(spans.t0);
    }

    sim::Tick horizon(const core::ExperimentConfig &cfg) const
    {
        const double offered_seconds =
            static_cast<double>(cfg.requests) / cfg.offeredRps;
        const sim::Tick grace = std::max<sim::Tick>(
            sim::milliseconds(500), 4 * cc.qosLatency + 8 * cfg.netem.delay);
        return cfg.warmup +
               static_cast<sim::Tick>(offered_seconds * 1.05 * 1e9) + grace;
    }

    /** runExperiment()'s result assembly; stops the components. */
    core::ExperimentResult collect(const core::ExperimentConfig &cfg)
    {
        core::ExperimentResult res;
        res.offeredRps = cfg.offeredRps;
        res.achievedRps = gen->achievedRps();
        res.completed = gen->completed();
        res.p50Ns = gen->latencies().p50();
        res.p95Ns = gen->latencies().p95();
        res.p99Ns = gen->latencies().p99();
        res.qosViolated = gen->qosViolated();
        res.syscalls = machine->kernel().syscallCount();
        ebpf::EbpfRuntime &rt = agent->runtime();
        res.observedRps = agent->overallObservedRps();
        res.sendVarNs2 = agent->overallSendVariance();
        res.recvVarNs2 = agent->overallRecvVariance();
        res.pollMeanDurNs = agent->overallPollMeanDurationNs();
        res.samples = agent->samples();
        res.probeEvents = rt.eventsProcessed();
        res.probeInsns = rt.insnsInterpreted();
        res.probeCostNs = rt.totalProbeCost();
        res.agentHealth = agent->health();
        res.probeMapUpdateFails = rt.mapUpdateFails();
        res.probeRingbufDrops = rt.ringbufDrops();
        agent->stop();
        if (net::FrontDoor *door = machine->frontDoor()) {
            res.frontDoorCounts = door->totals();
            for (unsigned i = 0; i < door->listenerCount(); ++i) {
                const stats::LatencyHistogram &acc = door->acceptLatencies(i);
                res.frontDoorAcceptP50Ns =
                    std::max(res.frontDoorAcceptP50Ns, acc.p50());
                res.frontDoorAcceptP99Ns =
                    std::max(res.frontDoorAcceptP99Ns, acc.p99());
            }
        }
        for (auto &s : storms) {
            res.stormEstablished += s->established();
            res.stormFailed += s->failed();
            res.stormConnP99Ns =
                std::max(res.stormConnP99Ns, s->connLatencies().p99());
            s->stop();
        }
        gen->stop();
        return res;
    }
};

/** One traced single-machine run: build, run, collect, count. */
core::ExperimentResult
tracedExperiment(const core::ExperimentConfig &cfg, LayerCounts &lc,
                 Problems &problems)
{
    ProbeTimer timer;
    SingleStack st;
    st.build(cfg, &timer);
    const Clock::time_point t_run = Clock::now();
    st.sim->runUntil(st.horizon(cfg));
    lc.runS += secondsSince(t_run);
    lc.execS += timer.seconds();
    st.spans.add(lc);
    lc.events += st.sim->executedEvents();
    lc.addMachine(*st.machine);
    lc.addRuntime(st.agent->runtime());
    lc.sent += st.gen->sent();
    lc.completed += st.gen->completed();
    require(problems, st.gen->completed() <= st.gen->sent(),
            "completed > sent");
    core::ExperimentResult res = st.collect(cfg);
    lc.addSamples(res.samples);
    lc.stormEstablished += res.stormEstablished;
    lc.stormFailed += res.stormFailed;
    return res;
}

// ---------------------------------------------------------------------------
// Self-built cluster: runClusterExperiment()'s serial engine for configs
// without controller, load profile or speed factors (fleet-runq).
// ---------------------------------------------------------------------------

struct ClusterStack
{
    // Declaration order is construction order (see SingleStack).
    std::unique_ptr<sim::Simulation> sim;
    std::vector<std::unique_ptr<workload::Machine>> machines;
    std::vector<std::unique_ptr<client::FleetLoadGenerator>> gens;
    std::vector<std::unique_ptr<core::MultiTenantAgent>> agents;
    sim::Tick maxQos = 0;
    double maxOfferedSeconds = 0.0;
    SetupSpans spans;

    void build(const core::ClusterExperimentConfig &cfg, ProbeTimer *timer)
    {
        spans.t0 = Clock::now();
        sim = std::make_unique<sim::Simulation>(cfg.seed);
        for (unsigned m = 0; m < cfg.machines; ++m) {
            kernel::KernelConfig kc;
            kc.cpu = cfg.system.toCpuConfig();
            kc.cpu.sched = cfg.sched;
            if (cfg.schedQuantum > 0)
                kc.cpu.quantum = cfg.schedQuantum;
            machines.push_back(
                std::make_unique<workload::Machine>(*sim, kc));
        }
        for (auto &machine : machines) {
            for (const core::ClusterTenantSpec &t : cfg.tenants)
                machine->addTenant(t.workload);
            if (cfg.antagonist)
                machine->addAntagonist(cfg.antagonistConfig);
        }
        for (const core::ClusterTenantSpec &spec : cfg.tenants) {
            const std::size_t t = gens.size();
            std::vector<workload::ServerApp *> backends;
            for (auto &machine : machines)
                backends.push_back(&machine->tenant(t));
            client::ClientConfig cc;
            cc.offeredRps = spec.offeredRps;
            cc.maxRequests = spec.requests;
            cc.warmup = cfg.warmup;
            cc.qosLatency =
                cfg.qosLatency > 0
                    ? cfg.qosLatency
                    : core::defaultQosLatency(spec.workload, cfg.netem);
            maxQos = std::max(maxQos, cc.qosLatency);
            maxOfferedSeconds = std::max(
                maxOfferedSeconds,
                static_cast<double>(spec.requests) / spec.offeredRps);
            gens.push_back(std::make_unique<client::FleetLoadGenerator>(
                *sim, std::move(backends), cfg.netem, cfg.tcp, cc,
                cfg.lbPolicy));
        }
        for (auto &machine : machines) {
            std::vector<core::TenantBinding> bindings;
            for (std::size_t t = 0; t < cfg.tenants.size(); ++t) {
                core::TenantBinding b;
                b.name = cfg.tenants[t].workload.name;
                b.tgid = machine->tenant(t).frontPid();
                b.profile = core::profileFor(cfg.tenants[t].workload);
                bindings.push_back(std::move(b));
            }
            agents.push_back(std::make_unique<core::MultiTenantAgent>(
                machine->kernel(), std::move(bindings), cfg.agent));
        }
        for (auto &machine : machines)
            machine->start();
        spans.buildS = secondsSince(spans.t0);

        if (timer)
            for (auto &machine : machines)
                timer->armBefore(machine->kernel().tracepoints());
        const Clock::time_point t_load = Clock::now();
        for (auto &agent : agents)
            agent->start();
        spans.loadS = secondsSince(t_load);
        if (timer)
            for (auto &machine : machines)
                timer->armAfter(machine->kernel().tracepoints());

        for (auto &gen : gens)
            gen->start();
        spans.setupS = secondsSince(spans.t0);
    }

    sim::Tick horizon(const core::ClusterExperimentConfig &cfg) const
    {
        const sim::Tick grace = std::max<sim::Tick>(
            sim::milliseconds(500), 4 * maxQos + 8 * cfg.netem.delay);
        return cfg.warmup +
               static_cast<sim::Tick>(maxOfferedSeconds * 1.05 * 1e9) + grace;
    }

    /** runClusterExperiment()'s result assembly; stops the components. */
    core::ClusterExperimentResult
    collect(const core::ClusterExperimentConfig &cfg)
    {
        core::ClusterExperimentResult out;
        for (std::size_t t = 0; t < cfg.tenants.size(); ++t) {
            const client::FleetLoadGenerator &gen = *gens[t];
            core::ClusterTenantResult tr;
            tr.name = cfg.tenants[t].workload.name;
            tr.offeredRps = cfg.tenants[t].offeredRps;
            tr.achievedRps = gen.achievedRps();
            tr.completed = gen.completed();
            tr.p50Ns = gen.latencies().p50();
            tr.p95Ns = gen.latencies().p95();
            tr.p99Ns = gen.latencies().p99();
            tr.qosViolated = gen.qosViolated();
            tr.arrivals = gen.arrivals();
            tr.shedded = gen.shedded();
            tr.shedDropped = gen.shedDropped();
            core::FleetAggregator agg(
                cfg.machines, std::max<sim::Tick>(1, cfg.agent.samplePeriod));
            for (unsigned m = 0; m < cfg.machines; ++m) {
                const core::MultiTenantAgent &agent = *agents[m];
                core::TenantMachineResult mr;
                mr.achievedRps = gen.backendAchievedRps(m);
                mr.completed = gen.backendCompleted(m);
                mr.kernelSyscalls = machines[m]->kernel().syscallCountFor(
                    machines[m]->tenant(t).frontPid());
                mr.observedRps = agent.overallObservedRps(t);
                mr.sendVarNs2 = agent.overallSendVariance(t);
                mr.pollMeanDurNs = agent.overallPollMeanDurationNs(t);
                mr.probeSendSyscalls = agent.sendSyscalls(t);
                mr.samples = agent.tenant(t).samples().size();
                mr.runqP99Ns = agent.overallRunqP99Ns(t);
                agg.addSeries(m, agent.tenant(t).samples());
                tr.observedRps += mr.observedRps;
                tr.runqP99Ns = std::max(tr.runqP99Ns, mr.runqP99Ns);
                tr.machines.push_back(mr);
            }
            tr.fleetSeries = agg.merged();
            out.fleetOfferedRps += tr.offeredRps;
            out.fleetAchievedRps += tr.achievedRps;
            out.fleetObservedRps += tr.observedRps;
            out.tenants.push_back(std::move(tr));
        }
        for (auto &machine : machines)
            out.syscalls += machine->kernel().syscallCount();
        for (auto &agent : agents) {
            out.probeEvents += agent->runtime().eventsProcessed();
            out.probeInsns += agent->runtime().insnsInterpreted();
            out.probeCostNs += agent->runtime().totalProbeCost();
            agent->stop();
        }
        for (auto &gen : gens)
            gen->stop();
        return out;
    }
};

core::ClusterExperimentResult
tracedCluster(const core::ClusterExperimentConfig &cfg, LayerCounts &lc,
              Problems &problems)
{
    ProbeTimer timer;
    ClusterStack st;
    st.build(cfg, &timer);
    const Clock::time_point t_run = Clock::now();
    st.sim->runUntil(st.horizon(cfg));
    lc.runS += secondsSince(t_run);
    lc.execS += timer.seconds();
    st.spans.add(lc);
    lc.events += st.sim->executedEvents();
    for (auto &machine : st.machines)
        lc.addMachine(*machine);
    for (auto &agent : st.agents) {
        lc.addRuntime(agent->runtime());
        for (std::size_t t = 0; t < agent->tenantCount(); ++t)
            lc.addSamples(agent->tenant(t).samples());
        require(problems, agent->runtime().mapUpdateFails() == 0,
                "eBPF map update failed");
        require(problems, agent->runtime().ringbufDrops() == 0,
                "eBPF ring buffer dropped");
    }
    for (auto &gen : st.gens) {
        lc.sent += gen->sent();
        lc.completed += gen->completed();
        require(problems, gen->completed() <= gen->sent(),
                "completed > sent");
    }
    return st.collect(cfg);
}

// ---------------------------------------------------------------------------
// Passes.
// ---------------------------------------------------------------------------

/** A workload's generated inputs. */
struct Work
{
    WorkloadId id;
    std::vector<core::ExperimentConfig> single;  ///< single-machine runs
    std::vector<core::ClusterExperimentConfig> cluster;

    std::size_t runs() const { return single.size() + cluster.size(); }
};

Work
makeWork(WorkloadId id, std::uint64_t seed)
{
    Work w{id, {}, {}};
    switch (id) {
    case WorkloadId::FigSweep:
        w.single = figSweepConfigs(seed);
        break;
    case WorkloadId::StormDoor:
        for (unsigned k = 0; k < kStormRuns; ++k)
            w.single.push_back(stormDoorConfig(seed * kStormRuns + k));
        break;
    case WorkloadId::FleetRunq:
        w.cluster.push_back(fleetRunqConfig(seed));
        break;
    }
    return w;
}

/** Outcome of one pass: per-run digests and checks, plus totals. */
struct Pass
{
    double wallS = 0.0;
    std::vector<std::uint64_t> digests;
    std::vector<bool> failed;
    std::uint64_t syscalls = 0;
    ErrSum err;
    LayerCounts layers; ///< traced passes only
};

std::string
runLabel(const Work &w, std::size_t i)
{
    if (i < w.single.size())
        return w.single[i].workload.name + "@" +
               std::to_string(w.single[i].offeredRps) + "rps";
    return "cluster";
}

/**
 * Check, hash and total one pass's results. @p extra holds problems found
 * while the runs executed, one entry per run (single runs first).
 */
void
score(Pass &p, const Work &w,
      const std::vector<core::ExperimentResult> &single,
      const std::vector<core::ClusterExperimentResult> &cluster,
      std::vector<Problems> extra)
{
    auto record = [&](std::size_t i, std::uint64_t digest, Problems probs) {
        probs.insert(probs.end(), extra[i].begin(), extra[i].end());
        p.digests.push_back(digest);
        p.failed.push_back(!probs.empty());
        for (const std::string &what : probs)
            std::fprintf(stderr, "perfbench: check failed on %s: %s\n",
                         runLabel(w, i).c_str(), what.c_str());
    };
    for (std::size_t i = 0; i < single.size(); ++i) {
        const core::ExperimentResult &r = single[i];
        record(i, digestOf(r), checkExperiment(w.single[i], r));
        p.syscalls += r.syscalls;
        p.err.add(r.observedRps, r.achievedRps);
    }
    for (std::size_t i = 0; i < cluster.size(); ++i) {
        const core::ClusterExperimentResult &r = cluster[i];
        record(single.size() + i, digestOf(r),
               checkCluster(w.cluster[i], r));
        p.syscalls += r.syscalls;
        for (const auto &t : r.tenants)
            p.err.add(t.observedRps, t.achievedRps);
    }
}

/** The public entry points, untouched: this is what wall_s times. */
Pass
plainPass(const Work &w)
{
    Pass p;
    const Clock::time_point t0 = Clock::now();
    std::vector<core::ExperimentResult> single;
    single.reserve(w.single.size());
    for (const auto &cfg : w.single)
        single.push_back(core::runExperiment(cfg));
    std::vector<core::ClusterExperimentResult> cluster;
    for (const auto &cfg : w.cluster)
        cluster.push_back(core::runClusterExperiment(cfg));
    p.wallS = secondsSince(t0);
    score(p, w, single, cluster, std::vector<Problems>(w.runs()));
    return p;
}

/** Self-built stacks with per-layer timing and counting. */
Pass
tracedPass(const Work &w)
{
    Pass p;
    std::vector<Problems> problems(w.runs());
    const Clock::time_point t0 = Clock::now();
    std::vector<core::ExperimentResult> single;
    single.reserve(w.single.size());
    for (std::size_t i = 0; i < w.single.size(); ++i)
        single.push_back(tracedExperiment(w.single[i], p.layers, problems[i]));
    std::vector<core::ClusterExperimentResult> cluster;
    for (std::size_t i = 0; i < w.cluster.size(); ++i)
        cluster.push_back(tracedCluster(w.cluster[i], p.layers,
                                        problems[w.single.size() + i]));
    p.wallS = secondsSince(t0);
    score(p, w, single, cluster, std::move(problems));
    return p;
}

/**
 * Host time to build every run's stack up to its first simulated event,
 * summed over one pass (the stacks are then torn down unrun).
 */
double
setupPass(const Work &w)
{
    double total = 0.0;
    for (const auto &cfg : w.single) {
        SingleStack st;
        st.build(cfg, nullptr);
        total += st.spans.setupS;
    }
    for (const auto &cfg : w.cluster) {
        ClusterStack st;
        st.build(cfg, nullptr);
        total += st.spans.setupS;
    }
    return total;
}

/**
 * Resident-memory high-water mark of this process image, in MiB. Read
 * from VmHWM rather than getrusage(): ru_maxrss survives exec(), so it
 * would report the launching process's footprint when that was larger.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    long kib = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1)
            break;
    std::fclose(f);
    return static_cast<double>(kib) / 1024.0;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

const char *
engineName(ebpf::ExecEngine e)
{
    switch (e) {
    case ebpf::ExecEngine::Translated:
        return "translated";
    case ebpf::ExecEngine::Reference:
        return "reference";
    case ebpf::ExecEngine::Native:
        return "native";
    }
    return "?";
}

std::string
envNote(const char *name)
{
    const char *v = std::getenv(name);
    return v ? std::string(name) + "=" + v + " (SET: changes what is measured)"
             : std::string(name) + " unset";
}

void
printContext(const Work &w)
{
    // The scheduler a workload really gets: its own choice unless
    // REQOBS_SCHED overrides every CpuModel in the process.
    kernel::CpuConfig cc;
    cc.sched = w.id == WorkloadId::FleetRunq ? kernel::SchedModel::Discrete
                                             : kernel::SchedModel::Gps;
    sim::Simulation probe_sim;
    kernel::CpuModel cpu(probe_sim, cc);
    std::printf("# nproc: %u\n", std::thread::hardware_concurrency());
    std::printf("# build: %s, flags: %s\n", PERFBENCH_BUILD_TYPE,
                PERFBENCH_CXX_FLAGS);
    std::printf("# compiler: %s\n", __VERSION__);
    std::printf("# ebpf engine: %s\n",
                engineName(ebpf::defaultExecEngine()));
    std::printf("# scheduler: %s\n",
                cpu.schedModel() == kernel::SchedModel::Discrete ? "discrete"
                                                                  : "gps");
    for (const char *name : {"REQOBS_ENGINE", "REQOBS_SCHED", "REQOBS_JOBS"})
        std::printf("# env: %s\n", envNote(name).c_str());
}

/** Ordered (name, unit, value) rows, printed as a table and as JSON. */
struct Metrics
{
    struct Row
    {
        std::string name, unit;
        double value;
    };
    std::vector<Row> rows;

    void add(const std::string &name, const std::string &unit, double v)
    {
        rows.push_back({name, unit, v});
    }
};

void
addLayerMetrics(Metrics &m, const std::vector<Pass> &traced,
                double plain_wall_s)
{
    // Counts repeat exactly across passes; times take the median.
    const LayerCounts &c = traced.front().layers;
    auto med = [&](double LayerCounts::*field) {
        std::vector<double> v;
        for (const Pass &p : traced)
            v.push_back(p.layers.*field);
        return median(v);
    };
    std::vector<double> walls;
    for (const Pass &p : traced)
        walls.push_back(p.wallS);
    const double run_s = med(&LayerCounts::runS);
    const double exec_s = med(&LayerCounts::execS);
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    m.add("sim.events", "count", n(c.events));
    m.add("sim.run_s", "s", run_s);
    m.add("sim.host_ns_per_event", "ns", ratio(run_s * 1e9, n(c.events)));
    m.add("kernel.syscalls", "count", n(c.syscalls));
    m.add("kernel.tracepoint_fires", "count", n(c.fires));
    m.add("kernel.fires_per_syscall", "ratio", ratio(n(c.fires), n(c.syscalls)));
    m.add("kernel.stack_ns_per_syscall", "ns",
          ratio((run_s - exec_s) * 1e9, n(c.syscalls)));
    m.add("cpu.dispatches", "count", n(c.cpuDispatches));
    m.add("cpu.preemptions", "count", n(c.cpuPreemptions));
    m.add("cpu.completed_jobs", "count", n(c.cpuCompleted));
    m.add("ebpf.load_s", "s", med(&LayerCounts::loadS));
    m.add("ebpf.programs", "count", n(c.programs));
    m.add("ebpf.native_programs", "count", n(c.nativePrograms));
    m.add("ebpf.native_share", "ratio",
          ratio(n(c.nativePrograms), n(c.programs)));
    m.add("ebpf.runs", "count", n(c.probeRuns));
    m.add("ebpf.insns", "count", n(c.probeInsns));
    m.add("ebpf.exec_s", "s", exec_s);
    m.add("ebpf.ns_per_run", "ns", ratio(exec_s * 1e9, n(c.probeRuns)));
    m.add("ebpf.exec_share", "ratio", ratio(exec_s, run_s));
    m.add("ebpf.map_update_fails", "count", n(c.mapUpdateFails));
    m.add("ebpf.ringbuf_drops", "count", n(c.ringbufDrops));
    m.add("net.door_accepted", "count", n(c.doorAccepted));
    m.add("net.door_drops", "count", n(c.doorDrops));
    m.add("net.door_retransmits", "count", n(c.doorRetransmits));
    m.add("client.sent", "count", n(c.sent));
    m.add("client.completed", "count", n(c.completed));
    m.add("client.completion_ratio", "ratio", ratio(n(c.completed), n(c.sent)));
    m.add("client.storm_established", "count", n(c.stormEstablished));
    m.add("client.storm_failed", "count", n(c.stormFailed));
    m.add("core.build_s", "s", med(&LayerCounts::buildS));
    m.add("core.setup_s", "s", med(&LayerCounts::setupS));
    m.add("core.agent_samples", "count", n(c.agentSamples));
    m.add("core.agent_degraded_share", "ratio",
          ratio(n(c.degradedSamples), n(c.agentSamples)));
    m.add("core.rps_obs_err_pct", "%", traced.front().err.pct());
    m.add("trace.wall_s", "s", median(walls));
    m.add("trace.overhead_pct", "%",
          100.0 * (ratio(median(walls), plain_wall_s) - 1.0));
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "fig-sweep|fleet-runq|storm-door --seed N --seconds S "
                 "--trace 0|1\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *s, const char *what)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (!*s || *s == '-' || *end != '\0' || errno == ERANGE)
        usage(what);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        if (flag == "--workload") {
            workload_name = val;
        } else if (flag == "--seed") {
            seed = parseUnsigned(val, "bad --seed");
            have_seed = true;
        } else if (flag == "--seconds") {
            seconds = static_cast<double>(
                parseUnsigned(val, "bad --seconds"));
        } else if (flag == "--trace") {
            trace = static_cast<int>(parseUnsigned(val, "bad --trace"));
        } else {
            usage("unknown argument");
        }
    }
    if (argc % 2 == 0)
        usage("arguments come in --flag value pairs");
    const std::map<std::string, WorkloadId> ids = {
        {"fig-sweep", WorkloadId::FigSweep},
        {"fleet-runq", WorkloadId::FleetRunq},
        {"storm-door", WorkloadId::StormDoor},
    };
    const auto it = ids.find(workload_name);
    if (it == ids.end())
        usage("unknown --workload");
    if (!have_seed || seconds <= 0.0 || (trace != 0 && trace != 1))
        usage("--seed, --seconds > 0 and --trace 0|1 are required");

    const Work work = makeWork(it->second, seed);
    std::printf("# workload: %s, seed %llu, %zu simulation run(s) per pass\n",
                workload_name.c_str(), static_cast<unsigned long long>(seed),
                work.runs());
    printContext(work);

    // Passes repeat until the measuring budget is spent; every pass must
    // reproduce the first pass's digests exactly.
    std::vector<Pass> plain, traced;
    std::vector<double> setups;
    constexpr std::size_t kMinPasses = 3;
    const Clock::time_point start = Clock::now();
    while (secondsSince(start) < seconds || plain.size() < kMinPasses ||
           (trace == 1 && traced.size() < kMinPasses)) {
        if (trace == 1)
            traced.push_back(tracedPass(work));
        plain.push_back(plainPass(work));
    }
    if (trace == 0) {
        // Set-up is ~1% of a pass: repeat it until the median settles.
        constexpr std::size_t kSetupReps = 15;
        const Clock::time_point s0 = Clock::now();
        while (setups.size() < kSetupReps ||
               secondsSince(s0) < 0.1 * seconds)
            setups.push_back(setupPass(work));
    }

    const std::vector<std::uint64_t> &ref = plain.front().digests;
    std::uint64_t attempted = 0, failed = 0;
    for (const std::vector<Pass> *set : {&plain, &traced}) {
        for (const Pass &p : *set) {
            for (std::size_t i = 0; i < p.digests.size(); ++i) {
                ++attempted;
                const bool same = p.digests[i] == ref[i];
                if (!same)
                    std::fprintf(stderr,
                                 "perfbench: %s digest differs from the "
                                 "first pass on %s\n",
                                 set == &traced ? "self-built" : "repeat",
                                 runLabel(work, i).c_str());
                failed += (p.failed[i] || !same) ? 1 : 0;
            }
        }
    }

    std::vector<double> walls;
    for (const Pass &p : plain)
        walls.push_back(p.wallS);
    const double wall_s = median(walls);

    Metrics m;
    if (trace == 0) {
        m.add("wall_s", "s", wall_s);
        m.add("sim_syscalls_per_s", "1/s",
              static_cast<double>(plain.front().syscalls) / wall_s);
        m.add("setup_s", "s", median(setups));
        m.add("peak_rss_mb", "MB", peakRssMb());
    } else {
        addLayerMetrics(m, traced, wall_s);
    }
    std::printf("# passes: %zu untraced, %zu traced, %zu set-up\n",
                plain.size(), traced.size(), setups.size());
    for (const std::vector<Pass> *set : {&plain, &traced}) {
        if (set->empty())
            continue;
        std::printf("# %s pass wall_s:", set == &plain ? "untraced" : "traced");
        for (const Pass &p : *set)
            std::printf(" %.3f", p.wallS);
        std::printf("\n");
    }
    for (const auto &row : m.rows)
        std::printf("%-28s %16.6g %s\n", row.name.c_str(), row.value,
                    row.unit.c_str());
    // Fixed per seed, so the digest check already guards it (README.md).
    if (trace == 0)
        std::printf("%-28s %16.6g %% (report only)\n", "rps_obs_err_pct",
                    plain.front().err.pct());

    std::printf("{\"attempted\": %llu, \"failed\": %llu, \"digests\": [",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < ref.size(); ++i)
        std::printf("%s\"%016llx\"", i ? ", " : "",
                    static_cast<unsigned long long>(ref[i]));
    std::printf("], \"passes\": %zu, \"metrics\": {", plain.size() + traced.size());
    for (std::size_t i = 0; i < m.rows.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.rows[i].name.c_str(), m.rows[i].value,
                    m.rows[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}
