#include "core/cluster.hh"

#include <algorithm>
#include <memory>
#include <tuple>

#include "client/fleet_generator.hh"
#include "core/parallel.hh"
#include "core/profile.hh"
#include "net/channel.hh"
#include "sim/logging.hh"

namespace reqobs::core {

bool
isDegenerateCluster(const ClusterExperimentConfig &config)
{
    const bool uniform_speed =
        config.machineSpeedFactors.empty() ||
        (config.machineSpeedFactors.size() == 1 &&
         config.machineSpeedFactors[0] == 1.0);
    // A discrete-sched config is never degenerate: runExperiment() has
    // no scheduler knob to carry it through.
    return config.machines == 1 && config.tenants.size() == 1 &&
           config.tenants[0].loadProfile.empty() && !config.antagonist &&
           !config.controller.enabled && uniform_speed &&
           config.sched == kernel::SchedModel::Gps;
}

sim::Tick
clusterLookahead(const ClusterExperimentConfig &config)
{
    return net::TcpPipe::minLatency(config.netem);
}

namespace {

/**
 * Lift a single-machine ExperimentResult into the cluster shape. Used
 * on the degenerate path so runClusterExperiment() is runExperiment()
 * plus relabelling, never a parallel implementation that could drift.
 */
ClusterExperimentResult
liftDegenerate(const ClusterExperimentConfig &config,
               const ExperimentResult &res)
{
    ClusterExperimentResult out;
    ClusterTenantResult t;
    t.name = config.tenants[0].workload.name;
    t.offeredRps = res.offeredRps;
    t.achievedRps = res.achievedRps;
    t.observedRps = res.observedRps;
    t.completed = res.completed;
    t.p50Ns = res.p50Ns;
    t.p95Ns = res.p95Ns;
    t.p99Ns = res.p99Ns;
    t.qosViolated = res.qosViolated;

    TenantMachineResult m;
    m.observedRps = res.observedRps;
    m.achievedRps = res.achievedRps;
    m.completed = res.completed;
    m.sendVarNs2 = res.sendVarNs2;
    m.pollMeanDurNs = res.pollMeanDurNs;
    // The single-tenant agent doesn't expose its cumulative map counter
    // through ExperimentResult; the windowed sum is the close equivalent.
    for (const MetricsSample &s : res.samples)
        m.probeSendSyscalls += s.send.count;
    m.kernelSyscalls = res.syscalls;
    m.samples = res.samples.size();
    t.machines.push_back(m);

    if (!res.samples.empty()) {
        FleetAggregator agg(1, std::max<sim::Tick>(
                                   1, config.agent.samplePeriod));
        agg.addSeries(0, res.samples);
        t.fleetSeries = agg.merged();
    }

    out.fleetOfferedRps = res.offeredRps;
    out.fleetAchievedRps = res.achievedRps;
    out.fleetObservedRps = res.observedRps;
    out.syscalls = res.syscalls;
    out.probeEvents = res.probeEvents;
    out.probeInsns = res.probeInsns;
    out.probeCostNs = res.probeCostNs;
    out.tenants.push_back(std::move(t));
    return out;
}

/**
 * The cluster engine (DESIGN.md §13): one construction, one run loop,
 * one result collection, over 1 or M+1 simulation domains.
 *
 * The serial engine is the one-domain case: every machine and the
 * client population share a single Simulation, no fork source is
 * installed, and the run loop executes one window up to the horizon.
 * The parallel engine (clusterParallel, when eligible) places machine m
 * on domain m and the whole client population on domain M, each with
 * its own event queue and virtual clock. The only cross-domain
 * interaction is message delivery through TcpPipes, whose send() side
 * computes the complete delivery timing (netem verdicts, RTO waits,
 * in-order bump) before the message leaves the sender — so a domain can
 * safely run ahead as long as no message from another domain could
 * still arrive, i.e. for one lookahead L = min cross-domain latency.
 *
 * Execution alternates lookahead windows and barriers: every domain
 * runs its events with tick < W on the shared worker pool, then the
 * barrier (single-threaded, after the pool's happens-before hand-off)
 * drains every channel and injects the buffered deliveries into the
 * destination queues in the canonical (arrival, sent, sender domain,
 * send seq) order. A message sent at tick s arrives at >= s + L >= W,
 * so injections never land behind a destination's executed prefix.
 *
 * Determinism: both engines run the same construction sequence, and
 * with M+1 domains every sim's forkRng() is routed through ONE shared
 * master seeded like the serial Simulation — so all random streams are
 * bit-identical to the serial engine's. Window boundaries are pure
 * functions of queue state, never of thread scheduling, which makes
 * results independent of worker count (and byte-identical to the serial
 * engine whenever no injected delivery collides with an unrelated event
 * on the exact same nanosecond tick).
 */
ClusterExperimentResult
runDomainEngine(const ClusterExperimentConfig &config)
{
    // Conservative synchronisation needs a nonzero lookahead (jitter >=
    // delay admits same-tick cross-domain delivery), and the controller
    // reads agent state across domains every period, which the window
    // protocol does not order — both run on one domain.
    const sim::Tick lookahead = clusterLookahead(config);
    const bool parallel = config.clusterParallel &&
                          !config.controller.enabled && lookahead > 0;
    const std::size_t domains = parallel ? config.machines + 1 : 1;
    const std::size_t client_domain = domains - 1;
    auto domainOf = [parallel](unsigned m) -> std::size_t {
        return parallel ? m : 0;
    };

    // With M+1 domains, all construction-time forks route through one
    // master stream in construction order; Simulation(seed) seeds its
    // private master exactly like this. One domain forks from its own.
    sim::Rng master(config.seed);
    std::vector<std::unique_ptr<sim::Simulation>> sims;
    sims.reserve(domains);
    for (std::size_t d = 0; d < domains; ++d) {
        sims.push_back(std::make_unique<sim::Simulation>(config.seed));
        if (parallel)
            sims.back()->setForkSource(&master);
    }
    sim::Simulation &csim = *sims[client_domain];

    // Machines first (each owns a Kernel), machine-major tenant
    // placement after — the RNG fork order is part of the contract.
    std::vector<std::unique_ptr<workload::Machine>> machines;
    machines.reserve(config.machines);
    std::vector<sim::Simulation *> backend_sims;
    backend_sims.reserve(config.machines);
    for (unsigned m = 0; m < config.machines; ++m) {
        kernel::KernelConfig kc;
        kc.cpu = config.system.toCpuConfig();
        kc.cpu.sched = config.sched;
        if (config.schedQuantum > 0)
            kc.cpu.quantum = config.schedQuantum;
        if (!config.machineSpeedFactors.empty())
            kc.cpu.speed *= config.machineSpeedFactors[m];
        backend_sims.push_back(sims[domainOf(m)].get());
        machines.push_back(
            std::make_unique<workload::Machine>(*backend_sims.back(), kc));
    }
    for (auto &machine : machines) {
        for (const ClusterTenantSpec &t : config.tenants)
            machine->addTenant(t.workload);
        if (config.antagonist)
            machine->addAntagonist(config.antagonistConfig);
    }

    // One load-balanced client population per tenant.
    std::vector<std::unique_ptr<client::FleetLoadGenerator>> gens;
    gens.reserve(config.tenants.size());
    sim::Tick max_qos = 0;
    double max_offered_seconds = 0.0;
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
        const ClusterTenantSpec &spec = config.tenants[t];
        std::vector<workload::ServerApp *> backends;
        backends.reserve(machines.size());
        for (auto &machine : machines)
            backends.push_back(&machine->tenant(t));
        client::ClientConfig cc;
        cc.offeredRps = spec.offeredRps;
        cc.maxRequests = spec.requests;
        cc.warmup = config.warmup;
        cc.qosLatency = config.qosLatency > 0
                            ? config.qosLatency
                            : defaultQosLatency(spec.workload, config.netem);
        max_qos = std::max(max_qos, cc.qosLatency);
        max_offered_seconds =
            std::max(max_offered_seconds,
                     static_cast<double>(spec.requests) / spec.offeredRps);
        gens.push_back(std::make_unique<client::FleetLoadGenerator>(
            csim, std::move(backends), backend_sims, config.netem,
            config.tcp, cc, config.lbPolicy));
    }

    // Offered-load schedules (diurnal curves, flash crowds). Phases are
    // scheduled up front; an empty profile schedules nothing, keeping the
    // constant-rate path untouched.
    double min_load_factor = 1.0;
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
        const ClusterTenantSpec &spec = config.tenants[t];
        client::FleetLoadGenerator *gen = gens[t].get();
        for (const LoadPhase &phase : spec.loadProfile) {
            min_load_factor = std::min(min_load_factor, phase.factor);
            const double rps = spec.offeredRps * phase.factor;
            csim.scheduleAt(phase.at,
                            [gen, rps] { gen->setOfferedRps(rps); });
        }
    }

    // One multi-tenant agent per machine: one probe set, T stats slots.
    std::vector<std::unique_ptr<MultiTenantAgent>> agents;
    if (config.attachAgents) {
        agents.reserve(machines.size());
        for (auto &machine : machines) {
            std::vector<TenantBinding> bindings;
            bindings.reserve(config.tenants.size());
            for (std::size_t t = 0; t < config.tenants.size(); ++t) {
                TenantBinding b;
                b.name = config.tenants[t].workload.name;
                b.tgid = machine->tenant(t).frontPid();
                b.profile = profileFor(config.tenants[t].workload);
                bindings.push_back(std::move(b));
            }
            agents.push_back(std::make_unique<MultiTenantAgent>(
                machine->kernel(), std::move(bindings), config.agent));
        }
    }

    // Closed-loop controller (disabled by default: nothing below runs,
    // nothing is scheduled, existing runs are bit-identical). Enabled,
    // it forces one domain, so csim is the whole cluster's simulation.
    std::unique_ptr<FleetController> controller;
    if (config.controller.enabled) {
        // Pre-provision scalable worker pools before the machines start:
        // workers cannot be spawned mid-run, only parked and unparked.
        for (auto &machine : machines)
            for (std::size_t t = 0; t < config.tenants.size(); ++t)
                if (config.tenants[t].workload.model ==
                    workload::ThreadingModel::DispatcherWorkers)
                    machine->tenant(t).enableWorkerScaling(
                        config.controller.maxWorkers);

        FleetActuators act;
        act.setShed = [&gens](std::size_t t, double p, sim::Tick retry) {
            gens[t]->setAdmission(p, retry);
        };
        act.setDrained = [&gens](std::size_t m, bool drained) {
            for (auto &gen : gens)
                gen->balancer().setDrained(m, drained);
        };
        act.setWorkerTarget = [&machines, &config](std::size_t m,
                                                   unsigned workers) {
            // setWorkerTarget is a no-op on non-DispatcherWorkers apps.
            for (std::size_t t = 0; t < config.tenants.size(); ++t)
                machines[m]->tenant(t).setWorkerTarget(workers);
        };
        controller = std::make_unique<FleetController>(
            csim, config.controller, config.machines, config.tenants.size(),
            std::move(act));
        controller->setInputProvider([&agents, &config] {
            std::vector<ControllerInput> inputs;
            inputs.reserve(agents.size() * config.tenants.size());
            for (std::size_t m = 0; m < agents.size(); ++m) {
                for (std::size_t t = 0; t < config.tenants.size(); ++t) {
                    const MetricChain &tm = agents[m]->tenant(t);
                    ControllerInput in;
                    in.machine = m;
                    in.tenant = t;
                    if (!tm.samples().empty()) {
                        const MetricsSample &s = tm.samples().back();
                        in.t = s.t;
                        in.slack = s.slack;
                        in.saturated = s.saturated;
                        in.sendCount = s.send.count;
                        in.degraded = s.health.degraded();
                        in.varianceRatio = tm.saturation().varianceRatio();
                    }
                    inputs.push_back(in);
                }
            }
            return inputs;
        });
    }

    // Construction (and therefore forking) is complete; a late fork from
    // a domain thread would race on the shared master, so cut it off.
    for (auto &s : sims)
        s->setForkSource(nullptr);

    // Switch every cross-domain pipe into envelope mode. One channel per
    // pipe direction; send-order stamps come from a per-sender-domain
    // counter shared by all of that domain's channels. A link whose two
    // ends share a domain (every link, with one domain) stays direct.
    std::vector<std::uint64_t> send_seq(domains, 0);
    std::vector<std::unique_ptr<net::CrossDomainChannel>> channels;
    for (std::size_t t = 0; t < gens.size(); ++t) {
        for (unsigned m = 0; m < config.machines; ++m) {
            if (domainOf(m) == client_domain)
                continue;
            for (std::size_t i = 0; i < gens[t]->linkCount(m); ++i) {
                net::Link &link = gens[t]->link(m, i);
                channels.push_back(
                    std::make_unique<net::CrossDomainChannel>(
                        client_domain, m, &send_seq[client_domain]));
                link.upPipe().setRemote(channels.back().get());
                channels.push_back(
                    std::make_unique<net::CrossDomainChannel>(
                        m, client_domain, &send_seq[m]));
                link.downPipe().setRemote(channels.back().get());
            }
        }
    }

    for (auto &machine : machines)
        machine->start();
    for (auto &agent : agents)
        agent->start();
    for (auto &gen : gens)
        gen->start();
    if (controller)
        controller->start();

    // A load profile stretches the arrival schedule by up to the inverse
    // of its lowest factor (the budget drains slowest at the trough).
    // Shed-retry backoff can hold the last admitted requests for seconds.
    const sim::Tick horizon =
        runHorizon(config.warmup, max_offered_seconds / min_load_factor,
                   max_qos, config.netem) +
        (config.controller.enabled ? sim::seconds(4) : 0);

    // Conservative time advance: no event below `earliest` exists
    // anywhere, so no message can arrive anywhere before earliest + L —
    // every domain may run freely up to (exclusive) that bound. The
    // bound is horizon + 1 because runUntil(horizon) still executes
    // events at exactly the horizon tick. One domain receives no
    // messages, so its single window runs straight to the bound.
    const sim::Tick bound = horizon + 1;
    const sim::Tick step = parallel ? lookahead : bound;
    const unsigned workers =
        resolveWorkerCount(config.clusterWorkers, domains);
    std::uint64_t windows = 0;
    std::uint64_t messages = 0;
    struct Injection
    {
        net::CrossDomainEnvelope env;
        net::CrossDomainChannel *channel = nullptr;
    };
    std::vector<Injection> pending;
    for (;;) {
        sim::Tick earliest = sim::kTickMax;
        for (auto &s : sims)
            earliest = std::min(earliest, s->nextEventTick());
        if (earliest >= bound)
            break;
        const sim::Tick wend = std::min<sim::Tick>(bound, earliest + step);
        poolRun(domains, workers,
                [&](std::size_t d) { sims[d]->runWindow(wend); });
        ++windows;

        pending.clear();
        for (auto &ch : channels) {
            if (ch->empty())
                continue;
            for (net::CrossDomainEnvelope &env : ch->drain())
                pending.push_back({std::move(env), ch.get()});
        }
        std::sort(pending.begin(), pending.end(),
                  [](const Injection &a, const Injection &b) {
                      return std::make_tuple(a.env.arrival, a.env.sent,
                                             a.channel->senderDomain(),
                                             a.env.seq) <
                             std::make_tuple(b.env.arrival, b.env.sent,
                                             b.channel->senderDomain(),
                                             b.env.seq);
                  });
        for (Injection &inj : pending) {
            net::TcpPipe *pipe = inj.channel->pipe();
            sims[inj.channel->destDomain()]->scheduleAt(
                inj.env.arrival,
                [pipe, msg = std::move(inj.env.msg)]() mutable {
                    pipe->deliverRemote(std::move(msg));
                });
            ++messages;
        }
    }
    // Every event up to the horizon has run; this only advances each
    // clock to the horizon.
    for (auto &s : sims)
        s->runUntil(horizon);

    ClusterExperimentResult out;
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
        const client::FleetLoadGenerator &gen = *gens[t];
        ClusterTenantResult tr;
        tr.name = config.tenants[t].workload.name;
        tr.offeredRps = config.tenants[t].offeredRps;
        tr.achievedRps = gen.achievedRps();
        tr.completed = gen.completed();
        tr.p50Ns = gen.latencies().p50();
        tr.p95Ns = gen.latencies().p95();
        tr.p99Ns = gen.latencies().p99();
        tr.qosViolated = gen.qosViolated();
        tr.arrivals = gen.arrivals();
        tr.shedded = gen.shedded();
        tr.shedDropped = gen.shedDropped();

        FleetAggregator agg(config.machines,
                            std::max<sim::Tick>(
                                1, config.agent.samplePeriod));
        for (unsigned m = 0; m < config.machines; ++m) {
            TenantMachineResult mr;
            mr.achievedRps = gen.backendAchievedRps(m);
            mr.completed = gen.backendCompleted(m);
            mr.kernelSyscalls =
                machines[m]->kernel().syscallCountFor(
                    machines[m]->tenant(t).frontPid());
            if (!agents.empty()) {
                const MultiTenantAgent &agent = *agents[m];
                mr.observedRps = agent.overallObservedRps(t);
                mr.sendVarNs2 = agent.overallSendVariance(t);
                mr.pollMeanDurNs = agent.overallPollMeanDurationNs(t);
                mr.probeSendSyscalls = agent.sendSyscalls(t);
                mr.samples = agent.tenant(t).samples().size();
                mr.runqP99Ns = agent.overallRunqP99Ns(t);
                agg.addSeries(m, agent.tenant(t).samples());
                tr.observedRps += mr.observedRps;
                tr.runqP99Ns = std::max(tr.runqP99Ns, mr.runqP99Ns);
            }
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
    if (controller) {
        controller->stop();
        out.controller = controller->stats();
    }
    for (auto &agent : agents) {
        out.probeEvents += agent->runtime().eventsProcessed();
        out.probeInsns += agent->runtime().insnsInterpreted();
        out.probeCostNs += agent->runtime().totalProbeCost();
        agent->stop();
    }
    for (auto &gen : gens)
        gen->stop();

    // Engine telemetry describes the parallel engine only; the serial
    // engine reports zeros.
    if (parallel) {
        out.engineParallel = true;
        out.lookaheadNs = lookahead;
        out.barrierWindows = windows;
        out.crossDomainMessages = messages;
    }
    return out;
}

} // namespace

ClusterExperimentResult
runClusterExperiment(const ClusterExperimentConfig &config)
{
    if (config.tenants.empty())
        sim::fatal("runClusterExperiment: need at least one tenant");
    if (config.machines == 0)
        sim::fatal("runClusterExperiment: need at least one machine");
    if (!config.machineSpeedFactors.empty() &&
        config.machineSpeedFactors.size() != config.machines)
        sim::fatal("runClusterExperiment: machineSpeedFactors size mismatch");
    for (const ClusterTenantSpec &t : config.tenants) {
        if (t.offeredRps <= 0.0)
            sim::fatal("runClusterExperiment: tenant offeredRps must be set");
        for (const LoadPhase &p : t.loadProfile)
            if (p.factor <= 0.0)
                sim::fatal("runClusterExperiment: load factor must be > 0");
    }
    if (config.controller.enabled && !config.attachAgents)
        sim::fatal("runClusterExperiment: the controller needs agents");

    if (isDegenerateCluster(config)) {
        ExperimentConfig single;
        single.workload = config.tenants[0].workload;
        single.system = config.system;
        single.netem = config.netem;
        single.tcp = config.tcp;
        single.offeredRps = config.tenants[0].offeredRps;
        single.requests = config.tenants[0].requests;
        single.warmup = config.warmup;
        single.qosLatency = config.qosLatency;
        single.seed = config.seed;
        single.attachAgent = config.attachAgents;
        single.agent = config.agent;
        return liftDegenerate(config, runExperiment(single));
    }

    return runDomainEngine(config);
}

std::vector<ClusterExperimentResult>
runClusterExperimentsParallel(
    const std::vector<ClusterExperimentConfig> &configs, unsigned threads)
{
    // Same worker pool and REQOBS_JOBS semantics as every other parallel
    // harness: one process-wide thread budget. A clusterParallel run
    // inside this batch runs its windows inline on its pool worker.
    std::vector<ClusterExperimentResult> out(configs.size());
    poolRun(configs.size(), resolveWorkerCount(threads, configs.size()),
            [&](std::size_t i) { out[i] = runClusterExperiment(configs[i]); });
    return out;
}

} // namespace reqobs::core
