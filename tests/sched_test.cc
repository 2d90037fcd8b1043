/**
 * @file
 * Discrete-dispatch scheduler suite: determinism, the GPS limit as
 * quantum -> 0, preemption ordering, sched tracepoint semantics, the
 * runqlat probe pair against an exhaustive C++ ground truth, the
 * sched-delay fault class, and end-to-end runqlat samples through a
 * discrete-sched cluster run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "core/cluster.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "fault/fault.hh"
#include "kernel/cpu.hh"
#include "kernel/kernel.hh"
#include "sim/simulation.hh"
#include "workload/config.hh"

namespace reqobs {
namespace {

using kernel::CpuConfig;
using kernel::CpuModel;
using kernel::SchedModel;

CpuConfig
discreteCpu(unsigned cores, sim::Tick quantum, double jitter = 0.0)
{
    CpuConfig cfg;
    cfg.cores = cores;
    cfg.jitterSigma = jitter;
    cfg.sched = SchedModel::Discrete;
    cfg.quantum = quantum;
    return cfg;
}

/** Recorded scheduler transition (flattened for easy comparison). */
struct Ev
{
    CpuModel::SchedEventType type;
    std::uint32_t prevTid;
    bool prevRunnable;
    std::uint32_t tid;

    bool operator==(const Ev &o) const
    {
        return type == o.type && prevTid == o.prevTid &&
               prevRunnable == o.prevRunnable && tid == o.tid;
    }
};

TEST(SchedDiscrete, SingleTaskLifecycleEvents)
{
    sim::Simulation sim;
    CpuModel cpu(sim, discreteCpu(1, sim::microseconds(200)));
    std::vector<Ev> evs;
    cpu.setSchedEventHook([&](const CpuModel::SchedEvent &e) {
        evs.push_back({e.type, e.prevTid, e.prevRunnable, e.tid});
    });
    sim::Tick done = -1;
    cpu.submit(1000, CpuModel::TaskRef{7, 77}, [&] { done = sim.now(); });
    sim.run();

    EXPECT_EQ(done, 1000);
    EXPECT_EQ(cpu.completedJobs(), 1u);
    EXPECT_EQ(cpu.dispatches(), 1u);
    EXPECT_EQ(cpu.preemptions(), 0u);
    const std::vector<Ev> want = {
        {CpuModel::SchedEventType::WakeupNew, 0, false, 7},
        {CpuModel::SchedEventType::Switch, 0, false, 7},
        {CpuModel::SchedEventType::Switch, 7, false, 0}, // to idle, done
    };
    EXPECT_EQ(evs, want);
}

TEST(SchedDiscrete, RoundRobinPreemptionOrdering)
{
    sim::Simulation sim;
    CpuModel cpu(sim, discreteCpu(1, 1000));
    std::vector<Ev> evs;
    cpu.setSchedEventHook([&](const CpuModel::SchedEvent &e) {
        evs.push_back({e.type, e.prevTid, e.prevRunnable, e.tid});
    });
    std::vector<sim::Tick> done(3, 0);
    for (std::uint32_t i = 0; i < 3; ++i)
        cpu.submit(2500, CpuModel::TaskRef{i + 1, i + 1},
                   [&, i] { done[i] = sim.now(); });
    sim.run();

    // 1000-tick round-robin over three 2500-tick tasks: two full rounds
    // of quantum-expiry preemptions, then a 500-tick finishing round.
    EXPECT_EQ(done[0], 6500);
    EXPECT_EQ(done[1], 7000);
    EXPECT_EQ(done[2], 7500);
    EXPECT_EQ(cpu.preemptions(), 6u);
    EXPECT_EQ(cpu.dispatches(), 9u);

    const std::vector<Ev> want = {
        {CpuModel::SchedEventType::WakeupNew, 0, false, 1},
        {CpuModel::SchedEventType::Switch, 0, false, 1},
        {CpuModel::SchedEventType::WakeupNew, 0, false, 2},
        {CpuModel::SchedEventType::WakeupNew, 0, false, 3},
        {CpuModel::SchedEventType::Switch, 1, true, 2}, // t=1000 preempt
        {CpuModel::SchedEventType::Switch, 2, true, 3}, // t=2000
        {CpuModel::SchedEventType::Switch, 3, true, 1}, // t=3000
        {CpuModel::SchedEventType::Switch, 1, true, 2}, // t=4000
        {CpuModel::SchedEventType::Switch, 2, true, 3}, // t=5000
        {CpuModel::SchedEventType::Switch, 3, true, 1}, // t=6000
        {CpuModel::SchedEventType::Switch, 1, false, 2}, // t=6500 done
        {CpuModel::SchedEventType::Switch, 2, false, 3}, // t=7000 done
        {CpuModel::SchedEventType::Switch, 3, false, 0}, // t=7500 idle
    };
    EXPECT_EQ(evs, want);
}

TEST(SchedDiscrete, SecondSubmitOfATidIsAWakeupNotWakeupNew)
{
    sim::Simulation sim;
    CpuModel cpu(sim, discreteCpu(1, 1000));
    std::vector<CpuModel::SchedEventType> types;
    cpu.setSchedEventHook([&](const CpuModel::SchedEvent &e) {
        types.push_back(e.type);
    });
    cpu.submit(100, CpuModel::TaskRef{5, 5}, [&] {
        cpu.submit(100, CpuModel::TaskRef{5, 5}, [] {});
    });
    sim.run();
    ASSERT_GE(types.size(), 4u);
    EXPECT_EQ(types[0], CpuModel::SchedEventType::WakeupNew);
    // The resubmit from the completion callback is a plain wakeup.
    const auto second_wake =
        std::count(types.begin(), types.end(),
                   CpuModel::SchedEventType::Wakeup);
    EXPECT_EQ(second_wake, 1);
}

TEST(SchedDiscrete, DeterminismDoubleRun)
{
    auto run = [] {
        sim::Simulation sim(42);
        CpuModel cpu(sim, discreteCpu(4, sim::microseconds(50), 0.35));
        std::vector<Ev> evs;
        std::vector<sim::Tick> done;
        cpu.setSchedEventHook([&evs](const CpuModel::SchedEvent &e) {
            evs.push_back({e.type, e.prevTid, e.prevRunnable, e.tid});
        });
        for (std::uint32_t i = 0; i < 48; ++i) {
            const sim::Tick at = static_cast<sim::Tick>(i) * 7000;
            sim.scheduleAt(at, [&, i] {
                cpu.submit(40000 + (i % 5) * 17000,
                           CpuModel::TaskRef{1 + (i % 9), 1 + (i % 9)},
                           [&done, &sim] { done.push_back(sim.now()); });
            });
        }
        sim.run();
        return std::make_tuple(evs, done, cpu.dispatches(),
                               cpu.preemptions(), cpu.servedTicks());
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(std::get<0>(a), std::get<0>(b));
    EXPECT_EQ(std::get<1>(a), std::get<1>(b));
    EXPECT_EQ(std::get<2>(a), std::get<2>(b));
    EXPECT_EQ(std::get<3>(a), std::get<3>(b));
    EXPECT_EQ(std::get<4>(a), std::get<4>(b));
    EXPECT_GT(std::get<3>(a), 0u); // the workload actually preempted
    EXPECT_EQ(std::get<1>(a).size(), 48u);
}

/**
 * The GPS limit: on one core, round-robin with quantum q deviates from
 * processor sharing by O(q), so shrinking q must shrink the worst-case
 * relative completion-time error toward zero (DESIGN.md §15).
 */
TEST(SchedDiscrete, ConvergesToGpsAsQuantumShrinks)
{
    const sim::Tick demands[] = {90000, 120000, 60000, 150000, 30000};
    const sim::Tick arrive[] = {0, 10000, 20000, 30000, 40000};

    auto completions = [&](SchedModel model, sim::Tick quantum) {
        sim::Simulation sim(3);
        CpuConfig cfg;
        cfg.cores = 1;
        cfg.jitterSigma = 0.0;
        cfg.sched = model;
        if (quantum > 0)
            cfg.quantum = quantum;
        auto cpu = std::make_shared<CpuModel>(sim, cfg);
        std::vector<double> done(5, 0.0);
        for (int i = 0; i < 5; ++i) {
            sim.scheduleAt(arrive[i], [&, i] {
                cpu->submit(demands[i],
                            CpuModel::TaskRef{
                                static_cast<std::uint32_t>(i + 1), 0},
                            [&done, &sim, i] {
                                done[i] =
                                    static_cast<double>(sim.now());
                            });
            });
        }
        sim.run();
        return done;
    };

    const std::vector<double> gps = completions(SchedModel::Gps, 0);
    for (double t : gps)
        ASSERT_GT(t, 0.0);

    auto maxRelErr = [&](sim::Tick quantum) {
        const std::vector<double> d =
            completions(SchedModel::Discrete, quantum);
        double err = 0.0;
        for (int i = 0; i < 5; ++i)
            err = std::max(err, std::abs(d[i] - gps[i]) / gps[i]);
        return err;
    };

    const double e0 = maxRelErr(25600);
    const double e1 = maxRelErr(6400);
    const double e2 = maxRelErr(1600);
    const double e3 = maxRelErr(400);
    // Convergence: the error shrinks with the quantum and lands within
    // 2% of the fluid limit at q = 400 ticks.
    EXPECT_LT(e3, e0) << "e0=" << e0 << " e1=" << e1 << " e2=" << e2
                      << " e3=" << e3;
    EXPECT_LT(e2, e0);
    EXPECT_LT(e3, 0.02) << "e3=" << e3;
}

TEST(SchedDiscrete, SchedDelayFaultDelaysSwitchIn)
{
    sim::Simulation sim(1);
    CpuModel cpu(sim, discreteCpu(1, sim::microseconds(200)));
    fault::FaultPlan plan;
    plan.schedDelayProbability = 1.0;
    plan.schedDelayNs = 500;
    fault::FaultInjector inj(plan, sim.forkRng());
    cpu.setFaultInjector(&inj);

    sim::Tick done = 0;
    cpu.submit(1000, CpuModel::TaskRef{3, 3}, [&] { done = sim.now(); });
    sim.run();

    // Switch-in delayed by the injected 500 ticks before the 1000-tick
    // slice runs.
    EXPECT_EQ(done, 1500);
    EXPECT_EQ(inj.counts().schedDelays, 1u);
    EXPECT_EQ(cpu.completedJobs(), 1u);
}

TEST(SchedDiscrete, ActiveJobsCountSurvivesEveryTransition)
{
    // Discrete counterpart of ActiveJobsAccountingSurvivesFlatStorage:
    // activeJobs() is a running count (submitted - completed -
    // cancelled), checked against a recount of the live tasks after a
    // delayed switch-in, a queued cancel, a preemption, a running
    // cancel and a completion. One core, a 100-tick quantum and a
    // 50-tick sched delay on every switch-in.
    sim::Simulation sim(1);
    CpuModel cpu(sim, discreteCpu(1, 100));
    fault::FaultPlan plan;
    plan.schedDelayProbability = 1.0;
    plan.schedDelayNs = 50;
    fault::FaultInjector inj(plan, sim.forkRng());
    cpu.setFaultInjector(&inj);
    std::uint32_t running = 0;
    cpu.setSchedEventHook([&](const CpuModel::SchedEvent &ev) {
        if (ev.type == CpuModel::SchedEventType::Switch)
            running = ev.tid;
    });

    std::vector<CpuModel::JobId> live;
    const auto submit = [&](std::uint32_t tid) {
        const CpuModel::JobId id =
            cpu.submit(300, CpuModel::TaskRef{tid, tid}, [&live, &cpu] {
                // The finished job is the one no longer counted.
                live.erase(live.begin());
                EXPECT_EQ(cpu.activeJobs(), live.size());
            });
        live.push_back(id);
        return id;
    };
    const auto cancel = [&](CpuModel::JobId id) {
        cpu.cancel(id);
        live.erase(std::find(live.begin(), live.end(), id));
    };

    const CpuModel::JobId a = submit(1);
    const CpuModel::JobId b = submit(2);
    const CpuModel::JobId c = submit(3);
    // a's switch-in is delayed: the core is reserved, a still queued.
    EXPECT_EQ(running, 0u);
    EXPECT_EQ(cpu.activeJobs(), 3u);
    cancel(c); // queued cancel
    EXPECT_EQ(cpu.activeJobs(), live.size());

    sim.runUntil(50); // a switches in
    EXPECT_EQ(running, 1u);
    EXPECT_EQ(cpu.activeJobs(), live.size());

    sim.runUntil(150); // a's quantum expires with b waiting
    EXPECT_EQ(cpu.preemptions(), 1u);
    EXPECT_EQ(cpu.activeJobs(), live.size());

    sim.runUntil(200); // b switches in after its delay
    ASSERT_EQ(running, 2u);
    cancel(b); // running cancel
    EXPECT_EQ(cpu.activeJobs(), live.size());
    EXPECT_EQ(live, (std::vector<CpuModel::JobId>{a}));

    sim.run(); // a finishes alone on the core
    EXPECT_EQ(cpu.completedJobs(), 1u);
    EXPECT_TRUE(live.empty());
    EXPECT_EQ(cpu.activeJobs(), 0u);
    EXPECT_EQ(inj.counts().schedDelays, 3u);
}

TEST(SchedDiscrete, GpsModeEmitsNoSchedEvents)
{
    sim::Simulation sim;
    CpuConfig cfg; // defaults: Gps
    cfg.jitterSigma = 0.0;
    CpuModel cpu(sim, cfg);
    std::size_t fired = 0;
    cpu.setSchedEventHook([&](const CpuModel::SchedEvent &) { ++fired; });
    for (int i = 0; i < 8; ++i)
        cpu.submit(1000, CpuModel::TaskRef{static_cast<std::uint32_t>(i),
                                           0},
                   [] {});
    sim.run();
    EXPECT_EQ(fired, 0u);
    EXPECT_EQ(cpu.dispatches(), 0u);
    EXPECT_EQ(cpu.preemptions(), 0u);
    EXPECT_EQ(cpu.completedJobs(), 8u);
}

// ---------------------------------------------------------------------
// The runqlat probe pair against an exhaustive C++ ground truth.

/** The bytecode's unrolled log2 chain: clamp(floor(log2 v), 0, 15). */
unsigned
log2Bucket(std::uint64_t v)
{
    unsigned b = 0;
    for (unsigned k = 1; k < ebpf::probes::kHistBuckets; ++k) {
        if (v < (1ull << k))
            return b;
        b = k;
    }
    return ebpf::probes::kHistBuckets - 1;
}

/**
 * Userspace replica of the runqlat pair's semantics, fed the same raw
 * tracepoint events: stamp on wakeup (all tids), re-stamp a preempted
 * prev, bucket the incoming task's wait per tenant on switch-in.
 */
struct RunqTruth
{
    std::vector<std::uint32_t> tgids;
    std::map<std::uint64_t, std::uint64_t> stamp;
    std::vector<std::array<std::uint64_t, 16>> hist;

    explicit RunqTruth(std::vector<std::uint32_t> t)
        : tgids(std::move(t)), hist(tgids.size())
    {
        for (auto &h : hist)
            h.fill(0);
    }

    void onEvent(const kernel::RawSyscallEvent &ev)
    {
        using kernel::TracepointId;
        if (ev.point == TracepointId::SchedWakeup ||
            ev.point == TracepointId::SchedWakeupNew) {
            stamp[static_cast<std::uint64_t>(ev.syscall)] =
                static_cast<std::uint64_t>(ev.timestamp);
            return;
        }
        if (ev.point != TracepointId::SchedSwitch)
            return;
        if (ev.ret == 0) // prev preempted: its next wait starts now
            stamp[static_cast<std::uint64_t>(ev.syscall)] =
                static_cast<std::uint64_t>(ev.timestamp);
        const std::uint32_t tgid =
            static_cast<std::uint32_t>(ev.pidTgid >> 32);
        std::size_t slot = tgids.size();
        for (std::size_t i = 0; i < tgids.size(); ++i)
            if (tgids[i] == tgid) {
                slot = i;
                break;
            }
        if (slot == tgids.size())
            return;
        const std::uint64_t tid = ev.pidTgid & 0xffffffffull;
        const auto it = stamp.find(tid);
        if (it == stamp.end())
            return;
        const std::uint64_t wait =
            static_cast<std::uint64_t>(ev.timestamp) - it->second;
        stamp.erase(it);
        ++hist[slot][log2Bucket(wait >> ebpf::probes::kRunqlatShift)];
    }
};

TEST(SchedRunqlat, HistogramMatchesExhaustiveGroundTruth)
{
    sim::Simulation sim(11);
    kernel::KernelConfig kc;
    kc.cpu.cores = 2;
    kc.cpu.jitterSigma = 0.0;
    kc.cpu.sched = SchedModel::Discrete;
    kc.cpu.quantum = sim::microseconds(5);
    kernel::Kernel kern(sim, kc);

    ebpf::EbpfRuntime rt(kern, {});
    ebpf::probes::TenantSet tenants;
    tenants.tgids = {1000, 2000};
    tenants.pollSyscalls = {232, 232};
    const auto maps = ebpf::probes::createRunqlatMaps(rt, 2, "runq");
    auto attach = [&](ebpf::ProgramSpec spec, kernel::TracepointId point) {
        const auto vr = rt.loadAndAttach(std::move(spec), point);
        ASSERT_TRUE(vr.ok) << vr.error;
    };
    attach(ebpf::probes::buildRunqlatWakeup(rt, maps),
           kernel::TracepointId::SchedWakeup);
    attach(ebpf::probes::buildRunqlatWakeup(rt, maps),
           kernel::TracepointId::SchedWakeupNew);
    attach(ebpf::probes::buildRunqlatSwitch(rt, tenants, maps),
           kernel::TracepointId::SchedSwitch);

    RunqTruth truth({1000, 2000});
    auto recorder = [&truth](const kernel::RawSyscallEvent &ev) {
        truth.onEvent(ev);
        return sim::Tick{0};
    };
    kern.tracepoints().attach(kernel::TracepointId::SchedWakeup, recorder);
    kern.tracepoints().attach(kernel::TracepointId::SchedWakeupNew,
                              recorder);
    kern.tracepoints().attach(kernel::TracepointId::SchedSwitch, recorder);

    // Bursty load across two tenants and an unattributed tgid on two
    // cores: deep queues, preempt re-stamps, anonymous-tid churn.
    for (std::uint32_t i = 0; i < 400; ++i) {
        const sim::Tick at = static_cast<sim::Tick>(i / 8) * 9000;
        const std::uint32_t tgid =
            i % 3 == 0 ? 1000u : (i % 3 == 1 ? 2000u : 7777u);
        const std::uint32_t tid = 1 + (i % 16);
        sim.scheduleAt(at, [&kern, i, tgid, tid] {
            kern.cpu().submit(
                2000 + (i % 7) * 3000,
                CpuModel::TaskRef{tid, kernel::makePidTgid(tgid, tid)},
                [] {});
        });
    }
    sim.run();

    std::uint64_t total = 0;
    for (std::size_t slot = 0; slot < 2; ++slot) {
        const std::vector<std::uint64_t> got =
            ebpf::probes::readHist(rt, maps.histFd, slot);
        ASSERT_EQ(got.size(), truth.hist[slot].size());
        for (std::size_t b = 0; b < got.size(); ++b) {
            EXPECT_EQ(got[b], truth.hist[slot][b])
                << "slot " << slot << " bucket " << b;
            total += got[b];
        }
    }
    // The workload really queued: multiple buckets populated.
    EXPECT_GT(total, 100u);
    EXPECT_GT(kern.cpu().preemptions(), 0u);

    // Quantile sanity on the probe's own histogram: p99 >= p50, both
    // inside the representable range.
    using ebpf::probes::kRunqlatShift;
    const auto h0 = ebpf::probes::readHist(rt, maps.histFd, 0);
    const std::uint64_t p50 =
        ebpf::probes::histQuantile(h0, 0.50, kRunqlatShift);
    const std::uint64_t p99 =
        ebpf::probes::histQuantile(h0, 0.99, kRunqlatShift);
    EXPECT_GE(p99, p50);
    EXPECT_GT(p99, 0u);
}

// ---------------------------------------------------------------------
// End to end: a discrete-sched cluster run emits the fourth family.

TEST(SchedCluster, DiscreteClusterEmitsRunqlatSamples)
{
    core::ClusterExperimentConfig cfg;
    for (const char *name : {"img-dnn", "xapian"}) {
        core::ClusterTenantSpec t;
        t.workload = workload::workloadByName(name);
        t.offeredRps = 0.5 * t.workload.saturationRps / 2.0;
        t.requests = 1500;
        cfg.tenants.push_back(std::move(t));
    }
    cfg.machines = 1;
    cfg.sched = SchedModel::Discrete;
    cfg.antagonist = true;
    cfg.antagonistConfig.threads = 48;
    cfg.agent.minWindowSyscalls = 64;
    cfg.agent.runqlatHistogram = true;
    cfg.seed = 13;

    const auto res = core::runClusterExperiment(cfg);
    ASSERT_EQ(res.tenants.size(), 2u);

    // The antagonist oversubscribes the cores, so every tenant's
    // run-queue histogram must have accumulated real waits.
    for (const auto &tr : res.tenants) {
        EXPECT_GT(tr.runqP99Ns, 0.0) << tr.name;
        ASSERT_FALSE(tr.machines.empty());
        EXPECT_GT(tr.machines[0].runqP99Ns, 0.0) << tr.name;
        bool windowed = false;
        for (const auto &s : tr.fleetSeries)
            if (s.runqP99Ns > 0.0)
                windowed = true;
        EXPECT_TRUE(windowed) << tr.name;
    }

    // Double-run determinism through the whole cluster stack.
    const auto res2 = core::runClusterExperiment(cfg);
    for (std::size_t t = 0; t < res.tenants.size(); ++t) {
        EXPECT_DOUBLE_EQ(res.tenants[t].runqP99Ns,
                         res2.tenants[t].runqP99Ns);
        EXPECT_EQ(res.tenants[t].completed, res2.tenants[t].completed);
        EXPECT_EQ(res.tenants[t].p99Ns, res2.tenants[t].p99Ns);
    }
}

} // namespace
} // namespace reqobs
