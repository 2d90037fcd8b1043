/**
 * @file
 * Chaos tests for the supervised agent lifecycle: clean-run identity
 * under supervision, crash/restart recovery with checkpoint + map
 * restore, wipe discontinuity handling, the stall watchdog, the
 * circuit breaker with deterministic jittered backoff, and the
 * loss-aware window correction — including the window stage both
 * agents share, driven through a two-tenant MultiTenantAgent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "client/load_generator.hh"
#include "core/experiment.hh"
#include "core/profile.hh"
#include "core/sampling.hh"
#include "core/supervisor.hh"
#include "core/tenant_metrics.hh"
#include "fault/fault.hh"
#include "workload/machine.hh"
#include "workload/server_app.hh"

namespace reqobs {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;
using core::MetricsSample;

ExperimentConfig
supConfig(const std::string &workload_name, double load_fraction,
          std::uint64_t seed = 17)
{
    ExperimentConfig cfg;
    cfg.workload = workload::workloadByName(workload_name);
    cfg.workload.saturationRps =
        std::min(cfg.workload.saturationRps, 4000.0);
    cfg.offeredRps = load_fraction * cfg.workload.saturationRps;
    cfg.requests = 6000;
    cfg.seed = seed;
    return cfg;
}

/**
 * The acceptance shape for every recovered stream: no window may carry
 * a discontinuity artifact (an outage- or wipe-spanning delta shows up
 * as a wildly inflated mean / variance / count).
 */
void
expectNoCorruptWindows(const ExperimentResult &r)
{
    for (const MetricsSample &s : r.samples) {
        EXPECT_TRUE(std::isfinite(s.send.meanNs));
        EXPECT_GE(s.send.meanNs, 0.0);
        EXPECT_LT(s.send.meanNs, 1e8); // any outage delta would be >=1e8
        EXPECT_TRUE(std::isfinite(s.send.varianceNs2));
        EXPECT_GE(s.send.varianceNs2, 0.0);
        EXPECT_LT(s.send.varianceNs2, 1e18);
        EXPECT_LT(s.send.count, 1000000u); // a u64-wrap delta explodes it
        EXPECT_TRUE(std::isfinite(s.rpsObsv));
        EXPECT_GE(s.rpsObsv, 0.0);
    }
}

TEST(SupervisorTest, SupervisedCleanRunMatchesPlainAgent)
{
    // Supervision without faults must be a pure pass-through: the
    // supervisor's jitter RNG is forked but never drawn from, so the
    // sample stream and every aggregate are bit-identical.
    ExperimentConfig plain = supConfig("data-caching", 0.7);
    ExperimentConfig supervised = plain;
    supervised.supervised = true;
    const auto a = runExperiment(plain);
    const auto b = runExperiment(supervised);

    ASSERT_EQ(a.samples.size(), b.samples.size());
    ASSERT_GT(a.samples.size(), 0u);
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].t, b.samples[i].t);
        EXPECT_EQ(a.samples[i].send.count, b.samples[i].send.count);
        EXPECT_EQ(a.samples[i].send.meanNs, b.samples[i].send.meanNs);
        EXPECT_EQ(a.samples[i].rpsObsv, b.samples[i].rpsObsv);
    }
    EXPECT_EQ(a.observedRps, b.observedRps);
    EXPECT_EQ(a.sendVarNs2, b.sendVarNs2);
    EXPECT_EQ(a.achievedRps, b.achievedRps);
    EXPECT_EQ(b.supervisorStats.crashes, 0u);
    EXPECT_EQ(b.supervisorStats.restarts, 0u);
    EXPECT_EQ(b.supervisorStats.downtime, 0u);
    EXPECT_GT(b.supervisorStats.checkpoints, 0u);
}

TEST(SupervisorTest, CrashRestartRecoversTheMetricStream)
{
    ExperimentConfig cfg = supConfig("data-caching", 0.7);
    cfg.fault.agentCrashMtbf = sim::milliseconds(400);
    cfg.supervisor.restartBackoffInitial = sim::milliseconds(50);
    cfg.supervisor.restartBackoffMax = sim::milliseconds(200);
    const auto r = runExperiment(cfg);

    const auto &ss = r.supervisorStats;
    EXPECT_GT(ss.crashes, 0u);
    EXPECT_GT(ss.restarts, 0u);
    EXPECT_GT(ss.checkpoints, 0u);
    EXPECT_GT(ss.restores, 0u);
    EXPECT_GT(ss.downtime, 0u);
    EXPECT_FALSE(ss.circuitOpen);
    // The stream survives: samples keep coming and the whole-run Eq. 1
    // aggregate still tracks ground truth.
    EXPECT_GT(r.samples.size(), 5u);
    EXPECT_NEAR(r.observedRps, r.achievedRps, 0.10 * r.achievedRps);
    expectNoCorruptWindows(r);
}

TEST(SupervisorTest, CrashyClean400msRunsAreDeterministic)
{
    ExperimentConfig cfg = supConfig("xapian", 0.8, 23);
    cfg.fault.agentCrashMtbf = sim::milliseconds(300);
    const auto a = runExperiment(cfg);
    const auto b = runExperiment(cfg);

    EXPECT_EQ(a.supervisorStats.crashes, b.supervisorStats.crashes);
    EXPECT_EQ(a.supervisorStats.restarts, b.supervisorStats.restarts);
    EXPECT_EQ(a.supervisorStats.downtime, b.supervisorStats.downtime);
    EXPECT_EQ(a.supervisorStats.checkpoints,
              b.supervisorStats.checkpoints);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].t, b.samples[i].t);
        EXPECT_EQ(a.samples[i].rpsObsv, b.samples[i].rpsObsv);
    }
}

TEST(SupervisorTest, MapWipeTearsOnlyTheTornWindow)
{
    // Every restart loses the kernel map state: each wiped window is
    // torn down (a discontinuity), and no wiped counter reset ever
    // reaches an emitted window as a huge or negative delta.
    ExperimentConfig cfg = supConfig("data-caching", 0.7);
    cfg.fault.agentCrashMtbf = sim::milliseconds(500);
    cfg.fault.mapWipeOnRestartProbability = 1.0;
    cfg.supervisor.restartBackoffInitial = sim::milliseconds(20);
    const auto r = runExperiment(cfg);

    const auto &ss = r.supervisorStats;
    EXPECT_GT(ss.crashes, 0u);
    EXPECT_EQ(ss.mapWipes, ss.restarts);
    EXPECT_GT(r.agentHealth.discontinuities, 0u);
    EXPECT_GT(r.samples.size(), 0u);
    expectNoCorruptWindows(r);
}

TEST(SupervisorTest, WatchdogRecoversAStalledSampler)
{
    ExperimentConfig cfg = supConfig("data-caching", 0.7);
    cfg.requests = 12000; // long enough for stall + detection + recovery
    cfg.fault.samplerStallMtbf = sim::milliseconds(600);
    cfg.supervisor.stallTimeoutTicks = 3;
    cfg.supervisor.restartBackoffInitial = sim::milliseconds(20);
    const auto r = runExperiment(cfg);

    const auto &ss = r.supervisorStats;
    EXPECT_GT(r.faultCounts.samplerStalls, 0u);
    EXPECT_GT(ss.stallsDetected, 0u);
    EXPECT_GT(ss.restarts, 0u);
    // Samples resume after every detected stall.
    EXPECT_GT(r.samples.size(), 3u);
    expectNoCorruptWindows(r);
}

TEST(SupervisorTest, CircuitBreakerOpensAfterRepeatedAttachFailures)
{
    ExperimentConfig cfg = supConfig("data-caching", 0.7);
    cfg.supervised = true;
    cfg.fault.attachFailProbability = 1.0; // every program, every start
    const auto r = runExperiment(cfg);

    const auto &ss = r.supervisorStats;
    EXPECT_TRUE(ss.circuitOpen);
    EXPECT_EQ(ss.failedStarts, cfg.supervisor.circuitBreakerThreshold);
    EXPECT_EQ(ss.restarts, 0u);
    EXPECT_EQ(r.samples.size(), 0u);
    // The observed application never notices its observer giving up.
    EXPECT_GT(r.completed, 4000u);
    EXPECT_GT(r.achievedRps, 0.0);
}

TEST(SupervisorTest, BackoffDelaysAreJitteredExponentialAndDeterministic)
{
    // Drive the supervisor directly so the spacing of the start
    // attempts is visible: with initial 10ms, factor 2 and jitter 0.2,
    // attempt gaps must land in [80%, 120%] of 10, 20, 40, 80 ms.
    auto run = [](std::vector<sim::Tick> &starts) {
        sim::Simulation sim(31);
        fault::FaultPlan plan;
        plan.attachFailProbability = 1.0;
        fault::FaultInjector inj(plan, sim.forkRng());
        kernel::Kernel kernel(sim);
        kernel.setFaultInjector(&inj);
        const auto wl = workload::workloadByName("data-caching");
        workload::ServerApp app(kernel, wl);
        core::AgentConfig ac;
        ac.tolerateAttachFailures = true;
        core::Supervisor sup(kernel, app.frontPid(), core::profileFor(wl),
                             ac, core::SupervisorConfig{}, &inj,
                             sim.forkRng());
        // The app never starts: with every attach failing, the breaker
        // trips on an idle kernel just the same.
        sup.start();
        sim.runFor(sim::seconds(2));
        EXPECT_TRUE(sup.stats().circuitOpen);
        starts = sup.startTimes();
        sup.stop();
    };

    std::vector<sim::Tick> a, b;
    run(a);
    run(b);
    EXPECT_EQ(a, b); // seeded jitter: bit-identical schedules
    ASSERT_EQ(a.size(), 5u);
    const double expected_ms[] = {10.0, 20.0, 40.0, 80.0};
    for (std::size_t i = 0; i + 1 < a.size(); ++i) {
        const double gap_ms =
            static_cast<double>(a[i + 1] - a[i]) / 1e6;
        EXPECT_GE(gap_ms, 0.8 * expected_ms[i]);
        EXPECT_LE(gap_ms, 1.2 * expected_ms[i]);
    }
}

TEST(SupervisorTest, CorrectForLossDebiasesMeanAndVariance)
{
    // Merge-thinning: N observed deltas whose spans absorbed L lost
    // events have mean and variance inflated by k = (N+L)/N.
    core::DeltaWindow w;
    w.count = 900;
    w.meanNs = 1111.1;
    w.varianceNs2 = 5000.0;
    const auto c = core::correctForLoss(w, 100);
    EXPECT_EQ(c.count, 1000u);
    EXPECT_NEAR(c.meanNs, 1000.0, 1.0);
    EXPECT_NEAR(c.varianceNs2, 4500.0, 1.0);

    // Zero loss (or an empty window) is exactly inert.
    const auto same = core::correctForLoss(w, 0);
    EXPECT_EQ(same.count, w.count);
    EXPECT_EQ(same.meanNs, w.meanNs);
    const core::DeltaWindow empty;
    EXPECT_EQ(core::correctForLoss(empty, 50).count, 0u);
}

TEST(SupervisorTest, LossAwareCorrectionRecoversEq1UnderProbeMisses)
{
    // 20% of probe runs are missed by the kernel. The raw pipeline
    // undercounts Eq. 1 roughly in proportion; the loss-aware pipeline
    // scales the missed-run counter by the family's share of arrivals
    // and lands near truth.
    auto arm = [](bool loss_aware) {
        ExperimentConfig cfg = supConfig("data-caching", 0.7);
        cfg.fault.probeMissProbability = 0.2;
        cfg.autoHarden = false;
        cfg.agent.tolerateAttachFailures = true;
        cfg.agent.guardedProbes = true;
        cfg.agent.staleBackoff = true;
        cfg.agent.lossAware = loss_aware;
        return runExperiment(cfg);
    };
    auto windowedErr = [](const ExperimentResult &r) {
        double obs = 0.0;
        int n = 0;
        for (const auto &s : r.samples) {
            if (s.rpsObsv > 0.0) {
                obs += s.rpsObsv;
                ++n;
            }
        }
        EXPECT_GT(n, 0);
        return (obs / n - r.achievedRps) / r.achievedRps;
    };

    const auto raw = arm(false);
    const auto corrected = arm(true);
    EXPECT_GT(raw.agentHealth.probeMisses, 0u);
    EXPECT_EQ(raw.agentHealth.lossCorrectedEvents, 0u);
    EXPECT_GT(corrected.agentHealth.lossCorrectedEvents, 0u);
    EXPECT_LT(windowedErr(raw), -0.10);            // ~-20% undercount
    EXPECT_NEAR(windowedErr(corrected), 0.0, 0.05); // de-biased
    expectNoCorruptWindows(corrected);
}

/** What one two-tenant MultiTenantAgent run reports. */
struct TwoTenantRun
{
    std::vector<std::vector<MetricsSample>> samples; ///< per tenant
    /** Send-family exits per tenant up to its last sample, as the
     *  kernel dispatched them. */
    std::vector<std::uint64_t> kernelSends;
    core::AgentHealth health;
    std::uint64_t runtimeMapUpdateFails = 0;
};

/**
 * Two data-caching tenants (70% and 45% load) on one machine under a
 * MultiTenantAgent whose runtime alone gets @p plan's eBPF faults. The
 * run ends exactly on a sample tick.
 */
TwoTenantRun
runTwoTenants(const fault::FaultPlan &plan, bool loss_aware)
{
    TwoTenantRun out;
    std::vector<std::vector<sim::Tick>> exits(2);
    sim::Simulation sim(29);
    workload::Machine machine(sim);
    workload::WorkloadConfig wl = workload::workloadByName("data-caching");
    wl.saturationRps = std::min(wl.saturationRps, 4000.0);
    std::vector<core::TenantBinding> bindings;
    std::vector<std::unique_ptr<client::LoadGenerator>> gens;
    for (const double load : {0.7, 0.45}) {
        workload::ServerApp &app = machine.addTenant(wl);
        bindings.push_back({wl.name, app.frontPid(), core::profileFor(wl)});
        client::ClientConfig cc;
        cc.offeredRps = load * wl.saturationRps;
        gens.push_back(std::make_unique<client::LoadGenerator>(
            sim, app, net::NetemConfig{}, net::TcpConfig{}, cc));
    }

    // Ground truth from the kernel's side of the tracepoint: a plain
    // probe the fault plan never reaches, costing nothing.
    const std::vector<std::int64_t> family = bindings[0].profile.sendFamily;
    const kernel::Pid tgids[] = {bindings[0].tgid, bindings[1].tgid};
    machine.kernel().tracepoints().attach(
        kernel::TracepointId::SysExit,
        [&](const kernel::RawSyscallEvent &ev) -> sim::Tick {
            if (std::find(family.begin(), family.end(), ev.syscall) ==
                family.end())
                return 0;
            for (std::size_t i = 0; i < 2; ++i)
                if (kernel::tgidOf(ev.pidTgid) == tgids[i])
                    exits[i].push_back(ev.timestamp);
            return 0;
        });

    core::AgentConfig ac;
    ac.lossAware = loss_aware;
    fault::FaultInjector injector(plan, sim.forkRng());
    core::MultiTenantAgent agent(machine.kernel(), std::move(bindings), ac);
    agent.runtime().setFaultInjector(&injector);
    machine.start();
    agent.start();
    for (auto &g : gens)
        g->start();
    sim.runUntil(15 * ac.samplePeriod);

    out.health = agent.health();
    out.runtimeMapUpdateFails = agent.runtime().mapUpdateFails();
    for (std::size_t i = 0; i < 2; ++i) {
        const std::vector<MetricsSample> &ss = agent.tenant(i).samples();
        EXPECT_GT(ss.size(), 3u);
        const sim::Tick last = ss.empty() ? 0 : ss.back().t;
        out.samples.push_back(ss);
        out.kernelSends.push_back(static_cast<std::uint64_t>(
            std::count_if(exits[i].begin(), exits[i].end(),
                          [last](sim::Tick t) { return t <= last; })));
    }
    agent.stop();
    return out;
}

std::uint64_t
windowedSends(const std::vector<MetricsSample> &samples)
{
    std::uint64_t n = 0;
    for (const MetricsSample &s : samples)
        n += s.send.count;
    return n;
}

TEST(WindowStageTest, ShareOneKeepsTheIntegerLossRule)
{
    // The single-tenant agent's rule, integer throughout: in-program
    // losses taken exactly, misses scaled by recorded events per run
    // with round-half-up. Shared lostEvents at share 1 must equal it
    // bit for bit — the single agent's identity condition.
    auto integer_rule = [](const core::LossSnap &now,
                           const core::LossSnap &snap, std::uint64_t n) {
        const std::uint64_t d_inprog =
            (now.loss - now.misses) - (snap.loss - snap.misses);
        const std::uint64_t d_miss = now.misses - snap.misses;
        const std::uint64_t d_runs = now.runs - snap.runs;
        std::uint64_t est = d_inprog;
        if (d_miss > 0 && d_runs > 0)
            est += (n * d_miss + d_runs / 2) / d_runs;
        return est;
    };
    const std::uint64_t b40 = 1ull << 40;
    const std::uint64_t b60 = 1ull << 60;
    struct Case
    {
        core::LossSnap now, snap;
        std::uint64_t window;
    };
    const Case cases[] = {
        {{0, 0, 0}, {0, 0, 0}, 0},
        {{7, 0, 50}, {2, 0, 10}, 30},        // in-program only
        {{9, 9, 100}, {3, 3, 40}, 17},       // misses only, rounds
        {{25, 10, 400}, {5, 2, 100}, 123},   // both
        {{b40 + 13, 5, b40 + 77}, {3, 1, 77}, 999},
        {{b40 + 3, b40 + 1, 2 * b40 + 5}, {2, 1, 5}, 1u << 20},
        {{b40 - 1, b40 - 2, b40}, {0, 0, 1}, 1000},
        {{b60 + 1, 0, 0}, {0, 0, 0}, 0},     // beyond double precision
    };
    for (const Case &c : cases)
        EXPECT_EQ(core::lostEvents(c.now, c.snap, c.window, 1.0),
                  integer_rule(c.now, c.snap, c.window));

    // Below 1, the share prorates the in-program part only.
    EXPECT_EQ(core::lostEvents({100, 0, 0}, {}, 0, 0.25), 25u);
    EXPECT_EQ(core::lostEvents({100, 40, 200}, {}, 50, 0.5),
              30u + 10u); // 60 in-program * 0.5, 50 * 40 / 200 missed
}

TEST(MultiTenantLossTest, LossCountersRefreshWithoutLossAwareness)
{
    // Health reports in-kernel loss whether or not the estimators
    // correct for it: a sick pipeline must not read clean.
    fault::FaultPlan plan;
    plan.mapUpdateFailProbability = 0.05;
    const TwoTenantRun r = runTwoTenants(plan, /*loss_aware=*/false);
    EXPECT_GT(r.runtimeMapUpdateFails, 0u);
    EXPECT_EQ(r.health.mapUpdateFails, r.runtimeMapUpdateFails);
    EXPECT_EQ(r.health.lossCorrectedEvents, 0u);
    for (std::size_t i = 0; i < 2; ++i) {
        const auto degraded = std::count_if(
            r.samples[i].begin(), r.samples[i].end(),
            [](const MetricsSample &s) { return s.health.degraded(); });
        EXPECT_GT(degraded, 0);
    }

    // A clean run keeps every counter at zero.
    const TwoTenantRun clean = runTwoTenants({}, false);
    EXPECT_FALSE(clean.health.degraded());
    EXPECT_EQ(clean.health.mapUpdateFails, 0u);
    for (const auto &samples : clean.samples)
        for (const MetricsSample &s : samples)
            EXPECT_FALSE(s.health.degraded());
}

TEST(MultiTenantLossTest, LossAwareProrationRecoversEachTenantsSendCount)
{
    // 20% of probe runs are missed. Each tenant's raw windows undercount
    // its sends; the loss-aware windows, prorated per tenant, land
    // closer to what the kernel actually dispatched for that tgid.
    fault::FaultPlan plan;
    plan.probeMissProbability = 0.2;
    const TwoTenantRun raw = runTwoTenants(plan, false);
    const TwoTenantRun corrected = runTwoTenants(plan, true);
    EXPECT_GT(corrected.health.lossCorrectedEvents, 0u);
    for (std::size_t i = 0; i < 2; ++i) {
        SCOPED_TRACE(i);
        // Loss awareness is userspace-only: one kernel truth.
        ASSERT_EQ(raw.kernelSends[i], corrected.kernelSends[i]);
        const double truth = static_cast<double>(raw.kernelSends[i]);
        const double raw_n =
            static_cast<double>(windowedSends(raw.samples[i]));
        const double corr_n =
            static_cast<double>(windowedSends(corrected.samples[i]));
        EXPECT_LT(raw_n / truth, 0.9);
        EXPECT_LT(std::abs(corr_n - truth), std::abs(raw_n - truth));
        EXPECT_NEAR(corr_n / truth, 1.0, 0.05);
    }
}

TEST(SupervisorTest, MapSnapshotRestoreRoundTrips)
{
    // Run a supervised crashy experiment whose every restart restores
    // the previous incarnation's map image; the cumulative kernel
    // counters must keep rising monotonically across all samples.
    ExperimentConfig cfg = supConfig("data-caching", 0.7);
    cfg.fault.agentCrashMtbf = sim::milliseconds(300);
    cfg.supervisor.restartBackoffInitial = sim::milliseconds(20);
    const auto r = runExperiment(cfg);
    ASSERT_GT(r.supervisorStats.restarts, 0u);
    ASSERT_GT(r.samples.size(), 1u);
    // Windowed counts reflect continued accumulation, not resets: the
    // sum of window counts cannot exceed the total syscalls dispatched.
    std::uint64_t total = 0;
    for (const auto &s : r.samples)
        total += s.send.count;
    EXPECT_LE(total, r.syscalls);
    EXPECT_GT(total, 0u);
}

TEST(SupervisorTest, JobsEnvParsingRejectsGarbageAndClampsCeiling)
{
    auto with_env = [](const char *jobs, const char *threads) {
        if (jobs)
            ::setenv("REQOBS_JOBS", jobs, 1);
        else
            ::unsetenv("REQOBS_JOBS");
        if (threads)
            ::setenv("REQOBS_THREADS", threads, 1);
        else
            ::unsetenv("REQOBS_THREADS");
        const unsigned n = core::parallelJobsFromEnv();
        ::unsetenv("REQOBS_JOBS");
        ::unsetenv("REQOBS_THREADS");
        return n;
    };

    EXPECT_EQ(with_env(nullptr, nullptr), 0u);
    EXPECT_EQ(with_env("12", nullptr), 12u);
    EXPECT_EQ(with_env(nullptr, "6"), 0u); // REQOBS_THREADS is ignored
    EXPECT_EQ(with_env("4", "9"), 4u);     // ... also next to REQOBS_JOBS
    EXPECT_EQ(with_env("abc", nullptr), 0u);
    EXPECT_EQ(with_env("12abc", nullptr), 0u);
    EXPECT_EQ(with_env("", nullptr), 0u);
    EXPECT_EQ(with_env("-3", nullptr), 0u);
    EXPECT_EQ(with_env("+7", nullptr), 0u);
    EXPECT_EQ(with_env("999999999999999999999999", nullptr), 0u);
    EXPECT_EQ(with_env("9999", nullptr), 256u); // clamped to the ceiling
}

} // namespace
} // namespace reqobs
