/**
 * @file
 * Host-speed machinery: the native compiler must cover the whole probe
 * library by bytecode alone (and run only under the Native engine),
 * the persistent worker pool must return bit-identical experiment results across
 * reuse, and the parallel cluster engine must be deterministic.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cluster_bytes.hh"
#include "core/cluster.hh"
#include "core/experiment.hh"
#include "ebpf/assembler.hh"
#include "ebpf/native.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "kernel/kernel.hh"
#include "sim/simulation.hh"
#include "workload/config.hh"

namespace reqobs {
namespace {

using kernel::RawSyscallEvent;
using kernel::TracepointId;

constexpr std::int64_t kEpollWait = 232;

TEST(NativeEngine, CompilesTheEntireProbeLibrary)
{
    // Every library shape compiles from its bytecode alone (names are
    // scrubbed), but only the Native engine runs the kernels: the
    // forced Translated and Reference engines report none.
    for (const ebpf::ExecEngine engine :
         {ebpf::ExecEngine::Native, ebpf::ExecEngine::Translated,
          ebpf::ExecEngine::Reference}) {
        sim::Simulation sim(1);
        kernel::Kernel kernel(sim);
        ebpf::RuntimeConfig rc;
        rc.engine = engine;
        ebpf::EbpfRuntime rt(kernel, rc);
        ebpf::probes::TenantSet ts;
        ts.tgids = {1000, 2000, 3000};
        ts.pollSyscalls = {kEpollWait, kEpollWait, 7};
        const auto dur = ebpf::probes::createDurationMaps(rt, "lib");
        const auto durT =
            ebpf::probes::createTenantDurationMaps(rt, 3, "libt");
        const auto delta = ebpf::probes::createDeltaMaps(rt, "lib");
        const auto deltaT =
            ebpf::probes::createTenantDeltaMaps(rt, 3, "libtd");
        const auto stream =
            ebpf::probes::createStreamMaps(rt, 1 << 12, "lib");
        const int sketch =
            ebpf::probes::createTenantSketchMap(rt, 2, 8, "lib");
        const auto runq = ebpf::probes::createRunqlatMaps(rt, 3, "lib");
        const auto door = ebpf::probes::createFrontDoorMaps(rt, 3, "lib");

        using ebpf::probes::kDeltaShift;
        const std::pair<ebpf::ProgramSpec, TracepointId> lib[] = {
            {ebpf::probes::buildDurationEnter(rt, 1000, 232, dur),
             TracepointId::SysEnter},
            {ebpf::probes::buildDurationExit(rt, 1000, 232, dur),
             TracepointId::SysExit},
            {ebpf::probes::buildDurationExit(rt, 1000, 232, dur,
                                             kDeltaShift, true),
             TracepointId::SysExit},
            {ebpf::probes::buildDeltaExit(rt, 1000, {44, 45}, delta),
             TracepointId::SysExit},
            {ebpf::probes::buildDeltaExit(rt, 1000, {44, 45}, delta,
                                          kDeltaShift, true),
             TracepointId::SysExit},
            {ebpf::probes::buildTenantDeltaExit(rt, ts, {44, 45}, deltaT),
             TracepointId::SysExit},
            {ebpf::probes::buildTenantDeltaExit(rt, ts, {44}, deltaT,
                                                kDeltaShift, true),
             TracepointId::SysExit},
            {ebpf::probes::buildTenantDurationEnter(rt, ts, durT),
             TracepointId::SysEnter},
            {ebpf::probes::buildTenantDurationExit(rt, ts, durT),
             TracepointId::SysExit},
            {ebpf::probes::buildTenantDurationExit(rt, ts, durT,
                                                   kDeltaShift, true),
             TracepointId::SysExit},
            {ebpf::probes::buildTenantHeavyHitter(rt, ts, {44, 45}, sketch),
             TracepointId::SysExit},
            {ebpf::probes::buildStreamProbe(rt, 1000, false, stream),
             TracepointId::SysEnter},
            {ebpf::probes::buildStreamProbe(rt, 1000, true, stream),
             TracepointId::SysExit},
            {ebpf::probes::buildRunqlatWakeup(rt, runq),
             TracepointId::SchedWakeup},
            {ebpf::probes::buildRunqlatSwitch(rt, ts, runq),
             TracepointId::SchedSwitch},
            {ebpf::probes::buildFrontDoorIngress(rt, door),
             TracepointId::NetRxEnqueue},
            {ebpf::probes::buildFrontDoorAccept(rt, ts, door),
             TracepointId::SockAccept},
        };

        for (auto [spec, point] : lib) {
            const std::string shape = spec.name;
            spec.name = "renamed";
            ebpf::NativeProgram np;
            EXPECT_TRUE(ebpf::compileNative(spec, &np)) << shape;
            EXPECT_NE(np.fn, nullptr) << shape;
            const auto vr = rt.loadAndAttach(std::move(spec), point);
            ASSERT_TRUE(vr.ok) << vr.error;
        }
        EXPECT_EQ(rt.loadedPrograms(), std::size(lib));
        EXPECT_EQ(rt.nativePrograms(), engine == ebpf::ExecEngine::Native
                                           ? rt.loadedPrograms()
                                           : 0u);
    }
}

TEST(NativeEngine, NonLibraryProgramFallsBackToTranslated)
{
    // A verified but non-library program under the Native engine must
    // run through the translated form with identical observations.
    auto runOne = [](ebpf::ExecEngine engine) {
        sim::Simulation sim(1);
        kernel::Kernel kernel(sim);
        ebpf::RuntimeConfig rc;
        rc.engine = engine;
        auto rt = std::make_unique<ebpf::EbpfRuntime>(kernel, rc);
        // ctx->id into r0 via two redundant moves: semantically trivial
        // but byte-matching no library probe.
        ebpf::ProgramSpec spec;
        spec.name = "custom";
        ebpf::ProgramBuilder b;
        b.ldxdw(ebpf::R2, ebpf::R1, 0)
            .mov(ebpf::R3, ebpf::R2)
            .mov(ebpf::R0, ebpf::R3)
            .exit_();
        spec.insns = b.build();
        const auto vr = rt->loadAndAttach(std::move(spec),
                                          TracepointId::SysEnter);
        EXPECT_TRUE(vr.ok) << vr.error;
        RawSyscallEvent ev;
        ev.syscall = 1;
        ev.pidTgid = kernel::makePidTgid(10, 11);
        for (int i = 0; i < 50; ++i) {
            ev.timestamp = 100 + i;
            kernel.tracepoints().fire(ev);
        }
        struct Out
        {
            std::size_t native;
            std::uint64_t events, insns;
            std::int64_t cost;
        };
        return Out{rt->nativePrograms(), rt->eventsProcessed(),
                   rt->insnsInterpreted(), rt->totalProbeCost()};
    };
    const auto nat = runOne(ebpf::ExecEngine::Native);
    const auto xlt = runOne(ebpf::ExecEngine::Translated);
    EXPECT_EQ(nat.native, 0u);
    EXPECT_EQ(nat.events, xlt.events);
    EXPECT_EQ(nat.insns, xlt.insns);
    EXPECT_EQ(nat.cost, xlt.cost);
}

TEST(WorkerPoolTest, ReusedPoolReturnsBitIdenticalResults)
{
    core::ExperimentConfig base;
    base.workload = workload::workloadByName("img-dnn");
    base.seed = 3;
    base.offeredRps = 0.25 * base.workload.saturationRps;
    base.requests = 400;
    base.warmup = sim::milliseconds(20);

    std::vector<core::ExperimentConfig> configs;
    for (std::uint64_t s = 1; s <= 3; ++s) {
        configs.push_back(base);
        configs.back().seed = s;
    }

    const auto serial = core::runExperimentsParallel(configs, 1);
    // Two parallel calls back to back reuse the persistent pool's
    // threads; both must match the serial run exactly.
    const auto par1 = core::runExperimentsParallel(configs, 3);
    const auto par2 = core::runExperimentsParallel(configs, 3);
    ASSERT_EQ(serial.size(), 3u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].completed, par1[i].completed) << i;
        EXPECT_EQ(serial[i].p99Ns, par1[i].p99Ns) << i;
        EXPECT_EQ(serial[i].syscalls, par1[i].syscalls) << i;
        EXPECT_EQ(serial[i].probeInsns, par1[i].probeInsns) << i;
        EXPECT_EQ(par1[i].completed, par2[i].completed) << i;
        EXPECT_EQ(par1[i].p99Ns, par2[i].p99Ns) << i;
        EXPECT_EQ(par1[i].syscalls, par2[i].syscalls) << i;
        EXPECT_EQ(par1[i].probeInsns, par2[i].probeInsns) << i;
    }
    EXPECT_GE(core::effectiveParallelJobs(3), 1u);
    EXPECT_LE(core::effectiveParallelJobs(3), 3u);
}

// ---------------------------------------------------------------------
// Parallel cluster engine: determinism across runs and worker counts.

/** A 4-machine fleet with nonzero lookahead for the domain engine. */
core::ClusterExperimentConfig
domainEngineConfig()
{
    core::ClusterExperimentConfig cc;
    core::ClusterTenantSpec t;
    t.workload = workload::workloadByName("img-dnn");
    t.offeredRps = 800.0;
    t.requests = 1000;
    cc.tenants.push_back(std::move(t));
    cc.machines = 4;
    cc.netem.delay = sim::microseconds(150);
    cc.netem.jitter = sim::microseconds(30);
    cc.netem.lossProbability = 0.01;
    cc.seed = 31;
    cc.clusterParallel = true;
    return cc;
}

TEST(ParallelClusterDeterminismTest, DoubleRunIsByteIdentical)
{
    core::ClusterExperimentConfig cc = domainEngineConfig();
    cc.clusterWorkers = 2;
    const auto a = core::runClusterExperiment(cc);
    const auto b = core::runClusterExperiment(cc);
    EXPECT_TRUE(a.engineParallel);
    // Full serialization including engine telemetry: the same seed must
    // reproduce the same windows and message counts, not just the same
    // physics.
    EXPECT_EQ(test::clusterBytes(a, true), test::clusterBytes(b, true));
}

TEST(ParallelClusterDeterminismTest, WorkerCountDoesNotChangeBytes)
{
    core::ClusterExperimentConfig cc = domainEngineConfig();
    std::string reference;
    for (unsigned workers : {1u, 2u, 8u}) {
        cc.clusterWorkers = workers;
        const auto res = core::runClusterExperiment(cc);
        EXPECT_TRUE(res.engineParallel) << workers;
        const std::string bytes = test::clusterBytes(res, true);
        if (reference.empty())
            reference = bytes;
        else
            EXPECT_EQ(reference, bytes) << "workers=" << workers;
    }
}

} // namespace
} // namespace reqobs
