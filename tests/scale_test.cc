/**
 * @file
 * Host-speed machinery: the native compiler must bind the whole probe
 * library from its shapes (and run only under the Native engine), the
 * persistent worker pool must return bit-identical experiment results
 * across reuse.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/parallel.hh"
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
    // Every library shape binds from the shape its builder stored (names
    // are scrubbed), but only the Native engine runs the kernels: the
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

bool
sameBytes(const std::vector<ebpf::Insn> &a, const std::vector<ebpf::Insn> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(ebpf::Insn)) ==
               0;
}

TEST(NativeEngine, NonLibraryProgramFallsBackToTranslated)
{
    // Every input verifies but must not bind: under the Native engine it
    // runs through the translated form with identical observations.
    using Make = ebpf::ProgramSpec (*)(ebpf::EbpfRuntime &);
    const std::pair<const char *, Make> inputs[] = {
        {"custom",
         [](ebpf::EbpfRuntime &) {
             // ctx->id into r0 via two redundant moves: semantically
             // trivial, no shape.
             ebpf::ProgramSpec spec;
             ebpf::ProgramBuilder b;
             b.ldxdw(ebpf::R2, ebpf::R1, 0)
                 .mov(ebpf::R3, ebpf::R2)
                 .mov(ebpf::R0, ebpf::R3)
                 .exit_();
             spec.insns = b.build();
             return spec;
         }},
        {"library probe, one immediate flipped",
         [](ebpf::EbpfRuntime &rt) {
             // Built for syscall 2, its syscall filter then rewritten to
             // the fired syscall 1 with the shape kept: a kernel bound to
             // the shape would skip every event the bytes record.
             const auto maps = ebpf::probes::createDurationMaps(rt, "flip");
             ebpf::ProgramSpec spec =
                 ebpf::probes::buildDurationEnter(rt, 10, 2, maps);
             int flipped = 0;
             for (ebpf::Insn &i : spec.insns) {
                 if (i.dst == ebpf::R8 && i.imm == 2) {
                     i.imm = 1;
                     ++flipped;
                 }
             }
             EXPECT_EQ(flipped, 1);
             EXPECT_TRUE(spec.shape.has_value());
             return spec;
         }},
        {"shapeless byte copy of a library probe",
         [](ebpf::EbpfRuntime &rt) {
             // Hand-assembled, byte for byte the runqlat wakeup probe but
             // with no shape: binding needs the builder's declaration,
             // not bytes that happen to match.
             const auto maps = ebpf::probes::createRunqlatMaps(rt, 1, "copy");
             ebpf::ProgramBuilder b;
             b.ldxdw(ebpf::R2, ebpf::R1, 0)
                 .stxdw(ebpf::R10, -8, ebpf::R2)
                 .ldxdw(ebpf::R3, ebpf::R1, 16)
                 .stxdw(ebpf::R10, -16, ebpf::R3)
                 .ldMapFd(ebpf::R1, maps.stampFd)
                 .mov(ebpf::R2, ebpf::R10)
                 .addImm(ebpf::R2, -8)
                 .mov(ebpf::R3, ebpf::R10)
                 .addImm(ebpf::R3, -16)
                 .movImm(ebpf::R4, ebpf::BPF_ANY)
                 .call(ebpf::helper::kMapUpdateElem)
                 .label("out")
                 .movImm(ebpf::R0, 0)
                 .exit_();
             ebpf::ProgramSpec spec;
             spec.insns = b.build();
             spec.maps = rt.mapTable();
             EXPECT_TRUE(sameBytes(
                 spec.insns,
                 ebpf::probes::buildRunqlatWakeup(rt, maps).insns));
             return spec;
         }},
    };

    for (const auto &[label, make] : inputs) {
        SCOPED_TRACE(label);
        auto runOne = [make](ebpf::ExecEngine engine) {
            sim::Simulation sim(1);
            kernel::Kernel kernel(sim);
            ebpf::RuntimeConfig rc;
            rc.engine = engine;
            auto rt = std::make_unique<ebpf::EbpfRuntime>(kernel, rc);
            ebpf::ProgramSpec spec = make(*rt);
            spec.name = "custom";
            ebpf::NativeProgram np;
            EXPECT_FALSE(ebpf::compileNative(spec, &np));
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
                std::string kernel;
                std::uint64_t events, insns;
                std::int64_t cost;
            };
            return Out{rt->nativePrograms(), rt->probeCounters()[0].kernel,
                       rt->eventsProcessed(), rt->insnsInterpreted(),
                       rt->totalProbeCost()};
        };
        const auto nat = runOne(ebpf::ExecEngine::Native);
        const auto xlt = runOne(ebpf::ExecEngine::Translated);
        EXPECT_EQ(nat.native, 0u);
        EXPECT_EQ(nat.kernel, "vm");
        EXPECT_EQ(nat.events, xlt.events);
        EXPECT_EQ(nat.insns, xlt.insns);
        EXPECT_EQ(nat.cost, xlt.cost);
    }
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
    EXPECT_GE(core::resolveWorkerCount(0, 3), 1u);
    EXPECT_LE(core::resolveWorkerCount(0, 3), 3u);
}

} // namespace
} // namespace reqobs
