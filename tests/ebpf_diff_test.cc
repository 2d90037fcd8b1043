/**
 * @file
 * Differential test between the three eBPF execution engines: the
 * reference interpreter (decode-per-execution), the translation cache
 * (pre-decoded at attach time) and the native compiler
 * (shape-specialised C++ kernels). The engines must be observationally
 * identical for every verified program: same r0, same
 * retired-instruction counts (the probe cost model feeds on them), same
 * map contents, same ring-buffer payloads, same failure counters.
 *
 * Two angles:
 *  - a fuzz corpus: randomly generated programs that pass the verifier
 *    are executed through both VM engines with separate map instances,
 *    and the native compiler must reject them gracefully (it only
 *    accepts byte-exact library probes — anything else falls back to
 *    the translated form at runtime);
 *  - the probe library end to end: three simulated kernels, one per
 *    engine, fed an identical syscall event stream through the full
 *    library — Listing-1 duration pair (plain and guarded), delta and
 *    tenant-delta probes, tenant duration pair, heavy-hitter sketch,
 *    and stream probes — including clock-inverted and negative-ret
 *    events so the guarded skip paths execute.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ebpf/assembler.hh"
#include "ebpf/helpers.hh"
#include "ebpf/maps.hh"
#include "ebpf/native.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "ebpf/translate.hh"
#include "ebpf/verifier.hh"
#include "ebpf/vm.hh"
#include "fuzz_programs.hh"
#include "kernel/kernel.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"

namespace reqobs::ebpf {
namespace {

/** Full content snapshot of a hash map, in key order. */
std::map<std::string, std::string>
hashSnapshot(const HashMap &m)
{
    std::map<std::string, std::string> out;
    const std::uint32_t ks = m.keySize(), vs = m.valueSize();
    m.forEach([&](const std::uint8_t *k, const std::uint8_t *v) {
        out.emplace(std::string(reinterpret_cast<const char *>(k), ks),
                    std::string(reinterpret_cast<const char *>(v), vs));
    });
    return out;
}

/** Full content snapshot of an array map. */
std::vector<std::string>
arraySnapshot(ArrayMap &m)
{
    std::vector<std::string> out;
    for (std::uint32_t i = 0; i < m.maxEntries(); ++i) {
        const std::uint8_t *v =
            m.lookup(reinterpret_cast<const std::uint8_t *>(&i));
        out.emplace_back(reinterpret_cast<const char *>(v), m.valueSize());
    }
    return out;
}

/**
 * Slot-exact snapshot of a sketch, in stage-major slot order. Eviction
 * decisions depend on resident counts, so the slightest divergence in
 * update order or arithmetic between the engines shows up here.
 */
std::vector<std::pair<std::string, std::string>>
sketchSnapshot(const SketchMap &m)
{
    std::vector<std::pair<std::string, std::string>> out;
    const std::uint32_t ks = m.keySize();
    m.forEach([&](const std::uint8_t *k, const std::uint8_t *c) {
        out.emplace_back(std::string(reinterpret_cast<const char *>(k), ks),
                         std::string(reinterpret_cast<const char *>(c), 8));
    });
    return out;
}

class EngineDiffFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(EngineDiffFuzzTest, VerifiedProgramsAgreeBitForBit)
{
    sim::Rng rng(GetParam());

    // Each engine gets its own map instances so divergence in map
    // contents is attributable to the engine alone.
    auto hashA = std::make_unique<HashMap>(8, 8, 64);
    auto arrayA = std::make_unique<ArrayMap>(32, 4);
    auto hashB = std::make_unique<HashMap>(8, 8, 64);
    auto arrayB = std::make_unique<ArrayMap>(32, 4);
    // Tiny sketch (2 stages x 4 slots) so fuzzed updates churn the
    // eviction/carry path, not just the resident-increment fast path.
    auto sketchA = std::make_unique<SketchMap>(8, 2, 4);
    auto sketchB = std::make_unique<SketchMap>(8, 2, 4);

    Vm vmA, vmB;
    int accepted = 0;
    for (int trial = 0; trial < 400; ++trial) {
        ProgramBuilder b;
        FuzzGenerator gen(rng.next(), /*sketch_fd=*/5);
        const int len = 3 + static_cast<int>(rng.uniformInt(24));
        gen.emitProgram(b, len);
        for (int l = 0; l < 4; ++l)
            b.label("L" + std::to_string(l));
        b.movImm(R0, 0).exit_();

        ProgramSpec specA;
        specA.name = "diff";
        specA.insns = b.build();
        specA.maps[3] = hashA.get();
        specA.maps[4] = arrayA.get();
        specA.maps[5] = sketchA.get();

        ProgramSpec specB = specA;
        specB.maps[3] = hashB.get();
        specB.maps[4] = arrayB.get();
        specB.maps[5] = sketchB.get();

        const VerifyResult vr = verify(specA);
        if (!vr.ok)
            continue;
        ++accepted;

        // The native compiler binds only programs that carry a library
        // probe shape — a random program has none, is rejected, and at
        // runtime executes through the translated form.
        NativeProgram np;
        EXPECT_FALSE(compileNative(specA, &np))
            << disassemble(specA.insns);
        EXPECT_EQ(np.fn, nullptr);

        TranslatedProgram xprog;
        std::string xerr;
        ASSERT_TRUE(translate(specB, vr.maxStackDepth, &xprog, &xerr))
            << xerr << "\n"
            << disassemble(specB.insns);

        for (int c = 0; c < 3; ++c) {
            TraceCtx ctx{};
            if (c == 1) {
                ctx.id = ~0ull;
                ctx.pidTgid = ~0ull;
                ctx.ts = ~0ull;
                ctx.ret = -1;
            } else if (c == 2) {
                ctx.id = rng.next();
                ctx.pidTgid = rng.next();
                ctx.ts = rng.next();
                ctx.ret = static_cast<std::int64_t>(rng.next());
            }
            const std::uint64_t now = rng.next();
            const std::uint64_t pt = rng.next();

            // Same-seeded helper RNG streams so kPrandom agrees.
            sim::Rng rngA(trial), rngB(trial);
            ExecEnv envA;
            envA.nowNs = now;
            envA.pidTgid = pt;
            envA.rng = &rngA;
            ExecEnv envB = envA;
            envB.rng = &rngB;

            TraceCtx ctxB = ctx;
            const RunResult ra =
                vmA.run(specA, reinterpret_cast<std::uint8_t *>(&ctx),
                        sizeof(ctx), envA);
            const RunResult rb =
                vmB.run(xprog, reinterpret_cast<std::uint8_t *>(&ctxB),
                        sizeof(ctxB), envB);

            const std::string dis = disassemble(specA.insns);
            ASSERT_FALSE(ra.aborted) << ra.error << "\n" << dis;
            ASSERT_FALSE(rb.aborted) << rb.error << "\n" << dis;
            ASSERT_EQ(ra.r0, rb.r0) << dis;
            ASSERT_EQ(ra.insns, rb.insns) << dis;
            ASSERT_EQ(ra.mapUpdateFails, rb.mapUpdateFails) << dis;
            ASSERT_EQ(ra.ringbufDrops, rb.ringbufDrops) << dis;
        }

        ASSERT_EQ(hashSnapshot(*hashA), hashSnapshot(*hashB))
            << disassemble(specA.insns);
        ASSERT_EQ(arraySnapshot(*arrayA), arraySnapshot(*arrayB))
            << disassemble(specA.insns);
        ASSERT_EQ(sketchSnapshot(*sketchA), sketchSnapshot(*sketchB))
            << disassemble(specA.insns);
    }
    EXPECT_GT(accepted, 20) << "generator too hostile; tune the mix";
    EXPECT_EQ(vmA.totalInsns(), vmB.totalInsns());
    EXPECT_EQ(sketchA->evictions(), sketchB->evictions());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDiffFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

/** One engine's full probe-library stack fed by raw syscall events. */
struct ProbeStack
{
    sim::Simulation sim{1};
    std::unique_ptr<kernel::Kernel> kernel;
    std::unique_ptr<EbpfRuntime> rt;
    probes::DurationMaps dur;
    probes::DurationMaps durGuarded;
    probes::DurationMaps durTenant;
    probes::DeltaMaps delta;
    probes::DeltaMaps deltaTenant;
    probes::StreamMaps stream;
    int sketchFd = -1;

    explicit ProbeStack(ExecEngine engine)
    {
        kernel = std::make_unique<kernel::Kernel>(sim);
        RuntimeConfig rc;
        rc.engine = engine;
        rt = std::make_unique<EbpfRuntime>(*kernel, rc);
        probes::TenantSet tenants;
        tenants.tgids = {1000, 2000};
        tenants.pollSyscalls = {232, 232};
        dur = probes::createDurationMaps(*rt, "diff");
        durGuarded = probes::createDurationMaps(*rt, "diffg");
        durTenant = probes::createTenantDurationMaps(*rt, 2, "difft");
        delta = probes::createDeltaMaps(*rt, "diff");
        deltaTenant = probes::createTenantDeltaMaps(*rt, 2, "difftd");
        stream = probes::createStreamMaps(*rt, 1 << 14, "diff");
        // Undersized sketch so both tenants fight over slots and the
        // engines must agree on every eviction.
        sketchFd = probes::createTenantSketchMap(*rt, 2, 2, "diff");
        attach(probes::buildDurationEnter(*rt, 1000, 232, dur),
               kernel::TracepointId::SysEnter);
        attach(probes::buildDurationExit(*rt, 1000, 232, dur),
               kernel::TracepointId::SysExit);
        // Guarded pair on the other tgid: the clock-inverted events in
        // the stream exercise its skip path.
        attach(probes::buildDurationEnter(*rt, 2000, 232, durGuarded),
               kernel::TracepointId::SysEnter);
        attach(probes::buildDurationExit(*rt, 2000, 232, durGuarded,
                                         probes::kDeltaShift, true),
               kernel::TracepointId::SysExit);
        attach(probes::buildTenantDurationEnter(*rt, tenants, durTenant),
               kernel::TracepointId::SysEnter);
        attach(probes::buildTenantDurationExit(*rt, tenants, durTenant,
                                               probes::kDeltaShift, true),
               kernel::TracepointId::SysExit);
        attach(probes::buildDeltaExit(*rt, 1000, {44}, delta),
               kernel::TracepointId::SysExit);
        attach(probes::buildTenantDeltaExit(*rt, tenants, {44, 0},
                                            deltaTenant),
               kernel::TracepointId::SysExit);
        attach(probes::buildStreamProbe(*rt, 1000, false, stream),
               kernel::TracepointId::SysEnter);
        attach(probes::buildStreamProbe(*rt, 1000, true, stream),
               kernel::TracepointId::SysExit);
        attach(probes::buildTenantHeavyHitter(*rt, tenants, {44}, sketchFd),
               kernel::TracepointId::SysExit);
    }

    void
    attach(ProgramSpec spec, kernel::TracepointId point)
    {
        const auto vr = rt->loadAndAttach(std::move(spec), point);
        ASSERT_TRUE(vr.ok) << vr.error;
    }

    void fire(const kernel::RawSyscallEvent &ev)
    {
        kernel->tracepoints().fire(ev);
    }
};

/** Every probe-visible observation of @p a must equal @p b's. */
void
expectStacksEqual(ProbeStack &a, ProbeStack &b, const char *label)
{
    SCOPED_TRACE(label);

    // Aggregate accounting must agree exactly: the probe cost model is
    // driven by the retired-instruction count.
    EXPECT_EQ(a.rt->eventsProcessed(), b.rt->eventsProcessed());
    EXPECT_EQ(a.rt->insnsInterpreted(), b.rt->insnsInterpreted());
    EXPECT_EQ(a.rt->totalProbeCost(), b.rt->totalProbeCost());
    EXPECT_EQ(a.rt->mapUpdateFails(), b.rt->mapUpdateFails());
    EXPECT_EQ(a.rt->ringbufDrops(), b.rt->ringbufDrops());

    const auto pa = a.rt->probeCounters();
    const auto pb = b.rt->probeCounters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i].name, pb[i].name);
        EXPECT_EQ(pa[i].events, pb[i].events) << pa[i].name;
        EXPECT_EQ(pa[i].insns, pb[i].insns) << pa[i].name;
        EXPECT_EQ(pa[i].mapUpdateFails, pb[i].mapUpdateFails) << pa[i].name;
        EXPECT_EQ(pa[i].ringbufDrops, pb[i].ringbufDrops) << pa[i].name;
    }

    // Map contents byte for byte, every probe family.
    EXPECT_EQ(hashSnapshot(a.rt->hashAt(a.dur.startFd)),
              hashSnapshot(b.rt->hashAt(b.dur.startFd)));
    EXPECT_EQ(arraySnapshot(a.rt->arrayAt(a.dur.statsFd)),
              arraySnapshot(b.rt->arrayAt(b.dur.statsFd)));
    EXPECT_EQ(hashSnapshot(a.rt->hashAt(a.durGuarded.startFd)),
              hashSnapshot(b.rt->hashAt(b.durGuarded.startFd)));
    EXPECT_EQ(arraySnapshot(a.rt->arrayAt(a.durGuarded.statsFd)),
              arraySnapshot(b.rt->arrayAt(b.durGuarded.statsFd)));
    EXPECT_EQ(hashSnapshot(a.rt->hashAt(a.durTenant.startFd)),
              hashSnapshot(b.rt->hashAt(b.durTenant.startFd)));
    EXPECT_EQ(arraySnapshot(a.rt->arrayAt(a.durTenant.statsFd)),
              arraySnapshot(b.rt->arrayAt(b.durTenant.statsFd)));
    EXPECT_EQ(arraySnapshot(a.rt->arrayAt(a.delta.statsFd)),
              arraySnapshot(b.rt->arrayAt(b.delta.statsFd)));
    EXPECT_EQ(arraySnapshot(a.rt->arrayAt(a.deltaTenant.statsFd)),
              arraySnapshot(b.rt->arrayAt(b.deltaTenant.statsFd)));

    // Heavy-hitter sketch: slot-exact contents, same eviction count,
    // same top-K ranking.
    SketchMap &ska = a.rt->sketchAt(a.sketchFd);
    SketchMap &skb = b.rt->sketchAt(b.sketchFd);
    EXPECT_EQ(sketchSnapshot(ska), sketchSnapshot(skb));
    EXPECT_EQ(ska.evictions(), skb.evictions());
    EXPECT_EQ(ska.topK(4), skb.topK(4));
    EXPECT_GT(ska.topK(4).size(), 0u);

    EXPECT_EQ(a.rt->ringbufAt(a.stream.ringFd).drops(),
              b.rt->ringbufAt(b.stream.ringFd).drops());
}

/** Drain a stack's stream ring into a payload sequence (destructive —
 *  call once per stack, then compare the sequences). */
std::vector<std::string>
drainRing(ProbeStack &s)
{
    std::vector<std::string> rec;
    s.rt->ringbufAt(s.stream.ringFd)
        .consume([&](const std::uint8_t *d, std::uint32_t n) {
            rec.emplace_back(reinterpret_cast<const char *>(d), n);
        });
    return rec;
}

TEST(EngineDiffProbeLibrary, IdenticalEventStreamIdenticalObservations)
{
    ProbeStack ref(ExecEngine::Reference);
    ProbeStack xlt(ExecEngine::Translated);
    ProbeStack nat(ExecEngine::Native);

    // Every library probe must have native-compiled in the native
    // stack — a silent fallback here would make this test vacuous for
    // the native engine.
    EXPECT_EQ(nat.rt->nativePrograms(), nat.rt->loadedPrograms());

    // A deterministic mixed stream: the traced tgids and an untraced
    // one, the traced syscall, the delta family and an ignored syscall,
    // occasional failures, and occasional clock-inverted exits (the
    // guarded probes skip those, the unguarded ones wrap). Small ring
    // capacity makes all stacks hit the drop path at the same events.
    std::uint64_t ts = 1000;
    for (int i = 0; i < 20000; ++i) {
        kernel::RawSyscallEvent ev;
        ev.syscall = (i % 4 == 0) ? 232 : (i % 4 == 1 ? 44 : 0);
        ev.pidTgid = kernel::makePidTgid(
            i % 5 == 4 ? 7777 : (i % 3 == 0 ? 1000 : 2000), 1 + (i % 2));
        ev.ret = (i % 7 == 0) ? -4 : 100;

        ev.point = kernel::TracepointId::SysEnter;
        const std::uint64_t enter_ts = ts += 350;
        ev.timestamp = static_cast<sim::Tick>(enter_ts);
        ref.fire(ev);
        xlt.fire(ev);
        nat.fire(ev);

        ev.point = kernel::TracepointId::SysExit;
        ts += 650;
        ev.timestamp = static_cast<sim::Tick>(
            i % 13 == 0 ? enter_ts - 900 : ts);
        ref.fire(ev);
        xlt.fire(ev);
        nat.fire(ev);
    }

    expectStacksEqual(ref, xlt, "reference vs translated");
    expectStacksEqual(ref, nat, "reference vs native");

    // Ring-buffer payload sequences byte for byte.
    const std::vector<std::string> recRef = drainRing(ref);
    EXPECT_GT(recRef.size(), 0u);
    EXPECT_EQ(recRef, drainRing(xlt));
    EXPECT_EQ(recRef, drainRing(nat));
}

/** One engine's runqlat probe pair on its own kernel and maps. */
struct RunqStack
{
    sim::Simulation sim{1};
    std::unique_ptr<kernel::Kernel> kernel;
    std::unique_ptr<EbpfRuntime> rt;
    probes::RunqlatMaps maps;

    explicit RunqStack(ExecEngine engine)
    {
        kernel = std::make_unique<kernel::Kernel>(sim);
        RuntimeConfig rc;
        rc.engine = engine;
        rt = std::make_unique<EbpfRuntime>(*kernel, rc);
        probes::TenantSet tenants;
        tenants.tgids = {1000, 2000};
        tenants.pollSyscalls = {232, 232};
        maps = probes::createRunqlatMaps(*rt, 2, "runq");
        attach(probes::buildRunqlatWakeup(*rt, maps),
               kernel::TracepointId::SchedWakeup);
        attach(probes::buildRunqlatWakeup(*rt, maps),
               kernel::TracepointId::SchedWakeupNew);
        attach(probes::buildRunqlatSwitch(*rt, tenants, maps),
               kernel::TracepointId::SchedSwitch);
    }

    void attach(ProgramSpec spec, kernel::TracepointId point)
    {
        const auto vr = rt->loadAndAttach(std::move(spec), point);
        ASSERT_TRUE(vr.ok) << vr.error;
    }

    void fire(const kernel::RawSyscallEvent &ev)
    {
        kernel->tracepoints().fire(ev);
    }
};

/**
 * The runqlat pair observes identically under all three engines: same
 * per-tenant histograms, same leftover wakeup stamps, same retired-
 * instruction accounting. The synthetic sched stream covers both
 * tenants, an unknown tgid, switches to idle, preempt re-stamps
 * (prev_state == 0), switch-ins with no stamp (the skip path), and
 * waits from sub-bucket-0 up into the saturating top bucket.
 */
TEST(EngineDiffRunqlat, HistogramsAgreeBitForBit)
{
    RunqStack ref(ExecEngine::Reference);
    RunqStack xlt(ExecEngine::Translated);
    RunqStack nat(ExecEngine::Native);
    RunqStack *stacks[] = {&ref, &xlt, &nat};

    // Both runqlat programs must native-compile — a silent fallback
    // would make this test vacuous for the native engine.
    EXPECT_EQ(nat.rt->nativePrograms(), nat.rt->loadedPrograms());

    std::uint64_t ts = 1000;
    for (std::uint64_t i = 0; i < 6000; ++i) {
        const std::uint32_t tid = 1 + (i % 11);
        const std::uint32_t tgid =
            i % 3 == 0 ? 1000u : (i % 3 == 1 ? 2000u : 7777u);

        if (i % 9 != 0) { // every 9th switch-in arrives unstamped
            kernel::RawSyscallEvent w;
            w.point = i % 2 == 0 ? kernel::TracepointId::SchedWakeup
                                 : kernel::TracepointId::SchedWakeupNew;
            w.syscall = tid;
            w.pidTgid = kernel::makePidTgid(tgid, tid);
            w.timestamp = static_cast<sim::Tick>(ts += 170);
            for (auto *s : stacks)
                s->fire(w);
        }

        // Wait spanning the histogram; every 29th lands in the
        // saturating top bucket.
        std::uint64_t wait = 900 + (i % 13) * 5200 + (i % 5) * 260000;
        if (i % 29 == 0)
            wait += 60u * 1000u * 1000u;
        ts += wait;

        kernel::RawSyscallEvent sw;
        sw.point = kernel::TracepointId::SchedSwitch;
        sw.syscall = 1 + ((i + 5) % 11);   // departing task
        sw.ret = i % 4 == 0 ? 0 : 1;       // every 4th is a preempt
        sw.pidTgid = i % 17 == 0
                         ? 0 // switch to idle
                         : kernel::makePidTgid(tgid, tid);
        sw.timestamp = static_cast<sim::Tick>(ts);
        for (auto *s : stacks)
            s->fire(sw);
    }

    for (auto *other : {&xlt, &nat}) {
        for (std::uint32_t slot = 0; slot < 2; ++slot)
            EXPECT_EQ(probes::readHist(*ref.rt, ref.maps.histFd, slot),
                      probes::readHist(*other->rt, other->maps.histFd,
                                       slot));
        EXPECT_EQ(hashSnapshot(ref.rt->hashAt(ref.maps.stampFd)),
                  hashSnapshot(other->rt->hashAt(other->maps.stampFd)));
        EXPECT_EQ(ref.rt->eventsProcessed(), other->rt->eventsProcessed());
        EXPECT_EQ(ref.rt->insnsInterpreted(),
                  other->rt->insnsInterpreted());
        EXPECT_EQ(ref.rt->totalProbeCost(), other->rt->totalProbeCost());
        EXPECT_EQ(ref.rt->mapUpdateFails(), other->rt->mapUpdateFails());
    }
    // The stream populated real buckets in both tenant slots.
    for (std::uint32_t slot = 0; slot < 2; ++slot) {
        std::uint64_t total = 0;
        for (std::uint64_t c :
             probes::readHist(*ref.rt, ref.maps.histFd, slot))
            total += c;
        EXPECT_GT(total, 500u) << "slot " << slot;
    }
}

} // namespace
} // namespace reqobs::ebpf
