/**
 * @file
 * Scale proof for the native engine: drive one simulated machine past
 * 10^7 syscalls/sec of wall-clock event processing with the full
 * multi-tenant probe set attached (tenant duration pair, tenant
 * send/recv delta, heavy-hitter sketch), under each eBPF engine. Events
 * enter through the tracepoint registry one at a time, exactly as the
 * kernel's syscall dispatch fires them.
 *
 * Like bench_perf, every number here is a host wall-clock measurement;
 * the simulated outputs are engine-invariant (asserted in
 * tests/ebpf_diff_test.cc and tests/engine_test.cc).
 *
 * Flags: --json <path> (default BENCH_scale.json), --floor <ev/s>
 * (exit 1 if the native row misses the floor), --syscalls <n>
 * (native storm size, default 12M).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "ebpf/probes.hh"
#include "ebpf/runtime.hh"
#include "kernel/kernel.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace {

using namespace reqobs;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// x86-64 syscall numbers, matching the probe library's vocabulary.
constexpr std::int64_t kSendto = 44;
constexpr std::int64_t kRecvfrom = 45;
constexpr std::int64_t kEpollWait = 232;
constexpr std::int64_t kWrite = 1;

constexpr std::uint32_t kTenants = 4;

/** One machine: sim + kernel + runtime with the tenant probe set. */
struct Rig
{
    std::unique_ptr<sim::Simulation> sim;
    std::unique_ptr<kernel::Kernel> kernel;
    std::unique_ptr<ebpf::EbpfRuntime> rt;
    ebpf::probes::DurationMaps dur;
    ebpf::probes::DeltaMaps delta;
    int sketchFd = -1;
};

Rig
makeTenantRig(ebpf::ExecEngine engine)
{
    Rig r;
    r.sim = std::make_unique<sim::Simulation>(1);
    r.kernel = std::make_unique<kernel::Kernel>(*r.sim);
    ebpf::RuntimeConfig rc;
    rc.engine = engine;
    r.rt = std::make_unique<ebpf::EbpfRuntime>(*r.kernel, rc);

    ebpf::probes::TenantSet ts;
    ts.tgids = {1000, 2000, 3000, 4000};
    ts.pollSyscalls = {kEpollWait, kEpollWait, kEpollWait, kEpollWait};
    const std::vector<std::int64_t> family{kSendto, kRecvfrom};

    r.dur = ebpf::probes::createTenantDurationMaps(*r.rt, kTenants,
                                                   "scale.dur");
    r.delta = ebpf::probes::createTenantDeltaMaps(*r.rt, kTenants,
                                                  "scale.delta");
    r.sketchFd = ebpf::probes::createTenantSketchMap(*r.rt, 4, 64, "scale");

    const auto v1 = r.rt->loadAndAttach(
        ebpf::probes::buildTenantDurationEnter(*r.rt, ts, r.dur),
        kernel::TracepointId::SysEnter);
    const auto v2 = r.rt->loadAndAttach(
        ebpf::probes::buildTenantDurationExit(*r.rt, ts, r.dur),
        kernel::TracepointId::SysExit);
    const auto v3 = r.rt->loadAndAttach(
        ebpf::probes::buildTenantDeltaExit(*r.rt, ts, family, r.delta),
        kernel::TracepointId::SysExit);
    const auto v4 = r.rt->loadAndAttach(
        ebpf::probes::buildTenantHeavyHitter(*r.rt, ts, family, r.sketchFd),
        kernel::TracepointId::SysExit);
    if (!v1 || !v2 || !v3 || !v4)
        sim::fatal("bench_scale: tenant probe set failed to load");
    return r;
}

/**
 * Precomputed storm columns: 2/3 of events from the four monitored
 * tenants, 1/3 background noise from unmonitored tgids, syscall mix
 * rotating send/recv/poll/write across 8 threads per process. Only the
 * timestamp columns are rewritten per round.
 */
struct Storm
{
    std::vector<std::int64_t> sys, rets;
    std::vector<kernel::PidTgid> pids;
    std::vector<sim::Tick> enterTs, exitTs;

    std::size_t size() const { return sys.size(); }
};

Storm
makeStorm(std::size_t round)
{
    static constexpr std::uint32_t kTgids[6] = {1000, 2000, 9000,
                                                3000, 4000, 9001};
    static constexpr std::int64_t kSys[4] = {kSendto, kRecvfrom, kEpollWait,
                                             kWrite};
    Storm s;
    s.sys.resize(round);
    s.rets.resize(round);
    s.pids.resize(round);
    s.enterTs.resize(round);
    s.exitTs.resize(round);
    for (std::size_t i = 0; i < round; ++i) {
        const std::uint32_t tgid = kTgids[i % 6];
        const std::uint32_t tid =
            tgid + 1 + static_cast<std::uint32_t>((i / 6) % 8);
        s.pids[i] = kernel::makePidTgid(tgid, tid);
        s.sys[i] = kSys[i % 4];
        s.rets[i] = 64;
    }
    return s;
}

/** Rewrite the timestamp columns for the round starting at @p base. */
void
stampRound(Storm &s, sim::Tick base)
{
    const std::size_t n = s.size();
    for (std::size_t i = 0; i < n; ++i)
        s.enterTs[i] = base + static_cast<sim::Tick>(i) * 200;
    const sim::Tick exit_base = base + static_cast<sim::Tick>(n) * 200 + 700;
    for (std::size_t i = 0; i < n; ++i)
        s.exitTs[i] = exit_base + static_cast<sim::Tick>(i) * 200;
}

/** Ticks one round advances the clock (next round's base offset). */
sim::Tick
roundSpan(const Storm &s)
{
    return static_cast<sim::Tick>(2 * s.size()) * 200 + 1400;
}

/** Run @p rounds storm rounds, one tracepoint fire per event. */
double
runScalar(Rig &r, Storm &s, std::uint64_t rounds)
{
    sim::Tick base = 1;
    const auto start = Clock::now();
    for (std::uint64_t round = 0; round < rounds; ++round) {
        stampRound(s, base);
        kernel::RawSyscallEvent ev;
        ev.point = kernel::TracepointId::SysEnter;
        for (std::size_t i = 0; i < s.size(); ++i) {
            ev.syscall = s.sys[i];
            ev.pidTgid = s.pids[i];
            ev.timestamp = s.enterTs[i];
            r.kernel->tracepoints().fire(ev);
        }
        ev.point = kernel::TracepointId::SysExit;
        for (std::size_t i = 0; i < s.size(); ++i) {
            ev.syscall = s.sys[i];
            ev.ret = s.rets[i];
            ev.pidTgid = s.pids[i];
            ev.timestamp = s.exitTs[i];
            r.kernel->tracepoints().fire(ev);
        }
        base += roundSpan(s);
    }
    return secondsSince(start);
}

/** One measured configuration for the report/JSON. */
struct Row
{
    std::string label;
    std::uint64_t syscalls = 0;
    double seconds = 0.0;
    double syscallsPerSec = 0.0;
    double probeEventsPerSec = 0.0;
};

Row
measure(const std::string &label, ebpf::ExecEngine engine,
        std::uint64_t syscalls, std::size_t round)
{
    Rig r = makeTenantRig(engine);
    Storm s = makeStorm(round);
    const std::uint64_t rounds = std::max<std::uint64_t>(
        1, syscalls / round);
    // Warm caches, branch history, and the hash map's bucket layout.
    (void)runScalar(r, s, 1);
    const std::uint64_t events0 = r.rt->eventsProcessed();
    const double secs = runScalar(r, s, rounds);
    Row row;
    row.label = label;
    row.syscalls = rounds * round;
    row.seconds = secs;
    row.syscallsPerSec = static_cast<double>(row.syscalls) / secs;
    row.probeEventsPerSec =
        static_cast<double>(r.rt->eventsProcessed() - events0) / secs;
    return row;
}

void
printRow(const Row &r)
{
    std::printf("  %-28s %10.2fs %14.0f %14.0f\n", r.label.c_str(),
                r.seconds, r.syscallsPerSec, r.probeEventsPerSec);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_scale.json";
    double floor = 0.0;
    std::uint64_t headline_syscalls = 12000000;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--floor") == 0 && i + 1 < argc)
            floor = std::atof(argv[++i]);
        else if (std::strcmp(argv[i], "--syscalls") == 0 && i + 1 < argc)
            headline_syscalls = std::strtoull(argv[++i], nullptr, 10);
    }
    constexpr std::size_t kRound = 4096;

    bench::printHeader("Scale: one machine under a syscall storm");
    std::printf("tenant probe set: duration pair + send/recv delta + "
                "heavy hitter (4 tenants)\n");
    std::printf("  %-28s %11s %14s %14s\n", "engine", "wall",
                "syscalls/s", "probe ev/s");

    // --- engine ladder, per-event dispatch ---
    const Row ref = measure("reference", ebpf::ExecEngine::Reference,
                            headline_syscalls / 12, kRound);
    printRow(ref);
    const Row xlt = measure("translated", ebpf::ExecEngine::Translated,
                            headline_syscalls / 3, kRound);
    printRow(xlt);
    const Row nat = measure("native", ebpf::ExecEngine::Native,
                            headline_syscalls, kRound);
    printRow(nat);

    std::FILE *f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_scale: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    auto emitRow = [f](const char *key, const Row &r, const char *sep) {
        std::fprintf(f,
                     "  \"%s\": {\"syscalls\": %llu, \"seconds\": %.3f, "
                     "\"syscalls_per_sec\": %.0f, "
                     "\"probe_events_per_sec\": %.0f}%s\n",
                     key, static_cast<unsigned long long>(r.syscalls),
                     r.seconds, r.syscallsPerSec, r.probeEventsPerSec, sep);
    };
    emitRow("reference_scalar", ref, ",");
    emitRow("translated_scalar", xlt, ",");
    emitRow("native_scalar", nat, "");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());

    if (floor > 0.0 && nat.syscallsPerSec < floor) {
        std::fprintf(stderr,
                     "bench_scale: FAIL %.0f syscalls/s below floor %.0f\n",
                     nat.syscallsPerSec, floor);
        return 1;
    }
    return 0;
}
