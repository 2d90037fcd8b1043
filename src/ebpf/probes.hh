/**
 * @file
 * The paper's probe library, authored as real eBPF bytecode.
 *
 * Three probe families (§III-B / §IV):
 *
 *  - Duration probes (the paper's Listing 1): a sys_enter program stores
 *    the entry timestamp keyed by pid_tgid; the matching sys_exit program
 *    computes the duration and accumulates count/sum/sum-of-squares into
 *    a stats map. Used for the epoll/select duration metric (Fig. 4/5).
 *
 *  - Delta probes: a sys_exit program computes the interval between
 *    consecutive syscalls of a *family* (send / recv) for one
 *    application, accumulating count, Σdelta and Σdelta² — everything
 *    Eq. 1 (observed RPS) and Eq. 2 (variance) need, entirely in kernel
 *    space with u64 arithmetic.
 *
 *  - Stream probes: export raw per-syscall records through a ring buffer
 *    for userspace trace analysis (Fig. 1).
 *
 * All probes filter on the target application's tgid, mirroring the
 * PID_TGID filter in the paper's listing.
 */

#ifndef REQOBS_EBPF_PROBES_HH
#define REQOBS_EBPF_PROBES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ebpf/program.hh"
#include "ebpf/runtime.hh"

namespace reqobs::ebpf::probes {

/**
 * Right-shift applied to deltas/durations before squaring so the Σx²
 * accumulator cannot overflow u64 within an experiment (ns² sums
 * overflow in seconds otherwise). 10 bits ~ 1 us quantisation.
 */
constexpr unsigned kDeltaShift = 10;

/**
 * Layout of one stats-map slot (32 bytes). Probes update it in place;
 * userspace reads it with ArrayMap::at<SyscallStats>(0). Counters are
 * cumulative; consumers difference them per window.
 */
struct SyscallStats
{
    std::uint64_t count = 0;  ///< events accumulated
    std::uint64_t sumNs = 0;  ///< Σ duration or Σ delta, in ns
    std::uint64_t sumSqQ = 0; ///< Σ (value >> kDeltaShift)²
    std::uint64_t lastTs = 0; ///< previous event timestamp (delta probes)
};

static_assert(sizeof(SyscallStats) == 32);

/** Record emitted by stream probes (one per traced syscall event). */
struct StreamRecord
{
    std::uint64_t id = 0;      ///< syscall number
    std::uint64_t pidTgid = 0;
    std::uint64_t ts = 0;      ///< ns
    std::int64_t ret = 0;
    std::uint64_t point = 0;   ///< 0 = sys_enter, 1 = sys_exit
};

static_assert(sizeof(StreamRecord) == 40);

/** Maps used by one duration-probe pair. */
struct DurationMaps
{
    int startFd = -1; ///< hash: pid_tgid (u64) -> entry ts (u64)
    int statsFd = -1; ///< array[1] of SyscallStats
};

/** Allocate the maps for a duration probe. */
DurationMaps createDurationMaps(EbpfRuntime &rt, const std::string &prefix);

/** sys_enter half of Listing 1: record the entry timestamp. */
ProgramSpec buildDurationEnter(EbpfRuntime &rt, std::uint32_t tgid,
                               std::int64_t syscall, const DurationMaps &maps);

/**
 * sys_exit half of Listing 1: accumulate duration statistics.
 * @p guarded emits extra defensive bytecode that skips samples whose
 * timestamps are inverted (entry after exit, e.g. under clock jitter);
 * off by default so the probe cost model of clean runs is unchanged.
 */
ProgramSpec buildDurationExit(EbpfRuntime &rt, std::uint32_t tgid,
                              std::int64_t syscall, const DurationMaps &maps,
                              unsigned shift = kDeltaShift,
                              bool guarded = false);

/** Maps used by one delta probe. */
struct DeltaMaps
{
    int statsFd = -1; ///< array[1] of SyscallStats (lastTs used)
};

/** Allocate the stats map for a delta probe. */
DeltaMaps createDeltaMaps(EbpfRuntime &rt, const std::string &prefix);

/**
 * sys_exit inter-syscall-delta probe over a syscall family
 * (e.g. {write, sendto, sendmsg}).
 * @p guarded adds defensive bytecode: failed syscalls (ret < 0, e.g.
 * EINTR restarts) and clock-inverted deltas are excluded from the
 * accumulators. Off by default to keep clean-run probe costs unchanged.
 */
ProgramSpec buildDeltaExit(EbpfRuntime &rt, std::uint32_t tgid,
                           const std::vector<std::int64_t> &family,
                           const DeltaMaps &maps,
                           unsigned shift = kDeltaShift,
                           bool guarded = false);

/**
 * @name Tenant-scoped probes (multi-tenant machines).
 *
 * One attached program serves every co-located tenant: the bytecode
 * prologue matches the event's tgid against the registered tenant set
 * (an unrolled jeq chain, the multi-tenant generalisation of the
 * paper's PID_TGID filter) and resolves it to a dense tenant slot. The
 * stats map is an array with one SyscallStats slot per tenant, so a
 * single program run attributes the event to exactly one tenant — all
 * filtering and attribution happens in verified eBPF, never userspace.
 * @{
 */

/** Per-tenant probe identity (program.hh). */
using ebpf::TenantSet;

/** Allocate the per-tenant stats array for a tenant delta probe. */
DeltaMaps createTenantDeltaMaps(EbpfRuntime &rt, std::uint32_t tenants,
                                const std::string &prefix);

/**
 * Tenant-scoped inter-syscall-delta probe: family match, then the
 * tgid-match prologue resolves the tenant slot; count/Σdelta/Σdelta²
 * accumulate into stats[slot]. @p family is the union of the tenants'
 * syscall vocabularies — attribution stays exact because a tenant only
 * ever executes its own vocabulary.
 */
ProgramSpec buildTenantDeltaExit(EbpfRuntime &rt, const TenantSet &tenants,
                                 const std::vector<std::int64_t> &family,
                                 const DeltaMaps &maps,
                                 unsigned shift = kDeltaShift,
                                 bool guarded = false);

/**
 * Allocate the maps for a tenant duration-probe pair: one shared
 * pid_tgid-keyed start map (thread identity already disambiguates
 * tenants) plus the per-tenant stats array.
 */
DurationMaps createTenantDurationMaps(EbpfRuntime &rt, std::uint32_t tenants,
                                      const std::string &prefix);

/**
 * sys_enter half of the tenant Listing-1 pair: the tgid-match prologue
 * also checks the tenant's own poll syscall id, then records the entry
 * timestamp keyed by pid_tgid.
 */
ProgramSpec buildTenantDurationEnter(EbpfRuntime &rt,
                                     const TenantSet &tenants,
                                     const DurationMaps &maps);

/**
 * sys_exit half: duration = ctx->ts - start[pid_tgid], accumulated into
 * stats[slot]. @p guarded skips clock-inverted samples as in
 * buildDurationExit.
 */
ProgramSpec buildTenantDurationExit(EbpfRuntime &rt,
                                    const TenantSet &tenants,
                                    const DurationMaps &maps,
                                    unsigned shift = kDeltaShift,
                                    bool guarded = false);

/**
 * Allocate the per-machine heavy-hitter sketch: tenant slot (u32) ->
 * event count, a @p stages × @p width hash pipe. Returns the map fd.
 */
int createTenantSketchMap(EbpfRuntime &rt, std::uint32_t stages,
                          std::uint32_t width, const std::string &prefix);

/**
 * Tenant-scoped heavy-hitter probe (eHashPipe): family match, tenant
 * prologue, then count the event against the tenant's slot key in the
 * sketch — lookup-and-increment in place when the key is resident,
 * else insert value 1 through the pipe. Userspace reads the noisiest
 * tenants with SketchMap::topK() instead of scanning every slot.
 */
ProgramSpec buildTenantHeavyHitter(EbpfRuntime &rt, const TenantSet &tenants,
                                   const std::vector<std::int64_t> &family,
                                   int sketch_fd);

/** @} */

/**
 * @name Per-tenant log2 histograms (front-door and runqlat probes).
 *
 * Each tenant slot owns kHistBuckets u64 counters; bucket k counts
 * values v with floor(log2(v >> shift)) == k, clamped to the table.
 * @{
 */

/** Buckets per tenant slot. */
constexpr unsigned kHistBuckets = 16;

/** Read tenant @p slot's row (kHistBuckets counters) of @p hist_fd. */
std::vector<std::uint64_t> readHist(EbpfRuntime &rt, int hist_fd,
                                    std::uint32_t slot);

/**
 * Approximate quantile from a log2 histogram bucketed with @p shift:
 * the upper bound (ns) of the bucket containing the @p q-th sample, 0
 * when empty.
 */
std::uint64_t histQuantile(const std::vector<std::uint64_t> &hist, double q,
                           unsigned shift);

/** @} */

/**
 * @name Front-door latency probes (net/frontdoor).
 *
 * The host-network tracepoints reuse the TraceCtx ABI with the flow id
 * in ctx->id and the owning tenant's tgid in ctx->pid_tgid >> 32, so
 * the front-door probe pair is ordinary verified bytecode:
 *
 *  - the net_rx_enqueue program stores ctx->ts in a hash keyed by flow
 *    id (a retransmitted SYN overwrites its slot, so the measured
 *    interval starts at the last wire arrival, like real SYN timestamp
 *    tracking);
 *  - the sock_accept program looks the flow up, computes front-door
 *    latency = ctx->ts - ingress_ts, resolves the tenant slot with the
 *    standard prologue, and increments a per-tenant log2 histogram
 *    bucket — a latency *distribution* per tenant, entirely in kernel
 *    space, where the syscall-derived metrics cannot see at all.
 * @{
 */

/**
 * Right-shift applied to the latency before bucketing: bucket 0 covers
 * [0, 2·4096) ns and the top bucket saturates at ~2^27 ns (~134 ms),
 * bracketing everything from clean accepts to multi-RTO storms.
 */
constexpr unsigned kFrontDoorShift = 12;

/** Maps used by the front-door probe pair. */
struct FrontDoorMaps
{
    int ingressFd = -1; ///< hash: flow id (u64) -> ingress ts (u64)
    int histFd = -1;    ///< array[tenants * kHistBuckets] of u64
};

/** Allocate the front-door maps for @p tenants tenant slots. */
FrontDoorMaps createFrontDoorMaps(EbpfRuntime &rt, std::uint32_t tenants,
                                  const std::string &prefix);

/** net_rx_enqueue half: stamp the flow's ingress timestamp. */
ProgramSpec buildFrontDoorIngress(EbpfRuntime &rt, const FrontDoorMaps &maps);

/** sock_accept half: bucket the front-door latency per tenant. */
ProgramSpec buildFrontDoorAccept(EbpfRuntime &rt, const TenantSet &tenants,
                                 const FrontDoorMaps &maps,
                                 unsigned shift = kFrontDoorShift);

/** @} */

/**
 * @name Run-queue latency probe pair (the runqlat idiom).
 *
 * The classic BCC/libbpf runqlat tool, on the simulated sched
 * tracepoints (SchedModel::Discrete only — under Gps they never fire):
 *  - the sched_wakeup / sched_wakeup_new program stamps
 *    stamp[tid] = ctx->ts for every woken task (no tenant filter: the
 *    wait clock must start even when a non-tenant thread wakes, and
 *    attribution happens on the switch side);
 *  - the sched_switch program first re-stamps the departing task when
 *    it is still runnable (ctx->ret == 0: preempted, its wait starts
 *    now), then resolves the *incoming* task's tenant slot with the
 *    standard prologue, computes wait = ctx->ts - stamp[next_tid], and
 *    increments a per-tenant log2 histogram bucket. Run-queue latency
 *    is the canonical early signal of CPU contention: it rises as soon
 *    as tasks queue, well before completions slow enough to move the
 *    syscall-derived Eq. 2 variance.
 * @{
 */

/**
 * Right-shift applied to the wait before bucketing: bucket 0 covers
 * [0, 2048) ns and the top bucket saturates at ~2^25 ns (~33 ms),
 * bracketing everything from same-tick dispatch to heavy antagonist
 * queueing.
 */
constexpr unsigned kRunqlatShift = 10;

/** Maps used by the runqlat probe pair. */
struct RunqlatMaps
{
    int stampFd = -1; ///< hash: tid (u64) -> wakeup/preempt ts (u64)
    int histFd = -1;  ///< array[tenants * kHistBuckets] of u64
};

/** Allocate the runqlat maps for @p tenants tenant slots. */
RunqlatMaps createRunqlatMaps(EbpfRuntime &rt, std::uint32_t tenants,
                              const std::string &prefix);

/**
 * sched_wakeup / sched_wakeup_new half: stamp the woken task's wait
 * start. Attach the same build to both wakeup tracepoints.
 */
ProgramSpec buildRunqlatWakeup(EbpfRuntime &rt, const RunqlatMaps &maps);

/** sched_switch half: bucket the incoming task's wait per tenant. */
ProgramSpec buildRunqlatSwitch(EbpfRuntime &rt, const TenantSet &tenants,
                               const RunqlatMaps &maps,
                               unsigned shift = kRunqlatShift);

/** @} */

/** Maps used by a stream probe. */
struct StreamMaps
{
    int ringFd = -1;
};

/** Allocate the ring buffer for stream probes. */
StreamMaps createStreamMaps(EbpfRuntime &rt, std::uint32_t capacity_bytes,
                            const std::string &prefix);

/**
 * Raw-record streaming probe for one tracepoint. @p exit_point selects
 * sys_exit (true) vs sys_enter (false) and is stamped into the records.
 */
ProgramSpec buildStreamProbe(EbpfRuntime &rt, std::uint32_t tgid,
                             bool exit_point, const StreamMaps &maps);

/**
 * @name Bytecode emitter.
 *
 * Every build* probe is emit(shape) for the shape the builder fills
 * in, and the builder stores that shape in the ProgramSpec. The native
 * compiler (native.cc) binds its kernel to the stored shape, re-emitting
 * once and requiring byte equality with the spec's instructions, so a
 * kernel only ever runs the exact bytes it was written for. Map fields
 * are fds as baked into ld_map_fd.
 * @{
 */
std::vector<Insn> emit(const ProbeShape &shape);
/** @} */

} // namespace reqobs::ebpf::probes

#endif // REQOBS_EBPF_PROBES_HH
