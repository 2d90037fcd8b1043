#include "ebpf/probes.hh"

#include "ebpf/assembler.hh"
#include "sim/logging.hh"

namespace reqobs::ebpf::probes {

namespace {

/** A 32-bit jump/move immediate, truncated as the bytecode carries it. */
std::int32_t
imm(std::int64_t v)
{
    return static_cast<std::int32_t>(v);
}

void
need(bool ok)
{
    if (!ok)
        sim::fatal("probes::emit: malformed probe shape");
}

/**
 * Emit the common application filter:
 *   r6 = ctx->pid_tgid; if ((r6 >> 32) != tgid) goto out;
 * Leaves pid_tgid in r6.
 */
void
emitTgidFilter(ProgramBuilder &b, std::uint32_t tgid)
{
    b.ldxdw(R6, R1, offsetof(TraceCtx, pidTgid))
        .mov(R7, R6)
        .rshImm(R7, 32)
        .jneImm(R7, imm(tgid), "out");
}

/**
 * The slot-resolution half of emitTenantFilter, for probes that must
 * load ctx->pid_tgid themselves (e.g. before a helper call clobbers
 * r1): expects pid_tgid already in r6.
 */
void
emitTenantSlot(ProgramBuilder &b, const TenantSet &tenants,
               bool match_poll)
{
    b.mov(R7, R6).rshImm(R7, 32);
    for (std::size_t i = 0; i < tenants.tgids.size(); ++i)
        b.jeqImm(R7, imm(tenants.tgids[i]), "tenant" + std::to_string(i));
    b.ja("out");
    for (std::size_t i = 0; i < tenants.tgids.size(); ++i) {
        b.label("tenant" + std::to_string(i));
        if (match_poll)
            b.jneImm(R8, imm(tenants.pollSyscalls[i]), "out");
        b.movImm(R7, static_cast<std::int32_t>(i)).ja("tenant_body");
    }
    b.label("tenant_body");
}

/**
 * Emit the tenant-match prologue, the multi-tenant generalisation of
 * emitTgidFilter: resolve the event's tgid against the tenant set via
 * an unrolled jeq chain and leave the dense tenant slot in r7 (and
 * pid_tgid in r6); non-tenant events jump to "out". With
 * @p match_poll, tenant i's stub additionally requires ctx->id
 * (pre-loaded into r8 by the caller) to equal that tenant's own poll
 * syscall — tenants may wait on different syscalls.
 */
void
emitTenantFilter(ProgramBuilder &b, const TenantSet &tenants,
                 bool match_poll)
{
    b.ldxdw(R6, R1, offsetof(TraceCtx, pidTgid));
    emitTenantSlot(b, tenants, match_poll);
}

/** Family match first: cheap rejection of unrelated syscalls. */
void
emitFamilyMatch(ProgramBuilder &b, const std::vector<std::int64_t> &family)
{
    b.ldxdw(R8, R1, offsetof(TraceCtx, id));
    for (std::int64_t id : family)
        b.jeqImm(R8, imm(id), "match");
    b.ja("out");
    b.label("match");
}

/** u32 stats-slot key at r10+off: the tenant slot in r7, or slot 0. */
void
emitSlotKey(ProgramBuilder &b, std::int16_t off, bool tenant)
{
    if (tenant)
        b.stx(R10, off, R7, BPF_W);
    else
        b.stImm(R10, off, 0, BPF_W);
}

/** r0 = map_lookup(fd, r10+key_off); a miss jumps to @p miss. */
void
emitLookup(ProgramBuilder &b, int fd, std::int16_t key_off,
           const std::string &miss)
{
    b.ldMapFd(R1, fd)
        .mov(R2, R10)
        .addImm(R2, key_off)
        .call(helper::kMapLookupElem)
        .jeqImm(R0, 0, miss);
}

/** map_update(fd, r10+key_off, r10-16, BPF_ANY). */
void
emitUpdate(ProgramBuilder &b, int fd, std::int16_t key_off)
{
    b.ldMapFd(R1, fd)
        .mov(R2, R10)
        .addImm(R2, key_off)
        .mov(R3, R10)
        .addImm(R3, -16)
        .movImm(R4, BPF_ANY)
        .call(helper::kMapUpdateElem);
}

/** (*(u64 *)r0)++. */
void
emitIncrement(ProgramBuilder &b)
{
    b.ldxdw(R3, R0, 0).addImm(R3, 1).stxdw(R0, 0, R3);
}

/**
 * stamp[pid_tgid] = bpf_ktime_get_ns(), pid_tgid in r6 — the thread
 * identity already disambiguates tenants, so one map serves them all.
 */
void
emitStampNow(ProgramBuilder &b, int fd)
{
    b.call(helper::kKtimeGetNs);
    b.stxdw(R10, -8, R6)  // key = pid_tgid
        .stxdw(R10, -16, R0); // value = t
    emitUpdate(b, fd, -8);
}

/**
 * r8 = r9 - stamp[key], the key already on the stack at r10-8, then
 * delete the stamp; a missing stamp exits. @p guarded skips
 * clock-inverted pairs: the u64 subtraction would register an
 * astronomical interval (the stale slot is overwritten by the next
 * stamp).
 */
void
emitTakeStamp(ProgramBuilder &b, int fd, bool guarded)
{
    emitLookup(b, fd, -8, "out");
    b.ldxdw(R3, R0, 0);
    if (guarded)
        b.jgt(R3, R9, "out");
    b.mov(R8, R9).sub(R8, R3);
    // delete(&key);  (key buffer still on the stack)
    b.ldMapFd(R1, fd)
        .mov(R2, R10)
        .addImm(R2, -8)
        .call(helper::kMapDeleteElem);
}

/**
 * Duration accumulate body shared by the single- and multi-tenant exit
 * probes: r0 points at the SyscallStats slot, r8 holds the duration.
 */
void
emitDurationBody(ProgramBuilder &b, unsigned shift)
{
    // stats->count++;
    b.ldxdw(R3, R0, offsetof(SyscallStats, count))
        .addImm(R3, 1)
        .stxdw(R0, offsetof(SyscallStats, count), R3);
    // stats->sum_ns += duration;
    b.ldxdw(R3, R0, offsetof(SyscallStats, sumNs))
        .add(R3, R8)
        .stxdw(R0, offsetof(SyscallStats, sumNs), R3);
    // q = duration >> shift; stats->sumsq_q += q * q;
    b.mov(R4, R8)
        .rshImm(R4, imm(shift))
        .mov(R5, R4)
        .mul(R5, R4)
        .ldxdw(R3, R0, offsetof(SyscallStats, sumSqQ))
        .add(R3, R5)
        .stxdw(R0, offsetof(SyscallStats, sumSqQ), R3);
}

/** Listing 1's sys_exit half after the filter: time, take, accumulate. */
void
emitDurationTail(ProgramBuilder &b, const ProbeShape &s, bool tenant)
{
    // end_ns = ctx->ts; duration = end_ns - start[pid_tgid]
    b.ldxdw(R9, R1, offsetof(TraceCtx, ts)).stxdw(R10, -8, R6);
    emitTakeStamp(b, s.stampFd, s.guarded);
    emitSlotKey(b, -24, tenant);
    emitLookup(b, s.outFd, -24, "out");
    emitDurationBody(b, s.shift);
}

/**
 * Delta accumulate body shared by the single- and multi-tenant exit
 * probes: r0 points at the SyscallStats slot, r9 holds ctx->ts.
 */
void
emitDeltaBody(ProgramBuilder &b, unsigned shift, bool guarded)
{
    // last = stats->last_ts; stats->last_ts = now;
    b.ldxdw(R3, R0, offsetof(SyscallStats, lastTs))
        .stxdw(R0, offsetof(SyscallStats, lastTs), R9)
        .jeqImm(R3, 0, "out"); // first event seeds the chain
    // Jittered timestamps can run backwards; a u64 delta would wrap to
    // ~2^64. Drop the inverted pair (last_ts already reseeded above).
    if (guarded)
        b.jgt(R3, R9, "out");
    // delta = now - last;
    b.mov(R2, R9).sub(R2, R3);
    // count++, sum += delta
    b.ldxdw(R3, R0, offsetof(SyscallStats, count))
        .addImm(R3, 1)
        .stxdw(R0, offsetof(SyscallStats, count), R3)
        .ldxdw(R3, R0, offsetof(SyscallStats, sumNs))
        .add(R3, R2)
        .stxdw(R0, offsetof(SyscallStats, sumNs), R3);
    // q = delta >> shift; sumsq += q*q  (Eq. 2's E[x^2] accumulator)
    b.rshImm(R2, imm(shift))
        .mov(R4, R2)
        .mul(R4, R2)
        .ldxdw(R3, R0, offsetof(SyscallStats, sumSqQ))
        .add(R3, R4)
        .stxdw(R0, offsetof(SyscallStats, sumSqQ), R3);
}

/** Delta probes after the filter: accumulate into stats[slot]. */
void
emitDeltaTail(ProgramBuilder &b, const ProbeShape &s, bool tenant)
{
    // Failed syscalls (EINTR restarts, EAGAIN polls with data racing
    // away) are not request completions; counting their exits inflates
    // Eq. 1. The guarded variant filters on ret >= 0.
    if (s.guarded)
        b.ldxdw(R2, R1, offsetof(TraceCtx, ret)).jsltImm(R2, 0, "out");
    b.ldxdw(R9, R1, offsetof(TraceCtx, ts)); // now = ctx->ts
    emitSlotKey(b, -4, tenant);
    emitLookup(b, s.outFd, -4, "out");
    emitDeltaBody(b, s.shift, s.guarded);
}

// The histogram tail computes slot * kHistBuckets as a shift.
static_assert(kHistBuckets == 16, "emitStampToHistogram hardcodes lsh 4");

/**
 * Stamp-to-histogram tail shared by the runqlat switch and front-door
 * accept probes (the bytecode twin of native.cc's stampToHistogram):
 * the key on the stack at r10-8, now in r9, the tenant slot in r7.
 */
void
emitStampToHistogram(ProgramBuilder &b, const ProbeShape &s)
{
    emitTakeStamp(b, s.stampFd, /*guarded=*/false);
    // bucket = floor(log2(r8 >> shift)), clamped to the table: an
    // unrolled threshold chain (verifier-friendly, no loops).
    b.rshImm(R8, imm(s.shift)).movImm(R6, 0);
    for (unsigned k = 1; k < kHistBuckets; ++k) {
        b.jltImm(R8, static_cast<std::int32_t>(1u << k), "bucket");
        b.movImm(R6, static_cast<std::int32_t>(k));
    }
    b.label("bucket");
    // hist = &hist_array[slot * kHistBuckets + bucket]; (*hist)++;
    b.lshImm(R7, 4).add(R7, R6).stx(R10, -16, R7, BPF_W);
    emitLookup(b, s.outFd, -16, "out");
    emitIncrement(b);
}

/** A library probe: its bytecode, the map table and the shape itself. */
ProgramSpec
specFor(EbpfRuntime &rt, const char *name, ProbeShape shape)
{
    ProgramSpec spec;
    spec.name = name;
    spec.insns = emit(shape);
    spec.maps = rt.mapTable();
    spec.shape = std::move(shape);
    return spec;
}

} // namespace

std::vector<Insn>
emit(const ProbeShape &s)
{
    const std::vector<std::uint32_t> &tgids = s.tenants.tgids;
    ProgramBuilder b;
    switch (s.kind) {
    case ProbeKind::DurationEnter:
    case ProbeKind::DurationExit:
        need(tgids.size() == 1 && s.syscalls.size() == 1);
        emitTgidFilter(b, tgids[0]);
        // Filter the syscall of interest (args->id in the paper's listing).
        b.ldxdw(R8, R1, offsetof(TraceCtx, id))
            .jneImm(R8, imm(s.syscalls[0]), "out");
        if (s.kind == ProbeKind::DurationEnter)
            emitStampNow(b, s.stampFd);
        else
            emitDurationTail(b, s, /*tenant=*/false);
        break;
    case ProbeKind::TenantDurationEnter:
    case ProbeKind::TenantDurationExit:
        need(!tgids.empty() && s.tenants.pollSyscalls.size() == tgids.size());
        // ctx->id in r8 before the prologue: each tenant stub matches its
        // own poll syscall.
        b.ldxdw(R8, R1, offsetof(TraceCtx, id));
        emitTenantFilter(b, s.tenants, /*match_poll=*/true); // slot in r7
        if (s.kind == ProbeKind::TenantDurationEnter)
            emitStampNow(b, s.stampFd);
        else
            emitDurationTail(b, s, /*tenant=*/true);
        break;
    case ProbeKind::DeltaExit:
        need(tgids.size() == 1 && !s.syscalls.empty());
        emitFamilyMatch(b, s.syscalls);
        emitTgidFilter(b, tgids[0]);
        emitDeltaTail(b, s, /*tenant=*/false);
        break;
    case ProbeKind::TenantDeltaExit:
        need(!tgids.empty() && !s.syscalls.empty());
        emitFamilyMatch(b, s.syscalls);
        emitTenantFilter(b, s.tenants, /*match_poll=*/false); // slot in r7
        emitDeltaTail(b, s, /*tenant=*/true);
        break;
    case ProbeKind::TenantHeavyHitter:
        need(!tgids.empty() && !s.syscalls.empty());
        emitFamilyMatch(b, s.syscalls);
        emitTenantFilter(b, s.tenants, /*match_poll=*/false); // slot in r7
        // key = tenant slot; resident keys increment their count in place
        // (no pipe traversal), misses insert value 1 through the pipe.
        emitSlotKey(b, -4, /*tenant=*/true);
        emitLookup(b, s.outFd, -4, "insert");
        emitIncrement(b);
        b.ja("out");
        b.label("insert").stImm(R10, -16, 1, BPF_DW);
        emitUpdate(b, s.outFd, -4);
        break;
    case ProbeKind::Stream:
        need(tgids.size() == 1);
        emitTgidFilter(b, tgids[0]);
        // Assemble a StreamRecord at r10-40.
        b.ldxdw(R2, R1, offsetof(TraceCtx, id))
            .stxdw(R10, -40, R2)
            .stxdw(R10, -32, R6) // pid_tgid (from the filter)
            .ldxdw(R2, R1, offsetof(TraceCtx, ts))
            .stxdw(R10, -24, R2)
            .ldxdw(R2, R1, offsetof(TraceCtx, ret))
            .stxdw(R10, -16, R2)
            .stImm(R10, -8, s.exitPoint ? 1 : 0, BPF_DW);
        b.ldMapFd(R1, s.outFd)
            .mov(R2, R10)
            .addImm(R2, -40)
            .movImm(R3, sizeof(StreamRecord))
            .movImm(R4, 0)
            .call(helper::kRingbufOutput);
        break;
    case ProbeKind::IdStamp:
        // Read ctx fields before r1 is clobbered by the helper setup.
        b.ldxdw(R2, R1, offsetof(TraceCtx, id))
            .stxdw(R10, -8, R2) // key = woken tid / flow id
            .ldxdw(R3, R1, offsetof(TraceCtx, ts))
            .stxdw(R10, -16, R3); // value = wakeup / ingress ts
        // BPF_ANY: a re-wakeup restarts the wait clock, exactly as
        // runqlat.bpf.c's trace_enqueue does; a retransmitted SYN
        // restarts the flow's front-door clock at its latest arrival.
        emitUpdate(b, s.stampFd, -8);
        break;
    case ProbeKind::RunqlatSwitch:
        need(!tgids.empty());
        // Read every ctx field up front: the prev re-stamp's helper call
        // clobbers r1-r5, and it must run before the tenant filter decides
        // the incoming task's fate (prev and next are unrelated threads).
        b.ldxdw(R6, R1, offsetof(TraceCtx, pidTgid)) // next pid_tgid
            .ldxdw(R8, R1, offsetof(TraceCtx, id))   // prev tid
            .ldxdw(R9, R1, offsetof(TraceCtx, ts))   // switch ts
            .ldxdw(R2, R1, offsetof(TraceCtx, ret)); // prev state
        // A preempted prev (state 0) stays runnable: its wait starts now.
        b.jneImm(R2, 0, "next").stxdw(R10, -8, R8).stxdw(R10, -16, R9);
        emitUpdate(b, s.stampFd, -8);
        b.label("next");
        emitTenantSlot(b, s.tenants, /*match_poll=*/false); // slot in r7
        // key = next tid = low half of pid_tgid (idle's 0 misses the hash).
        b.mov(R8, R6).lshImm(R8, 32).rshImm(R8, 32).stxdw(R10, -8, R8);
        emitStampToHistogram(b, s);
        break;
    case ProbeKind::FrontDoorAccept:
        need(!tgids.empty());
        b.ldxdw(R8, R1, offsetof(TraceCtx, id))  // flow id
            .ldxdw(R9, R1, offsetof(TraceCtx, ts)); // accept ts
        emitTenantFilter(b, s.tenants, /*match_poll=*/false); // slot in r7
        b.stxdw(R10, -8, R8);
        emitStampToHistogram(b, s);
        break;
    }
    b.label("out").movImm(R0, 0).exit_();
    return b.build();
}

DurationMaps
createDurationMaps(EbpfRuntime &rt, const std::string &prefix)
{
    DurationMaps m;
    m.startFd = rt.createHashMap(sizeof(std::uint64_t), sizeof(std::uint64_t),
                                 16384, prefix + ".start");
    m.statsFd =
        rt.createArrayMap(sizeof(SyscallStats), 1, prefix + ".stats");
    return m;
}

ProgramSpec
buildDurationEnter(EbpfRuntime &rt, std::uint32_t tgid, std::int64_t syscall,
                   const DurationMaps &maps)
{
    return specFor(rt, "duration_enter",
                   {.kind = ProbeKind::DurationEnter,
                    .tenants = {.tgids = {tgid}},
                    .syscalls = {syscall},
                    .stampFd = maps.startFd});
}

ProgramSpec
buildDurationExit(EbpfRuntime &rt, std::uint32_t tgid, std::int64_t syscall,
                  const DurationMaps &maps, unsigned shift, bool guarded)
{
    return specFor(rt, "duration_exit",
                   {.kind = ProbeKind::DurationExit,
                    .tenants = {.tgids = {tgid}},
                    .syscalls = {syscall},
                    .stampFd = maps.startFd,
                    .outFd = maps.statsFd,
                    .shift = shift,
                    .guarded = guarded});
}

DeltaMaps
createDeltaMaps(EbpfRuntime &rt, const std::string &prefix)
{
    DeltaMaps m;
    m.statsFd =
        rt.createArrayMap(sizeof(SyscallStats), 1, prefix + ".stats");
    return m;
}

ProgramSpec
buildDeltaExit(EbpfRuntime &rt, std::uint32_t tgid,
               const std::vector<std::int64_t> &family, const DeltaMaps &maps,
               unsigned shift, bool guarded)
{
    return specFor(rt, "delta_exit",
                   {.kind = ProbeKind::DeltaExit,
                    .tenants = {.tgids = {tgid}},
                    .syscalls = family,
                    .outFd = maps.statsFd,
                    .shift = shift,
                    .guarded = guarded});
}

DeltaMaps
createTenantDeltaMaps(EbpfRuntime &rt, std::uint32_t tenants,
                      const std::string &prefix)
{
    DeltaMaps m;
    m.statsFd =
        rt.createArrayMap(sizeof(SyscallStats), tenants, prefix + ".stats");
    return m;
}

ProgramSpec
buildTenantDeltaExit(EbpfRuntime &rt, const TenantSet &tenants,
                     const std::vector<std::int64_t> &family,
                     const DeltaMaps &maps, unsigned shift, bool guarded)
{
    return specFor(rt, "tenant_delta_exit",
                   {.kind = ProbeKind::TenantDeltaExit,
                    .tenants = tenants,
                    .syscalls = family,
                    .outFd = maps.statsFd,
                    .shift = shift,
                    .guarded = guarded});
}

int
createTenantSketchMap(EbpfRuntime &rt, std::uint32_t stages,
                      std::uint32_t width, const std::string &prefix)
{
    return rt.createSketchMap(sizeof(std::uint32_t), stages, width,
                              prefix + ".hh");
}

ProgramSpec
buildTenantHeavyHitter(EbpfRuntime &rt, const TenantSet &tenants,
                       const std::vector<std::int64_t> &family, int sketch_fd)
{
    return specFor(rt, "tenant_heavy_hitter",
                   {.kind = ProbeKind::TenantHeavyHitter,
                    .tenants = tenants,
                    .syscalls = family,
                    .outFd = sketch_fd});
}

DurationMaps
createTenantDurationMaps(EbpfRuntime &rt, std::uint32_t tenants,
                         const std::string &prefix)
{
    DurationMaps m;
    m.startFd = rt.createHashMap(sizeof(std::uint64_t), sizeof(std::uint64_t),
                                 16384, prefix + ".start");
    m.statsFd =
        rt.createArrayMap(sizeof(SyscallStats), tenants, prefix + ".stats");
    return m;
}

ProgramSpec
buildTenantDurationEnter(EbpfRuntime &rt, const TenantSet &tenants,
                         const DurationMaps &maps)
{
    return specFor(rt, "tenant_duration_enter",
                   {.kind = ProbeKind::TenantDurationEnter,
                    .tenants = tenants,
                    .stampFd = maps.startFd});
}

ProgramSpec
buildTenantDurationExit(EbpfRuntime &rt, const TenantSet &tenants,
                        const DurationMaps &maps, unsigned shift,
                        bool guarded)
{
    return specFor(rt, "tenant_duration_exit",
                   {.kind = ProbeKind::TenantDurationExit,
                    .tenants = tenants,
                    .stampFd = maps.startFd,
                    .outFd = maps.statsFd,
                    .shift = shift,
                    .guarded = guarded});
}

FrontDoorMaps
createFrontDoorMaps(EbpfRuntime &rt, std::uint32_t tenants,
                    const std::string &prefix)
{
    FrontDoorMaps m;
    m.ingressFd = rt.createHashMap(sizeof(std::uint64_t),
                                   sizeof(std::uint64_t), 16384,
                                   prefix + ".ingress");
    m.histFd = rt.createArrayMap(sizeof(std::uint64_t),
                                 tenants * kHistBuckets, prefix + ".hist");
    return m;
}

ProgramSpec
buildFrontDoorIngress(EbpfRuntime &rt, const FrontDoorMaps &maps)
{
    return specFor(rt, "frontdoor_ingress",
                   {.kind = ProbeKind::IdStamp, .stampFd = maps.ingressFd});
}

ProgramSpec
buildFrontDoorAccept(EbpfRuntime &rt, const TenantSet &tenants,
                     const FrontDoorMaps &maps, unsigned shift)
{
    return specFor(rt, "frontdoor_accept",
                   {.kind = ProbeKind::FrontDoorAccept,
                    .tenants = tenants,
                    .stampFd = maps.ingressFd,
                    .outFd = maps.histFd,
                    .shift = shift});
}

RunqlatMaps
createRunqlatMaps(EbpfRuntime &rt, std::uint32_t tenants,
                  const std::string &prefix)
{
    RunqlatMaps m;
    m.stampFd = rt.createHashMap(sizeof(std::uint64_t),
                                 sizeof(std::uint64_t), 16384,
                                 prefix + ".stamp");
    m.histFd = rt.createArrayMap(sizeof(std::uint64_t),
                                 tenants * kHistBuckets, prefix + ".hist");
    return m;
}

ProgramSpec
buildRunqlatWakeup(EbpfRuntime &rt, const RunqlatMaps &maps)
{
    return specFor(rt, "runqlat_wakeup",
                   {.kind = ProbeKind::IdStamp, .stampFd = maps.stampFd});
}

ProgramSpec
buildRunqlatSwitch(EbpfRuntime &rt, const TenantSet &tenants,
                   const RunqlatMaps &maps, unsigned shift)
{
    return specFor(rt, "runqlat_switch",
                   {.kind = ProbeKind::RunqlatSwitch,
                    .tenants = tenants,
                    .stampFd = maps.stampFd,
                    .outFd = maps.histFd,
                    .shift = shift});
}

std::vector<std::uint64_t>
readHist(EbpfRuntime &rt, int hist_fd, std::uint32_t slot)
{
    std::vector<std::uint64_t> hist(kHistBuckets, 0);
    auto &arr = rt.arrayAt(hist_fd);
    for (unsigned k = 0; k < kHistBuckets; ++k)
        hist[k] = arr.at<std::uint64_t>(slot * kHistBuckets + k);
    return hist;
}

std::uint64_t
histQuantile(const std::vector<std::uint64_t> &hist, double q, unsigned shift)
{
    std::uint64_t total = 0;
    for (std::uint64_t c : hist)
        total += c;
    if (total == 0)
        return 0;
    const double target = q * static_cast<double>(total);
    std::uint64_t cum = 0;
    for (unsigned k = 0; k < hist.size(); ++k) {
        cum += hist[k];
        if (static_cast<double>(cum) >= target)
            return 1ull << (k + 1 + shift); // bucket upper bound
    }
    return 1ull << (hist.size() + shift);
}

StreamMaps
createStreamMaps(EbpfRuntime &rt, std::uint32_t capacity_bytes,
                 const std::string &prefix)
{
    StreamMaps m;
    m.ringFd = rt.createRingBuf(capacity_bytes, prefix + ".ring");
    return m;
}

ProgramSpec
buildStreamProbe(EbpfRuntime &rt, std::uint32_t tgid, bool exit_point,
                 const StreamMaps &maps)
{
    return specFor(rt, exit_point ? "stream_exit" : "stream_enter",
                   {.kind = ProbeKind::Stream,
                    .tenants = {.tgids = {tgid}},
                    .outFd = maps.ringFd,
                    .exitPoint = exit_point});
}

} // namespace reqobs::ebpf::probes
