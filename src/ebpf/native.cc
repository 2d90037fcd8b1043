/**
 * @file
 * Shape-specialised native kernels and the binder that attaches a
 * library probe's shape to one of them (see native.hh for the contract).
 *
 * Every kernel retires the exact instruction count the interpreter
 * would on the same control-flow path: the counters are accumulated
 * incrementally, one `n += k` per emitted run of straight-line
 * bytecode, mirroring the stages of probes::emit line for line.
 * Fault-injection draws happen at the same helper-call sites in the
 * same order, so differential runs with a shared fault-injector RNG
 * stay aligned across engines.
 */

#include "ebpf/native.hh"

#include <cstring>

#include "ebpf/map_dispatch.hh"
#include "ebpf/probes.hh"
#include "fault/fault.hh"

namespace reqobs::ebpf {

namespace {

/** Sign-extend a 32-bit jump immediate the way the VM does. */
inline std::uint64_t
sx(std::int32_t v)
{
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
}

inline const std::uint8_t *
bytes(const void *p)
{
    return static_cast<const std::uint8_t *>(p);
}

/** Map update with the VM's injected-pressure gate (-E2BIG on hash). */
inline void
gatedMapUpdate(Map *m, const std::uint8_t *key, const std::uint8_t *val,
               std::uint64_t flags, ExecEnv &env, NativeResult &res)
{
    int rc;
    if (env.fault && m->type() == MapType::Hash &&
        env.fault->injectMapUpdateFail())
        rc = -7; // -E2BIG
    else
        rc = mapUpdateHot(m, key, val, flags);
    if (rc < 0)
        ++res.mapUpdateFails;
}

/** Ring-buffer output with the VM's injected-drop gate (-ENOSPC). */
inline void
gatedRingbufOutput(RingBufMap *rb, const std::uint8_t *data,
                   std::uint32_t len, ExecEnv &env, NativeResult &res)
{
    int rc;
    if (env.fault && env.fault->injectRingbufDrop()) {
        rb->noteDrop(); // capacity pressure: record lost
        rc = -28;       // -ENOSPC
    } else {
        rc = rb->output(data, len);
    }
    if (rc == -28)
        ++res.ringbufDrops;
}

/**
 * Duration accumulate body (13 insns, counted by the caller): the
 * native form of probes.cc emitDurationBody. @p s points at a
 * SyscallStats slot.
 */
inline void
accumulateDuration(std::uint8_t *s, std::uint64_t dur, unsigned shift)
{
    std::uint64_t v;
    std::memcpy(&v, s + 0, 8);
    v += 1;
    std::memcpy(s + 0, &v, 8);
    std::memcpy(&v, s + 8, 8);
    v += dur;
    std::memcpy(s + 8, &v, 8);
    const std::uint64_t q = dur >> (shift & 63);
    std::memcpy(&v, s + 16, 8);
    v += q * q;
    std::memcpy(s + 16, &v, 8);
}

/**
 * Delta accumulate body, the native form of emitDeltaBody. Returns the
 * instructions retired inside the body (3 first-event, 4 inverted-pair
 * under guard, 17 full, 18 full guarded). last_ts is reseeded before
 * the zero check, exactly as the bytecode stores before branching.
 */
inline std::uint64_t
runDeltaBody(std::uint8_t *s, std::uint64_t now, unsigned shift,
             bool guarded)
{
    std::uint64_t last;
    std::memcpy(&last, s + 24, 8);
    std::memcpy(s + 24, &now, 8);
    if (last == 0)
        return 3; // ldxdw, stxdw, jeq taken: first event seeds the chain
    if (guarded && last > now)
        return 4; // + jgt taken: drop the inverted pair
    const std::uint64_t delta = now - last;
    std::uint64_t v;
    std::memcpy(&v, s + 0, 8);
    v += 1;
    std::memcpy(s + 0, &v, 8);
    std::memcpy(&v, s + 8, 8);
    v += delta;
    std::memcpy(s + 8, &v, 8);
    const std::uint64_t q = delta >> (shift & 63);
    std::memcpy(&v, s + 16, 8);
    v += q * q;
    std::memcpy(s + 16, &v, 8);
    return guarded ? 18 : 17;
}

/**
 * Family jeq chain: @p n accumulates one insn per tested comparand,
 * plus the fall-through ja on a miss. The leading ldxdw r8 is counted
 * by the caller.
 */
inline bool
matchFamily(const std::vector<std::uint64_t> &fam, std::uint64_t id,
            std::uint64_t &n)
{
    for (std::size_t i = 0; i < fam.size(); ++i) {
        ++n; // jeq family[i]
        if (id == fam[i])
            return true;
    }
    ++n; // ja out
    return false;
}

/**
 * Tenant-match prologue (probes.cc emitTenantFilter): returns the dense
 * tenant slot, or -1 when the event falls through to "out" (non-tenant
 * tgid, or poll-syscall mismatch under @p match_poll). @p n accumulates
 * the executed instructions.
 */
inline int
matchTenant(const NativeProgram &p, std::uint64_t tgid_hi, std::uint64_t id,
            bool match_poll, std::uint64_t &n)
{
    n += 3; // ldxdw r6, mov r7, rsh r7
    for (std::size_t t = 0; t < p.tgidCmp.size(); ++t) {
        ++n; // jeq tenant t
        if (tgid_hi == p.tgidCmp[t]) {
            if (match_poll) {
                ++n; // jne poll syscall
                if (id != p.pollCmp[t])
                    return -1;
            }
            n += 2; // movImm r7 slot, ja tenant_body
            return static_cast<int>(t);
        }
    }
    ++n; // ja out
    return -1;
}

/**
 * Slot-resolution half of the tenant prologue for probes that preload
 * pid_tgid into r6 themselves (probes.cc emitTenantSlot): same chain as
 * matchTenant minus the leading ldxdw.
 */
inline int
matchTenantSlot(const NativeProgram &p, std::uint64_t tgid_hi,
                std::uint64_t &n)
{
    n += 2; // mov r7, rsh r7 (pid_tgid preloaded in r6)
    for (std::size_t t = 0; t < p.tgidCmp.size(); ++t) {
        ++n; // jeq tenant t
        if (tgid_hi == p.tgidCmp[t]) {
            n += 2; // movImm r7 slot, ja tenant_body
            return static_cast<int>(t);
        }
    }
    ++n; // ja out
    return -1;
}

/**
 * Unrolled log2 threshold chain over 16 buckets (the front-door /
 * runqlat histogram idiom): returns the bucket index and accumulates
 * the retired chain instructions exactly as the bytecode would — one
 * jlt per tested threshold, plus the movImm behind every untaken one.
 */
inline unsigned
log2Bucket16(std::uint64_t v, std::uint64_t &n)
{
    for (unsigned k = 1; k < 16; ++k) {
        ++n; // jlt 1<<k (taken: r6 still holds k-1)
        if (v < (1ull << k))
            return k - 1;
        ++n; // movImm r6 = k
    }
    return 15;
}

// ---------------------------------------------------------------- stages
// The stages below are the native twins of the probes.cc emit* stages
// named in their comments and retire the instructions those emit.

/** stamp[key] = val, BPF_ANY, with the VM's injected-pressure gate. */
inline void
putStamp(const NativeProgram &p, std::uint64_t key, std::uint64_t val,
         ExecEnv &env, NativeResult &res)
{
    gatedMapUpdate(p.stamp, bytes(&key), bytes(&val), BPF_ANY, env, res);
}

/** emitStampNow: stamp[pid_tgid] = bpf_ktime_get_ns(). */
inline void
stampNow(const NativeProgram &p, const TraceCtx &ctx, ExecEnv &env,
         NativeResult &res, std::uint64_t &n)
{
    n += 10; // ktime, 2 stores, ld_map_fd, 4 arg insns, mov flags, call
    putStamp(p, ctx.pidTgid, env.nowNs, env, res);
}

/**
 * emitTakeStamp, from the lookup on (the key is already on the stack):
 * @p interval = now - stamp[key], deleting the stamp. False when the
 * stamp is missing, or clock-inverted under @p guarded.
 */
inline bool
takeStamp(const NativeProgram &p, std::uint64_t key, std::uint64_t now,
          bool guarded, std::uint64_t &interval, std::uint64_t &n)
{
    n += 5; // ld_map_fd, mov, add, call lookup, jeq null
    std::uint8_t *sv = mapLookupHot(p.stamp, bytes(&key));
    if (!sv)
        return false;
    n += 1; // ldxdw r3 = *stamp
    std::uint64_t then;
    std::memcpy(&then, sv, 8);
    if (guarded) {
        n += 1; // jgt: skip the clock-inverted pair
        if (then > now)
            return false;
    }
    n += 2; // mov r8, sub
    interval = now - then;
    n += 4; // delete: ld_map_fd, mov, add, call
    mapEraseHot(p.stamp, bytes(&key));
    return true;
}

/** emitDurationTail: take the entry stamp, accumulate into stats[idx]. */
inline void
durationTail(const NativeProgram &p, const TraceCtx &ctx, std::uint32_t idx,
             std::uint64_t &n)
{
    n += 2; // ldxdw r9 = ctx->ts, stxdw key
    std::uint64_t dur;
    if (!takeStamp(p, ctx.pidTgid, ctx.ts, p.shape.guarded, dur, n))
        return;
    n += 6; // slot key, ld_map_fd, mov, add, call lookup, jeq null
    std::uint8_t *slot = mapLookupHot(p.out, bytes(&idx));
    if (!slot)
        return;
    n += 13; // duration body
    accumulateDuration(slot, dur, p.shape.shift);
}

/** emitDeltaTail: accumulate the inter-event delta into stats[idx]. */
inline void
deltaTail(const NativeProgram &p, const TraceCtx &ctx, std::uint32_t idx,
          std::uint64_t &n)
{
    if (p.shape.guarded) {
        n += 2; // ldxdw ret, jslt: failed syscalls excluded
        if (ctx.ret < 0)
            return;
    }
    n += 7; // ldxdw r9 = ctx->ts, slot key, ld_map_fd, mov, add, call, jeq
    std::uint8_t *slot = mapLookupHot(p.out, bytes(&idx));
    if (!slot)
        return;
    n += runDeltaBody(slot, ctx.ts, p.shape.shift, p.shape.guarded);
}

/**
 * emitStampToHistogram, from the stamp lookup on (the key is already on
 * the stack): take the stamp under @p key, bucket now - stamp into
 * tenant @p t's log2 row, and count it.
 */
inline void
stampToHistogram(const NativeProgram &p, std::uint64_t key,
                 std::uint64_t now, int t, std::uint64_t &n)
{
    std::uint64_t wait;
    if (!takeStamp(p, key, now, /*guarded=*/false, wait, n))
        return;
    n += 2; // rsh shift, movImm r6 0
    const unsigned bucket = log2Bucket16(wait >> (p.shape.shift & 63), n);
    n += 2; // lsh r7, add
    const std::uint32_t idx =
        static_cast<std::uint32_t>(t) * probes::kHistBuckets + bucket;
    n += 6; // stx idx, ld_map_fd, mov, add, call lookup, jeq null
    std::uint8_t *slot = mapLookupHot(p.out, bytes(&idx));
    if (!slot)
        return;
    n += 3; // ldxdw, addImm, stxdw
    std::uint64_t c;
    std::memcpy(&c, slot, 8);
    c += 1;
    std::memcpy(slot, &c, 8);
}

// --------------------------------------------------------------- kernels

void
runDurationEnter(const NativeProgram &p, const TraceCtx &ctx, ExecEnv &env,
                 NativeResult &res)
{
    std::uint64_t n = 4; // ldxdw r6, mov r7, rsh, jne tgid
    if ((ctx.pidTgid >> 32) == p.tgidCmp[0]) {
        n += 2; // ldxdw r8 id, jne syscall
        if (ctx.id == p.syscallCmp[0])
            stampNow(p, ctx, env, res, n);
    }
    res.insns += n + 2; // out: mov r0, exit
}

void
runDurationExit(const NativeProgram &p, const TraceCtx &ctx, ExecEnv &,
                NativeResult &res)
{
    std::uint64_t n = 4; // tgid filter
    if ((ctx.pidTgid >> 32) == p.tgidCmp[0]) {
        n += 2; // ldxdw r8 id, jne syscall
        if (ctx.id == p.syscallCmp[0])
            durationTail(p, ctx, 0, n);
    }
    res.insns += n + 2; // out: mov r0, exit
}

void
runDeltaExit(const NativeProgram &p, const TraceCtx &ctx, ExecEnv &,
             NativeResult &res)
{
    std::uint64_t n = 1; // ldxdw r8 id
    if (matchFamily(p.syscallCmp, ctx.id, n)) {
        n += 4; // tgid filter
        if ((ctx.pidTgid >> 32) == p.tgidCmp[0])
            deltaTail(p, ctx, 0, n);
    }
    res.insns += n + 2; // out: mov r0, exit
}

void
runTenantDeltaExit(const NativeProgram &p, const TraceCtx &ctx, ExecEnv &,
                   NativeResult &res)
{
    std::uint64_t n = 1; // ldxdw r8 id
    if (matchFamily(p.syscallCmp, ctx.id, n)) {
        const int t =
            matchTenant(p, ctx.pidTgid >> 32, 0, /*match_poll=*/false, n);
        if (t >= 0)
            deltaTail(p, ctx, static_cast<std::uint32_t>(t), n);
    }
    res.insns += n + 2; // out: mov r0, exit
}

void
runTenantHeavyHitter(const NativeProgram &p, const TraceCtx &ctx,
                     ExecEnv &env, NativeResult &res)
{
    std::uint64_t n = 1; // ldxdw r8 id
    do {
        if (!matchFamily(p.syscallCmp, ctx.id, n))
            break;
        const int t =
            matchTenant(p, ctx.pidTgid >> 32, 0, /*match_poll=*/false, n);
        if (t < 0)
            break;
        n += 6; // stx key, ld_map_fd, mov, add, call lookup, jeq insert
        const std::uint32_t key = static_cast<std::uint32_t>(t);
        std::uint8_t *v = mapLookupHot(p.out, bytes(&key));
        if (v) {
            n += 4; // ldxdw, addImm, stxdw, ja out: resident increment
            std::uint64_t c;
            std::memcpy(&c, v, 8);
            c += 1;
            std::memcpy(v, &c, 8);
        } else {
            // stImm 1, ld_map_fd, mov, add, mov, add, movImm flags, call
            n += 8;
            const std::uint64_t one = 1;
            gatedMapUpdate(p.out, bytes(&key), bytes(&one), 0, env, res);
        }
    } while (false);
    res.insns += n + 2; // out: mov r0, exit
}

void
runTenantDurationEnter(const NativeProgram &p, const TraceCtx &ctx,
                       ExecEnv &env, NativeResult &res)
{
    std::uint64_t n = 1; // ldxdw r8 id (pre-prologue: stubs match poll)
    const int t =
        matchTenant(p, ctx.pidTgid >> 32, ctx.id, /*match_poll=*/true, n);
    if (t >= 0)
        stampNow(p, ctx, env, res, n);
    res.insns += n + 2; // out: mov r0, exit
}

void
runTenantDurationExit(const NativeProgram &p, const TraceCtx &ctx,
                      ExecEnv &, NativeResult &res)
{
    std::uint64_t n = 1; // ldxdw r8 id
    const int t =
        matchTenant(p, ctx.pidTgid >> 32, ctx.id, /*match_poll=*/true, n);
    if (t >= 0)
        durationTail(p, ctx, static_cast<std::uint32_t>(t), n);
    res.insns += n + 2; // out: mov r0, exit
}

/** ctx->id -> ctx->ts stamp: the runqlat wakeup and front-door ingress. */
void
runIdStamp(const NativeProgram &p, const TraceCtx &ctx, ExecEnv &env,
           NativeResult &res)
{
    // 2 ctx loads + 2 stores, ld_map_fd, 4 arg insns, mov flags, call
    std::uint64_t n = 11;
    putStamp(p, ctx.id, ctx.ts, env, res);
    res.insns += n + 2; // out: mov r0, exit
}

void
runRunqlatSwitch(const NativeProgram &p, const TraceCtx &ctx, ExecEnv &env,
                 NativeResult &res)
{
    std::uint64_t n = 5; // 4 ctx loads + jne prev-state
    if (ctx.ret == 0) {
        // Preempted prev: 2 stores, ld_map_fd, 4 arg insns, mov flags,
        // call update
        n += 9;
        putStamp(p, ctx.id, ctx.ts, env, res);
    }
    const int t = matchTenantSlot(p, ctx.pidTgid >> 32, n);
    if (t >= 0) {
        n += 4; // mov r8, lsh, rsh, stxdw key
        stampToHistogram(p, ctx.pidTgid & 0xffffffffull, ctx.ts, t, n);
    }
    res.insns += n + 2; // out: mov r0, exit
}

void
runFrontDoorAccept(const NativeProgram &p, const TraceCtx &ctx,
                   ExecEnv &, NativeResult &res)
{
    std::uint64_t n = 2; // ldxdw r8 flow, ldxdw r9 ts
    const int t =
        matchTenant(p, ctx.pidTgid >> 32, 0, /*match_poll=*/false, n);
    if (t >= 0) {
        n += 1; // stxdw key
        stampToHistogram(p, ctx.id, ctx.ts, t, n);
    }
    res.insns += n + 2; // out: mov r0, exit
}

void
runStream(const NativeProgram &p, const TraceCtx &ctx, ExecEnv &env,
          NativeResult &res)
{
    std::uint64_t n = 4; // tgid filter
    if ((ctx.pidTgid >> 32) == p.tgidCmp[0]) {
        // 8 record-assembly insns + ld_map_fd, mov, add, 2 movImm, call
        n += 14;
        probes::StreamRecord rec;
        rec.id = ctx.id;
        rec.pidTgid = ctx.pidTgid;
        rec.ts = ctx.ts;
        rec.ret = ctx.ret;
        rec.point = p.shape.exitPoint ? 1 : 0;
        gatedRingbufOutput(static_cast<RingBufMap *>(p.out), bytes(&rec),
                           sizeof(rec), env, res);
    }
    res.insns += n + 2; // out: mov r0, exit
}

// ---------------------------------------------------------------- binder

bool
sameInsns(const std::vector<Insn> &a, const std::vector<Insn> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(Insn)) == 0);
}

Map *
findMap(const ProgramSpec &spec, int fd)
{
    auto it = spec.maps.find(fd);
    return it == spec.maps.end() ? nullptr : it->second;
}

/** pid_tgid / tid / flow (u64) -> ts (u64) stamp map. */
bool
stampMapOk(const Map *m)
{
    return m && m->keySize() == 8 && m->valueSize() == 8;
}

/** index (u32) -> SyscallStats stats array. */
bool
statsMapOk(const Map *m)
{
    return m && m->keySize() == 4 &&
           m->valueSize() == sizeof(probes::SyscallStats);
}

/** index (u32) -> count (u64): sketch or log2-histogram array. */
bool
countMapOk(const Map *m)
{
    return m && m->keySize() == 4 && m->valueSize() == 8;
}

/** Ring buffer for stream records. */
bool
ringMapOk(const Map *m)
{
    return m && m->type() == MapType::RingBuf;
}

/** A kernel and the checks its two map slots must pass (null: unused). */
struct Kernel
{
    NativeProgram::Fn fn;
    const char *name;
    bool (*stampOk)(const Map *);
    bool (*outOk)(const Map *);
};

Kernel
kernelFor(ProbeKind kind)
{
    switch (kind) {
    case ProbeKind::DurationEnter:
        return {runDurationEnter, "duration_enter", stampMapOk, nullptr};
    case ProbeKind::DurationExit:
        return {runDurationExit, "duration_exit", stampMapOk, statsMapOk};
    case ProbeKind::DeltaExit:
        return {runDeltaExit, "delta_exit", nullptr, statsMapOk};
    case ProbeKind::TenantDurationEnter:
        return {runTenantDurationEnter, "tenant_duration_enter", stampMapOk,
                nullptr};
    case ProbeKind::TenantDurationExit:
        return {runTenantDurationExit, "tenant_duration_exit", stampMapOk,
                statsMapOk};
    case ProbeKind::TenantDeltaExit:
        return {runTenantDeltaExit, "tenant_delta_exit", nullptr, statsMapOk};
    case ProbeKind::TenantHeavyHitter:
        return {runTenantHeavyHitter, "tenant_heavy_hitter", nullptr,
                countMapOk};
    case ProbeKind::Stream:
        return {runStream, "stream", nullptr, ringMapOk};
    case ProbeKind::IdStamp:
        return {runIdStamp, "id_stamp", stampMapOk, nullptr};
    case ProbeKind::RunqlatSwitch:
        return {runRunqlatSwitch, "runqlat_switch", stampMapOk, countMapOk};
    case ProbeKind::FrontDoorAccept:
        return {runFrontDoorAccept, "front_door_accept", stampMapOk,
                countMapOk};
    }
    return {};
}

template <typename T>
std::vector<std::uint64_t>
signExtended(const std::vector<T> &values)
{
    std::vector<std::uint64_t> out;
    for (T v : values)
        out.push_back(sx(static_cast<std::int32_t>(v)));
    return out;
}

} // namespace

bool
compileNative(const ProgramSpec &spec, NativeProgram *out)
{
    *out = NativeProgram{};
    if (!spec.shape)
        return false;
    const ProbeShape &shape = *spec.shape;
    // The one re-emission: a kernel only ever runs the exact bytes it
    // was written for.
    if (!sameInsns(spec.insns, probes::emit(shape)))
        return false;
    const Kernel k = kernelFor(shape.kind);
    Map *stamp = findMap(spec, shape.stampFd);
    Map *acc = findMap(spec, shape.outFd);
    if ((k.stampOk && !k.stampOk(stamp)) || (k.outOk && !k.outOk(acc)))
        return false;
    out->fn = k.fn;
    out->kernel = k.name;
    out->shape = shape;
    out->stamp = stamp;
    out->out = acc;
    out->tgidCmp = signExtended(shape.tenants.tgids);
    out->pollCmp = signExtended(shape.tenants.pollSyscalls);
    out->syscallCmp = signExtended(shape.syscalls);
    return true;
}

} // namespace reqobs::ebpf
