/**
 * @file
 * A bytecode program plus everything needed to verify and run it:
 * the map-fd table its LD_IMM64 pseudo instructions refer to, the
 * size of the context structure it may dereference and, for library
 * probes, the shape the bytecode was emitted from.
 */

#ifndef REQOBS_EBPF_PROGRAM_HH
#define REQOBS_EBPF_PROGRAM_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ebpf/insn.hh"
#include "ebpf/maps.hh"

namespace reqobs::ebpf {

/**
 * Context layout passed to raw_syscalls tracepoint programs.
 * Offsets are part of the "ABI" probe authors code against.
 */
struct TraceCtx
{
    std::uint64_t id;       ///< offset 0: syscall number
    std::uint64_t pidTgid;  ///< offset 8
    std::uint64_t ts;       ///< offset 16: event timestamp (ns)
    std::int64_t ret;       ///< offset 24: return value (sys_exit only)
};

static_assert(sizeof(TraceCtx) == 32);

/** Per-tenant probe identity: slot i of every tenant map. */
struct TenantSet
{
    /** Tenant tgids; index is the stats-map slot. */
    std::vector<std::uint32_t> tgids{};
    /**
     * Per-tenant poll syscall (duration probes): tenants may use
     * different wait syscalls (epoll_wait vs select). Same length as
     * tgids.
     */
    std::vector<std::int64_t> pollSyscalls{};
};

/** The library probe families (probes.hh documents each). */
enum class ProbeKind : std::uint8_t
{
    DurationEnter,
    DurationExit,
    DeltaExit,
    TenantDurationEnter,
    TenantDurationExit,
    TenantDeltaExit,
    TenantHeavyHitter,
    Stream,
    IdStamp, ///< ctx->id -> ctx->ts: runqlat wakeup, front-door ingress
    RunqlatSwitch,
    FrontDoorAccept,
};

/**
 * A library probe, declaratively. The probes::build* builders fill it
 * in, probes::emit derives the bytecode from it and the native
 * compiler binds its kernel to it. Fields a kind does not use keep
 * their defaults.
 */
struct ProbeShape
{
    ProbeKind kind = ProbeKind::DurationEnter;
    /**
     * Filtered tgids: one for single-application probes, slot order for
     * tenant probes (with per-tenant poll syscalls for tenant duration
     * probes).
     */
    TenantSet tenants{};
    /** The syscall of a duration probe, or the family of a delta or
     *  heavy-hitter probe. */
    std::vector<std::int64_t> syscalls{};
    int stampFd = -1; ///< hash of entry, wakeup or ingress stamps
    int outFd = -1;   ///< stats array, sketch, log2 histogram or ring
    unsigned shift = 0;     ///< accumulate or bucketing shift
    bool guarded = false;   ///< defensive-bytecode variant
    bool exitPoint = false; ///< stream probes: sys_exit records
};

/** Program ready for verification/execution. */
struct ProgramSpec
{
    std::string name = "prog";
    std::vector<Insn> insns;
    /** Map fds referenced by ldMapFd instructions. */
    std::map<int, Map *> maps;
    /** Size of the context object reachable through r1. */
    std::uint32_t ctxSize = sizeof(TraceCtx);
    /**
     * The shape a library builder emitted insns from; empty for DSL
     * tracelets, fuzzed and hand-written programs.
     */
    std::optional<ProbeShape> shape;
};

} // namespace reqobs::ebpf

#endif // REQOBS_EBPF_PROGRAM_HH
