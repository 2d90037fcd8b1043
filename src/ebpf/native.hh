/**
 * @file
 * Native execution engine: the simulator's analogue of the kernel JIT.
 *
 * Where the translated engine (translate.cc + vm.cc) lowers bytecode to
 * a fused direct-threaded IR and still pays one indirect dispatch per
 * instruction, the native engine compiles a probe to a directly
 * callable, shape-specialised C++ kernel — zero dispatch, the whole
 * program is one function call. Compilation binds a shape: a library
 * builder (probes.hh) stores the ProbeShape it emitted the bytecode
 * from in the ProgramSpec, and the compiler picks the kernel from the
 * shape's kind, resolves and checks its maps, and re-emits once from
 * the shape, accepting only a byte-identical instruction stream. A
 * program therefore runs a native kernel if and only if it carries a
 * shape and its bytes are exactly that shape's; the name plays no part.
 * Everything else (fuzzed programs, DSL tracelets, hand-written
 * bytecode, even a byte-for-byte copy of a library probe built without
 * its shape) runs on the translated engine.
 *
 * The kernels preserve the interpreter contract exactly: same r0, same
 * retired-instruction counts on every control-flow path (the cost model
 * depends on them), same map mutations, same ring-buffer payloads, and
 * the same fault-injection draw points in the same order. The
 * differential suite (tests/ebpf_diff_test.cc) enforces this three-way
 * against both other engines.
 */

#ifndef REQOBS_EBPF_NATIVE_HH
#define REQOBS_EBPF_NATIVE_HH

#include <cstdint>
#include <vector>

#include "ebpf/helpers.hh"
#include "ebpf/maps.hh"
#include "ebpf/program.hh"

namespace reqobs::ebpf {

/**
 * Per-run tallies a native kernel produces; the runtime folds them into
 * the same counters the VM engines feed.
 */
struct NativeResult
{
    std::uint64_t insns = 0; ///< retired bytecode-equivalent instructions
    std::uint64_t mapUpdateFails = 0;
    std::uint64_t ringbufDrops = 0;
};

/** A bound probe: one kernel plus the shape it runs. */
struct NativeProgram
{
    using Fn = void (*)(const NativeProgram &, const TraceCtx &, ExecEnv &,
                        NativeResult &);

    Fn fn = nullptr;         ///< null: program did not compile
    const char *kernel = ""; ///< kernel name, e.g. "delta_exit"
    ProbeShape shape;        ///< shift, guarded, exitPoint as emitted
    Map *stamp = nullptr;    ///< shape.stampFd, resolved
    Map *out = nullptr;      ///< shape.outFd, resolved

    /**
     * shape.tenants.tgids, shape.tenants.pollSyscalls and shape.syscalls,
     * sign-extended once at bind exactly as the VM sign-extends 32-bit
     * jump immediates, so kernels compare u64 == u64 with no per-event
     * conversion.
     */
    std::vector<std::uint64_t> tgidCmp, pollCmp, syscallCmp;
};

/**
 * Bind @p spec to a native kernel. A spec without a shape returns false
 * at once; a shaped spec is re-emitted once from its shape and compiles
 * only if the bytes match exactly and its maps have the kernel's
 * layout. Returns true and fills @p out on success; false
 * (out->fn == nullptr) otherwise. Never fails a runnable program:
 * callers fall back to the translated engine.
 */
bool compileNative(const ProgramSpec &spec, NativeProgram *out);

} // namespace reqobs::ebpf

#endif // REQOBS_EBPF_NATIVE_HH
