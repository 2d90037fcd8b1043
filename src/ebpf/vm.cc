#include "ebpf/vm.hh"

#include <cstdio>
#include <cstring>

#include "ebpf/map_dispatch.hh"
#include "fault/fault.hh"

namespace reqobs::ebpf {

namespace {

int
accessSize(std::uint8_t size_field)
{
    switch (size_field) {
      case BPF_B: return 1;
      case BPF_H: return 2;
      case BPF_W: return 4;
      case BPF_DW: return 8;
    }
    return 0;
}

RunResult &
failRun(RunResult &res, std::size_t pc, const char *msg)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "insn %zu: %s", pc, msg);
    res.aborted = true;
    res.error = buf;
    return res;
}

/** Conditional-jump predicate (dense sub-op). */
inline bool
jmpTaken(XJmp op, std::uint64_t a, std::uint64_t b)
{
    const std::int64_t sa = static_cast<std::int64_t>(a);
    const std::int64_t sb = static_cast<std::int64_t>(b);
    switch (op) {
      case XJmp::Jeq: return a == b;
      case XJmp::Jne: return a != b;
      case XJmp::Jgt: return a > b;
      case XJmp::Jge: return a >= b;
      case XJmp::Jlt: return a < b;
      case XJmp::Jle: return a <= b;
      case XJmp::Jsgt: return sa > sb;
      case XJmp::Jsge: return sa >= sb;
      case XJmp::Jslt: return sa < sb;
      case XJmp::Jsle: return sa <= sb;
      case XJmp::Jset: return (a & b) != 0;
    }
    return false;
}

} // namespace

Vm::Vm(std::uint64_t max_insns) : maxInsns_(max_insns), stack_(512, 0)
{
    regions_.reserve(8);
    regions_.resize(2);
    regions_[0] = Region{stack_.data(), stack_.size(), true};
}

void
Vm::beginRun(std::uint32_t stack_depth, std::uint8_t *ctx,
             std::uint32_t ctx_len)
{
    if (stack_depth > stack_.size())
        stack_depth = static_cast<std::uint32_t>(stack_.size());
    if (stack_depth > 0)
        std::memset(stack_.data() + stack_.size() - stack_depth, 0,
                    stack_depth);
    // In-place assignment instead of clear+push_back keeps this
    // allocation-free and branch-light on the per-event hot path. The
    // stack region is invariant, so only the ctx slot is rewritten once
    // both slots exist (the constructor sizes the vector).
    regions_.resize(2);
    regions_[1] = Region{ctx, ctx_len, false};
}

void
Vm::addMapValueRegion(std::uint8_t *base, std::size_t size)
{
    // Repeated lookups of the same entry dominate, and the match is
    // almost always the most recently added region — scan backwards and
    // skip the fixed stack/ctx slots, which are never map values.
    for (std::size_t i = regions_.size(); i > 2;) {
        const Region &r = regions_[--i];
        if (r.base == base && r.size == size)
            return;
    }
    regions_.push_back(Region{base, size, true});
}

std::uint8_t *
Vm::checkAccess(std::uint64_t addr, int len, bool write) const
{
    for (const Region &r : regions_) {
        const std::uint64_t base = reinterpret_cast<std::uint64_t>(r.base);
        if (addr >= base && addr + len <= base + r.size) {
            if (write && !r.writable)
                return nullptr;
            return reinterpret_cast<std::uint8_t *>(addr);
        }
    }
    return nullptr;
}

RunResult
Vm::run(const ProgramSpec &prog, std::uint8_t *ctx, std::uint32_t ctx_len,
        ExecEnv &env)
{
    RunResult res;
    std::uint64_t reg[kNumRegs] = {};
    // The reference engine has no verifier stack-depth info: clear all.
    beginRun(static_cast<std::uint32_t>(stack_.size()), ctx, ctx_len);

    reg[R1] = reinterpret_cast<std::uint64_t>(ctx);
    reg[R10] = reinterpret_cast<std::uint64_t>(stack_.data() + stack_.size());

    std::size_t pc = 0;
    for (;;) {
        if (pc >= prog.insns.size())
            return failRun(res, pc, "pc out of bounds");
        if (res.insns++ >= maxInsns_)
            return failRun(res, pc, "instruction budget exhausted");

        const Insn &insn = prog.insns[pc];
        const std::uint8_t cls = insn.cls();

        if (cls == BPF_ALU64 || cls == BPF_ALU) {
            const std::uint8_t op = insn.aluOp();
            std::uint64_t src = insn.isImmSrc()
                                    ? static_cast<std::uint64_t>(
                                          static_cast<std::int64_t>(insn.imm))
                                    : reg[insn.src];
            std::uint64_t &dst = reg[insn.dst];
            if (cls == BPF_ALU)
                src &= 0xffffffffu;
            std::uint64_t a = cls == BPF_ALU ? (dst & 0xffffffffu) : dst;
            switch (op) {
              case BPF_MOV: a = src; break;
              case BPF_ADD: a += src; break;
              case BPF_SUB: a -= src; break;
              case BPF_MUL: a *= src; break;
              case BPF_DIV: a = src ? a / src : 0; break;
              case BPF_MOD: a = src ? a % src : a; break;
              case BPF_OR: a |= src; break;
              case BPF_AND: a &= src; break;
              case BPF_XOR: a ^= src; break;
              case BPF_LSH: a <<= (src & (cls == BPF_ALU ? 31 : 63)); break;
              case BPF_RSH: a >>= (src & (cls == BPF_ALU ? 31 : 63)); break;
              case BPF_ARSH:
                if (cls == BPF_ALU) {
                    a = static_cast<std::uint32_t>(
                        static_cast<std::int32_t>(a) >> (src & 31));
                } else {
                    a = static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(a) >> (src & 63));
                }
                break;
              case BPF_NEG: a = ~a + 1; break;
              default:
                return failRun(res, pc, "bad ALU op");
            }
            dst = cls == BPF_ALU ? (a & 0xffffffffu) : a;
            ++pc;
            continue;
        }

        if (cls == BPF_LD) {
            // LD_IMM64 (two slots).
            if (insn.memSize() != BPF_DW || pc + 1 >= prog.insns.size())
                return failRun(res, pc, "bad ld_imm64");
            if (insn.src == BPF_PSEUDO_MAP_FD) {
                auto it = prog.maps.find(insn.imm);
                if (it == prog.maps.end())
                    return failRun(res, pc, "unknown map fd");
                reg[insn.dst] = reinterpret_cast<std::uint64_t>(it->second);
            } else {
                reg[insn.dst] =
                    static_cast<std::uint32_t>(insn.imm) |
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         prog.insns[pc + 1].imm))
                     << 32);
            }
            pc += 2;
            continue;
        }

        if (cls == BPF_LDX) {
            const int len = accessSize(insn.memSize());
            const std::uint64_t addr = reg[insn.src] + insn.off;
            const std::uint8_t *p = checkAccess(addr, len, false);
            if (!p)
                return failRun(res, pc, "invalid load address");
            std::uint64_t v = 0;
            std::memcpy(&v, p, len);
            reg[insn.dst] = v;
            ++pc;
            continue;
        }

        if (cls == BPF_STX || cls == BPF_ST) {
            const int len = accessSize(insn.memSize());
            const std::uint64_t addr = reg[insn.dst] + insn.off;
            std::uint8_t *p = checkAccess(addr, len, true);
            if (!p)
                return failRun(res, pc, "invalid store address");
            const std::uint64_t v =
                cls == BPF_STX ? reg[insn.src]
                               : static_cast<std::uint64_t>(
                                     static_cast<std::int64_t>(insn.imm));
            std::memcpy(p, &v, len);
            ++pc;
            continue;
        }

        if (cls == BPF_JMP) {
            const std::uint8_t op = insn.aluOp();
            if (op == BPF_EXIT) {
                res.r0 = reg[R0];
                totalInsns_ += res.insns;
                return res;
            }
            if (op == BPF_CALL) {
                const char *err = nullptr;
                switch (insn.imm) {
                  case helper::kKtimeGetNs:
                    reg[R0] = env.nowNs;
                    break;
                  case helper::kGetCurrentPidTgid:
                    reg[R0] = env.pidTgid;
                    break;
                  case helper::kGetPrandomU32:
                    reg[R0] = env.rng
                                  ? static_cast<std::uint32_t>(env.rng->next())
                                  : 0;
                    break;
                  case helper::kMapLookupElem:
                    err = callMapLookup(reg);
                    break;
                  case helper::kMapUpdateElem:
                    err = callMapUpdate(reg, env, res);
                    break;
                  case helper::kMapDeleteElem:
                    err = callMapDelete(reg);
                    break;
                  case helper::kRingbufOutput:
                    err = callRingbufOutput(reg, env, res);
                    break;
                  default:
                    return failRun(res, pc, "unknown helper");
                }
                if (err)
                    return failRun(res, pc, err);
                reg[R1] = reg[R2] = reg[R3] = reg[R4] = reg[R5] = 0;
                ++pc;
                continue;
            }

            const std::uint64_t a = reg[insn.dst];
            const std::uint64_t b =
                insn.isImmSrc() ? static_cast<std::uint64_t>(
                                      static_cast<std::int64_t>(insn.imm))
                                : reg[insn.src];
            bool taken;
            if (op == BPF_JA) {
                taken = true;
            } else {
                XJmp sub;
                switch (op) {
                  case BPF_JEQ: sub = XJmp::Jeq; break;
                  case BPF_JNE: sub = XJmp::Jne; break;
                  case BPF_JGT: sub = XJmp::Jgt; break;
                  case BPF_JGE: sub = XJmp::Jge; break;
                  case BPF_JLT: sub = XJmp::Jlt; break;
                  case BPF_JLE: sub = XJmp::Jle; break;
                  case BPF_JSGT: sub = XJmp::Jsgt; break;
                  case BPF_JSGE: sub = XJmp::Jsge; break;
                  case BPF_JSLT: sub = XJmp::Jslt; break;
                  case BPF_JSLE: sub = XJmp::Jsle; break;
                  case BPF_JSET: sub = XJmp::Jset; break;
                  default:
                    return failRun(res, pc, "bad jump op");
                }
                taken = jmpTaken(sub, a, b);
            }
            pc = taken ? pc + 1 + insn.off : pc + 1;
            continue;
        }

        return failRun(res, pc, "unsupported instruction class");
    }
}

/*
 * The translated fast path. Bit-identical to the reference interpreter
 * by construction (tests/ebpf_diff_test.cc enforces it), but shaped for
 * throughput:
 *  - one dense dispatch over fused opcodes (no sub-op dispatch); with
 *    GNU extensions the loop is direct-threaded — every handler ends in
 *    its own indirect jump, so the branch predictor learns per-opcode
 *    successor patterns instead of sharing one switch dispatch site
 *    (the same technique as the kernel's bpf interpreter jump table);
 *  - no per-instruction pc bounds check — the translator's trailing
 *    Fault sentinel catches any control flow that leaves the program;
 *  - the instruction budget lives in a local, so the counter stays in a
 *    register across the loop; RunResult::insns is written on exit;
 *  - constant-size loads/stores (the memcpy length is a compile-time
 *    constant per case, as the kernel JIT would emit a sized mov), with
 *    the stack and context bounds checks reduced to one subtraction
 *    against hoisted locals.
 * All fault paths return the named local `res` so the result is
 * constructed in place (NRVO) on the hot non-fault path.
 */

#if defined(__GNUC__) || defined(__clang__)
#define REQOBS_THREADED 1
#define REQOBS_CASE(NAME) L_##NAME
#define REQOBS_NEXT                                                          \
    do {                                                                     \
        if (executed++ >= budget)                                            \
            goto L_budget;                                                   \
        goto *kJump[static_cast<unsigned>(x.op)];                            \
    } while (0)
#else
#define REQOBS_CASE(NAME) case XOp::NAME
#define REQOBS_NEXT break
#endif

// Budget charge for the second half of a fused superinstruction: the
// dispatch charged the head, the tail must be charged separately so
// retired-instruction counts stay bit-identical to the reference
// interpreter.
#define REQOBS_CHARGE                                                        \
    do {                                                                     \
        if (executed++ >= budget)                                            \
            goto L_budget;                                                   \
    } while (0)

// Case-pair generators for the fused groups. dst/src/imm semantics match
// the reference interpreter exactly; 32-bit forms mask operands and
// result to 32 bits. Undefined again right after the dispatch body.
#define REQOBS_ALU64(NAME, EXPR)                                             \
  REQOBS_CASE(NAME##64Imm) : {                                               \
      const std::uint64_t s = x.imm;                                         \
      std::uint64_t &d = reg[x.dst];                                         \
      (void)s;                                                               \
      d = (EXPR);                                                            \
      ++pc;                                                                  \
      REQOBS_NEXT;                                                           \
  }                                                                          \
  REQOBS_CASE(NAME##64Reg) : {                                               \
      const std::uint64_t s = reg[x.src];                                    \
      std::uint64_t &d = reg[x.dst];                                         \
      (void)s;                                                               \
      d = (EXPR);                                                            \
      ++pc;                                                                  \
      REQOBS_NEXT;                                                           \
  }

#define REQOBS_ALU32(NAME, EXPR)                                             \
  REQOBS_CASE(NAME##32Imm) : {                                               \
      const std::uint64_t s = x.imm & 0xffffffffu;                           \
      const std::uint64_t d = reg[x.dst] & 0xffffffffu;                      \
      (void)s;                                                               \
      (void)d;                                                               \
      reg[x.dst] = (EXPR)&0xffffffffu;                                       \
      ++pc;                                                                  \
      REQOBS_NEXT;                                                           \
  }                                                                          \
  REQOBS_CASE(NAME##32Reg) : {                                               \
      const std::uint64_t s = reg[x.src] & 0xffffffffu;                      \
      const std::uint64_t d = reg[x.dst] & 0xffffffffu;                      \
      (void)s;                                                               \
      (void)d;                                                               \
      reg[x.dst] = (EXPR)&0xffffffffu;                                       \
      ++pc;                                                                  \
      REQOBS_NEXT;                                                           \
  }

#define REQOBS_JMP(NAME, EXPR)                                               \
  REQOBS_CASE(NAME##Imm) : {                                                 \
      const std::uint64_t a = reg[x.dst];                                    \
      const std::uint64_t b = x.imm;                                         \
      pc = (EXPR) ? static_cast<std::size_t>(x.target) : pc + 1;             \
      REQOBS_NEXT;                                                           \
  }                                                                          \
  REQOBS_CASE(NAME##Reg) : {                                                 \
      const std::uint64_t a = reg[x.dst];                                    \
      const std::uint64_t b = reg[x.src];                                    \
      pc = (EXPR) ? static_cast<std::size_t>(x.target) : pc + 1;             \
      REQOBS_NEXT;                                                           \
  }

// Loads fast-path the two regions every probe touches constantly — the
// stack frame and the context — with one subtraction each (bounds
// hoisted into locals); map-value accesses fall back to the full
// region scan, which is semantically identical.
#define REQOBS_LDX(NAME, TYPE)                                               \
  REQOBS_CASE(NAME) : {                                                      \
      const std::uint64_t addr = reg[x.src] + x.off;                         \
      const std::uint8_t *p;                                                 \
      if ((mvSize >= sizeof(TYPE) &&                                         \
           addr - mvBase <= mvSize - sizeof(TYPE)) ||                        \
          addr - stackBase <= kStackSize - sizeof(TYPE) ||                   \
          (ctx_len >= sizeof(TYPE) &&                                        \
           addr - ctxBase <= ctx_len - sizeof(TYPE))) {                      \
          p = reinterpret_cast<const std::uint8_t *>(addr);                  \
      } else {                                                               \
          p = checkAccess(addr, sizeof(TYPE), false);                        \
          if (!p) {                                                          \
              res.insns = executed;                                          \
              failRun(res, pc, "invalid load address");                      \
              return res;                                                    \
          }                                                                  \
      }                                                                      \
      TYPE v;                                                                \
      std::memcpy(&v, p, sizeof(TYPE));                                      \
      reg[x.dst] = v;                                                        \
      ++pc;                                                                  \
      REQOBS_NEXT;                                                           \
  }

// Stores fast-path the stack only (the context is read-only; map values
// go through the scan).
#define REQOBS_ST(NAME, TYPE, SRC)                                           \
  REQOBS_CASE(NAME) : {                                                      \
      const std::uint64_t addr = reg[x.dst] + x.off;                         \
      std::uint8_t *p;                                                       \
      if ((mvSize >= sizeof(TYPE) &&                                         \
           addr - mvBase <= mvSize - sizeof(TYPE)) ||                        \
          addr - stackBase <= kStackSize - sizeof(TYPE)) {                   \
          p = reinterpret_cast<std::uint8_t *>(addr);                        \
      } else {                                                               \
          p = checkAccess(addr, sizeof(TYPE), true);                         \
          if (!p) {                                                          \
              res.insns = executed;                                          \
              failRun(res, pc, "invalid store address");                     \
              return res;                                                    \
          }                                                                  \
      }                                                                      \
      std::memcpy(p, &(SRC), sizeof(TYPE));                                  \
      ++pc;                                                                  \
      REQOBS_NEXT;                                                           \
  }

// The devirtualized map dispatch (mapLookupHot and friends) moved to
// map_dispatch.hh so the native engine shares the exact bodies.

#define REQOBS_CALL(NAME, BODY)                                              \
  REQOBS_CASE(NAME) : {                                                      \
      BODY;                                                                  \
      reg[R1] = reg[R2] = reg[R3] = reg[R4] = reg[R5] = 0;                   \
      ++pc;                                                                  \
      REQOBS_NEXT;                                                           \
  }

// Resolve a helper pointer argument: the single-compare stack check
// covers virtually every key/value buffer a probe passes; anything else
// (ctx or map-value pointers) falls back to the full region scan, so
// acceptance is identical to the shared helpers' checkAccess.
#define REQOBS_PTR(VAR, ADDR, LEN)                                           \
  const std::uint8_t *VAR;                                                   \
  {                                                                          \
      const std::uint64_t a_ = (ADDR);                                       \
      const std::uint64_t l_ = (LEN);                                        \
      if (l_ <= kStackSize && a_ - stackBase <= kStackSize - l_)             \
          VAR = reinterpret_cast<const std::uint8_t *>(a_);                  \
      else                                                                   \
          VAR = checkAccess(a_, static_cast<int>(l_), false);                \
  }

#define REQOBS_CALL_ERR(NAME, CALL)                                          \
  REQOBS_CASE(NAME) : {                                                      \
      if (const char *err = (CALL)) {                                        \
          res.insns = executed;                                              \
          failRun(res, pc, err);                                             \
          return res;                                                        \
      }                                                                      \
      reg[R1] = reg[R2] = reg[R3] = reg[R4] = reg[R5] = 0;                   \
      ++pc;                                                                  \
      REQOBS_NEXT;                                                           \
  }

RunResult
Vm::run(const TranslatedProgram &prog, std::uint8_t *ctx,
        std::uint32_t ctx_len, ExecEnv &env)
{
    RunResult res;
    std::uint64_t reg[kNumRegs] = {};
    beginRun(prog.stackDepth, ctx, ctx_len);

    reg[R1] = reinterpret_cast<std::uint64_t>(ctx);
    reg[R10] = reinterpret_cast<std::uint64_t>(stack_.data() + stack_.size());

    const XInsn *code = prog.insns.data();
    const std::uint64_t budget = maxInsns_;
    // Bounds for the fast-path access checks, hoisted out of the loop.
    const std::uint64_t stackBase =
        reinterpret_cast<std::uint64_t>(stack_.data());
    const std::uint64_t kStackSize = stack_.size();
    const std::uint64_t ctxBase = reinterpret_cast<std::uint64_t>(ctx);
    // Most recent map value handed out by a lookup this run: the region
    // a probe almost always dereferences next. mvSize == 0 until the
    // first hit, which disables the check.
    std::uint64_t mvBase = 0, mvSize = 0;
    std::uint64_t executed = 0;
    std::size_t pc = 0;

// The current instruction. A macro (not a reference) because the
// direct-threaded form has no single loop head to rebind it at.
#define x (code[pc])

#if REQOBS_THREADED
    // One entry per XOp, in enum order — both generated from
    // REQOBS_XOP_LIST, so they cannot go out of sync.
    static const void *const kJump[] = {
#define REQOBS_XOP_ADDR(NAME) &&L_##NAME,
        REQOBS_XOP_LIST(REQOBS_XOP_ADDR)
#undef REQOBS_XOP_ADDR
    };
    static_assert(sizeof(kJump) / sizeof(kJump[0]) ==
                      static_cast<unsigned>(XOp::Fault) + 1,
                  "jump table must cover every XOp");
    REQOBS_NEXT;
#else
    for (;;) {
        if (executed++ >= budget)
            goto L_budget;
        switch (x.op) {
#endif

          REQOBS_ALU64(Add, d + s)
          REQOBS_ALU64(Sub, d - s)
          REQOBS_ALU64(Mul, d *s)
          REQOBS_ALU64(Div, s ? d / s : 0)
          REQOBS_ALU64(Or, d | s)
          REQOBS_ALU64(And, d &s)
          REQOBS_ALU64(Lsh, d << (s & 63))
          REQOBS_ALU64(Rsh, d >> (s & 63))
          REQOBS_ALU64(Neg, ~d + 1)
          REQOBS_ALU64(Mod, s ? d % s : d)
          REQOBS_ALU64(Xor, d ^ s)
          REQOBS_ALU64(Mov, s)
          REQOBS_ALU64(Arsh, static_cast<std::uint64_t>(
                                 static_cast<std::int64_t>(d) >> (s & 63)))

          REQOBS_ALU32(Add, d + s)
          REQOBS_ALU32(Sub, d - s)
          REQOBS_ALU32(Mul, d *s)
          REQOBS_ALU32(Div, s ? d / s : 0)
          REQOBS_ALU32(Or, d | s)
          REQOBS_ALU32(And, d &s)
          REQOBS_ALU32(Lsh, d << (s & 31))
          REQOBS_ALU32(Rsh, d >> (s & 31))
          REQOBS_ALU32(Neg, ~d + 1)
          REQOBS_ALU32(Mod, s ? d % s : d)
          REQOBS_ALU32(Xor, d ^ s)
          REQOBS_ALU32(Mov, s)
          REQOBS_ALU32(Arsh,
                       static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                           static_cast<std::int32_t>(d) >> (s & 31))))

          REQOBS_CASE(LdImm64) : {
            reg[x.dst] = x.imm;
            ++pc;
            REQOBS_NEXT;
          }
          REQOBS_CASE(LdMapPtr) : {
            reg[x.dst] = reinterpret_cast<std::uint64_t>(x.map);
            ++pc;
            REQOBS_NEXT;
          }

          REQOBS_LDX(LdxB, std::uint8_t)
          REQOBS_LDX(LdxH, std::uint16_t)
          REQOBS_LDX(LdxW, std::uint32_t)
          REQOBS_LDX(LdxDw, std::uint64_t)

          REQOBS_ST(StxB, std::uint8_t, reg[x.src])
          REQOBS_ST(StxH, std::uint16_t, reg[x.src])
          REQOBS_ST(StxW, std::uint32_t, reg[x.src])
          REQOBS_ST(StxDw, std::uint64_t, reg[x.src])

          REQOBS_ST(StB, std::uint8_t, x.imm)
          REQOBS_ST(StH, std::uint16_t, x.imm)
          REQOBS_ST(StW, std::uint32_t, x.imm)
          REQOBS_ST(StDw, std::uint64_t, x.imm)

          REQOBS_CASE(Ja) : {
            pc = static_cast<std::size_t>(x.target);
            REQOBS_NEXT;
          }

          REQOBS_JMP(Jeq, a == b)
          REQOBS_JMP(Jgt, a > b)
          REQOBS_JMP(Jge, a >= b)
          REQOBS_JMP(Jset, (a & b) != 0)
          REQOBS_JMP(Jne, a != b)
          REQOBS_JMP(Jsgt, static_cast<std::int64_t>(a) >
                               static_cast<std::int64_t>(b))
          REQOBS_JMP(Jsge, static_cast<std::int64_t>(a) >=
                               static_cast<std::int64_t>(b))
          REQOBS_JMP(Jlt, a < b)
          REQOBS_JMP(Jle, a <= b)
          REQOBS_JMP(Jslt, static_cast<std::int64_t>(a) <
                               static_cast<std::int64_t>(b))
          REQOBS_JMP(Jsle, static_cast<std::int64_t>(a) <=
                               static_cast<std::int64_t>(b))

          REQOBS_CALL(CallKtimeGetNs, reg[R0] = env.nowNs)
          REQOBS_CALL(CallGetCurrentPidTgid, reg[R0] = env.pidTgid)
          REQOBS_CALL(CallGetPrandomU32,
                      reg[R0] = env.rng ? static_cast<std::uint32_t>(
                                              env.rng->next())
                                        : 0)
          // The map helpers are open-coded here (same behaviour and
          // error strings as the shared callMap* bodies the reference
          // engine uses) so the key/value pointer checks and the map
          // operation itself inline into the dispatch loop.
          REQOBS_CASE(CallMapLookup) : {
            Map *const m = reinterpret_cast<Map *>(reg[R1]);
            REQOBS_PTR(key, reg[R2], m->keySize());
            if (!key) {
                res.insns = executed;
                failRun(res, pc, "map_lookup: bad key pointer");
                return res;
            }
            std::uint8_t *val = mapLookupHot(m, key);
            reg[R0] = reinterpret_cast<std::uint64_t>(val);
            if (val) {
                addMapValueRegion(val, m->valueSize());
                mvBase = reg[R0];
                mvSize = m->valueSize();
            }
            reg[R1] = reg[R2] = reg[R3] = reg[R4] = reg[R5] = 0;
            ++pc;
            REQOBS_NEXT;
          }
          REQOBS_CASE(CallMapUpdate) : {
            Map *const m = reinterpret_cast<Map *>(reg[R1]);
            REQOBS_PTR(key, reg[R2], m->keySize());
            REQOBS_PTR(val, reg[R3], m->valueSize());
            if (!key || !val) {
                res.insns = executed;
                failRun(res, pc, "map_update: bad pointer");
                return res;
            }
            // Injected map pressure mimics a full hash table (-E2BIG).
            int rc;
            if (env.fault && m->type() == MapType::Hash &&
                env.fault->injectMapUpdateFail())
                rc = -7;
            else
                rc = mapUpdateHot(m, key, val, reg[R4]);
            if (rc < 0)
                ++res.mapUpdateFails;
            reg[R0] = static_cast<std::uint64_t>(static_cast<std::int64_t>(rc));
            reg[R1] = reg[R2] = reg[R3] = reg[R4] = reg[R5] = 0;
            ++pc;
            REQOBS_NEXT;
          }
          REQOBS_CASE(CallMapDelete) : {
            Map *const m = reinterpret_cast<Map *>(reg[R1]);
            REQOBS_PTR(key, reg[R2], m->keySize());
            if (!key) {
                res.insns = executed;
                failRun(res, pc, "map_delete: bad key pointer");
                return res;
            }
            reg[R0] = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(mapEraseHot(m, key)));
            reg[R1] = reg[R2] = reg[R3] = reg[R4] = reg[R5] = 0;
            ++pc;
            REQOBS_NEXT;
          }
          REQOBS_CALL_ERR(CallRingbufOutput, callRingbufOutput(reg, env, res))

          // Superinstructions: both halves of the fused pair in one
          // dispatch (see translate.cc pass 3); pc skips the preserved
          // second slot.
          REQOBS_CASE(Lea64) : {
            REQOBS_CHARGE;
            reg[x.dst] = reg[x.src] + x.imm;
            pc += 2;
            REQOBS_NEXT;
          }
          REQOBS_CASE(MovRsh64) : {
            REQOBS_CHARGE;
            reg[x.dst] = reg[x.src] >> (x.imm & 63);
            pc += 2;
            REQOBS_NEXT;
          }
          REQOBS_CASE(MovSub64) : {
            REQOBS_CHARGE;
            reg[x.dst] = reg[x.src] - reg[static_cast<unsigned>(x.target)];
            pc += 2;
            REQOBS_NEXT;
          }
          REQOBS_CASE(MovMul64) : {
            REQOBS_CHARGE;
            reg[x.dst] = reg[x.src] * reg[static_cast<unsigned>(x.target)];
            pc += 2;
            REQOBS_NEXT;
          }

          REQOBS_CASE(Exit) : {
            res.r0 = reg[R0];
            res.insns = executed;
            totalInsns_ += executed;
            return res;
          }

          REQOBS_CASE(Fault) : {
            // Control flow left the program. The reference interpreter
            // detects this before charging the budget, so refund the
            // sentinel's increment to keep the counts identical.
            res.insns = executed - 1;
            failRun(res, pc, "pc out of bounds");
            return res;
          }

#if !REQOBS_THREADED
        }
    }
#endif
L_budget:
    res.insns = executed;
    failRun(res, pc, "instruction budget exhausted");
    return res;
#undef x
}

#undef REQOBS_THREADED
#undef REQOBS_CASE
#undef REQOBS_NEXT
#undef REQOBS_ALU64
#undef REQOBS_ALU32
#undef REQOBS_JMP
#undef REQOBS_LDX
#undef REQOBS_ST
#undef REQOBS_CALL
#undef REQOBS_CALL_ERR
#undef REQOBS_PTR
#undef REQOBS_CHARGE

const char *
Vm::callMapLookup(std::uint64_t *reg)
{
    Map *map = reinterpret_cast<Map *>(reg[R1]);
    const std::uint8_t *key = checkAccess(reg[R2], map->keySize(), false);
    if (!key)
        return "map_lookup: bad key pointer";
    std::uint8_t *val = mapLookupHot(map, key);
    reg[R0] = reinterpret_cast<std::uint64_t>(val);
    if (val)
        addMapValueRegion(val, map->valueSize());
    return nullptr;
}

const char *
Vm::callMapUpdate(std::uint64_t *reg, ExecEnv &env, RunResult &res)
{
    Map *map = reinterpret_cast<Map *>(reg[R1]);
    const std::uint8_t *key = checkAccess(reg[R2], map->keySize(), false);
    const std::uint8_t *val = checkAccess(reg[R3], map->valueSize(), false);
    if (!key || !val)
        return "map_update: bad pointer";
    // Injected map pressure mimics a full hash table (-E2BIG); array
    // slots cannot fill, so only hash updates are eligible.
    int rc;
    if (env.fault && map->type() == MapType::Hash &&
        env.fault->injectMapUpdateFail()) {
        rc = -7; // -E2BIG
    } else {
        rc = mapUpdateHot(map, key, val, reg[R4]);
    }
    if (rc < 0)
        ++res.mapUpdateFails;
    reg[R0] = static_cast<std::uint64_t>(static_cast<std::int64_t>(rc));
    return nullptr;
}

const char *
Vm::callMapDelete(std::uint64_t *reg)
{
    Map *map = reinterpret_cast<Map *>(reg[R1]);
    const std::uint8_t *key = checkAccess(reg[R2], map->keySize(), false);
    if (!key)
        return "map_delete: bad key pointer";
    reg[R0] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(mapEraseHot(map, key)));
    return nullptr;
}

const char *
Vm::callRingbufOutput(std::uint64_t *reg, ExecEnv &env, RunResult &res)
{
    auto *rb = reinterpret_cast<RingBufMap *>(reg[R1]);
    const std::uint32_t len = static_cast<std::uint32_t>(reg[R3]);
    const std::uint8_t *data =
        checkAccess(reg[R2], static_cast<int>(len), false);
    if (!data)
        return "ringbuf_output: bad data pointer";
    int rc;
    if (env.fault && env.fault->injectRingbufDrop()) {
        rb->noteDrop(); // capacity pressure: record lost
        rc = -28;       // -ENOSPC
    } else {
        rc = rb->output(data, len);
    }
    if (rc == -28)
        ++res.ringbufDrops;
    reg[R0] = static_cast<std::uint64_t>(static_cast<std::int64_t>(rc));
    return nullptr;
}

} // namespace reqobs::ebpf
