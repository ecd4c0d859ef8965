// One-pass baseline codegen: lowers a validated AOT-stream function
// (`CompiledFunc`) to x86-64 via the Emitter.
//
// The key trick is STATIC OPERAND-HEIGHT TRACKING. The resolved stream has
// exactly one operand-stack height per pc (the prescan derives it, seeding
// branch targets and verifying joins), so every push/pop becomes a move
// to/from a fixed frame slot [rbp + (num_locals + h)*8] and the dynamic sp
// only exists at helper-call boundaries, where it is spilled to
// JitContext::sp and re-derived afterwards. Functions whose streams violate
// the invariants the baseline relies on (multi-value branches, height
// joins that disagree) are refused — compile_function returns empty,
// reports the refusing opcode, and the tier keeps them on the AOT stream.
//
// Frame/register map (see jit.hpp): r15 = JitContext*, rbp = &stack[base],
// r13 = memory base, r14 = memory size; rax/rcx/rdx are scratch and xmm0/
// xmm1 carry scalar floats. After any helper call the pinned rbp/r13/r14
// are reloaded from the context and the trap flag is checked (helpers do
// not unwind; see exec_native.cpp).
//
// Phase 2 widens the lowered core along a second data-type dimension:
//
//  * f32/f64 add/sub/mul/div/sqrt run on the SSE2 scalar unit — the same
//    unit GCC compiles the interpreter's plain C++ float ops to, so the
//    tiers stay bit-identical by construction. min/max branch to reproduce
//    wasm's canonical-NaN and signed-zero rules (orpd/andpd merge the
//    equal case); abs/neg/copysign are pure sign-bit ops on GPRs, exactly
//    the interpreter's bit twiddles. Comparisons come from ucomis + setcc,
//    with the parity flag folding the unordered cases.
//  * int<->float conversions lower inline, including the u64->float
//    round-to-odd halving (the sequence GCC emits for the C++ cast) and
//    the four trapping truncations: operands are promoted to f64 (exact)
//    and range-checked against per-op bounds before cvttsd2si; the
//    offending opcode is parked in JitContext::trap_aux so the entry thunk
//    rebuilds the interpreter's exact trap message.
//  * Two peepholes exploit the static heights. (1) `local.get` defers: it
//    only records which local the operand height aliases, and consumers
//    read the local's slot directly — often as the memory operand of the
//    ALU/SSE instruction itself; a trailing `local.set` becomes the
//    destination of the producing op's store. Pending aliases are flushed
//    to their operand slots at every control-flow edge and helper call,
//    and on any write to the aliased local. (2) Functions whose locals +
//    peak operand height fit in 8 registers, and whose every op lowers
//    inline (no calls, no thunks), keep the whole wasm frame in registers
//    (rbx rsi rdi r8-r12) and touch memory only at entry/exit.
#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <limits>
#include <optional>

#include "wasm/compile.hpp"
#include "wasm/jit/emitter.hpp"
#include "wasm/jit/jit.hpp"
#include "wasm/opcodes.hpp"

namespace watz::wasm::jit {

// Generated code hard-codes these offsets; a layout change must show up as
// a compile error here, not as memory corruption at run time.
static_assert(offsetof(JitContext, stack_base) == 0);
static_assert(offsetof(JitContext, sp) == 8);
static_assert(offsetof(JitContext, base) == 16);
static_assert(offsetof(JitContext, mem_base) == 24);
static_assert(offsetof(JitContext, mem_size) == 32);
static_assert(offsetof(JitContext, trap_code) == 72);
static_assert(offsetof(JitContext, globals) == 48);
static_assert(offsetof(JitContext, fallback_ops) == 80);
static_assert(offsetof(JitContext, fallback_float) == 112);
static_assert(offsetof(JitContext, fallback_conv) == 120);
static_assert(offsetof(JitContext, fallback_other) == 128);
static_assert(offsetof(JitContext, fallback_call) == 136);
static_assert(offsetof(JitContext, trap_aux) == 144);
static_assert(sizeof(GlobalSlot) == 16);
static_assert(offsetof(GlobalSlot, bits) == 8);

namespace {

std::uint64_t f64_bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

struct CmpInfo {
  Cond cc;
  bool wide;
  bool eqz;
};

std::optional<CmpInfo> cmp_info(std::uint16_t op) {
  switch (op) {
    case kI32Eqz: return CmpInfo{CC_E, false, true};
    case kI64Eqz: return CmpInfo{CC_E, true, true};
    default: break;
  }
  if (op >= kI32Eq && op <= kI64GeU) {
    const bool wide = op >= kI64Eq;
    static constexpr Cond kOrder[10] = {CC_E, CC_NE, CC_L,  CC_B,  CC_G,
                                        CC_A, CC_LE, CC_BE, CC_GE, CC_AE};
    const std::uint16_t rel = op - (wide ? kI64Eq : kI32Eq);
    return CmpInfo{kOrder[rel], wide, false};
  }
  return std::nullopt;
}

/// Net operand-stack effect of a non-branching op, or nullopt for an op the
/// prescan does not recognise (=> refuse the function).
std::optional<int> op_delta(const Module& m, const Instr& ins) {
  const std::uint16_t op = ins.op;
  switch (op) {
    case kNop: return 0;
    case kDrop: return -1;
    case kSelect: return -2;
    case kLocalGet:
    case kGlobalGet:
    case kMemorySize:
    case kI32Const:
    case kI64Const:
    case kF32Const:
    case kF64Const: return 1;
    case kLocalSet:
    case kGlobalSet: return -1;
    case kLocalTee:
    case kMemoryGrow: return 0;
    case kInstrMemCopy:
    case kInstrMemFill: return -3;
    case kCall: {
      const FuncType& t = m.func_type(ins.a);
      return static_cast<int>(t.results.size()) - static_cast<int>(t.params.size());
    }
    case kCallIndirect: {
      if (ins.a >= m.types.size()) return std::nullopt;
      const FuncType& t = m.types[ins.a];
      return -1 + static_cast<int>(t.results.size()) -
             static_cast<int>(t.params.size());
    }
    default: break;
  }
  if (op >= kI32Load && op <= kI64Load32U) return 0;
  if (op >= kI32Store && op <= kI64Store32) return -2;
  if (op == kI32Eqz || op == kI64Eqz) return 0;
  if (op >= kI32Eq && op <= kI64GeU) return -1;   // binary int comparisons
  if (op >= kF32Eq && op <= kF64Ge) return -1;    // binary float comparisons
  if (op >= kI32Clz && op <= kI32Popcnt) return 0;
  if (op >= kI32Add && op <= kI32Rotr) return -1;
  if (op >= kI64Clz && op <= kI64Popcnt) return 0;
  if (op >= kI64Add && op <= kI64Rotr) return -1;
  if (op >= kF32Abs && op <= kF32Sqrt) return 0;
  if (op >= kF32Add && op <= kF32Copysign) return -1;
  if (op >= kF64Abs && op <= kF64Sqrt) return 0;
  if (op >= kF64Add && op <= kF64Copysign) return -1;
  if (op >= kI32WrapI64 && op <= kI64Extend32S) return 0;  // conversions
  if (op >= kInstrTruncSatBase && op < kInstrTruncSatBase + 8) return 0;
  return std::nullopt;
}

class FnCompiler {
 public:
  FnCompiler(const Module& module, const CompiledFunc& func)
      : module_(module), func_(func), num_locals_(func.num_locals) {}

  bool run() {
    if (!prescan()) return false;
    reg_mode_ = reg_eligible();
    pending_.assign(func_.max_operand_height, -1);
    emit_prologue();
    if (!emit_body()) return false;
    emit_tail();
    return true;
  }

  std::vector<std::uint8_t> take() { return std::move(e_.buf); }
  std::uint16_t refused() const noexcept { return refused_op_; }

 private:
  // -- prescan ----------------------------------------------------------------

  bool prescan() {
    const auto& code = func_.code;
    const std::size_t n = code.size();
    if (n == 0 || func_.result_arity > 1) return false;  // structural (0xffff)
    height_.assign(n, -1);
    is_target_.assign(n, 0);
    dead_.assign(n, 0);
    int cur = 0;
    bool known = true;  // false after an unconditional control transfer
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (height_[pc] >= 0) {
        if (known && cur != height_[pc]) return refuse(code[pc].op);
        cur = height_[pc];
        known = true;
      } else if (!known) {
        // Unreachable and never branched to (e.g. the implicit end-return
        // after an explicit `return`): control cannot arrive here, so the
        // instruction is simply not emitted. Branches inside a dead region
        // are skipped too — they cannot execute, so they seed nothing.
        dead_[pc] = 1;
        continue;
      } else {
        height_[pc] = cur;
      }
      const Instr& ins = code[pc];
      auto seed = [&](std::uint32_t target, int h) {
        if (target >= n || h < 0) return false;
        is_target_[target] = 1;
        if (target <= pc) return height_[target] == h;  // backward edge
        if (height_[target] >= 0 && height_[target] != h) return false;
        height_[target] = h;
        return true;
      };
      switch (ins.op) {
        case kUnreachable:
          known = false;
          break;
        case kBr:
          if (ins.aux > 1) return refuse(ins.op);
          if (!seed(ins.a, cur - static_cast<int>(ins.imm))) return refuse(ins.op);
          known = false;
          break;
        case kBrIf:
          if (ins.aux > 1) return refuse(ins.op);
          if (!seed(ins.a, (cur - 1) - static_cast<int>(ins.imm)))
            return refuse(ins.op);
          cur -= 1;
          break;
        case kInstrBrIfFalse:
          if (!seed(ins.a, cur - 1)) return refuse(ins.op);
          cur -= 1;
          break;
        case kBrTable: {
          if (ins.a + ins.imm >= func_.tables.size()) return refuse(ins.op);
          for (std::uint64_t i = 0; i <= ins.imm; ++i) {
            const BrTableEntry& entry = func_.tables[ins.a + i];
            if (entry.keep > 1) return refuse(ins.op);
            if (!seed(entry.target, (cur - 1) - static_cast<int>(entry.drop)))
              return refuse(ins.op);
          }
          known = false;
          break;
        }
        case kReturn:
          if (ins.aux > 1) return refuse(ins.op);
          known = false;
          break;
        default: {
          const auto delta = op_delta(module_, ins);
          if (!delta) return refuse(ins.op);
          cur += *delta;
          break;
        }
      }
      if (known &&
          (cur < 0 || cur > static_cast<int>(func_.max_operand_height))) {
        return refuse(ins.op);
      }
    }
    return true;
  }

  bool refuse(std::uint16_t op) {
    refused_op_ = op;
    return false;
  }

  // -- register-resident mode -------------------------------------------------

  // Wasm frame slots (locals then operand heights) pinned to registers for
  // the whole function. rbx/r12 are saved by the prologue; rsi/rdi/r8-r11
  // are caller-saved and a register-resident function makes no calls.
  static constexpr Reg kSlotRegs[8] = {RBX, RSI, RDI, R8, R9, R10, R11, R12};

  Reg slot_reg(int idx) const { return kSlotRegs[idx]; }
  Reg operand_reg(int h) const { return kSlotRegs[num_locals_ + h]; }

  /// True when every op of this op's class lowers inline — no helper call,
  /// no fallback thunk — so the frame never needs to be materialised.
  bool lowers_inline(std::uint16_t op) const {
    switch (op) {
      case kNop:
      case kUnreachable:
      case kBr:
      case kBrIf:
      case kInstrBrIfFalse:
      case kReturn:
      case kDrop:
      case kSelect:
      case kLocalGet:
      case kLocalSet:
      case kLocalTee:
      case kGlobalGet:
      case kGlobalSet:
      case kMemorySize:
      case kI32Const:
      case kI64Const:
      case kF32Const:
      case kF64Const:
        return true;
      // Float ceil/floor/trunc/nearest still run through the thunk
      // (scalar rounding needs SSE4.1 roundsd; SSE2 keeps the baseline
      // portable), as do clz/ctz/popcnt and the saturating truncations.
      case kF32Abs:
      case kF32Neg:
      case kF32Sqrt:
      case kF64Abs:
      case kF64Neg:
      case kF64Sqrt:
        return true;
      default:
        break;
    }
    if (op >= kI32Load && op <= kI64Load32U) return true;
    if (op >= kI32Store && op <= kI64Store32) return true;
    if (cmp_info(op)) return true;
    if (op >= kF32Eq && op <= kF64Ge) return true;
    if (op >= kI32Add && op <= kI32Rotr) return true;
    if (op >= kI64Add && op <= kI64Rotr) return true;
    if (op >= kF32Add && op <= kF32Copysign) return true;
    if (op >= kF64Add && op <= kF64Copysign) return true;
    if (op >= kI32WrapI64 && op <= kI64Extend32S) return true;
    return false;
  }

  bool reg_eligible() const {
    if (num_locals_ + func_.max_operand_height > 8) return false;
    const auto& code = func_.code;
    for (std::size_t pc = 0; pc < code.size(); ++pc) {
      if (dead_[pc]) continue;
      if (!lowers_inline(code[pc].op)) return false;
    }
    return true;
  }

  // -- frame helpers ----------------------------------------------------------

  std::int32_t local_disp(std::uint32_t idx) const {
    return static_cast<std::int32_t>(idx * 8);
  }
  std::int32_t slot_disp(int h) const {
    return static_cast<std::int32_t>((num_locals_ + h) * 8);
  }
  /// Frame displacement to READ operand `h` from: the aliased local's slot
  /// while a deferred local.get is pending, the operand slot otherwise.
  std::int32_t operand_disp(int h) const {
    const std::int32_t p = pending_[static_cast<std::size_t>(h)];
    return p >= 0 ? p * 8 : slot_disp(h);
  }

  void load_slot(Reg r, int h, bool wide = true) {
    if (reg_mode_) {
      e_.mov_rr(r, operand_reg(h), wide);
      return;
    }
    if (wide)
      e_.load64(r, RBP, operand_disp(h));
    else
      e_.load32(r, RBP, operand_disp(h));
  }
  void store_slot(int h, Reg r) {
    if (reg_mode_) {
      e_.mov_rr(operand_reg(h), r);
      return;
    }
    pending_[static_cast<std::size_t>(h)] = -1;
    e_.store64(RBP, slot_disp(h), r);
  }
  /// Stores an op's single result at height `h` — or straight into the
  /// destination local when a trailing `local.set` sink is armed.
  void store_result(int h, Reg r) {
    if (!reg_mode_ && sink_disp_ >= 0) {
      sink_used_ = true;
      e_.store64(RBP, sink_disp_, r);
      return;
    }
    store_slot(h, r);
  }

  void load_f(std::uint8_t x, int h, bool f64) {
    if (reg_mode_) {
      e_.mov_xr(x, operand_reg(h), f64);
      return;
    }
    e_.movf_load(f64, x, RBP, operand_disp(h));
  }
  /// f64 results store scalar; f32 results bounce through a GPR (movd
  /// zero-extends) so the 64-bit slot keeps canonical zero upper bits.
  void store_f64_result(int h, std::uint8_t x) {
    if (reg_mode_) {
      e_.mov_rx(operand_reg(h), x, true);
      return;
    }
    if (sink_disp_ >= 0) {
      sink_used_ = true;
      e_.movf_store(true, RBP, sink_disp_, x);
      return;
    }
    pending_[static_cast<std::size_t>(h)] = -1;
    e_.movf_store(true, RBP, slot_disp(h), x);
  }
  void store_f32_result(int h, std::uint8_t x) {
    e_.mov_rx(RAX, x, false);
    store_result(h, RAX);
  }

  // -- pending local.get bookkeeping (frame mode) -----------------------------
  //
  // pending_[h] >= 0 means operand height h is a deferred `local.get` of
  // that local: no code was emitted, and readers take the local's slot as
  // their memory operand. Every write of an operand slot clears its entry;
  // control-flow edges and helper boundaries flush live entries so the
  // frame matches the static layout wherever paths merge or C++ looks.

  void consume(int h) {
    if (!reg_mode_) pending_[static_cast<std::size_t>(h)] = -1;
  }
  void flush_one(std::size_t h) {
    e_.load64(RAX, RBP, pending_[h] * 8);
    e_.store64(RBP, slot_disp(static_cast<int>(h)), RAX);
    pending_[h] = -1;
  }
  /// Flushes entries below `limit` (clobbers rax). Entries at or above the
  /// current height are stale junk; materialising them is harmless but
  /// flush_below lets the hot cmp+branch fusion skip its popped operands.
  void flush_below(int limit) {
    if (reg_mode_) return;
    const std::size_t lim =
        std::min(pending_.size(), static_cast<std::size_t>(limit < 0 ? 0 : limit));
    for (std::size_t h = 0; h < lim; ++h)
      if (pending_[h] >= 0) flush_one(h);
  }
  void flush_all() {
    if (reg_mode_) return;
    for (std::size_t h = 0; h < pending_.size(); ++h)
      if (pending_[h] >= 0) flush_one(h);
  }
  /// Flushes entries aliasing `local` before that local is overwritten.
  void flush_aliased(std::uint32_t local) {
    if (reg_mode_) return;
    for (std::size_t h = 0; h < pending_.size(); ++h)
      if (pending_[h] == static_cast<std::int32_t>(local)) flush_one(h);
  }

  /// Ops that leave straight-line code: every pending alias must be in its
  /// operand slot before the transfer / helper inspects the frame.
  static bool needs_flush(std::uint16_t op) {
    switch (op) {
      case kUnreachable:
      case kBr:
      case kBrIf:
      case kInstrBrIfFalse:
      case kBrTable:
      case kReturn:
      case kCall:
      case kCallIndirect:
      case kMemoryGrow:
      case kInstrMemCopy:
      case kInstrMemFill:
        return true;
      default:
        return false;
    }
  }

  /// ctx->sp = ctx->base + num_locals + h (the dynamic height helpers see).
  void spill_sp(int h) {
    e_.load64(RAX, R15, 16);
    e_.lea_disp(RAX, RAX, static_cast<std::int32_t>(num_locals_ + h));
    e_.store64(R15, 8, RAX);
  }

  /// Re-derives rbp/r13/r14 from the context (a helper may have moved the
  /// operand-stack storage or grown memory).
  void reload_pinned() {
    e_.load64(RAX, R15, 0);   // stack_base
    e_.load64(RCX, R15, 16);  // base
    e_.lea_scaled8(RBP, RAX, RCX);
    e_.load64(R13, R15, 24);  // mem_base
    e_.load64(R14, R15, 32);  // mem_size
  }

  void trap_check() {
    e_.cmp_m64_imm8(R15, 72, 0);
    exit_sites_.push_back(e_.jcc(CC_NE));
  }

  template <typename Fn>
  void call_helper(Fn* fn) {
    e_.mov_ri64(RAX, reinterpret_cast<std::uint64_t>(fn));
    e_.call_r(RAX);
  }

  void emit_trap_jump(int code) {
    trap_sites_[code].push_back(e_.jmp());
  }

  /// Computes the effective address (addr32 + offset) into rax and emits
  /// the bounds check `ea + width <= mem_size` (clobbers rcx).
  void emit_addr(int h_addr, std::uint64_t offset, std::uint32_t width) {
    load_slot(RAX, h_addr, false);
    if (offset != 0) {
      if (offset <= 0x7fffffff) {
        e_.lea_disp(RAX, RAX, static_cast<std::int32_t>(offset));
      } else {
        e_.mov_ri32(RCX, static_cast<std::uint32_t>(offset));
        e_.add_rr(RAX, RCX, true);
      }
    }
    e_.lea_disp(RCX, RAX, static_cast<std::int32_t>(width));
    e_.cmp_rr(RCX, R14, true);
    trap_sites_[kTrapOob].push_back(e_.jcc(CC_A));
  }

  void emit_compare_bool(const CmpInfo& ci, int h) {
    if (ci.eqz) {
      load_slot(RAX, h - 1, ci.wide);
      e_.test_rr(RAX, RAX, ci.wide);
      e_.setcc(CC_E, RAX);
      e_.movzx8_rr(RAX, RAX);
      store_result(h - 1, RAX);
    } else {
      load_slot(RAX, h - 2, ci.wide);
      if (reg_mode_) {
        load_slot(RCX, h - 1, ci.wide);
        e_.cmp_rr(RAX, RCX, ci.wide);
      } else {
        e_.alu_rm(0x3B, RAX, RBP, operand_disp(h - 1), ci.wide);
      }
      e_.setcc(ci.cc, RAX);
      e_.movzx8_rr(RAX, RAX);
      store_result(h - 2, RAX);
    }
  }

  /// Float comparison via ucomis: unordered sets ZF=PF=CF=1, so lt/le test
  /// the swapped-operand above/above-equal forms (false on NaN), and eq/ne
  /// fold the parity flag explicitly.
  void emit_fcompare(std::uint16_t op, int h) {
    const bool f64 = op >= kF64Eq;
    const std::uint16_t rel = op - (f64 ? kF64Eq : kF32Eq);
    load_f(0, h - 2, f64);
    load_f(1, h - 1, f64);
    switch (rel) {
      case 0:  // eq: equal AND ordered
        e_.ucomis_rr(f64, 0, 1);
        e_.setcc(CC_E, RAX);
        e_.setcc(CC_NP, RCX);
        e_.movzx8_rr(RAX, RAX);
        e_.movzx8_rr(RCX, RCX);
        e_.and_rr(RAX, RCX, false);
        break;
      case 1:  // ne: not-equal OR unordered
        e_.ucomis_rr(f64, 0, 1);
        e_.setcc(CC_NE, RAX);
        e_.setcc(CC_P, RCX);
        e_.movzx8_rr(RAX, RAX);
        e_.movzx8_rr(RCX, RCX);
        e_.or_rr(RAX, RCX, false);
        break;
      case 2:  // lt: b > a
        e_.ucomis_rr(f64, 1, 0);
        e_.setcc(CC_A, RAX);
        e_.movzx8_rr(RAX, RAX);
        break;
      case 3:  // gt
        e_.ucomis_rr(f64, 0, 1);
        e_.setcc(CC_A, RAX);
        e_.movzx8_rr(RAX, RAX);
        break;
      case 4:  // le: b >= a
        e_.ucomis_rr(f64, 1, 0);
        e_.setcc(CC_AE, RAX);
        e_.movzx8_rr(RAX, RAX);
        break;
      default:  // ge
        e_.ucomis_rr(f64, 0, 1);
        e_.setcc(CC_AE, RAX);
        e_.movzx8_rr(RAX, RAX);
        break;
    }
    store_result(h - 2, RAX);
  }

  /// wasm min/max: NaN either side -> the positive canonical quiet NaN;
  /// equal operands merge sign bits (orpd keeps -0 for min, andpd keeps +0
  /// for max — exactly the interpreter's signbit selection across all four
  /// zero pairings); otherwise the plain ordered pick.
  void emit_fminmax(int h, bool f64, bool is_min) {
    load_f(0, h - 2, f64);  // a
    load_f(1, h - 1, f64);  // b
    e_.ucomis_rr(f64, 0, 1);
    const std::size_t nan_site = e_.jcc(CC_P);
    const std::size_t eq_site = e_.jcc(CC_E);
    const std::size_t keep_site = e_.jcc(is_min ? CC_B : CC_A);  // keep a
    e_.movaps_rr(0, 1);                                          // take b
    const std::size_t done1 = e_.jmp();
    e_.patch_rel32(eq_site, e_.size());
    if (is_min)
      e_.orpd_rr(0, 1);
    else
      e_.andpd_rr(0, 1);
    const std::size_t done2 = e_.jmp();
    e_.patch_rel32(nan_site, e_.size());
    if (f64) {
      e_.mov_ri64(RAX, 0x7ff8000000000000ull);
      e_.mov_xr(0, RAX, true);
    } else {
      e_.mov_ri32(RAX, 0x7fc00000u);
      e_.mov_xr(0, RAX, false);
    }
    e_.patch_rel32(keep_site, e_.size());
    e_.patch_rel32(done1, e_.size());
    e_.patch_rel32(done2, e_.size());
    if (f64)
      store_f64_result(h - 2, 0);
    else
      store_f32_result(h - 2, 0);
  }

  /// u64 -> f32/f64: cvtsi2sd directly when the top bit is clear; else
  /// halve with the low bit folded in (round-to-odd, exact) and double the
  /// result — the correctly-rounded sequence GCC emits for the C++ cast,
  /// so all tiers agree bit-for-bit.
  void emit_convert_u64(int h, bool f64) {
    load_slot(RAX, h - 1, true);
    e_.test_rr(RAX, RAX, true);
    const std::size_t big = e_.jcc(CC_S);
    e_.cvt_i2f(f64, true, 0, RAX);
    const std::size_t done = e_.jmp();
    e_.patch_rel32(big, e_.size());
    e_.mov_rr(RCX, RAX);
    e_.shift_ri(5, RCX, 1, true);  // rcx = x >> 1
    e_.alu_ri(4, RAX, 1, false);   // eax = x & 1
    e_.or_rr(RCX, RAX, true);
    e_.cvt_i2f(f64, true, 0, RCX);
    e_.sse_arith_rr(f64, 0x58, 0, 0);  // x2
    e_.patch_rel32(done, e_.size());
    if (f64)
      store_f64_result(h - 1, 0);
    else
      store_f32_result(h - 1, 0);
  }

  /// Trapping float->int truncation. The operand is promoted to f64
  /// (exact) and range-checked there: the bounds are chosen so `v` passes
  /// iff trunc(v) is representable, matching the interpreter's
  /// trunc_checked exactly (including the -2^63 edge, where the exact
  /// minimum is representable and the check is >=). The opcode lands in
  /// ctx->trap_aux before any check so the entry thunk can rebuild the
  /// canonical per-op message.
  void emit_trunc(std::uint16_t op, int h) {
    const bool src_f64 = op == kI32TruncF64S || op == kI32TruncF64U ||
                         op == kI64TruncF64S || op == kI64TruncF64U;
    const bool wide = op >= kI64TruncF32S;
    const bool uns = op == kI32TruncF32U || op == kI32TruncF64U ||
                     op == kI64TruncF32U || op == kI64TruncF64U;
    load_f(0, h - 1, src_f64);
    if (!src_f64) e_.cvtss2sd(0, 0);
    e_.store_imm32(R15, 144, op);  // trap_aux = opcode, for the message
    e_.ucomis_rr(true, 0, 0);      // NaN is the only unordered-with-self
    trap_sites_[kTrapTruncNan].push_back(e_.jcc(CC_P));
    double lo, hi;
    bool lo_strict;  // strict: require v > lo; else require v >= lo
    if (!wide && !uns) {
      lo = -2147483649.0;  // first double at or below every out-of-range v
      lo_strict = true;
      hi = 2147483648.0;
    } else if (!wide) {
      lo = -1.0;
      lo_strict = true;
      hi = 4294967296.0;
    } else if (!uns) {
      lo = -9223372036854775808.0;  // exact; -2^63-1 is not representable
      lo_strict = false;
      hi = 9223372036854775808.0;
    } else {
      lo = -1.0;
      lo_strict = true;
      hi = 18446744073709551616.0;
    }
    e_.mov_ri64(RAX, f64_bits(lo));
    e_.mov_xr(1, RAX, true);
    e_.ucomis_rr(true, 0, 1);
    trap_sites_[kTrapTruncOverflow].push_back(e_.jcc(lo_strict ? CC_BE : CC_B));
    e_.mov_ri64(RAX, f64_bits(hi));
    e_.mov_xr(1, RAX, true);
    e_.ucomis_rr(true, 0, 1);
    trap_sites_[kTrapTruncOverflow].push_back(e_.jcc(CC_AE));
    if (!wide && !uns) {
      e_.cvtt_f2i(true, false, RAX, 0);  // eax (zero-extends)
    } else if (!wide) {
      e_.cvtt_f2i(true, true, RAX, 0);  // u32 fits the signed 64-bit convert
    } else if (!uns) {
      e_.cvtt_f2i(true, true, RAX, 0);
    } else {
      // u64: values >= 2^63 convert shifted by 2^63 (subtraction is exact:
      // v >= 2^52 is an integer) and the top bit is added back as an int.
      e_.mov_ri64(RAX, f64_bits(9223372036854775808.0));
      e_.mov_xr(1, RAX, true);
      e_.ucomis_rr(true, 0, 1);
      const std::size_t small = e_.jcc(CC_B);
      e_.sse_arith_rr(true, 0x5C, 0, 1);  // v -= 2^63
      e_.cvtt_f2i(true, true, RAX, 0);
      e_.mov_ri64(RCX, 0x8000000000000000ull);
      e_.add_rr(RAX, RCX, true);
      const std::size_t done = e_.jmp();
      e_.patch_rel32(small, e_.size());
      e_.cvtt_f2i(true, true, RAX, 0);
      e_.patch_rel32(done, e_.size());
    }
    store_result(h - 1, RAX);
  }

  /// div/rem with the wasm trap/edge semantics (divide-by-zero trap,
  /// INT_MIN/-1 overflow trap for div_s, INT_MIN%-1 == 0 for rem_s).
  void emit_div(int h, bool wide, bool is_signed, bool is_rem) {
    load_slot(RAX, h - 2, wide);
    load_slot(RCX, h - 1, wide);
    consume(h - 1);
    e_.test_rr(RCX, RCX, wide);
    trap_sites_[kTrapDivZero].push_back(e_.jcc(CC_E));
    Reg result = RAX;
    if (is_signed) {
      if (is_rem) {
        // divisor == -1 => remainder 0 (also sidesteps the INT_MIN idiv #DE)
        e_.cmp_ri(RCX, -1, wide);
        const std::size_t zero_site = e_.jcc(CC_E);
        if (wide)
          e_.cqo();
        else
          e_.cdq();
        e_.idiv(RCX, wide);
        const std::size_t done_site = e_.jmp();
        e_.patch_rel32(zero_site, e_.size());
        e_.xor_rr(RDX, RDX, false);
        e_.patch_rel32(done_site, e_.size());
        result = RDX;
      } else {
        if (wide) {
          e_.mov_ri64(RDX, 0x8000000000000000ull);
          e_.cmp_rr(RAX, RDX, true);
        } else {
          e_.cmp_ri(RAX, std::numeric_limits<std::int32_t>::min(), false);
        }
        const std::size_t ok_site = e_.jcc(CC_NE);
        e_.cmp_ri(RCX, -1, wide);
        trap_sites_[kTrapOverflow].push_back(e_.jcc(CC_E));
        e_.patch_rel32(ok_site, e_.size());
        if (wide)
          e_.cqo();
        else
          e_.cdq();
        e_.idiv(RCX, wide);
      }
    } else {
      e_.xor_rr(RDX, RDX, false);
      e_.div(RCX, wide);
      if (is_rem) result = RDX;
    }
    store_result(h - 2, result);
  }

  void emit_fallback(const Instr& ins, int h) {
    flush_all();
    spill_sp(h);
    e_.mov_rr(RDI, R15);
    e_.mov_ri32(RSI, ins.op);
    call_helper(&jit_helper_fallback);
    reload_pinned();
    trap_check();
  }

  // -- emission ---------------------------------------------------------------

  void emit_prologue() {
    e_.push_r(RBP);
    e_.push_r(RBX);
    e_.push_r(R12);
    e_.push_r(R13);
    e_.push_r(R14);
    e_.push_r(R15);
    e_.sub_rsp8();  // keeps rsp 16-byte aligned at helper call sites
    e_.mov_rr(R15, RDI);
    reload_pinned();
    if (reg_mode_) {
      // Whole wasm frame into registers: params carry their arguments,
      // non-param locals were zeroed by the entry thunk.
      for (std::uint32_t i = 0; i < num_locals_; ++i)
        e_.load64(slot_reg(static_cast<int>(i)), RBP, local_disp(i));
    }
  }

  bool emit_body() {
    const auto& code = func_.code;
    const std::size_t n = code.size();
    offsets_.assign(n, 0);
    for (std::size_t pc = 0; pc < n; ++pc) {
      // A merge point's frame must match the static layout on every
      // incoming edge: materialise pending aliases BEFORE recording the
      // branch-target offset (jumpers flushed at their branch site).
      if (is_target_[pc] && !dead_[pc]) flush_all();
      offsets_[pc] = e_.size();
      if (dead_[pc]) continue;  // unreachable: prescan proved nothing lands here
      const Instr& ins = code[pc];
      const int h = height_[pc];

      // Fuse comparison + conditional branch into cmp+jcc when nothing can
      // jump between them and the taken edge needs no stack adjustment.
      if (const auto ci = cmp_info(ins.op); ci && pc + 1 < n && !is_target_[pc + 1]) {
        const Instr& br = code[pc + 1];
        const bool brif = br.op == kBrIf && br.imm == 0;
        const bool brif_false = br.op == kInstrBrIfFalse;
        if (brif || brif_false) {
          // The compare's operands are popped on both edges; only aliases
          // below them must hit their slots before the jump.
          flush_below(ci->eqz ? h - 1 : h - 2);
          if (ci->eqz) {
            load_slot(RAX, h - 1, ci->wide);
            e_.test_rr(RAX, RAX, ci->wide);
            fixups_.push_back({e_.jcc(brif ? CC_E : CC_NE), br.a});
          } else {
            load_slot(RAX, h - 2, ci->wide);
            if (reg_mode_) {
              load_slot(RCX, h - 1, ci->wide);
              e_.cmp_rr(RAX, RCX, ci->wide);
            } else {
              e_.alu_rm(0x3B, RAX, RBP, operand_disp(h - 1), ci->wide);
            }
            const Cond cc = brif ? ci->cc : static_cast<Cond>(ci->cc ^ 1);
            fixups_.push_back({e_.jcc(cc), br.a});
          }
          ++pc;
          offsets_[pc] = e_.size();
          continue;
        }
      }

      if (needs_flush(ins.op)) flush_all();

      // Arm the local.set sink: when the NEXT op is an unjumped-to
      // local.set, ops routing their result through store_result() write
      // the destination local directly and the local.set is elided.
      sink_disp_ = -1;
      sink_used_ = false;
      if (!reg_mode_ && pc + 1 < n && !is_target_[pc + 1] &&
          code[pc + 1].op == kLocalSet) {
        flush_aliased(code[pc + 1].a);
        sink_disp_ = static_cast<std::int32_t>(code[pc + 1].a * 8);
      }

      switch (ins.op) {
        case kNop:
          break;
        case kUnreachable:
          emit_trap_jump(kTrapUnreachable);
          break;

        case kBr: {
          if (ins.aux == 1 && ins.imm > 0) {
            load_slot(RAX, h - 1);
            store_slot(h - 1 - static_cast<int>(ins.imm), RAX);
          }
          fixups_.push_back({e_.jmp(), ins.a});
          break;
        }
        case kBrIf: {
          load_slot(RAX, h - 1);
          e_.test_rr(RAX, RAX, true);
          if (ins.aux == 1 && ins.imm > 0) {
            const std::size_t skip = e_.jcc(CC_E);
            load_slot(RAX, h - 2);
            store_slot(h - 2 - static_cast<int>(ins.imm), RAX);
            fixups_.push_back({e_.jmp(), ins.a});
            e_.patch_rel32(skip, e_.size());
          } else {
            fixups_.push_back({e_.jcc(CC_NE), ins.a});
          }
          break;
        }
        case kInstrBrIfFalse: {
          load_slot(RAX, h - 1);
          e_.test_rr(RAX, RAX, true);
          fixups_.push_back({e_.jcc(CC_E), ins.a});
          break;
        }
        case kBrTable: {
          spill_sp(h);
          e_.mov_rr(RDI, R15);
          e_.mov_ri64(RSI, reinterpret_cast<std::uint64_t>(&func_.tables[ins.a]));
          e_.mov_ri32(RDX, static_cast<std::uint32_t>(ins.imm));
          call_helper(&jit_helper_br_table);
          // rax = target pc. The helper only memmoves within the stack, so
          // the pinned registers stay valid — dispatch straight through the
          // appended pc->offset table (position-independent via rip).
          const std::size_t table_at = e_.lea_rip(RCX);
          e_.load32_scaled4(RDX, RCX, RAX);
          const std::size_t base_at = e_.lea_rip(RCX);
          e_.add_rr(RCX, RDX, true);
          e_.jmp_r(RCX);
          table_sites_.push_back({table_at, base_at});
          break;
        }
        case kReturn: {
          if (ins.aux == 1) {
            load_slot(RAX, h - 1);
            e_.store64(RBP, 0, RAX);  // result to stack[base]
          }
          e_.load64(RAX, R15, 16);
          if (ins.aux != 0)
            e_.lea_disp(RAX, RAX, static_cast<std::int32_t>(ins.aux));
          e_.store64(R15, 8, RAX);  // ctx->sp = base + keep
          exit_sites_.push_back(e_.jmp());
          break;
        }

        case kCall: {
          spill_sp(h);
          e_.mov_rr(RDI, R15);
          e_.mov_ri32(RSI, ins.a);
          call_helper(&jit_helper_call);
          reload_pinned();
          trap_check();
          break;
        }
        case kCallIndirect: {
          spill_sp(h);
          e_.mov_rr(RDI, R15);
          e_.mov_ri32(RSI, ins.a);
          call_helper(&jit_helper_call_indirect);
          reload_pinned();
          trap_check();
          break;
        }

        case kDrop:
          break;
        case kSelect: {
          load_slot(RAX, h - 1);  // condition
          load_slot(RCX, h - 2);  // v2
          load_slot(RDX, h - 3);  // v1
          e_.test_rr(RAX, RAX, true);
          e_.cmovcc(CC_E, RDX, RCX, true);
          store_slot(h - 3, RDX);
          break;
        }

        case kLocalGet:
          if (reg_mode_)
            e_.mov_rr(operand_reg(h), slot_reg(static_cast<int>(ins.a)));
          else
            pending_[static_cast<std::size_t>(h)] =
                static_cast<std::int32_t>(ins.a);  // deferred: readers fuse it
          break;
        case kLocalSet:
          if (reg_mode_) {
            e_.mov_rr(slot_reg(static_cast<int>(ins.a)), operand_reg(h - 1));
          } else {
            flush_aliased(ins.a);  // older aliases read the value being replaced
            load_slot(RAX, h - 1);
            consume(h - 1);
            e_.store64(RBP, local_disp(ins.a), RAX);
          }
          break;
        case kLocalTee:
          if (reg_mode_) {
            e_.mov_rr(slot_reg(static_cast<int>(ins.a)), operand_reg(h - 1));
          } else {
            flush_aliased(ins.a);
            load_slot(RAX, h - 1);
            e_.store64(RBP, local_disp(ins.a), RAX);
          }
          break;
        case kGlobalGet:
          e_.load64(RAX, R15, 48);
          e_.load64(RAX, RAX, static_cast<std::int32_t>(ins.a * 16 + 8));
          store_result(h, RAX);
          break;
        case kGlobalSet:
          e_.load64(RCX, R15, 48);
          load_slot(RAX, h - 1);
          consume(h - 1);
          e_.store64(RCX, static_cast<std::int32_t>(ins.a * 16 + 8), RAX);
          break;

        case kMemorySize:
          e_.mov_rr(RAX, R14);
          e_.mov_ri32(RCX, 16);  // bytes -> 64 KiB pages
          e_.shift_cl(5, RAX, true);
          store_result(h, RAX);
          break;
        case kMemoryGrow:
          spill_sp(h);
          e_.mov_rr(RDI, R15);
          call_helper(&jit_helper_memory_grow);
          reload_pinned();  // memory may have moved; grow itself never traps
          break;

        case kI32Const:
        case kI64Const:
        case kF32Const:
        case kF64Const:
          if (ins.imm <= 0xffffffffull)
            e_.mov_ri32(RAX, static_cast<std::uint32_t>(ins.imm));
          else
            e_.mov_ri64(RAX, ins.imm);
          store_result(h, RAX);
          break;

        case kInstrMemCopy:
          spill_sp(h);
          e_.mov_rr(RDI, R15);
          call_helper(&jit_helper_mem_copy);
          reload_pinned();
          trap_check();
          break;
        case kInstrMemFill:
          spill_sp(h);
          e_.mov_rr(RDI, R15);
          call_helper(&jit_helper_mem_fill);
          reload_pinned();
          trap_check();
          break;

        default:
          if (!emit_default(ins, h)) {
            refused_op_ = ins.op;
            return false;
          }
          break;
      }

      if (sink_used_) {
        ++pc;  // the local.set was folded into the producing op's store
        offsets_[pc] = e_.size();
      }
      sink_disp_ = -1;
      sink_used_ = false;
    }
    return true;
  }

  /// Loads, stores, numeric ops, conversions — everything table-shaped.
  bool emit_default(const Instr& ins, int h) {
    const std::uint16_t op = ins.op;

    if (op >= kI32Load && op <= kI64Load32U) {
      struct Shape {
        std::uint8_t width_log2;
        bool sign, wide;
      };
      static constexpr Shape kLoads[14] = {
          {2, false, false},  // i32.load
          {3, false, true},   // i64.load
          {2, false, false},  // f32.load (raw bits)
          {3, false, true},   // f64.load
          {0, true, false},   // i32.load8_s
          {0, false, false},  // i32.load8_u
          {1, true, false},   // i32.load16_s
          {1, false, false},  // i32.load16_u
          {0, true, true},    // i64.load8_s
          {0, false, false},  // i64.load8_u
          {1, true, true},    // i64.load16_s
          {1, false, false},  // i64.load16_u
          {2, true, true},    // i64.load32_s
          {2, false, false},  // i64.load32_u
      };
      const Shape s = kLoads[op - kI32Load];
      emit_addr(h - 1, ins.imm, 1u << s.width_log2);
      e_.load_mem_extend(RAX, R13, RAX, s.width_log2, s.sign, s.wide);
      store_result(h - 1, RAX);
      return true;
    }

    if (op >= kI32Store && op <= kI64Store32) {
      static constexpr std::uint8_t kStoreWidthLog2[9] = {
          2,  // i32.store
          3,  // i64.store
          2,  // f32.store
          3,  // f64.store
          0,  // i32.store8
          1,  // i32.store16
          0,  // i64.store8
          1,  // i64.store16
          2,  // i64.store32
      };
      const std::uint8_t w = kStoreWidthLog2[op - kI32Store];
      emit_addr(h - 2, ins.imm, 1u << w);
      load_slot(RCX, h - 1);
      e_.store_mem(R13, RAX, w, RCX);
      return true;
    }

    if (const auto ci = cmp_info(op)) {
      emit_compare_bool(*ci, h);
      return true;
    }

    if (op >= kF32Eq && op <= kF64Ge) {
      emit_fcompare(op, h);
      return true;
    }

    const bool i32_bin = op >= kI32Add && op <= kI32Rotr;
    const bool i64_bin = op >= kI64Add && op <= kI64Rotr;
    if (i32_bin || i64_bin) {
      const bool wide = i64_bin;
      // rel: 0 add, 1 sub, 2 mul, 3 div_s, 4 div_u, 5 rem_s, 6 rem_u,
      //      7 and, 8 or, 9 xor, 10 shl, 11 shr_s, 12 shr_u, 13 rotl, 14 rotr
      const std::uint16_t rel = op - (wide ? kI64Add : kI32Add);
      switch (rel) {
        case 0:
        case 1:
        case 7:
        case 8:
        case 9: {
          // RM opcode forms so the right operand (often a pending
          // local.get) folds into the instruction's memory operand.
          static constexpr std::uint8_t kAluMr[10] = {0x01, 0x29, 0, 0,    0,
                                                      0,    0,    0x21, 0x09, 0x31};
          static constexpr std::uint8_t kAluRm[10] = {0x03, 0x2B, 0, 0,    0,
                                                      0,    0,    0x23, 0x0B, 0x33};
          load_slot(RAX, h - 2, wide);
          if (reg_mode_) {
            e_.alu_rr(kAluMr[rel], RAX, operand_reg(h - 1), wide);
          } else {
            e_.alu_rm(kAluRm[rel], RAX, RBP, operand_disp(h - 1), wide);
          }
          store_result(h - 2, RAX);
          return true;
        }
        case 2:  // mul
          load_slot(RAX, h - 2, wide);
          if (reg_mode_)
            e_.imul_rr(RAX, operand_reg(h - 1), wide);
          else
            e_.imul_rm(RAX, RBP, operand_disp(h - 1), wide);
          store_result(h - 2, RAX);
          return true;
        case 3:  // div_s
          emit_div(h, wide, true, false);
          return true;
        case 4:  // div_u
          emit_div(h, wide, false, false);
          return true;
        case 5:  // rem_s
          emit_div(h, wide, true, true);
          return true;
        case 6:  // rem_u
          emit_div(h, wide, false, true);
          return true;
        default: {
          // shl / shr_s / shr_u / rotl / rotr — x86 masks the count exactly
          // as wasm requires (&31 / &63).
          static constexpr std::uint8_t kShiftExt[5] = {4, 7, 5, 0, 1};
          load_slot(RAX, h - 2, wide);
          load_slot(RCX, h - 1, false);
          e_.shift_cl(kShiftExt[rel - 10], RAX, wide);
          store_result(h - 2, RAX);
          return true;
        }
      }
    }

    const bool f32_un = op >= kF32Abs && op <= kF32Sqrt;
    const bool f64_un = op >= kF64Abs && op <= kF64Sqrt;
    if (f32_un || f64_un) {
      const bool f64 = f64_un;
      // rel: 0 abs, 1 neg, 2 ceil, 3 floor, 4 trunc, 5 nearest, 6 sqrt
      const std::uint16_t rel = op - (f64 ? kF64Abs : kF32Abs);
      if (rel == 6) {
        load_f(0, h - 1, f64);
        e_.sse_arith_rr(f64, 0x51, 0, 0);  // sqrtsd/sqrtss
        if (f64)
          store_f64_result(h - 1, 0);
        else
          store_f32_result(h - 1, 0);
        return true;
      }
      if (rel <= 1) {
        // abs clears / neg flips the sign bit — the interpreter's exact
        // bit operation, NaN payloads untouched.
        if (f64) {
          load_slot(RAX, h - 1, true);
          e_.mov_ri64(RCX, rel == 0 ? 0x7fffffffffffffffull : 0x8000000000000000ull);
          e_.alu_rr(rel == 0 ? 0x21 : 0x31, RAX, RCX, true);
        } else {
          load_slot(RAX, h - 1, false);
          e_.alu_ri(rel == 0 ? 4 : 6, RAX,
                    rel == 0 ? 0x7fffffff
                             : std::numeric_limits<std::int32_t>::min(),
                    false);
        }
        store_result(h - 1, RAX);
        return true;
      }
      // ceil/floor/trunc/nearest: SSE4.1 roundsd territory — thunked below.
    }

    const bool f32_bin = op >= kF32Add && op <= kF32Copysign;
    const bool f64_bin = op >= kF64Add && op <= kF64Copysign;
    if (f32_bin || f64_bin) {
      const bool f64 = f64_bin;
      // rel: 0 add, 1 sub, 2 mul, 3 div, 4 min, 5 max, 6 copysign
      const std::uint16_t rel = op - (f64 ? kF64Add : kF32Add);
      if (rel <= 3) {
        static constexpr std::uint8_t kOpc[4] = {0x58, 0x5C, 0x59, 0x5E};
        load_f(0, h - 2, f64);
        if (reg_mode_) {
          load_f(1, h - 1, f64);
          e_.sse_arith_rr(f64, kOpc[rel], 0, 1);
        } else {
          // Right operand straight from its frame (or aliased local) slot.
          e_.sse_arith_rm(f64, kOpc[rel], 0, RBP, operand_disp(h - 1));
        }
        if (f64)
          store_f64_result(h - 2, 0);
        else
          store_f32_result(h - 2, 0);
        return true;
      }
      if (rel <= 5) {
        emit_fminmax(h, f64, rel == 4);
        return true;
      }
      // copysign: (a & ~signbit) | (b & signbit) in GPRs.
      if (f64) {
        load_slot(RAX, h - 2, true);
        e_.mov_ri64(RDX, 0x7fffffffffffffffull);
        e_.and_rr(RAX, RDX, true);
        load_slot(RCX, h - 1, true);
        e_.mov_ri64(RDX, 0x8000000000000000ull);
        e_.and_rr(RCX, RDX, true);
        e_.or_rr(RAX, RCX, true);
      } else {
        load_slot(RAX, h - 2, false);
        e_.alu_ri(4, RAX, 0x7fffffff, false);
        load_slot(RCX, h - 1, false);
        e_.alu_ri(4, RCX, std::numeric_limits<std::int32_t>::min(), false);
        e_.or_rr(RAX, RCX, false);
      }
      store_result(h - 2, RAX);
      return true;
    }

    switch (op) {
      case kI32WrapI64:
      case kI64ExtendI32U:
      case kI32ReinterpretF32:
      case kF32ReinterpretI32:
        load_slot(RAX, h - 1, false);  // low 32 bits, zero-extended
        store_result(h - 1, RAX);
        return true;
      case kI64ReinterpretF64:
      case kF64ReinterpretI64:
        return true;  // identity on the 64-bit slot
      case kI64ExtendI32S:
      case kI64Extend32S:
        load_slot(RAX, h - 1, false);
        e_.movsx_rr(RAX, RAX, 2, true);
        store_result(h - 1, RAX);
        return true;
      case kI32Extend8S:
        load_slot(RAX, h - 1, false);
        e_.movsx_rr(RAX, RAX, 0, false);
        store_result(h - 1, RAX);
        return true;
      case kI32Extend16S:
        load_slot(RAX, h - 1, false);
        e_.movsx_rr(RAX, RAX, 1, false);
        store_result(h - 1, RAX);
        return true;
      case kI64Extend8S:
        load_slot(RAX, h - 1);
        e_.movsx_rr(RAX, RAX, 0, true);
        store_result(h - 1, RAX);
        return true;
      case kI64Extend16S:
        load_slot(RAX, h - 1);
        e_.movsx_rr(RAX, RAX, 1, true);
        store_result(h - 1, RAX);
        return true;

      case kF64ConvertI32S:
        load_slot(RAX, h - 1, false);
        e_.cvt_i2f(true, false, 0, RAX);
        store_f64_result(h - 1, 0);
        return true;
      case kF64ConvertI32U:
        load_slot(RAX, h - 1, false);  // zero-extended: 64-bit convert is exact
        e_.cvt_i2f(true, true, 0, RAX);
        store_f64_result(h - 1, 0);
        return true;
      case kF64ConvertI64S:
        load_slot(RAX, h - 1, true);
        e_.cvt_i2f(true, true, 0, RAX);
        store_f64_result(h - 1, 0);
        return true;
      case kF32ConvertI32S:
        load_slot(RAX, h - 1, false);
        e_.cvt_i2f(false, false, 0, RAX);
        store_f32_result(h - 1, 0);
        return true;
      case kF32ConvertI32U:
        load_slot(RAX, h - 1, false);
        e_.cvt_i2f(false, true, 0, RAX);
        store_f32_result(h - 1, 0);
        return true;
      case kF32ConvertI64S:
        load_slot(RAX, h - 1, true);
        e_.cvt_i2f(false, true, 0, RAX);
        store_f32_result(h - 1, 0);
        return true;
      case kF64ConvertI64U:
        emit_convert_u64(h, true);
        return true;
      case kF32ConvertI64U:
        emit_convert_u64(h, false);
        return true;
      case kF64PromoteF32:
        load_f(0, h - 1, false);
        e_.cvtss2sd(0, 0);
        store_f64_result(h - 1, 0);
        return true;
      case kF32DemoteF64:
        load_f(0, h - 1, true);
        e_.cvtsd2ss(0, 0);
        store_f32_result(h - 1, 0);
        return true;

      case kI32TruncF32S:
      case kI32TruncF32U:
      case kI32TruncF64S:
      case kI32TruncF64U:
      case kI64TruncF32S:
      case kI64TruncF32U:
      case kI64TruncF64S:
      case kI64TruncF64U:
        emit_trunc(op, h);
        return true;

      default:
        break;
    }

    // Everything else the stream can legally contain — float rounding,
    // clz/ctz/popcnt, saturating truncation — runs through the per-opcode
    // fallback thunk. The prescan already priced its stack effect, so
    // such an op never keeps its function off the native tier.
    if (op_delta(module_, ins).has_value()) {
      emit_fallback(ins, h);
      return true;
    }
    return false;
  }

  void emit_tail() {
    // Epilogue (every exit funnels here, including trap paths).
    const std::size_t epilogue = e_.size();
    e_.add_rsp8();
    e_.pop_r(R15);
    e_.pop_r(R14);
    e_.pop_r(R13);
    e_.pop_r(R12);
    e_.pop_r(RBX);
    e_.pop_r(RBP);
    e_.ret();

    // Trap stubs: set the code, exit. One stub per trap kind in use.
    for (int code = kTrapOob; code <= kTrapTruncOverflow; ++code) {
      if (trap_sites_[code].empty()) continue;
      const std::size_t stub = e_.size();
      e_.store_imm32(R15, 72, code);
      e_.patch_rel32(e_.jmp(), epilogue);
      for (const std::size_t at : trap_sites_[code]) e_.patch_rel32(at, stub);
    }

    for (const std::size_t at : exit_sites_) e_.patch_rel32(at, epilogue);
    for (const auto& [at, target_pc] : fixups_)
      e_.patch_rel32(at, offsets_[target_pc]);

    // br_table dispatch data: one u32 code offset per pc, appended after
    // the code and addressed rip-relatively (position-independent image).
    if (!table_sites_.empty()) {
      e_.align(4);
      const std::size_t table = e_.size();
      for (const std::size_t off : offsets_)
        e_.u32(static_cast<std::uint32_t>(off));
      for (const auto& [table_at, base_at] : table_sites_) {
        e_.patch_rel32(table_at, table);
        e_.patch_rel32(base_at, 0);  // rcx = image base
      }
    }
  }

  const Module& module_;
  const CompiledFunc& func_;
  const std::uint32_t num_locals_;
  Emitter e_;

  std::vector<int> height_;         // operand height at each pc
  std::vector<std::uint8_t> is_target_;
  std::vector<std::uint8_t> dead_;  // unreachable pcs: emitted as nothing
  std::vector<std::size_t> offsets_;  // emitted offset of each pc

  bool reg_mode_ = false;                // whole frame lives in registers
  std::vector<std::int32_t> pending_;    // deferred local.get per height
  std::int32_t sink_disp_ = -1;          // armed local.set destination
  bool sink_used_ = false;
  std::uint16_t refused_op_ = 0xffff;    // opcode behind a refusal

  struct Fixup {
    std::size_t at;
    std::uint32_t target_pc;
  };
  std::vector<Fixup> fixups_;
  std::vector<std::size_t> exit_sites_;           // -> epilogue
  std::array<std::vector<std::size_t>, 7> trap_sites_;  // [trap code]
  struct TableSite {
    std::size_t table_at;
    std::size_t base_at;
  };
  std::vector<TableSite> table_sites_;
};

}  // namespace

std::vector<std::uint8_t> compile_function(const Module& module,
                                           const CompiledFunc& func,
                                           std::uint16_t* refused_op) {
  FnCompiler compiler(module, func);
  if (!compiler.run()) {
    if (refused_op) *refused_op = compiler.refused();
    return {};
  }
  return compiler.take();
}

}  // namespace watz::wasm::jit
