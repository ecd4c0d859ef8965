#include "wasm/validator.hpp"

#include <bit>
#include <optional>

#include "common/leb128.hpp"
#include "wasm/opcodes.hpp"

namespace watz::wasm {

namespace {

/// `nullopt` plays the spec's "Unknown" type for polymorphic stacks.
using VType = std::optional<ValType>;

Result<std::pair<ValType, bool>> module_global_type(const Module& module,
                                                    std::uint32_t index) {
  std::uint32_t i = 0;
  for (const auto& imp : module.imports) {
    if (imp.kind != ImportKind::Global) continue;
    if (i == index) return std::pair{imp.global_type, imp.global_mutable};
    ++i;
  }
  const std::uint32_t local = index - i;
  if (local >= module.globals.size())
    return Result<std::pair<ValType, bool>>::err("validate: global index oob");
  return std::pair{module.globals[local].type, module.globals[local].mutable_};
}

struct ControlFrame {
  Op opcode = kBlock;
  std::vector<ValType> start_types;  // label params (empty in MVP blocks)
  std::vector<ValType> end_types;    // block result
  std::size_t height = 0;            // value stack height at entry
  bool unreachable = false;
};

class FuncValidator {
 public:
  FuncValidator(const Module& module, std::uint32_t func_index)
      : module_(module),
        type_(module.types[module.functions[func_index]]),
        body_(module.code[func_index]),
        reader_(body_.code) {
    locals_ = type_.params;
    locals_.insert(locals_.end(), body_.locals.begin(), body_.locals.end());
  }

  Status run() {
    push_ctrl(kBlock, {}, type_.results);
    while (!ctrls_.empty()) {
      auto op = reader_.read_u8();
      if (!op.ok()) return Status::err("validate: body ended without end");
      const Status st = check_op(static_cast<Op>(*op));
      if (!st.ok()) return st;
    }
    if (!reader_.at_end()) return Status::err("validate: trailing bytes after end");
    return {};
  }

 private:
  // -- stack machinery (spec appendix algorithm) ---------------------------

  void push_val(VType t) { vals_.push_back(t); }
  void push_val(ValType t) { vals_.push_back(t); }

  Result<VType> pop_val() {
    ControlFrame& frame = ctrls_.back();
    if (vals_.size() == frame.height) {
      if (frame.unreachable) return VType{};
      return Result<VType>::err("validate: value stack underflow");
    }
    VType top = vals_.back();
    vals_.pop_back();
    return top;
  }

  Status pop_expect(ValType expect) {
    auto actual = pop_val();
    if (!actual.ok()) return Status::err(actual.error());
    if (actual->has_value() && **actual != expect)
      return Status::err(std::string("validate: expected ") + val_type_name(expect) +
                         " got " + val_type_name(**actual));
    return {};
  }

  Status pop_expect_all(const std::vector<ValType>& types) {
    for (auto it = types.rbegin(); it != types.rend(); ++it) {
      const Status st = pop_expect(*it);
      if (!st.ok()) return st;
    }
    return {};
  }

  void push_all(const std::vector<ValType>& types) {
    for (ValType t : types) push_val(t);
  }

  void push_ctrl(Op opcode, std::vector<ValType> in, std::vector<ValType> out) {
    ctrls_.push_back(ControlFrame{opcode, std::move(in), std::move(out), vals_.size(), false});
    push_all(ctrls_.back().start_types);
  }

  Result<ControlFrame> pop_ctrl() {
    if (ctrls_.empty()) return Result<ControlFrame>::err("validate: control stack underflow");
    ControlFrame frame = ctrls_.back();
    const Status st = pop_expect_all(frame.end_types);
    if (!st.ok()) return Result<ControlFrame>::err(st.error());
    if (vals_.size() != frame.height)
      return Result<ControlFrame>::err("validate: values left on stack at end of block");
    ctrls_.pop_back();
    return frame;
  }

  void set_unreachable() {
    ControlFrame& frame = ctrls_.back();
    vals_.resize(frame.height);
    frame.unreachable = true;
  }

  /// Types a branch to relative depth `depth` transfers.
  Result<std::vector<ValType>> label_types(std::uint32_t depth) {
    if (depth >= ctrls_.size())
      return Result<std::vector<ValType>>::err("validate: branch depth out of range");
    const ControlFrame& frame = ctrls_[ctrls_.size() - 1 - depth];
    return frame.opcode == kLoop ? frame.start_types : frame.end_types;
  }

  // -- immediates -----------------------------------------------------------

  Result<std::uint32_t> imm_u32() { return reader_.read_uleb32(); }

  Result<std::vector<ValType>> block_type() {
    auto b = reader_.read_u8();
    if (!b.ok()) return Result<std::vector<ValType>>::err(b.error());
    switch (*b) {
      case 0x40: return std::vector<ValType>{};
      case 0x7f: return std::vector<ValType>{ValType::I32};
      case 0x7e: return std::vector<ValType>{ValType::I64};
      case 0x7d: return std::vector<ValType>{ValType::F32};
      case 0x7c: return std::vector<ValType>{ValType::F64};
      default: return Result<std::vector<ValType>>::err("validate: unsupported block type");
    }
  }

  Status check_mem_access(std::uint32_t natural_align) {
    if (module_.memories.empty() && !has_imported_memory())
      return Status::err("validate: memory access without memory");
    auto align = imm_u32();
    if (!align.ok()) return Status::err(align.error());
    // Compared as log2 without shifting: the immediate is an untrusted u32,
    // and any shift by >= 32 is undefined.
    if (*align > static_cast<std::uint32_t>(std::countr_zero(natural_align)))
      return Status::err("validate: alignment exceeds natural alignment");
    auto offset = imm_u32();
    if (!offset.ok()) return Status::err(offset.error());
    return {};
  }

  bool has_imported_memory() const {
    for (const auto& imp : module_.imports)
      if (imp.kind == ImportKind::Memory) return true;
    return false;
  }

  Result<std::pair<ValType, bool>> global_type(std::uint32_t index) {
    return module_global_type(module_, index);
  }

  // -- opcode dispatch -------------------------------------------------------

  Status binary_op(ValType in, ValType out) {
    Status st = pop_expect(in);
    if (!st.ok()) return st;
    st = pop_expect(in);
    if (!st.ok()) return st;
    push_val(out);
    return {};
  }

  Status unary_op(ValType in, ValType out) {
    const Status st = pop_expect(in);
    if (!st.ok()) return st;
    push_val(out);
    return {};
  }

  Status load_op(ValType out, std::uint32_t natural_align) {
    Status st = check_mem_access(natural_align);
    if (!st.ok()) return st;
    st = pop_expect(ValType::I32);
    if (!st.ok()) return st;
    push_val(out);
    return {};
  }

  Status store_op(ValType in, std::uint32_t natural_align) {
    Status st = check_mem_access(natural_align);
    if (!st.ok()) return st;
    st = pop_expect(in);
    if (!st.ok()) return st;
    return pop_expect(ValType::I32);
  }

  Status check_op(Op op);
  Status check_fc();

  const Module& module_;
  const FuncType& type_;
  const FunctionBody& body_;
  ByteReader reader_;
  std::vector<ValType> locals_;
  std::vector<VType> vals_;
  std::vector<ControlFrame> ctrls_;
};

Status FuncValidator::check_fc() {
  auto sub = reader_.read_uleb32();
  if (!sub.ok()) return Status::err(sub.error());
  switch (*sub) {
    case kI32TruncSatF32S:
    case kI32TruncSatF32U:
      return unary_op(ValType::F32, ValType::I32);
    case kI32TruncSatF64S:
    case kI32TruncSatF64U:
      return unary_op(ValType::F64, ValType::I32);
    case kI64TruncSatF32S:
    case kI64TruncSatF32U:
      return unary_op(ValType::F32, ValType::I64);
    case kI64TruncSatF64S:
    case kI64TruncSatF64U:
      return unary_op(ValType::F64, ValType::I64);
    case kMemoryCopy: {
      auto a = reader_.read_u8();
      auto b = reader_.read_u8();
      if (!a.ok() || !b.ok() || *a != 0 || *b != 0)
        return Status::err("validate: memory.copy operands");
      Status st = pop_expect(ValType::I32);
      if (!st.ok()) return st;
      st = pop_expect(ValType::I32);
      if (!st.ok()) return st;
      return pop_expect(ValType::I32);
    }
    case kMemoryFill: {
      auto a = reader_.read_u8();
      if (!a.ok() || *a != 0) return Status::err("validate: memory.fill operand");
      Status st = pop_expect(ValType::I32);
      if (!st.ok()) return st;
      st = pop_expect(ValType::I32);
      if (!st.ok()) return st;
      return pop_expect(ValType::I32);
    }
    default:
      return Status::err("validate: unsupported 0xFC opcode");
  }
}

Status FuncValidator::check_op(Op op) {
  switch (op) {
    case kUnreachable:
      set_unreachable();
      return {};
    case kNop:
      return {};

    case kBlock: {
      auto bt = block_type();
      if (!bt.ok()) return Status::err(bt.error());
      push_ctrl(kBlock, {}, *bt);
      return {};
    }
    case kLoop: {
      auto bt = block_type();
      if (!bt.ok()) return Status::err(bt.error());
      push_ctrl(kLoop, {}, *bt);
      return {};
    }
    case kIf: {
      auto bt = block_type();
      if (!bt.ok()) return Status::err(bt.error());
      const Status st = pop_expect(ValType::I32);
      if (!st.ok()) return st;
      push_ctrl(kIf, {}, *bt);
      return {};
    }
    case kElse: {
      auto frame = pop_ctrl();
      if (!frame.ok()) return Status::err(frame.error());
      if (frame->opcode != kIf) return Status::err("validate: else without if");
      push_ctrl(kElse, frame->start_types, frame->end_types);
      return {};
    }
    case kEnd: {
      auto frame = pop_ctrl();
      if (!frame.ok()) return Status::err(frame.error());
      if (frame->opcode == kIf && !frame->end_types.empty())
        return Status::err("validate: if with result type but no else");
      push_all(frame->end_types);
      return {};
    }

    case kBr: {
      auto depth = imm_u32();
      if (!depth.ok()) return Status::err(depth.error());
      auto types = label_types(*depth);
      if (!types.ok()) return Status::err(types.error());
      const Status st = pop_expect_all(*types);
      if (!st.ok()) return st;
      set_unreachable();
      return {};
    }
    case kBrIf: {
      auto depth = imm_u32();
      if (!depth.ok()) return Status::err(depth.error());
      Status st = pop_expect(ValType::I32);
      if (!st.ok()) return st;
      auto types = label_types(*depth);
      if (!types.ok()) return Status::err(types.error());
      st = pop_expect_all(*types);
      if (!st.ok()) return st;
      push_all(*types);
      return {};
    }
    case kBrTable: {
      auto count = imm_u32();
      if (!count.ok()) return Status::err(count.error());
      std::vector<std::uint32_t> targets;
      for (std::uint32_t i = 0; i < *count; ++i) {
        auto t = imm_u32();
        if (!t.ok()) return Status::err(t.error());
        targets.push_back(*t);
      }
      auto def = imm_u32();
      if (!def.ok()) return Status::err(def.error());
      Status st = pop_expect(ValType::I32);
      if (!st.ok()) return st;
      auto def_types = label_types(*def);
      if (!def_types.ok()) return Status::err(def_types.error());
      for (std::uint32_t t : targets) {
        auto types = label_types(t);
        if (!types.ok()) return Status::err(types.error());
        if (*types != *def_types)
          return Status::err("validate: br_table target type mismatch");
      }
      st = pop_expect_all(*def_types);
      if (!st.ok()) return st;
      set_unreachable();
      return {};
    }
    case kReturn: {
      const Status st = pop_expect_all(type_.results);
      if (!st.ok()) return st;
      set_unreachable();
      return {};
    }
    case kCall: {
      auto idx = imm_u32();
      if (!idx.ok()) return Status::err(idx.error());
      if (*idx >= module_.total_funcs()) return Status::err("validate: call index oob");
      const FuncType& ft = module_.func_type(*idx);
      const Status st = pop_expect_all(ft.params);
      if (!st.ok()) return st;
      push_all(ft.results);
      return {};
    }
    case kCallIndirect: {
      auto ti = imm_u32();
      if (!ti.ok()) return Status::err(ti.error());
      if (*ti >= module_.types.size()) return Status::err("validate: call_indirect type oob");
      auto table_idx = reader_.read_u8();
      if (!table_idx.ok() || *table_idx != 0)
        return Status::err("validate: call_indirect table must be 0");
      bool has_table = !module_.tables.empty();
      for (const auto& imp : module_.imports)
        if (imp.kind == ImportKind::Table) has_table = true;
      if (!has_table) return Status::err("validate: call_indirect without table");
      Status st = pop_expect(ValType::I32);
      if (!st.ok()) return st;
      const FuncType& ft = module_.types[*ti];
      st = pop_expect_all(ft.params);
      if (!st.ok()) return st;
      push_all(ft.results);
      return {};
    }

    case kDrop: {
      auto v = pop_val();
      return v.ok() ? Status{} : Status::err(v.error());
    }
    case kSelect: {
      Status st = pop_expect(ValType::I32);
      if (!st.ok()) return st;
      auto a = pop_val();
      if (!a.ok()) return Status::err(a.error());
      auto b = pop_val();
      if (!b.ok()) return Status::err(b.error());
      if (a->has_value() && b->has_value() && **a != **b)
        return Status::err("validate: select operand types differ");
      if ((a->has_value() && **a == ValType::FuncRef) ||
          (b->has_value() && **b == ValType::FuncRef))
        return Status::err("validate: select on reference type");
      push_val(a->has_value() ? *a : *b);
      return {};
    }

    case kLocalGet: {
      auto idx = imm_u32();
      if (!idx.ok()) return Status::err(idx.error());
      if (*idx >= locals_.size()) return Status::err("validate: local index oob");
      push_val(locals_[*idx]);
      return {};
    }
    case kLocalSet: {
      auto idx = imm_u32();
      if (!idx.ok()) return Status::err(idx.error());
      if (*idx >= locals_.size()) return Status::err("validate: local index oob");
      return pop_expect(locals_[*idx]);
    }
    case kLocalTee: {
      auto idx = imm_u32();
      if (!idx.ok()) return Status::err(idx.error());
      if (*idx >= locals_.size()) return Status::err("validate: local index oob");
      const Status st = pop_expect(locals_[*idx]);
      if (!st.ok()) return st;
      push_val(locals_[*idx]);
      return {};
    }
    case kGlobalGet: {
      auto idx = imm_u32();
      if (!idx.ok()) return Status::err(idx.error());
      auto type = global_type(*idx);
      if (!type.ok()) return Status::err(type.error());
      push_val(type->first);
      return {};
    }
    case kGlobalSet: {
      auto idx = imm_u32();
      if (!idx.ok()) return Status::err(idx.error());
      auto type = global_type(*idx);
      if (!type.ok()) return Status::err(type.error());
      if (!type->second) return Status::err("validate: assignment to immutable global");
      return pop_expect(type->first);
    }

    case kI32Load: return load_op(ValType::I32, 4);
    case kI64Load: return load_op(ValType::I64, 8);
    case kF32Load: return load_op(ValType::F32, 4);
    case kF64Load: return load_op(ValType::F64, 8);
    case kI32Load8S:
    case kI32Load8U: return load_op(ValType::I32, 1);
    case kI32Load16S:
    case kI32Load16U: return load_op(ValType::I32, 2);
    case kI64Load8S:
    case kI64Load8U: return load_op(ValType::I64, 1);
    case kI64Load16S:
    case kI64Load16U: return load_op(ValType::I64, 2);
    case kI64Load32S:
    case kI64Load32U: return load_op(ValType::I64, 4);
    case kI32Store: return store_op(ValType::I32, 4);
    case kI64Store: return store_op(ValType::I64, 8);
    case kF32Store: return store_op(ValType::F32, 4);
    case kF64Store: return store_op(ValType::F64, 8);
    case kI32Store8: return store_op(ValType::I32, 1);
    case kI32Store16: return store_op(ValType::I32, 2);
    case kI64Store8: return store_op(ValType::I64, 1);
    case kI64Store16: return store_op(ValType::I64, 2);
    case kI64Store32: return store_op(ValType::I64, 4);

    case kMemorySize: {
      auto zero = reader_.read_u8();
      if (!zero.ok() || *zero != 0) return Status::err("validate: memory.size operand");
      push_val(ValType::I32);
      return {};
    }
    case kMemoryGrow: {
      auto zero = reader_.read_u8();
      if (!zero.ok() || *zero != 0) return Status::err("validate: memory.grow operand");
      const Status st = pop_expect(ValType::I32);
      if (!st.ok()) return st;
      push_val(ValType::I32);
      return {};
    }

    case kI32Const: {
      auto v = reader_.read_sleb32();
      if (!v.ok()) return Status::err(v.error());
      push_val(ValType::I32);
      return {};
    }
    case kI64Const: {
      auto v = reader_.read_sleb64();
      if (!v.ok()) return Status::err(v.error());
      push_val(ValType::I64);
      return {};
    }
    case kF32Const: {
      auto v = reader_.read_bytes(4);
      if (!v.ok()) return Status::err(v.error());
      push_val(ValType::F32);
      return {};
    }
    case kF64Const: {
      auto v = reader_.read_bytes(8);
      if (!v.ok()) return Status::err(v.error());
      push_val(ValType::F64);
      return {};
    }

    case kI32Eqz: return unary_op(ValType::I32, ValType::I32);
    case kI64Eqz: return unary_op(ValType::I64, ValType::I32);

    default:
      break;
  }

  // Regular numeric opcodes grouped by range.
  if (op >= kI32Eq && op <= kI32GeU) return binary_op(ValType::I32, ValType::I32);
  if (op >= kI64Eq && op <= kI64GeU) return binary_op(ValType::I64, ValType::I32);
  if (op >= kF32Eq && op <= kF32Ge) return binary_op(ValType::F32, ValType::I32);
  if (op >= kF64Eq && op <= kF64Ge) return binary_op(ValType::F64, ValType::I32);
  if (op >= kI32Clz && op <= kI32Popcnt) return unary_op(ValType::I32, ValType::I32);
  if (op >= kI32Add && op <= kI32Rotr) return binary_op(ValType::I32, ValType::I32);
  if (op >= kI64Clz && op <= kI64Popcnt) return unary_op(ValType::I64, ValType::I64);
  if (op >= kI64Add && op <= kI64Rotr) return binary_op(ValType::I64, ValType::I64);
  if (op >= kF32Abs && op <= kF32Sqrt) return unary_op(ValType::F32, ValType::F32);
  if (op >= kF32Add && op <= kF32Copysign) return binary_op(ValType::F32, ValType::F32);
  if (op >= kF64Abs && op <= kF64Sqrt) return unary_op(ValType::F64, ValType::F64);
  if (op >= kF64Add && op <= kF64Copysign) return binary_op(ValType::F64, ValType::F64);

  switch (op) {
    case kI32WrapI64: return unary_op(ValType::I64, ValType::I32);
    case kI32TruncF32S:
    case kI32TruncF32U: return unary_op(ValType::F32, ValType::I32);
    case kI32TruncF64S:
    case kI32TruncF64U: return unary_op(ValType::F64, ValType::I32);
    case kI64ExtendI32S:
    case kI64ExtendI32U: return unary_op(ValType::I32, ValType::I64);
    case kI64TruncF32S:
    case kI64TruncF32U: return unary_op(ValType::F32, ValType::I64);
    case kI64TruncF64S:
    case kI64TruncF64U: return unary_op(ValType::F64, ValType::I64);
    case kF32ConvertI32S:
    case kF32ConvertI32U: return unary_op(ValType::I32, ValType::F32);
    case kF32ConvertI64S:
    case kF32ConvertI64U: return unary_op(ValType::I64, ValType::F32);
    case kF32DemoteF64: return unary_op(ValType::F64, ValType::F32);
    case kF64ConvertI32S:
    case kF64ConvertI32U: return unary_op(ValType::I32, ValType::F64);
    case kF64ConvertI64S:
    case kF64ConvertI64U: return unary_op(ValType::I64, ValType::F64);
    case kF64PromoteF32: return unary_op(ValType::F32, ValType::F64);
    case kI32ReinterpretF32: return unary_op(ValType::F32, ValType::I32);
    case kI64ReinterpretF64: return unary_op(ValType::F64, ValType::I64);
    case kF32ReinterpretI32: return unary_op(ValType::I32, ValType::F32);
    case kF64ReinterpretI64: return unary_op(ValType::I64, ValType::F64);
    case kI32Extend8S:
    case kI32Extend16S: return unary_op(ValType::I32, ValType::I32);
    case kI64Extend8S:
    case kI64Extend16S:
    case kI64Extend32S: return unary_op(ValType::I64, ValType::I64);
    case kPrefixFC: return check_fc();
    default:
      return Status::err("validate: unknown opcode " + std::to_string(op));
  }
}

Status validate_const_expr(const Module& module, const Bytes& expr, ValType expected) {
  ByteReader r(expr);
  auto op = r.read_u8();
  if (!op.ok()) return Status::err("validate: empty const expr");
  switch (*op) {
    case kI32Const:
      return expected == ValType::I32 ? Status{}
                                      : Status::err("validate: const expr type mismatch");
    case kI64Const:
      return expected == ValType::I64 ? Status{}
                                      : Status::err("validate: const expr type mismatch");
    case kF32Const:
      return expected == ValType::F32 ? Status{}
                                      : Status::err("validate: const expr type mismatch");
    case kF64Const:
      return expected == ValType::F64 ? Status{}
                                      : Status::err("validate: const expr type mismatch");
    case kGlobalGet: {
      auto idx = r.read_uleb32();
      if (!idx.ok()) return Status::err(idx.error());
      if (*idx >= module.num_imported_globals())
        return Status::err("validate: const expr global.get must reference import");
      auto type = module_global_type(module, *idx);
      if (!type.ok()) return Status::err(type.error());
      if (type->second) return Status::err("validate: const expr global must be immutable");
      if (type->first != expected)
        return Status::err("validate: const expr type mismatch");
      return {};
    }
    default:
      return Status::err("validate: invalid const expr opcode");
  }
}

}  // namespace

Status validate_module(const Module& module) {
  // Export indices.
  std::uint32_t num_tables = module.tables.size();
  std::uint32_t num_memories = module.memories.size();
  std::uint32_t num_globals =
      module.num_imported_globals() + static_cast<std::uint32_t>(module.globals.size());
  for (const auto& imp : module.imports) {
    if (imp.kind == ImportKind::Table) ++num_tables;
    if (imp.kind == ImportKind::Memory) ++num_memories;
  }
  if (num_tables > 1) return Status::err("validate: more than one table");
  if (num_memories > 1) return Status::err("validate: more than one memory");

  for (const auto& ex : module.exports) {
    switch (ex.kind) {
      case ImportKind::Func:
        if (ex.index >= module.total_funcs()) return Status::err("validate: export func oob");
        break;
      case ImportKind::Table:
        if (ex.index >= num_tables) return Status::err("validate: export table oob");
        break;
      case ImportKind::Memory:
        if (ex.index >= num_memories) return Status::err("validate: export memory oob");
        break;
      case ImportKind::Global:
        if (ex.index >= num_globals) return Status::err("validate: export global oob");
        break;
    }
  }

  if (module.start) {
    if (*module.start >= module.total_funcs())
      return Status::err("validate: start function oob");
    const FuncType& ft = module.func_type(*module.start);
    if (!ft.params.empty() || !ft.results.empty())
      return Status::err("validate: start function must be [] -> []");
  }

  for (const auto& g : module.globals) {
    const Status st = validate_const_expr(module, g.init_expr, g.type);
    if (!st.ok()) return st;
  }
  for (const auto& seg : module.elements) {
    if (num_tables == 0) return Status::err("validate: element segment without table");
    const Status st = validate_const_expr(module, seg.offset_expr, ValType::I32);
    if (!st.ok()) return st;
    for (std::uint32_t fi : seg.func_indices)
      if (fi >= module.total_funcs()) return Status::err("validate: element func oob");
  }
  for (const auto& seg : module.data) {
    if (num_memories == 0) return Status::err("validate: data segment without memory");
    const Status st = validate_const_expr(module, seg.offset_expr, ValType::I32);
    if (!st.ok()) return st;
  }

  for (std::uint32_t i = 0; i < module.functions.size(); ++i) {
    FuncValidator fv(module, i);
    const Status st = fv.run();
    if (!st.ok())
      return Status::err(st.error() + " (in function " +
                         std::to_string(i + module.num_imported_funcs()) + ")");
  }
  return {};
}

}  // namespace watz::wasm
