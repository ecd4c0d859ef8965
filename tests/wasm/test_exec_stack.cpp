// Operand-stack growth regression tests (all execution tiers).
//
// exec_call_aot grows the shared operand-stack vector with resize() in the
// middle of a call chain, while every live caller frame still has operand
// slots below sp. Nothing may cache an element pointer across a nested
// call: the AOT stream indexes stack[...] afresh, the JIT reloads its
// frame-base register after every helper return, and call_host re-checks
// headroom before pushing host results. These tests force reallocation at
// maximum depth and verify caller-held operands, locals and memory bindings
// all survive.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "wasm/builder.hpp"
#include "wasm/decoder.hpp"
#include "wasm/instance.hpp"
#include "wasm/jit/tier.hpp"
#include "wasm/opcodes.hpp"

namespace watz::wasm {
namespace {

std::unique_ptr<Instance> make_instance(const Bytes& bin, ExecMode mode,
                                        const ImportResolver& imports,
                                        bool with_tier) {
  auto mod = decode_module(bin);
  EXPECT_TRUE(mod.ok()) << mod.error();
  if (!mod.ok()) return nullptr;
  auto inst = Instance::instantiate(std::move(*mod), imports, mode);
  EXPECT_TRUE(inst.ok()) << inst.error();
  if (!inst.ok()) return nullptr;
  if (with_tier && jit::jit_available()) {
    auto tier = std::make_shared<jit::TierSet>(&(*inst)->module(),
                                               (*inst)->compiled,
                                               jit::TierConfig{});
    tier->compile_all();
    (*inst)->tier = tier;
  }
  return std::move(*inst);
}

/// Builds: f(n) = 0 when n == 0, else (n*2) + (f(n-1) + n*3) + pad-locals.
/// The n*2 operand is pushed BEFORE the recursive call and consumed after
/// it returns, so it sits in a caller frame across every resize; 24 dead
/// locals per frame inflate frame size so a 500-deep chain reallocates the
/// 1024-slot initial stack several times over.
Bytes deep_sum_module() {
  ModuleBuilder mb;
  FuncType ft{{ValType::I64}, {ValType::I64}};
  std::vector<ValType> pad(24, ValType::I64);
  auto f = mb.add_function(ft, pad);
  CodeEmitter ce;
  // Touch the pad locals so they are not trivially dead.
  ce.local_get(0).local_set(12);
  ce.local_get(0).op(kI64Eqz);
  ce.if_(0x7e);
  ce.i64_const(0);
  ce.else_();
  ce.local_get(0).i64_const(2).op(kI64Mul);  // live across the call
  ce.local_get(0).i64_const(1).op(kI64Sub).call(f);
  ce.local_get(12).i64_const(3).op(kI64Mul).op(kI64Add);
  ce.op(kI64Add);
  ce.end();
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);
  return mb.build();
}

void check_deep_sum(ExecMode mode, bool with_tier) {
  ImportResolver imports;
  auto inst = make_instance(deep_sum_module(), mode, imports, with_tier);
  ASSERT_TRUE(inst);
  // f(n) = sum_{k=1..n} 5k = 5 n (n+1) / 2.
  for (std::int64_t n : {0, 1, 100, 500}) {
    std::vector<Value> args{Value::from_i64(n)};
    auto r = inst->invoke("f", args);
    ASSERT_TRUE(r.ok()) << "n=" << n << ": " << r.error();
    EXPECT_EQ((*r)[0].i64(), 5 * n * (n + 1) / 2) << "n=" << n;
  }
  // One past the depth limit traps cleanly instead of corrupting frames.
  std::vector<Value> deep{Value::from_i64(100000)};
  auto r = inst->invoke("f", deep);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "trap: call stack exhausted");
}

TEST(ExecStack, DeepRecursionResizeInterp) {
  check_deep_sum(ExecMode::Interp, false);
}
TEST(ExecStack, DeepRecursionResizeAotStream) {
  check_deep_sum(ExecMode::Aot, false);
}
TEST(ExecStack, DeepRecursionResizeNative) {
  check_deep_sum(ExecMode::Aot, true);
}

/// A callee grows linear memory; the CALLER then stores to and loads from
/// the newly valid page with an operand held from before the call. Any
/// frame that cached the memory base or size across the call breaks here.
Bytes grow_in_callee_module() {
  ModuleBuilder mb;
  mb.add_memory(1, 4);
  auto grower = mb.add_function(FuncType{{}, {ValType::I32}});
  {
    CodeEmitter ce;
    ce.i32_const(1).memory_grow();
    mb.set_body(grower, ce.bytes());
  }
  auto f = mb.add_function(FuncType{{ValType::I32}, {ValType::I32}});
  CodeEmitter ce;
  ce.local_get(0);             // live across the call
  ce.call(grower).op(kDrop);   // memory reallocates here
  ce.i32_const(65536 + 64).local_get(0).store(kI32Store, 0);
  ce.i32_const(65536 + 64).load(kI32Load, 0);
  ce.op(kI32Add);
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);
  return mb.build();
}

void check_grow_in_callee(ExecMode mode, bool with_tier) {
  ImportResolver imports;
  auto inst = make_instance(grow_in_callee_module(), mode, imports, with_tier);
  ASSERT_TRUE(inst);
  std::vector<Value> args{Value::from_i32(21)};
  auto r = inst->invoke("f", args);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ((*r)[0].i32(), 42);
}

TEST(ExecStack, CalleeGrowRebindsCallerInterp) {
  check_grow_in_callee(ExecMode::Interp, false);
}
TEST(ExecStack, CalleeGrowRebindsCallerAotStream) {
  check_grow_in_callee(ExecMode::Aot, false);
}
TEST(ExecStack, CalleeGrowRebindsCallerNative) {
  check_grow_in_callee(ExecMode::Aot, true);
}

/// Host results are pushed with an explicit headroom check: a host function
/// called at the bottom of a deep chain (stack near its high-water mark)
/// returning a value must grow the vector rather than write past it.
TEST(ExecStack, HostResultsAtDepthGrowTheStack) {
  ModuleBuilder mb;
  auto host = mb.import_function("env", "mark",
                                 FuncType{{}, {ValType::I64}});
  FuncType ft{{ValType::I64}, {ValType::I64}};
  std::vector<ValType> pad(24, ValType::I64);
  auto f = mb.add_function(ft, pad);
  CodeEmitter ce;
  ce.local_get(0).op(kI64Eqz);
  ce.if_(0x7e);
  ce.call(host);  // at max depth, with every caller frame below us
  ce.else_();
  ce.local_get(0).i64_const(1).op(kI64Sub).call(f);
  ce.end();
  mb.set_body(f, ce.bytes());
  mb.export_function("f", f);

  ImportResolver imports;
  imports.add_function("env", "mark", FuncType{{}, {ValType::I64}},
                       [](Instance&, std::span<const Value>) {
                         return Result<std::vector<Value>>{
                             std::vector<Value>{Value::from_i64(777)}};
                       });
  for (bool with_tier : {false, true}) {
    auto inst = make_instance(mb.build(), ExecMode::Aot, imports, with_tier);
    ASSERT_TRUE(inst);
    std::vector<Value> args{Value::from_i64(400)};
    auto r = inst->invoke("f", args);
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ((*r)[0].i64(), 777);
  }
}

}  // namespace
}  // namespace watz::wasm
