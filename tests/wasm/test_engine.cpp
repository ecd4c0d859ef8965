// Engine behaviour tests, parameterised over ExecMode: every program must
// produce identical results under the interpreter and the AOT executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/page_buffer.hpp"
#include "wasm/builder.hpp"
#include "wasm/decoder.hpp"
#include "wasm/instance.hpp"

namespace watz::wasm {
namespace {

class EngineTest : public ::testing::TestWithParam<ExecMode> {
 protected:
  std::unique_ptr<Instance> instantiate(const Bytes& binary,
                                        const ImportResolver* imports = nullptr) {
    auto mod = decode_module(binary);
    EXPECT_TRUE(mod.ok()) << mod.error();
    static const ImportResolver kEmpty;
    auto inst = Instance::instantiate(std::move(*mod), imports ? *imports : kEmpty,
                                      GetParam());
    EXPECT_TRUE(inst.ok()) << inst.error();
    return std::move(*inst);
  }

  Value invoke1(Instance& inst, const std::string& name, std::vector<Value> args) {
    auto r = inst.invoke(name, args);
    EXPECT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r->size(), 1u);
    return r->front();
  }
};

TEST_P(EngineTest, ConstAndArithmetic) {
  ModuleBuilder b;
  const auto f = b.add_function({{ValType::I32, ValType::I32}, {ValType::I32}});
  CodeEmitter e;
  e.local_get(0).local_get(1).op(kI32Add).i32_const(10).op(kI32Mul);
  b.set_body(f, e.bytes());
  b.export_function("f", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "f", {Value::from_i32(3), Value::from_i32(4)}).i32(), 70);
}

TEST_P(EngineTest, FactorialRecursive) {
  ModuleBuilder b;
  const auto f = b.add_function({{ValType::I32}, {ValType::I32}});
  CodeEmitter e;
  // if (n <= 1) return 1; else return n * fact(n-1)
  e.local_get(0).i32_const(1).op(kI32LeS);
  e.if_(0x7f);
  e.i32_const(1);
  e.else_();
  e.local_get(0).local_get(0).i32_const(1).op(kI32Sub).call(f).op(kI32Mul);
  e.end();
  b.set_body(f, e.bytes());
  b.export_function("fact", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "fact", {Value::from_i32(10)}).i32(), 3628800);
  EXPECT_EQ(invoke1(*inst, "fact", {Value::from_i32(1)}).i32(), 1);
}

TEST_P(EngineTest, LoopWithBranch) {
  // Sum 1..n with a loop and br_if.
  ModuleBuilder b;
  const auto f = b.add_function({{ValType::I32}, {ValType::I32}},
                                {ValType::I32, ValType::I32});
  CodeEmitter e;
  // local1 = acc, local2 = i
  e.block();
  e.loop();
  e.local_get(2).local_get(0).op(kI32GeS).br_if(1);  // i >= n -> exit
  e.local_get(2).i32_const(1).op(kI32Add).local_set(2);
  e.local_get(1).local_get(2).op(kI32Add).local_set(1);
  e.br(0);
  e.end();
  e.end();
  e.local_get(1);
  b.set_body(f, e.bytes());
  b.export_function("sum", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "sum", {Value::from_i32(100)}).i32(), 5050);
  EXPECT_EQ(invoke1(*inst, "sum", {Value::from_i32(0)}).i32(), 0);
}

TEST_P(EngineTest, BrTableDispatch) {
  ModuleBuilder b;
  const auto f = b.add_function({{ValType::I32}, {ValType::I32}});
  CodeEmitter e;
  e.block();  // 2 (default)
  e.block();  // 1
  e.block();  // 0
  e.local_get(0).br_table({0, 1}, 2);
  e.end();
  e.i32_const(100).op(kReturn);
  e.end();
  e.i32_const(200).op(kReturn);
  e.end();
  e.i32_const(300);
  b.set_body(f, e.bytes());
  b.export_function("dispatch", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "dispatch", {Value::from_i32(0)}).i32(), 100);
  EXPECT_EQ(invoke1(*inst, "dispatch", {Value::from_i32(1)}).i32(), 200);
  EXPECT_EQ(invoke1(*inst, "dispatch", {Value::from_i32(2)}).i32(), 300);
  EXPECT_EQ(invoke1(*inst, "dispatch", {Value::from_i32(77)}).i32(), 300);
}

TEST_P(EngineTest, MemoryLoadStore) {
  ModuleBuilder b;
  b.add_memory(1);
  const auto f = b.add_function({{ValType::I32, ValType::I32}, {ValType::I32}});
  CodeEmitter e;
  e.local_get(0).local_get(1).store(kI32Store, 0);
  e.local_get(0).load(kI32Load, 0);
  b.set_body(f, e.bytes());
  b.export_function("roundtrip", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "roundtrip", {Value::from_i32(128), Value::from_i32(-42)}).i32(),
            -42);
}

TEST_P(EngineTest, MemorySubWordAccess) {
  ModuleBuilder b;
  b.add_memory(1);
  const auto f = b.add_function({{}, {ValType::I32}});
  CodeEmitter e;
  e.i32_const(0).i32_const(0xfff0).store(kI32Store16, 0);
  e.i32_const(0).load(kI32Load16S, 0);  // sign-extends
  b.set_body(f, e.bytes());
  b.export_function("f", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "f", {}).i32(), -16);
}

TEST_P(EngineTest, MemoryOutOfBoundsTraps) {
  ModuleBuilder b;
  b.add_memory(1);  // 64 KiB
  const auto f = b.add_function({{ValType::I32}, {ValType::I32}});
  CodeEmitter e;
  e.local_get(0).load(kI32Load, 0);
  b.set_body(f, e.bytes());
  b.export_function("peek", f);
  auto inst = instantiate(b.build());
  auto ok = inst->invoke("peek", std::vector<Value>{Value::from_i32(65532)});
  EXPECT_TRUE(ok.ok());
  auto oob = inst->invoke("peek", std::vector<Value>{Value::from_i32(65533)});
  EXPECT_FALSE(oob.ok());
  EXPECT_NE(oob.error().find("out of bounds"), std::string::npos);
  // Negative address = huge unsigned address.
  auto neg = inst->invoke("peek", std::vector<Value>{Value::from_i32(-4)});
  EXPECT_FALSE(neg.ok());
}

TEST_P(EngineTest, MemoryGrowAndSize) {
  ModuleBuilder b;
  b.add_memory(1, 3);
  const auto f = b.add_function({{ValType::I32}, {ValType::I32}});
  CodeEmitter e;
  e.local_get(0).memory_grow().op(kDrop).memory_size();
  b.set_body(f, e.bytes());
  b.export_function("grow", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "grow", {Value::from_i32(1)}).i32(), 2);
  // Growing past max fails, size unchanged.
  EXPECT_EQ(invoke1(*inst, "grow", {Value::from_i32(5)}).i32(), 2);
}

TEST_P(EngineTest, DataSegmentsInitialiseMemory) {
  ModuleBuilder b;
  b.add_memory(1);
  b.add_data(16, to_bytes("hi"));
  const auto f = b.add_function({{}, {ValType::I32}});
  CodeEmitter e;
  e.i32_const(16).load(kI32Load8U, 0);
  b.set_body(f, e.bytes());
  b.export_function("f", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "f", {}).i32(), 'h');
}

TEST_P(EngineTest, GlobalsReadWrite) {
  ModuleBuilder b;
  const auto g = b.add_global(ValType::I32, true, 7);
  const auto f = b.add_function({{ValType::I32}, {ValType::I32}});
  CodeEmitter e;
  e.global_get(g).local_get(0).op(kI32Add).global_set(g).global_get(g);
  b.set_body(f, e.bytes());
  b.export_function("bump", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "bump", {Value::from_i32(3)}).i32(), 10);
  EXPECT_EQ(invoke1(*inst, "bump", {Value::from_i32(3)}).i32(), 13);
}

TEST_P(EngineTest, CallIndirectThroughTable) {
  ModuleBuilder b;
  b.add_table(2);
  const FuncType unary{{ValType::I32}, {ValType::I32}};
  const auto dbl = b.add_function(unary);
  {
    CodeEmitter e;
    e.local_get(0).i32_const(2).op(kI32Mul);
    b.set_body(dbl, e.bytes());
  }
  const auto sqr = b.add_function(unary);
  {
    CodeEmitter e;
    e.local_get(0).local_get(0).op(kI32Mul);
    b.set_body(sqr, e.bytes());
  }
  b.add_element(0, {dbl, sqr});
  const auto f = b.add_function({{ValType::I32, ValType::I32}, {ValType::I32}});
  {
    CodeEmitter e;
    e.local_get(1).local_get(0).call_indirect(b.add_type(unary));
    b.set_body(f, e.bytes());
  }
  b.export_function("apply", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "apply", {Value::from_i32(0), Value::from_i32(9)}).i32(), 18);
  EXPECT_EQ(invoke1(*inst, "apply", {Value::from_i32(1), Value::from_i32(9)}).i32(), 81);
  // Out-of-range table index traps.
  auto oob = inst->invoke("apply", std::vector<Value>{Value::from_i32(5), Value::from_i32(1)});
  EXPECT_FALSE(oob.ok());
}

TEST_P(EngineTest, HostFunctionImport) {
  ImportResolver imports;
  int call_count = 0;
  imports.add_function("env", "add3", {{ValType::I32}, {ValType::I32}},
                       [&call_count](Instance&, std::span<const Value> args)
                           -> Result<std::vector<Value>> {
                         ++call_count;
                         return std::vector<Value>{Value::from_i32(args[0].i32() + 3)};
                       });
  ModuleBuilder b;
  const auto imp = b.import_function("env", "add3", {{ValType::I32}, {ValType::I32}});
  const auto f = b.add_function({{ValType::I32}, {ValType::I32}});
  CodeEmitter e;
  e.local_get(0).call(imp).call(imp);
  b.set_body(f, e.bytes());
  b.export_function("f", f);
  auto inst = instantiate(b.build(), &imports);
  EXPECT_EQ(invoke1(*inst, "f", {Value::from_i32(1)}).i32(), 7);
  EXPECT_EQ(call_count, 2);
}

TEST_P(EngineTest, HostFunctionTrapPropagates) {
  ImportResolver imports;
  imports.add_function("env", "boom", {{}, {}},
                       [](Instance&, std::span<const Value>) -> Result<std::vector<Value>> {
                         return Result<std::vector<Value>>::err("host exploded");
                       });
  ModuleBuilder b;
  const auto imp = b.import_function("env", "boom", {{}, {}});
  const auto f = b.add_function({{}, {}});
  CodeEmitter e;
  e.call(imp);
  b.set_body(f, e.bytes());
  b.export_function("f", f);
  auto inst = instantiate(b.build(), &imports);
  auto r = inst->invoke("f", {});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("host exploded"), std::string::npos);
}

TEST_P(EngineTest, DivisionTraps) {
  ModuleBuilder b;
  const auto f = b.add_function({{ValType::I32, ValType::I32}, {ValType::I32}});
  CodeEmitter e;
  e.local_get(0).local_get(1).op(kI32DivS);
  b.set_body(f, e.bytes());
  b.export_function("div", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "div", {Value::from_i32(-7), Value::from_i32(2)}).i32(), -3);
  auto by_zero = inst->invoke("div", std::vector<Value>{Value::from_i32(1), Value::from_i32(0)});
  EXPECT_FALSE(by_zero.ok());
  auto overflow = inst->invoke(
      "div", std::vector<Value>{Value::from_i32(INT32_MIN), Value::from_i32(-1)});
  EXPECT_FALSE(overflow.ok());
}

TEST_P(EngineTest, UnreachableTraps) {
  ModuleBuilder b;
  const auto f = b.add_function({{}, {}});
  CodeEmitter e;
  e.op(kUnreachable);
  b.set_body(f, e.bytes());
  b.export_function("f", f);
  auto inst = instantiate(b.build());
  auto r = inst->invoke("f", {});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("unreachable"), std::string::npos);
}

TEST_P(EngineTest, InfiniteRecursionTrapsNotCrashes) {
  ModuleBuilder b;
  const auto f = b.add_function({{}, {}});
  CodeEmitter e;
  e.call(f);
  b.set_body(f, e.bytes());
  b.export_function("f", f);
  auto inst = instantiate(b.build());
  auto r = inst->invoke("f", {});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("call stack exhausted"), std::string::npos);
}

TEST_P(EngineTest, FloatArithmetic) {
  ModuleBuilder b;
  const auto f = b.add_function({{ValType::F64, ValType::F64}, {ValType::F64}});
  CodeEmitter e;
  e.local_get(0).local_get(1).op(kF64Mul).op(kF64Sqrt);
  b.set_body(f, e.bytes());
  b.export_function("gm", f);
  auto inst = instantiate(b.build());
  EXPECT_DOUBLE_EQ(invoke1(*inst, "gm", {Value::from_f64(4.0), Value::from_f64(9.0)}).f64(),
                   6.0);
}

TEST_P(EngineTest, FloatIntConversions) {
  ModuleBuilder b;
  const auto f = b.add_function({{ValType::F64}, {ValType::I32}});
  CodeEmitter e;
  e.local_get(0).op(kI32TruncF64S);
  b.set_body(f, e.bytes());
  b.export_function("trunc", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "trunc", {Value::from_f64(-3.9)}).i32(), -3);
  auto nan = inst->invoke("trunc", std::vector<Value>{Value::from_f64(NAN)});
  EXPECT_FALSE(nan.ok());
  auto big = inst->invoke("trunc", std::vector<Value>{Value::from_f64(3e9)});
  EXPECT_FALSE(big.ok());
}

TEST_P(EngineTest, SelectAndDrop) {
  ModuleBuilder b;
  const auto f = b.add_function({{ValType::I32}, {ValType::I32}});
  CodeEmitter e;
  e.i32_const(111).op(kDrop);
  e.i32_const(10).i32_const(20).local_get(0).op(kSelect);
  b.set_body(f, e.bytes());
  b.export_function("pick", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "pick", {Value::from_i32(1)}).i32(), 10);
  EXPECT_EQ(invoke1(*inst, "pick", {Value::from_i32(0)}).i32(), 20);
}

TEST_P(EngineTest, BlockWithResultAndNestedBr) {
  ModuleBuilder b;
  const auto f = b.add_function({{ValType::I32}, {ValType::I32}});
  CodeEmitter e;
  // block (result i32): if arg != 0 br with 5 on stack else fall out with 9.
  e.block(0x7f);
  e.i32_const(5).local_get(0).br_if(0).op(kDrop);
  e.i32_const(9);
  e.end();
  b.set_body(f, e.bytes());
  b.export_function("f", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "f", {Value::from_i32(1)}).i32(), 5);
  EXPECT_EQ(invoke1(*inst, "f", {Value::from_i32(0)}).i32(), 9);
}

TEST_P(EngineTest, MemoryCopyAndFill) {
  ModuleBuilder b;
  b.add_memory(1);
  const auto f = b.add_function({{}, {ValType::I32}});
  CodeEmitter e;
  e.i32_const(0).i32_const(0xab).i32_const(8).memory_fill();
  e.i32_const(100).i32_const(0).i32_const(8).memory_copy();
  e.i32_const(104).load(kI32Load, 0);
  b.set_body(f, e.bytes());
  b.export_function("f", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "f", {}).u32(), 0xababababu);
}

TEST_P(EngineTest, StartFunctionRuns) {
  ModuleBuilder b;
  const auto g = b.add_global(ValType::I32, true, 0);
  const auto init = b.add_function({{}, {}});
  CodeEmitter e;
  e.i32_const(99).global_set(g);
  b.set_body(init, e.bytes());
  b.set_start(init);
  const auto get = b.add_function({{}, {ValType::I32}});
  CodeEmitter e2;
  e2.global_get(g);
  b.set_body(get, e2.bytes());
  b.export_function("get", get);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "get", {}).i32(), 99);
}

TEST_P(EngineTest, I64Arithmetic) {
  ModuleBuilder b;
  const auto f = b.add_function({{ValType::I64, ValType::I64}, {ValType::I64}});
  CodeEmitter e;
  e.local_get(0).local_get(1).op(kI64Mul);
  b.set_body(f, e.bytes());
  b.export_function("mul", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "mul",
                    {Value::from_i64(0x100000000LL), Value::from_i64(3)})
                .i64(),
            0x300000000LL);
}

TEST_P(EngineTest, ShiftAndRotate) {
  ModuleBuilder b;
  const auto f = b.add_function({{ValType::I32, ValType::I32}, {ValType::I32}});
  CodeEmitter e;
  e.local_get(0).local_get(1).op(kI32Rotl);
  b.set_body(f, e.bytes());
  b.export_function("rotl", f);
  auto inst = instantiate(b.build());
  EXPECT_EQ(invoke1(*inst, "rotl", {Value::from_i32(0x80000001), Value::from_i32(1)}).u32(),
            3u);
  // Shift counts are masked mod 32.
  EXPECT_EQ(invoke1(*inst, "rotl", {Value::from_i32(0x1234), Value::from_i32(32)}).u32(),
            0x1234u);
}

TEST_P(EngineTest, ArgumentValidation) {
  ModuleBuilder b;
  const auto f = b.add_function({{ValType::I32}, {ValType::I32}});
  CodeEmitter e;
  e.local_get(0);
  b.set_body(f, e.bytes());
  b.export_function("id", f);
  auto inst = instantiate(b.build());
  EXPECT_FALSE(inst->invoke("id", {}).ok());                       // too few args
  EXPECT_FALSE(inst->invoke("missing", std::vector<Value>{}).ok());  // no such export
  auto wrong_type = inst->invoke("id", std::vector<Value>{Value::from_i64(1)});
  EXPECT_FALSE(wrong_type.ok());
}

TEST_P(EngineTest, ReinitializeResetsMemoryInPlace) {
  ModuleBuilder b;
  b.add_memory(1, 2);
  b.add_data(8, to_bytes("seg"));
  const auto poke = b.add_function({{ValType::I32, ValType::I32}, {}});
  {
    CodeEmitter e;
    e.local_get(0).local_get(1).store(kI32Store8, 0);
    b.set_body(poke, e.bytes());
  }
  b.export_function("poke", poke);
  const auto grow = b.add_function({{}, {ValType::I32}});
  {
    CodeEmitter e;
    e.i32_const(1).memory_grow();
    b.set_body(grow, e.bytes());
  }
  b.export_function("grow", grow);
  auto inst = instantiate(b.build());
  Memory* const mem = inst->memory();
  ASSERT_NE(mem, nullptr);
  ASSERT_TRUE(inst->invoke("poke", std::vector<Value>{Value::from_i32(8), Value::from_i32(0x7f)}).ok());
  ASSERT_TRUE(inst->invoke("poke", std::vector<Value>{Value::from_i32(kPageSize - 1), Value::from_i32(1)}).ok());
  EXPECT_EQ(invoke1(*inst, "grow", {}).i32(), 1);
  ASSERT_TRUE(inst->invoke("poke", std::vector<Value>{Value::from_i32(2 * kPageSize - 1), Value::from_i32(2)}).ok());

  ASSERT_TRUE(inst->reinitialize().ok());
  EXPECT_EQ(inst->memory(), mem) << "reset must reuse the memory, not rebuild it";
  ASSERT_EQ(mem->pages(), 1u);
  Bytes expected(kPageSize, 0);
  std::memcpy(expected.data() + 8, "seg", 3);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), mem->data()));
  EXPECT_EQ(invoke1(*inst, "grow", {}).i32(), 1);  // the regrown page is zero too
  EXPECT_TRUE(std::all_of(mem->data() + kPageSize, mem->data() + 2 * kPageSize,
                          [](std::uint8_t v) { return v == 0; }));
}

INSTANTIATE_TEST_SUITE_P(Modes, EngineTest,
                         ::testing::Values(ExecMode::Interp, ExecMode::Aot),
                         [](const ::testing::TestParamInfo<ExecMode>& info) {
                           return info.param == ExecMode::Aot ? "Aot" : "Interp";
                         });

// PageBuffer: the zero-on-demand store behind linear memory.

TEST(PageBufferTest, ResizeFailureKeepsSizeAndContents) {
  PageBuffer buf;
  ASSERT_TRUE(buf.resize(kPageSize));
  buf.data()[0] = 0x5a;
  buf.data()[kPageSize - 1] = 0xa5;
  EXPECT_FALSE(buf.resize(std::size_t{1} << 62));
  ASSERT_EQ(buf.size(), kPageSize);
  EXPECT_EQ(buf.data()[0], 0x5a);
  EXPECT_EQ(buf.data()[kPageSize - 1], 0xa5);
}

TEST(PageBufferTest, ZeroAndRegrowReadZeroOnBothSidesOfTheMemsetLimit) {
  for (const std::size_t size : {std::size_t{kPageSize}, 4 * PageBuffer::kMemsetZeroLimit}) {
    SCOPED_TRACE(size);
    PageBuffer buf;
    ASSERT_TRUE(buf.resize(size));
    std::memset(buf.data(), 0xee, size);
    buf.zero();
    ASSERT_EQ(buf.size(), size);
    EXPECT_TRUE(std::all_of(buf.data(), buf.data() + size, [](std::uint8_t v) { return v == 0; }));

    // Shrink to a size inside a page, then grow: the kept head survives,
    // everything past it reads zero.
    std::memset(buf.data(), 0xee, size);
    const std::size_t head = size / 2 + 3;
    ASSERT_TRUE(buf.resize(head));
    ASSERT_TRUE(buf.resize(2 * size));
    EXPECT_TRUE(std::all_of(buf.data(), buf.data() + head, [](std::uint8_t v) { return v == 0xee; }));
    EXPECT_TRUE(std::all_of(buf.data() + head, buf.data() + 2 * size,
                            [](std::uint8_t v) { return v == 0; }));
  }
}

TEST(PageBufferDeathTest, WritePastEndFaults) {
#if !WATZ_PAGE_BUFFER_MMAP
  GTEST_SKIP() << "the guard page needs mmap";
#endif
  PageBuffer buf;
  ASSERT_TRUE(buf.resize(kPageSize));
  const auto overrun = [](PageBuffer& b) {
    static_cast<volatile std::uint8_t*>(b.data())[b.size()] = 1;
  };
  EXPECT_DEATH(overrun(buf), "");
  ASSERT_TRUE(buf.resize(3 * kPageSize));  // the guard follows the new end
  EXPECT_DEATH(overrun(buf), "");
  ASSERT_TRUE(buf.resize(2 * kPageSize));
  EXPECT_DEATH(overrun(buf), "");
}

}  // namespace
}  // namespace watz::wasm
