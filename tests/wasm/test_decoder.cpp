#include "wasm/decoder.hpp"

#include <gtest/gtest.h>

#include "wasm/builder.hpp"
#include "wasm/validator.hpp"

namespace watz::wasm {
namespace {

Bytes minimal_module() {
  ModuleBuilder b;
  const auto f = b.add_function({{}, {ValType::I32}});
  CodeEmitter e;
  e.i32_const(42);
  b.set_body(f, e.bytes());
  b.export_function("answer", f);
  return b.build();
}

TEST(Decoder, AcceptsMinimalModule) {
  auto mod = decode_module(minimal_module());
  ASSERT_TRUE(mod.ok()) << mod.error();
  EXPECT_EQ(mod->functions.size(), 1u);
  EXPECT_EQ(mod->exports.size(), 1u);
  EXPECT_EQ(mod->exports[0].name, "answer");
  EXPECT_TRUE(validate_module(*mod).ok());
}

TEST(Decoder, RejectsBadMagic) {
  Bytes bad = minimal_module();
  bad[0] = 'X';
  EXPECT_FALSE(decode_module(bad).ok());
}

TEST(Decoder, RejectsBadVersion) {
  Bytes bad = minimal_module();
  bad[4] = 9;
  EXPECT_FALSE(decode_module(bad).ok());
}

TEST(Decoder, RejectsTruncatedModule) {
  const Bytes good = minimal_module();
  // Note: 8 bytes (magic + version, no sections) is a *valid* empty module,
  // so cuts start below and above that boundary.
  for (std::size_t cut : {std::size_t{1}, std::size_t{4}, std::size_t{9}, good.size() - 1}) {
    const Bytes truncated(good.begin(), good.begin() + cut);
    EXPECT_FALSE(decode_module(truncated).ok()) << "cut=" << cut;
  }
}

TEST(Decoder, RejectsEmptyInput) { EXPECT_FALSE(decode_module({}).ok()); }

TEST(Decoder, DecodesImportsAndMemory) {
  ModuleBuilder b;
  b.import_function("wasi_snapshot_preview1", "proc_exit", {{ValType::I32}, {}});
  b.add_memory(2, 10);
  const auto f = b.add_function({{}, {}});
  b.set_body(f, {});
  b.export_function("_start", f);
  b.add_export("memory", ImportKind::Memory, 0);
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok()) << mod.error();
  ASSERT_EQ(mod->imports.size(), 1u);
  EXPECT_EQ(mod->imports[0].module, "wasi_snapshot_preview1");
  EXPECT_EQ(mod->num_imported_funcs(), 1u);
  ASSERT_EQ(mod->memories.size(), 1u);
  EXPECT_EQ(mod->memories[0].min, 2u);
  EXPECT_EQ(mod->memories[0].max, 10u);
  EXPECT_TRUE(validate_module(*mod).ok());
}

TEST(Decoder, DecodesGlobalsTablesElementsData) {
  ModuleBuilder b;
  b.add_table(4);
  b.add_memory(1);
  b.add_global(ValType::I64, true, -5);
  const auto f = b.add_function({{}, {}});
  b.set_body(f, {});
  b.add_element(1, {f});
  b.add_data(32, to_bytes("payload"));
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok()) << mod.error();
  EXPECT_EQ(mod->tables.size(), 1u);
  EXPECT_EQ(mod->globals.size(), 1u);
  EXPECT_TRUE(mod->globals[0].mutable_);
  ASSERT_EQ(mod->elements.size(), 1u);
  EXPECT_EQ(mod->elements[0].func_indices.size(), 1u);
  ASSERT_EQ(mod->data.size(), 1u);
  EXPECT_EQ(mod->data[0].data, to_bytes("payload"));
}

TEST(Decoder, CustomSectionsPreserved) {
  ModuleBuilder b;
  const auto f = b.add_function({{}, {}});
  b.set_body(f, {});
  b.add_custom("watz.meta", to_bytes("v1"));
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok()) << mod.error();
  ASSERT_EQ(mod->custom.size(), 1u);
  EXPECT_EQ(mod->custom[0].name, "watz.meta");
  EXPECT_EQ(mod->custom[0].payload, to_bytes("v1"));
}

TEST(Decoder, RejectsDuplicateExports) {
  ModuleBuilder b;
  const auto f = b.add_function({{}, {}});
  b.set_body(f, {});
  b.export_function("f", f);
  b.export_function("f", f);
  EXPECT_FALSE(decode_module(b.build()).ok());
}

TEST(Validator, RejectsTypeErrors) {
  // i32.add on an i64 operand.
  ModuleBuilder b;
  const auto f = b.add_function({{}, {ValType::I32}});
  CodeEmitter e;
  e.i64_const(1).i32_const(2).op(kI32Add);
  b.set_body(f, e.bytes());
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok());
  EXPECT_FALSE(validate_module(*mod).ok());
}

TEST(Validator, RejectsStackUnderflow) {
  ModuleBuilder b;
  const auto f = b.add_function({{}, {ValType::I32}});
  CodeEmitter e;
  e.op(kI32Add);  // nothing on the stack
  b.set_body(f, e.bytes());
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok());
  EXPECT_FALSE(validate_module(*mod).ok());
}

TEST(Validator, RejectsWrongResultType) {
  ModuleBuilder b;
  const auto f = b.add_function({{}, {ValType::I32}});
  CodeEmitter e;
  e.f64_const(1.0);
  b.set_body(f, e.bytes());
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok());
  EXPECT_FALSE(validate_module(*mod).ok());
}

TEST(Validator, RejectsBadLocalIndex) {
  ModuleBuilder b;
  const auto f = b.add_function({{ValType::I32}, {ValType::I32}});
  CodeEmitter e;
  e.local_get(5);
  b.set_body(f, e.bytes());
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok());
  EXPECT_FALSE(validate_module(*mod).ok());
}

TEST(Validator, RejectsBadBranchDepth) {
  ModuleBuilder b;
  const auto f = b.add_function({{}, {}});
  CodeEmitter e;
  e.br(3);
  b.set_body(f, e.bytes());
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok());
  EXPECT_FALSE(validate_module(*mod).ok());
}

TEST(Validator, RejectsMemoryOpsWithoutMemory) {
  ModuleBuilder b;
  const auto f = b.add_function({{}, {ValType::I32}});
  CodeEmitter e;
  e.i32_const(0).load(kI32Load, 0);
  b.set_body(f, e.bytes());
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok());
  EXPECT_FALSE(validate_module(*mod).ok());
}

TEST(Validator, MemoryAlignmentIsBoundedByNaturalAlignment) {
  // The align immediate is log2 of the alignment. Up to the natural
  // alignment is valid; anything above is invalid, including immediates of
  // 32 and more, which must be rejected without a shift by them.
  auto validate = [](Op op, std::uint32_t align) {
    ModuleBuilder b;
    b.add_memory(1);
    const auto f = b.add_function({{}, {ValType::I64}});
    CodeEmitter e;
    e.i32_const(0).load(op, 0, align);
    if (op == kI32Load) e.op(kI64ExtendI32U);
    b.set_body(f, e.bytes());
    auto mod = decode_module(b.build());
    EXPECT_TRUE(mod.ok()) << mod.error();
    return mod.ok() && validate_module(*mod).ok();
  };
  EXPECT_TRUE(validate(kI32Load, 2));
  EXPECT_FALSE(validate(kI32Load, 3));
  EXPECT_TRUE(validate(kI64Load, 3));
  EXPECT_FALSE(validate(kI64Load, 4));
  for (const std::uint32_t align : {31u, 32u, 33u, 64u, 0xffffffffu}) {
    EXPECT_FALSE(validate(kI32Load, align)) << "align " << align;
    EXPECT_FALSE(validate(kI64Load, align)) << "align " << align;
  }
}

TEST(Validator, RejectsImmutableGlobalWrite) {
  ModuleBuilder b;
  const auto g = b.add_global(ValType::I32, false, 1);
  const auto f = b.add_function({{}, {}});
  CodeEmitter e;
  e.i32_const(2).global_set(g);
  b.set_body(f, e.bytes());
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok());
  EXPECT_FALSE(validate_module(*mod).ok());
}

TEST(Validator, AcceptsUnreachableFollowedByAnything) {
  // Dead code is stack-polymorphic.
  ModuleBuilder b;
  const auto f = b.add_function({{}, {ValType::I32}});
  CodeEmitter e;
  e.op(kUnreachable).op(kI32Add).op(kDrop).i32_const(1);
  b.set_body(f, e.bytes());
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok());
  EXPECT_TRUE(validate_module(*mod).ok()) << validate_module(*mod).error();
}

TEST(Validator, RejectsValuesLeftOnStack) {
  ModuleBuilder b;
  const auto f = b.add_function({{}, {}});
  CodeEmitter e;
  e.i32_const(1);
  b.set_body(f, e.bytes());
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok());
  EXPECT_FALSE(validate_module(*mod).ok());
}

TEST(Validator, RejectsIfResultWithoutElse) {
  ModuleBuilder b;
  const auto f = b.add_function({{ValType::I32}, {ValType::I32}});
  CodeEmitter e;
  e.local_get(0).if_(0x7f).i32_const(1).end();
  b.set_body(f, e.bytes());
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok());
  EXPECT_FALSE(validate_module(*mod).ok());
}

TEST(Validator, RejectsSelectTypeMismatch) {
  ModuleBuilder b;
  const auto f = b.add_function({{}, {ValType::I32}});
  CodeEmitter e;
  e.i32_const(1).i64_const(2).i32_const(0).op(kSelect).op(kDrop).i32_const(3);
  b.set_body(f, e.bytes());
  auto mod = decode_module(b.build());
  ASSERT_TRUE(mod.ok());
  EXPECT_FALSE(validate_module(*mod).ok());
}

}  // namespace
}  // namespace watz::wasm
