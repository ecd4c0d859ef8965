#include "guests.hpp"

#include <cmath>
#include <stdexcept>

#include "common/leb128.hpp"
#include "wasm/builder.hpp"
#include "wcc/compiler.hpp"

namespace watzbench {

using namespace watz;

Bytes tiny_guest() { return tiny_guest(0); }

Bytes tiny_guest(std::int32_t id) {
  wasm::ModuleBuilder b;
  const auto clock = b.import_function(
      "wasi_snapshot_preview1", "clock_time_get",
      {{wasm::ValType::I32, wasm::ValType::I64, wasm::ValType::I32}, {wasm::ValType::I32}});
  b.add_memory(1);
  const auto add = b.add_function({{wasm::ValType::I32, wasm::ValType::I32}, {wasm::ValType::I32}});
  wasm::CodeEmitter e;
  e.local_get(0).local_get(1).op(wasm::kI32Add);
  b.set_body(add, e.bytes());
  b.export_function("add", add);
  const auto get_time = b.add_function({{}, {wasm::ValType::I32}});
  wasm::CodeEmitter c;
  c.i32_const(1).i64_const(1).i32_const(16).call(clock);  // monotonic clock -> mem[16]
  b.set_body(get_time, c.bytes());
  b.export_function("clock", get_time);
  if (id != 0) {
    const auto get_id = b.add_function({{}, {wasm::ValType::I32}});
    wasm::CodeEmitter i;
    i.i32_const(id);
    b.set_body(get_id, i.bytes());
    b.export_function("id", get_id);
  }
  return b.build();
}

namespace {

// Called through volatile pointers so the compiler cannot fold the loops.
__attribute__((noinline)) std::int32_t native_add(std::int32_t a, std::int32_t b) { return a + b; }
__attribute__((noinline)) std::uint64_t native_clock() { return hw::monotonic_ns(); }

/// Best of `rounds` timed loops: on a shared host the least-disturbed
/// native run is the steady reference.
template <typename Fn>
double best_loop_ns(int rounds, int iters, Fn fn) {
  double best = 1e300;
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < iters; ++i) fn(i);
    best = std::min(best, static_cast<double>(now_ns() - t0) / iters);
  }
  return best;
}

}  // namespace

double native_add_ns() {
  std::int32_t (*volatile fn)(std::int32_t, std::int32_t) = native_add;
  volatile std::int32_t sink = 0;
  return best_loop_ns(101, 1 << 14, [&](int i) { sink = fn(i, 7); });
}

double native_clock_ns() {
  std::uint64_t (*volatile fn)() = native_clock;
  volatile std::uint64_t sink = 0;
  return best_loop_ns(101, 1 << 12, [&](int) { sink = fn(); });
}

Bytes kernel_binary(const polybench::KernelDef& kernel, std::uint32_t pages) {
  wcc::CompileOptions options;
  options.memory_pages = pages;
  auto binary = wcc::compile(kernel.source, options);
  if (!binary.ok()) throw std::runtime_error(std::string("wcc ") + kernel.name + ": " + binary.error());
  return std::move(*binary);
}

namespace {

/// Sections of a binary module, in order (id, payload).
std::vector<std::pair<std::uint8_t, Bytes>> split_sections(const Bytes& module) {
  std::vector<std::pair<std::uint8_t, Bytes>> out;
  ByteReader r(ByteView(module).subspan(8));
  while (!r.at_end()) {
    const std::uint8_t id = r.read_u8().value();
    const std::uint32_t size = r.read_uleb32().value();
    const ByteView payload = r.read_bytes(size).value();
    out.emplace_back(id, Bytes(payload.begin(), payload.end()));
  }
  return out;
}

/// Appends `extra` vector entries to a section payload that is itself a
/// uleb-counted vector.
Bytes extend_vector(const Bytes& payload, std::uint64_t extra_count, const Bytes& extra) {
  ByteReader r(payload);
  const std::uint32_t count = r.read_uleb32().value();
  Bytes out;
  write_uleb(out, count + extra_count);
  const ByteView rest = r.read_bytes(r.remaining()).value();
  out.insert(out.end(), rest.begin(), rest.end());
  append(out, extra);
  return out;
}

}  // namespace

Bytes tenant_module(const polybench::KernelDef& kernel, Rng& rng, std::size_t target_bytes) {
  // Perturb the body: seeded dead statements right after run()'s opening
  // brace. The checksum is untouched, the code (and measurement) is not.
  std::string source = kernel.source;
  const std::string head = "double run(int n) {";
  const std::size_t at = source.find(head);
  if (at == std::string::npos) throw std::runtime_error(std::string("no run() in ") + kernel.name);
  const std::uint64_t salt = rng.next();
  source.insert(at + head.size(), "\n  long salt = " + std::to_string(salt >> 33) +
                                      ";\n  salt = salt * " + std::to_string((salt & 0xffff) | 1) +
                                      " + " + std::to_string((salt >> 16) & 0xffff) + ";\n");
  wcc::CompileOptions options;
  options.memory_pages = 512;
  auto compiled = wcc::compile(source, options);
  if (!compiled.ok()) throw std::runtime_error(std::string("wcc ") + kernel.name + ": " + compiled.error());
  const Bytes& base = *compiled;

  // Fig 4-style padding: functions of (i64) -> i64 that add a run of
  // seeded 64-bit constants to their argument.
  constexpr int kAddsPerFunc = 6000;
  std::uint64_t pad_funcs = 0;
  Bytes bodies;
  for (std::size_t size = base.size(); size < target_bytes; ++pad_funcs) {
    Bytes code;
    code.push_back(0x00);                // no locals beyond the parameter
    code.push_back(0x20);                // local.get 0
    code.push_back(0x00);
    for (int i = 0; i < kAddsPerFunc; ++i) {
      code.push_back(0x42);              // i64.const
      write_sleb(code, static_cast<std::int64_t>(rng.next()));
      code.push_back(0x7C);              // i64.add
    }
    code.push_back(0x0B);                // end
    write_uleb(bodies, code.size());
    append(bodies, code);
    size += code.size() + 4;
  }

  Bytes out(base.begin(), base.begin() + 8);
  std::uint32_t pad_type = 0;
  for (auto& [id, payload] : split_sections(base)) {
    if (id == 1) {  // type: add (i64) -> i64
      ByteReader r(payload);
      pad_type = r.read_uleb32().value();
      payload = extend_vector(payload, 1, Bytes{0x60, 0x01, 0x7E, 0x01, 0x7E});
    } else if (id == 3) {  // function: the padding's type indices
      Bytes types;
      for (std::uint64_t i = 0; i < pad_funcs; ++i) write_uleb(types, pad_type);
      payload = extend_vector(payload, pad_funcs, types);
    } else if (id == 10) {  // code: the padding bodies
      payload = extend_vector(payload, pad_funcs, bodies);
    }
    out.push_back(id);
    write_uleb(out, payload.size());
    append(out, payload);
  }
  return out;
}

double native_checksum(const polybench::KernelDef& kernel, int n) {
  polybench::arena_reset();
  return kernel.native(n);
}

double native_kernel_ms(const polybench::KernelDef& kernel) {
  polybench::arena_reset();
  const std::uint64_t t0 = now_ns();
  volatile double r = kernel.native(kernel.n);
  (void)r;
  return to_ms(now_ns() - t0);
}

bool checksum_matches(double wasm, double native) {
  return std::fabs(wasm - native) <= 1e-9 * std::max(1.0, std::fabs(native));
}

}  // namespace watzbench
