// Fig 5 — PolyBench/C, normalised against native execution in the normal
// world. Paper: Wasm ~1.34x native on average in BOTH worlds; the WAMR-vs-
// WaTZ difference is <0.02% (TrustZone adds no computation penalty).
//
// Both Wasm columns run the baseline x86-64 native tier, compiled while the
// module loads as in WAMR's AOT mode (the AOT-stream interpreter where the
// host cannot run it). The baseline codegen keeps locals in frame slots, so
// the absolute Wasm/native factor is larger than the paper's; the invariant
// under test is WaTZ ~= WAMR and TEE-native ~= REE-native.
#include "bench/harness.hpp"
#include "polybench/suite.hpp"
#include "wcc/compiler.hpp"

int main() {
  using namespace watz;

  net::Fabric fabric;
  const core::Vendor vendor = core::Vendor::create(to_bytes("fig5-vendor"));
  auto device = bench::boot_device(fabric, vendor, "board", 0x51);

  std::printf("=== Fig 5: PolyBench/C, normalised run time (native REE = 1) ===\n");
  std::printf("%6s | %10s %10s %10s | %12s\n", "kernel", "nativeTEE", "WasmREE",
              "WasmTEE", "WaTZ/WAMR");

  static const wasm::ImportResolver kNoImports;
  double sum_wasm_ree = 0;
  double sum_wasm_tee = 0;
  double sum_ratio = 0;
  int count = 0;

  for (const polybench::KernelDef& kernel : polybench::suite()) {
    const int n = kernel.n;
    const int reps = 3;

    // Native, normal world.
    const std::uint64_t native_ree = bench::median_ns(reps, [&] {
      polybench::arena_reset();
      volatile double r = kernel.native(n);
      (void)r;
    });

    // Native, secure world. The TA is invoked once and runs the kernel a
    // few times inside (amortising the SMC crossing, as a real TA batch
    // would); reported per run.
    const int kInner = 8;
    const std::uint64_t native_tee = bench::median_ns(reps, [&] {
      device->monitor().smc_call([&] {
        for (int i = 0; i < kInner; ++i) {
          polybench::arena_reset();
          volatile double r = kernel.native(n);
          (void)r;
        }
        return 0;
      });
    }) / kInner;

    // Wasm, normal world (WAMR baseline).
    wcc::CompileOptions options;
    options.memory_pages = 512;
    auto binary = wcc::compile(kernel.source, options);
    binary.ok() ? void() : throw Error(binary.error());
    auto ree_inst = bench::instantiate_ree(*binary, kNoImports);
    const std::vector<wasm::Value> arg = {wasm::Value::from_i32(n)};
    const std::uint64_t wasm_ree =
        bench::median_ns(reps, [&] { (void)ree_inst->invoke("run", arg); });

    // Wasm, secure world (WaTZ).
    core::AppConfig config;
    config.heap_bytes = 12 << 20;  // paper: 12 MB heap for PolyBench
    auto app = device->runtime().launch(*binary, config);
    app.ok() ? void() : throw Error(app.error());
    const std::uint64_t wasm_tee =
        bench::median_ns(reps, [&] { (void)(*app)->invoke("run", arg); });

    const double base = static_cast<double>(native_ree);
    const double ratio_tee_vs_ree =
        static_cast<double>(wasm_tee) / static_cast<double>(wasm_ree);
    std::printf("%6s | %9.2fx %9.2fx %9.2fx | %11.4f\n", kernel.name,
                native_tee / base, wasm_ree / base, wasm_tee / base, ratio_tee_vs_ree);
    sum_wasm_ree += wasm_ree / base;
    sum_wasm_tee += wasm_tee / base;
    sum_ratio += ratio_tee_vs_ree;
    ++count;
  }

  std::printf("\naverages over %d kernels:\n", count);
  std::printf("  Wasm REE (WAMR) : %.2fx native   (paper: 1.34x)\n", sum_wasm_ree / count);
  std::printf("  Wasm TEE (WaTZ) : %.2fx native   (paper: 1.34x)\n", sum_wasm_tee / count);
  std::printf("  WaTZ vs WAMR    : %.4fx          (paper: <0.02%% apart)\n",
              sum_ratio / count);
  return 0;
}
