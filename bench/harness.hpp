// Shared helpers for the evaluation harness (one binary per paper
// table/figure; see DESIGN.md SS3 for the experiment index).
#pragma once

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "hw/clock.hpp"
#include "wasm/decoder.hpp"
#include "wasm/instance.hpp"
#include "wasm/jit/tier.hpp"

namespace watz::bench {

/// Wall time of one invocation, in nanoseconds.
inline std::uint64_t time_ns(const std::function<void()>& fn) {
  const std::uint64_t t0 = hw::monotonic_ns();
  fn();
  return hw::monotonic_ns() - t0;
}

/// Median of `reps` timed runs.
inline std::uint64_t median_ns(int reps, const std::function<void()>& fn) {
  std::vector<std::uint64_t> samples;
  samples.reserve(reps);
  for (int i = 0; i < reps; ++i) samples.push_back(time_ns(fn));
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

inline double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Machine-readable results for the BENCH_*.json perf trajectory.
///
/// Construct one per bench binary; record metrics alongside the human
/// tables. When the binary was run with `--json`, flush() (or the
/// destructor) emits a single JSON object on stdout:
///
///   {"bench":"<name>","metrics":{"<key>":{"value":<v>,"unit":"<u>"},...}}
///
/// Callers that want table-free output can gate their printf on json().
class BenchReport {
 public:
  BenchReport(std::string name, int argc, char** argv) : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i)
      if (std::string(argv[i]) == "--json") json_ = true;
  }
  ~BenchReport() { flush(); }

  bool json() const noexcept { return json_; }

  void metric(const std::string& key, double value, const std::string& unit = "") {
    metrics_.emplace_back(Metric{key, value, unit});
  }

  void flush() {
    if (!json_ || flushed_) return;
    flushed_ = true;
    std::printf("{\"bench\":\"%s\",\"metrics\":{", name_.c_str());
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\":{\"value\":%.6g,\"unit\":\"%s\"}", i ? "," : "",
                  m.key.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string key;
    double value;
    std::string unit;
  };
  std::string name_;
  bool json_ = false;
  bool flushed_ = false;
  std::vector<Metric> metrics_;
};

/// A booted attester board with the paper's latency calibration.
/// `device_side_latency` makes the charges sleep instead of busy-wait:
/// the board is remote, so its world-switch time must not occupy a CPU of
/// the host driving the fleet (fleet-scaling benches set it; single-board
/// latency benches keep the on-SoC busy-wait).
inline std::unique_ptr<core::Device> boot_device(net::Fabric& fabric,
                                                 const core::Vendor& vendor,
                                                 const std::string& hostname,
                                                 std::uint8_t id,
                                                 bool charge_latency = true,
                                                 bool device_side_latency = false) {
  core::DeviceConfig config;
  config.hostname = hostname;
  config.otpmk.fill(id);
  config.latency.enabled = charge_latency;
  config.latency.device_side = device_side_latency;
  auto device = core::Device::boot(fabric, vendor, config);
  device.ok() ? void() : throw Error("bench: " + device.error());
  return std::move(*device);
}

/// Instantiates a Wasm module outside any TEE (the "WAMR in REE" setting).
/// Like core::WatzRuntime::prepare — and WAMR's AOT mode — an Aot instance
/// gets every function compiled to native code up front where the host can
/// run it, so the REE and TEE columns run on the same tier. `native =
/// false` pins the AOT stream (the yardstick of the native-speedup gates).
inline std::unique_ptr<wasm::Instance> instantiate_ree(
    ByteView binary, const wasm::ImportResolver& imports,
    wasm::ExecMode mode = wasm::ExecMode::Aot, bool native = true) {
  auto module = wasm::decode_module(binary);
  module.ok() ? void() : throw Error("bench: " + module.error());
  auto inst = wasm::Instance::instantiate(std::move(*module), imports, mode);
  inst.ok() ? void() : throw Error("bench: " + inst.error());
  if (native && mode == wasm::ExecMode::Aot && wasm::jit::jit_available()) {
    auto tier = std::make_shared<wasm::jit::TierSet>(
        &(*inst)->module(), (*inst)->compiled, wasm::jit::TierConfig{});
    tier->compile_all();
    (*inst)->tier = std::move(tier);
  }
  return std::move(*inst);
}

inline std::int32_t invoke_i32(wasm::Instance& inst, const std::string& fn,
                               std::vector<wasm::Value> args) {
  auto r = inst.invoke(fn, args);
  r.ok() ? void() : throw Error("bench: " + fn + ": " + r.error());
  return r->empty() ? 0 : r->front().i32();
}

inline double invoke_f64(wasm::Instance& inst, const std::string& fn,
                         std::vector<wasm::Value> args) {
  auto r = inst.invoke(fn, args);
  r.ok() ? void() : throw Error("bench: " + fn + ": " + r.error());
  return r->front().f64();
}

}  // namespace watz::bench
