// Per-module native tier: the module's functions compiled into one W^X
// image, and the per-function entry table into it.
//
// One TierSet exists per prepared module (owned by PreparedModule, shared
// into every Instance via `Instance::tier`), so codegen is paid once per
// measurement and every instance of it runs native code from its first
// call.
//
// Lifecycle: the owner builds the set and calls compile_all() once,
// before the set is shared (core::WatzRuntime::prepare does it inside the
// Loading phase). compile_all() emits every function into one image — one
// mmap, one mprotect, one secure-heap charge — and fills the entry table.
// From then on the table is immutable, so entry_for() is a plain load on
// the hot path. A function codegen refuses, or a whole module whose image
// cannot be mapped or charged, keeps a null entry and runs on the AOT
// stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "wasm/jit/jit.hpp"

namespace watz::wasm::jit {

struct TierConfig {
  bool enabled = true;
  /// Secure-heap accounting for the executable image: charge returns false
  /// when the reservation would exceed the enclave heap bound (the module
  /// then stays on the AOT stream); release undoes the charge (TierSet
  /// dtor).
  std::function<bool(std::size_t)> charge_code;
  std::function<void(std::size_t)> release_code;
};

/// Per-class fallback sinks: the split of `wasm.jit_fallback_ops` that
/// keeps remaining thunk hotspots visible as the lowered core widens.
/// (Namespace scope, not nested: a nested class's default member
/// initializers are parsed only once the enclosing class is complete,
/// which would break the `= {}` default argument on bind_metrics.)
struct ClassSinks {
  obs::Counter* float_ops = nullptr;
  obs::Counter* conv_ops = nullptr;
  obs::Counter* call_ops = nullptr;
  obs::Counter* other_ops = nullptr;
};

class TierSet {
 public:
  TierSet(const Module* module, std::span<const CompiledFunc> compiled,
          TierConfig config);
  ~TierSet();
  TierSet(const TierSet&) = delete;
  TierSet& operator=(const TierSet&) = delete;

  /// Hot path: the native entry for a module-local function index, or
  /// null when the function runs on the AOT stream.
  const void* entry_for(std::uint32_t index) const noexcept {
    return entries_[index];
  }

  /// Compiles every function into one image and installs the entries.
  /// Runs once (later calls return 0) and must finish before the set is
  /// shared with an executing instance. Returns the functions compiled.
  std::size_t compile_all();

  /// Points the metric flushes at registry-owned instruments (fleet-wide
  /// counters). The compile count and duration already recorded are
  /// flushed into the new sinks, so binding after compile_all() counts
  /// the load-time compiles. Unbound sinks are skipped; local totals
  /// always accumulate.
  void bind_metrics(obs::Counter* compiles, obs::Counter* native_entries,
                    obs::Counter* fallback_ops, obs::Histogram* compile_ns,
                    ClassSinks classes = {}) noexcept;

  /// Called by the native entry thunk per invocation / at frame exit.
  void count_native_entry() noexcept;
  void add_fallback_ops(std::uint64_t n) noexcept;
  void add_fallback_classes(std::uint64_t float_ops, std::uint64_t conv_ops,
                            std::uint64_t call_ops,
                            std::uint64_t other_ops) noexcept;

  std::uint64_t native_entries() const noexcept {
    return entries_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t fallback_ops() const noexcept {
    return fallback_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t fallback_float() const noexcept {
    return fallback_float_.load(std::memory_order_relaxed);
  }
  std::uint64_t fallback_conv() const noexcept {
    return fallback_conv_.load(std::memory_order_relaxed);
  }
  std::uint64_t fallback_call() const noexcept {
    return fallback_call_.load(std::memory_order_relaxed);
  }
  std::uint64_t fallback_other() const noexcept {
    return fallback_other_.load(std::memory_order_relaxed);
  }
  /// Coverage diagnostics: how many functions codegen refused, and the
  /// opcode that stopped the most recent refusal (0xffffffff while no
  /// function has refused; 0xffff for structural refusals).
  std::uint64_t refused_functions() const noexcept { return refused_functions_; }
  std::uint32_t last_refused_op() const noexcept { return last_refused_op_; }
  /// Page-rounded bytes of the executable image (charged to the secure
  /// heap; 0 until compiled or when every function stayed on the AOT
  /// stream).
  std::size_t native_code_bytes() const noexcept {
    return image_ ? image_->bytes() : 0;
  }
  /// Functions dispatching through a native entry.
  std::uint32_t native_functions() const noexcept { return native_functions_; }

 private:
  const Module* module_;
  std::span<const CompiledFunc> compiled_;
  TierConfig config_;
  std::vector<const void*> entries_;  // immutable once compile_all() ran
  std::unique_ptr<ExecutableImage> image_;
  bool compiled_once_ = false;
  std::uint32_t native_functions_ = 0;
  std::uint64_t refused_functions_ = 0;
  std::uint32_t last_refused_op_ = 0xffffffff;
  std::uint64_t compile_ns_ = 0;

  std::atomic<std::uint64_t> entries_total_{0};
  std::atomic<std::uint64_t> fallback_total_{0};
  std::atomic<std::uint64_t> fallback_float_{0};
  std::atomic<std::uint64_t> fallback_conv_{0};
  std::atomic<std::uint64_t> fallback_call_{0};
  std::atomic<std::uint64_t> fallback_other_{0};

  // Compile sinks are touched only by compile_all() and bind_metrics(),
  // never by executing instances.
  obs::Counter* sink_compiles_ = nullptr;
  obs::Histogram* sink_compile_ns_ = nullptr;
  std::atomic<obs::Counter*> sink_entries_{nullptr};
  std::atomic<obs::Counter*> sink_fallback_{nullptr};
  std::atomic<obs::Counter*> sink_fallback_float_{nullptr};
  std::atomic<obs::Counter*> sink_fallback_conv_{nullptr};
  std::atomic<obs::Counter*> sink_fallback_call_{nullptr};
  std::atomic<obs::Counter*> sink_fallback_other_{nullptr};
};

}  // namespace watz::wasm::jit
