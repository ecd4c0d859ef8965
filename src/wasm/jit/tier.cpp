#include "wasm/jit/tier.hpp"

#include "hw/clock.hpp"

namespace watz::wasm::jit {

namespace {
/// Function starts are 16-byte aligned inside the image (padding is int3).
constexpr std::size_t kFuncAlign = 16;
}  // namespace

TierSet::TierSet(const Module* module, std::span<const CompiledFunc> compiled,
                 TierConfig config)
    : module_(module),
      compiled_(compiled),
      config_(std::move(config)),
      entries_(compiled.size(), nullptr) {}

TierSet::~TierSet() {
  if (image_ && config_.release_code) config_.release_code(image_->bytes());
}

std::size_t TierSet::compile_all() {
  if (!config_.enabled || compiled_once_) return 0;
  compiled_once_ = true;
  const std::uint64_t start_ns = hw::monotonic_ns();

  // Every function is lowered into one buffer at an aligned offset; the
  // generated code is position-independent, so the offsets become entries
  // once the buffer is mapped.
  std::vector<std::uint8_t> code;
  std::vector<std::size_t> offsets(compiled_.size(), SIZE_MAX);
  for (std::uint32_t index = 0; index < compiled_.size(); ++index) {
    std::uint16_t refused_op = 0xffff;
    const std::vector<std::uint8_t> fn =
        compile_function(*module_, compiled_[index], &refused_op);
    if (fn.empty()) {  // shape the baseline refuses: stays on the AOT stream
      ++refused_functions_;
      last_refused_op_ = refused_op;
      continue;
    }
    code.resize((code.size() + kFuncAlign - 1) & ~(kFuncAlign - 1), 0xcc);
    offsets[index] = code.size();
    code.insert(code.end(), fn.begin(), fn.end());
  }
  if (code.empty()) return 0;

  // W^X mapping or the secure-heap charge failing leaves the whole module
  // on the AOT stream.
  auto image = ExecutableImage::create(code.data(), code.size());
  if (!image) return 0;
  if (config_.charge_code && !config_.charge_code(image->bytes())) return 0;
  image_ = std::move(image);
  for (std::uint32_t index = 0; index < compiled_.size(); ++index) {
    if (offsets[index] == SIZE_MAX) continue;
    entries_[index] = image_->base() + offsets[index];
    ++native_functions_;
  }
  compile_ns_ = hw::monotonic_ns() - start_ns;
  if (sink_compiles_ != nullptr) sink_compiles_->add(native_functions_);
  if (sink_compile_ns_ != nullptr) sink_compile_ns_->record(compile_ns_);
  return native_functions_;
}

void TierSet::bind_metrics(obs::Counter* compiles, obs::Counter* native_entries,
                           obs::Counter* fallback_ops,
                           obs::Histogram* compile_ns,
                           ClassSinks classes) noexcept {
  sink_compiles_ = compiles;
  sink_compile_ns_ = compile_ns;
  if (image_) {
    if (compiles != nullptr) compiles->add(native_functions_);
    if (compile_ns != nullptr) compile_ns->record(compile_ns_);
  }
  sink_entries_.store(native_entries, std::memory_order_relaxed);
  sink_fallback_.store(fallback_ops, std::memory_order_relaxed);
  sink_fallback_float_.store(classes.float_ops, std::memory_order_relaxed);
  sink_fallback_conv_.store(classes.conv_ops, std::memory_order_relaxed);
  sink_fallback_call_.store(classes.call_ops, std::memory_order_relaxed);
  sink_fallback_other_.store(classes.other_ops, std::memory_order_relaxed);
}

void TierSet::count_native_entry() noexcept {
  entries_total_.fetch_add(1, std::memory_order_relaxed);
  if (auto* c = sink_entries_.load(std::memory_order_relaxed)) c->add(1);
}

void TierSet::add_fallback_ops(std::uint64_t n) noexcept {
  if (n == 0) return;
  fallback_total_.fetch_add(n, std::memory_order_relaxed);
  if (auto* c = sink_fallback_.load(std::memory_order_relaxed)) c->add(n);
}

void TierSet::add_fallback_classes(std::uint64_t float_ops,
                                   std::uint64_t conv_ops,
                                   std::uint64_t call_ops,
                                   std::uint64_t other_ops) noexcept {
  if (float_ops != 0) {
    fallback_float_.fetch_add(float_ops, std::memory_order_relaxed);
    if (auto* c = sink_fallback_float_.load(std::memory_order_relaxed))
      c->add(float_ops);
  }
  if (conv_ops != 0) {
    fallback_conv_.fetch_add(conv_ops, std::memory_order_relaxed);
    if (auto* c = sink_fallback_conv_.load(std::memory_order_relaxed))
      c->add(conv_ops);
  }
  if (call_ops != 0) {
    fallback_call_.fetch_add(call_ops, std::memory_order_relaxed);
    if (auto* c = sink_fallback_call_.load(std::memory_order_relaxed))
      c->add(call_ops);
  }
  if (other_ops != 0) {
    fallback_other_.fetch_add(other_ops, std::memory_order_relaxed);
    if (auto* c = sink_fallback_other_.load(std::memory_order_relaxed))
      c->add(other_ops);
  }
}

}  // namespace watz::wasm::jit
