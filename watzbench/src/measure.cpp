#include "measure.hpp"

#include <cstdio>
#include <map>
#include <stdexcept>

#include "crypto/ecdsa.hpp"
#include "crypto/fortuna.hpp"
#include "wasm/compile.hpp"
#include "wasm/decoder.hpp"
#include "wasm/jit/tier.hpp"
#include "wasm/validator.hpp"

namespace watzbench {

using namespace watz;

Snapshot snapshot(Fleet& fleet) {
  Snapshot s;
  s.stats = fleet.gateway().stats(/*detail=*/true);
  s.messages = fleet.fabric().messages();
  s.bytes = fleet.fabric().bytes_sent() + fleet.fabric().bytes_received();
  s.at_ns = now_ns();
  return s;
}

HeapSampler::HeapSampler(Fleet& fleet) {
  thread_ = std::thread([this, &fleet] {
    while (!stop_.load(std::memory_order_relaxed)) {
      for (std::size_t i = 0; i < Fleet::kBoards; ++i) {
        const std::uint64_t in_use = fleet.board(i).os().heap_in_use();
        if (in_use > peak_.load(std::memory_order_relaxed)) peak_.store(in_use);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
}

HeapSampler::~HeapSampler() {
  stop_ = true;
  thread_.join();
}

double HeapSampler::peak_mb() const noexcept {
  return static_cast<double>(peak_.load()) / (1024.0 * 1024.0);
}

namespace {

std::vector<double> field_of(const std::vector<InvokeSample>& samples, double InvokeSample::*field) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s.*field);
  return out;
}

/// wall − queue − launch − sandbox: gateway and client time no response
/// field accounts for.
std::vector<double> unattributed_us(const std::vector<InvokeSample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s.wall_us - s.queue_us - s.launch_us - s.sandbox_us);
  return out;
}

/// `table[s.trace_id]` for every sample that was traced (µs).
std::vector<double> traced_values(const std::vector<InvokeSample>& samples,
                                  const std::map<std::uint64_t, double>& table) {
  std::vector<double> out;
  for (const auto& s : samples)
    if (const auto it = table.find(s.trace_id); s.trace_id != 0 && it != table.end()) out.push_back(it->second);
  return out;
}

}  // namespace

StageTimes stage_times(const std::vector<obs::SpanRecord>& spans) {
  StageTimes t;
  for (const auto& span : spans) {
    const double us = static_cast<double>(span.dur_ns) / 1e3;
    if (span.stage == obs::Stage::Checkout || span.stage == obs::Stage::Prepare) t.acquire_us[span.trace_id] += us;
    if (span.stage == obs::Stage::TeeEntry || span.stage == obs::Stage::TeeExit) t.tee_us[span.trace_id] += us;
  }
  return t;
}

std::vector<double> per_entry_median(const std::vector<InvokeSample>& samples, int entries,
                                     double InvokeSample::*field) {
  std::vector<std::vector<double>> by_entry(static_cast<std::size_t>(entries));
  for (const auto& s : samples)
    if (s.entry >= 0 && s.entry < entries) by_entry[static_cast<std::size_t>(s.entry)].push_back(s.*field);
  std::vector<double> out;
  for (const auto& v : by_entry)
    if (!v.empty()) out.push_back(median(v));
  return out;
}

namespace {

/// The median of `values` (value i belongs to samples[i].entry), or with
/// `by_entry` the median over entries of each entry's median.
double p50(const std::vector<double>& values, const std::vector<InvokeSample>& samples, bool by_entry) {
  if (!by_entry) return median(values);
  std::map<int, std::vector<double>> per_entry;
  for (std::size_t i = 0; i < values.size() && i < samples.size(); ++i)
    per_entry[samples[i].entry].push_back(values[i]);
  std::vector<double> medians;
  for (const auto& [entry, v] : per_entry) medians.push_back(median(v));
  return median(medians);
}

}  // namespace

void fill_end_to_end(Metrics& m, const EndToEnd& in) {
  const auto& invokes = in.invokes->invokes.items();
  const auto walls = field_of(invokes, &InvokeSample::wall_us);
  const bool by_entry = in.p50_of_entry_medians;
  m["setup_s"] = median(in.setup_s);
  m["invoke_p50_us"] = p50(walls, invokes, by_entry);
  m["invoke_p99_us"] = quantile(walls, 0.99);
  m["batch_p50_ms"] = quantile(in.batches->batch_ms, 0.50);
  m["batch_p99_ms"] = quantile(in.batches->batch_ms, 0.99);
  m["lanes_per_s"] = ratio(static_cast<double>(in.window_invokes), in.window_s);
  m["kernel_ms_geomean"] = geomean(in.entry_ms);
  m["fig5_slowdown_geomean"] = geomean(in.entry_slowdown);
  m["attach_p50_ms"] = median(in.attaches->attach_ms);
  m["first_result_p50_ms"] = p50(in.firsts->first_result_ms, in.firsts->first_invokes, by_entry);
  m["repeat_result_p50_ms"] = p50(in.firsts->repeat_result_ms, in.firsts->repeat_invokes, by_entry);
}

void fleet_layers(Metrics& m, const Snapshot& a, const Snapshot& b, const Recorder& window,
                  std::uint64_t client_ops, const StageTimes& stages) {
  const auto& inv = window.invokes.items();
  const auto walls = field_of(inv, &InvokeSample::wall_us);
  const auto queue = field_of(inv, &InvokeSample::queue_us);
  m["gateway.queue_us.p50"] = quantile(queue, 0.50);
  m["gateway.queue_us.p99"] = quantile(queue, 0.99);
  m["gateway.host_us.p50"] = median(unattributed_us(inv));
  m["core.sandbox_us.p50"] = median(field_of(inv, &InvokeSample::sandbox_us));
  // A pool hit reports launch_ns 0; the Checkout span times what it did.
  m["core.launch_us.p50"] = median(traced_values(inv, stages.acquire_us));

  double pool_hits = 0, ra = 0, sandbox_sum = 0, wall_sum = 0;
  int entries = 0;
  for (const auto& s : inv) {
    pool_hits += s.pool_hit ? 1 : 0;
    ra += s.ra_exchanges;
    sandbox_sum += s.sandbox_us;
    wall_sum += s.wall_us;
    entries = std::max(entries, s.entry + 1);
  }
  const double n = static_cast<double>(inv.size());
  m["gateway.pool_hit_ratio"] = ratio(pool_hits, n);
  m["ra.exchanges_per_invoke"] = ratio(ra, n);
  m["gateway.overhead_share"] = wall_sum == 0 ? 0.0 : 1.0 - sandbox_sum / wall_sum;
  std::vector<double> sandbox_ms;
  for (double us : per_entry_median(inv, entries, &InvokeSample::sandbox_us)) sandbox_ms.push_back(us / 1e3);
  m["core.sandbox_ms_geomean"] = geomean(sandbox_ms);

  // World switches: every stage.tee_entry sample is one enter and, on
  // return, one leave. Modelled board time is those switches' calibrated
  // charges as executed (the traced ops' TeeEntry + TeeExit spans).
  const auto& sa = a.stats;
  const auto& sb = b.stats;
  const double invocations = static_cast<double>(sb.invocations - sa.invocations);
  const double entries_tee = static_cast<double>(sb.stage_tee_entry.count - sa.stage_tee_entry.count);
  m["tz.switches_per_invoke"] = ratio(2.0 * entries_tee, invocations);
  m["hw.modelled_us_per_invoke"] = median(traced_values(inv, stages.tee_us));
  m["host_us_per_invoke"] = median(walls) - m["hw.modelled_us_per_invoke"];

  m["gateway.dedup_ratio"] =
      ratio(static_cast<double>(sb.deduped_lanes - sa.deduped_lanes), static_cast<double>(window.batch_lanes));
  double busy_min = 1e300, busy_max = 0;
  const double window_ns = static_cast<double>(b.at_ns - a.at_ns);
  for (std::size_t d = 0; d < sb.devices.size() && d < sa.devices.size(); ++d)
    for (std::size_t s = 0; s < sb.devices[d].slots.size() && s < sa.devices[d].slots.size(); ++s) {
      const double share =
          ratio(static_cast<double>(sb.devices[d].slots[s].busy_ns - sa.devices[d].slots[s].busy_ns), window_ns);
      busy_min = std::min(busy_min, share);
      busy_max = std::max(busy_max, share);
    }
  m["gateway.slot_busy_share.min"] = busy_min > 1e299 ? 0.0 : busy_min;  // no slot sampled
  m["gateway.slot_busy_share.max"] = busy_max;
  m["net.messages_per_op"] = ratio(static_cast<double>(b.messages - a.messages), static_cast<double>(client_ops));
  m["net.bytes_per_op"] = ratio(static_cast<double>(b.bytes - a.bytes), static_cast<double>(client_ops));
  m["gateway.queue_full_rejections"] = static_cast<double>(sb.queue_full_rejections - sa.queue_full_rejections);

  m["wasm.native_entry_share"] = ratio(static_cast<double>(sb.native_entries - sa.native_entries), invocations);
  m["wasm.jit_fallback_float_per_invoke"] =
      ratio(static_cast<double>(sb.jit_fallback_float - sa.jit_fallback_float), invocations);
  m["wasm.jit_fallback_conv_per_invoke"] =
      ratio(static_cast<double>(sb.jit_fallback_conv - sa.jit_fallback_conv), invocations);
  m["wasm.jit_fallback_call_per_invoke"] =
      ratio(static_cast<double>(sb.jit_fallback_call - sa.jit_fallback_call), invocations);
  m["wasm.jit_fallback_other_per_invoke"] =
      ratio(static_cast<double>(sb.jit_fallback_other - sa.jit_fallback_other), invocations);
  m["wasm.tier_up_compiles"] = static_cast<double>(sb.tier_up_compiles);
}

void cold_path_layers(Metrics& m, const Recorder& firsts, const Recorder& attaches, const StageTimes& stages) {
  m["core.launch_ms.first"] = median(traced_values(firsts.first_invokes, stages.acquire_us)) / 1e3;
  m["core.launch_ms.repeat"] = median(traced_values(firsts.repeat_invokes, stages.acquire_us)) / 1e3;
  m["core.sandbox_ms.first"] = median(field_of(firsts.first_invokes, &InvokeSample::sandbox_us)) / 1e3;
  m["gateway.unattributed_ms.repeat"] = median(unattributed_us(firsts.repeat_invokes)) / 1e3;
  const double n = static_cast<double>(attaches.attach_ms.size());
  m["ra.handshakes_per_attach"] = ratio(static_cast<double>(attaches.attach_handshakes), n);
  m["net.messages_per_attach"] = ratio(static_cast<double>(attaches.attach_messages), n);
}

std::string first_result_note(const Recorder& firsts) {
  std::vector<double> load_ms;
  for (std::size_t i = 0; i < firsts.first_result_ms.size() && i < firsts.first_invokes.size(); ++i)
    load_ms.push_back(firsts.first_result_ms[i] - firsts.first_invokes[i].wall_us / 1e3);
  const auto med_ms = [&](double InvokeSample::*field) { return median(field_of(firsts.first_invokes, field)) / 1e3; };
  char line[200];
  std::snprintf(line, sizeof line,
                "first result (n=%zu): LOAD_MODULE %.3f ms + INVOKE %.3f ms (queue %.3f, launch %.3f, sandbox %.3f)",
                load_ms.size(), median(load_ms), med_ms(&InvokeSample::wall_us), med_ms(&InvokeSample::queue_us),
                med_ms(&InvokeSample::launch_us), med_ms(&InvokeSample::sandbox_us));
  return line;
}

void cache_layers(Metrics& m, const gateway::GatewayStats& final_stats, std::uint64_t sessions,
                  double heap_peak_mb) {
  double misses = 0, evictions = 0;
  for (const auto& d : final_stats.devices) {
    misses += static_cast<double>(d.cache_misses);
    evictions += static_cast<double>(d.cache_evictions);
  }
  m["gateway.cache_misses_per_tenant"] = ratio(misses, static_cast<double>(sessions));
  m["gateway.cache_evictions_per_tenant"] = ratio(evictions, static_cast<double>(sessions));
  m["optee.secure_heap_peak_mb"] = heap_peak_mb;
}

namespace {

template <typename Fn>
double median_ms(int reps, Fn fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    ms.push_back(to_ms(now_ns() - t0));
  }
  return median(ms);
}

template <typename T>
T must(Result<T> r, const char* what) {
  if (!r.ok()) throw std::runtime_error(std::string(what) + ": " + r.error());
  return std::move(*r);
}

/// Resolves the tiny guest's one WASI import for bare REE instances.
const wasm::ImportResolver& ree_imports() {
  static const wasm::ImportResolver resolver = [] {
    wasm::ImportResolver r;
    r.add_function("wasi_snapshot_preview1", "clock_time_get",
                   {{wasm::ValType::I32, wasm::ValType::I64, wasm::ValType::I32}, {wasm::ValType::I32}},
                   [](wasm::Instance&, std::span<const wasm::Value>) -> Result<std::vector<wasm::Value>> {
                     return std::vector<wasm::Value>{wasm::Value::from_i32(0)};
                   });
    return r;
  }();
  return resolver;
}

}  // namespace

void direct_layers(Metrics& m, std::vector<std::string>& notes, const Bytes& module) {
  // crypto/: the primitives the RA handshake is made of.
  crypto::Fortuna rng(to_bytes("watzbench-crypto"));
  const crypto::KeyPair key = crypto::ecdsa_keygen(rng);
  const crypto::KeyPair peer = crypto::ecdsa_keygen(rng);
  const crypto::Sha256Digest digest = crypto::sha256(to_bytes("watzbench-digest"));
  crypto::EcdsaSignature sig;
  constexpr int kCryptoReps = 15;
  m["crypto.ecdsa_sign_us"] = 1e3 * median_ms(kCryptoReps, [&] { sig = crypto::ecdsa_sign(key.priv, digest); });
  bool verified = true;
  m["crypto.ecdsa_verify_us"] =
      1e3 * median_ms(kCryptoReps, [&] { verified &= crypto::ecdsa_verify(key.pub, digest, sig); });
  if (!verified) throw std::runtime_error("ecdsa_verify rejected a valid signature");
  m["crypto.ecdh_us"] =
      1e3 * median_ms(kCryptoReps, [&] { must(crypto::ecdh_shared_x(key.priv, peer.pub), "ecdh"); });
  const Bytes block(4u << 20, 0x5A);
  const double sha_ms = median_ms(5, [&] { (void)crypto::sha256(block); });
  m["crypto.sha256_mb_per_s"] = ratio(4.0, sha_ms / 1e3);

  // core/: the Fig 4 launch phases of `module` on a side board, off the fleet.
  const double mb = static_cast<double>(module.size()) / (1024.0 * 1024.0);
  {
    net::Fabric fabric;
    const core::Vendor vendor = core::Vendor::create(to_bytes("watzbench-side-vendor"));
    core::DeviceConfig config;
    config.hostname = "side-board";
    config.otpmk.fill(0xC0);
    auto board = must(core::Device::boot(fabric, vendor, config), "side board boot");
    std::vector<double> transition, alloc, hash, loading, share;
    for (int i = 0; i < 3; ++i) {
      auto prepared = must(board->runtime().prepare(module), "prepare");
      const core::StartupBreakdown& cost = prepared->load_cost();
      transition.push_back(to_ms(cost.transition_ns));
      alloc.push_back(to_ms(cost.memory_allocation_ns));
      hash.push_back(to_ms(cost.hashing_ns));
      loading.push_back(to_ms(cost.loading_ns));
      core::AppConfig app_config;
      app_config.heap_bytes = 12u << 20;  // the paper's PolyBench heap
      auto app = must(board->runtime().launch(module, app_config), "launch");
      const core::StartupBreakdown& startup = app->startup();
      share.push_back(ratio(static_cast<double>(startup.loading_ns), static_cast<double>(startup.total_ns())));
    }
    m["core.prepare_ms.transition"] = median(transition);
    m["core.prepare_ms.alloc"] = median(alloc);
    m["core.prepare_ms.hash"] = median(hash);
    m["core.prepare_ms.loading"] = median(loading);
    m["core.launch_loading_share"] = median(share);
    char line[160];
    std::snprintf(line, sizeof line, "Fig 4: Loading %.1f%% of launch (%.3f ms of a %.1f KiB module; paper ~73%%)",
                  100.0 * median(share), median(loading), mb * 1024.0);
    notes.push_back(line);
  }

  // wasm/: the Loading pipeline stage by stage, per MB of module.
  wasm::Module decoded;
  const double decode_ms = median_ms(3, [&] { decoded = must(wasm::decode_module(module), "decode"); });
  const double validate_ms = median_ms(3, [&] {
    if (auto s = wasm::validate_module(decoded); !s.ok()) throw std::runtime_error("validate: " + s.error());
  });
  std::vector<wasm::CompiledFunc> compiled;
  const double aot_ms = median_ms(3, [&] {
    compiled.clear();
    for (std::uint32_t i = 0; i < decoded.functions.size(); ++i)
      compiled.push_back(must(wasm::compile_function(decoded, i), "compile_function"));
  });
  const double jit_ms = median_ms(3, [&] {
    wasm::jit::TierSet tier(&decoded, compiled, wasm::jit::TierConfig{});
    tier.compile_all();
  });
  m["wasm.decode_ms_per_mb"] = decode_ms / mb;
  m["wasm.validate_ms_per_mb"] = validate_ms / mb;
  m["wasm.aot_ms_per_mb"] = aot_ms / mb;
  m["wasm.jit_compile_ms_per_mb"] = jit_ms / mb;
}

double ree_ms(const Bytes& module, const std::string& entry, const std::vector<wasm::Value>& args, int reps,
              double* result) {
  auto inst = must(wasm::Instance::instantiate(must(wasm::decode_module(module), "decode"), ree_imports(),
                                               wasm::ExecMode::Aot),
                   "instantiate");
  auto tier = std::make_shared<wasm::jit::TierSet>(&inst->module(), inst->compiled, wasm::jit::TierConfig{});
  tier->compile_all();
  inst->tier = tier;
  // Each call starts from a freshly reset instance, as a pooled gateway
  // checkout does; call 0 is an untimed warm-up, since the gateway column
  // is timed on warm instances too.
  std::vector<wasm::Value> out;
  std::vector<double> ms;
  for (int i = 0; i <= reps; ++i) {
    if (auto s = inst->reinitialize(); !s.ok()) throw std::runtime_error("ree reinitialize: " + s.error());
    const std::uint64_t t0 = now_ns();
    out = must(inst->invoke(entry, args), "ree invoke");
    if (i > 0) ms.push_back(to_ms(now_ns() - t0));
  }
  if (result != nullptr && !out.empty())
    *result = out[0].type == wasm::ValType::F64 ? out[0].f64() : static_cast<double>(out[0].i32());
  return median(ms);
}

double tier_compile_ms(const gateway::GatewayStats& stats, const std::vector<const Bytes*>& binaries) {
  double total = 0;
  for (const Bytes* binary : binaries) {
    const crypto::Sha256Digest digest = crypto::sha256(*binary);
    int boards = 0;
    for (const auto& device : stats.devices)
      for (const auto& module : device.modules)
        if (module.measurement == digest && module.native_functions > 0) ++boards;
    if (boards == 0) continue;
    const wasm::Module decoded = must(wasm::decode_module(*binary), "decode");
    std::vector<wasm::CompiledFunc> compiled;
    for (std::uint32_t i = 0; i < decoded.functions.size(); ++i)
      compiled.push_back(must(wasm::compile_function(decoded, i), "compile_function"));
    total += boards * median_ms(3, [&] {
      wasm::jit::TierSet tier(&decoded, compiled, wasm::jit::TierConfig{});
      tier.compile_all();
    });
  }
  return total;
}

void overhead_layers(Metrics& m, const Metrics& traced, const Metrics& untraced) {
  for (const auto& [name, value] : traced) m["trace_overhead." + name] = value - untraced.at(name);
}

}  // namespace watzbench
