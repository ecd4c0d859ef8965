#include "gateway/module_cache.hpp"

#include "hw/clock.hpp"
#include "wasm/jit/tier.hpp"

namespace watz::gateway {

Result<AppLease> ModuleCache::acquire(const crypto::Sha256Digest& measurement,
                                      ByteView binary, const core::AppConfig& config,
                                      tz::SecureMonitor* monitor) {
  std::lock_guard<std::mutex> lock(mu_);
  tz::SecureMonitor* const bound = monitor ? monitor : &runtime_.primary_monitor();
  auto it = entries_.find(measurement);

  // Cold miss: run the full pipeline and retain the prepared form.
  if (it == entries_.end()) {
    if (binary.empty())
      return Result<AppLease>::err("module cache: measurement unknown and no binary");
    misses_.add();
    const std::uint64_t t0 = hw::monotonic_ns();  // cold launch pays it all
    auto prepared = runtime_.prepare(binary, config.mode, bound);
    if (!prepared.ok()) return Result<AppLease>::err(prepared.error());
    if ((*prepared)->measurement() != measurement)
      return Result<AppLease>::err("module cache: binary does not match measurement");
    Entry& entry = adopt(measurement, std::move(*prepared));

    auto app = runtime_.instantiate(entry.prepared, config, bound);
    if (!app.ok()) return Result<AppLease>::err(app.error());
    ++entry.live;
    ++entry.leases;
    AppLease lease;
    lease.cache = this;
    lease.app = std::move(*app);
    lease.launch_ns = hw::monotonic_ns() - t0;
    return lease;
  }

  Entry& entry = it->second;
  entry.last_used = ++tick_;
  hits_.add();

  // The cached prepared form dictates the execution mode, as on the
  // instantiate path (which rejects a mismatch rather than silently
  // switching modes).
  if (entry.prepared->mode() != config.mode)
    return Result<AppLease>::err(
        "module cache: cached module mode does not match AppConfig.mode");

  // Warmest path: an instance of this module parked by the SAME slot (the
  // monitor an app is bound to is the slot identity — handing it to
  // another slot would let two threads race one sandbox's monitor) whose
  // guest heap matches what the caller asked for (a smaller or larger
  // reservation than requested would silently change the app's memory
  // ceiling).
  for (auto pooled = entry.pool.begin(); pooled != entry.pool.end(); ++pooled) {
    if ((*pooled)->monitor() != bound) continue;
    if ((*pooled)->heap_bytes() != config.heap_bytes) continue;
    pool_hits_.add();
    AppLease lease;
    lease.cache = this;
    lease.app = std::move(*pooled);
    entry.pool.erase(pooled);
    const std::size_t freed = lease.app->heap_bytes();
    entry.pooled_bytes -= freed;
    charged_bytes_.sub(freed);
    ++entry.live;
    ++entry.leases;
    lease.module_cache_hit = true;
    lease.pool_hit = true;
    return lease;
  }

  // Warm path: instantiate from the cached prepared form (no Loading)
  // onto the caller's slot monitor.
  const std::uint64_t t0 = hw::monotonic_ns();
  auto app = runtime_.instantiate(entry.prepared, config, bound);
  if (!app.ok()) return Result<AppLease>::err(app.error());
  ++entry.live;
  ++entry.leases;
  AppLease lease;
  lease.cache = this;
  lease.app = std::move(*app);
  lease.launch_ns = hw::monotonic_ns() - t0;
  lease.module_cache_hit = true;
  return lease;
}

Status ModuleCache::prepare(const crypto::Sha256Digest& measurement,
                            ByteView binary, wasm::ExecMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.contains(measurement)) return Status{};
  if (binary.empty())
    return Status::err("module cache: prewarm needs the module binary");
  prewarms_.add();
  auto prepared = runtime_.prepare(binary, mode, &runtime_.primary_monitor());
  if (!prepared.ok()) return Status::err(prepared.error());
  if ((*prepared)->measurement() != measurement)
    return Status::err("module cache: binary does not match measurement");
  adopt(measurement, std::move(*prepared));
  return Status{};
}

ModuleCache::Entry& ModuleCache::adopt(
    const crypto::Sha256Digest& measurement,
    std::shared_ptr<const core::PreparedModule> prepared) {
  make_room(prepared->code_bytes(), nullptr);
  Entry entry;
  entry.prepared = std::move(prepared);
  entry.last_used = ++tick_;
  charged_bytes_.add(entry.prepared->code_bytes());
  // A fresh measurement's tier flushes — its load-time compiles first —
  // into the same fleet-wide sinks as every other cached module.
  if (entry.prepared->tier())
    entry.prepared->tier()->bind_metrics(
        tier_compiles_sink_, tier_entries_sink_, tier_fallback_sink_,
        tier_compile_ns_sink_,
        {tier_fallback_float_sink_, tier_fallback_conv_sink_,
         tier_fallback_call_sink_, tier_fallback_other_sink_});
  return entries_.emplace(measurement, std::move(entry)).first->second;
}

void ModuleCache::release(std::unique_ptr<core::LoadedApp> app) {
  if (!app) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(app->measurement());
  if (it == entries_.end()) return;  // module was evicted meanwhile: drop
  Entry& entry = it->second;
  if (entry.live > 0) --entry.live;
  // An instance that can never be parked — the pool is full, or its heap
  // does not fit the budget even once every other module is gone — is
  // dropped before paying for the scrub or evicting anything for it.
  const std::size_t cost = app->heap_bytes();
  if (entry.pool.size() >= config_.max_pool_per_module ||
      entry_bytes(entry) + cost > config_.budget_bytes)
    return;
  // Scrub the sandbox before the next tenant sees it: reset memory (in
  // place), globals, table and segments to the freshly-instantiated
  // state, and clear the WASI output buffers. An instance that cannot be
  // reset is dropped rather than pooled.
  if (!app->instance().reinitialize().ok()) return;
  app->wasi().clear_output();
  if (charged_bytes_.get() + cost > config_.budget_bytes)
    make_room(cost, &it->first);
  if (charged_bytes_.get() + cost > config_.budget_bytes)
    return;  // still no room
  entry.pooled_bytes += cost;
  charged_bytes_.add(cost);
  entry.pool.push_back(std::move(app));
}

void ModuleCache::forfeit(const crypto::Sha256Digest& measurement) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(measurement);
  if (it != entries_.end() && it->second.live > 0) --it->second.live;
}

void ModuleCache::bind_tier_metrics(obs::Counter* compiles, obs::Counter* entries,
                                    obs::Counter* fallback_ops,
                                    obs::Histogram* compile_ns,
                                    obs::Counter* fallback_float,
                                    obs::Counter* fallback_conv,
                                    obs::Counter* fallback_call,
                                    obs::Counter* fallback_other) {
  std::lock_guard<std::mutex> lock(mu_);
  tier_compiles_sink_ = compiles;
  tier_entries_sink_ = entries;
  tier_fallback_sink_ = fallback_ops;
  tier_fallback_float_sink_ = fallback_float;
  tier_fallback_conv_sink_ = fallback_conv;
  tier_fallback_call_sink_ = fallback_call;
  tier_fallback_other_sink_ = fallback_other;
  tier_compile_ns_sink_ = compile_ns;
  for (const auto& [digest, entry] : entries_)
    if (entry.prepared->tier())
      entry.prepared->tier()->bind_metrics(
          compiles, entries, fallback_ops, compile_ns,
          {fallback_float, fallback_conv, fallback_call, fallback_other});
}

std::vector<ModuleCache::TierState> ModuleCache::tier_states() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TierState> states;
  states.reserve(entries_.size());
  for (const auto& [digest, entry] : entries_) {
    TierState state;
    state.measurement = digest;
    state.mode = entry.prepared->mode();
    state.functions =
        static_cast<std::uint32_t>(entry.prepared->compiled().size());
    if (const auto& tier = entry.prepared->tier())
      state.native_functions = tier->native_functions();
    state.leases = entry.leases;
    states.push_back(state);
  }
  return states;
}

void ModuleCache::make_room(std::size_t incoming, const crypto::Sha256Digest* keep) {
  while (charged_bytes_.get() + incoming >
         config_.budget_bytes) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (keep && it->first == *keep) continue;
      // A module live in any slot is pinned: evicting it would strand the
      // checked-out instances' shared AOT image accounting.
      if (it->second.live > 0) continue;
      if (victim == entries_.end() || it->second.last_used < victim->second.last_used)
        victim = it;
    }
    if (victim == entries_.end()) return;  // nothing evictable
    charged_bytes_.sub(entry_bytes(victim->second));
    entries_.erase(victim);
    evictions_.add();
  }
}

}  // namespace watz::gateway
