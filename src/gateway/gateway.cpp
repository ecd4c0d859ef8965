#include "gateway/gateway.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "hw/clock.hpp"
#include "ra/attester.hpp"

namespace watz::gateway {

namespace {

/// The platform claim a device attests to: the hash of its measured boot
/// chain (SPL, U-Boot/ATF, trusted OS), i.e. what a measured-boot TPM
/// would have accumulated by the time the runtime is up.
crypto::Sha256Digest platform_claim(core::Device& device) {
  crypto::Sha256 hasher;
  for (const crypto::Sha256Digest& stage : device.os().boot_report().measurements)
    hasher.update(stage);
  return hasher.finish();
}

bool is_appraisal_failure(const std::string& error) {
  return error.find("failed appraisal") != std::string::npos;
}

/// The semantic identity of one invocation: measurement + entry + args +
/// heap reservation. Two requests with equal keys run the same function on
/// the same module with the same inputs — what both the INVOKE_BATCH rider
/// machinery and the SUBMIT result memo deduplicate on.
std::string invoke_dedup_key(const InvokeRequest& invoke) {
  std::string key(invoke.measurement.begin(), invoke.measurement.end());
  key += invoke.entry;
  key.push_back('\0');
  for (const wasm::Value& v : invoke.args) {
    key.push_back(static_cast<char>(v.type));
    key.append(reinterpret_cast<const char*>(&v.bits), sizeof(v.bits));
  }
  key.append(reinterpret_cast<const char*>(&invoke.heap_bytes),
             sizeof(invoke.heap_bytes));
  return key;
}

}  // namespace

Gateway::Gateway(net::Fabric& fabric, GatewayConfig config, ByteView identity_seed)
    : fabric_(fabric),
      config_(std::move(config)),
      rng_(identity_seed),
      sessions_(config_.session_policy) {
  ra::ShardedVerifierConfig shard_config;
  shard_config.shards = config_.ra_shards;
  shard_config.policy.session_key_reuse = config_.ra_session_key_reuse;
  shard_config.appraisal_latency_ns = config_.ra_appraisal_latency_ns;
  verifier_ = std::make_unique<ra::ShardedVerifier>(crypto::ecdsa_keygen(rng_),
                                                    identity_seed, shard_config);
  // The blob msg3 provisions: a gateway session ticket. The appraisal side
  // effects (endorsement, reference value, MAC and signature checks) are
  // what the handshake is run for.
  verifier_->set_secret_provider(
      [](const crypto::Sha256Digest&) { return to_bytes("watz-gateway-ticket-v1"); });
}

Gateway::~Gateway() {
  // Unbind from the fabric FIRST so no new request can reach a handler
  // capturing a dying `this` (clients that outlive the gateway then get
  // "peer gone" instead of a dangling callback), then retire the renewal
  // sweeper (it posts control-lane items), then drain the slot workers.
  if (started_) {
    fabric_.unlisten(config_.hostname, config_.port);
    fabric_.unlisten(config_.hostname, config_.ra_port);
  }
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(renew_mu_);
    renew_stop_ = true;
  }
  renew_cv_.notify_all();
  if (renew_thread_.joinable()) renew_thread_.join();
  for (auto& [name, backend] : backends_) {
    for (auto& slot : backend.slots) {
      {
        std::lock_guard<std::mutex> lock(slot->queue_mu);
        slot->stop = true;
      }
      slot->queue_cv.notify_all();
      if (slot->worker.joinable()) slot->worker.join();
    }
  }
}

Status Gateway::start() {
  if (started_) return Status::err("gateway: already started");

  // RA endpoint: the gateway's sharded verifier, appraising devices.
  // Handshakes arrive concurrently from every backend worker; each routes
  // to its session's shard and locks only that shard, so the fleet
  // appraises in parallel (batch frames fan one device's lanes out too).
  Status ra = fabric_.listen(
      config_.hostname, config_.ra_port,
      [this](std::uint64_t conn, ByteView message) -> Result<Bytes> {
        return verifier_->handle(conn, message);
      },
      [this](std::uint64_t conn) { verifier_->end_session(conn); });
  if (!ra.ok()) return ra;

  // Client-facing dispatcher. Application failures travel inside the
  // response envelope; the transport only fails on malformed frames. The
  // close hook detaches every session attached over the dropped
  // connection, failing its queued work before its state goes away.
  Status dispatcher = fabric_.listen(
      config_.hostname, config_.port,
      [this](std::uint64_t conn, ByteView request) -> Result<Bytes> {
        auto response = handle_request(conn, request);
        return response.ok() ? std::move(*response) : err_envelope(response.error());
      },
      [this](std::uint64_t conn) { on_client_close(conn); });
  if (!dispatcher.ok()) return dispatcher;

  // The background sweeper runs when evidence renewal has a finite TTL to
  // stay ahead of (an infinite TTL never goes stale) and/or module prewarm
  // is on.
  const bool renew_evidence = config_.evidence_renewal &&
                              config_.session_policy.evidence_ttl_ns != ~0ull;
  if ((renew_evidence || config_.module_prewarm) && !renew_thread_.joinable())
    renew_thread_ = std::thread([this] { renewal_loop(); });

  started_ = true;
  return {};
}

Status Gateway::add_device(core::Device& device) {
  const std::size_t pool = config_.slots_per_device ? config_.slots_per_device : 1;
  Backend* backend = nullptr;
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lock(backends_mu_);
    backend = &backends_[device.hostname()];
    fresh = backend->hostname.empty();
    if (fresh) {
      backend->hostname = device.hostname();
      backend->enrol_index = backend_order_.size();
      backend_order_.push_back(backend);
      backend->slots.reserve(pool);
      for (std::size_t i = 0; i < pool; ++i) {
        auto slot = std::make_unique<Slot>();
        slot->backend = backend;
        slot->index = i;
        slot->global_id = slot_order_.size();
        slot_order_.push_back(slot.get());
        backend->slots.push_back(std::move(slot));
      }
    }
  }
  {
    // Re-enrolment == reboot/board swap: swap in the (possibly new) device
    // plus a fresh control (slot monitors), cache + attester RNG, and bump
    // the boot count so cached evidence goes stale. Workers snapshot all
    // of these under state_mu, so an invoke mid-flight across the
    // "reboot" finishes on the old device + cache + monitors instead of
    // racing the swap.
    std::lock_guard<std::mutex> lock(backend->state_mu);
    backend->device = &device;
    backend->control = std::make_shared<core::DeviceControl>(device, pool);
    // The warm pool hands instances out per slot; widen the per-module
    // pool so every slot can park one (0 stays 0: pooling disabled).
    ModuleCacheConfig cache_config = config_.cache;
    cache_config.max_pool_per_module =
        cache_config.max_pool_per_module
            ? std::max(cache_config.max_pool_per_module, pool)
            : 0;
    // The fleet's tier switch reaches the device runtime BEFORE any module
    // is prepared through the fresh cache (native code is compiled at
    // prepare() time). jit_available() gates inside the runtime, so this
    // is a no-op on non-x86-64 hosts / WATZ_DISABLE_JIT.
    device.runtime().set_jit_enabled(config_.jit_tiering);
    backend->cache = std::make_shared<ModuleCache>(device.runtime(), cache_config);
    backend->cache->bind_tier_metrics(&tier_up_compiles_, &native_entries_,
                                      &jit_fallback_ops_, &tier_compile_ns_hist_,
                                      &jit_fallback_float_, &jit_fallback_conv_,
                                      &jit_fallback_call_, &jit_fallback_other_);
    backend->attester_rng = std::make_shared<crypto::Fortuna>(
        device.os().huk_subkey_derive("watz-gateway-attester-v1"));
    backend->platform_claim = platform_claim(device);
    ++backend->boot_count;

    // Wire this enrolment into the metrics plane. The registry hands out
    // stable addresses, so the monitors and the per-device histogram
    // pointer stay valid across re-enrolments; the cache/heap links are
    // re-pointed because a reboot swaps in fresh instances.
    device.monitor().set_transition_histograms(&stage_tee_entry_hist_,
                                               &stage_tee_exit_hist_);
    for (std::size_t i = 0; i < pool; ++i)
      backend->control->slot(i).monitor().set_transition_histograms(
          &stage_tee_entry_hist_, &stage_tee_exit_hist_);
    const std::string prefix = "device." + backend->hostname + ".";
    if (backend->queue_delay_hist == nullptr)
      backend->queue_delay_hist = &registry_.histogram(prefix + "queue_delay");
    const ModuleCache& cache = *backend->cache;
    registry_.link_counter(prefix + "cache.hits", &cache.hits_counter());
    registry_.link_counter(prefix + "cache.misses", &cache.misses_counter());
    registry_.link_counter(prefix + "cache.evictions", &cache.evictions_counter());
    registry_.link_counter(prefix + "cache.pool_hits", &cache.pool_hits_counter());
    registry_.link_counter(prefix + "cache.prewarms", &cache.prewarms_counter());
    registry_.link_gauge(prefix + "cache.charged_bytes",
                         &cache.charged_bytes_gauge());
    registry_.link_gauge(prefix + "heap_in_use", &device.os().heap_gauge());
  }
  if (fresh)
    for (auto& slot : backend->slots)
      slot->worker = std::thread([this, s = slot.get()] { worker_loop(*s); });

  // Broadcast to every shard (ShardedVerifier locks one shard at a time).
  verifier_->endorse_device(device.attestation_service().public_key());
  verifier_->add_reference_measurement(backend->platform_claim);
  return {};
}

// -- worker fabric -----------------------------------------------------------

Status Gateway::post(Slot& slot, std::function<void(std::uint64_t)> task,
                     bool force) {
  {
    std::lock_guard<std::mutex> lock(slot.queue_mu);
    if (slot.stop) return Status::err("gateway: shutting down");
    const std::uint32_t depth = slot.inflight.load(std::memory_order_relaxed);
    if (!force && depth >= config_.worker_queue_capacity) {
      slot.queue_full_rejections.add();
      return Status::err(std::string(kQueueFullPrefix) + ": " +
                         slot.backend->hostname + "#" + std::to_string(slot.index) +
                         " run queue at capacity (" + std::to_string(depth) + ")");
    }
    const std::uint32_t now_inflight = depth + 1;
    slot.inflight.store(now_inflight, std::memory_order_relaxed);
    std::uint32_t peak = slot.queue_depth_peak.load(std::memory_order_relaxed);
    while (now_inflight > peak &&
           !slot.queue_depth_peak.compare_exchange_weak(peak, now_inflight)) {
    }
    // Admission timestamp: the worker measures pickup - admission as the
    // item's queueing delay (the STATS percentiles and the per-response
    // queue_delay_ns both come from this stamp).
    slot.queue.push_back(Slot::WorkItem{hw::monotonic_ns(), std::move(task)});
  }
  slot.queue_cv.notify_one();
  return {};
}

void Gateway::worker_loop(Slot& slot) {
  for (;;) {
    Slot::WorkItem item;
    {
      std::unique_lock<std::mutex> lock(slot.queue_mu);
      slot.queue_cv.wait(lock, [&] { return slot.stop || !slot.queue.empty(); });
      if (slot.queue.empty()) return;  // stop requested and queue drained
      item = std::move(slot.queue.front());
      slot.queue.pop_front();
    }
    const std::uint64_t now = hw::monotonic_ns();
    const std::uint64_t delay =
        now > item.admitted_ns ? now - item.admitted_ns : 0;
    queue_delay_hist_.record(delay);
    if (slot.backend->queue_delay_hist != nullptr)
      slot.backend->queue_delay_hist->record(delay);
    // On shutdown the loop still drains every queued item: each one
    // observes stopping_ and fails fast, fulfilling its promise so no
    // admitted request is ever left dangling. Each task decrements
    // inflight itself, just BEFORE publishing its result — so admission
    // capacity is provably free by the time a waiter observes completion
    // (decrementing here, after the task, would let a hot client see the
    // completion and get bounced before this thread is rescheduled).
    item.run(delay);
  }
}

std::uint64_t Gateway::maybe_trace(std::uint64_t wire_trace_id) {
  // A client-supplied id always wins: the caller is stitching this request
  // into a trace it owns (batch lanes, cross-service correlation).
  if (wire_trace_id != 0) return wire_trace_id;
  const std::uint64_t n = config_.trace_sample_n;
  if (n == 0) return 0;
  return trace_tick_.fetch_add(1, std::memory_order_relaxed) % n == 0
             ? obs::next_trace_id()
             : 0;
}

void Gateway::record_slow_invoke(SlowInvoke entry) {
  std::lock_guard<std::mutex> lock(slow_mu_);
  if (slow_invokes_.size() >= kSlowInvokeRing) slow_invokes_.pop_front();
  slow_invokes_.push_back(std::move(entry));
}

std::uint64_t Gateway::placement_cost(const Slot& slot) {
  // Predicted completion of one more admission: every item ahead of it
  // (queued + executing) plus itself, each costing the slot's observed
  // EWMA service time. Bounded: depth <= queue capacity, EWMA < minutes,
  // no overflow.
  const std::uint64_t depth = slot.inflight.load(std::memory_order_relaxed);
  const std::uint64_t ewma = slot.ewma_invoke_ns.load(std::memory_order_relaxed);
  if (ewma == 0) {
    // Unsampled slot: probe it ahead of anything measured — but only
    // with a couple of items. No sample can land until the first probe
    // completes, so unbounded optimism would let one batch admission
    // pass pile lanes onto a fresh (possibly slow) board up to the whole
    // queue bound. Past the probes it scores as a middling ~1 ms board
    // until real samples take over.
    constexpr std::uint64_t kUnsampledServiceGuessNs = 1'000'000;
    return depth < 2 ? depth + 1 : (depth + 1) * kUnsampledServiceGuessNs;
  }
  return (depth + 1) * ewma;
}

std::vector<Gateway::Slot*> Gateway::placement_candidates(
    std::uint64_t affinity_hint) {
  std::vector<Slot*> order;
  {
    std::lock_guard<std::mutex> lock(backends_mu_);
    order = slot_order_;
  }
  const std::size_t n = order.size();
  // The session's warm slot leads the candidate list ONLY when idle:
  // following the hint into a queue would convoy every repeat invoke of a
  // hot session onto one slot and forfeit the pool.
  Slot* warm = nullptr;
  if (affinity_hint != 0 && affinity_hint <= n) {
    Slot* hinted = order[affinity_hint - 1];
    if (hinted->inflight.load(std::memory_order_relaxed) == 0) warm = hinted;
  }
  if (n < 2) {
    if (warm && !order.empty() && order.front() != warm)
      std::swap(order.front(), *std::find(order.begin(), order.end(), warm));
    return order;
  }

  // Sampled two-choice: probe two distinct slots round-robin and take
  // the cheaper by placement_cost (queue depth x EWMA slot latency,
  // then accumulated busy time, then global slot order) — O(1) instead
  // of a per-request sort, and provably near-optimal balance under load.
  const std::uint64_t tick = placement_tick_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t i = static_cast<std::size_t>(tick % n);
  const std::size_t j = (i + 1 + static_cast<std::size_t>((tick / n) % (n - 1))) % n;
  Slot* a = order[i];
  Slot* b = order[j];
  if (score_slot(*b) < score_slot(*a)) std::swap(a, b);

  // Spill-over tail in global slot order, so appraisal failures and full
  // queues walk the whole fleet rather than wedging the request.
  std::vector<Slot*> candidates;
  candidates.reserve(n);
  if (warm) candidates.push_back(warm);
  if (a != warm) candidates.push_back(a);
  if (b != warm) candidates.push_back(b);
  for (Slot* rest : order)
    if (rest != a && rest != b && rest != warm) candidates.push_back(rest);
  return candidates;
}

Gateway::ScoredSlot Gateway::score_slot(Slot& slot) {
  return ScoredSlot{placement_cost(slot),
                    slot.busy_ns.load(std::memory_order_relaxed),
                    slot.global_id, &slot};
}

// -- request handling --------------------------------------------------------

Result<Bytes> Gateway::handle_request(std::uint64_t conn, ByteView request) {
  auto op = peek_op(request);
  if (!op.ok()) return Result<Bytes>::err(op.error());
  switch (*op) {
    case Op::Attach: return handle_attach(conn, request);
    case Op::AttachBatch: return handle_attach_batch(conn, request);
    case Op::LoadModule: return handle_load_module(request);
    case Op::Invoke: return handle_invoke(request);
    case Op::InvokeBatch: return handle_invoke_batch(request);
    case Op::Stats: return handle_stats(request);
    case Op::Detach: return handle_detach(request);
    case Op::Submit: return handle_submit(request);
    case Op::Poll: return handle_poll(request);
  }
  return Result<Bytes>::err("gateway: unknown opcode");
}

Result<Bytes> Gateway::handle_attach(std::uint64_t conn, ByteView request) {
  auto req = AttachRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());
  // A plain attach is a batch of one: same fan-out, same merge, same
  // teardown semantics — only the response framing differs.
  auto batch = attach_sessions(conn, {req->client});
  if (!batch.ok()) return Result<Bytes>::err(batch.error());
  const AttachBatchResult& result = batch->results.front();
  if (!result.ok()) return Result<Bytes>::err(result.error);
  AttachResponse resp;
  resp.session_id = result.session_id;
  resp.devices_attested = result.devices_attested;
  resp.ra_exchanges = result.ra_exchanges;
  return ok_envelope(resp.encode());
}

Result<Bytes> Gateway::handle_attach_batch(std::uint64_t conn, ByteView request) {
  auto req = AttachBatchRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());
  auto resp = attach_sessions(conn, req->clients);
  if (!resp.ok()) return Result<Bytes>::err(resp.error());
  return ok_envelope(resp->encode());
}

Result<AttachBatchResponse> Gateway::attach_sessions(
    std::uint64_t conn, const std::vector<std::string>& clients) {
  using R = Result<AttachBatchResponse>;
  std::vector<Backend*> fleet;
  {
    std::lock_guard<std::mutex> lock(backends_mu_);
    fleet = backend_order_;
  }
  if (fleet.empty()) return R::err("gateway: no devices enrolled");

  const std::uint64_t now = hw::monotonic_ns();
  std::vector<SessionPtr> sessions;
  sessions.reserve(clients.size());
  for (const std::string& client : clients)
    sessions.push_back(sessions_.attach(client, now));

  // One forced work item per backend, on its control lane (slot 0): the
  // item runs a single batched protocol exchange covering EVERY session —
  // lane i is session i — so each device pays two RA round-trips for the
  // whole batch instead of two per session, and the fleet's batches run in
  // parallel across the backends' control lanes.
  struct DeviceLanes {
    std::uint32_t fabric_exchanges = 0;
    std::vector<Result<std::uint32_t>> lanes;  // RA exchanges per session
  };
  struct Fanned {
    Backend* backend = nullptr;
    std::shared_ptr<std::promise<DeviceLanes>> promise;
    std::future<DeviceLanes> future;
  };
  std::vector<Fanned> pending;
  for (Backend* backend : fleet) {
    auto promise = std::make_shared<std::promise<DeviceLanes>>();
    auto future = promise->get_future();
    Slot* control_lane = backend->slots.front().get();
    Status admitted = post(
        *control_lane,
        [this, backend, control_lane, sessions, promise](std::uint64_t) {
          DeviceLanes out;
          out.lanes.assign(sessions.size(),
                           Result<std::uint32_t>::err("gateway: shutting down"));
          if (!stopping_.load(std::memory_order_acquire)) {
            std::uint64_t boot_count = 0;
            {
              std::lock_guard<std::mutex> lock(backend->state_mu);
              boot_count = backend->boot_count;
            }
            auto batch = run_handshake_batch(*backend, sessions.size());
            if (!batch.ok()) {
              for (auto& lane : out.lanes)
                lane = Result<std::uint32_t>::err("gateway: " + backend->hostname +
                                                  " failed appraisal: " + batch.error());
            } else {
              out.fabric_exchanges = batch->fabric_exchanges;
              const std::uint64_t attested_at = hw::monotonic_ns();
              for (std::size_t i = 0; i < sessions.size(); ++i) {
                Result<attestation::Evidence>& lane = batch->lanes[i];
                if (!lane.ok()) {
                  out.lanes[i] = Result<std::uint32_t>::err(
                      "gateway: " + backend->hostname + " failed appraisal: " +
                      lane.error());
                  continue;
                }
                Status recorded = sessions_.record_attestation(
                    *sessions[i], backend->hostname, boot_count, attested_at,
                    std::move(*lane));
                out.lanes[i] = recorded.ok()
                                   ? Result<std::uint32_t>(kRaExchangesPerHandshake)
                                   : Result<std::uint32_t>::err(recorded.error());
              }
            }
          }
          control_lane->inflight.fetch_sub(1, std::memory_order_release);
          promise->set_value(std::move(out));
        },
        /*force=*/true);
    if (!admitted.ok()) {
      DeviceLanes failed;
      failed.lanes.assign(sessions.size(),
                          Result<std::uint32_t>::err(admitted.error()));
      promise->set_value(std::move(failed));
    }
    pending.push_back(Fanned{backend, std::move(promise), std::move(future)});
  }

  AttachBatchResponse resp;
  resp.results.resize(sessions.size());
  std::vector<std::string> last_error(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i)
    resp.results[i].session_id = sessions[i]->id;
  for (Fanned& fanned : pending) {
    DeviceLanes outcome = fanned.future.get();
    resp.ra_fabric_exchanges += outcome.fabric_exchanges;
    for (std::size_t i = 0; i < outcome.lanes.size(); ++i) {
      if (outcome.lanes[i].ok()) {
        ++resp.results[i].devices_attested;
        resp.results[i].ra_exchanges += *outcome.lanes[i];
      } else {
        last_error[i] = outcome.lanes[i].error();
      }
    }
  }

  // Partial success by design: a session no device would attest detaches
  // and reports its error at its index; its siblings attach normally.
  std::vector<std::uint64_t> attached;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (resp.results[i].devices_attested == 0) {
      sessions_.detach(sessions[i]->id);
      resp.results[i].session_id = 0;
      resp.results[i].error =
          "gateway: no device passed appraisal: " + last_error[i];
      continue;
    }
    attached.push_back(sessions[i]->id);
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    std::vector<std::uint64_t>& linked = conn_sessions_[conn];
    linked.insert(linked.end(), attached.begin(), attached.end());
  }
  return resp;
}

Result<Bytes> Gateway::handle_load_module(ByteView request) {
  auto req = LoadModuleRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());
  if (!sessions_.find(req->session_id))
    return Result<Bytes>::err("gateway: unknown session");

  LoadModuleResponse resp;
  resp.measurement = crypto::sha256(req->binary);
  std::lock_guard<std::mutex> lock(binaries_mu_);
  resp.already_registered = binaries_.contains(resp.measurement);
  if (!resp.already_registered)
    register_binary(resp.measurement, std::move(req->binary));
  return ok_envelope(resp.encode());
}

Result<std::future<Result<InvokeResponse>>> Gateway::post_invoke(
    Slot& slot, const SessionPtr& session, const InvokeRequest& request,
    obs::TraceContext trace) {
  const std::uint64_t admit_start = trace.active() ? hw::monotonic_ns() : 0;
  auto promise = std::make_shared<std::promise<Result<InvokeResponse>>>();
  auto future = promise->get_future();
  Status admitted = post(
      slot, [this, slot = &slot, session, request, trace,
             promise](std::uint64_t queue_delay_ns) {
        // Install the lane's trace for everything below this frame: the
        // cache, the monitors, the wasm executor and (via the fabric's
        // same-thread callback) the verifier shards all emit against it.
        obs::ScopedTrace scope(trace.active() ? &span_sink_ : nullptr,
                               trace.trace_id, trace.span_id);
        auto outcome = execute_invoke(*slot, session, request, queue_delay_ns);
        slot->inflight.fetch_sub(1, std::memory_order_release);
        promise->set_value(std::move(outcome));
      });
  if (!admitted.ok())
    return Result<std::future<Result<InvokeResponse>>>::err(admitted.error());
  if (trace.active()) {
    // Admission span, recorded by the dispatcher thread (the worker-side
    // thread trace is not installed here): placement + enqueue, ending at
    // the hand-off the Queue span picks up from.
    obs::SpanRecord span;
    span.trace_id = trace.trace_id;
    span.span_id = obs::next_span_id();
    span.parent_id = trace.span_id;
    span.start_ns = admit_start;
    span.dur_ns = hw::monotonic_ns() - admit_start;
    span.stage = obs::Stage::Admit;
    span.detail = static_cast<std::uint32_t>(slot.index);
    span_sink_.record(span);
  }
  return future;
}

Result<InvokeResponse> Gateway::dispatch_invoke_sync(const SessionPtr& session,
                                                     const InvokeRequest& request,
                                                     obs::TraceContext trace) {
  std::string last_error = "gateway: no devices enrolled";
  // Migration detection: remember the first device that failed appraisal;
  // a later success on a DIFFERENT device means this session was
  // transparently re-placed onto a live board (its evidence for the new
  // device is established by ensure_attested inside the work item).
  std::string failed_device;
  const std::uint64_t migrate_start = hw::monotonic_ns();
  for (Slot* slot : placement_candidates(
           session->affinity_slot.load(std::memory_order_relaxed))) {
    auto future = post_invoke(*slot, session, request, trace);
    if (!future.ok()) {
      last_error = future.error();
      continue;  // spill to the next candidate
    }
    auto result = future->get();
    if (result.ok()) {
      if (!failed_device.empty() && slot->backend->hostname != failed_device) {
        migrations_.add();
        if (trace.active()) {
          obs::SpanRecord span;
          span.trace_id = trace.trace_id;
          span.span_id = obs::next_span_id();
          span.parent_id = trace.span_id;
          span.start_ns = migrate_start;
          span.dur_ns = hw::monotonic_ns() - migrate_start;
          span.stage = obs::Stage::Migrate;
          span_sink_.record(span);
        }
      }
      return result;
    }
    last_error = result.error();
    // Trust decides placement: a device failing appraisal is skipped in
    // favour of the next candidate rather than wedging the session.
    if (!is_appraisal_failure(last_error))
      return Result<InvokeResponse>::err(last_error);
    if (failed_device.empty()) failed_device = slot->backend->hostname;
  }
  // Whatever the spill path visited, a QUEUE_FULL terminal answer means
  // the client was bounced with backpressure: count it.
  if (is_queue_full(last_error)) queue_full_rejections_.add();
  return Result<InvokeResponse>::err(last_error);
}

Result<Bytes> Gateway::handle_invoke(ByteView request) {
  auto req = InvokeRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());
  SessionPtr session = sessions_.find(req->session_id);
  if (!session) return Result<Bytes>::err("gateway: unknown session");

  // Memo fast path: an identical invoke executed within the TTL and the
  // trust gate passes (fresh evidence for the executing device, or this
  // session produced the result itself) — answer without entering a
  // sandbox. This is what makes a transport-level retry after a dropped
  // or stalled response idempotent: the replayed request redeems the
  // memoised result instead of executing a second time.
  if (config_.invoke_memo_ttl_ns != 0) {
    if (auto hit = memo_lookup(*session, *req)) {
      session->invocations.fetch_add(1, std::memory_order_relaxed);
      return ok_envelope(hit->encode());
    }
  }

  obs::TraceContext trace;
  trace.trace_id = maybe_trace(req->trace_id);
  if (trace.active()) trace.span_id = obs::next_span_id();

  auto result = dispatch_invoke_sync(session, *req, trace);
  if (!result.ok()) {
    if (is_queue_full(result.error())) return busy_envelope(result.error());
    return Result<Bytes>::err(result.error());
  }
  if (!trace.active()) return ok_envelope(result->encode());
  const std::uint64_t respond_start = hw::monotonic_ns();
  auto payload = ok_envelope(result->encode());
  obs::SpanRecord span;
  span.trace_id = trace.trace_id;
  span.span_id = obs::next_span_id();
  span.parent_id = trace.span_id;
  span.start_ns = respond_start;
  span.dur_ns = hw::monotonic_ns() - respond_start;
  span.stage = obs::Stage::Respond;
  span_sink_.record(span);
  return payload;
}

Result<Bytes> Gateway::handle_invoke_batch(ByteView request) {
  auto req = InvokeBatchRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());

  InvokeBatchResponse resp;
  resp.results.resize(req->lanes.size());

  // One trace decision covers the whole batch — every traced lane shares
  // the trace_id (its own root span), so the fan renders as ONE flame
  // graph. A client-supplied lane id adopts the batch into that trace.
  std::uint64_t wire_trace = 0;
  for (const InvokeBatchRequest::Lane& lane : req->lanes)
    if (lane.invoke.trace_id != 0) {
      wire_trace = lane.invoke.trace_id;
      break;
    }
  const std::uint64_t batch_trace = maybe_trace(wire_trace);

  // One admission pass over one fleet snapshot: every lane is bound to
  // the cheapest SLOT by placement_cost. Because post() bumps inflight
  // at admission, lane k's pick already accounts for lanes 0..k-1 — the
  // fan spreads by predicted completion time, not by hash. The common
  // case is one O(slots) min-element per lane; only a full queue pays a
  // sort to spill down the cost order. Futures are collected first and
  // awaited after the whole pass, so the lanes execute concurrently
  // across the slot workers.
  //
  // Cross-lane dedup: lanes sharing (measurement, entry, args, heap)
  // execute once per batch — the first admitted lane is the LEADER, and a
  // later twin whose session already holds fresh evidence for the
  // leader's device becomes a RIDER: it is never admitted, it just fans
  // the leader's result (the freshness gate keeps the trust decision per
  // session — a rider with stale evidence executes normally and pays its
  // own handshake).
  std::vector<Slot*> fleet;
  {
    std::lock_guard<std::mutex> lock(backends_mu_);
    fleet = slot_order_;
  }
  struct PendingLane {
    std::size_t index = 0;
    SessionPtr session;
    std::future<Result<InvokeResponse>> future;
    std::string device;            ///< hostname the leader was admitted to
    std::uint64_t boot_count = 0;  ///< at admission (freshness gate)
    std::vector<std::size_t> riders;  ///< lane indexes riding this result
    obs::TraceContext trace;          ///< batch trace_id + this lane's root
  };
  std::vector<PendingLane> pending;
  pending.reserve(req->lanes.size());
  std::map<std::string, std::size_t> leaders;  // dedup key -> pending index
  for (std::size_t i = 0; i < req->lanes.size(); ++i) {
    const InvokeBatchRequest::Lane& lane = req->lanes[i];
    resp.results[i].lane = lane.lane;
    SessionPtr session = sessions_.find(lane.invoke.session_id);
    if (!session) {
      resp.results[i].error = "gateway: unknown session";
      continue;
    }
    // Memo fast path, per lane: a lane whose invoke executed within the
    // TTL (and whose session passes the trust gate) is answered at
    // admission — it never becomes a leader or a rider. This is what
    // makes client-side retry of REPORTED-FAILED lanes idempotent: a lane
    // whose first delivery executed but whose response was lost re-enters
    // here and redeems the memo instead of executing again.
    if (config_.invoke_memo_ttl_ns != 0) {
      if (auto hit = memo_lookup(*session, lane.invoke)) {
        session->invocations.fetch_add(1, std::memory_order_relaxed);
        resp.results[i].result = std::move(*hit);
        continue;
      }
    }
    const std::string key = invoke_dedup_key(lane.invoke);
    const auto leader = leaders.find(key);
    if (leader != leaders.end()) {
      PendingLane& lead = pending[leader->second];
      if (sessions_.has_fresh(*session, lead.device, lead.boot_count,
                              hw::monotonic_ns())) {
        lead.riders.push_back(i);
        continue;
      }
    }
    obs::TraceContext lane_trace;
    if (batch_trace != 0) {
      lane_trace.trace_id = batch_trace;
      lane_trace.span_id = obs::next_span_id();
    }
    std::string last_error = "gateway: no devices enrolled";
    bool admitted = false;
    if (!fleet.empty()) {
      std::vector<ScoredSlot> scored;
      scored.reserve(fleet.size());
      for (Slot* slot : fleet) scored.push_back(score_slot(*slot));
      // Common case: the cheapest slot admits (one O(slots) scan).
      // Only a full queue pays the sort to spill down the cost order.
      auto best = std::min_element(scored.begin(), scored.end());
      std::iter_swap(scored.begin(), best);
      std::size_t chosen = 0;
      auto future =
          post_invoke(*scored.front().slot, session, lane.invoke, lane_trace);
      if (!future.ok()) {
        last_error = future.error();
        std::sort(scored.begin() + 1, scored.end());
        for (std::size_t s = 1; s < scored.size(); ++s) {
          auto retry =
              post_invoke(*scored[s].slot, session, lane.invoke, lane_trace);
          if (!retry.ok()) {
            last_error = retry.error();
            continue;
          }
          future = std::move(retry);
          chosen = s;
          break;
        }
      }
      if (future.ok()) {
        PendingLane entry;
        entry.index = i;
        entry.session = session;
        entry.future = std::move(*future);
        entry.trace = lane_trace;
        Backend* backend = scored[chosen].slot->backend;
        entry.device = backend->hostname;
        {
          std::lock_guard<std::mutex> lock(backend->state_mu);
          entry.boot_count = backend->boot_count;
        }
        leaders.try_emplace(key, pending.size());
        pending.push_back(std::move(entry));
        admitted = true;
      }
    }
    if (!admitted) {
      // Total backpressure (or an empty fleet) fails THIS lane only; its
      // siblings were already admitted and proceed. The client sees the
      // failed index and owns the retry.
      if (is_queue_full(last_error)) queue_full_rejections_.add();
      resp.results[i].error = last_error;
    }
  }

  for (PendingLane& lane : pending) {
    auto outcome = lane.future.get();
    bool rerouted = false;
    if (!outcome.ok() && is_appraisal_failure(outcome.error())) {
      // Trust decides placement, on the batch path too: a lane that
      // landed on a device failing appraisal is re-dispatched through the
      // sync path, which skips appraisal failures candidate by candidate
      // (same invariant as dispatch_invoke_sync for plain INVOKE). Rare —
      // paid only by the affected lanes, after the healthy fan completed.
      outcome = dispatch_invoke_sync(lane.session, req->lanes[lane.index].invoke,
                                     lane.trace);
      rerouted = true;
    }
    const std::uint64_t respond_start =
        lane.trace.active() ? hw::monotonic_ns() : 0;
    if (outcome.ok() && !rerouted) {
      // Riders fan the leader's execution: same results, zero RA traffic
      // of their own (the freshness gate at admission guaranteed their
      // evidence).
      for (const std::size_t rider : lane.riders) {
        InvokeResponse copy = *outcome;
        copy.ra_exchanges = 0;
        resp.results[rider].result = std::move(copy);
      }
      if (!lane.riders.empty()) deduped_lanes_.add(lane.riders.size());
    } else {
      // A failed OR re-routed leader never speaks for its riders: the
      // re-dispatch may have executed on a different device than the one
      // the riders were freshness-gated against, so each rider re-enters
      // the normal dispatch path alone — where ensure_attested makes its
      // own per-session trust decision. Rare — the price of a trap or an
      // appraisal failure, not of the happy path.
      for (const std::size_t rider : lane.riders) {
        SessionPtr rider_session =
            sessions_.find(req->lanes[rider].invoke.session_id);
        auto redo = rider_session
                        ? dispatch_invoke_sync(rider_session,
                                               req->lanes[rider].invoke)
                        : Result<InvokeResponse>::err("gateway: unknown session");
        if (redo.ok())
          resp.results[rider].result = std::move(*redo);
        else
          resp.results[rider].error = redo.error();
      }
    }
    if (outcome.ok())
      resp.results[lane.index].result = std::move(*outcome);
    else
      resp.results[lane.index].error = outcome.error();
    if (lane.trace.active()) {
      // Per-lane Respond span: rider fan + result fold back into the
      // batch response (the whole-batch encode is not attributable to one
      // lane, so it stays outside the trace).
      obs::SpanRecord span;
      span.trace_id = lane.trace.trace_id;
      span.span_id = obs::next_span_id();
      span.parent_id = lane.trace.span_id;
      span.start_ns = respond_start;
      span.dur_ns = hw::monotonic_ns() - respond_start;
      span.stage = obs::Stage::Respond;
      span_sink_.record(span);
    }
  }
  return ok_envelope(resp.encode());
}

Result<Bytes> Gateway::handle_submit(ByteView request) {
  auto req = SubmitRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());
  SessionPtr session = sessions_.find(req->invoke.session_id);
  if (!session) return Result<Bytes>::err("gateway: unknown session");

  // Memo fast path: an identical invoke executed within the TTL and this
  // session trusts the device that ran it — hand out a pre-satisfied
  // ticket, no admission, no sandbox. POLL redeems it like any other.
  if (config_.invoke_memo_ttl_ns != 0) {
    if (auto hit = memo_lookup(*session, req->invoke)) {
      std::promise<Result<InvokeResponse>> ready;
      ready.set_value(std::move(*hit));
      const std::uint64_t ticket =
          next_ticket_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(pending_mu_);
        pending_[ticket] = PendingInvoke{session->id, ready.get_future()};
      }
      session->invocations.fetch_add(1, std::memory_order_relaxed);
      SubmitResponse resp;
      resp.ticket = ticket;
      return ok_envelope(resp.encode());
    }
  }

  obs::TraceContext trace;
  trace.trace_id = maybe_trace(req->invoke.trace_id);
  if (trace.active()) trace.span_id = obs::next_span_id();

  std::string last_error = "gateway: no devices enrolled";
  for (Slot* slot : placement_candidates(
           session->affinity_slot.load(std::memory_order_relaxed))) {
    auto future = post_invoke(*slot, session, req->invoke, trace);
    if (!future.ok()) {
      last_error = future.error();
      continue;  // spill past full queues
    }
    const std::uint64_t ticket =
        next_ticket_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending_[ticket] = PendingInvoke{session->id, std::move(*future)};
    }
    SubmitResponse resp;
    resp.ticket = ticket;
    return ok_envelope(resp.encode());
  }
  if (is_queue_full(last_error)) {
    queue_full_rejections_.add();
    return busy_envelope(last_error);
  }
  return Result<Bytes>::err(last_error);
}

Result<Bytes> Gateway::handle_poll(ByteView request) {
  auto req = PollRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());

  PollResponse resp;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    const auto it = pending_.find(req->ticket);
    if (it == pending_.end())
      return Result<Bytes>::err("gateway: unknown ticket");
    if (it->second.session_id != req->session_id)
      return Result<Bytes>::err("gateway: ticket belongs to another session");
    if (it->second.result.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
      return ok_envelope(resp.encode());  // ready == false: poll again
    auto result = it->second.result.get();
    pending_.erase(it);
    resp.ready = true;
    if (result.ok())
      resp.result = std::move(*result);
    else
      resp.error = result.error();
  }
  return ok_envelope(resp.encode());
}

// Runs on the slot's worker thread. The guest executes on the SLOT's
// monitor (data plane, concurrent across the pool); only a lazy handshake
// detours through the device's primary monitor, serialised inside
// run_handshake on the DeviceControl TEE mutex. Lock discipline
// (DESIGN.md §2): session.mu and cache.mu are leaves; neither is held
// across the guest invoke below.
Result<InvokeResponse> Gateway::execute_invoke(Slot& slot,
                                               const SessionPtr& session,
                                               const InvokeRequest& request,
                                               std::uint64_t queue_delay_ns) {
  using R = Result<InvokeResponse>;
  Backend& backend = *slot.backend;
  if (stopping_.load(std::memory_order_acquire)) return R::err("gateway: shutting down");
  if (session->closed.load(std::memory_order_acquire))
    return R::err("gateway: session detached");

  const bool traced = obs::tracing_active();
  const bool slow_log = config_.slow_invoke_threshold_ns != 0;
  const std::uint64_t pickup_ns =
      (traced || slow_log) ? hw::monotonic_ns() : 0;
  if (traced)
    // The Queue span is reconstructed from the admission stamp the work
    // item carried: it ended at pickup and lasted the measured delay.
    obs::emit_span(obs::Stage::Queue,
                   pickup_ns - std::min(queue_delay_ns, pickup_ns), pickup_ns,
                   static_cast<std::uint32_t>(slot.index));

  std::shared_ptr<ModuleCache> cache;
  std::shared_ptr<core::DeviceControl> control;
  std::uint64_t boot_count = 0;
  {
    std::lock_guard<std::mutex> lock(backend.state_mu);
    cache = backend.cache;
    control = backend.control;
    boot_count = backend.boot_count;
  }
  const std::string& hostname = backend.hostname;

  // Trust first: the session must hold fresh evidence for this device
  // (free when cached; a TTL/boot-count miss re-runs the handshake).
  const std::uint64_t ra_start = hw::monotonic_ns();
  auto exchanges = sessions_.ensure_attested(
      *session, hostname, boot_count, ra_start,
      [&] { return run_handshake(backend); });
  if (!exchanges.ok()) return R::err(exchanges.error());
  std::uint64_t ra_ns = 0;
  if (*exchanges > 0) {
    // Only a lazy handshake on the critical path counts as RA latency; a
    // fresh-evidence hit is the amortisation working as intended.
    ra_ns = hw::monotonic_ns() - ra_start;
    stage_ra_hist_.record(ra_ns);
    if (traced) obs::emit_span(obs::Stage::Ra, ra_start, ra_start + ra_ns);
  }

  // Every admission refreshes the binary's registry LRU, so a module the
  // cache keeps serving does not age out of the registry while tenants
  // upload (its next cold miss would find no binary). The bytes are copied
  // out only on a cold miss, so the worker never holds a view into a
  // registry another client may be evicting.
  const Bytes binary =
      use_binary(request.measurement, !cache->contains(request.measurement));

  core::AppConfig app_config;
  app_config.heap_bytes = request.heap_bytes
                              ? static_cast<std::size_t>(request.heap_bytes)
                              : config_.default_heap_bytes;
  // The lease is bound to THIS slot's monitor: pool hits only ever reuse
  // an instance this slot parked, so no sandbox is driven by two threads.
  tz::SecureMonitor& slot_monitor = control->slot(slot.index).monitor();
  const std::uint64_t enters_before = slot_monitor.enter_count();
  const std::uint64_t leaves_before = slot_monitor.leave_count();
  const std::uint64_t acquire_start = hw::monotonic_ns();
  auto lease = cache->acquire(request.measurement, binary, app_config,
                              &slot_monitor);
  if (!lease.ok()) return R::err(lease.error());
  const std::uint64_t acquire_end = hw::monotonic_ns();
  if (traced)
    // A pool hit is a Checkout (nothing launched); anything that paid
    // instantiation — cold or module-cached — renders as Prepare.
    obs::emit_span(lease->pool_hit ? obs::Stage::Checkout : obs::Stage::Prepare,
                   acquire_start, acquire_end);

  const std::uint64_t t0 = hw::monotonic_ns();
  auto result = lease->app->invoke(request.entry, request.args);
  const std::uint64_t invoke_ns = hw::monotonic_ns() - t0;
  stage_exec_hist_.record(invoke_ns);
  if (traced) obs::emit_span(obs::Stage::Exec, t0, t0 + invoke_ns);

  const std::uint64_t service_ns = lease->launch_ns + invoke_ns;
  slot.busy_ns.fetch_add(service_ns, std::memory_order_relaxed);
  // EWMA (alpha = 1/8) of the slot's per-invoke service time, feeding
  // placement_cost. Plain load/store: only this slot's worker thread
  // ever writes it (atomic only for the cross-thread placement reads).
  const std::uint64_t prev_ewma =
      slot.ewma_invoke_ns.load(std::memory_order_relaxed);
  slot.ewma_invoke_ns.store(
      prev_ewma ? prev_ewma - prev_ewma / 8 + service_ns / 8 : service_ns,
      std::memory_order_relaxed);
  slot.invocations.fetch_add(1, std::memory_order_relaxed);
  invocations_.add();
  session->invocations.fetch_add(1, std::memory_order_relaxed);
  // Soft affinity: the next invoke of this session prefers this slot while
  // it sits idle — its warm pool now holds the instance released below.
  session->affinity_slot.store(slot.global_id + 1, std::memory_order_relaxed);

  if (slow_log) {
    const std::uint64_t end_ns = hw::monotonic_ns();
    const std::uint64_t total_ns = queue_delay_ns + (end_ns - pickup_ns);
    if (total_ns >= config_.slow_invoke_threshold_ns) {
      // World-switch time is reconstructed from the slot monitor's
      // transition counters (written only by this thread) times the
      // configured charges — the modeled truth, free of clock jitter.
      // A disabled latency model charges nothing, so reports nothing.
      const hw::LatencyConfig& charge = slot_monitor.latency().config();
      SlowInvoke slow;
      slow.trace_id = obs::thread_trace().trace_id;
      slow.total_ns = total_ns;
      slow.queue_ns = queue_delay_ns;
      slow.prepare_ns = acquire_end - acquire_start;
      if (charge.enabled)
        slow.tee_ns =
            (slot_monitor.enter_count() - enters_before) * charge.smc_enter_ns +
            (slot_monitor.leave_count() - leaves_before) * charge.smc_leave_ns;
      slow.exec_ns = invoke_ns;
      slow.ra_ns = ra_ns;
      slow.device = hostname;
      slow.entry = request.entry;
      record_slow_invoke(std::move(slow));
    }
  }

  if (!result.ok()) return R::err("gateway: " + result.error());
  // Only clean exits go back to the warm pool; trapped instances are torn
  // down with their sandbox state (the lease forfeits its live pin).
  cache->release(std::move(lease->app));

  InvokeResponse resp;
  resp.results = std::move(*result);
  resp.device = hostname;
  resp.module_cache_hit = lease->module_cache_hit;
  resp.pool_hit = lease->pool_hit;
  resp.launch_ns = lease->launch_ns;
  resp.invoke_ns = invoke_ns;
  resp.ra_exchanges = *exchanges;
  resp.queue_delay_ns = queue_delay_ns;
  resp.trace_id = obs::thread_trace().trace_id;
  // Feed the result memo: a twin submitted within the TTL by any session
  // trusting this device rides this execution instead of its own — and a
  // chaos-replayed delivery of THIS request redeems it instead of
  // executing again.
  if (config_.invoke_memo_ttl_ns != 0)
    memo_store(request, resp, hostname, boot_count, session->id);
  return resp;
}

std::optional<InvokeResponse> Gateway::memo_lookup(Session& session,
                                                   const InvokeRequest& request) {
  const std::uint64_t now = hw::monotonic_ns();
  const std::string key = invoke_dedup_key(request);
  auto hit = memo_.lookup(key, now, config_.invoke_memo_ttl_ns);
  if (!hit) return std::nullopt;
  InvokeMemo::Entry entry = std::move(*hit);
  // Trust gate, decided OUTSIDE the memo lock (has_fresh takes the
  // session lock; the memo's mutex stays a leaf):
  //   * the producer redeeming its OWN result needs no freshness check —
  //     the result was produced under evidence fresh at execution time,
  //     and the TTL bounds the redemption window. This is the replay
  //     absorber: after a dropped/stalled response (or even a device
  //     reboot that bumped the boot count), the producer's retry is
  //     answered from the memo instead of executing a second time;
  //   * any OTHER session must hold fresh evidence for the device (at the
  //     boot count) that produced the result — the same per-session trust
  //     gate as an INVOKE_BATCH rider.
  const bool producer = entry.producer_session == session.id;
  if (!producer &&
      !sessions_.has_fresh(session, entry.device, entry.boot_count, now))
    return std::nullopt;
  memo_.note_hit(key, now);
  invoke_memo_hits_.add();
  entry.response.ra_exchanges = 0;
  entry.response.queue_delay_ns = 0;
  entry.response.trace_id = 0;
  return std::move(entry.response);
}

void Gateway::memo_store(const InvokeRequest& request,
                         const InvokeResponse& response,
                         const std::string& device, std::uint64_t boot_count,
                         std::uint64_t producer_session) {
  InvokeMemo::Entry entry;
  entry.response = response;
  entry.device = device;
  entry.boot_count = boot_count;
  entry.producer_session = producer_session;
  memo_.store(invoke_dedup_key(request), std::move(entry), hw::monotonic_ns());
}

Result<attestation::Evidence> Gateway::run_handshake(Backend& backend) {
  using Ev = Result<attestation::Evidence>;
  const std::string& hostname = backend.hostname;
  core::Device* device_snapshot = nullptr;
  std::shared_ptr<core::DeviceControl> control;
  std::shared_ptr<crypto::Fortuna> rng;
  crypto::Sha256Digest claim;
  {
    std::lock_guard<std::mutex> lock(backend.state_mu);
    device_snapshot = backend.device;
    control = backend.control;
    rng = backend.attester_rng;
    claim = backend.platform_claim;
  }
  core::Device& device = *device_snapshot;
  // The attester state machine runs inside the device's TEE on its PRIMARY
  // monitor (control plane): concurrent slot workers needing a handshake
  // serialise on the DeviceControl TEE mutex — guest invokes on the slot
  // monitors are untouched. The attester's socket calls are relayed by the
  // supplicant across the fabric to the gateway's RA endpoint (exactly the
  // SS V deployment, with the gateway as relying party).
  std::lock_guard<std::mutex> tee_lock(control->tee_mutex());
  return device.monitor().smc_call([&]() -> Ev {
    optee::Supplicant* supplicant = device.os().supplicant();
    if (!supplicant) return Ev::err("gateway: " + hostname + ": no supplicant");

    ra::AttesterSession attester(*rng, verifier_->identity_key());
    auto conn = supplicant->socket_connect(config_.hostname, config_.ra_port);
    if (!conn.ok()) return Ev::err(conn.error());
    struct CloseGuard {
      optee::Supplicant* s;
      std::uint32_t handle;
      ~CloseGuard() { s->socket_close(handle); }
    } guard{supplicant, *conn};

    auto msg1 = supplicant->socket_send_recv(*conn, attester.make_msg0());
    if (!msg1.ok()) return Ev::err(msg1.error());

    attestation::Evidence evidence;
    auto msg2 = attester.handle_msg1(
        *msg1, [&](const std::array<std::uint8_t, 32>& anchor) {
          evidence = device.attestation_service().issue_evidence(anchor, claim);
          return evidence;
        });
    if (!msg2.ok()) return Ev::err(msg2.error());

    auto msg3 = supplicant->socket_send_recv(*conn, *msg2);
    if (!msg3.ok()) return Ev::err(msg3.error());  // verifier rejected the device
    auto ticket = attester.handle_msg3(*msg3);
    if (!ticket.ok()) return Ev::err(ticket.error());
    return evidence;
  });
}

Result<Gateway::BatchHandshake> Gateway::run_handshake_batch(Backend& backend,
                                                             std::size_t lanes) {
  using R = Result<BatchHandshake>;
  const std::string& hostname = backend.hostname;
  core::Device* device_snapshot = nullptr;
  std::shared_ptr<core::DeviceControl> control;
  std::shared_ptr<crypto::Fortuna> rng;
  crypto::Sha256Digest claim;
  {
    std::lock_guard<std::mutex> lock(backend.state_mu);
    device_snapshot = backend.device;
    control = backend.control;
    rng = backend.attester_rng;
    claim = backend.platform_claim;
  }
  core::Device& device = *device_snapshot;
  // One TEE entry covers the whole batch: `lanes` attester state machines
  // advance in lockstep, and each protocol step crosses the fabric ONCE as
  // a batch frame (ra/messages.hpp) instead of once per session. Control
  // plane: the primary monitor, serialised on the DeviceControl TEE mutex
  // against lazy per-slot handshakes.
  std::lock_guard<std::mutex> tee_lock(control->tee_mutex());
  return device.monitor().smc_call([&]() -> R {
    optee::Supplicant* supplicant = device.os().supplicant();
    if (!supplicant) return R::err("gateway: " + hostname + ": no supplicant");

    BatchHandshake out;
    out.lanes.assign(lanes, Result<attestation::Evidence>::err(
                                "gateway: " + hostname + ": no verifier reply"));

    std::vector<ra::AttesterSession> attesters;
    attesters.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i)
      attesters.emplace_back(*rng, verifier_->identity_key());

    auto conn = supplicant->socket_connect(config_.hostname, config_.ra_port);
    if (!conn.ok()) return R::err(conn.error());
    struct CloseGuard {
      optee::Supplicant* s;
      std::uint32_t handle;
      ~CloseGuard() { s->socket_close(handle); }
    } guard{supplicant, *conn};

    // Round-trip 1: every lane's msg0 in one exchange, msg1s back.
    std::vector<ra::BatchItem> msg0s;
    msg0s.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i)
      msg0s.push_back(
          ra::BatchItem{static_cast<std::uint32_t>(i), attesters[i].make_msg0()});
    auto reply1 = supplicant->socket_send_recv(*conn, ra::encode_batch(msg0s));
    if (!reply1.ok()) return R::err(reply1.error());
    ++out.fabric_exchanges;
    auto msg1s = ra::decode_batch_reply(*reply1);
    if (!msg1s.ok()) return R::err(msg1s.error());

    // Evidence is issued per lane while consuming msg1 (the anchor binds it
    // to that lane's session); failed lanes drop out of round-trip 2.
    std::vector<attestation::Evidence> evidences(lanes);
    std::vector<bool> alive(lanes, false);
    std::vector<ra::BatchItem> msg2s;
    for (const ra::BatchReplyItem& item : *msg1s) {
      if (item.lane >= lanes) continue;  // not a lane we opened
      if (!item.ok) {
        out.lanes[item.lane] = Result<attestation::Evidence>::err(item.error);
        continue;
      }
      auto msg2 = attesters[item.lane].handle_msg1(
          item.payload, [&](const std::array<std::uint8_t, 32>& anchor) {
            evidences[item.lane] =
                device.attestation_service().issue_evidence(anchor, claim);
            return evidences[item.lane];
          });
      if (!msg2.ok()) {
        out.lanes[item.lane] = Result<attestation::Evidence>::err(msg2.error());
        continue;
      }
      msg2s.push_back(ra::BatchItem{item.lane, std::move(*msg2)});
      alive[item.lane] = true;
    }
    if (msg2s.empty()) return out;  // every lane failed before appraisal

    // Round-trip 2: surviving msg2s; per-lane msg3 or appraisal rejection.
    auto reply2 = supplicant->socket_send_recv(*conn, ra::encode_batch(msg2s));
    if (!reply2.ok()) return R::err(reply2.error());
    ++out.fabric_exchanges;
    auto msg3s = ra::decode_batch_reply(*reply2);
    if (!msg3s.ok()) return R::err(msg3s.error());
    for (const ra::BatchReplyItem& item : *msg3s) {
      if (item.lane >= lanes || !alive[item.lane]) continue;
      if (!item.ok) {
        out.lanes[item.lane] = Result<attestation::Evidence>::err(item.error);
        continue;
      }
      auto ticket = attesters[item.lane].handle_msg3(item.payload);
      if (!ticket.ok()) {
        out.lanes[item.lane] = Result<attestation::Evidence>::err(ticket.error());
        continue;
      }
      out.lanes[item.lane] = std::move(evidences[item.lane]);
    }
    return out;
  });
}

// -- evidence renewal --------------------------------------------------------

std::size_t Gateway::sweep_evidence_renewals() {
  const std::uint64_t ttl = config_.session_policy.evidence_ttl_ns;
  if (ttl == ~0ull) return 0;  // infinite TTL: nothing ever goes stale
  // Renew at ~80% of the TTL: early enough that the batch completes before
  // expiry, late enough not to double the handshake rate.
  const std::uint64_t threshold = ttl - ttl / 5;

  std::vector<Backend*> fleet;
  {
    std::lock_guard<std::mutex> lock(backends_mu_);
    fleet = backend_order_;
  }
  // Fan first, collect second (the attach_sessions shape): one forced
  // control-lane item per device, reusing the batched handshake machinery
  // — all N sessions re-prove in 2 fabric round-trips per device, and the
  // DEVICES renew in parallel. Waiting inside the loop would serialise
  // the fleet and let late-ordered devices' evidence lapse before the
  // sweep reaches them.
  std::vector<std::future<std::size_t>> fanned;
  for (Backend* backend : fleet) {
    std::uint64_t boot_count = 0;
    {
      std::lock_guard<std::mutex> lock(backend->state_mu);
      boot_count = backend->boot_count;
    }
    auto due = sessions_.renewal_candidates(backend->hostname, boot_count,
                                            hw::monotonic_ns(), threshold);
    if (due.empty()) continue;

    auto promise = std::make_shared<std::promise<std::size_t>>();
    auto future = promise->get_future();
    Slot* control_lane = backend->slots.front().get();
    Status admitted = post(
        *control_lane,
        [this, backend, control_lane, due, promise](std::uint64_t) {
          std::size_t renewed = 0;
          if (!stopping_.load(std::memory_order_acquire)) {
            std::uint64_t boot = 0;
            {
              std::lock_guard<std::mutex> lock(backend->state_mu);
              boot = backend->boot_count;
            }
            auto batch = run_handshake_batch(*backend, due.size());
            if (batch.ok()) {
              const std::uint64_t attested_at = hw::monotonic_ns();
              for (std::size_t i = 0; i < due.size(); ++i) {
                if (!batch->lanes[i].ok()) continue;
                if (sessions_
                        .record_attestation(*due[i], backend->hostname, boot,
                                            attested_at,
                                            std::move(*batch->lanes[i]))
                        .ok())
                  ++renewed;
              }
            }
          }
          control_lane->inflight.fetch_sub(1, std::memory_order_release);
          promise->set_value(renewed);
        },
        /*force=*/true);
    if (admitted.ok()) fanned.push_back(std::move(future));
  }
  std::size_t renewed_total = 0;
  for (std::future<std::size_t>& future : fanned) renewed_total += future.get();
  if (renewed_total) evidence_renewals_.add(renewed_total);
  return renewed_total;
}

std::size_t Gateway::sweep_module_prewarms() {
  // Snapshot the registered binaries once (copies — a worker must never
  // hold a view into a registry another client may be evicting), then fan
  // one forced control-lane item per backend, each preparing whatever its
  // cache does not hold yet, and collect. The prepares run on the
  // backends' control lanes CONCURRENTLY across the fleet; within one
  // device they serialise behind that device's control-plane work, which
  // is exactly where a Loading-phase burn belongs (never on a data slot
  // mid-storm).
  std::vector<std::pair<crypto::Sha256Digest, Bytes>> binaries;
  {
    std::lock_guard<std::mutex> lock(binaries_mu_);
    binaries.reserve(binaries_.size());
    for (const auto& [measurement, registered] : binaries_)
      binaries.emplace_back(measurement, registered.bytes);
  }
  if (binaries.empty()) return 0;
  std::vector<Backend*> fleet;
  {
    std::lock_guard<std::mutex> lock(backends_mu_);
    fleet = backend_order_;
  }
  const wasm::ExecMode mode = core::AppConfig{}.mode;
  std::vector<std::future<std::size_t>> fanned;
  for (Backend* backend : fleet) {
    auto promise = std::make_shared<std::promise<std::size_t>>();
    auto future = promise->get_future();
    Slot* control_lane = backend->slots.front().get();
    Status admitted = post(
        *control_lane,
        [this, backend, control_lane, binaries, mode, promise](std::uint64_t) {
          std::size_t prepared = 0;
          if (!stopping_.load(std::memory_order_acquire)) {
            std::shared_ptr<ModuleCache> cache;
            {
              std::lock_guard<std::mutex> lock(backend->state_mu);
              cache = backend->cache;
            }
            if (cache) {
              for (const auto& [measurement, binary] : binaries) {
                if (cache->contains(measurement)) continue;
                if (cache->prepare(measurement, binary, mode).ok()) ++prepared;
              }
            }
          }
          control_lane->inflight.fetch_sub(1, std::memory_order_release);
          promise->set_value(prepared);
        },
        /*force=*/true);
    if (admitted.ok()) fanned.push_back(std::move(future));
  }
  std::size_t prepared_total = 0;
  for (std::future<std::size_t>& future : fanned) prepared_total += future.get();
  if (prepared_total) prewarm_prepares_.add(prepared_total);
  return prepared_total;
}

void Gateway::renewal_loop() {
  const std::uint64_t ttl = config_.session_policy.evidence_ttl_ns;
  const bool renew_evidence = config_.evidence_renewal && ttl != ~0ull;
  std::uint64_t interval = config_.renewal_interval_ns;
  if (interval == 0)
    // Several sweeps per TTL; with no TTL to chase (prewarm-only duty) a
    // fixed cadence keeps newly registered binaries from waiting long.
    interval = renew_evidence ? ttl / 5 : 10'000'000;
  if (interval < 100'000) interval = 100'000;  // floor: don't spin
  std::unique_lock<std::mutex> lock(renew_mu_);
  while (!renew_stop_) {
    renew_cv_.wait_for(lock, std::chrono::nanoseconds(interval),
                       [&] { return renew_stop_; });
    if (renew_stop_) return;
    lock.unlock();
    if (renew_evidence) sweep_evidence_renewals();
    if (config_.module_prewarm) sweep_module_prewarms();
    lock.lock();
  }
}

// -- binary registry ---------------------------------------------------------

Bytes Gateway::use_binary(const crypto::Sha256Digest& measurement, bool copy) {
  std::lock_guard<std::mutex> lock(binaries_mu_);
  const auto it = binaries_.find(measurement);
  if (it == binaries_.end()) return {};
  it->second.last_used = ++binaries_tick_;
  return copy ? it->second.bytes : Bytes{};
}

void Gateway::register_binary(const crypto::Sha256Digest& measurement, Bytes binary) {
  // The normal-world registry is budgeted like the secure-side caches:
  // least-recently-used binaries are dropped to make room (an evicted
  // binary simply has to be re-uploaded before its next cold miss).
  while (!binaries_.empty() &&
         binaries_bytes_ + binary.size() > config_.binary_registry_budget_bytes) {
    auto victim = binaries_.begin();
    for (auto it = binaries_.begin(); it != binaries_.end(); ++it)
      if (it->second.last_used < victim->second.last_used) victim = it;
    binaries_bytes_ -= victim->second.bytes.size();
    binaries_.erase(victim);
  }
  binaries_bytes_ += binary.size();
  binaries_.emplace(measurement,
                    RegisteredBinary{std::move(binary), ++binaries_tick_});
}

// -- session teardown --------------------------------------------------------

bool Gateway::detach_session(std::uint64_t session_id, bool drop_tickets) {
  // Order matters: mark the session closed FIRST so queued work items fail
  // fast instead of executing against a half-dropped session. Workers
  // fulfilling an erased ticket's promise are harmless — the promise's
  // shared state outlives the table entry.
  if (!sessions_.detach(session_id)) return false;
  if (drop_tickets) {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.session_id == session_id)
        it = pending_.erase(it);
      else
        ++it;
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& [conn, ids] : conn_sessions_)
      std::erase(ids, session_id);
  }
  return true;
}

void Gateway::on_client_close(std::uint64_t conn) {
  std::vector<std::uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    const auto it = conn_sessions_.find(conn);
    if (it == conn_sessions_.end()) return;
    ids = std::move(it->second);
    conn_sessions_.erase(it);
  }
  for (std::uint64_t id : ids) detach_session(id, /*drop_tickets=*/true);
}

Result<Bytes> Gateway::handle_stats(ByteView request) {
  auto req = StatsRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());
  if (!sessions_.find(req->session_id))
    return Result<Bytes>::err("gateway: unknown session");
  return ok_envelope(stats(req->detail).encode());
}

Result<Bytes> Gateway::handle_detach(ByteView request) {
  auto req = DetachRequest::decode(request);
  if (!req.ok()) return Result<Bytes>::err(req.error());
  if (!detach_session(req->session_id, /*drop_tickets=*/false))
    return Result<Bytes>::err("gateway: unknown session");
  return ok_envelope({});
}

namespace {

/// Percentile summary of one registry histogram, as STATS serialises it.
StageStats stage_summary(const obs::Histogram& hist) {
  StageStats summary;
  summary.count = hist.count();
  summary.p50_ns = hist.percentile(0.50);
  summary.p90_ns = hist.percentile(0.90);
  summary.p99_ns = hist.percentile(0.99);
  return summary;
}

}  // namespace

GatewayStats Gateway::stats(bool detail) {
  GatewayStats stats;
  stats.sessions_active = sessions_.active();
  stats.sessions_total = sessions_.sessions_total();
  stats.handshakes_run = sessions_.handshakes_run();
  stats.handshakes_reused = sessions_.handshakes_reused();
  stats.invocations = invocations_.get();
  stats.queue_full_rejections = queue_full_rejections_.get();
  stats.deduped_lanes = deduped_lanes_.get();
  stats.evidence_renewals = evidence_renewals_.get();
  stats.tier_up_compiles = tier_up_compiles_.get();
  stats.native_entries = native_entries_.get();
  stats.jit_fallback_ops = jit_fallback_ops_.get();
  stats.jit_fallback_float = jit_fallback_float_.get();
  stats.jit_fallback_conv = jit_fallback_conv_.get();
  stats.jit_fallback_call = jit_fallback_call_.get();
  stats.jit_fallback_other = jit_fallback_other_.get();
  stats.invoke_memo_hits = invoke_memo_hits_.get();
  stats.migrations = migrations_.get();
  stats.prewarm_prepares = prewarm_prepares_.get();
  stats.queue_delay_p50_ns = queue_delay_hist_.percentile(0.50);
  stats.queue_delay_p90_ns = queue_delay_hist_.percentile(0.90);
  stats.queue_delay_p99_ns = queue_delay_hist_.percentile(0.99);
  stats.stage_queue = stage_summary(queue_delay_hist_);
  stats.stage_exec = stage_summary(stage_exec_hist_);
  stats.stage_tee_entry = stage_summary(stage_tee_entry_hist_);
  stats.stage_ra = stage_summary(stage_ra_hist_);
  if (detail) {
    // Compile-duration percentiles ride the detail flag like the
    // slow-invoke ring: bulk diagnostics, not steady-state polling fare.
    stats.stage_jit_compile = stage_summary(tier_compile_ns_hist_);
    std::lock_guard<std::mutex> lock(slow_mu_);
    stats.slow_invokes.assign(slow_invokes_.begin(), slow_invokes_.end());
  }
  for (const ra::VerifierShardStats& s : verifier_->stats()) {
    RaShardStats shard;
    shard.msg0s = s.msg0s;
    shard.handshakes = s.handshakes;
    shard.rejects = s.rejects;
    shard.key_rotations = s.key_rotations;
    stats.ra_shards.push_back(shard);
  }
  {
    std::lock_guard<std::mutex> lock(binaries_mu_);
    stats.modules_registered = binaries_.size();
  }
  std::lock_guard<std::mutex> lock(backends_mu_);
  for (auto& [name, backend] : backends_) {
    DeviceStats d;
    d.hostname = name;
    d.pool_slots = static_cast<std::uint32_t>(backend.slots.size());
    for (const auto& slot : backend.slots) {
      SlotStats s;
      s.inflight = slot->inflight.load(std::memory_order_relaxed);
      s.queue_depth_peak = slot->queue_depth_peak.load(std::memory_order_relaxed);
      s.invocations = slot->invocations.load(std::memory_order_relaxed);
      s.busy_ns = slot->busy_ns.load(std::memory_order_relaxed);
      s.queue_full_rejections = slot->queue_full_rejections.get();
      d.invocations += s.invocations;
      d.busy_ns += s.busy_ns;
      d.queue_depth_peak = std::max(d.queue_depth_peak, s.queue_depth_peak);
      d.slots.push_back(s);
    }
    if (backend.queue_delay_hist != nullptr) {
      d.queue_delay_p50_ns = backend.queue_delay_hist->percentile(0.50);
      d.queue_delay_p90_ns = backend.queue_delay_hist->percentile(0.90);
      d.queue_delay_p99_ns = backend.queue_delay_hist->percentile(0.99);
    }
    {
      std::lock_guard<std::mutex> state(backend.state_mu);
      d.secure_heap_in_use = backend.device->os().heap_in_use();
      d.boot_count = backend.boot_count;
      const ModuleCache& cache = *backend.cache;
      d.cache_hits = cache.hits();
      d.cache_misses = cache.misses();
      d.cache_evictions = cache.evictions();
      d.pool_hits = cache.pool_hits();
      d.cache_prewarms = cache.prewarms();
      if (detail) {
        // Per-measurement tier states ride the detail flag like the
        // slow-invoke ring: which tier each cached module executes on
        // (interp / AOT / native entries) and how often it was leased.
        for (const ModuleCache::TierState& t : cache.tier_states()) {
          ModuleTierStats m;
          m.measurement = t.measurement;
          m.mode = static_cast<std::uint8_t>(t.mode);
          m.functions = t.functions;
          m.native_functions = t.native_functions;
          m.calls = t.leases;
          d.modules.push_back(m);
        }
      }
    }
    stats.devices.push_back(std::move(d));
  }
  return stats;
}

// -- GatewayClient -----------------------------------------------------------

Status GatewayClient::connect(const std::string& host, std::uint16_t port) {
  auto conn = fabric_.connect(host, port);
  if (!conn.ok()) return Status::err(conn.error());
  conn_ = *conn;
  connected_ = true;
  return {};
}

void GatewayClient::close() {
  // Retire the drain thread FIRST: it waits out every in-flight wire
  // exchange and fulfils every issued future/callback before exiting, so
  // async work is never abandoned mid-air by a teardown. Only then does
  // the connection go away.
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_stop_ = true;
  }
  drain_cv_.notify_all();
  if (drain_thread_.joinable()) drain_thread_.join();
  drain_thread_ = std::thread();
  drain_stop_ = false;  // a later connect() may start async work again
  if (connected_) fabric_.close(conn_);
  connected_ = false;
}

void GatewayClient::enqueue_completion(std::future<Result<Bytes>> wire,
                                       std::function<void(Result<Bytes>)> complete) {
  std::lock_guard<std::mutex> lock(drain_mu_);
  completions_.push_back(Completion{std::move(wire), std::move(complete)});
  if (!drain_thread_.joinable())
    drain_thread_ = std::thread([this] { drain_loop(); });
  drain_cv_.notify_one();
}

void GatewayClient::drain_loop() {
  for (;;) {
    Completion completion;
    {
      std::unique_lock<std::mutex> lock(drain_mu_);
      drain_cv_.wait(lock, [&] { return drain_stop_ || !completions_.empty(); });
      if (completions_.empty()) return;  // stop requested and queue drained
      completion = std::move(completions_.front());
      completions_.pop_front();
    }
    // The wire wait and the decode/fulfil step both run OUTSIDE drain_mu_,
    // so the owning thread keeps issuing async work while this one waits.
    completion.complete(completion.wire.get());
  }
}

Result<Bytes> GatewayClient::call(ByteView request) {
  if (!connected_) return Result<Bytes>::err("gateway client: not connected");
  auto response = fabric_.send_recv(conn_, request);
  if (!response.ok()) return response;
  return open_envelope(*response);
}

std::uint64_t GatewayClient::next_jitter() {
  // xorshift64: cheap, deterministic per client (seeded at construction),
  // good enough to decorrelate retry storms across client threads.
  std::uint64_t x = jitter_state_;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  jitter_state_ = x;
  return x;
}

void GatewayClient::backoff_sleep(int attempt) {
  std::uint64_t window = backoff_.base_ns;
  for (int i = 0; i < attempt && window < backoff_.cap_ns; ++i) window <<= 1;
  if (window > backoff_.cap_ns) window = backoff_.cap_ns;
  // Full jitter: sleep uniformly in (0, window] so retries from many
  // clients spread out instead of re-colliding in lockstep.
  const std::uint64_t sleep_ns = next_jitter() % window + 1;
  std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
}

Result<AttachResponse> GatewayClient::attach(const std::string& client_name) {
  auto payload = call(AttachRequest{client_name}.encode());
  if (!payload.ok()) return Result<AttachResponse>::err(payload.error());
  return AttachResponse::decode(*payload);
}

Result<AttachBatchResponse> GatewayClient::attach_all(
    const std::vector<std::string>& clients) {
  using R = Result<AttachBatchResponse>;
  if (clients.empty()) return R::err("gateway client: empty attach batch");

  // Chunk, then pipeline every chunk as a concurrent exchange on the one
  // connection: wall-clock is the slowest chunk, and the gateway sees the
  // chunks as parallel ATTACH_BATCH requests fanning across its workers.
  std::vector<Bytes> frames;
  for (std::size_t start = 0; start < clients.size(); start += kAttachBatchChunk) {
    AttachBatchRequest chunk;
    const std::size_t end = std::min(clients.size(), start + kAttachBatchChunk);
    chunk.clients.assign(clients.begin() + static_cast<std::ptrdiff_t>(start),
                         clients.begin() + static_cast<std::ptrdiff_t>(end));
    frames.push_back(chunk.encode());
  }
  if (!connected_) return R::err("gateway client: not connected");
  std::vector<Result<Bytes>> replies = fabric_.exchange_all(conn_, std::move(frames));

  // Per-chunk failures become per-result errors at that chunk's indices:
  // sibling chunks may already have attached server-side, and swallowing
  // their session ids would leak sessions the caller can never detach.
  // (Partial success is the documented contract — per lane AND per chunk.)
  AttachBatchResponse merged;
  for (std::size_t c = 0; c < replies.size(); ++c) {
    const std::size_t chunk_size =
        std::min(kAttachBatchChunk, clients.size() - c * kAttachBatchChunk);
    const auto fail_chunk = [&](const std::string& error) {
      for (std::size_t i = 0; i < chunk_size; ++i) {
        AttachBatchResult failed;
        failed.error = error;
        merged.results.push_back(std::move(failed));
      }
    };
    if (!replies[c].ok()) {
      fail_chunk(replies[c].error());
      continue;
    }
    auto payload = open_envelope(*replies[c]);
    if (!payload.ok()) {
      fail_chunk(payload.error());
      continue;
    }
    auto chunk = AttachBatchResponse::decode(*payload);
    if (!chunk.ok() || chunk->results.size() != chunk_size) {
      fail_chunk(chunk.ok() ? "gateway client: attach batch result count mismatch"
                            : chunk.error());
      continue;
    }
    merged.ra_fabric_exchanges += chunk->ra_fabric_exchanges;
    for (AttachBatchResult& result : chunk->results)
      merged.results.push_back(std::move(result));
  }
  return merged;
}

Result<LoadModuleResponse> GatewayClient::load_module(std::uint64_t session_id,
                                                      ByteView binary) {
  LoadModuleRequest request;
  request.session_id = session_id;
  request.binary.assign(binary.begin(), binary.end());
  auto payload = call(request.encode());
  if (!payload.ok()) return Result<LoadModuleResponse>::err(payload.error());
  return LoadModuleResponse::decode(*payload);
}

Result<InvokeResponse> GatewayClient::invoke(const InvokeRequest& request) {
  const Bytes frame = request.encode();
  for (int attempt = 0;; ++attempt) {
    auto payload = call(frame);
    if (payload.ok()) return InvokeResponse::decode(*payload);
    // QUEUE_FULL is backpressure, not failure: back off (jittered, growing)
    // and re-admit instead of the old busy-poll. Anything else is final.
    if (!is_queue_full(payload.error()) || attempt >= backoff_.max_retries)
      return Result<InvokeResponse>::err(payload.error());
    backoff_sleep(attempt);
  }
}

Result<SubmitResponse> GatewayClient::submit(const InvokeRequest& request) {
  auto payload = call(SubmitRequest{request}.encode());
  if (!payload.ok()) return Result<SubmitResponse>::err(payload.error());
  return SubmitResponse::decode(*payload);
}

Result<PollResponse> GatewayClient::poll(std::uint64_t session_id,
                                         std::uint64_t ticket) {
  PollRequest request;
  request.session_id = session_id;
  request.ticket = ticket;
  auto payload = call(request.encode());
  if (!payload.ok()) return Result<PollResponse>::err(payload.error());
  return PollResponse::decode(*payload);
}

// -- async client API --------------------------------------------------------

namespace {

/// Opens the envelope of an async wire reply and decodes the payload,
/// fulfilling `promise` with the result — the tail every *_async call
/// shares, run on the client's drain thread.
template <typename T>
void fulfil_async(const std::shared_ptr<std::promise<Result<T>>>& promise,
                  const Result<Bytes>& wire,
                  Result<T> (*decode)(ByteView)) {
  if (!wire.ok()) {
    promise->set_value(Result<T>::err(wire.error()));
    return;
  }
  auto payload = open_envelope(*wire);
  if (!payload.ok()) {
    promise->set_value(Result<T>::err(payload.error()));
    return;
  }
  promise->set_value(decode(*payload));
}

}  // namespace

std::future<Result<AttachResponse>> GatewayClient::attach_async(
    const std::string& client_name) {
  auto promise = std::make_shared<std::promise<Result<AttachResponse>>>();
  auto future = promise->get_future();
  if (!connected_) {
    promise->set_value(Result<AttachResponse>::err("gateway client: not connected"));
    return future;
  }
  enqueue_completion(fabric_.send_async(conn_, AttachRequest{client_name}.encode()),
                     [promise](Result<Bytes> wire) {
                       fulfil_async(promise, wire, &AttachResponse::decode);
                     });
  return future;
}

std::future<Result<LoadModuleResponse>> GatewayClient::load_async(
    std::uint64_t session_id, Bytes binary) {
  auto promise = std::make_shared<std::promise<Result<LoadModuleResponse>>>();
  auto future = promise->get_future();
  if (!connected_) {
    promise->set_value(
        Result<LoadModuleResponse>::err("gateway client: not connected"));
    return future;
  }
  LoadModuleRequest request;
  request.session_id = session_id;
  request.binary = std::move(binary);
  enqueue_completion(fabric_.send_async(conn_, request.encode()),
                     [promise](Result<Bytes> wire) {
                       fulfil_async(promise, wire, &LoadModuleResponse::decode);
                     });
  return future;
}

std::future<Result<InvokeResponse>> GatewayClient::invoke_async(
    const InvokeRequest& request) {
  auto promise = std::make_shared<std::promise<Result<InvokeResponse>>>();
  auto future = promise->get_future();
  if (!connected_) {
    promise->set_value(Result<InvokeResponse>::err("gateway client: not connected"));
    return future;
  }
  enqueue_completion(fabric_.send_async(conn_, request.encode()),
                     [promise](Result<Bytes> wire) {
                       fulfil_async(promise, wire, &InvokeResponse::decode);
                     });
  return future;
}

std::vector<Bytes> GatewayClient::invoke_chunk_frames(
    const std::vector<InvokeRequest>& requests) {
  std::vector<Bytes> frames;
  for (std::size_t start = 0; start < requests.size(); start += kInvokeBatchChunk) {
    InvokeBatchRequest chunk;
    const std::size_t end = std::min(requests.size(), start + kInvokeBatchChunk);
    for (std::size_t i = start; i < end; ++i)
      chunk.lanes.push_back(InvokeBatchRequest::Lane{
          static_cast<std::uint32_t>(i - start), requests[i]});
    frames.push_back(chunk.encode());
  }
  return frames;
}

void GatewayClient::deliver_invoke_chunk(
    const Result<Bytes>& reply, std::size_t chunk_size,
    const std::function<void(std::size_t, Result<InvokeResponse>)>& deliver) {
  // A chunk-level failure (transport, envelope, malformed frame) becomes a
  // per-request error at every index the chunk carried: sibling chunks may
  // already have executed server-side, so swallowing the whole batch would
  // lose their results.
  const auto fail_chunk = [&](const std::string& error) {
    for (std::size_t i = 0; i < chunk_size; ++i)
      deliver(i, Result<InvokeResponse>::err(error));
  };
  if (!reply.ok()) {
    fail_chunk(reply.error());
    return;
  }
  auto payload = open_envelope(*reply);
  if (!payload.ok()) {
    fail_chunk(payload.error());
    return;
  }
  auto chunk = InvokeBatchResponse::decode(*payload);
  if (!chunk.ok() || chunk->results.size() != chunk_size) {
    fail_chunk(chunk.ok() ? "gateway client: invoke batch result count mismatch"
                          : chunk.error());
    return;
  }
  std::vector<bool> delivered(chunk_size, false);
  for (InvokeBatchResult& result : chunk->results) {
    // Lane ids were issued as positions within the chunk; an id the chunk
    // never opened (or a repeat — the decoder already rejects those) must
    // not scribble over a sibling's slot.
    if (result.lane >= chunk_size || delivered[result.lane]) continue;
    delivered[result.lane] = true;
    deliver(result.lane, result.ok()
                             ? Result<InvokeResponse>(std::move(result.result))
                             : Result<InvokeResponse>::err(result.error));
  }
  for (std::size_t i = 0; i < chunk_size; ++i)
    if (!delivered[i])
      deliver(i, Result<InvokeResponse>::err(
                     "gateway client: invoke batch reply missing lane"));
}

std::vector<Result<InvokeResponse>> GatewayClient::invoke_all(
    const std::vector<InvokeRequest>& requests) {
  std::vector<Result<InvokeResponse>> results(
      requests.size(),
      Result<InvokeResponse>::err("gateway client: not submitted"));
  if (requests.empty()) return results;
  if (!connected_) {
    for (auto& result : results)
      result = Result<InvokeResponse>::err("gateway client: not connected");
    return results;
  }
  // Chunk, then pipeline every chunk as a concurrent exchange on the one
  // connection: wall-clock is the slowest chunk, and the gateway fans each
  // chunk's lanes across its workers in one admission pass — O(1) wire
  // exchanges in the batch size instead of SUBMIT/POLL's per-item round
  // trips.
  std::vector<Result<Bytes>> replies =
      fabric_.exchange_all(conn_, invoke_chunk_frames(requests));
  for (std::size_t c = 0; c < replies.size(); ++c) {
    const std::size_t base = c * kInvokeBatchChunk;
    const std::size_t chunk_size =
        std::min(kInvokeBatchChunk, requests.size() - base);
    deliver_invoke_chunk(replies[c], chunk_size,
                         [&](std::size_t i, Result<InvokeResponse> result) {
                           results[base + i] = std::move(result);
                         });
  }
  return results;
}

Status GatewayClient::invoke_batch_async(const std::vector<InvokeRequest>& requests,
                                         InvokeBatchCallback on_complete) {
  if (requests.empty()) return Status::err("gateway client: empty invoke batch");
  if (!connected_) return Status::err("gateway client: not connected");
  if (!on_complete) return Status::err("gateway client: null completion callback");
  // Every chunk rides its own send_async exchange; the drain thread maps
  // each reply back to per-request callbacks as it lands. Nothing here
  // blocks on the gateway.
  std::vector<Bytes> frames = invoke_chunk_frames(requests);
  for (std::size_t c = 0; c < frames.size(); ++c) {
    const std::size_t base = c * kInvokeBatchChunk;
    const std::size_t chunk_size =
        std::min(kInvokeBatchChunk, requests.size() - base);
    enqueue_completion(
        fabric_.send_async(conn_, std::move(frames[c])),
        [on_complete, base, chunk_size](Result<Bytes> wire) {
          deliver_invoke_chunk(wire, chunk_size,
                               [&](std::size_t i, Result<InvokeResponse> result) {
                                 on_complete(base + i, std::move(result));
                               });
        });
  }
  return {};
}

std::vector<Result<InvokeResponse>> GatewayClient::invoke_batch(
    const std::vector<InvokeRequest>& requests) {
  std::vector<Result<InvokeResponse>> results(
      requests.size(), Result<InvokeResponse>::err("gateway client: not submitted"));
  std::map<std::uint64_t, std::size_t> outstanding;  // ticket -> request index

  // Polls every outstanding ticket once — in ONE pipelined wire exchange
  // (Fabric::exchange_all), not one round-trip per ticket: the server
  // answers all the polls concurrently, so a drain pass costs the slowest
  // single poll instead of their sum. A lone straggler skips the
  // pipelining (and its exchange thread) for a plain blocking poll.
  // Returns whether anything completed (progress for the backpressure
  // loop).
  const auto drain = [&]() {
    if (outstanding.empty()) return false;
    std::vector<std::uint64_t> tickets;
    std::vector<Bytes> frames;
    tickets.reserve(outstanding.size());
    frames.reserve(outstanding.size());
    for (const auto& [ticket, index] : outstanding) {
      PollRequest poll_req;
      poll_req.session_id = requests[index].session_id;
      poll_req.ticket = ticket;
      tickets.push_back(ticket);
      frames.push_back(poll_req.encode());
    }
    std::vector<Result<Bytes>> replies;
    if (frames.size() == 1)
      replies.push_back(connected_ ? fabric_.send_recv(conn_, frames.front())
                                   : Result<Bytes>::err(
                                         "gateway client: not connected"));
    else
      replies = fabric_.exchange_all(conn_, std::move(frames));
    bool progressed = false;
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const auto it = outstanding.find(tickets[i]);
      const std::size_t index = it->second;
      auto payload = replies[i].ok() ? open_envelope(*replies[i])
                                     : Result<Bytes>::err(replies[i].error());
      auto polled = payload.ok() ? PollResponse::decode(*payload)
                                 : Result<PollResponse>::err(payload.error());
      if (!polled.ok()) {
        results[index] = Result<InvokeResponse>::err(polled.error());
        outstanding.erase(it);
        progressed = true;
        continue;
      }
      if (!polled->ready) continue;
      results[index] = polled->error.empty()
                           ? Result<InvokeResponse>(std::move(polled->result))
                           : Result<InvokeResponse>::err(polled->error);
      outstanding.erase(it);
      progressed = true;
    }
    return progressed;
  };

  std::size_t next = 0;
  int stalls = 0;  // consecutive drain passes with no completion
  while (next < requests.size() || !outstanding.empty()) {
    if (next < requests.size()) {
      auto submitted = submit(requests[next]);
      if (submitted.ok()) {
        outstanding[submitted->ticket] = next++;
        stalls = 0;
        continue;  // pipeline: keep submitting while the gateway admits
      }
      if (!is_queue_full(submitted.error())) {
        results[next++] = Result<InvokeResponse>::err(submitted.error());
        continue;
      }
      // QUEUE_FULL backpressure: fall through and drain before retrying.
    }
    // Back off (jittered, growing with consecutive stalls) whenever a
    // drain pass completes nothing — including when outstanding is empty
    // but SUBMIT keeps bouncing (other clients own every slot). Progress
    // resets the curve.
    if (drain())
      stalls = 0;
    else
      backoff_sleep(stalls++);
  }
  return results;
}

Result<GatewayStats> GatewayClient::stats(std::uint64_t session_id, bool detail) {
  StatsRequest request;
  request.session_id = session_id;
  request.detail = detail;
  auto payload = call(request.encode());
  if (!payload.ok()) return Result<GatewayStats>::err(payload.error());
  return GatewayStats::decode(*payload);
}

Status GatewayClient::detach(std::uint64_t session_id) {
  auto payload = call(DetachRequest{session_id}.encode());
  return payload.ok() ? Status{} : Status::err(payload.error());
}

}  // namespace watz::gateway
