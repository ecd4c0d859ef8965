// The attested execution gateway: a multi-tenant service layer in front of
// a fleet of WaTZ devices.
//
// The gateway binds two fabric endpoints:
//   * a client-facing dispatcher (GatewayConfig::port) speaking the framed
//     protocol of protocol.hpp;
//   * an RA endpoint (GatewayConfig::ra_port) where the gateway's
//     ra::ShardedVerifier listens and enrolled devices prove themselves —
//     the same four-message WaTZ protocol of SS IV, with the device's
//     *platform claim* (hash of its measured boot chain) as the claim.
//     Handshake state is sharded by session id (GatewayConfig::ra_shards)
//     and whole fleets of handshakes pipeline through the batch frames of
//     ra/messages.hpp (one fabric exchange carries N msg0s), so attach
//     storms scale with shards instead of serialising on a verifier lock.
//
// Amortisation happens in two layers, one per expensive path:
//   * SessionManager — the RA handshake runs once per (session, device)
//     and its verified evidence is cached until the policy (TTL or a
//     boot-count change) invalidates it;
//   * ModuleCache (one per device) — the Loading phase runs once per
//     (device, measurement); warm invokes reuse the prepared module or a
//     pooled instance outright.
//
// Execution model (see DESIGN.md §2 "Concurrency model"): every enrolled
// device runs a POOL of sandbox slots (GatewayConfig::slots_per_device).
// Each slot is one core::SandboxSlot — its own secure monitor, its own
// worker thread, its own bounded run queue — so N slots of one device
// execute guest invokes concurrently, while control-plane TEE entry (RA
// handshakes on the device's primary monitor) serialises on the device's
// core::DeviceControl. The warm instance pool is handed out per slot
// (ModuleCache matches on the slot monitor), and sessions carry a soft
// slot-affinity hint so repeat invokes reuse a warm instance. Dispatcher
// handlers run on the calling client's thread and only ADMIT work: they
// pick a SLOT by sampled two-choice load (queue depth x EWMA slot
// latency, then busy time), enqueue a work item, and either wait for the
// result (INVOKE) or hand back a ticket (SUBMIT/POLL). When every
// eligible queue is at its bound the request is bounced with QUEUE_FULL
// backpressure instead of being admitted unbounded. The per-device
// secure-heap budget stays SHARED across the pool: all slots charge one
// TrustedOs heap and one ModuleCache budget.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/device.hpp"
#include "gateway/invoke_memo.hpp"
#include "gateway/module_cache.hpp"
#include "gateway/protocol.hpp"
#include "gateway/session_manager.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ra/verifier_shard.hpp"

namespace watz::gateway {

struct GatewayConfig {
  std::string hostname = "gateway";
  std::uint16_t port = 7000;     ///< client-facing dispatcher endpoint
  std::uint16_t ra_port = 7001;  ///< attestation endpoint devices prove to
  SessionPolicy session_policy{};
  ModuleCacheConfig cache{};
  /// Guest heap for invokes that do not specify one.
  std::size_t default_heap_bytes = 2 * 1024 * 1024;
  /// Normal-world budget for the LOAD_MODULE binary registry;
  /// least-recently-used binaries are dropped beyond it (clients re-upload
  /// on the resulting cold miss).
  std::size_t binary_registry_budget_bytes = 64 * 1024 * 1024;
  /// Bound of each slot's run queue (queued + executing work items).
  /// INVOKE/SUBMIT admission past it answers QUEUE_FULL.
  std::size_t worker_queue_capacity = 64;
  /// Sandbox slots per enrolled device: each slot is one
  /// core::SandboxSlot (own secure monitor) with its own worker thread
  /// and run queue, so one device executes up to this many invokes
  /// concurrently. 1 reproduces the old single-worker actor model.
  std::size_t slots_per_device = 1;
  /// Native-codegen tier across the fleet: forwarded to each enrolled
  /// device's runtime at enrolment. Every function of a module is compiled
  /// to x86-64 native code while the module loads, once per measurement
  /// per device, and shared by every instance of it. No-op on hosts where
  /// wasm::jit::jit_available() is false (non-x86-64, WATZ_DISABLE_JIT):
  /// execution stays on the AOT stream wholesale.
  bool jit_tiering = true;
  /// SUBMIT single-invoke dedup memo: a SUBMIT whose (measurement, entry,
  /// args, heap) executed this recently — and whose session holds fresh
  /// evidence for the executing device — is answered with the memoised
  /// result instead of entering a sandbox (the async counterpart of the
  /// INVOKE_BATCH rider machinery). 0 (default) disables the memo.
  std::uint64_t invoke_memo_ttl_ns = 0;
  /// Background evidence renewal: re-attest session evidence at ~80% of
  /// SessionPolicy::evidence_ttl_ns (batched, on the control lane) so the
  /// invoke hot path never pays a lazy RA handshake. Only meaningful with
  /// a finite TTL.
  bool evidence_renewal = true;
  /// Renewal sweep period; 0 = auto (evidence_ttl_ns / 5).
  std::uint64_t renewal_interval_ns = 0;
  /// Cross-device module prewarm: the background sweeper pushes every
  /// registered LOAD_MODULE binary through ModuleCache::prepare() on every
  /// enrolled device (prepare-only — no instantiation), so a session that
  /// fails over to another device lands on a warm cache instead of paying
  /// the ~73% Loading phase cold. Off by default; tests/benches can also
  /// drive sweep_module_prewarms() directly.
  bool module_prewarm = false;
  /// Verifier shards on the RA endpoint: handshake state is sharded by
  /// session id so attach storms from many devices appraise in parallel
  /// instead of serialising on one verifier lock.
  std::size_t ra_shards = 4;
  /// Per-shard ephemeral keypair rotation window
  /// (ra::VerifierPolicy::session_key_reuse; 1 = fresh keypair per
  /// handshake, the full-PFS default).
  std::uint64_t ra_session_key_reuse = 1;
  /// Modeled per-appraisal verifier latency, slept under the owning shard
  /// lock (see ra::ShardedVerifierConfig::appraisal_latency_ns). Bench
  /// knob; 0 (default) disables it.
  std::uint64_t ra_appraisal_latency_ns = 0;
  /// Trace sampling: every Nth admitted INVOKE/SUBMIT decision (and every
  /// Nth INVOKE_BATCH, whose lanes share one trace) records stage spans
  /// into the gateway's SpanSink. 0 (default) = tracing off; a non-zero
  /// trace_id on the wire request forces a trace regardless.
  std::uint64_t trace_sample_n = 0;
  /// Invocations whose end-to-end gateway residency (queueing included)
  /// exceeds this land in the slow-invoke ring dumped by STATS detail.
  /// 0 disables the log.
  std::uint64_t slow_invoke_threshold_ns = 0;
};

class Gateway {
 public:
  Gateway(net::Fabric& fabric, GatewayConfig config, ByteView identity_seed);
  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Binds the dispatcher and RA endpoints on the fabric.
  Status start();

  /// Enrols a device: endorses its attestation key, registers its platform
  /// claim as a reference value, gives it a module cache and starts its
  /// worker thread. Re-enrolling the same hostname models a reboot/board
  /// swap: the boot count bumps, which invalidates every session's cached
  /// evidence for that device (the worker survives the reboot).
  Status add_device(core::Device& device);

  /// Fleet-wide statistics, serialised from the metrics registry. `detail`
  /// additionally copies out the slow-invoke ring (GatewayStats::slow_invokes).
  GatewayStats stats(bool detail = false);
  /// The typed metrics plane: every gateway counter/gauge/histogram lives
  /// here (or is linked here by its owning layer) under a stable name.
  obs::Registry& registry() noexcept { return registry_; }
  /// The span sink sampled invocations record into; drain it (or hand it
  /// to obs::SpanSink::to_chrome_trace) to render invocation flame graphs.
  obs::SpanSink& span_sink() noexcept { return span_sink_; }
  SessionManager& sessions() noexcept { return sessions_; }
  ra::ShardedVerifier& verifier() noexcept { return *verifier_; }
  const crypto::EcPoint& identity() const noexcept { return verifier_->identity_key(); }
  const GatewayConfig& config() const noexcept { return config_; }

  /// Runs one evidence-renewal pass NOW (what the background sweeper does
  /// every renewal interval): for every device, re-attests — through the
  /// batched handshake machinery, one forced control-lane item per
  /// backend — every session whose evidence has aged past ~80% of the
  /// TTL. Returns how many evidences were renewed. Public so tests drive
  /// renewal deterministically.
  std::size_t sweep_evidence_renewals();

  /// Runs one cross-device prewarm pass NOW (what the background sweeper
  /// does when GatewayConfig::module_prewarm is on): for every enrolled
  /// device, pushes every registered binary the device's cache does not
  /// hold through ModuleCache::prepare() — one forced control-lane item
  /// per backend, prepares fanned across backends and collected like the
  /// renewal sweep. Returns how many modules were freshly prepared across
  /// the fleet. Public so tests drive prewarm deterministically.
  std::size_t sweep_module_prewarms();

 private:
  struct Backend;

  /// One sandbox slot of a device's execution pool: a worker thread
  /// draining a bounded MPSC run queue, bound to one core::SandboxSlot
  /// (its monitor) of the backend's current DeviceControl. All guest
  /// execution happens on slot workers; control-plane items (attach
  /// attestation, evidence renewal) ride slot 0 — the "control lane" —
  /// with force admission, serialising on the DeviceControl TEE mutex
  /// inside the item.
  struct Slot {
    Backend* backend = nullptr;
    std::size_t index = 0;      ///< within the device pool (monitor binding)
    std::size_t global_id = 0;  ///< fleet-wide id (affinity hints, tie-break)

    /// Bounded MPSC run queue: any dispatcher thread posts, the one worker
    /// drains. inflight counts queued + executing and is what admission
    /// bounds and placement compares. Every item carries its admission
    /// timestamp; the worker hands the measured queueing delay to the task.
    struct WorkItem {
      std::uint64_t admitted_ns = 0;
      std::function<void(std::uint64_t queue_delay_ns)> run;
    };
    std::mutex queue_mu;
    std::condition_variable queue_cv;
    std::deque<WorkItem> queue;
    bool stop = false;
    std::thread worker;

    std::atomic<std::uint32_t> inflight{0};
    std::atomic<std::uint32_t> queue_depth_peak{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> invocations{0};
    /// EWMA (alpha = 1/8) of the observed per-invoke service time
    /// (launch + guest execution) on this slot. Written only by the
    /// slot's own worker thread; read by placement on any dispatcher
    /// thread. 0 = never sampled: placement probes such a slot ahead
    /// of anything measured, but only with a bounded couple of items
    /// (see placement_cost).
    std::atomic<std::uint64_t> ewma_invoke_ns{0};
    /// Admissions this slot bounced with QUEUE_FULL. Spill-over admission
    /// bumps every slot it bounced off, so the per-slot counts expose
    /// WHICH queues saturate (the gateway-level counter only counts
    /// requests that exhausted every candidate).
    obs::Counter queue_full_rejections;
  };

  /// One enrolled device: the control-plane state shared by its slot pool.
  struct Backend {
    std::string hostname;         ///< immutable after first enrolment
    std::size_t enrol_index = 0;  ///< stable enrolment order

    /// Re-enrolment swaps these under state_mu; workers snapshot them so
    /// a mid-flight invoke keeps the pre-reboot cache (and, on a board
    /// swap, the pre-swap device + its slot monitors) alive instead of
    /// racing the swap.
    std::mutex state_mu;
    core::Device* device = nullptr;
    std::shared_ptr<core::DeviceControl> control;
    std::shared_ptr<ModuleCache> cache;
    std::shared_ptr<crypto::Fortuna> attester_rng;
    crypto::Sha256Digest platform_claim{};
    std::uint64_t boot_count = 0;

    /// The slot pool: fixed at first enrolment (slots_per_device), the
    /// worker threads survive re-enrolment the way the old single worker
    /// did.
    std::vector<std::unique_ptr<Slot>> slots;

    /// This device's admission->pickup delay histogram
    /// (device.<host>.queue_delay in the gateway registry); set once at
    /// first enrolment, stable thereafter (registry entries never move).
    obs::Histogram* queue_delay_hist = nullptr;
  };

  /// Placement cost of admitting one more item to `slot`: predicted
  /// completion time (queued + executing + the newcomer) x the slot's
  /// EWMA service time — the "Adaptive placement" model that lets
  /// heterogeneous fleets route around slow boards. Admission bumps
  /// `inflight` immediately, so lanes a batch pass already admitted are
  /// visible to the next lane's score with no extra bookkeeping.
  static std::uint64_t placement_cost(const Slot& slot);

  Result<Bytes> handle_request(std::uint64_t conn, ByteView request);
  Result<Bytes> handle_attach(std::uint64_t conn, ByteView request);
  Result<Bytes> handle_attach_batch(std::uint64_t conn, ByteView request);
  /// Shared attach fan-out: creates one session per client, attests the
  /// whole fleet for all of them through the batched handshake path (one
  /// forced work item per backend, lane i == session i), detaches sessions
  /// no device would attest, links survivors to `conn`. A plain ATTACH is
  /// a batch of one.
  Result<AttachBatchResponse> attach_sessions(std::uint64_t conn,
                                              const std::vector<std::string>& clients);
  Result<Bytes> handle_load_module(ByteView request);
  Result<Bytes> handle_invoke(ByteView request);
  /// INVOKE_BATCH: fans every lane across the per-slot run queues in one
  /// admission pass (each lane takes the cheapest slot by placement_cost,
  /// spilling past full queues), then waits for the whole fan to
  /// complete. Lanes sharing (measurement, entry, args, heap) whose
  /// sessions all hold fresh evidence for the leader's device execute
  /// ONCE: the first such lane runs, the riders fan its result
  /// (deduped_lanes counts them). Per-lane failures — unknown session,
  /// total backpressure, appraisal, traps — report at that lane's index
  /// while its siblings succeed.
  Result<Bytes> handle_invoke_batch(ByteView request);
  Result<Bytes> handle_submit(ByteView request);
  Result<Bytes> handle_poll(ByteView request);
  Result<Bytes> handle_stats(ByteView request);
  Result<Bytes> handle_detach(ByteView request);

  /// Fabric close hook for the dispatcher endpoint: a client that drops
  /// its connection implicitly detaches every session it attached over it,
  /// failing that session's queued work instead of racing it.
  void on_client_close(std::uint64_t conn);
  /// Detach + unlink the conn mapping. `drop_tickets` additionally purges
  /// the session's pending SUBMIT tickets: set on connection loss (nobody
  /// is left to poll them), clear on explicit DETACH so the client can
  /// still redeem the failures of its drained work items.
  bool detach_session(std::uint64_t session_id, bool drop_tickets);

  /// Placement candidates, best first: the session's idle affinity slot
  /// when it has one, then a sampled two-choice pick (lower
  /// placement_cost — queue depth x EWMA slot latency — then lower
  /// accumulated busy time, then global slot order) followed by the
  /// remaining slots as spill-over, so a slot that fails appraisal or a
  /// full queue doesn't wedge the request. O(1) comparisons in the
  /// common case — no per-request sort. `affinity_hint` is the session's
  /// affinity_slot value (0 = none); the hinted slot leads ONLY when
  /// currently idle — a busy warm slot must not collect a convoy.
  std::vector<Slot*> placement_candidates(std::uint64_t affinity_hint = 0);

  /// Immutable placement snapshot of one slot: the three ranking keys
  /// read ONCE from the live atomics. Sorting/min-ing snapshots (instead
  /// of comparing the atomics in the comparator) keeps the order strict-
  /// weak even while workers mutate inflight/busy/EWMA concurrently —
  /// comparing live atomics inside std::sort is undefined behaviour.
  struct ScoredSlot {
    std::uint64_t cost = 0;   ///< placement_cost at snapshot time
    std::uint64_t busy = 0;   ///< accumulated busy time tie-break
    std::size_t order = 0;    ///< global slot-order tie-break
    Slot* slot = nullptr;
    /// The one placement order both admission paths share.
    bool operator<(const ScoredSlot& other) const noexcept {
      if (cost != other.cost) return cost < other.cost;
      if (busy != other.busy) return busy < other.busy;
      return order < other.order;
    }
  };
  static ScoredSlot score_slot(Slot& slot);

  /// Enqueues a work item on the slot's run queue, stamping its
  /// admission time. Fails QUEUE_FULL at the bound unless `force`
  /// (control-plane items: attach attestation, evidence renewal).
  Status post(Slot& slot, std::function<void(std::uint64_t)> task,
              bool force = false);
  void worker_loop(Slot& slot);

  /// Background sweeper (started by start() when evidence renewal has a
  /// finite TTL to stay ahead of, or module prewarm is on): wakes every
  /// renewal interval and runs sweep_evidence_renewals() and/or
  /// sweep_module_prewarms().
  void renewal_loop();

  /// Result-memo lookup (INVOKE, INVOKE_BATCH lanes and SUBMIT, gated on
  /// invoke_memo_ttl_ns != 0): the memoised response for this invoke, if
  /// one was recorded within the TTL and the trust gate passes — either
  /// `session` holds fresh evidence for the device that executed it, or
  /// `session` IS the producer redeeming its own result (a retry after a
  /// chaos-dropped response; its result was produced under evidence that
  /// was fresh at execution time, so no freshness re-check can invalidate
  /// it — this is what absorbs duplicate deliveries without
  /// double-executing). Bumps invoke_memo_hits on a hit.
  std::optional<InvokeResponse> memo_lookup(Session& session,
                                            const InvokeRequest& request);
  /// Records a successful invoke outcome in the memo (TTL enabled only).
  /// `producer_session` is the session whose invoke produced the result.
  void memo_store(const InvokeRequest& request, const InvokeResponse& response,
                  const std::string& device, std::uint64_t boot_count,
                  std::uint64_t producer_session);

  /// The trace decision for one admitted request (or one whole batch):
  /// a non-zero wire id joins that trace; otherwise every trace_sample_n'th
  /// decision opens a fresh trace. Returns the trace id, 0 = untraced.
  std::uint64_t maybe_trace(std::uint64_t wire_trace_id);

  /// Folds one completed invocation into the slow-invoke ring when its
  /// gateway residency exceeded GatewayConfig::slow_invoke_threshold_ns.
  void record_slow_invoke(SlowInvoke entry);

  /// The INVOKE work item body. Runs ON the slot's worker thread: attests
  /// the session if needed (control plane, serialised on the
  /// DeviceControl TEE mutex), acquires a cached instance bound to the
  /// slot's monitor, invokes, releases clean exits back to the warm pool,
  /// and stamps the session's slot-affinity hint. Emits stage spans when
  /// the posting dispatcher sampled this invocation into a trace.
  Result<InvokeResponse> execute_invoke(Slot& slot, const SessionPtr& session,
                                        const InvokeRequest& request,
                                        std::uint64_t queue_delay_ns);

  /// Admits an invoke to the best slot and returns its future, walking
  /// spill-over candidates past full queues. On total backpressure returns
  /// a QUEUE_FULL error. `sync` also re-admits to the next candidate when
  /// a device fails appraisal (the async path reports the failure through
  /// the ticket instead).
  Result<InvokeResponse> dispatch_invoke_sync(const SessionPtr& session,
                                              const InvokeRequest& request,
                                              obs::TraceContext trace = {});

  /// Posts an invoke work item to `slot` and returns the future its
  /// worker will fulfil (QUEUE_FULL Status at the admission bound).
  /// Shared by the sync INVOKE and async SUBMIT paths. A non-zero `trace`
  /// rides the work item: the slot worker installs it as the thread's
  /// trace so every layer below records into the gateway sink.
  Result<std::future<Result<InvokeResponse>>> post_invoke(
      Slot& slot, const SessionPtr& session, const InvokeRequest& request,
      obs::TraceContext trace = {});

  /// Drives the attester side of the WaTZ protocol inside the device's TEE
  /// against this gateway's RA endpoint. Runs on a slot worker thread,
  /// serialised on the DeviceControl TEE mutex (the attester enters the
  /// device's PRIMARY monitor — control plane, not the slot's). The
  /// returned evidence has already been appraised by verifier_ en route.
  Result<attestation::Evidence> run_handshake(Backend& backend);

  /// Outcome of one batched protocol run against one device.
  struct BatchHandshake {
    /// RA wire round-trips actually spent (2 when any lane reached msg2 —
    /// independent of the lane count, which is the amortisation).
    std::uint32_t fabric_exchanges = 0;
    std::vector<Result<attestation::Evidence>> lanes;
  };

  /// Batched counterpart of run_handshake: drives `lanes` attester
  /// sessions in lockstep inside the device's TEE — all msg0s cross in ONE
  /// fabric exchange, all msg2s in a second (the ra/messages.hpp batch
  /// frames), so the handshake's two round-trips are amortised across the
  /// whole batch. Outer error = transport/device failure; per-lane results
  /// let a batch partially succeed (one stale lane fails alone).
  Result<BatchHandshake> run_handshake_batch(Backend& backend, std::size_t lanes);

  struct RegisteredBinary {
    Bytes bytes;
    std::uint64_t last_used = 0;
  };

  /// Marks the registered binary for `measurement` used (registry LRU)
  /// and, when `copy`, returns a copy of it (empty when never uploaded /
  /// already evicted). A copy, not a view: the worker consuming it must
  /// not race registry eviction.
  Bytes use_binary(const crypto::Sha256Digest& measurement, bool copy);
  /// Inserts under the registry budget, evicting LRU binaries to fit.
  /// Caller holds binaries_mu_.
  void register_binary(const crypto::Sha256Digest& measurement, Bytes binary);

  net::Fabric& fabric_;
  GatewayConfig config_;
  crypto::Fortuna rng_;  // seeds the shard RNG streams
  /// RA-endpoint verifier, sharded by session id: each shard locks
  /// independently, so concurrent handshakes from many backend workers
  /// appraise in parallel (the old single ra_mu_ serialised them all).
  std::unique_ptr<ra::ShardedVerifier> verifier_;
  SessionManager sessions_;

  mutable std::mutex backends_mu_;  // guards backends_ / order vectors' shape
  std::map<std::string, Backend> backends_;  // keyed by device hostname
  std::vector<Backend*> backend_order_;      // enrolment order (stable ptrs)
  /// Every slot of every backend, flattened in enrolment order — THE
  /// placement domain (slot global_id indexes into it). Stable pointers:
  /// slots are never destroyed while the gateway lives.
  std::vector<Slot*> slot_order_;
  std::atomic<std::uint64_t> placement_tick_{0};

  std::mutex binaries_mu_;  // guards the LOAD_MODULE registry
  std::map<crypto::Sha256Digest, RegisteredBinary> binaries_;
  std::size_t binaries_bytes_ = 0;
  std::uint64_t binaries_tick_ = 0;

  /// SUBMIT tickets awaiting POLL.
  struct PendingInvoke {
    std::uint64_t session_id = 0;
    std::future<Result<InvokeResponse>> result;
  };
  std::mutex pending_mu_;
  std::map<std::uint64_t, PendingInvoke> pending_;
  std::atomic<std::uint64_t> next_ticket_{1};

  /// Single-invoke result memo, keyed by the INVOKE_BATCH dedup key
  /// (measurement + entry + args + heap). Trust gating and hot-aware
  /// eviction live in InvokeMemo; the gateway applies the trust gate in
  /// memo_lookup before note_hit. Bounded at kInvokeMemoCap.
  static constexpr std::size_t kInvokeMemoCap = 256;
  InvokeMemo memo_{kInvokeMemoCap};

  std::mutex conn_mu_;  // guards conn_sessions_
  std::map<std::uint64_t, std::vector<std::uint64_t>> conn_sessions_;

  /// The typed metrics plane. Declared before the references below: the
  /// named metrics are resolved ONCE here (the registry hands out stable
  /// addresses), so the hot paths touch a plain atomic — never the
  /// registry map or its lock.
  obs::Registry registry_;
  obs::SpanSink span_sink_;
  obs::Counter& invocations_ = registry_.counter("gateway.invocations");
  /// Requests bounced after exhausting every placement candidate (the
  /// per-slot counters record the individual bounces).
  obs::Counter& queue_full_rejections_ =
      registry_.counter("gateway.queue_full_rejections");
  /// INVOKE_BATCH lanes answered by riding a sibling's execution.
  obs::Counter& deduped_lanes_ = registry_.counter("gateway.deduped_lanes");
  /// Evidences re-proved ahead of TTL by the renewal sweep.
  obs::Counter& evidence_renewals_ =
      registry_.counter("gateway.evidence_renewals");
  /// Requests answered from the single-invoke result memo.
  obs::Counter& invoke_memo_hits_ =
      registry_.counter("gateway.invoke_memo_hits");
  /// Sync invokes transparently re-placed onto a DIFFERENT device after
  /// their first-choice device failed appraisal (reboot storm, expired
  /// evidence, dead link) — the session-migration counter the chaos suite
  /// asserts on.
  obs::Counter& migrations_ = registry_.counter("gateway.migrations");
  /// Modules freshly prepared by the cross-device prewarm sweep.
  obs::Counter& prewarm_prepares_ =
      registry_.counter("gateway.prewarm_prepares");
  /// Fleet-wide native-tiering instruments. Every enrolled device's module
  /// cache binds its TierSets' metric flushes here (codegen runs at load,
  /// per measurement, so these count compiles across the whole fleet).
  obs::Counter& tier_up_compiles_ = registry_.counter("wasm.tier_up_compiles");
  obs::Counter& native_entries_ = registry_.counter("wasm.native_entries");
  obs::Counter& jit_fallback_ops_ = registry_.counter("wasm.jit_fallback_ops");
  /// The per-class split of jit_fallback_ops (float + conv + other; calls
  /// are counted separately — dispatch is expected, not missing coverage).
  obs::Counter& jit_fallback_float_ =
      registry_.counter("wasm.jit_fallback_float");
  obs::Counter& jit_fallback_conv_ = registry_.counter("wasm.jit_fallback_conv");
  obs::Counter& jit_fallback_call_ = registry_.counter("wasm.jit_fallback_call");
  obs::Counter& jit_fallback_other_ =
      registry_.counter("wasm.jit_fallback_other");
  obs::Histogram& tier_compile_ns_hist_ =
      registry_.histogram("wasm.tier_compile_ns");
  /// Per-stage latency histograms (log2 buckets; STATS serialises their
  /// percentiles). stage.queue doubles as the fleet-wide queue-delay
  /// percentile source the old hand-rolled bucket array fed.
  obs::Histogram& queue_delay_hist_ = registry_.histogram("stage.queue");
  obs::Histogram& stage_exec_hist_ = registry_.histogram("stage.exec");
  obs::Histogram& stage_tee_entry_hist_ =
      registry_.histogram("stage.tee_entry");
  obs::Histogram& stage_tee_exit_hist_ = registry_.histogram("stage.tee_exit");
  obs::Histogram& stage_ra_hist_ = registry_.histogram("stage.ra");
  /// Sampling clock for maybe_trace (counts trace DECISIONS, not lanes:
  /// one tick per INVOKE/SUBMIT and one per INVOKE_BATCH).
  std::atomic<std::uint64_t> trace_tick_{0};
  /// Slow-invoke ring: the last kSlowInvokeRing invocations that overran
  /// GatewayConfig::slow_invoke_threshold_ns, oldest evicted first.
  static constexpr std::size_t kSlowInvokeRing = 32;
  std::mutex slow_mu_;
  std::deque<SlowInvoke> slow_invokes_;
  /// Renewal sweeper thread state (start()/~Gateway lifecycle).
  std::mutex renew_mu_;
  std::condition_variable renew_cv_;
  bool renew_stop_ = false;
  std::thread renew_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

/// Client-side convenience wrapper: frames requests, opens envelopes.
///
/// Threading: one instance per client thread — the blocking calls are not
/// locked against each other, but any number of GatewayClients may drive
/// the same gateway concurrently. The *_async calls are the exception:
/// they are safe to issue from the owning thread while earlier async work
/// is still in flight, because completions are serviced by ONE internal
/// drain thread (started lazily on the first async call, joined by
/// close()/the destructor after every issued future and callback has been
/// fulfilled). Completion callbacks and future fulfilment run on that
/// drain thread, in issue order, never concurrently with each other — a
/// callback must not call back into this client.
class GatewayClient {
 public:
  /// Retry policy for QUEUE_FULL backpressure: exponential backoff with
  /// full jitter (deterministic xorshift stream per client), replacing the
  /// old busy-poll. `max_retries` bounds invoke()'s transparent retries;
  /// invoke_batch uses the same curve between drain passes.
  struct BackoffConfig {
    int max_retries = 8;
    std::uint64_t base_ns = 200'000;     ///< first sleep; doubles per retry
    std::uint64_t cap_ns = 10'000'000;   ///< sleep ceiling
  };

  explicit GatewayClient(net::Fabric& fabric) : fabric_(fabric) {}
  ~GatewayClient() { close(); }
  GatewayClient(const GatewayClient&) = delete;
  GatewayClient& operator=(const GatewayClient&) = delete;

  Status connect(const std::string& host, std::uint16_t port);
  void close();
  void set_backoff(BackoffConfig backoff) { backoff_ = backoff; }

  /// Per-item completion of invoke_batch_async: the request's index in
  /// the submitted vector plus its result, delivered on the drain thread.
  using InvokeBatchCallback =
      std::function<void(std::size_t index, Result<InvokeResponse> result)>;

  Result<AttachResponse> attach(const std::string& client_name);
  /// Batched attach: one ATTACH_BATCH op per chunk of kAttachBatchChunk
  /// names, chunks pipelined concurrently over the connection
  /// (net::Fabric::exchange_all), results spliced back in order. The call
  /// succeeds when the wire did — inspect each AttachBatchResult for
  /// per-session verdicts (partial success is expected behaviour).
  Result<AttachBatchResponse> attach_all(const std::vector<std::string>& clients);
  Result<LoadModuleResponse> load_module(std::uint64_t session_id, ByteView binary);
  /// Invokes, transparently absorbing up to max_retries QUEUE_FULL
  /// rejections with jittered backoff. A still-full fleet surfaces the
  /// final QUEUE_FULL error (is_queue_full()).
  Result<InvokeResponse> invoke(const InvokeRequest& request);
  /// Async pair: submit returns a ticket immediately (or QUEUE_FULL, see
  /// is_queue_full); poll redeems it.
  Result<SubmitResponse> submit(const InvokeRequest& request);
  Result<PollResponse> poll(std::uint64_t session_id, std::uint64_t ticket);
  /// Pipelined batch: keeps up to the gateway's admission bound in flight
  /// via SUBMIT, absorbing QUEUE_FULL backpressure by draining completed
  /// tickets — every outstanding ticket is polled in ONE pipelined
  /// exchange per drain pass (Fabric::exchange_all), not one round-trip
  /// per ticket — and returns one result per request, in order.
  std::vector<Result<InvokeResponse>> invoke_batch(
      const std::vector<InvokeRequest>& requests);
  /// Batched invoke over INVOKE_BATCH frames: one wire exchange per chunk
  /// of kInvokeBatchChunk requests (chunks pipelined concurrently via
  /// Fabric::exchange_all), one result per request in order. O(1) wire
  /// exchanges in the batch size — the amortisation invoke_batch's
  /// SUBMIT-per-item path cannot reach. Partial success is the contract:
  /// the call succeeds when the wire did; inspect each Result.
  std::vector<Result<InvokeResponse>> invoke_all(
      const std::vector<InvokeRequest>& requests);

  // -- async API -------------------------------------------------------------
  // Future-returning counterparts of the blocking calls, built on
  // Fabric::send_async: the wire exchange runs concurrently and the
  // decoded response arrives through the future, fulfilled by the
  // client's drain thread. QUEUE_FULL is NOT absorbed here — an async
  // caller owns its own retry policy, so backpressure surfaces through
  // the future (is_queue_full()).
  std::future<Result<AttachResponse>> attach_async(const std::string& client_name);
  std::future<Result<LoadModuleResponse>> load_async(std::uint64_t session_id,
                                                     Bytes binary);
  std::future<Result<InvokeResponse>> invoke_async(const InvokeRequest& request);
  /// Fully non-blocking batch: chunks `requests` into INVOKE_BATCH frames,
  /// fires every chunk as a concurrent Fabric::send_async exchange and
  /// returns immediately; `on_complete` fires once per request (index +
  /// result) on the drain thread. The chunks EXECUTE concurrently but
  /// their callbacks are delivered in chunk-issue order (the drain thread
  /// is FIFO), so one slow early chunk delays delivery — not execution —
  /// of later ones; total completion time is still the slowest chunk. A
  /// chunk-level transport failure completes every index of that chunk
  /// with the error. Fails fast (without issuing anything) when not
  /// connected or the batch is empty.
  Status invoke_batch_async(const std::vector<InvokeRequest>& requests,
                            InvokeBatchCallback on_complete);

  /// `detail` asks the gateway to include its slow-invoke ring.
  Result<GatewayStats> stats(std::uint64_t session_id, bool detail = false);
  Status detach(std::uint64_t session_id);

  /// Names one ATTACH_BATCH frame carries; attach_all pipelines larger
  /// requests as concurrent chunk exchanges.
  static constexpr std::size_t kAttachBatchChunk = 32;
  /// Invocations one INVOKE_BATCH frame carries; invoke_all and
  /// invoke_batch_async pipeline larger batches as concurrent chunks.
  static constexpr std::size_t kInvokeBatchChunk = 32;

 private:
  Result<Bytes> call(ByteView request);
  /// Sleeps the jittered backoff for retry `attempt` (0-based).
  void backoff_sleep(int attempt);
  std::uint64_t next_jitter();

  /// One pending async exchange: the wire future plus the decode/fulfil
  /// step the drain thread runs when it lands.
  struct Completion {
    std::future<Result<Bytes>> wire;
    std::function<void(Result<Bytes>)> complete;
  };
  /// Hands a wire future to the drain thread (started lazily).
  void enqueue_completion(std::future<Result<Bytes>> wire,
                          std::function<void(Result<Bytes>)> complete);
  /// Drain loop: pops completions in issue order, waits for each wire
  /// exchange OUTSIDE the queue lock, runs the completion step. On stop it
  /// drains everything still queued before exiting, so no issued future
  /// or callback is ever abandoned.
  void drain_loop();
  /// Encodes `requests` as INVOKE_BATCH chunk frames (lane i == position
  /// within the chunk). Shared by invoke_all and invoke_batch_async.
  static std::vector<Bytes> invoke_chunk_frames(
      const std::vector<InvokeRequest>& requests);
  /// Maps one chunk's wire-level reply onto per-request results via
  /// `deliver(index_within_chunk, result)`.
  static void deliver_invoke_chunk(
      const Result<Bytes>& reply, std::size_t chunk_size,
      const std::function<void(std::size_t, Result<InvokeResponse>)>& deliver);

  net::Fabric& fabric_;
  std::uint64_t conn_ = 0;
  bool connected_ = false;
  BackoffConfig backoff_{};
  /// xorshift64 state; `this` decorrelates sibling clients' retry storms.
  std::uint64_t jitter_state_ =
      0x9E3779B97F4A7C15ull ^ reinterpret_cast<std::uint64_t>(this);

  /// Completion-drain machinery (see class comment for the thread model).
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::deque<Completion> completions_;
  bool drain_stop_ = false;
  std::thread drain_thread_;
};

}  // namespace watz::gateway
