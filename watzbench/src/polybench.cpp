// polybench: guest execution on the tier the system ships. One session runs
// all 30 PolyBench kernels (64 pages, a heap small enough that all 30 stay
// pooled, so warm invokes pool-hit); after warm-up past the tier-up
// threshold on both boards and one untimed full pass, timed passes invoke
// every kernel at full n in a seeded order, each INVOKE followed by one
// native run of the kernel (the Fig 5 pair), with an INVOKE_BATCH after
// every few passes and a cold-path probe (ColdProbe) after every other one.
#include <algorithm>
#include <cstdio>

#include "guests.hpp"
#include "workloads.hpp"

namespace watzbench {

using namespace watz;

namespace {

/// Fleet set-ups per pass (~3 s each); setup_s is their median.
constexpr int kSetupReps = 3;
constexpr std::uint32_t kPages = 64;
/// Guest heap per invoke. At the 2 MiB default, 30 pooled kernels
/// (30 x 2 MiB of parked heaps) overflow the 8 MiB module-cache budget:
/// the cache evicts on every invoke, each re-prepare starts a fresh
/// TierSet with no heat, and nothing ever leaves the AOT stream. 128 KiB
/// keeps all 30 warm on each board (the kernels use linear memory only).
constexpr std::uint64_t kHeapBytes = 128u << 10;
/// The smallest warm-up n.
constexpr int kSmallN = 2;
constexpr std::uint64_t kHeatPerBoard = 72;  ///< calls per board, past the 64-call threshold
constexpr int kMaxWarmupRounds = 200;
/// The window sends one INVOKE_BATCH (one small-n lane of every kernel)
/// after every this many passes: the workload's batch sample, spread over
/// the window like its INVOKEs.
constexpr int kPassesPerBatch = 4;
/// The window runs a ColdProbe after every this many passes: the ATTACH
/// and first/repeat-result samples of a workload whose own ops are warm.
constexpr int kPassesPerProbe = 2;

struct Kernel {
  const polybench::KernelDef* def = nullptr;
  Bytes binary;
  double native_full = 0;           ///< checksum at n
  std::vector<double> native_small; ///< checksum at kSmallN + i
  crypto::Sha256Digest measurement{};

  /// Warm-up batch b runs the kernel at a small n cycling over 8..32
  /// values (fewer for kernels whose full n is small, keeping the
  /// AOT-stream warm-up cheap).
  int warmup_n(int batch) const { return kSmallN + batch % static_cast<int>(native_small.size()); }
  double small_checksum(int n) const { return native_small[static_cast<std::size_t>(n - kSmallN)]; }
};

struct State {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<Client> client;
  std::uint64_t session = 0;  ///< runs the suite
  std::uint64_t second = 0;   ///< pinned to the other board (first results, warm-up)
};

std::vector<wasm::Value> n_arg(int n) { return {wasm::Value::from_i32(n)}; }

/// True once every board's cache reports every kernel native or past the
/// tier-up threshold (STATS detail: per-measurement tier state).
bool hot_on_every_board(Fleet& fleet, const std::vector<Kernel>& kernels) {
  const gateway::GatewayStats stats = fleet.gateway().stats(/*detail=*/true);
  for (const auto& device : stats.devices)
    for (const Kernel& k : kernels) {
      const auto it = std::find_if(device.modules.begin(), device.modules.end(),
                                   [&](const auto& m) { return m.measurement == k.measurement; });
      if (it == device.modules.end()) return false;
      if (it->native_functions < it->functions && it->calls < kHeatPerBoard) return false;
    }
  return true;
}

/// INVOKE `k` at `n` and check the checksum; the sample lands in `*sample`.
bool invoke_checked(Client& client, std::uint64_t session, const Kernel& k, int n, double expected,
                    InvokeSample* sample, bool trace = false) {
  auto r = client.invoke(make_request(session, k.measurement, "run", n_arg(n), kHeapBytes), sample, trace);
  if (!r) return false;
  if (r->results.size() != 1 || !checksum_matches(r->results[0].f64(), expected)) {
    client.recorder().fail(std::string(k.def->name) + ": checksum mismatch at n=" + std::to_string(n));
    return false;
  }
  return true;
}

/// One INVOKE_BATCH of one small-n lane of every kernel in a seeded order;
/// every lane's checksum is checked.
void sample_batch(State& st, const std::vector<Kernel>& kernels, Rng& order, int b, bool trace) {
  Recorder& rec = st.client->recorder();
  const std::vector<std::size_t> lane_kernel = permutation(order, kernels.size());
  std::vector<gateway::InvokeRequest> requests;
  for (std::size_t i : lane_kernel)
    requests.push_back(
        make_request(st.session, kernels[i].measurement, "run", n_arg(kernels[i].warmup_n(b)), kHeapBytes));
  const auto results = st.client->batch(std::move(requests), trace);
  for (std::size_t lane = 0; lane < results.size(); ++lane) {
    const Kernel& k = kernels[lane_kernel[lane]];
    const int n = k.warmup_n(b);
    if (!results[lane].ok()) continue;  // counted by Client::batch
    if (results[lane]->results.size() != 1 || !checksum_matches(results[lane]->results[0].f64(), k.small_checksum(n)))
      rec.fail(std::string(k.def->name) + ": batch checksum mismatch at n=" + std::to_string(n));
    else
      ++rec.lanes_ok;
  }
}

std::unique_ptr<State> setup(std::vector<Kernel>& kernels, std::uint64_t seed, Recorder& rec, SpanLog& log) {
  ScopedSpan span(log, "setup");
  auto st = std::make_unique<State>();
  st->fleet = std::make_unique<Fleet>();
  st->client = std::make_unique<Client>(*st->fleet, rec, log);
  st->session = st->client->attach("polybench-0").value_or(0);
  st->second = st->client->attach("polybench-1").value_or(0);
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    Kernel& k = kernels[i];
    std::uint64_t load_ns = 0;
    k.measurement = st->client->load(st->session, k.binary, &load_ns).value_or(crypto::Sha256Digest{});
    // The first result at the kernel's own n: a cold INVOKE at a tiny n is
    // mostly first-touch page faults on the fresh 4 MiB linear memory,
    // whose cost on a virtualised host differs ~2x from run to run. The two
    // sessions take turns; the second's first invoke lands on the board the
    // first has not used, which pins one session to each board.
    const std::uint64_t session = i % 2 == 0 ? st->session : st->second;
    for (int rep = 0; rep < 2; ++rep) {
      InvokeSample sample;
      sample.entry = static_cast<int>(i);
      if (!invoke_checked(*st->client, session, k, k.def->n, k.native_full, &sample, log.enabled())) continue;
      (rep == 0 ? rec.first_invokes : rec.repeat_invokes).push_back(sample);
      (rep == 0 ? rec.first_result_ms : rec.repeat_result_ms)
          .push_back(sample.wall_us / 1e3 + (rep == 0 ? to_ms(load_ns) : 0));
    }
  }
  // Warm-up: the two sessions take turns invoking every kernel at a small n
  // until every kernel is past the tier-up threshold on both boards. Their
  // affinity keeps each session on the board of its first invoke, so both
  // boards get every kernel in step. (Batches starve a board instead: once
  // one board runs a kernel natively its service-time EWMA drops, and
  // placement sends it every lane.)
  Rng order = stream(seed, 210);
  int round = 0;
  for (; round < kMaxWarmupRounds && !hot_on_every_board(*st->fleet, kernels); ++round)
    for (std::size_t i : permutation(order, kernels.size()))
      for (const std::uint64_t session : {st->session, st->second}) {
        InvokeSample sample;
        const int n = kernels[i].warmup_n(round);
        invoke_checked(*st->client, session, kernels[i], n, kernels[i].small_checksum(n), &sample);
      }
  if (round == kMaxWarmupRounds) rec.fail("setup: kernels still below the tier-up threshold after warm-up");
  if (auto why = wait_for_tier_up(*st->fleet, kernels.size() * Fleet::kBoards, 5.0); !why.empty())
    rec.fail("setup: " + why);
  for (const Kernel& k : kernels) {  // one untimed full pass
    InvokeSample sample;
    invoke_checked(*st->client, st->session, k, k.def->n, k.native_full, &sample);
  }
  return st;
}

}  // namespace

PassResult run_polybench(const Options& opt, double seconds, bool traced) {
  PassResult out;
  // Inputs and native references, before any timing.
  std::vector<Kernel> kernels;
  for (const polybench::KernelDef& def : polybench::suite()) {
    Kernel k;
    k.def = &def;
    k.binary = kernel_binary(def, kPages);
    const int distinct = std::clamp(def.n / 8, 8, kBatchLanes);
    for (int n = kSmallN; n < kSmallN + distinct; ++n) k.native_small.push_back(native_checksum(def, n));
    k.native_full = native_checksum(def, def.n);
    kernels.push_back(std::move(k));
  }

  SpanLog log(traced, 0);
  Recorder setup_rec;
  std::vector<double> setup_s;
  auto st = repeated_setup(kSetupReps, setup_s, [&] { return setup(kernels, opt.seed, setup_rec, log); });
  if (traced) drain_gateway_spans(*st->fleet, out);

  std::unique_ptr<HeapSampler> heap;
  if (traced) heap = std::make_unique<HeapSampler>(*st->fleet);
  Recorder window;
  st->client->bind(window, log);
  Recorder probe_rec;
  ColdProbe probe(opt.seed, probe_rec, log);
  Rng orders = stream(opt.seed, 300);
  Rng lane_orders = stream(opt.seed, 210);
  std::vector<std::vector<double>> native_ms(kernels.size());
  std::uint64_t aside_ns = 0;  // native runs and probes: not the workload's time
  const Snapshot a = snapshot(*st->fleet);
  const std::uint64_t deadline = a.at_ns + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t passes = 0;
  {
    ScopedSpan span(log, "window");
    // Whole passes only, so every kernel carries the same weight.
    for (; passes == 0 || now_ns() < deadline; ++passes) {
      for (std::size_t i : permutation(orders, kernels.size())) {
        InvokeSample sample;
        sample.entry = static_cast<int>(i);
        if (!invoke_checked(*st->client, st->session, kernels[i], kernels[i].def->n, kernels[i].native_full, &sample,
                            traced))
          continue;
        window.invokes.add(sample);
        ScopedSpan native_span(log, "native");
        const std::uint64_t t0 = now_ns();
        native_ms[i].push_back(native_kernel_ms(*kernels[i].def));
        aside_ns += now_ns() - t0;
      }
      if (passes % kPassesPerBatch == kPassesPerBatch - 1)
        sample_batch(*st, kernels, lane_orders, static_cast<int>(passes / kPassesPerBatch), traced);
      if (passes % kPassesPerProbe == kPassesPerProbe - 1) {
        const std::uint64_t t0 = now_ns();
        probe.run();
        aside_ns += now_ns() - t0;
      }
      if (traced) drain_gateway_spans(*st->fleet, out);
    }
  }
  const Snapshot b = snapshot(*st->fleet);
  const double heap_peak = heap ? heap->peak_mb() : 0.0;
  heap.reset();

  EndToEnd e2e;
  e2e.setup_s = setup_s;
  e2e.invokes = &window;
  e2e.batches = &window;
  e2e.attaches = &probe_rec;
  e2e.firsts = &probe_rec;
  e2e.p50_of_entry_medians = true;
  e2e.window_s = static_cast<double>(b.at_ns - a.at_ns - aside_ns) / 1e9;
  e2e.window_invokes = window.invokes.seen() + window.lanes_ok;
  const auto entry_us =
      per_entry_median(window.invokes.items(), static_cast<int>(kernels.size()), &InvokeSample::wall_us);
  for (std::size_t i = 0; i < kernels.size() && i < entry_us.size(); ++i) {
    const double ms = entry_us[i] / 1e3;
    e2e.entry_ms.push_back(ms);
    e2e.entry_slowdown.push_back(ms / median(native_ms[i]));
    out.kernel_rows.emplace_back(kernels[i].def->name, ms);
  }
  fill_end_to_end(out.e2e, e2e);
  out.notes.push_back("set-up, kernels at n: " + first_result_note(setup_rec));
  out.notes.push_back("cold probes, tiny guest: " + first_result_note(probe_rec));
  window.merge(std::move(probe_rec));  // its ops count as the window's

  char line[200];
  std::snprintf(line, sizeof line, "window: %llu passes, %llu kernel invokes, %zu batches",
                static_cast<unsigned long long>(passes), static_cast<unsigned long long>(window.invokes.seen()),
                window.batch_ms.size());
  out.notes.push_back(line);
  std::snprintf(line, sizeof line, "Fig 5: gateway Wasm %.2fx native C (geomean over %zu kernels; paper 1.34x)",
                out.e2e["fig5_slowdown_geomean"], e2e.entry_slowdown.size());
  out.notes.push_back(line);

  if (traced) {
    const StageTimes stages = stage_times(out.gateway_spans);
    fleet_layers(out.layer, a, b, window, window.attempted, stages);
    cold_path_layers(out.layer, setup_rec, setup_rec, stages);
    cache_layers(out.layer, b.stats, 2, heap_peak);
    std::vector<const Bytes*> binaries;
    for (const Kernel& k : kernels) binaries.push_back(&k.binary);
    out.layer["wasm.tier_compile_ms_total"] = tier_compile_ms(b.stats, binaries);
    const Kernel* largest = &kernels[0];
    for (const Kernel& k : kernels)
      if (k.binary.size() > largest->binary.size()) largest = &k;
    std::vector<double> ree;
    {
      ScopedSpan span(log, "layer.direct");
      direct_layers(out.layer, out.notes, largest->binary);
      for (const Kernel& k : kernels) {
        double checksum = 0;
        ree.push_back(ree_ms(k.binary, "run", n_arg(k.def->n), 3, &checksum));
        if (!checksum_matches(checksum, k.native_full)) setup_rec.fail(std::string(k.def->name) + ": REE checksum");
      }
    }
    out.layer["wasm.ree_ms_geomean"] = geomean(ree);
    out.layer["wasm.watz_over_wamr"] = ratio(out.layer["core.sandbox_ms_geomean"], out.layer["wasm.ree_ms_geomean"]);
    std::snprintf(line, sizeof line, "Fig 5: WaTZ sandbox / WAMR (REE, all compiled) = %.3f (paper ~1.0)",
                  out.layer["wasm.watz_over_wamr"]);
    out.notes.push_back(line);
  }

  finish_pass(out, setup_rec, window, log);
  return out;
}

}  // namespace watzbench
