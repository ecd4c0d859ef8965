// onboarding: the cold path. Each tenant ATTACHes a fresh session (an RA
// handshake with both boards), uploads a module no earlier tenant uploaded
// (a seed-perturbed PolyBench kernel padded to up to ~2 MB), INVOKEs it
// twice at the kernel's n with the paper's 12 MB heap, and DETACHes.
#include <algorithm>
#include <cstdio>
#include <map>

#include "guests.hpp"
#include "workloads.hpp"

namespace watzbench {

using namespace watz;

namespace {

/// Fleet set-ups per pass (cheap); setup_s is their median.
constexpr int kSetupReps = 7;
constexpr std::uint64_t kPaperHeap = 12u << 20;
/// Set-up batches: the first cold-prepares the guest on both boards.
constexpr int kWarmupBatches = 2;

/// A resident session next to the tenants: it keeps the tiny guest warm and
/// sends one 32-lane batch between tenants (the workload's INVOKE_BATCH
/// sample, spread over the whole window).
struct Resident {
  std::uint64_t session = 0;
  crypto::Sha256Digest measurement{};
  Rng rng{0};

  void batch(Client& client) {
    std::vector<std::pair<std::int32_t, std::int32_t>> args;
    std::vector<gateway::InvokeRequest> requests;
    for (int lane = 0; lane < kBatchLanes; ++lane) {
      args.emplace_back(static_cast<std::int32_t>(rng.next() >> 34), static_cast<std::int32_t>(rng.next() >> 34));
      requests.push_back(make_request(session, measurement, "add",
                                      {wasm::Value::from_i32(args.back().first),
                                       wasm::Value::from_i32(args.back().second)}));
    }
    const auto results = client.batch(std::move(requests));
    for (std::size_t lane = 0; lane < results.size(); ++lane)
      if (results[lane].ok() && (results[lane]->results.size() != 1 ||
                                 results[lane]->results[0].i32() != args[lane].first + args[lane].second))
        client.recorder().fail("resident lane " + std::to_string(lane) + ": wrong sum");
  }
};

struct State {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<Client> client;
  Resident resident;
};

std::unique_ptr<State> setup(const Options& opt, const Bytes& guest, Recorder& rec, SpanLog& log) {
  ScopedSpan span(log, "setup");
  auto st = std::make_unique<State>();
  st->fleet = std::make_unique<Fleet>();
  st->client = std::make_unique<Client>(*st->fleet, rec, log);
  Resident& resident = st->resident;
  resident.session = st->client->attach("resident").value_or(0);
  std::uint64_t load_ns = 0;
  resident.measurement = st->client->load(resident.session, guest, &load_ns).value_or(crypto::Sha256Digest{});
  resident.rng = stream(opt.seed, 20);
  for (int b = 0; b < kWarmupBatches; ++b) resident.batch(*st->client);
  return st;
}

}  // namespace

PassResult run_onboarding(const Options& opt, double seconds, bool traced) {
  PassResult out;
  const Bytes guest = tiny_guest();
  const auto suite = polybench::suite();
  std::vector<double> native_full;
  for (const auto& def : suite) native_full.push_back(native_checksum(def, def.n));
  std::map<std::size_t, std::vector<double>> native_ms;  // kernel -> native run after each second INVOKE

  SpanLog log(traced, 0);
  Recorder setup_rec;
  std::vector<double> setup_s;
  auto st = repeated_setup(kSetupReps, setup_s, [&] { return setup(opt, guest, setup_rec, log); });
  if (traced) drain_gateway_spans(*st->fleet, out);

  std::unique_ptr<HeapSampler> heap;
  if (traced) heap = std::make_unique<HeapSampler>(*st->fleet);
  Recorder window;
  Client& client = *st->client;
  client.bind(window, log);
  const Snapshot a = snapshot(*st->fleet);
  // The window is tenant time only: generating the next tenant's module
  // and the resident session's batch happen between tenants.
  std::uint64_t tenant_ns = 0;
  std::uint64_t tenants = 0;
  while (tenant_ns < static_cast<std::uint64_t>(seconds * 1e9)) {
    const TenantPlan plan = tenant_plan(opt.seed, tenants);
    const Bytes binary = tenant_binary(opt.seed, tenants);
    const auto& def = suite[plan.kernel];
    const int entry = static_cast<int>(plan.kernel);
    const std::uint64_t t0 = now_ns();
    {
      ScopedSpan span(log, "tenant");
      const auto session = client.attach("tenant-" + std::to_string(tenants));
      std::uint64_t load_ns = 0;
      const auto measurement = session ? client.load(*session, binary, &load_ns) : std::nullopt;
      for (int rep = 0; measurement && rep < 2; ++rep) {
        InvokeSample sample;
        sample.entry = entry;
        auto r = client.invoke(
            make_request(*session, *measurement, "run", {wasm::Value::from_i32(def.n)}, kPaperHeap), &sample,
            traced);
        if (!r) break;
        if (r->results.size() != 1 || !checksum_matches(r->results[0].f64(), native_full[plan.kernel])) {
          window.fail(std::string(def.name) + ": checksum mismatch");
          break;
        }
        window.invokes.add(sample);
        (rep == 0 ? window.first_invokes : window.repeat_invokes).push_back(sample);
        (rep == 0 ? window.first_result_ms : window.repeat_result_ms)
            .push_back(sample.wall_us / 1e3 + (rep == 0 ? to_ms(load_ns) : 0));
      }
      if (session) client.detach(*session);
    }
    tenant_ns += now_ns() - t0;
    {
      ScopedSpan span(log, "native");
      native_ms[plan.kernel].push_back(native_kernel_ms(def));
    }
    ++tenants;
    st->resident.batch(client);
    if (traced) drain_gateway_spans(*st->fleet, out);
  }
  client.detach(st->resident.session);
  const Snapshot b = snapshot(*st->fleet);
  const double heap_peak = heap ? heap->peak_mb() : 0.0;
  heap.reset();

  EndToEnd e2e;
  e2e.setup_s = setup_s;
  e2e.invokes = &window;
  e2e.batches = &window;
  e2e.attaches = &window;
  e2e.firsts = &window;
  e2e.window_s = static_cast<double>(tenant_ns) / 1e9;
  e2e.window_invokes = window.invokes.seen();
  std::map<std::size_t, std::vector<double>> repeat_ms;  // kernel -> second-INVOKE wall times
  for (const auto& s : window.repeat_invokes) repeat_ms[static_cast<std::size_t>(s.entry)].push_back(s.wall_us / 1e3);
  for (const auto& [k, walls] : repeat_ms) {
    const double ms = median(walls);
    e2e.entry_ms.push_back(ms);
    e2e.entry_slowdown.push_back(ms / median(native_ms[k]));
    out.kernel_rows.emplace_back(suite[k].name, ms);
  }
  fill_end_to_end(out.e2e, e2e);
  out.notes.push_back(first_result_note(window));

  char line[200];
  std::snprintf(line, sizeof line, "window: %llu tenants over %zu kernels in %.2f s of tenant time",
                static_cast<unsigned long long>(tenants), repeat_ms.size(), e2e.window_s);
  out.notes.push_back(line);

  if (traced) {
    const StageTimes stages = stage_times(out.gateway_spans);
    fleet_layers(out.layer, a, b, window, window.attempted, stages);
    cold_path_layers(out.layer, window, window, stages);
    cache_layers(out.layer, b.stats, tenants + 1, heap_peak);
    out.layer["wasm.tier_compile_ms_total"] = tier_compile_ms(b.stats, {&guest});
    std::vector<double> ree;
    {
      ScopedSpan span(log, "layer.direct");
      // A full-size (2 MiB) tenant module, so per-MB figures compare across seeds.
      Rng rng = stream(opt.seed, 30);
      direct_layers(out.layer, out.notes, tenant_module(suite[tenant_plan(opt.seed, 0).kernel], rng, 2u << 20));
      for (const auto& [k, walls] : repeat_ms) {
        double checksum = 0;
        ree.push_back(ree_ms(kernel_binary(suite[k], 512), "run", {wasm::Value::from_i32(suite[k].n)}, 3, &checksum));
        if (!checksum_matches(checksum, native_full[k])) setup_rec.fail(std::string(suite[k].name) + ": REE checksum");
      }
    }
    out.layer["wasm.ree_ms_geomean"] = geomean(ree);
    out.layer["wasm.watz_over_wamr"] = ratio(out.layer["core.sandbox_ms_geomean"], out.layer["wasm.ree_ms_geomean"]);
  }

  finish_pass(out, setup_rec, window, log);
  return out;
}

}  // namespace watzbench
