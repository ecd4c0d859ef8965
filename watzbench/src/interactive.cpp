// interactive: the gateway hot path. Two closed-loop client threads, each
// with its own connection and session, drive a tiny guest with single
// INVOKEs (add, clock) and, one op in 16, a 32-lane INVOKE_BATCH.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "guests.hpp"
#include "workloads.hpp"

namespace watzbench {

using namespace watz;

namespace {

/// Fleet set-ups per pass (cheap; many, so the set-up samples span a few
/// seconds of host noise); setup_s is their median.
constexpr int kSetupReps = 25;
/// Warm-up ops per client: each entry well past the 64-call tier-up
/// threshold on each board.
constexpr int kWarmupOps = 400;
/// The timed window runs in slices of this length. Between slices, while
/// the clients wait, the native references are timed (the best of them
/// all is the reference: on a shared host the least-disturbed run is the
/// steady one) and cold-path probes run.
constexpr double kSliceS = 1.0;
/// Cold-path probes between slices: the ATTACH and first/repeat-result
/// samples, spread over the window (the set-ups' few cold ops sample only
/// a few seconds of host time).
constexpr int kProbesPerSlice = 2;
/// Every Nth op of a traced pass carries a wire trace id.
constexpr int kTraceEvery = 16;
/// Native functions once warm: add and clock on every board.
constexpr std::uint64_t kTieredFunctions = 2 * Fleet::kBoards;

struct State {
  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::uint64_t> sessions;
  crypto::Sha256Digest measurement{};
  std::vector<int> client_cpus;  ///< Options::client_cpus
};

bool add_ok(const gateway::InvokeResponse& r, std::int32_t a, std::int32_t b) {
  const auto expected = static_cast<std::int32_t>(static_cast<std::uint32_t>(a) + static_cast<std::uint32_t>(b));
  return r.results.size() == 1 && r.results[0].i32() == expected;
}

std::vector<wasm::Value> add_args(std::pair<std::int32_t, std::int32_t> ab) {
  return {wasm::Value::from_i32(ab.first), wasm::Value::from_i32(ab.second)};
}

/// One client's closed loop over its seeded op stream until `deadline_ns`
/// or `max_ops`; outputs are checked op by op (every batch lane alone).
void client_loop(Client& client, std::uint64_t session, const crypto::Sha256Digest& measurement, Rng& rng,
                 std::uint64_t deadline_ns, std::uint64_t max_ops, int trace_every) {
  Recorder& rec = client.recorder();
  for (std::uint64_t i = 0; i < max_ops && now_ns() < deadline_ns; ++i) {
    const InteractiveOp op = next_interactive_op(rng);
    const bool trace = trace_every > 0 && i % static_cast<std::uint64_t>(trace_every) == 0;
    if (op.batch) {
      std::vector<gateway::InvokeRequest> requests;
      for (const auto& ab : op.args) requests.push_back(make_request(session, measurement, "add", add_args(ab)));
      const auto results = client.batch(std::move(requests), trace);
      for (std::size_t lane = 0; lane < results.size(); ++lane) {
        if (!results[lane].ok()) continue;  // counted by Client::batch
        if (!add_ok(*results[lane], op.args[lane].first, op.args[lane].second)) {
          rec.fail("batch lane " + std::to_string(lane) + ": wrong sum");
          continue;
        }
        ++rec.lanes_ok;
      }
      continue;
    }
    InvokeSample sample;
    sample.entry = op.entry;
    if (op.entry == 0) {
      auto r = client.invoke(make_request(session, measurement, "add", add_args(op.args[0])), &sample, trace);
      if (!r) continue;
      if (!add_ok(*r, op.args[0].first, op.args[0].second)) {
        rec.fail("add: wrong sum");
        continue;
      }
    } else {
      auto r = client.invoke(make_request(session, measurement, "clock", {}), &sample, trace);
      if (!r) continue;
      if (r->results.size() != 1 || r->results[0].i32() != 0) {
        rec.fail("clock: non-zero errno");
        continue;
      }
    }
    rec.invokes.add(sample);
  }
}

/// Client t's op stream.
std::vector<Rng> client_streams(std::uint64_t seed, std::uint64_t salt) {
  std::vector<Rng> rngs;
  for (int t = 0; t < kInteractiveClients; ++t) rngs.push_back(stream(seed, salt + static_cast<std::uint64_t>(t)));
  return rngs;
}

/// Runs every client's loop on its own thread, each drawing its ops from
/// its stream in `rngs`, for `slices` slices of `slice_ns` each (a client
/// ends a slice early after `max_ops` ops). Before each slice the calling
/// thread runs `between()` while the clients wait; while they run, it
/// drains the gateway's spans (traced passes). The threads live across
/// slices. Returns the time the clients ran.
std::uint64_t run_clients(State& st, std::vector<Recorder>& recs, std::vector<SpanLog>& logs, std::vector<Rng>& rngs,
                          int slices, std::uint64_t slice_ns, std::uint64_t max_ops, int trace_every,
                          PassResult* drain_into, const std::function<void()>& between) {
  std::barrier sync(kInteractiveClients + 1);
  std::atomic<std::uint64_t> deadline{0};
  std::atomic<int> running{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kInteractiveClients; ++t) {
    st.clients[t]->bind(recs[t], logs[t]);
    threads.emplace_back([&, t] {
      if (!st.client_cpus.empty()) pin_current_thread({st.client_cpus[t % st.client_cpus.size()]});
      for (int slice = 0; slice < slices; ++slice) {
        sync.arrive_and_wait();
        client_loop(*st.clients[t], st.sessions[t], st.measurement, rngs[t], deadline.load(), max_ops, trace_every);
        --running;
        sync.arrive_and_wait();
      }
    });
  }
  std::uint64_t ran_ns = 0;
  for (int slice = 0; slice < slices; ++slice) {
    between();
    running = kInteractiveClients;
    const std::uint64_t t0 = now_ns();
    deadline = slice_ns > ~std::uint64_t{0} - t0 ? ~std::uint64_t{0} : t0 + slice_ns;
    sync.arrive_and_wait();
    while (drain_into != nullptr && running.load() > 0) {
      drain_gateway_spans(*st.fleet, *drain_into);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    sync.arrive_and_wait();
    ran_ns += now_ns() - t0;
  }
  for (auto& th : threads) th.join();
  return ran_ns;
}

std::unique_ptr<State> setup(const Options& opt, const Bytes& guest, Recorder& rec, SpanLog& log) {
  ScopedSpan span(log, "setup");
  auto st = std::make_unique<State>();
  st->fleet = start_on_cpus(opt.fleet_cpus, [] { return std::make_unique<Fleet>(); });
  st->client_cpus = opt.client_cpus;
  for (int t = 0; t < kInteractiveClients; ++t) {
    st->clients.push_back(std::make_unique<Client>(*st->fleet, rec, log));
    st->sessions.push_back(st->clients[t]->attach("tenant-" + std::to_string(t)).value_or(0));
  }
  Client& first = *st->clients[0];
  std::uint64_t load_ns = 0;
  st->measurement = first.load(st->sessions[0], guest, &load_ns).value_or(crypto::Sha256Digest{});
  Rng rng = stream(opt.seed, 10);
  for (int i = 0; i < 2; ++i) {
    const auto ab = std::pair{static_cast<std::int32_t>(rng.next()), static_cast<std::int32_t>(rng.next())};
    InvokeSample sample;
    auto r = first.invoke(make_request(st->sessions[0], st->measurement, "add", add_args(ab)), &sample, log.enabled());
    if (!r) continue;
    if (!add_ok(*r, ab.first, ab.second)) {
      rec.fail("add: wrong sum");
      continue;
    }
    (i == 0 ? rec.first_invokes : rec.repeat_invokes).push_back(sample);
    (i == 0 ? rec.first_result_ms : rec.repeat_result_ms)
        .push_back(sample.wall_us / 1e3 + (i == 0 ? to_ms(load_ns) : 0));
  }
  // Warm-up: both clients run their loops past the tier-up threshold on
  // both boards, then wait for the sweeper to install native code.
  std::vector<Recorder> recs(kInteractiveClients);
  std::vector<SpanLog> logs;
  for (int t = 0; t < kInteractiveClients; ++t) logs.emplace_back(log.enabled(), static_cast<std::uint32_t>(t + 1));
  std::vector<Rng> rngs = client_streams(opt.seed, 150);
  run_clients(*st, recs, logs, rngs, 1, ~std::uint64_t{0}, kWarmupOps, 0, nullptr, [] {});
  for (int t = 0; t < kInteractiveClients; ++t) {
    rec.merge(std::move(recs[t]));
    log.spans().insert(log.spans().end(), logs[t].spans().begin(), logs[t].spans().end());
    st->clients[t]->bind(rec, log);
  }
  // Wait for the sweeper to compile what the warm-up made hot: all of it,
  // or whatever it reaches before 50 ms pass without a new compile (a
  // board that placement left nearly idle stays on the AOT stream, as it
  // would in service).
  std::uint64_t compiled = 0;
  for (std::uint64_t last_change = now_ns(); compiled < kTieredFunctions && now_ns() - last_change < 50'000'000;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (const std::uint64_t c = st->fleet->gateway().stats().tier_up_compiles; c != compiled) {
      compiled = c;
      last_change = now_ns();
    }
  }
  return st;
}

}  // namespace

PassResult run_interactive(const Options& opt, double seconds, bool traced) {
  PassResult out;
  const Bytes guest = tiny_guest();

  SpanLog log(traced, 0);
  Recorder setup_rec;
  std::vector<double> setup_s;
  auto st = repeated_setup(kSetupReps, setup_s, [&] { return setup(opt, guest, setup_rec, log); });
  if (traced) drain_gateway_spans(*st->fleet, out);

  std::unique_ptr<HeapSampler> heap;
  if (traced) heap = std::make_unique<HeapSampler>(*st->fleet);
  std::vector<SpanLog> logs;
  for (int t = 0; t < kInteractiveClients; ++t) logs.emplace_back(traced, static_cast<std::uint32_t>(t + 1));
  std::vector<Rng> rngs = client_streams(opt.seed, 100);
  std::vector<Recorder> recs(kInteractiveClients);
  Recorder probe_rec;
  ColdProbe probe(opt.seed, probe_rec, log);
  double native_ns[2] = {1e300, 1e300};  // add, clock
  const auto slices = static_cast<int>(std::max(1.0, std::round(seconds / kSliceS)));
  const Snapshot a = snapshot(*st->fleet);
  const std::uint64_t client_ns = run_clients(
      *st, recs, logs, rngs, slices, static_cast<std::uint64_t>(seconds / slices * 1e9), ~std::uint64_t{0},
      traced ? kTraceEvery : 0, traced ? &out : nullptr, [&] {
        {
          ScopedSpan span(log, "native");
          native_ns[0] = std::min(native_ns[0], native_add_ns());
          native_ns[1] = std::min(native_ns[1], native_clock_ns());
        }
        for (int p = 0; p < kProbesPerSlice; ++p) probe.run();
      });
  const Snapshot b = snapshot(*st->fleet);
  const double heap_peak = heap ? heap->peak_mb() : 0.0;
  heap.reset();

  Recorder window;
  for (auto& r : recs) window.merge(std::move(r));
  EndToEnd e2e;
  e2e.setup_s = setup_s;
  e2e.invokes = &window;
  e2e.batches = &window;
  e2e.attaches = &probe_rec;
  e2e.firsts = &probe_rec;
  e2e.window_s = static_cast<double>(client_ns) / 1e9;
  e2e.window_invokes = window.invokes.seen() + window.lanes_ok;
  const auto entry_us = per_entry_median(window.invokes.items(), 2, &InvokeSample::wall_us);
  for (std::size_t e = 0; e < entry_us.size(); ++e) {
    e2e.entry_ms.push_back(entry_us[e] / 1e3);
    e2e.entry_slowdown.push_back(entry_us[e] * 1e3 / native_ns[e]);
  }
  fill_end_to_end(out.e2e, e2e);
  out.notes.push_back("set-up: " + first_result_note(setup_rec));
  out.notes.push_back("cold probes: " + first_result_note(probe_rec));
  window.merge(std::move(probe_rec));  // its ops count as the window's

  char line[200];
  std::snprintf(line, sizeof line, "window: %llu invokes, %zu batches (%llu lanes); native add %.2f ns, clock %.2f ns",
                static_cast<unsigned long long>(window.invokes.seen()), window.batch_ms.size(),
                static_cast<unsigned long long>(window.batch_lanes), native_ns[0], native_ns[1]);
  out.notes.push_back(line);

  if (traced) {
    drain_gateway_spans(*st->fleet, out);
    const StageTimes stages = stage_times(out.gateway_spans);
    fleet_layers(out.layer, a, b, window, window.attempted, stages);
    cold_path_layers(out.layer, setup_rec, setup_rec, stages);
    cache_layers(out.layer, b.stats, st->sessions.size(), heap_peak);
    out.layer["wasm.tier_compile_ms_total"] = tier_compile_ms(b.stats, {&guest});
    {
      ScopedSpan span(log, "layer.direct");
      direct_layers(out.layer, out.notes, guest);
    }
    double sum = 0, errno_value = -1;
    const double ree_add = ree_ms(guest, "add", add_args({40, 2}), 2001, &sum);
    const double ree_clock = ree_ms(guest, "clock", {}, 2001, &errno_value);
    if (sum != 42 || errno_value != 0) setup_rec.fail("REE tiny guest: wrong result");
    out.layer["wasm.ree_ms_geomean"] = geomean({ree_add, ree_clock});
    out.layer["wasm.watz_over_wamr"] = ratio(out.layer["core.sandbox_ms_geomean"], out.layer["wasm.ree_ms_geomean"]);
    std::snprintf(line, sizeof line,
                  "Fig 3: modelled %.1f us of world switches per invoke (paper: enter %.0f + leave %.0f us)",
                  out.layer["hw.modelled_us_per_invoke"], kPaperEnterUs, kPaperLeaveUs);
    out.notes.push_back(line);
  }

  for (auto& l : logs) log.spans().insert(log.spans().end(), l.spans().begin(), l.spans().end());
  finish_pass(out, setup_rec, window, log);
  return out;
}

}  // namespace watzbench
