#include "workloads.hpp"

#include <cmath>
#include <thread>

#include "crypto/sha256.hpp"
#include "guests.hpp"

namespace watzbench {

using namespace watz;

InteractiveOp next_interactive_op(Rng& rng) {
  InteractiveOp op;
  const auto draw = [&rng] {
    return std::pair{static_cast<std::int32_t>(rng.next()), static_cast<std::int32_t>(rng.next())};
  };
  if (rng.below(16) == 0) {
    op.batch = true;
    for (int lane = 0; lane < kBatchLanes; ++lane)
      op.args.push_back(lane > 0 && rng.below(4) == 0 ? op.args[rng.below(static_cast<std::uint64_t>(lane))]
                                                      : draw());
  } else {
    op.entry = static_cast<int>(rng.below(2));
    if (op.entry == 0) op.args.push_back(draw());
  }
  return op;
}

TenantPlan tenant_plan(std::uint64_t seed, std::uint64_t tenant) {
  constexpr std::size_t kMin = 64u << 10;
  constexpr std::size_t kMax = 2u << 20;
  const std::size_t kernels = polybench::suite().size();
  Rng cycle = stream(seed, 1000 + tenant / kernels);
  TenantPlan plan;
  plan.kernel = permutation(cycle, kernels)[tenant % kernels];
  const double offset = stream(seed, 7).unit();
  const double frac = std::fmod(offset + 0.6180339887498949 * static_cast<double>(tenant), 1.0);
  plan.target_bytes = kMin + static_cast<std::size_t>(frac * static_cast<double>(kMax - kMin));
  return plan;
}

Bytes tenant_binary(std::uint64_t seed, std::uint64_t tenant) {
  const TenantPlan plan = tenant_plan(seed, tenant);
  Rng rng = stream(seed, 1u << 20 | tenant);
  return tenant_module(polybench::suite()[plan.kernel], rng, plan.target_bytes);
}

std::string input_digest(std::uint64_t seed) {
  crypto::Sha256 h;
  const auto put = [&h](std::uint64_t v) {
    Bytes b;
    put_u64le(b, v);
    h.update(b);
  };
  for (int t = 0; t < kInteractiveClients; ++t) {
    Rng rng = stream(seed, 100 + t);
    for (int i = 0; i < 4096; ++i) {
      const InteractiveOp op = next_interactive_op(rng);
      put(op.batch);
      put(static_cast<std::uint64_t>(op.entry));
      for (auto [a, b] : op.args)
        put(static_cast<std::uint32_t>(a) | std::uint64_t{static_cast<std::uint32_t>(b)} << 32);
    }
  }
  Rng lanes = stream(seed, 210);
  for (int batch = 0; batch < 64; ++batch)
    for (std::size_t k : permutation(lanes, polybench::suite().size())) put(k);
  Rng orders = stream(seed, 300);
  for (int pass = 0; pass < 64; ++pass)
    for (std::size_t k : permutation(orders, polybench::suite().size())) put(k);
  for (std::uint64_t t = 0; t < 90; ++t) {
    const TenantPlan plan = tenant_plan(seed, t);
    put(plan.kernel);
    put(plan.target_bytes);
  }
  for (std::uint64_t t = 0; t < 3; ++t) h.update(tenant_binary(seed, t));
  return to_hex(h.finish());
}

ColdProbe::ColdProbe(std::uint64_t seed, Recorder& rec, SpanLog& log)
    : client_(fleet_, rec, log), rng_(stream(seed, 400)) {}

void ColdProbe::run() {
  Recorder& rec = client_.recorder();
  const auto session = client_.attach("probe-" + std::to_string(next_id_));
  if (!session) return;
  std::uint64_t load_ns = 0;
  const Bytes guest = tiny_guest(next_id_++);
  if (const auto measurement = client_.load(*session, guest, &load_ns)) {
    for (int rep = 0; rep < 2; ++rep) {
      const auto a = static_cast<std::uint32_t>(rng_.next()), b = static_cast<std::uint32_t>(rng_.next());
      InvokeSample sample;
      auto r = client_.invoke(make_request(*session, *measurement, "add",
                                           {wasm::Value::from_i32(static_cast<std::int32_t>(a)),
                                            wasm::Value::from_i32(static_cast<std::int32_t>(b))}),
                              &sample);
      if (!r) break;
      if (r->results.size() != 1 || r->results[0].i32() != static_cast<std::int32_t>(a + b)) {
        rec.fail("probe add: wrong sum");
        break;
      }
      (rep == 0 ? rec.first_invokes : rec.repeat_invokes).push_back(sample);
      (rep == 0 ? rec.first_result_ms : rec.repeat_result_ms)
          .push_back(sample.wall_us / 1e3 + (rep == 0 ? to_ms(load_ns) : 0));
    }
  }
  client_.detach(*session);
}

std::string wait_for_tier_up(Fleet& fleet, std::uint64_t expected, double timeout_s) {
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
  for (;;) {
    const gateway::GatewayStats stats = fleet.gateway().stats(/*detail=*/true);
    if (stats.tier_up_compiles >= expected) return "";
    if (now_ns() > deadline) {
      std::string why = "tier-up stopped at " + std::to_string(stats.tier_up_compiles) + " of " +
                        std::to_string(expected) + " functions;";
      for (const auto& d : stats.devices)
        for (const auto& m : d.modules)
          why += " " + d.hostname + ":" + std::to_string(m.native_functions) + "/" + std::to_string(m.functions) +
                 " native after " + std::to_string(m.calls) + " calls";
      return why;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void drain_gateway_spans(Fleet& fleet, PassResult& out) {
  auto spans = fleet.gateway().span_sink().drain();
  out.gateway_spans.insert(out.gateway_spans.end(), spans.begin(), spans.end());
}

void finish_pass(PassResult& out, const Recorder& setup, const Recorder& window, SpanLog& log) {
  out.attempted = setup.attempted + window.attempted;
  out.failed = setup.failed + window.failed;
  out.failures = setup.failures;
  out.failures.insert(out.failures.end(), window.failures.begin(), window.failures.end());
  out.spans = std::move(log.spans());
}

}  // namespace watzbench
