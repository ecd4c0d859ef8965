// Gateway-level native tier + SUBMIT memo tests: every function is
// compiled at load, so the first invoke already runs native code and no
// compile happens after it; native code counts against the module-cache
// budget; the binary registry keeps binaries the cache still serves; the
// tier counters ride the STATS wire frame; and the single-invoke result
// memo answers twin SUBMITs without entering a sandbox.
//
// Every native-specific assertion is gated on wasm::jit::jit_available():
// under WATZ_DISABLE_JIT (the CI fallback leg) or on non-x86-64 hosts the
// suite still runs end to end and asserts the degraded-to-AOT behaviour
// (zero compiles, correct results).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/device.hpp"
#include "gateway/gateway.hpp"
#include "wasm/builder.hpp"
#include "wasm/jit/jit.hpp"

namespace watz::gateway {
namespace {

core::DeviceConfig device_config(const std::string& hostname, std::uint8_t id) {
  core::DeviceConfig config;
  config.hostname = hostname;
  config.otpmk.fill(id);
  config.latency.enabled = false;
  return config;
}

/// Guest exporting work(n) -> sum(1..n): an integer loop the baseline JIT
/// lowers entirely to native code (no fallback thunks).
Bytes compute_app() {
  wasm::ModuleBuilder b;
  b.add_memory(1);
  const auto f = b.add_function(
      {{wasm::ValType::I32}, {wasm::ValType::I32}},
      {wasm::ValType::I32, wasm::ValType::I32});  // locals: 1 = i, 2 = acc
  wasm::CodeEmitter e;
  e.block(0x40);
  e.loop(0x40);
  e.local_get(1).local_get(0).op(wasm::kI32GeS).br_if(1);
  e.local_get(1).i32_const(1).op(wasm::kI32Add).local_tee(1);
  e.local_get(2).op(wasm::kI32Add).local_set(2);
  e.br(0);
  e.end();
  e.end();
  e.local_get(2);
  b.set_body(f, e.bytes());
  b.export_function("work", f);
  return b.build();
}

/// Guest of ~`kib` KiB of unrolled i64 arithmetic exporting run() -> i64;
/// `salt` makes each one a distinct measurement.
Bytes bulky_app(int kib, std::int64_t salt) {
  wasm::ModuleBuilder b;
  b.add_memory(1);
  wasm::CodeEmitter e;
  e.i64_const(salt);
  for (int i = 0; i < kib * 93; ++i)  // ~11 bytes per const+add pair
    e.i64_const(0x0102030405060708LL + i).op(wasm::kI64Add);
  const auto f = b.add_function({{}, {wasm::ValType::I64}});
  b.set_body(f, e.bytes());
  b.export_function("run", f);
  return b.build();
}

class GatewayTieringTest : public ::testing::Test {
 protected:
  void SetUpFleet(GatewayConfig config) {
    vendor_ = core::Vendor::create(to_bytes("gw-tier-vendor"));
    auto device =
        core::Device::boot(fabric_, vendor_, device_config("tier-node", 0x61));
    ASSERT_TRUE(device.ok()) << device.error();
    devices_.push_back(std::move(*device));
    gateway_ = std::make_unique<Gateway>(fabric_, config, to_bytes("gw-tier-id"));
    ASSERT_TRUE(gateway_->start().ok());
    for (auto& d : devices_) ASSERT_TRUE(gateway_->add_device(*d).ok());
    client_ = std::make_unique<GatewayClient>(fabric_);
    ASSERT_TRUE(client_->connect(config.hostname, config.port).ok());
  }

  /// Attach + upload compute_app; fills session_ and measurement_.
  void AttachAndLoad() {
    auto attach = client_->attach("tier-tenant");
    ASSERT_TRUE(attach.ok()) << attach.error();
    session_ = attach->session_id;
    auto load = client_->load_module(session_, compute_app());
    ASSERT_TRUE(load.ok()) << load.error();
    measurement_ = load->measurement;
  }

  InvokeRequest work_request(std::int32_t n) {
    InvokeRequest req;
    req.session_id = session_;
    req.measurement = measurement_;
    req.entry = "work";
    req.args = {wasm::Value::from_i32(n)};
    req.heap_bytes = 1 << 20;
    return req;
  }

  /// Polls a SUBMIT ticket to completion (bounded spin: the in-process
  /// fabric makes results land in microseconds).
  Result<InvokeResponse> redeem(std::uint64_t ticket) {
    for (int spin = 0; spin < 20000; ++spin) {
      auto poll = client_->poll(session_, ticket);
      if (!poll.ok()) return Result<InvokeResponse>::err(poll.error());
      if (poll->ready) {
        if (!poll->error.empty()) return Result<InvokeResponse>::err(poll->error);
        return std::move(poll->result);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return Result<InvokeResponse>::err("test: poll timed out");
  }

  net::Fabric fabric_;
  core::Vendor vendor_;
  std::vector<std::unique_ptr<core::Device>> devices_;
  std::unique_ptr<Gateway> gateway_;
  std::unique_ptr<GatewayClient> client_;
  std::uint64_t session_ = 0;
  crypto::Sha256Digest measurement_{};
};

TEST_F(GatewayTieringTest, FirstInvokeRunsNativeWithNoCompileAfterLoad) {
  SetUpFleet(GatewayConfig{});
  AttachAndLoad();
  const bool native = wasm::jit::jit_available();

  // The first invoke prepares the module — compiling every function — and
  // already runs on the native entry.
  auto first = client_->invoke(work_request(1000));
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first->results.front().i32(), 500500);
  GatewayStats stats = gateway_->stats(/*detail=*/true);
  ASSERT_EQ(stats.devices.size(), 1u);
  ASSERT_EQ(stats.devices[0].modules.size(), 1u);
  const ModuleTierStats& tier = stats.devices[0].modules[0];
  EXPECT_EQ(tier.functions, 1u);
  EXPECT_EQ(tier.native_functions, native ? tier.functions : 0u);
  EXPECT_EQ(stats.tier_up_compiles, native ? 1u : 0u);
  EXPECT_EQ(stats.native_entries, native ? 1u : 0u);
  // Pure-integer module: nothing goes through the thunks.
  EXPECT_EQ(stats.jit_fallback_ops, 0u);

  // Later invokes compile nothing more and keep running native code.
  for (int i = 0; i < 3; ++i) {
    auto again = client_->invoke(work_request(2000));
    ASSERT_TRUE(again.ok()) << again.error();
    EXPECT_EQ(again->results.front().i32(), 2001000);
  }
  stats = gateway_->stats();
  EXPECT_EQ(stats.tier_up_compiles, native ? 1u : 0u);
  EXPECT_EQ(stats.native_entries, native ? 4u : 0u);
}

TEST_F(GatewayTieringTest, TieringCountersRideTheStatsWire) {
  SetUpFleet(GatewayConfig{});
  AttachAndLoad();

  ASSERT_TRUE(client_->invoke(work_request(10)).ok());
  ASSERT_TRUE(client_->invoke(work_request(10)).ok());

  // Round-trip through the wire encoding: the client-side decode must see
  // what the gateway serialised, including the detail-gated compile stage.
  auto wire = client_->stats(session_, /*detail=*/true);
  ASSERT_TRUE(wire.ok()) << wire.error();
  GatewayStats local = gateway_->stats(true);
  EXPECT_EQ(wire->tier_up_compiles, local.tier_up_compiles);
  EXPECT_EQ(wire->native_entries, local.native_entries);
  EXPECT_EQ(wire->jit_fallback_ops, local.jit_fallback_ops);
  EXPECT_EQ(wire->invoke_memo_hits, local.invoke_memo_hits);
  EXPECT_EQ(wire->stage_jit_compile.count, local.stage_jit_compile.count);
  if (wasm::jit::jit_available()) {
    EXPECT_GT(wire->tier_up_compiles, 0u);
    EXPECT_GT(wire->stage_jit_compile.count, 0u);
    // Without detail the compile histogram stays unserialised.
    auto plain = client_->stats(session_, /*detail=*/false);
    ASSERT_TRUE(plain.ok()) << plain.error();
    EXPECT_EQ(plain->stage_jit_compile.count, 0u);
    EXPECT_EQ(plain->tier_up_compiles, wire->tier_up_compiles);
  }
}

TEST_F(GatewayTieringTest, NativeCodeCountsAgainstCacheBudget) {
  // Six ~1 MiB modules: bytecode alone (6 MiB) fits the default 8 MiB
  // cache budget, bytecode plus native code (~3 MiB each) does not. If
  // native code went uncounted, the cache would keep all six resident and
  // the 12 MB-heap invoke below would exceed the 27 MB secure heap.
  SetUpFleet(GatewayConfig{});
  auto attach = client_->attach("bulk-tenant");
  ASSERT_TRUE(attach.ok()) << attach.error();
  session_ = attach->session_id;
  std::vector<crypto::Sha256Digest> loaded;
  for (int i = 0; i < 6; ++i) {
    auto load = client_->load_module(session_, bulky_app(1024, i));
    ASSERT_TRUE(load.ok()) << load.error();
    loaded.push_back(load->measurement);
    InvokeRequest req;
    req.session_id = session_;
    req.measurement = load->measurement;
    req.entry = "run";
    req.heap_bytes = 64 * 1024;
    auto r = client_->invoke(req);
    ASSERT_TRUE(r.ok()) << "module " << i << ": " << r.error();
  }
  GatewayStats stats = gateway_->stats(/*detail=*/true);
  ASSERT_EQ(stats.devices.size(), 1u);
  if (wasm::jit::jit_available()) {
    EXPECT_GT(stats.devices[0].cache_evictions, 0u);
    EXPECT_LT(stats.devices[0].modules.size(), loaded.size());
    for (const ModuleTierStats& m : stats.devices[0].modules)
      EXPECT_EQ(m.native_functions, m.functions);
  }

  // The most recent module is still cached; a 12 MB heap fits next to it.
  InvokeRequest big;
  big.session_id = session_;
  big.measurement = loaded.back();
  big.entry = "run";
  big.heap_bytes = 12 * 1024 * 1024;
  auto r = client_->invoke(big);
  ASSERT_TRUE(r.ok()) << r.error();
}

TEST_F(GatewayTieringTest, CacheServedBinaryStaysInRegistry) {
  // A registry that holds two binaries and a cache that holds one module.
  const Bytes a = bulky_app(4, 1), b = bulky_app(4, 2), c = bulky_app(4, 3);
  GatewayConfig config;
  config.binary_registry_budget_bytes = 2 * a.size() + a.size() / 2;
  config.cache.budget_bytes = 1;
  SetUpFleet(config);
  auto attach = client_->attach("registry-tenant");
  ASSERT_TRUE(attach.ok()) << attach.error();
  session_ = attach->session_id;
  auto invoke = [&](const crypto::Sha256Digest& m) {
    InvokeRequest req;
    req.session_id = session_;
    req.measurement = m;
    req.entry = "run";
    req.heap_bytes = 64 * 1024;
    return client_->invoke(req);
  };

  auto load_a = client_->load_module(session_, a);
  ASSERT_TRUE(load_a.ok()) << load_a.error();
  ASSERT_TRUE(invoke(load_a->measurement).ok());  // cold miss: A cached
  ASSERT_TRUE(client_->load_module(session_, b).ok());
  // Served from the cache, A is used more recently than B in the registry.
  ASSERT_TRUE(invoke(load_a->measurement).ok());
  // C's upload evicts the registry's LRU binary: B, not A.
  auto load_c = client_->load_module(session_, c);
  ASSERT_TRUE(load_c.ok()) << load_c.error();
  ASSERT_TRUE(invoke(load_c->measurement).ok());  // evicts A from the cache

  // A's next invoke is a cold miss; its binary must still be registered.
  auto again = invoke(load_a->measurement);
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_GE(gateway_->stats().devices[0].cache_evictions, 2u);
}

TEST_F(GatewayTieringTest, SubmitMemoServesTwinWithoutExecuting) {
  GatewayConfig config;
  config.invoke_memo_ttl_ns = 60ull * 1'000'000'000;  // generous: no expiry here
  SetUpFleet(config);
  AttachAndLoad();

  auto ticket = client_->submit(work_request(100));
  ASSERT_TRUE(ticket.ok()) << ticket.error();
  auto first = redeem(ticket->ticket);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first->results.front().i32(), 5050);
  const std::uint64_t executed = gateway_->stats().invocations;

  // The twin rides the memo: same results, no new sandbox execution, and
  // its pre-satisfied ticket is ready on the first poll.
  auto twin = client_->submit(work_request(100));
  ASSERT_TRUE(twin.ok()) << twin.error();
  auto poll = client_->poll(session_, twin->ticket);
  ASSERT_TRUE(poll.ok()) << poll.error();
  ASSERT_TRUE(poll->ready);
  ASSERT_TRUE(poll->error.empty()) << poll->error;
  EXPECT_EQ(poll->result.results.front().i32(), 5050);
  EXPECT_EQ(poll->result.ra_exchanges, 0u);

  GatewayStats stats = gateway_->stats();
  EXPECT_EQ(stats.invoke_memo_hits, 1u);
  EXPECT_EQ(stats.invocations, executed);  // nothing executed for the twin

  // Different arguments are a different semantic identity: full execution.
  auto other = client_->submit(work_request(101));
  ASSERT_TRUE(other.ok()) << other.error();
  auto other_result = redeem(other->ticket);
  ASSERT_TRUE(other_result.ok()) << other_result.error();
  EXPECT_EQ(other_result->results.front().i32(), 5151);
  EXPECT_EQ(gateway_->stats().invocations, executed + 1);
}

TEST_F(GatewayTieringTest, SubmitMemoOffByDefault) {
  SetUpFleet(GatewayConfig{});
  AttachAndLoad();

  for (int i = 0; i < 2; ++i) {
    auto ticket = client_->submit(work_request(7));
    ASSERT_TRUE(ticket.ok()) << ticket.error();
    auto r = redeem(ticket->ticket);
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r->results.front().i32(), 28);
  }
  GatewayStats stats = gateway_->stats();
  EXPECT_EQ(stats.invoke_memo_hits, 0u);
  EXPECT_EQ(stats.invocations, 2u);  // both executed, nothing memoised
}

}  // namespace
}  // namespace watz::gateway
