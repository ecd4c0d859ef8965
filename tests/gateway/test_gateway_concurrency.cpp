// Concurrency coverage for the multi-worker gateway stack: the thread-safe
// fabric, concurrent clients against the dispatcher, and the ModuleCache
// under concurrent acquire/release pressure (budget invariant + exclusive
// instance hand-out). These tests are the payload of the ThreadSanitizer
// CI job — keep them free of benign-but-racy shortcuts.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/device.hpp"
#include "gateway/gateway.hpp"
#include "wasm/builder.hpp"

namespace watz::gateway {
namespace {

core::DeviceConfig device_config(const std::string& hostname, std::uint8_t id) {
  core::DeviceConfig config;
  config.hostname = hostname;
  config.otpmk.fill(id);
  config.latency.enabled = false;
  return config;
}

/// Guest exporting add(a, b) -> a + b.
Bytes adder_app() {
  wasm::ModuleBuilder b;
  b.add_memory(1);
  const auto f = b.add_function({{wasm::ValType::I32, wasm::ValType::I32},
                                 {wasm::ValType::I32}});
  wasm::CodeEmitter e;
  e.local_get(0).local_get(1).op(wasm::kI32Add);
  b.set_body(f, e.bytes());
  b.export_function("add", f);
  return b.build();
}

/// Guest of ~`code_kb` KiB of unrolled arithmetic, exporting run() -> i64.
Bytes sized_app(int code_kb, std::int64_t salt) {
  wasm::ModuleBuilder b;
  b.add_memory(1);
  wasm::CodeEmitter e;
  e.i64_const(salt);
  for (int i = 0; i < code_kb * 93; ++i)
    e.i64_const(0x0102030405060708LL + i).op(wasm::kI64Add);
  const auto f = b.add_function({{}, {wasm::ValType::I64}});
  b.set_body(f, e.bytes());
  b.export_function("run", f);
  return b.build();
}

// -- fabric ------------------------------------------------------------------

TEST(FabricConcurrencyTest, ConcurrentConnectSendCloseAreSafe) {
  net::Fabric fabric;
  ASSERT_TRUE(fabric
                  .listen("echo", 1,
                          [](std::uint64_t, ByteView request) -> Result<Bytes> {
                            return Bytes(request.begin(), request.end());
                          })
                  .ok());

  constexpr int kThreads = 8;
  constexpr int kMessages = 100;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fabric, &failures, t] {
      auto conn = fabric.connect("echo", 1);
      if (!conn.ok()) {
        failures.fetch_add(1);
        return;
      }
      const Bytes payload = to_bytes("hello-" + std::to_string(t));
      for (int i = 0; i < kMessages; ++i) {
        auto reply = fabric.send_recv(*conn, payload);
        if (!reply.ok() || *reply != payload) failures.fetch_add(1);
      }
      fabric.close(*conn);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(fabric.messages(), static_cast<std::uint64_t>(kThreads) * kMessages);
}

TEST(FabricConcurrencyTest, SendAsyncDeliversThroughFuture) {
  net::Fabric fabric;
  ASSERT_TRUE(fabric
                  .listen("echo", 1,
                          [](std::uint64_t, ByteView request) -> Result<Bytes> {
                            return Bytes(request.begin(), request.end());
                          })
                  .ok());
  auto conn = fabric.connect("echo", 1);
  ASSERT_TRUE(conn.ok());

  // Several exchanges in flight at once, harvested out of order.
  std::vector<std::future<Result<Bytes>>> inflight;
  for (int i = 0; i < 4; ++i)
    inflight.push_back(fabric.send_async(*conn, to_bytes("m" + std::to_string(i))));
  for (int i = 3; i >= 0; --i) {
    auto reply = inflight[i].get();
    ASSERT_TRUE(reply.ok()) << reply.error();
    EXPECT_EQ(*reply, to_bytes("m" + std::to_string(i)));
  }
}

// -- gateway under concurrent clients ---------------------------------------

TEST(GatewayConcurrencyTest, ParallelClientsSpreadAcrossWorkers) {
  net::Fabric fabric;
  const core::Vendor vendor = core::Vendor::create(to_bytes("gw-vendor"));
  std::vector<std::unique_ptr<core::Device>> devices;
  for (int i = 0; i < 2; ++i) {
    auto device = core::Device::boot(
        fabric, vendor,
        device_config("node-" + std::to_string(i),
                      static_cast<std::uint8_t>(0x50 + i)));
    ASSERT_TRUE(device.ok()) << device.error();
    devices.push_back(std::move(*device));
  }
  GatewayConfig config;
  Gateway gateway(fabric, config, to_bytes("gw-identity"));
  ASSERT_TRUE(gateway.start().ok());
  for (auto& device : devices) ASSERT_TRUE(gateway.add_device(*device).ok());

  GatewayClient admin(fabric);
  ASSERT_TRUE(admin.connect(config.hostname, config.port).ok());
  auto attach = admin.attach("tenant-parallel");
  ASSERT_TRUE(attach.ok()) << attach.error();
  const Bytes app = adder_app();
  auto load = admin.load_module(attach->session_id, app);
  ASSERT_TRUE(load.ok());

  constexpr int kThreads = 4;
  constexpr int kInvokes = 30;
  std::atomic<int> failures{0};
  std::atomic<int> wrong_results{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      GatewayClient client(fabric);
      if (!client.connect(config.hostname, config.port).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kInvokes; ++i) {
        InvokeRequest req;
        req.session_id = attach->session_id;
        req.measurement = load->measurement;
        req.entry = "add";
        req.args = {wasm::Value::from_i32(t * 1000 + i), wasm::Value::from_i32(1)};
        req.heap_bytes = 1 << 20;
        auto r = client.invoke(req);
        if (!r.ok()) {
          failures.fetch_add(1);
        } else if (r->results.front().i32() != t * 1000 + i + 1) {
          wrong_results.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong_results.load(), 0);
  auto stats = admin.stats(attach->session_id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->invocations, static_cast<std::uint64_t>(kThreads) * kInvokes);
  // Both workers took a share of the load.
  ASSERT_EQ(stats->devices.size(), 2u);
  for (const DeviceStats& d : stats->devices) EXPECT_GT(d.invocations, 0u);
  // One handshake per device at attach; everything after rode the cache.
  EXPECT_EQ(stats->handshakes_run, 2u);
}

// -- module cache under concurrent acquire/release ---------------------------

TEST(ModuleCacheConcurrencyTest, BudgetHoldsAndInstancesAreExclusive) {
  net::Fabric fabric;
  const core::Vendor vendor = core::Vendor::create(to_bytes("cache-vendor"));
  auto device = core::Device::boot(fabric, vendor, device_config("cache", 0x61));
  ASSERT_TRUE(device.ok()) << device.error();

  struct Guest {
    Bytes binary;
    crypto::Sha256Digest measurement;
  };
  std::vector<Guest> guests;
  for (int i = 0; i < 3; ++i) {
    Guest guest;
    guest.binary = sized_app(8, 100 + i);
    guest.measurement = crypto::sha256(guest.binary);
    guests.push_back(std::move(guest));
  }

  // Budget sized so three small modules plus pooled 64 KiB heaps cannot
  // all stay resident — the threads keep forcing LRU eviction churn — while
  // an insert next to two live modules and two pooled heaps always fits.
  // A module's footprint is its bytecode plus its native image (when the
  // host compiles one); all three guests have the same footprint.
  auto probe = (*device)->runtime().prepare(guests[0].binary);
  ASSERT_TRUE(probe.ok()) << probe.error();
  const std::size_t footprint = (*probe)->code_bytes();
  constexpr std::size_t kHeap = 64 * 1024;
  ModuleCacheConfig config;
  config.budget_bytes = 3 * footprint + 2 * kHeap + kHeap / 8;
  config.max_pool_per_module = 2;
  ModuleCache cache((*device)->runtime(), config);

  // Every instance handed out is tracked; two tenants holding the same
  // pointer at once would be a pooled instance double-hand-out.
  std::mutex outstanding_mu;
  std::set<const core::LoadedApp*> outstanding;
  std::atomic<int> violations{0};
  std::atomic<int> budget_breaches{0};
  std::atomic<int> failures{0};

  constexpr int kThreads = 4;
  constexpr int kIters = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::AppConfig app_config;
      app_config.heap_bytes = kHeap;
      for (int i = 0; i < kIters; ++i) {
        const Guest& guest = guests[(t + i) % guests.size()];
        auto lease = cache.acquire(guest.measurement, guest.binary, app_config);
        if (!lease.ok()) {
          failures.fetch_add(1);
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(outstanding_mu);
          if (!outstanding.insert(lease->app.get()).second) violations.fetch_add(1);
        }
        if (cache.charged_bytes() > config.budget_bytes) budget_breaches.fetch_add(1);
        // Deliberately no guest invoke here: executing on the device is
        // the owning worker's job (Device is an actor; concurrent TEE
        // entry is out of contract). The cache's own TEE entries
        // (prepare/instantiate/reinitialize) serialise under its lock.
        {
          std::lock_guard<std::mutex> lock(outstanding_mu);
          outstanding.erase(lease->app.get());
        }
        cache.release(std::move(lease->app));
        if (cache.charged_bytes() > config.budget_bytes) budget_breaches.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(violations.load(), 0) << "pooled instance handed to two tenants";
  EXPECT_EQ(budget_breaches.load(), 0) << "LRU eviction exceeded budget_bytes";
  EXPECT_LE(cache.charged_bytes(), config.budget_bytes);
  EXPECT_GT(cache.evictions(), 0u) << "test never exercised eviction churn";

  // The churned cache still hands out working instances (single-threaded:
  // guest execution belongs to the device's one owning thread).
  core::AppConfig app_config;
  app_config.heap_bytes = 64 * 1024;
  auto lease = cache.acquire(guests[0].measurement, guests[0].binary, app_config);
  ASSERT_TRUE(lease.ok()) << lease.error();
  auto r = lease->app->invoke("run", {});
  ASSERT_TRUE(r.ok()) << r.error();
  cache.release(std::move(lease->app));
}

}  // namespace
}  // namespace watz::gateway
