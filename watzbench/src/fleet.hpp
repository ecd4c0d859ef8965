// The system under test, driven from outside: two booted boards behind one
// gateway with the default GatewayConfig, and an instrumented client that
// times every public GatewayClient call it makes.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "gateway/gateway.hpp"
#include "util.hpp"

namespace watzbench {

using watz::Bytes;

/// Two boards with the paper's latency calibration in the on-SoC
/// busy-wait mode, enrolled in a started gateway. Members are declared in
/// teardown order: the gateway stops before the boards, the boards before
/// the fabric they are bound to.
class Fleet {
 public:
  static constexpr std::size_t kBoards = 2;
  static constexpr const char* kHost = "gateway";
  static constexpr std::uint16_t kPort = 7000;

  Fleet();
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  watz::net::Fabric& fabric() noexcept { return *fabric_; }
  watz::gateway::Gateway& gateway() noexcept { return *gateway_; }
  watz::core::Device& board(std::size_t i) noexcept { return *boards_[i]; }

  /// The latency mode stamped on every result.
  static const char* latency_mode() { return "on-soc-busy-wait"; }

 private:
  std::unique_ptr<watz::net::Fabric> fabric_;
  std::vector<std::unique_ptr<watz::core::Device>> boards_;
  std::unique_ptr<watz::gateway::Gateway> gateway_;
};

/// One client connection. Every call is one timed op: counted in the
/// recorder's `attempted`, wrapped in a span when tracing, and counted in
/// `failed` when the gateway answers with an error. Output checks belong
/// to the workload, which knows the expected values.
class Client {
 public:
  Client(Fleet& fleet, Recorder& rec, SpanLog& log);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Points later ops at another recorder and span log (setup -> window).
  void bind(Recorder& rec, SpanLog& log) {
    rec_ = &rec;
    log_ = &log;
  }

  /// ATTACH; records attach_ms plus the fabric messages and handshakes it
  /// spent. Fails unless every board attested the session.
  std::optional<std::uint64_t> attach(const std::string& name);
  /// LOAD_MODULE; `wall_ns` receives the op's wall time.
  std::optional<watz::crypto::Sha256Digest> load(std::uint64_t session, const Bytes& binary,
                                                 std::uint64_t* wall_ns);
  /// INVOKE; `sample` receives the wall time and the response's layer
  /// fields. `trace` forces a gateway trace keyed by the op's span id.
  std::optional<watz::gateway::InvokeResponse> invoke(watz::gateway::InvokeRequest request,
                                                      InvokeSample* sample, bool trace = false);
  /// INVOKE_BATCH (one frame of up to 32 lanes); records batch_ms and
  /// batch_lanes. Per-lane errors are counted as failed ops; the caller
  /// checks the successful lanes.
  std::vector<watz::Result<watz::gateway::InvokeResponse>> batch(
      std::vector<watz::gateway::InvokeRequest> requests, bool trace = false);
  bool detach(std::uint64_t session);

  Recorder& recorder() noexcept { return *rec_; }

 private:
  Fleet& fleet_;
  Recorder* rec_;
  SpanLog* log_;
  watz::gateway::GatewayClient client_;
};

watz::gateway::InvokeRequest make_request(std::uint64_t session,
                                          const watz::crypto::Sha256Digest& measurement,
                                          std::string entry,
                                          std::vector<watz::wasm::Value> args,
                                          std::uint64_t heap_bytes = 0);

/// The response's layer fields as a sample (wall time filled by the caller).
InvokeSample sample_of(const watz::gateway::InvokeResponse& response, std::uint64_t wall_ns,
                       int entry);

}  // namespace watzbench
