#include "fleet.hpp"

#include <stdexcept>

namespace watzbench {

using namespace watz;

Fleet::Fleet() : fabric_(std::make_unique<net::Fabric>()) {
  // Fixed identities: the seed drives the workload inputs, never the fleet.
  const core::Vendor vendor = core::Vendor::create(to_bytes("watzbench-vendor"));
  for (std::size_t i = 0; i < kBoards; ++i) {
    core::DeviceConfig config;
    config.hostname = "board-" + std::to_string(i);
    config.otpmk.fill(static_cast<std::uint8_t>(0xB0 + i));
    config.latency.enabled = true;
    config.latency.device_side = false;
    auto device = core::Device::boot(*fabric_, vendor, config);
    if (!device.ok()) throw std::runtime_error("board boot: " + device.error());
    boards_.push_back(std::move(*device));
  }
  gateway_ = std::make_unique<gateway::Gateway>(*fabric_, gateway::GatewayConfig{},
                                                to_bytes("watzbench-gateway"));
  if (auto s = gateway_->start(); !s.ok()) throw std::runtime_error("gateway start: " + s.error());
  for (auto& board : boards_)
    if (auto s = gateway_->add_device(*board); !s.ok())
      throw std::runtime_error("enrol: " + s.error());
}

Fleet::~Fleet() {
  gateway_.reset();
  boards_.clear();
}

Client::Client(Fleet& fleet, Recorder& rec, SpanLog& log)
    : fleet_(fleet), rec_(&rec), log_(&log), client_(fleet.fabric()) {
  if (auto s = client_.connect(Fleet::kHost, Fleet::kPort); !s.ok())
    throw std::runtime_error("connect: " + s.error());
}

Client::~Client() { client_.close(); }

std::optional<std::uint64_t> Client::attach(const std::string& name) {
  ScopedSpan span(*log_, "client.attach", true);
  ++rec_->attempted;
  const std::uint64_t messages0 = fleet_.fabric().messages();
  const std::uint64_t t0 = now_ns();
  auto r = client_.attach(name);
  const std::uint64_t wall = now_ns() - t0;
  if (!r.ok()) {
    rec_->fail("attach: " + r.error());
    return std::nullopt;
  }
  if (r->devices_attested != Fleet::kBoards) {
    rec_->fail("attach: " + std::to_string(r->devices_attested) + " boards attested");
    return std::nullopt;
  }
  rec_->attach_ms.push_back(to_ms(wall));
  rec_->attach_messages += fleet_.fabric().messages() - messages0;
  rec_->attach_handshakes += r->ra_exchanges / 2;  // 2 exchanges per handshake
  return r->session_id;
}

std::optional<crypto::Sha256Digest> Client::load(std::uint64_t session, const Bytes& binary,
                                                 std::uint64_t* wall_ns) {
  ScopedSpan span(*log_, "client.load_module", true);
  ++rec_->attempted;
  const std::uint64_t t0 = now_ns();
  auto r = client_.load_module(session, binary);
  *wall_ns = now_ns() - t0;
  if (!r.ok()) {
    rec_->fail("load_module: " + r.error());
    return std::nullopt;
  }
  if (r->measurement != crypto::sha256(binary)) {
    rec_->fail("load_module: measurement is not the SHA-256 of the binary");
    return std::nullopt;
  }
  return r->measurement;
}

std::optional<gateway::InvokeResponse> Client::invoke(gateway::InvokeRequest request,
                                                      InvokeSample* sample, bool trace) {
  ScopedSpan span(*log_, "client.invoke", true);
  if (trace) request.trace_id = span.id();
  ++rec_->attempted;
  const std::uint64_t t0 = now_ns();
  auto r = client_.invoke(request);
  const std::uint64_t wall = now_ns() - t0;
  if (!r.ok()) {
    rec_->fail("invoke " + request.entry + ": " + r.error());
    return std::nullopt;
  }
  *sample = sample_of(*r, wall, sample->entry);
  return std::move(*r);
}

std::vector<Result<gateway::InvokeResponse>> Client::batch(
    std::vector<gateway::InvokeRequest> requests, bool trace) {
  ScopedSpan span(*log_, "client.invoke_batch", true);
  if (trace)
    for (auto& r : requests) r.trace_id = span.id();
  rec_->attempted += requests.size();
  const std::uint64_t t0 = now_ns();
  auto results = client_.invoke_all(requests);
  const std::uint64_t wall = now_ns() - t0;
  rec_->batch_ms.push_back(to_ms(wall));
  rec_->batch_lanes += requests.size();
  for (std::size_t i = 0; i < results.size(); ++i)
    if (!results[i].ok()) rec_->fail("batch lane " + std::to_string(i) + ": " + results[i].error());
  return results;
}

bool Client::detach(std::uint64_t session) {
  ScopedSpan span(*log_, "client.detach", true);
  ++rec_->attempted;
  if (auto s = client_.detach(session); !s.ok()) {
    rec_->fail("detach: " + s.error());
    return false;
  }
  return true;
}

gateway::InvokeRequest make_request(std::uint64_t session, const crypto::Sha256Digest& measurement,
                                    std::string entry, std::vector<wasm::Value> args,
                                    std::uint64_t heap_bytes) {
  gateway::InvokeRequest req;
  req.session_id = session;
  req.measurement = measurement;
  req.entry = std::move(entry);
  req.args = std::move(args);
  req.heap_bytes = heap_bytes;
  return req;
}

InvokeSample sample_of(const gateway::InvokeResponse& response, std::uint64_t wall_ns, int entry) {
  InvokeSample s;
  s.wall_us = to_us(wall_ns);
  s.queue_us = to_us(response.queue_delay_ns);
  s.launch_us = to_us(response.launch_ns);
  s.sandbox_us = to_us(response.invoke_ns);
  s.pool_hit = response.pool_hit;
  s.ra_exchanges = response.ra_exchanges;
  s.entry = entry;
  s.trace_id = response.trace_id;
  return s;
}

}  // namespace watzbench
