// The three workloads and the seeded input generators they share with the
// self-test. Every generator is a pure function of the seed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "measure.hpp"

namespace watzbench {

/// An independent input stream per (seed, purpose).
inline Rng stream(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed * 0x9E3779B97F4A7C15ull + salt * 0xC2B2AE3D27D4EB4Full + 1);
}

// -- interactive ----------------------------------------------------------

inline constexpr int kBatchLanes = 32;
inline constexpr int kInteractiveClients = 2;

/// One drawn op: a single INVOKE of add/clock (15 of 16) or a 32-lane
/// add batch in which about a quarter of the lanes repeat an earlier lane.
struct InteractiveOp {
  bool batch = false;
  int entry = 0;  ///< 0 = add, 1 = clock (single INVOKEs)
  std::vector<std::pair<std::int32_t, std::int32_t>> args;
};
InteractiveOp next_interactive_op(Rng& rng);

// -- onboarding -----------------------------------------------------------

struct TenantPlan {
  std::size_t kernel = 0;       ///< index into polybench::suite()
  std::size_t target_bytes = 0; ///< padded module size
};
/// Tenant i cycles through a seeded permutation of all 30 kernels; sizes
/// follow a seeded golden-ratio sequence, so any prefix of tenants covers
/// 64 KiB .. 2 MiB evenly.
TenantPlan tenant_plan(std::uint64_t seed, std::uint64_t tenant);
/// The module tenant i uploads.
Bytes tenant_binary(std::uint64_t seed, std::uint64_t tenant);

// -- shared pass plumbing ---------------------------------------------------

/// Cold-path ops for a workload whose timed window has none (interactive,
/// polybench), run on a fleet of its own so that they leave the workload's module cache
/// alone. Each probe ATTACHes a fresh session, uploads a tiny guest no
/// earlier probe uploaded, INVOKEs its add twice and DETACHes. Spread over
/// the window, the probes sample the same host speed as the window's ops;
/// a few cold ops at set-up sample only a few seconds of it.
class ColdProbe {
 public:
  ColdProbe(std::uint64_t seed, Recorder& rec, SpanLog& log);
  /// One probe: ATTACH into `attach_ms`, LOAD_MODULE + first INVOKE into
  /// `first_result_ms`, the second INVOKE into `repeat_result_ms`.
  void run();

 private:
  Fleet fleet_;
  Client client_;
  Rng rng_;
  std::int32_t next_id_ = 1;
};

/// Polls STATS until the fleet has tiered up `expected` functions (the
/// background sweeper compiles what the heat counters queued). Returns ""
/// on success, else what each board's modules reached.
std::string wait_for_tier_up(Fleet& fleet, std::uint64_t expected, double timeout_s);
/// Moves the gateway's recorded stage spans into the pass result.
void drain_gateway_spans(Fleet& fleet, PassResult& out);

/// Runs `setup()` `reps` times, each on a fresh fleet (the previous one is
/// torn down first, untimed); appends each set-up's seconds to `setup_s`
/// and returns the last state.
template <typename SetupFn>
auto repeated_setup(int reps, std::vector<double>& setup_s, SetupFn setup) -> decltype(setup()) {
  decltype(setup()) state;
  for (int rep = 0; rep < reps; ++rep) {
    state.reset();
    const std::uint64_t t0 = now_ns();
    state = setup();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return state;
}

/// Totals the pass's ops and failures and hands over its spans.
void finish_pass(PassResult& out, const Recorder& setup, const Recorder& window, SpanLog& log);

// -- runs -------------------------------------------------------------------

PassResult run_interactive(const Options& opt, double seconds, bool traced);
PassResult run_polybench(const Options& opt, double seconds, bool traced);
PassResult run_onboarding(const Options& opt, double seconds, bool traced);

/// SHA-256 over everything the seed generates (op streams, warm-up lane
/// orders, pass orders, tenant plans and the first tenants' modules).
std::string input_digest(std::uint64_t seed);

}  // namespace watzbench
