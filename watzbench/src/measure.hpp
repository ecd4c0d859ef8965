// Turning what the workloads recorded into metrics: the end-to-end set
// every workload reports, the per-layer set of the traced pass, and the
// direct layer calls the traced pass makes itself.
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fleet.hpp"
#include "obs/trace.hpp"

namespace watzbench {

/// The paper's calibrated world-switch charges (Fig 3b), in µs.
inline constexpr double kPaperEnterUs = 86.0;
inline constexpr double kPaperLeaveUs = 20.0;

/// Public counters of the fleet at one instant.
struct Snapshot {
  watz::gateway::GatewayStats stats;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t at_ns = 0;
};
Snapshot snapshot(Fleet& fleet);

/// Samples every board's secure-heap gauge on a background thread (the
/// gauge has no high-water mark of its own).
class HeapSampler {
 public:
  explicit HeapSampler(Fleet& fleet);
  ~HeapSampler();
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;
  double peak_mb() const noexcept;

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> peak_{0};
  std::thread thread_;
};

/// One pass of a workload: its end-to-end metrics, and in a traced pass
/// the per-layer metrics and the spans behind them.
struct PassResult {
  Metrics e2e;
  Metrics layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// kernel_ms.<kernel> rows (printed and written to the run record).
  std::vector<std::pair<std::string, double>> kernel_rows;
  std::vector<Span> spans;
  std::vector<watz::obs::SpanRecord> gateway_spans;
  /// Lines printed beside the result: paper comparisons and sample sizes.
  std::vector<std::string> notes;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "none";
  std::string source = "none";
  /// interactive: the CPUs the fleet's threads start on, and the CPU each
  /// client thread pins itself to (empty: no pinning).
  std::vector<int> fleet_cpus;
  std::vector<int> client_cpus;
};

/// The end-to-end metrics every workload emits. Workloads fill the op
/// recorders; this maps them onto the shared metric names.
struct EndToEnd {
  std::vector<double> setup_s;
  const Recorder* invokes = nullptr;   ///< single INVOKEs
  const Recorder* batches = nullptr;   ///< INVOKE_BATCH ops
  const Recorder* attaches = nullptr;  ///< ATTACH ops
  const Recorder* firsts = nullptr;    ///< LOAD_MODULE + first/second INVOKE
  double window_s = 0;
  std::uint64_t window_invokes = 0;    ///< single INVOKEs + batch lanes completed
  std::vector<double> entry_ms;        ///< per-entry median INVOKE wall time
  std::vector<double> entry_slowdown;  ///< per-entry wall ÷ native time
  /// invoke_p50_us, first_result_p50_ms and repeat_result_p50_ms as the
  /// median of per-entry medians: for a mix of entries whose times differ
  /// widely (30 kernels), the plain median falls in a gap between two
  /// entries and jumps between them.
  bool p50_of_entry_medians = false;
};
void fill_end_to_end(Metrics& m, const EndToEnd& in);

/// Per traced op (keyed by trace id), from the gateway's stage spans: the
/// instance checkout or launch (Checkout/Prepare span) and the world
/// switches as executed (TeeEntry + TeeExit spans), in µs.
struct StageTimes {
  std::map<std::uint64_t, double> acquire_us;
  std::map<std::uint64_t, double> tee_us;
};
StageTimes stage_times(const std::vector<watz::obs::SpanRecord>& spans);

/// Per-layer metrics derived from fleet counters, response fields and the
/// traced ops' stage spans over the timed window (`a` and `b` bracket it).
void fleet_layers(Metrics& m, const Snapshot& a, const Snapshot& b, const Recorder& window,
                  std::uint64_t client_ops, const StageTimes& stages);
/// First/repeat INVOKE breakdown and ATTACH cost.
void cold_path_layers(Metrics& m, const Recorder& firsts, const Recorder& attaches, const StageTimes& stages);
/// "first result: ..." note: the medians the first result is made of.
std::string first_result_note(const Recorder& firsts);
/// Module-cache counters over the fleet's life, per attached session.
void cache_layers(Metrics& m, const watz::gateway::GatewayStats& final_stats,
                  std::uint64_t sessions, double heap_peak_mb);
/// Direct calls into crypto/, wasm/ and core/ on `module` (its Loading
/// phases on a side board, its pipeline stages per MB).
void direct_layers(Metrics& m, std::vector<std::string>& notes, const Bytes& module);
/// The REE (WAMR) column: `module` on a bare wasm::Instance with every
/// function force-compiled, invoking `entry(args)`; median ms over `reps`.
double ree_ms(const Bytes& module, const std::string& entry,
              const std::vector<watz::wasm::Value>& args, int reps, double* result);

/// Median over `entry`-tagged samples of `field`, one value per entry id.
std::vector<double> per_entry_median(const std::vector<InvokeSample>& samples, int entries,
                                     double InvokeSample::*field);

/// The native compile work the fleet's tier-up did: for each of
/// `binaries` that some board runs natively (STATS detail), the time of
/// TierSet::compile_all over it, once per such board, in ms.
double tier_compile_ms(const watz::gateway::GatewayStats& stats, const std::vector<const Bytes*>& binaries);

/// Traced runs: `traced` minus `untraced` for every end-to-end metric.
void overhead_layers(Metrics& m, const Metrics& traced, const Metrics& untraced);

}  // namespace watzbench
