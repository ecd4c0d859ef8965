// watzbench: the repository benchmark's driver binary.
//
//   watzbench --workload <interactive|polybench|onboarding> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//             [--commit <id>] [--source <digest>]
//   watzbench --selftest --seed <n>
//
// Prints human-readable lines (the stamp, paper comparisons, per-kernel
// rows) and, as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics of one untraced pass. --trace 1
// runs an untraced and a traced pass of half the time each and reports
// the per-layer metrics of the traced pass plus the tracing overhead; the
// traced pass's spans go to <out-dir>/trace_<workload>_seed<n>.json.
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "workloads.hpp"

namespace {

using namespace watzbench;

struct EndToEndMetric {
  const char* unit;
  /// Listed in BENCHMARK.json and emitted by --trace 0. The p99s are
  /// printed but not gated: across seeds on a shared host their IQR/median
  /// reached 0.24 (invoke, interactive) and 0.4-1.8 (batch), at or beyond
  /// the largest bound.
  bool gated;
};

const std::map<std::string, EndToEndMetric>& end_to_end_metrics() {
  static const std::map<std::string, EndToEndMetric> metrics = {
      {"setup_s", {"s", true}},
      {"rss_peak_mb", {"MB", true}},
      {"invoke_p50_us", {"us", true}},
      {"invoke_p99_us", {"us", false}},
      {"batch_p50_ms", {"ms", true}},
      {"batch_p99_ms", {"ms", false}},
      {"lanes_per_s", {"1/s", true}},
      {"kernel_ms_geomean", {"ms", true}},
      {"fig5_slowdown_geomean", {"x", true}},
      {"attach_p50_ms", {"ms", true}},
      {"first_result_p50_ms", {"ms", true}},
      {"repeat_result_p50_ms", {"ms", true}},
  };
  return metrics;
}

std::string layer_unit(const std::string& name) {
  if (name.rfind("trace_overhead.", 0) == 0) return end_to_end_metrics().at(name.substr(15)).unit;
  const auto has = [&name](const char* s) { return name.find(s) != std::string::npos; };
  if (has("_mb_per_s")) return "MB/s";
  if (has("_ms_per_mb")) return "ms/MB";
  if (has("bytes_per")) return "B";
  if (has("_us")) return "us";
  if (has("_ms")) return "ms";
  if (has("_mb")) return "MB";
  if (has("ratio") || has("share")) return "ratio";
  if (has("over_")) return "x";
  return "count";
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int client_threads(const std::string& workload) {
  return workload == "interactive" ? kInteractiveClients : 1;
}

/// Places the process's threads, on a host with at least four CPUs the
/// process may use (with fewer, every thread may run anywhere). Returns
/// the placement for the stamp.
///  - polybench and onboarding are serial: their one client thread waits
///    on every op. The process runs on the two highest CPUs, which keeps
///    most cross-CPU wake-ups (a slot worker or client woken on an idle
///    virtual CPU, a latency that drifts from run to run on a virtualised
///    host) out of their times. In probes on a 4-vCPU host, five seeds per
///    setting, interleaved: left free, IQR/median across seeds reached 0.15
///    (ATTACH), 0.26 (batch) and 0.31 (lanes/s); on one CPU an ATTACH's two
///    parallel RA handshakes queue behind each other's busy-waits (0.18);
///    on two, every metric stayed within 0.04-0.09.
///  - interactive runs four busy threads: the fleet's threads (the two slot
///    workers among them) start on the two lowest CPUs and each client
///    thread pins itself to one of the two highest, so that the clients
///    never share a CPU with a busy-waiting slot worker. The rest (the main
///    thread, the cold-path probes' fleet) may run anywhere: the probes run
///    while the clients wait, and held to two CPUs their ATTACHes queued
///    behind each other's busy-waits. Pinning each slot worker to a CPU of
///    its own made slow runs more frequent (see the README's open items).
std::string place_threads(Options& opt) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0 || CPU_COUNT(&allowed) < 4) return "all";
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  const std::vector<int> low(cpus.begin(), cpus.begin() + 2), high(cpus.end() - 2, cpus.end());
  const auto list = [](const std::vector<int>& v) { return std::to_string(v[0]) + "," + std::to_string(v[1]); };
  if (opt.workload != "interactive") return pin_current_thread(high) ? "process " + list(high) : "all";
  opt.fleet_cpus = low;
  opt.client_cpus = high;
  return "fleet " + list(low) + ", clients " + list(high);
}

std::string stamp_json(const Options& opt, const std::string& cpus) {
  std::ostringstream s;
  s << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed << ",\"seconds\":" << fmt(opt.seconds)
    << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"boards\":" << Fleet::kBoards
    << ",\"slots_per_board\":" << watz::gateway::GatewayConfig{}.slots_per_device
    << ",\"client_threads\":" << client_threads(opt.workload)
    << ",\"cpus\":\"" << cpus
    << "\",\"latency\":\"" << Fleet::latency_mode()
    << "\",\"git_commit\":\"" << json_escape(opt.commit) << "\",\"source_sha256\":\"" << json_escape(opt.source)
    << "\"}";
  return s.str();
}

std::string metrics_json(const Metrics& m, bool end_to_end) {
  std::ostringstream s;
  s << "{";
  bool first = true;
  for (const auto& [name, value] : m) {
    if (end_to_end && !end_to_end_metrics().at(name).gated) continue;
    s << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << fmt(value) << ", \"unit\": \""
      << (end_to_end ? end_to_end_metrics().at(name).unit : layer_unit(name)) << "\"}";
    first = false;
  }
  s << "}";
  return s.str();
}

void write_trace(const std::string& path, const PassResult& pass, const std::string& stamp) {
  std::ofstream f(path);
  f << "{\"metadata\": " << stamp << ",\n\"traceEvents\": [\n";
  bool first = true;
  for (const Span& sp : pass.spans) {
    if (sp.end_ns < sp.start_ns) continue;
    f << (first ? "" : ",\n") << "{\"name\":\"" << sp.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << sp.thread
      << ",\"ts\":" << fmt(static_cast<double>(sp.start_ns) / 1e3)
      << ",\"dur\":" << fmt(static_cast<double>(sp.end_ns - sp.start_ns) / 1e3) << ",\"args\":{\"id\":" << sp.id
      << ",\"parent\":" << sp.parent << ",\"op\":" << sp.op << "}}";
    first = false;
  }
  for (const watz::obs::SpanRecord& r : pass.gateway_spans) {
    f << (first ? "" : ",\n") << "{\"name\":\"gateway." << watz::obs::stage_name(r.stage)
      << "\",\"ph\":\"X\",\"pid\":2,\"tid\":" << r.detail << ",\"ts\":" << fmt(static_cast<double>(r.start_ns) / 1e3)
      << ",\"dur\":" << fmt(static_cast<double>(r.dur_ns) / 1e3) << ",\"args\":{\"op\":" << r.trace_id
      << ",\"id\":" << r.span_id << ",\"parent\":" << r.parent_id << "}}";
    first = false;
  }
  f << "\n]}\n";
}

PassResult run(const Options& opt, double seconds, bool traced) {
  if (opt.workload == "interactive") return run_interactive(opt, seconds, traced);
  if (opt.workload == "polybench") return run_polybench(opt, seconds, traced);
  return run_onboarding(opt, seconds, traced);
}

int selftest(std::uint64_t seed) {
  const std::string a = input_digest(seed);
  const std::string b = input_digest(seed);
  const std::string c = input_digest(seed + 1);
  std::printf("inputs seed %llu: %s\ninputs seed %llu: %s\ninputs seed %llu: %s\n",
              static_cast<unsigned long long>(seed), a.c_str(), static_cast<unsigned long long>(seed), b.c_str(),
              static_cast<unsigned long long>(seed + 1), c.c_str());
  bool ok = a == b && a != c;
  std::printf("same seed -> identical inputs: %s; other seed -> other inputs: %s\n", a == b ? "yes" : "NO",
              a != c ? "yes" : "NO");
  Options opt;
  opt.workload = "interactive";
  opt.seed = seed;
  const PassResult first = run_interactive(opt, 1.0, false);
  opt.seed = seed + 1;
  const PassResult second = run_interactive(opt, 1.0, false);
  bool differ = false;
  for (const auto& [name, value] : first.e2e) differ |= value != second.e2e.at(name);
  std::printf("other seed -> other measurements: %s; outputs correct: %s\n", differ ? "yes" : "NO",
              first.failed + second.failed == 0 ? "yes" : "NO");
  ok = ok && differ && first.failed + second.failed == 0;
  std::printf("selftest %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : "";
    if (arg == "--selftest") {
      self = true;
      continue;
    }
    if (arg == "--workload") opt.workload = value;
    else if (arg == "--seed") opt.seed = std::strtoull(value, nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::strtod(value, nullptr);
    else if (arg == "--trace") opt.trace = std::strcmp(value, "0") != 0;
    else if (arg == "--out-dir") opt.out_dir = value;
    else if (arg == "--commit") opt.commit = value;
    else if (arg == "--source") opt.source = value;
    else {
      std::fprintf(stderr, "watzbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
    ++i;
  }
  if (self) return selftest(opt.seed);
  if (opt.workload != "interactive" && opt.workload != "polybench" && opt.workload != "onboarding") {
    std::fprintf(stderr, "watzbench: --workload must be interactive, polybench or onboarding\n");
    return 2;
  }
  if (!(opt.seconds > 0)) {
    std::fprintf(stderr, "watzbench: --seconds must be positive\n");
    return 2;
  }

  const std::string stamp = stamp_json(opt, place_threads(opt));
  std::printf("stamp %s\n", stamp.c_str());
  Metrics metrics;
  PassResult result;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  try {
    if (!opt.trace) {
      result = run(opt, opt.seconds, false);
      metrics = result.e2e;
      metrics["rss_peak_mb"] = rss_peak_mb();
      attempted = result.attempted;
      failed = result.failed;
      failures = result.failures;
    } else {
      const PassResult untraced = run(opt, opt.seconds / 2, false);
      result = run(opt, opt.seconds / 2, true);
      metrics = result.layer;
      overhead_layers(metrics, result.e2e, untraced.e2e);
      attempted = untraced.attempted + result.attempted;
      failed = untraced.failed + result.failed;
      failures = untraced.failures;
      failures.insert(failures.end(), result.failures.begin(), result.failures.end());
      const std::string path = opt.out_dir + "/trace_" + opt.workload + "_seed" + std::to_string(opt.seed) + ".json";
      write_trace(path, result, stamp);
      std::printf("trace: %zu benchmark spans, %zu gateway spans -> %s\n", result.spans.size(),
                  result.gateway_spans.size(), path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "watzbench: %s\n", e.what());
    return 1;
  }

  for (const auto& note : result.notes) std::printf("%s\n", note.c_str());
  for (const auto& [kernel, ms] : result.kernel_rows) std::printf("kernel_ms.%s %.4f ms\n", kernel.c_str(), ms);
  for (const auto& [name, value] : result.e2e)
    std::printf("%s %.6g %s%s\n", name.c_str(), value, end_to_end_metrics().at(name).unit,
                end_to_end_metrics().at(name).gated ? "" : " (not gated)");
  std::printf("failed_share %.6g (%llu of %llu ops)\n",
              attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  for (const auto& f : failures) std::printf("failure: %s\n", f.c_str());

  const std::string body = metrics_json(metrics, !opt.trace);
  {
    std::ofstream record(opt.out_dir + "/run_" + opt.workload + "_seed" + std::to_string(opt.seed) + "_trace" +
                         (opt.trace ? "1" : "0") + ".json");
    record << "{\"stamp\": " << stamp << ", \"failed\": " << failed << ", \"attempted\": " << attempted
           << ", \"metrics\": " << body << ", \"kernel_ms\": {";
    for (std::size_t i = 0; i < result.kernel_rows.size(); ++i)
      record << (i ? ", " : "") << "\"" << result.kernel_rows[i].first << "\": " << fmt(result.kernel_rows[i].second);
    record << "}}\n";
  }
  const bool correct = failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), body.c_str());
  return 0;
}
