// Shared plumbing of the benchmark driver: the seeded input stream, sample
// statistics, CPU pinning, the benchmark's own span log and the per-pass
// recorder every workload fills.
#pragma once

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hw/clock.hpp"

namespace watzbench {

inline std::uint64_t now_ns() { return watz::hw::monotonic_ns(); }
inline double to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// splitmix64: the only source of randomness for generated inputs, so one
/// seed always yields the same modules, arguments and op sequences.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Seeded Fisher-Yates permutation of [0, n).
inline std::vector<std::size_t> permutation(Rng& rng, std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-12));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Restricts the calling thread (and the threads it creates later) to
/// `cpus`; false if the kernel refuses.
inline bool pin_current_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

/// Runs `make()` with the calling thread restricted to `cpus` (unless
/// empty), so that the threads it starts inherit them, then gives the
/// calling thread its CPUs back.
template <typename Fn>
auto start_on_cpus(const std::vector<int>& cpus, Fn make) -> decltype(make()) {
  cpu_set_t saved;
  const bool pinned = !cpus.empty() && sched_getaffinity(0, sizeof saved, &saved) == 0 && pin_current_thread(cpus);
  auto made = make();
  if (pinned) sched_setaffinity(0, sizeof saved, &saved);
  return made;
}

/// One span of the benchmark's own trace: a client op or a direct layer
/// call, timed from outside the system.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;  ///< client op id (0 for phases and layer calls)
  std::uint32_t thread = 0;
};

/// Per-thread span log with a parent stack. Disabled logs cost one branch.
class SpanLog {
 public:
  SpanLog(bool enabled, std::uint32_t thread) : enabled_(enabled), thread_(thread) {}
  bool enabled() const noexcept { return enabled_; }

  /// Opens a span; returns its id (0 when disabled). A client op's span
  /// doubles as its op id.
  std::uint64_t open(const char* name, bool client_op = false) {
    if (!enabled_) return 0;
    Span s;
    s.name = name;
    s.start_ns = now_ns();
    s.id = next_id();
    s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    s.op = client_op ? s.id : 0;
    s.thread = thread_;
    stack_.push_back(spans_.size());
    spans_.push_back(s);
    return s.id;
  }
  void close() {
    if (!enabled_ || stack_.empty()) return;
    spans_[stack_.back()].end_ns = now_ns();
    stack_.pop_back();
  }
  std::vector<Span>& spans() noexcept { return spans_; }

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  bool enabled_;
  std::uint32_t thread_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, bool client_op = false) : log_(log) {
    id_ = log_.open(name, client_op);
  }
  ~ScopedSpan() { log_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_ = 0;
};

/// What one INVOKE (or one executed batch lane) reported, from outside.
struct InvokeSample {
  double wall_us = 0;     ///< client-side wall time of the op
  double queue_us = 0;    ///< InvokeResponse::queue_delay_ns
  double launch_us = 0;   ///< InvokeResponse::launch_ns
  double sandbox_us = 0;  ///< InvokeResponse::invoke_ns
  bool pool_hit = false;
  std::uint32_t ra_exchanges = 0;
  int entry = 0;               ///< workload-local entry/kernel id
  std::uint64_t trace_id = 0;  ///< echoed wire trace id (traced ops only)
};

/// A uniform sample of at most kCapacity items of a stream (Vitter's
/// algorithm R), so the benchmark's own memory, and with it the peak RSS it
/// reports, does not grow with throughput. Streams shorter than the
/// capacity are kept whole.
template <typename T>
class Reservoir {
 public:
  static constexpr std::size_t kCapacity = 1u << 16;

  void add(const T& item) {
    ++seen_;
    if (items_.size() < kCapacity) {
      items_.push_back(item);
    } else if (const std::uint64_t j = rng_.below(seen_); j < kCapacity) {
      items_[j] = item;
    }
  }
  /// Folds `other` in: each side keeps a uniform share proportional to
  /// the items it saw, so the result samples the union uniformly.
  void merge(Reservoir&& other) {
    const std::uint64_t total = seen_ + other.seen_;
    if (items_.size() + other.items_.size() > kCapacity) {
      const auto keep = static_cast<std::size_t>(static_cast<double>(kCapacity) * static_cast<double>(seen_) /
                                                 static_cast<double>(total));
      shrink(items_, keep);
      shrink(other.items_, kCapacity - keep);
    }
    items_.insert(items_.end(), other.items_.begin(), other.items_.end());
    seen_ = total;
  }
  const std::vector<T>& items() const noexcept { return items_; }
  std::uint64_t seen() const noexcept { return seen_; }

 private:
  /// Keeps a uniform random subset of `n` items.
  void shrink(std::vector<T>& v, std::size_t n) {
    if (v.size() <= n) return;
    for (std::size_t i = 0; i < n; ++i) std::swap(v[i], v[i + rng_.below(v.size() - i)]);
    v.resize(n);
  }

  std::vector<T> items_;
  std::uint64_t seen_ = 0;
  Rng rng_{0x5EED};
};

/// Everything one client thread measured in one phase. Workloads keep one
/// per thread and merge them after the threads join.
struct Recorder {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  Reservoir<InvokeSample> invokes;      ///< single INVOKEs
  std::vector<double> batch_ms;         ///< INVOKE_BATCH wall times
  std::uint64_t batch_lanes = 0;        ///< lanes sent
  std::uint64_t lanes_ok = 0;           ///< lanes answered and correct
  std::vector<double> attach_ms;
  std::vector<double> first_result_ms;  ///< LOAD_MODULE + first INVOKE
  std::vector<double> repeat_result_ms; ///< the second INVOKE
  std::vector<InvokeSample> first_invokes;
  std::vector<InvokeSample> repeat_invokes;
  std::uint64_t attach_messages = 0;    ///< fabric messages spent in ATTACH ops
  std::uint64_t attach_handshakes = 0;  ///< RA handshakes the ATTACH ops ran

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  void merge(Recorder&& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (auto& f : o.failures)
      if (failures.size() < 8) failures.push_back(std::move(f));
    auto cat = [](auto& a, auto& b) { a.insert(a.end(), b.begin(), b.end()); };
    invokes.merge(std::move(o.invokes));
    cat(batch_ms, o.batch_ms);
    batch_lanes += o.batch_lanes;
    lanes_ok += o.lanes_ok;
    cat(attach_ms, o.attach_ms);
    cat(first_result_ms, o.first_result_ms);
    cat(repeat_result_ms, o.repeat_result_ms);
    cat(first_invokes, o.first_invokes);
    cat(repeat_invokes, o.repeat_invokes);
    attach_messages += o.attach_messages;
    attach_handshakes += o.attach_handshakes;
  }
};

using Metrics = std::map<std::string, double>;

}  // namespace watzbench
