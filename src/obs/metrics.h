// Process-wide metric registry (ISSUE 5).
//
// One observability substrate for every layer: named counters, gauges and
// power-of-two latency histograms, registered once (get-or-create by dotted
// name) and updated through relaxed atomics — they are telemetry, not
// synchronisation (the BoundedEnergyCache counter doctrine, generalised).
// The power-of-two Histogram collapses a high-rate stream into bins before
// anyone looks at it, exactly the quantum/histogram philosophy.
//
// Usage pattern (static handle, one registry lookup per call site ever):
//
//   static obs::Counter& evals = obs::counter("vqe.stage1.evals");
//   evals.add();
//
// Snapshots are taken under the registry mutex against relaxed counters:
// each value is individually exact, and the whole snapshot is mutually
// consistent at quiescence (no concurrent recording) — which is when the
// CLI, benches and tests read it.  Two export formats:
//
//   to_json()        — nested JSON (served by /metrics as "registry")
//   to_prometheus()  — text exposition (served by /metrics?format=prometheus)
//
// External subsystems that keep their own counters (the FaultInjector's
// per-site fire counts, the check.h per-site violation registry, a Store's
// blob cache) plug in as *collectors*: callbacks invoked at snapshot time
// that append labeled samples, so their counts appear in /metrics and trace
// dumps without obs owning their storage.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/json.h"
#include "common/sync.h"

namespace qdb::obs {

/// Monotonic event count.  All operations are relaxed atomics.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Power-of-two histogram: bucket b counts values v with bit_width(v) == b+1,
/// i.e. le 2^b, plus a final +Inf bucket.  Exact to count, lock-free, and
/// rendered as a cumulative `le` table by both exporters.  36 buckets cover
/// 1 microsecond to ~9.5 hours when values are durations in microseconds
/// (the convention all span histograms follow).
class Histogram {
 public:
  static constexpr int kBuckets = 36;

  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void record(std::uint64_t value) {
    int b = value == 0 ? 0 : static_cast<int>(std::bit_width(value)) - 1;
    if (b >= kBuckets) b = kBuckets;  // +Inf bucket
    counts_[b].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Total recorded events (sum over buckets).
  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
    return total;
  }

  /// Sum of all recorded values.
  std::uint64_t total() const { return total_.load(std::memory_order_relaxed); }

  /// Raw (non-cumulative) count of bucket b in [0, kBuckets].
  std::uint64_t bucket_count(int b) const {
    return counts_[b].load(std::memory_order_relaxed);
  }

  /// Upper bound of bucket b (2^b); the last bucket is +Inf (returns 0).
  static std::uint64_t le_bound(int b) {
    return b < kBuckets ? (std::uint64_t{1} << b) : 0;
  }

  void reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    total_.store(0, std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

  /// {"buckets": [{"<le_key>": 1, "count": n}, ..., {"<le_key>": "+Inf"}],
  ///  "count": N, "<total_key>": T} — counts are cumulative (le semantics).
  /// The registry's export uses "le"/"total"; the server's /metrics
  /// "requests" section renders serve.request_us with "le_us"/"total_us".
  Json to_json(const char* le_key, const char* total_key) const;

 private:
  std::string name_;
  std::atomic<std::uint64_t> counts_[kBuckets + 1] = {};
  std::atomic<std::uint64_t> total_{0};
};

/// A point-in-time view of a registry, mutually consistent at quiescence.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  struct HistogramSample {
    std::string name;
    std::vector<std::uint64_t> buckets;  ///< kBuckets+1 raw (non-cumulative)
    std::uint64_t total = 0;
    std::uint64_t count() const;
  };
  std::vector<HistogramSample> histograms;
  /// One labeled counter from a collector, e.g. family "fault.fires",
  /// label "site" = "vqe.stage1.evaluate".
  struct LabeledSample {
    std::string family;
    std::string label_key;
    std::string label_value;
    std::uint64_t value = 0;
  };
  std::vector<LabeledSample> labeled;
};

/// Callback appending labeled samples at snapshot time.
using Collector = std::function<void(Snapshot&)>;

/// Named-metric registry.  Instantiable for tests; production code uses the
/// process-wide global().  Metric objects live as long as the registry and
/// their addresses are stable, so static handles are safe.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry.  Its first use installs the built-in
  /// collectors for the FaultInjector and the contract-violation registry.
  static MetricRegistry& global();

  /// Get-or-create by name.  A name is bound to one metric type forever;
  /// requesting an existing name as a different type throws qdb::Error.
  /// Each acquires the registry mutex internally.
  Counter& counter(std::string_view name) QDB_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) QDB_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name) QDB_EXCLUDES(mu_);

  /// Register a snapshot-time collector (kept for the registry's lifetime).
  void add_collector(Collector fn) QDB_EXCLUDES(mu_);

  /// Deterministic snapshot: metrics sorted by name, labeled samples sorted
  /// by (family, label_value).  Copies registrations under mu_, then runs
  /// collectors with the lock released (they may take subsystem locks).
  Snapshot snapshot() const QDB_EXCLUDES(mu_);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...},
  ///  "collected": {family: {label: value}}}
  Json to_json() const;

  /// Prometheus text exposition (version 0.0.4): names sanitised to
  /// [a-zA-Z0-9_:] with a "qdb_" prefix, one # TYPE line per family,
  /// histograms as _bucket{le=...}/_sum/_count.
  std::string to_prometheus() const;

  /// Zero every counter, gauge and histogram (registrations and collectors
  /// stay).  Test helper; never called on the hot path.
  void reset() QDB_EXCLUDES(mu_);

 private:
  // mu_ guards the registration maps and collector list, never metric
  // values — Counter/Gauge/Histogram are relaxed atomics with stable
  // addresses, so static handles read them lock-free.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_ QDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_ QDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      QDB_GUARDED_BY(mu_);
  std::vector<Collector> collectors_ QDB_GUARDED_BY(mu_);
};

/// Shorthands for the global registry (the static-handle idiom).
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Sanitise a dotted metric name for Prometheus ([a-zA-Z0-9_:], "qdb_"
/// prefix, leading digit guarded).  Exposed for the exposition tests.
std::string prometheus_name(std::string_view name);

/// Escape a Prometheus label value (backslash, double quote, newline).
std::string prometheus_label_value(std::string_view value);

}  // namespace qdb::obs
