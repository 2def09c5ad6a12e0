#include "obs/metrics.h"

#include <algorithm>
#include <cctype>

#include "common/check.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/strings.h"

namespace qdb::obs {

namespace {

/// The cumulative `le` table both JSON exports render, from raw bucket
/// counts (see Histogram::to_json for the shape).
Json le_table_json(const std::uint64_t* raw, std::uint64_t total, const char* le_key,
                   const char* total_key) {
  Json buckets = Json::array();
  std::uint64_t cumulative = 0;
  for (int b = 0; b <= Histogram::kBuckets; ++b) {
    cumulative += raw[b];
    Json bucket = Json::object();
    if (b < Histogram::kBuckets) {
      bucket.set(le_key, static_cast<std::int64_t>(Histogram::le_bound(b)));
    } else {
      bucket.set(le_key, "+Inf");
    }
    bucket.set("count", static_cast<std::int64_t>(cumulative));
    buckets.push_back(std::move(bucket));
  }
  Json j = Json::object();
  j.set("buckets", std::move(buckets));
  j.set("count", static_cast<std::int64_t>(cumulative));
  j.set(total_key, static_cast<std::int64_t>(total));
  return j;
}

}  // namespace

Json Histogram::to_json(const char* le_key, const char* total_key) const {
  std::uint64_t raw[kBuckets + 1];
  for (int b = 0; b <= kBuckets; ++b) raw[b] = bucket_count(b);
  return le_table_json(raw, total(), le_key, total_key);
}

std::uint64_t Snapshot::HistogramSample::count() const {
  std::uint64_t n = 0;
  for (std::uint64_t b : buckets) n += b;
  return n;
}

namespace {

/// Label value for a contract site: "<basename>:<line>" — stable across
/// build directories, unlike the full __FILE__ path.
std::string site_label(const std::string& file, int line) {
  const std::size_t slash = file.find_last_of('/');
  const std::string base = slash == std::string::npos ? file : file.substr(slash + 1);
  return base + ":" + std::to_string(line);
}

/// Built-in collectors: pull the FaultInjector's per-site fire counts and
/// the check.h per-site violation counts into every snapshot, so audit
/// violations are visible in /metrics and trace dumps, not only on abort.
void collect_runtime_counters(Snapshot& snap) {
  FaultInjector& fi = FaultInjector::instance();
  for (const std::string& site : fi.configured_sites()) {
    snap.labeled.push_back(
        {"fault.fires", "site", site,
         static_cast<std::uint64_t>(fi.fire_count(site))});
  }
  for (const check::SiteReport& rep : check::violation_report()) {
    snap.labeled.push_back({"contract.violations", "site",
                            site_label(rep.file, rep.line), rep.violations});
  }
}

}  // namespace

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry registry;
  static const bool initialized = [] {
    registry.add_collector(collect_runtime_counters);
    return true;
  }();
  (void)initialized;
  return registry;
}

Counter& MetricRegistry::counter(std::string_view name) {
  const MutexLock lock(mu_);
  if (gauges_.count(name) != 0 || histograms_.count(name) != 0) {
    throw Error("metric '" + std::string(name) + "' already registered with another type");
  }
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name),
                           std::make_unique<Counter>(std::string(name))).first;
  }
  return *it->second;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  const MutexLock lock(mu_);
  if (counters_.count(name) != 0 || histograms_.count(name) != 0) {
    throw Error("metric '" + std::string(name) + "' already registered with another type");
  }
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name),
                         std::make_unique<Gauge>(std::string(name))).first;
  }
  return *it->second;
}

Histogram& MetricRegistry::histogram(std::string_view name) {
  const MutexLock lock(mu_);
  if (counters_.count(name) != 0 || gauges_.count(name) != 0) {
    throw Error("metric '" + std::string(name) + "' already registered with another type");
  }
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name),
                             std::make_unique<Histogram>(std::string(name))).first;
  }
  return *it->second;
}

void MetricRegistry::add_collector(Collector fn) {
  const MutexLock lock(mu_);
  collectors_.push_back(std::move(fn));
}

Snapshot MetricRegistry::snapshot() const {
  Snapshot snap;
  std::vector<const Collector*> collectors;
  {
    const MutexLock lock(mu_);
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->value());
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->value());
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      Snapshot::HistogramSample s;
      s.name = name;
      s.buckets.resize(Histogram::kBuckets + 1);
      for (int b = 0; b <= Histogram::kBuckets; ++b) {
        s.buckets[static_cast<std::size_t>(b)] = h->bucket_count(b);
      }
      s.total = h->total();
      snap.histograms.push_back(std::move(s));
    }
    collectors.reserve(collectors_.size());
    for (const Collector& fn : collectors_) collectors.push_back(&fn);
  }
  // Collectors run outside the registry lock: they may read subsystems
  // (FaultInjector, check registry) that hold their own locks.
  for (const Collector* fn : collectors) (*fn)(snap);
  std::sort(snap.labeled.begin(), snap.labeled.end(),
            [](const Snapshot::LabeledSample& a, const Snapshot::LabeledSample& b) {
              if (a.family != b.family) return a.family < b.family;
              return a.label_value < b.label_value;
            });
  return snap;
}

Json MetricRegistry::to_json() const {
  const Snapshot snap = snapshot();
  Json j = Json::object();
  Json counters = Json::object();
  for (const auto& [name, v] : snap.counters) {
    counters.set(name, static_cast<std::int64_t>(v));
  }
  j.set("counters", std::move(counters));
  Json gauges = Json::object();
  for (const auto& [name, v] : snap.gauges) gauges.set(name, v);
  j.set("gauges", std::move(gauges));
  Json hists = Json::object();
  for (const Snapshot::HistogramSample& h : snap.histograms) {
    hists.set(h.name, le_table_json(h.buckets.data(), h.total, "le", "total"));
  }
  j.set("histograms", std::move(hists));
  // snap.labeled is sorted by (family, label), so families group contiguously.
  Json collected = Json::object();
  std::string family;
  Json values = Json::object();
  for (const Snapshot::LabeledSample& s : snap.labeled) {
    if (s.family != family) {
      if (!family.empty()) collected.set(family, std::move(values));
      family = s.family;
      values = Json::object();
    }
    values.set(s.label_value, static_cast<std::int64_t>(s.value));
  }
  if (!family.empty()) collected.set(family, std::move(values));
  j.set("collected", std::move(collected));
  return j;
}

std::string prometheus_name(std::string_view name) {
  std::string out = "qdb_";
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prometheus_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

std::string MetricRegistry::to_prometheus() const {
  const Snapshot snap = snapshot();
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    const std::string pn = prometheus_name(name);
    out += "# TYPE " + pn + " counter\n";
    out += pn + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    const std::string pn = prometheus_name(name);
    out += "# TYPE " + pn + " gauge\n";
    out += pn + " " + format("%.17g", v) + "\n";
  }
  for (const Snapshot::HistogramSample& h : snap.histograms) {
    const std::string pn = prometheus_name(h.name);
    out += "# TYPE " + pn + " histogram\n";
    std::uint64_t cumulative = 0;
    for (int b = 0; b <= Histogram::kBuckets; ++b) {
      cumulative += h.buckets[static_cast<std::size_t>(b)];
      const std::string le =
          b < Histogram::kBuckets ? std::to_string(Histogram::le_bound(b)) : "+Inf";
      out += pn + "_bucket{le=\"" + le + "\"} " + std::to_string(cumulative) + "\n";
    }
    out += pn + "_sum " + std::to_string(h.total) + "\n";
    out += pn + "_count " + std::to_string(cumulative) + "\n";
  }
  // Labeled families: one TYPE line per family, one sample per label value.
  std::string last_family;
  for (const Snapshot::LabeledSample& s : snap.labeled) {
    const std::string pn = prometheus_name(s.family);
    if (s.family != last_family) {
      out += "# TYPE " + pn + " counter\n";
      last_family = s.family;
    }
    out += pn + "{" + s.label_key + "=\"" + prometheus_label_value(s.label_value) +
           "\"} " + std::to_string(s.value) + "\n";
  }
  return out;
}

void MetricRegistry::reset() {
  const MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Counter& counter(std::string_view name) { return MetricRegistry::global().counter(name); }
Gauge& gauge(std::string_view name) { return MetricRegistry::global().gauge(name); }
Histogram& histogram(std::string_view name) {
  return MetricRegistry::global().histogram(name);
}

}  // namespace qdb::obs
