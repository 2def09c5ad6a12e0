#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "common/error.h"
#include "common/rng.h"
#include "lattice/lattice.h"
#include "obs/metrics.h"
#include "quantum/tuner.h"

namespace perfbench {

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  items_.push_back({name, value, unit});
}

std::string Metrics::to_json() const {
  std::string out = "{";
  char num[64];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const Item& item = items_[i];
    // %.17g keeps every digit of the measurement; JSON has no NaN/Inf.
    if (std::isfinite(item.value)) {
      std::snprintf(num, sizeof num, "%.17g", item.value);
    } else {
      std::snprintf(num, sizeof num, "null");
    }
    if (i > 0) out += ", ";
    out += "\"" + item.name + "\": {\"value\": " + num + ", \"unit\": \"" + item.unit + "\"}";
  }
  out += "}";
  return out;
}

void Outcome::mismatch(const std::string& what) {
  std::fprintf(stderr, "perfbench: correctness mismatch: %s\n", what.c_str());
  correct = false;
  ++failed;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw qdb::Error("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  qdb::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[rng.below(i)]);
  }
  return p;
}

std::vector<const qdb::DatasetEntry*> entries_by_id(const std::vector<std::string>& ids) {
  std::vector<const qdb::DatasetEntry*> out;
  out.reserve(ids.size());
  for (const std::string& id : ids) out.push_back(&qdb::entry_by_id(id));
  return out;
}

const std::vector<std::string>& eval6_ids() {
  // S: 6p86 (10 logical qubits), 3eax; M: 1e2l (12, dense), 2qbs (16, MPS);
  // L: 1yc4, 4jpy (MPS).
  static const std::vector<std::string> ids = {"6p86", "3eax", "1e2l",
                                               "2qbs", "1yc4", "4jpy"};
  return ids;
}

double cold_tuner_warmup(const std::vector<const qdb::DatasetEntry*>& entries) {
  std::set<int> sizes;
  for (const qdb::DatasetEntry* e : entries) {
    const int nq = qdb::encoding_qubits(e->length());
    if (nq <= 14) sizes.insert(nq);  // VqeOptions::Engine::Auto runs these dense
  }
  const std::string cache = qdb::Tuner::cache_path();
  if (cache.empty()) throw qdb::Error("the tuner disk cache must be enabled");
  std::error_code ec;
  std::filesystem::remove(cache, ec);
  qdb::Tuner::global().clear_memory();
  return timed([&] {
    for (int nq : sizes) {
      qdb::Tuner::global().plan_for(nq, qdb::Precision::f32);
      qdb::Tuner::global().plan_for(nq, qdb::Precision::f64);
    }
  });
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line comes first
  CpuTicks t;
  double v = 0.0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? (after.steal - before.steal) / total : 0.0;
}

std::vector<double> clean(const std::vector<double>& values, const std::vector<double>& steal,
                          std::size_t min_clean) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  std::vector<double> out;
  for (std::size_t i : order) {
    if (steal[i] > kMaxStealShare && out.size() >= min_clean) break;
    out.push_back(values[i]);
  }
  return out;
}

void print_samples(const char* workload, const char* what, const std::vector<double>& values,
                   const std::vector<double>& steal) {
  std::printf("%s: %s samples (steal share):", workload, what);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf(" %.4g (%.2f)", values[i], steal[i]);
  }
  std::printf("\n");
}

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::string fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

double overhead_pct(double untraced_rate, double traced_rate) {
  return (untraced_rate / traced_rate - 1.0) * 100.0;
}

namespace {

/// Dense-engine kernel applications so far, from the span histograms the
/// fused engine always records; a prediction that moves it ran dense.
std::uint64_t dense_kernel_applications() {
  return qdb::obs::histogram("span.kernel.apply.f32").count() +
         qdb::obs::histogram("span.kernel.apply.f64").count();
}

}  // namespace

ChainResult evaluate_by_layers(const qdb::Pipeline& pipeline, const qdb::DatasetEntry& entry) {
  ChainResult r;
  r.entry = &entry;
  const double t0 = now_s();
  const qdb::Structure* reference = nullptr;
  r.reference_s = timed([&] { reference = &pipeline.reference(entry); });
  r.imprint_s = timed([&] { pipeline.ligand_and_site(entry); });
  const std::uint64_t kernels_before = dense_kernel_applications();
  r.predict_s = timed([&] { r.prediction = pipeline.predict(entry, qdb::Method::QDock); });
  r.dense = dense_kernel_applications() > kernels_before;
  r.dock_s = timed([&] { r.docking = pipeline.dock_prediction(entry, r.prediction); });

  // The rest of Pipeline::evaluate: RMSD against the reference and assembly.
  qdb::Evaluation& ev = r.evaluation;
  ev.pdb_id = entry.pdb_id;
  ev.group = entry.group();
  ev.method = qdb::Method::QDock;
  ev.rmsd = qdb::ca_rmsd(r.prediction.structure, *reference);
  ev.affinity = r.docking.best_affinity;
  ev.mean_affinity = r.docking.mean_affinity;
  ev.pose_rmsd_lb = r.docking.rmsd_lb_mean;
  ev.pose_rmsd_ub = r.docking.rmsd_ub_mean;
  r.total_s = now_s() - t0;
  return r;
}

}  // namespace perfbench
