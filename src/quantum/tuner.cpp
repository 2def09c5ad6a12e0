#include "quantum/tuner.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "common/check.h"
#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quantum/ansatz.h"

namespace qdb {

namespace {

std::string plan_key(int num_qubits, Precision p) {
  // Built with append(), not operator+: the `"lit" + std::string` chain trips
  // GCC 12's -Wrestrict false positive (PR105651) under -Werror at -O2.
  std::string key = "n";
  key += std::to_string(num_qubits);
  key += '.';
  key += precision_name(p);
  key += kernels_avx2_active() ? ".avx2" : ".scalar";
  return key;
}

double time_apply_ms(FusedEngine& eng, const FusedProgram& prog) {
  using clock = std::chrono::steady_clock;
  eng.reset();
  eng.apply(prog);  // warm: faults the pages, primes caches
  double best = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    eng.reset();
    const auto t0 = clock::now();
    eng.apply(prog);
    const double ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

Tuner& Tuner::global() {
  static Tuner instance;
  return instance;
}

std::string Tuner::cache_path() {
  if (const char* env = std::getenv("QDB_TUNER_CACHE")) {
    return std::string(env) == "off" ? std::string() : std::string(env);
  }
  // The XDG base-directory rule: a relative $XDG_CACHE_HOME is ignored.
  std::string path;
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg != nullptr && xdg[0] == '/') {
    path = xdg;
  } else if (const char* home = std::getenv("HOME"); home != nullptr && home[0] != '\0') {
    path = home;
    path += "/.cache";
  } else {
    return path;
  }
  path += "/qdockbank/tuner.json";
  return path;
}

void Tuner::clear_memory() {
  const MutexLock lock(mu_);
  plans_.clear();
  disk_loaded_ = false;
}

TunerPlan Tuner::plan_for(int num_qubits, Precision precision) {
  QDB_REQUIRE(num_qubits >= 1 && num_qubits <= 30,
              "tuner supports 1..30 qubits");
  static obs::Counter& memory_hits = obs::counter("kernel.tuner.memory_hit");
  static obs::Counter& disk_hits = obs::counter("kernel.tuner.disk_hit");
  static obs::Counter& tuned = obs::counter("kernel.tuner.tuned");

  const MutexLock lock(mu_);
  const std::string key = plan_key(num_qubits, precision);
  if (auto it = plans_.find(key); it != plans_.end()) {
    memory_hits.add(1);
    return it->second;
  }
  if (!disk_loaded_) {
    load_disk_locked();
    disk_loaded_ = true;
    if (auto it = plans_.find(key); it != plans_.end()) {
      disk_hits.add(1);
      return it->second;
    }
  }
  TunerPlan plan = tune_locked(num_qubits, precision);
  if (plan.source == "tuned") tuned.add(1);
  plans_[key] = plan;
  save_disk_locked();
  return plan;
}

TunerPlan Tuner::tune_locked(int num_qubits, Precision precision) {
  TunerPlan plan;
  // Small states fit L1 whole; there is nothing to trade off, so skip the
  // benchmark (VQE constructs one engine per noise trajectory for 4..8
  // qubit fragments — those resolutions must be free).
  if (num_qubits <= 8) {
    plan.block_qubits = num_qubits;
    plan.source = "default";
    return plan;
  }
  // A one-off cost that would otherwise hide inside the first kernel span.
  obs::Span span("kernel.tuner.tune");
  span.set_attr("key", plan_key(num_qubits, precision));

  std::vector<int> candidates = {8, 10, 11, 12, 14};
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [&](int b) { return b > num_qubits; }),
                   candidates.end());

  // EfficientSU2-shaped workload (the shape every VQE energy funnels
  // through); the timing only steers traversal order, so a fixed seed and
  // fixed reps keep the benchmark itself deterministic in shape.
  EfficientSU2 ansatz(num_qubits, 2);
  Rng rng(42);
  const Circuit circuit = ansatz.build(ansatz.initial_point(rng));
  FusionOptions fo;
  fo.fuse_matrices = (precision == Precision::f32);
  const FusedProgram prog = fuse_circuit(circuit, fo);

  for (int cand : candidates) {
    EngineOptions opt;
    opt.block_qubits = cand;
    FusedEngine eng(num_qubits, precision, opt);
    const double ms = time_apply_ms(eng, prog);
    if (plan.source.empty() || ms < plan.best_ms) {
      plan.block_qubits = cand;
      plan.best_ms = ms;
      plan.source = "tuned";
    }
  }
  return plan;
}

void Tuner::load_disk_locked() {
  const std::string path = cache_path();
  if (path.empty()) return;
  try {
    const Json doc = Json::parse(read_file(path));
    if (!doc.is_object() || !doc.contains("version") ||
        doc.at("version").as_int() != kFormatVersion || !doc.contains("plans")) {
      return;  // stale format: ignore wholesale, re-tune, rewrite
    }
    for (const auto& [key, value] : doc.at("plans").as_object()) {
      if (plans_.count(key) != 0) continue;  // in-process plans win
      TunerPlan plan;
      plan.block_qubits = static_cast<int>(value.at("block_qubits").as_int());
      plan.best_ms = value.contains("best_ms") ? value.at("best_ms").as_double() : 0.0;
      plan.source = "disk";
      if (plan.block_qubits >= 1 && plan.block_qubits <= 30) plans_[key] = plan;
    }
  } catch (const std::exception&) {
    // Unreadable or malformed cache: treat as absent.
  }
}

void Tuner::save_disk_locked() {
  const std::string path = cache_path();
  if (path.empty()) return;
  Json plans = Json::object();
  for (const auto& [key, plan] : plans_) {
    Json entry = Json::object();
    entry.set("block_qubits", plan.block_qubits);
    entry.set("best_ms", plan.best_ms);
    plans.set(key, std::move(entry));
  }
  Json doc = Json::object();
  doc.set("version", kFormatVersion);
  doc.set("plans", std::move(plans));
  try {
    const std::filesystem::path parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    write_file_atomic(path, doc.dump());
  } catch (const std::exception&) {
    // Persistence is an optimization; the in-process plan still stands.
  }
}

}  // namespace qdb
