#include "common/fault.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "common/error.h"
#include "common/rng.h"

namespace qdb {

namespace {

/// Thread-local armed scope.  The per-site call counters live here so that
/// the n-th-call bookkeeping is race-free by construction: each batch job
/// attempt runs on one thread, and nested scopes save/restore the whole
/// state.
struct ScopeState {
  bool active = false;
  std::uint64_t stream_seed = 0;  // seed_combine(injector seed, job, attempt)
  std::string job_id;
  int attempt = 0;
  std::unordered_map<std::string, int> calls;  // site -> calls so far
};

thread_local ScopeState tl_scope;

[[noreturn]] void throw_fault(FaultKind kind, std::string_view site, int call,
                              const ScopeState& scope) {
  std::string msg = "injected fault at site '" + std::string(site) + "' (call " +
                    std::to_string(call) + ", job '" + scope.job_id + "', attempt " +
                    std::to_string(scope.attempt) + ")";
  switch (kind) {
    case FaultKind::Transient: throw TransientDeviceError(msg);
    case FaultKind::QueuePreempted: throw QueuePreemptedError(msg);
    case FaultKind::CalibrationDrift: throw CalibrationDriftError(msg);
    case FaultKind::Io: throw IoError(msg);
  }
  throw TransientDeviceError(msg);  // unreachable; keeps -Wreturn-type happy
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::Transient: return "transient";
    case FaultKind::QueuePreempted: return "queue-preempted";
    case FaultKind::CalibrationDrift: return "calibration-drift";
    case FaultKind::Io: return "io";
  }
  return "transient";
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::configure(const std::string& site, FaultSiteConfig cfg) {
  const MutexLock lock(mu_);
  sites_[site] = Site{cfg, 0};
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::unconfigure(const std::string& site) {
  const MutexLock lock(mu_);
  sites_.erase(site);
  enabled_.store(!sites_.empty(), std::memory_order_relaxed);
}

void FaultInjector::clear() {
  const MutexLock lock(mu_);
  sites_.clear();
  enabled_.store(false, std::memory_order_relaxed);
}

void FaultInjector::set_seed(std::uint64_t seed) {
  const MutexLock lock(mu_);
  seed_ = seed;
}

std::uint64_t FaultInjector::seed() const {
  const MutexLock lock(mu_);
  return seed_;
}

void FaultInjector::check(std::string_view site) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  if (!tl_scope.active) return;

  FaultSiteConfig cfg;
  {
    const MutexLock lock(mu_);
    const auto it = sites_.find(site);
    if (it == sites_.end()) return;
    cfg = it->second.cfg;
  }

  const int call = ++tl_scope.calls[std::string(site)];
  if (cfg.max_attempt > 0 && tl_scope.attempt > cfg.max_attempt) return;

  bool fire = false;
  if (cfg.trigger_on_nth > 0) {
    fire = (call == cfg.trigger_on_nth);
  } else if (cfg.probability > 0.0) {
    // Decision = pure function of (stream seed, site, call index).  One
    // SplitMix64 step gives a uniform draw without mutating any shared
    // state, so the pattern is identical across thread counts and resumes.
    std::uint64_t h = seed_combine(seed_combine(tl_scope.stream_seed, fnv1a(site)),
                                   static_cast<std::uint64_t>(call));
    const double u = static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
    fire = u < cfg.probability;
  }
  if (!fire) return;

  {
    const MutexLock lock(mu_);
    const auto it = sites_.find(site);
    if (it != sites_.end()) ++it->second.fires;
  }
  throw_fault(cfg.kind, site, call, tl_scope);
}

std::size_t FaultInjector::fire_count(std::string_view site) const {
  const MutexLock lock(mu_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fires;
}

std::size_t FaultInjector::total_fires() const {
  const MutexLock lock(mu_);
  std::size_t total = 0;
  for (const auto& [name, site] : sites_) {
    (void)name;
    total += site.fires;
  }
  return total;
}

std::vector<std::string> FaultInjector::configured_sites() const {
  const MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(sites_.size());
  for (const auto& [name, site] : sites_) {
    (void)site;
    names.push_back(name);
  }
  return names;
}

namespace {
// Saved outer scopes for nesting (per thread).  A vector<ScopeState> works
// because FaultScope is strictly stack-ordered (RAII).
thread_local std::vector<ScopeState> tl_saved_scopes;
}  // namespace

FaultScope::FaultScope(std::string_view job_id, int attempt) {
  tl_saved_scopes.push_back(std::move(tl_scope));
  tl_scope = ScopeState{};
  tl_scope.active = true;
  tl_scope.job_id.assign(job_id.data(), job_id.size());
  tl_scope.attempt = attempt;
  tl_scope.stream_seed =
      seed_combine(seed_combine(FaultInjector::instance().seed(), fnv1a(job_id)),
                   static_cast<std::uint64_t>(attempt));
}

FaultScope::~FaultScope() {
  tl_scope = std::move(tl_saved_scopes.back());
  tl_saved_scopes.pop_back();
}

bool FaultScope::active() { return tl_scope.active; }

std::uint64_t fault_seed_from_env(std::uint64_t fallback) {
  const char* env = std::getenv("QDB_FAULT_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  const char* end = env + std::strlen(env);
  std::uint64_t v = 0;
  const auto [stop, ec] = std::from_chars(env, end, v);
  return ec == std::errc() && stop == end ? v : fallback;
}

}  // namespace qdb
