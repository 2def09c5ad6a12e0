// Deterministic, seeded fault injection (ISSUE 2).
//
// The paper's dataset is the product of a 55-fragment, >60-hour batch on a
// shared utility-scale processor (§5.2) — a regime where jobs are dropped,
// preempted, and invalidated by calibration drift as a matter of course.
// The resilience machinery in data/batch.cpp (retry, degradation ladder,
// checkpoint/resume) therefore has to be testable against *reproducible*
// failures.  This framework provides that:
//
//  * Named sites.  Code under test calls
//        fault_site("vqe.stage1.evaluate");
//    at the points where a real run can fail.  An unconfigured site costs a
//    single relaxed atomic load — safe to leave in production paths.
//
//  * Scoped per-job streams.  Faults fire only inside an armed FaultScope
//    (the batch executor arms one per job attempt).  Whether the n-th call
//    of site S fires in scope (job, attempt) is a pure function of
//    (injector seed, S, job, attempt, n): independent of thread count,
//    scheduling, wall clock, and of how many *other* jobs ran first.  The
//    same seed therefore reproduces the same failure pattern across serial,
//    parallel, and interrupted+resumed executions.
//
//  * Per-site policy.  A site fires either with probability `probability`
//    per call, or deterministically on the `trigger_on_nth` call of each
//    scope; `max_attempt` limits firing to the first k attempts of a job,
//    which models a transient outage that clears while the job backs off.
//
// Registered sites (kept in one place so the fault-matrix test can sweep
// them):  vqe.stage1.evaluate, vqe.stage2.sample, engine.dense.apply,
// engine.mps.apply, io.write, batch.account, batch.checkpoint,
// store.ingest.io (before each new blob write), store.index.write (before
// the store index rewrite), and the distributed-worker death model
// (ISSUE 7): orchestrate.lease.drop (a granted lease response lost on the
// wire), orchestrate.worker.crash (worker dies before/after executing the
// leased job), orchestrate.complete.io (completion acknowledged server-side
// but the ack lost, forcing a duplicate-completion retry).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/sync.h"

namespace qdb {

/// Which typed exception (common/error.h) a firing site throws.
enum class FaultKind { Transient, QueuePreempted, CalibrationDrift, Io };

const char* fault_kind_name(FaultKind k);

struct FaultSiteConfig {
  /// Per-call firing probability in [0, 1].  Ignored when trigger_on_nth > 0.
  double probability = 0.0;
  /// If > 0: fire exactly on this (1-based) call of the site within each
  /// armed scope — deterministic, probability-free.
  int trigger_on_nth = 0;
  /// If > 0: only fire while the scope's attempt number is <= max_attempt
  /// (models a transient outage that clears after k retries).  0 = always.
  int max_attempt = 0;
  /// Exception type thrown when the site fires.
  FaultKind kind = FaultKind::Transient;
};

/// Process-global fault-injection registry.  configure()/clear()/set_seed()
/// must not race with concurrent check() calls (configure before running);
/// check() itself is safe to call from any number of threads.
class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Register (or replace) a named site.  Acquires mu_ internally.
  void configure(const std::string& site, FaultSiteConfig cfg) QDB_EXCLUDES(mu_);
  /// Remove one site.
  void unconfigure(const std::string& site) QDB_EXCLUDES(mu_);
  /// Remove every site and reset fire counts; disables the fast path.
  void clear() QDB_EXCLUDES(mu_);

  /// Base seed for all per-scope streams (default 0).
  void set_seed(std::uint64_t seed) QDB_EXCLUDES(mu_);
  std::uint64_t seed() const QDB_EXCLUDES(mu_);

  /// True when at least one site is configured (fast-path gate).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The site check: throws the configured typed exception if `site` fires
  /// for the current thread's armed scope.  No-op when the injector is
  /// disabled, the site is unconfigured, or no scope is armed.
  void check(std::string_view site) QDB_EXCLUDES(mu_);

  /// How many times `site` has fired since the last clear().
  std::size_t fire_count(std::string_view site) const QDB_EXCLUDES(mu_);
  /// Total fires across all sites since the last clear().
  std::size_t total_fires() const QDB_EXCLUDES(mu_);
  /// Names of all configured sites (sorted).
  std::vector<std::string> configured_sites() const QDB_EXCLUDES(mu_);

 private:
  FaultInjector() = default;

  struct Site {
    FaultSiteConfig cfg;
    std::size_t fires = 0;
  };

  mutable Mutex mu_;
  std::map<std::string, Site, std::less<>> sites_ QDB_GUARDED_BY(mu_);
  std::atomic<bool> enabled_{false};
  std::uint64_t seed_ QDB_GUARDED_BY(mu_) = 0;
};

/// Inline wrapper used at fault points; one relaxed atomic load when the
/// injector is disabled.
inline void fault_site(std::string_view site) {
  FaultInjector& fi = FaultInjector::instance();
  if (fi.enabled()) fi.check(site);
}

/// RAII scope arming the calling thread's fault stream for one job attempt.
/// Scopes nest (the previous scope is restored on destruction), and the
/// per-site call counters reset each time a scope is armed — the decision
/// sequence inside a scope depends only on (seed, job_id, attempt).
class FaultScope {
 public:
  FaultScope(std::string_view job_id, int attempt);
  ~FaultScope();

  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  /// True if the calling thread currently has an armed scope.
  static bool active();
};

/// Seed override from the environment: QDB_FAULT_SEED when it is a decimal
/// integer (digits only), otherwise `fallback`.  Used by the CI fault sweep.
std::uint64_t fault_seed_from_env(std::uint64_t fallback);

}  // namespace qdb
