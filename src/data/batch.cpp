#include "data/batch.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <unordered_map>

#include "common/annotations.h"
#include "common/check.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/sync.h"
#include "data/checkpoint.h"
#include "data/reference.h"
#include "lattice/lattice.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qdb {

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::Ok: return "ok";
    case JobStatus::Retried: return "retried";
    case JobStatus::Degraded: return "degraded";
    case JobStatus::Failed: return "failed";
  }
  return "failed";
}

JobStatus job_status_from_name(std::string_view name) {
  if (name == "ok") return JobStatus::Ok;
  if (name == "retried") return JobStatus::Retried;
  if (name == "degraded") return JobStatus::Degraded;
  if (name == "failed") return JobStatus::Failed;
  throw Error("unknown job status '" + std::string(name) + "'");
}

double RetryPolicy::backoff_s(int retry_index) const {
  double wait = backoff_initial_s;
  for (int i = 0; i < retry_index; ++i) {
    wait *= backoff_multiplier;
    if (wait >= backoff_max_s) return backoff_max_s;
  }
  return std::min(wait, backoff_max_s);
}

int BatchReport::count(JobStatus s) const {
  int n = 0;
  for (const BatchJobRecord& j : jobs) n += (j.status == s);
  return n;
}

int BatchReport::completed() const {
  return static_cast<int>(jobs.size()) - count(JobStatus::Failed);
}

double BatchReport::completion_rate() const {
  if (jobs.empty()) return 1.0;
  return static_cast<double>(completed()) / static_cast<double>(jobs.size());
}

namespace {

/// One rung of the graceful-degradation ladder: a VQE configuration plus the
/// label recorded in the report when a job first succeeds on that rung.
struct Rung {
  VqeOptions vqe;
  const char* label;  // "" for the original configuration
};

/// Build the ladder for one entry: original config, then (optionally) the
/// dense engine, then (optionally) the dense engine with a halved budget.
std::vector<Rung> build_ladder(const DatasetEntry& e, const BatchOptions& options) {
  VqeOptions base = options.vqe;
  base.seed = seed_combine(fnv1a(e.pdb_id), fnv1a("batch"));
  base.run_id = e.pdb_id;

  std::vector<Rung> ladder;
  ladder.push_back({base, ""});

  const int nq = encoding_qubits(e.length());
  VqeOptions prev = base;
  if (options.retry.engine_fallback &&
      uses_mps_engine(nq, base) && nq <= 30) {
    VqeOptions dense = base;
    dense.engine = VqeOptions::Engine::Dense;
    ladder.push_back({dense, "dense-engine"});
    prev = dense;
  }
  if (options.retry.budget_reduction) {
    VqeOptions reduced = prev;
    reduced.noise_trajectories = std::max(1, reduced.noise_trajectories / 2);
    reduced.shots_per_eval = std::max<std::size_t>(32, reduced.shots_per_eval / 2);
    reduced.final_shots = std::max<std::size_t>(256, reduced.final_shots / 2);
    ladder.push_back({reduced, "reduced-budget"});
  }
  return ladder;
}

/// Execute one entry through the retry/degradation ladder.  Everything that
/// can fail — including the accounting-only path — funnels through here, so
/// both the serial and the parallel executors share one failure-log path.
/// On a terminal failure, *fatal holds the last exception for fail_fast.
BatchJobRecord run_one_resilient_impl(const DatasetEntry& e,
                                      const BatchOptions& options,
                                      std::exception_ptr* fatal) {
  BatchJobRecord job;
  job.pdb_id = e.pdb_id;
  job.group = e.group();
  job.qubits = e.qubits;

  const std::vector<Rung> ladder =
      options.run_vqe ? build_ladder(e, options)
                      : std::vector<Rung>{{options.vqe, ""}};

  int attempt_no = 0;
  for (const Rung& rung : ladder) {
    for (int a = 0; a < std::max(1, options.retry.max_attempts); ++a) {
      ++attempt_no;
      if (attempt_no > 1) {
        // Exponential backoff, modelled into the device-queue clock (the
        // job waits; the processor bills nothing).
        job.retry_wait_s += options.retry.backoff_s(attempt_no - 2);
      }
      try {
        // Per-attempt fault stream: deterministic in (seed, pdb_id,
        // attempt), independent of threads, ordering, and resume.
        FaultScope scope(e.pdb_id, attempt_no);
        if (options.run_vqe) {
          const FoldingHamiltonian h = entry_hamiltonian(e);
          const VqeResult r = VqeDriver(h, rung.vqe).run();
          job.evaluations = r.evaluations;
          job.shots = r.total_shots;
          job.device_time_s = r.modeled_exec_time_s;
          job.lowest_energy = r.lowest_energy;
          job.engine_used = uses_mps_engine(h.num_qubits(), rung.vqe) ? "mps" : "dense";
        } else {
          // The paper's own accounting: published per-fragment times.
          fault_site("batch.account");
          job.device_time_s = e.exec_time_s;
          job.lowest_energy = e.lowest_energy;
          job.engine_used = "table";
        }
        job.attempts = attempt_no;
        job.degradation = rung.label;
        job.status = attempt_no == 1 ? JobStatus::Ok
                     : (*rung.label != '\0' ? JobStatus::Degraded : JobStatus::Retried);
        return job;
      } catch (const std::exception& ex) {
        obs::counter("batch.attempt_failures").add();
        obs::log_warn("batch.attempt_failed")
            .kv("job", e.pdb_id)
            .kv("attempt", attempt_no)
            .kv("rung", rung.label)
            .kv("retryable", is_retryable_fault(ex))
            .kv("error", ex.what());
        std::string line = "attempt " + std::to_string(attempt_no);
        if (*rung.label != '\0') line += std::string(" [") + rung.label + "]";
        line += ": ";
        line += ex.what();
        job.failure_log.push_back(std::move(line));
        if (fatal != nullptr) *fatal = std::current_exception();
        if (!is_retryable_fault(ex)) {
          // Parse errors, precondition violations, IO failures: retrying
          // cannot help.  Terminal immediately.
          job.attempts = attempt_no;
          job.status = JobStatus::Failed;
          job.failure_log.push_back("non-retryable failure; giving up");
          return job;
        }
      } catch (...) {
        job.failure_log.push_back("attempt " + std::to_string(attempt_no) +
                                  ": unknown exception");
        if (fatal != nullptr) *fatal = std::current_exception();
        job.attempts = attempt_no;
        job.status = JobStatus::Failed;
        return job;
      }
    }
  }
  job.attempts = attempt_no;
  job.status = JobStatus::Failed;
  return job;
}

/// Span + structured-event wrapper around the ladder: every job emits one
/// "batch.job" span (pdb_id/status/attempts attributes) and bumps the
/// per-outcome counters, so retry storms and degradation cascades are
/// visible in /metrics and trace dumps instead of only in failure logs.
BatchJobRecord run_one_resilient(const DatasetEntry& e, const BatchOptions& options,
                                 std::exception_ptr* fatal) {
  obs::Span span("batch.job");
  span.set_attr("pdb_id", e.pdb_id);
  BatchJobRecord job = run_one_resilient_impl(e, options, fatal);
  span.set_attr("status", job_status_name(job.status));
  span.set_attr("attempts", std::to_string(job.attempts));
  static obs::Counter& jobs_total = obs::counter("batch.jobs");
  jobs_total.add();
  switch (job.status) {
    case JobStatus::Ok:
      break;
    case JobStatus::Retried:
      obs::counter("batch.jobs_retried").add();
      break;
    case JobStatus::Degraded:
      obs::counter("batch.jobs_degraded").add();
      obs::log_info("batch.degraded")
          .kv("job", job.pdb_id)
          .kv("rung", job.degradation)
          .kv("attempts", job.attempts);
      break;
    case JobStatus::Failed:
      obs::counter("batch.jobs_failed").add();
      obs::log_warn("batch.job_failed")
          .kv("job", job.pdb_id)
          .kv("attempts", job.attempts);
      break;
  }
  return job;
}

/// Batch accounting contract (ISSUE 3 invariant catalog): every record the
/// resilient executor emits must tell a self-consistent retry story.  The
/// checks are cheap field comparisons, so they run at the default (fast)
/// contract level on every job, serial or parallel.
void validate_job_record(const BatchJobRecord& job, const RetryPolicy& retry) {
  QDB_ASSERT(job.attempts >= 1,
             "job " << job.pdb_id << ": attempts=" << job.attempts);
  // Ladder has at most 3 rungs (original, dense-engine, reduced-budget);
  // each rung is tried at most max(1, max_attempts) times.
  QDB_ASSERT(job.attempts <= std::max(1, retry.max_attempts) * 3,
             "job " << job.pdb_id << ": attempts=" << job.attempts
                    << " exceeds ladder bound (max_attempts="
                    << retry.max_attempts << ")");
  QDB_ASSERT(job.retry_wait_s >= 0.0,
             "job " << job.pdb_id << ": negative retry_wait_s=" << job.retry_wait_s);
  switch (job.status) {
    case JobStatus::Ok:
      QDB_ASSERT(job.attempts == 1 && job.failure_log.empty() &&
                     job.degradation.empty(),
                 "job " << job.pdb_id << ": Ok but attempts=" << job.attempts
                        << " failure_log=" << job.failure_log.size()
                        << " degradation='" << job.degradation << "'");
      break;
    case JobStatus::Retried:
      QDB_ASSERT(job.attempts > 1 && !job.failure_log.empty() &&
                     job.degradation.empty(),
                 "job " << job.pdb_id << ": Retried but attempts=" << job.attempts
                        << " failure_log=" << job.failure_log.size()
                        << " degradation='" << job.degradation << "'");
      break;
    case JobStatus::Degraded:
      QDB_ASSERT(job.attempts > 1 && !job.failure_log.empty() &&
                     !job.degradation.empty(),
                 "job " << job.pdb_id << ": Degraded but attempts=" << job.attempts
                        << " failure_log=" << job.failure_log.size()
                        << " degradation='" << job.degradation << "'");
      break;
    case JobStatus::Failed:
      QDB_ASSERT(!job.failure_log.empty(),
                 "job " << job.pdb_id << ": Failed with empty failure_log");
      QDB_ASSERT(job.device_time_s == 0.0,
                 "job " << job.pdb_id << ": Failed but billed device_time_s="
                        << job.device_time_s);
      break;
  }
}

}  // namespace

// Device-queue model in stable entry order: the simulated processor executes
// jobs back to back, a retried job re-enters the queue after its modelled
// backoff, and failed jobs consume only their waiting time (see batch.h).
void finalize_batch_schedule(BatchReport& report, const BatchOptions& options) {
  report.total_device_time_s = 0.0;
  report.total_retry_wait_s = 0.0;
  double clock_s = 0.0;
  for (BatchJobRecord& job : report.jobs) {
    job.queue_start_s = clock_s;
    clock_s += job.retry_wait_s + job.device_time_s;
    report.total_device_time_s += job.device_time_s;
    report.total_retry_wait_s += job.retry_wait_s;
  }
  report.total_cost_usd = report.total_device_time_s * options.usd_per_second;
}

BatchJobRecord run_batch_job(const DatasetEntry& entry, const BatchOptions& options) {
  BatchJobRecord job = run_one_resilient(entry, options, nullptr);
  validate_job_record(job, options.retry);
  return job;
}

BatchReport run_batch(const std::vector<const DatasetEntry*>& entries,
                      const BatchOptions& options) {
  obs::Span span("batch.run");
  span.set_attr("entries", std::to_string(entries.size()));
  obs::log_info("batch.start")
      .kv("entries", entries.size())
      .kv("run_vqe", options.run_vqe)
      .kv("threads", options.threads);
  const auto n = static_cast<std::int64_t>(entries.size());
  const std::uint64_t fingerprint = batch_options_fingerprint(options);

  // Resume: reuse records completed by a previous interrupted run.  Jobs
  // that previously Failed are re-run — the outage may have cleared (and
  // under a deterministic fault schedule they fail identically, keeping
  // resumed reports byte-identical).
  std::unordered_map<std::string, BatchJobRecord> prior;
  if (!options.checkpoint_path.empty()) {
    BatchReport previous;
    if (load_batch_checkpoint(options.checkpoint_path, fingerprint, &previous)) {
      for (BatchJobRecord& j : previous.jobs) {
        if (j.status != JobStatus::Failed) prior.emplace(j.pdb_id, std::move(j));
      }
    }
  }

  std::vector<BatchJobRecord> jobs(entries.size());
  std::vector<char> finished(entries.size(), 0);
  std::vector<std::exception_ptr> fatal(entries.size());
  std::vector<std::int64_t> pending;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto it = prior.find(entries[static_cast<std::size_t>(i)]->pdb_id);
    if (it != prior.end()) {
      jobs[static_cast<std::size_t>(i)] = std::move(it->second);
      finished[static_cast<std::size_t>(i)] = 1;
    } else {
      pending.push_back(i);
    }
  }

  // Checkpointing: after each completed job, persist every finished record
  // (in stable entry order) crash-consistently.  Serialised by a mutex; a
  // failing write is recorded as a warning and retried on the next
  // completion rather than killing the batch.
  Mutex ckpt_mu;
  std::vector<std::string> ckpt_warnings;
  auto checkpoint_locked = [&]() QDB_REQUIRES(ckpt_mu) {
    if (options.checkpoint_path.empty()) return;
    QDB_SPAN("batch.checkpoint");
    BatchReport partial;
    for (std::int64_t i = 0; i < n; ++i) {
      if (finished[static_cast<std::size_t>(i)]) {
        partial.jobs.push_back(jobs[static_cast<std::size_t>(i)]);
      }
    }
    finalize_batch_schedule(partial, options);
    try {
      save_batch_checkpoint(options.checkpoint_path, partial, fingerprint);
    } catch (const std::exception& ex) {
      obs::log_warn("batch.checkpoint_failed").kv("error", ex.what());
      ckpt_warnings.push_back(std::string("checkpoint write failed: ") + ex.what());
    }
  };

  // Each job's batch.job span parents under this batch.run on whichever
  // thread runs it; the entry index is the branch salt, so sibling ids never
  // collide across threads.
  const obs::TraceContext here = obs::current_trace_context();
  auto run_index = [&](std::int64_t i) {
    const obs::ScopedTraceContext trace_scope(here, static_cast<std::uint64_t>(i) + 1);
    const DatasetEntry* e = entries[static_cast<std::size_t>(i)];
    BatchJobRecord job =
        run_one_resilient(*e, options, &fatal[static_cast<std::size_t>(i)]);
    validate_job_record(job, options.retry);
    const MutexLock lock(ckpt_mu);
    jobs[static_cast<std::size_t>(i)] = std::move(job);
    finished[static_cast<std::size_t>(i)] = 1;
    // The checkpoint writer is itself a fault site; scope it to the job so
    // injected IO faults stay deterministic (attempt 0 = persistence).
    FaultScope scope(e->pdb_id, 0);
    checkpoint_locked();
  };

  const auto pending_n = static_cast<std::int64_t>(pending.size());
  if (options.run_vqe) {
    // Exceptions never escape the loop body (a throw on a pool thread ends
    // the process): run_one_resilient captures every per-job failure into
    // the record (and fatal[] for fail_fast).
    parallel_for_threads(pending_n, options.threads, [&](std::int64_t k) {
      run_index(pending[static_cast<std::size_t>(k)]);
    });
  } else {
    for (std::int64_t k = 0; k < pending_n; ++k) {
      run_index(pending[static_cast<std::size_t>(k)]);  // cheap table lookups
    }
  }

  BatchReport report;
  report.jobs = std::move(jobs);
  finalize_batch_schedule(report, options);
  report.checkpoint_warnings = std::move(ckpt_warnings);

  obs::log_info("batch.done")
      .kv("entries", report.jobs.size())
      .kv("completed", report.completed())
      .kv("failed", report.count(JobStatus::Failed))
      .kv("device_time_s", report.total_device_time_s);

  if (options.fail_fast) {
    // Legacy semantics: surface the first (lowest-entry-index) failure as
    // an exception after the batch drains.
    for (std::size_t i = 0; i < report.jobs.size(); ++i) {
      if (report.jobs[i].status == JobStatus::Failed && fatal[i]) {
        std::rethrow_exception(fatal[i]);
      }
    }
  }
  return report;
}

BatchReport run_batch_all(const BatchOptions& options) {
  std::vector<const DatasetEntry*> all;
  for (const DatasetEntry& e : qdockbank_entries()) all.push_back(&e);
  return run_batch(all, options);
}

}  // namespace qdb
