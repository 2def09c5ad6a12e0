// Batch execution architecture (paper §5.2) and device-time accounting.
//
// The dataset was produced as a batch of VQE jobs executed back-to-back on
// the shared processor; the paper headlines the aggregate bill: "over 60
// hours of quantum processor runtime" and "a total computational cost
// exceeding one million USD".  This module schedules a set of fragments as
// a job queue over the simulated device, accumulates the modelled runtime
// per fragment and in total, and prices it with IBM's published pay-as-you-
// go rate (USD 1.60 per runtime second for utility-scale systems at the
// time of the paper).
//
// Resilience (ISSUE 2): a >60-hour, ~$1M batch on shared hardware loses
// jobs to transient device errors, queue preemption, and calibration drift.
// run_batch therefore treats every job as independently fallible:
//   * per-job RetryPolicy with exponential backoff modelled into the
//     device-queue clock;
//   * a graceful-degradation ladder (MPS bond-cap overflow or repeated
//     transient failure -> retry on the dense engine, then with a reduced
//     shot/trajectory budget), recorded in the report;
//   * fail_fast=false by default, so one bad fragment no longer kills the
//     other 54 — failures land in per-job failure_logs instead;
//   * optional checkpoint/resume (BatchOptions::checkpoint_path): the
//     partial report is persisted crash-consistently after every completed
//     job, and a restarted run skips already-completed pdb_ids.  The final
//     report is byte-identical whether the run was interrupted 0 or N
//     times, and across thread counts.
#pragma once

#include <string>
#include <vector>

#include "data/registry.h"
#include "vqe/vqe.h"

namespace qdb {

/// Terminal state of one batch job.
enum class JobStatus {
  Ok,        // succeeded on the first attempt
  Retried,   // succeeded after >= 1 retry with the original configuration
  Degraded,  // succeeded on a degradation-ladder rung (see BatchJobRecord)
  Failed,    // every attempt on every rung failed (see failure_log)
};

const char* job_status_name(JobStatus s);
/// Inverse of job_status_name; throws qdb::Error on an unknown name.
JobStatus job_status_from_name(std::string_view name);

/// Per-job retry/backoff policy and the degradation ladder switches.
struct RetryPolicy {
  int max_attempts = 3;            // attempts per ladder rung (>= 1)
  double backoff_initial_s = 60.0; // queue re-entry delay before retry 1
  double backoff_multiplier = 2.0; // exponential growth per further retry
  double backoff_max_s = 3600.0;   // backoff ceiling

  // Degradation ladder (tried in order once max_attempts is exhausted):
  bool engine_fallback = true;   // rung 2: rerun MPS jobs on the dense engine
  bool budget_reduction = true;  // rung 3: halve trajectories and shots

  /// Modelled queue wait before the (retry_index+1)-th retry (0-based):
  /// min(backoff_max_s, backoff_initial_s * backoff_multiplier^retry_index).
  double backoff_s(int retry_index) const;
};

struct BatchJobRecord {
  std::string pdb_id;
  Group group = Group::S;
  int qubits = 0;                 // allocated on the device
  int evaluations = 0;
  std::size_t shots = 0;
  double device_time_s = 0.0;     // modelled processor time
  double queue_start_s = 0.0;     // when the job reached the device
  double lowest_energy = 0.0;

  // Resilience accounting (ISSUE 2).
  JobStatus status = JobStatus::Ok;
  int attempts = 1;               // total attempts across all rungs
  double retry_wait_s = 0.0;      // modelled backoff spent in the queue
  std::string engine_used;        // "dense" | "mps" | "table" ("" if Failed)
  std::string degradation;        // ladder rung that succeeded ("" = none)
  std::vector<std::string> failure_log;  // one line per failed attempt
};

struct BatchReport {
  std::vector<BatchJobRecord> jobs;
  double total_device_time_s = 0.0;
  double total_retry_wait_s = 0.0;   // modelled backoff across all jobs
  double total_cost_usd = 0.0;       // device time only; waiting is free

  // Best-effort warnings from checkpoint persistence (a failed checkpoint
  // write never aborts the batch; the next completion retries it).  Not
  // serialised into checkpoints.
  std::vector<std::string> checkpoint_warnings;

  double total_device_hours() const { return total_device_time_s / 3600.0; }

  /// Number of jobs with the given terminal status.
  int count(JobStatus s) const;
  /// Jobs that produced a result (everything except Failed).
  int completed() const;
  /// completed() / jobs.size() in [0, 1]; 1.0 for an empty batch.
  double completion_rate() const;
};

struct BatchOptions {
  VqeOptions vqe;                 // per-job budgets
  double usd_per_second = 1.60;   // IBM utility-scale pay-as-you-go rate
  bool run_vqe = true;            // false: account published exec times only

  // Simulation-host parallelism: fan the entries out across this many
  // threads (0 = hardware_threads(), i.e. OMP_NUM_THREADS or the CPUs
  // available; 1 = serial).  Every entry derives its seed from its pdb_id,
  // and the queue/device clocks are modelled after the parallel region in
  // stable entry order, so the report is byte-identical for every thread
  // count.
  int threads = 0;

  // Resilience knobs (ISSUE 2).
  RetryPolicy retry;
  // true restores the legacy abort-the-batch behaviour: after the batch
  // drains, the first (lowest-entry-index) failure is rethrown.  The
  // default keeps going and records failures in the per-job failure_log.
  bool fail_fast = false;
  // Non-empty: persist the partial report here (crash-consistent
  // tmp+fsync+rename) after every completed job, and on start skip
  // pdb_ids already completed by a previous interrupted run.  Jobs that
  // previously *Failed* are re-run (a transient outage may have cleared).
  // The file is validated against a fingerprint of the options; resuming
  // with different options throws qdb::Error.
  std::string checkpoint_path;
};

/// Execute (or account) the given entries as a batch over the simulated
/// device.  Simulation work fans out across options.threads host threads;
/// the *modelled* device schedule stays strictly sequential (the paper's
/// back-to-back job queue), so reports match the serial executor exactly.
/// With run_vqe=false the published Tables 1-3 execution times are used
/// directly — the paper's own accounting.
///
/// Never throws because of a failing *job* (unless options.fail_fast):
/// failed jobs are reported with JobStatus::Failed and a populated
/// failure_log.  Throws qdb::Error for batch-level problems (unreadable or
/// mismatched checkpoint).
BatchReport run_batch(const std::vector<const DatasetEntry*>& entries,
                      const BatchOptions& options);

/// Convenience: the whole dataset.
BatchReport run_batch_all(const BatchOptions& options);

/// Execute exactly one entry through the retry/degradation ladder — the same
/// code path run_batch uses per job, exposed for the distributed worker loop
/// (ISSUE 7).  The record is deterministic in (entry, options, fault-injector
/// seed): per-job VQE seeds derive from the pdb_id and per-attempt fault
/// streams from (pdb_id, attempt), so re-executing a job on any worker after
/// a lease expiry reproduces the record byte for byte.  queue_start_s is
/// left at 0; the coordinator models the queue afterwards with
/// finalize_batch_schedule.  Never throws for a failing job (Failed record
/// with failure_log instead); emits the same "batch.job" span and counters
/// as run_batch.
BatchJobRecord run_batch_job(const DatasetEntry& entry, const BatchOptions& options);

/// Model the sequential device queue over report.jobs in their current
/// (stable entry) order and recompute the totals: queue_start_s per job plus
/// total device time / retry wait / cost.  Runs over per-job fields only, so
/// the result is identical for every thread count, resume pattern, and — for
/// ISSUE 7 — however jobs were scattered across distributed workers.
void finalize_batch_schedule(BatchReport& report, const BatchOptions& options);

}  // namespace qdb
