// Lease-based distributed batch coordinator (ISSUE 7).
//
// The paper's 55-fragment batch ran on shared utility-level hardware where
// worker preemption and queue eviction are routine; the ROADMAP's target of
// millions of jobs makes worker death the common case, not the exception.
// This coordinator owns the authoritative per-job state machine
//
//     pending ──lease──▶ leased ──complete──▶ done
//        ▲                  │
//        └──── expiry ◀─────┘        (attempts < max_lease_attempts)
//                    └──────▶ failed (attempts exhausted)
//
// and hands jobs to any number of workers over lease():
//
//  * Leases carry a token (process-unique, monotonically increasing) and a
//    deadline on the injectable monotonic clock (common/clock.h).  A worker
//    extends its deadline with heartbeat(); a lease whose deadline passes is
//    swept on the next lease() call and the job re-queued — with a bounded
//    attempt count, so a poisonous job ends Failed instead of looping.
//
//  * Completion is idempotent, first writer wins: a job re-executed after a
//    lease expiry (or a worker whose completion ack was lost retrying)
//    produces a byte-identical record by construction — per-job VQE seeds
//    derive from the pdb_id and per-attempt fault streams from
//    (pdb_id, attempt) — so the coordinator keeps the first record, counts
//    the duplicate, and the content-addressed store dedups the blob.
//    Stale-token completions are likewise accepted (the work is correct even
//    if the lease lapsed); only already-done jobs count as duplicates.
//
//  * State is journaled after every state transition as a durable record
//    (common/json.h: kind, version and options-fingerprint header, doubles
//    written exactly, saved by write_file_atomic), so a killed
//    coordinator resumes without losing or double-counting jobs: done jobs
//    keep their records, leased jobs re-queue with their attempt counts
//    preserved, failed jobs re-queue fresh (the outage may have cleared —
//    the same doctrine as batch checkpoint resume).
//
// Thread-safe: one mutex over all state; every public method may be called
// from any server worker thread.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/clock.h"
#include "common/json.h"
#include "common/sync.h"
#include "data/batch.h"
#include "data/registry.h"
#include "store/store.h"

namespace qdb::orchestrate {

/// Coordinator-side job states.  BatchJobRecord::status is the *execution*
/// outcome; this is the *scheduling* state.
enum class JobState { Pending, Leased, Done, Failed };

const char* job_state_name(JobState s);
/// Inverse of job_state_name; throws qdb::IoError on an unknown name.
JobState job_state_from_name(std::string_view name);

struct CoordinatorOptions {
  /// Exactly the options a serial run_batch would use — the fingerprint of
  /// these (data/checkpoint.h) is what workers validate against, making
  /// "every worker computes what the serial run would" a checked invariant.
  BatchOptions batch;
  std::uint64_t lease_ttl_ms = 30'000;  ///< deadline granted per lease/heartbeat
  int max_lease_attempts = 8;           ///< lease grants per job before Failed
  std::string journal_path;             ///< "" = no journaling
  Clock* clock = nullptr;               ///< nullptr = process steady clock
  /// Optional content-addressed sink: accepted completion records are
  /// written as blobs (put_blob) keyed by their serialized bytes.
  const store::Store* results = nullptr;
};

/// Snapshot of one job's scheduling state (status endpoint + journal).
struct JobSnapshot {
  std::string pdb_id;
  JobState state = JobState::Pending;
  int lease_attempts = 0;            ///< leases ever granted for this job
  std::uint64_t lease_token = 0;     ///< current/last token (0 = never leased)
  std::string worker;                ///< current/last lease holder
  std::uint64_t lease_deadline_ms = 0;
  std::vector<std::string> events;   ///< scheduling history, one line each
  bool has_record = false;
  BatchJobRecord record;             ///< valid when has_record
  std::string result_hash;           ///< content hash of the record blob
};

struct LeaseGrant {
  enum class State { Granted, Wait, Drained };
  State state = State::Wait;
  std::string pdb_id;            ///< set when Granted
  std::uint64_t lease_token = 0;
  int attempt = 0;               ///< 1-based lease attempt for this job
  std::uint64_t deadline_ms = 0; ///< on the coordinator's clock
  std::uint64_t lease_ttl_ms = 0;
  std::uint64_t options_fingerprint = 0;
  std::uint64_t retry_after_ms = 0;  ///< polling hint when Wait
  /// W3C traceparent of the coordinator's orchestrate.lease span, set when
  /// Granted and the coordinator has a trace context (ISSUE 10).  Workers
  /// install it so their job spans parent to the lease that scheduled them.
  std::string traceparent;
};

struct HeartbeatResult {
  bool ok = false;
  std::uint64_t deadline_ms = 0;  ///< extended deadline when ok
  std::string reason;             ///< why not, when !ok
};

struct CompleteResult {
  bool accepted = false;    ///< this record became the job's result
  bool duplicate = false;   ///< job was already Done; record discarded
  bool stale_lease = false; ///< token no longer live (accepted anyway unless duplicate)
  std::string result_hash;  ///< content hash of the (kept) record's bytes
};

/// Monotonic accounting across the coordinator's lifetime (journaled, so
/// kill+resume never loses or double-counts).
struct CoordinatorCounters {
  std::uint64_t leases_granted = 0;
  std::uint64_t reassignments = 0;       ///< grants of a previously expired job
  std::uint64_t heartbeats = 0;
  std::uint64_t heartbeats_rejected = 0;
  std::uint64_t lease_expiries = 0;
  std::uint64_t completions = 0;         ///< accepted (first-writer) records
  std::uint64_t duplicate_completions = 0;
  std::uint64_t stale_completions = 0;   ///< accepted with a lapsed token
  std::uint64_t failed_terminal = 0;     ///< jobs that exhausted lease attempts
  std::uint64_t journal_failures = 0;    ///< journal writes that failed (warned)
};

class Coordinator {
 public:
  /// Loads the journal at options.journal_path if it exists, otherwise
  /// starts all entries Pending in the given (stable) order.  A corrupt
  /// journal, or one of another version or fingerprint, throws qdb::IoError;
  /// one covering a different job set throws qdb::Error.
  Coordinator(std::vector<const DatasetEntry*> entries, CoordinatorOptions options);

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Grant the next pending job to `worker_id`.  Sweeps expired leases
  /// first, so lease-expiry reassignment needs no background thread: any
  /// polling worker drives the sweep.
  LeaseGrant lease(const std::string& worker_id) QDB_EXCLUDES(mu_);

  /// True when `pdb_id` names one of this coordinator's jobs.
  bool has_job(const std::string& pdb_id) const QDB_EXCLUDES(mu_);

  /// Extend the lease deadline by lease_ttl_ms from now.  Fails (ok=false)
  /// for unknown jobs, jobs not currently leased, or a stale token.
  HeartbeatResult heartbeat(const std::string& pdb_id, std::uint64_t token)
      QDB_EXCLUDES(mu_);

  /// Submit an executed record.  First writer wins; see the header comment
  /// for the idempotency contract.  Throws qdb::Error for an unknown job or
  /// a record whose pdb_id disagrees.
  CompleteResult complete(const std::string& pdb_id, std::uint64_t token,
                          const BatchJobRecord& record) QDB_EXCLUDES(mu_);

  /// True once every job is Done or Failed.
  bool drained() const QDB_EXCLUDES(mu_);

  /// Exact scheduling accounting for GET /jobs/status.
  Json status_json() const QDB_EXCLUDES(mu_);

  CoordinatorCounters counters() const QDB_EXCLUDES(mu_);
  std::vector<JobSnapshot> jobs() const QDB_EXCLUDES(mu_);

  /// The final batch report: records in stable entry order, queue clock and
  /// totals modelled by finalize_batch_schedule — byte-identical to the
  /// serial run_batch report.  Requires drained().
  BatchReport report() const QDB_EXCLUDES(mu_);

  std::uint64_t options_fingerprint() const { return fingerprint_; }
  const CoordinatorOptions& options() const { return options_; }

 private:
  // *_locked helpers and load_journal run with mu_ held (the constructor
  // takes the lock before populating state so the contract holds from the
  // first instruction Clang analyses).
  void sweep_expired_locked(std::uint64_t now_ms) QDB_REQUIRES(mu_);
  LeaseGrant grant_locked(const std::string& worker_id, std::uint64_t now_ms)
      QDB_REQUIRES(mu_);
  void journal_locked() QDB_REQUIRES(mu_);
  void load_journal(const Json& doc) QDB_REQUIRES(mu_);

  CoordinatorOptions options_;   // immutable after construction
  Clock* clock_;                 // never null after construction
  std::uint64_t fingerprint_ = 0;

  mutable Mutex mu_;
  std::vector<JobSnapshot> jobs_ QDB_GUARDED_BY(mu_);  // stable entry order
  std::unordered_map<std::string, std::size_t> by_id_ QDB_GUARDED_BY(mu_);
  std::deque<std::size_t> queue_ QDB_GUARDED_BY(mu_);  // Pending job indices, FIFO
  CoordinatorCounters counters_ QDB_GUARDED_BY(mu_);
  std::uint64_t next_token_ QDB_GUARDED_BY(mu_) = 1;
};

// --- journal round-trip (exposed for the lease-state round-trip tests) ------

struct JournalSnapshot {
  std::vector<JobSnapshot> jobs;
  CoordinatorCounters counters;
  std::uint64_t next_token = 1;
};

/// Serialise coordinator state; job records via batch_job_record_json.
Json coordinator_journal_json(const JournalSnapshot& state,
                              std::uint64_t fingerprint);

/// Parse a journal document; throws qdb::IoError when its header is not a
/// current journal with `fingerprint`, and qdb::Error on a malformed payload.
JournalSnapshot coordinator_journal_from_json(const Json& doc,
                                              std::uint64_t fingerprint);

}  // namespace qdb::orchestrate
