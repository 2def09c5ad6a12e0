#include "orchestrate/coordinator.h"

#include <algorithm>

#include "common/check.h"
#include "common/error.h"
#include "data/checkpoint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qdb::orchestrate {

namespace {

// Version 1 files held %.10g-rounded doubles; they are refused, never resumed.
constexpr int kJournalVersion = 2;

RecordHeader journal_header(std::uint64_t fingerprint) {
  return {"qdockbank-orchestrator-journal", kJournalVersion, fingerprint};
}

Json counters_json(const CoordinatorCounters& c) {
  Json j = Json::object();
  j.set("leases_granted", static_cast<std::int64_t>(c.leases_granted));
  j.set("reassignments", static_cast<std::int64_t>(c.reassignments));
  j.set("heartbeats", static_cast<std::int64_t>(c.heartbeats));
  j.set("heartbeats_rejected", static_cast<std::int64_t>(c.heartbeats_rejected));
  j.set("lease_expiries", static_cast<std::int64_t>(c.lease_expiries));
  j.set("completions", static_cast<std::int64_t>(c.completions));
  j.set("duplicate_completions",
        static_cast<std::int64_t>(c.duplicate_completions));
  j.set("stale_completions", static_cast<std::int64_t>(c.stale_completions));
  j.set("failed_terminal", static_cast<std::int64_t>(c.failed_terminal));
  j.set("journal_failures", static_cast<std::int64_t>(c.journal_failures));
  return j;
}

CoordinatorCounters counters_from_json(const Json& j) {
  CoordinatorCounters c;
  c.leases_granted = static_cast<std::uint64_t>(j.at("leases_granted").as_int());
  c.reassignments = static_cast<std::uint64_t>(j.at("reassignments").as_int());
  c.heartbeats = static_cast<std::uint64_t>(j.at("heartbeats").as_int());
  c.heartbeats_rejected =
      static_cast<std::uint64_t>(j.at("heartbeats_rejected").as_int());
  c.lease_expiries = static_cast<std::uint64_t>(j.at("lease_expiries").as_int());
  c.completions = static_cast<std::uint64_t>(j.at("completions").as_int());
  c.duplicate_completions =
      static_cast<std::uint64_t>(j.at("duplicate_completions").as_int());
  c.stale_completions =
      static_cast<std::uint64_t>(j.at("stale_completions").as_int());
  c.failed_terminal = static_cast<std::uint64_t>(j.at("failed_terminal").as_int());
  c.journal_failures =
      static_cast<std::uint64_t>(j.at("journal_failures").as_int());
  return c;
}

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::Pending: return "pending";
    case JobState::Leased: return "leased";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
  }
  return "failed";
}

JobState job_state_from_name(std::string_view name) {
  if (name == "pending") return JobState::Pending;
  if (name == "leased") return JobState::Leased;
  if (name == "done") return JobState::Done;
  if (name == "failed") return JobState::Failed;
  throw IoError("journal: unknown job state '" + std::string(name) + "'");
}

// --- journal round-trip -----------------------------------------------------

Json coordinator_journal_json(const JournalSnapshot& state,
                              std::uint64_t fingerprint) {
  Json doc = record_header(journal_header(fingerprint));
  doc.set("next_token", static_cast<std::int64_t>(state.next_token));
  doc.set("counters", counters_json(state.counters));
  Json jobs = Json::array();
  for (const JobSnapshot& s : state.jobs) {
    Json j = Json::object();
    j.set("pdb_id", s.pdb_id);
    j.set("state", job_state_name(s.state));
    j.set("lease_attempts", s.lease_attempts);
    j.set("lease_token", static_cast<std::int64_t>(s.lease_token));
    j.set("worker", s.worker);
    j.set("lease_deadline_ms", static_cast<std::int64_t>(s.lease_deadline_ms));
    j.set("result_hash", s.result_hash);
    Json events = Json::array();
    for (const std::string& line : s.events) events.push_back(line);
    j.set("events", std::move(events));
    if (s.has_record) j.set("record", batch_job_record_json(s.record));
    jobs.push_back(std::move(j));
  }
  doc.set("jobs", std::move(jobs));
  return doc;
}

JournalSnapshot coordinator_journal_from_json(const Json& doc,
                                              std::uint64_t fingerprint) {
  check_record_header(doc, journal_header(fingerprint), "orchestrator journal");
  JournalSnapshot state;
  state.next_token = static_cast<std::uint64_t>(doc.at("next_token").as_int());
  state.counters = counters_from_json(doc.at("counters"));
  for (const Json& j : doc.at("jobs").as_array()) {
    JobSnapshot s;
    s.pdb_id = j.at("pdb_id").as_string();
    s.state = job_state_from_name(j.at("state").as_string());
    s.lease_attempts = static_cast<int>(j.at("lease_attempts").as_int());
    s.lease_token = static_cast<std::uint64_t>(j.at("lease_token").as_int());
    s.worker = j.at("worker").as_string();
    s.lease_deadline_ms =
        static_cast<std::uint64_t>(j.at("lease_deadline_ms").as_int());
    s.result_hash = j.at("result_hash").as_string();
    for (const Json& line : j.at("events").as_array()) {
      s.events.push_back(line.as_string());
    }
    if (j.contains("record")) {
      s.record = batch_job_record_from_json(j.at("record"));
      s.has_record = true;
    }
    state.jobs.push_back(std::move(s));
  }
  return state;
}

// --- Coordinator ------------------------------------------------------------

Coordinator::Coordinator(std::vector<const DatasetEntry*> entries,
                         CoordinatorOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : &steady_clock()) {
  QDB_REQUIRE(options_.lease_ttl_ms > 0, "lease_ttl_ms must be positive");
  QDB_REQUIRE(options_.max_lease_attempts >= 1,
              "max_lease_attempts must be >= 1, got "
                  << options_.max_lease_attempts);
  fingerprint_ = batch_options_fingerprint(options_.batch);

  // No other thread can see this object yet, but taking the lock lets the
  // construction path share the QDB_REQUIRES(mu_) helpers (load_journal)
  // without a thread-safety-analysis escape hatch.
  const MutexLock lock(mu_);
  jobs_.reserve(entries.size());
  for (const DatasetEntry* e : entries) {
    QDB_REQUIRE(e != nullptr, "null entry handed to coordinator");
    JobSnapshot s;
    s.pdb_id = e->pdb_id;
    s.record.pdb_id = e->pdb_id;  // identity prefilled; cleared on load
    s.record.group = e->group();
    s.record.qubits = e->qubits;
    s.has_record = false;
    const auto inserted = by_id_.emplace(e->pdb_id, jobs_.size());
    QDB_REQUIRE(inserted.second, "duplicate entry '" << e->pdb_id << "'");
    jobs_.push_back(std::move(s));
  }

  const std::optional<Json> journal =
      options_.journal_path.empty()
          ? std::nullopt
          : read_record(options_.journal_path, journal_header(fingerprint_));
  if (journal) {
    load_journal(*journal);
  } else {
    for (std::size_t i = 0; i < jobs_.size(); ++i) queue_.push_back(i);
  }
}

void Coordinator::load_journal(const Json& doc) {
  JournalSnapshot state = coordinator_journal_from_json(doc, fingerprint_);
  if (state.jobs.size() != jobs_.size()) {
    throw Error("orchestrator journal covers " +
                std::to_string(state.jobs.size()) + " jobs but the batch has " +
                std::to_string(jobs_.size()));
  }
  std::size_t recovered = 0, requeued_failed = 0;
  for (JobSnapshot& s : state.jobs) {
    const auto it = by_id_.find(s.pdb_id);
    if (it == by_id_.end()) {
      throw Error("orchestrator journal names unknown job '" + s.pdb_id + "'");
    }
    JobSnapshot& job = jobs_[it->second];
    const std::string keep_group_id = job.record.pdb_id;
    const Group keep_group = job.record.group;
    const int keep_qubits = job.record.qubits;
    job = std::move(s);
    if (!job.has_record) {
      job.record.pdb_id = keep_group_id;
      job.record.group = keep_group;
      job.record.qubits = keep_qubits;
    }
    // Every lease token died with the previous coordinator process: leased
    // jobs go back to the queue keeping their attempt counts (bounded
    // attempts survive restarts), failed jobs get a fresh budget — the
    // outage may have cleared, the same doctrine as batch checkpoint resume.
    if (job.state == JobState::Leased) {
      job.state = JobState::Pending;
      job.events.push_back("recovered: lease voided by coordinator restart");
      ++recovered;
    } else if (job.state == JobState::Failed) {
      job.state = JobState::Pending;
      job.lease_attempts = 0;
      job.has_record = false;
      job.events.push_back("recovered: failed job re-queued by coordinator restart");
      ++requeued_failed;
    }
  }
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].state == JobState::Pending) queue_.push_back(i);
  }
  counters_ = state.counters;
  next_token_ = state.next_token;
  obs::log_info("orchestrate.resume")
      .kv("journal", options_.journal_path)
      .kv("jobs", jobs_.size())
      .kv("pending", queue_.size())
      .kv("recovered_leases", recovered)
      .kv("requeued_failed", requeued_failed);
}

void Coordinator::journal_locked() {
  if (options_.journal_path.empty()) return;
  JournalSnapshot state;
  state.jobs = jobs_;
  state.counters = counters_;
  state.next_token = next_token_;
  const Json doc = coordinator_journal_json(state, fingerprint_);
  try {
    write_file_atomic(options_.journal_path, doc.dump());
  } catch (const std::exception& ex) {
    // A failed journal write must never take the control plane down; the
    // next state transition retries it.  Counted so /jobs/status shows it.
    ++counters_.journal_failures;
    obs::counter("orchestrate.journal_failures").add();
    obs::log_warn("orchestrate.journal_failed").kv("error", ex.what());
  }
}

void Coordinator::sweep_expired_locked(std::uint64_t now_ms) {
  // Linear sweep: fine at dataset scale; a deadline heap takes over when
  // job counts grow by orders of magnitude.
  bool changed = false;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    JobSnapshot& job = jobs_[i];
    if (job.state != JobState::Leased || job.lease_deadline_ms > now_ms) continue;
    ++counters_.lease_expiries;
    obs::counter("orchestrate.lease_expiries").add();
    job.events.push_back("lease " + std::to_string(job.lease_token) +
                         " expired (worker " + job.worker + ", attempt " +
                         std::to_string(job.lease_attempts) + ")");
    obs::log_warn("orchestrate.lease_expired")
        .kv("job", job.pdb_id)
        .kv("worker", job.worker)
        .kv("attempt", job.lease_attempts);
    if (job.lease_attempts >= options_.max_lease_attempts) {
      // Poisonous job: stop reassigning, synthesize a terminal Failed record
      // so the final report still covers every entry.
      job.state = JobState::Failed;
      job.record.status = JobStatus::Failed;
      job.record.attempts = job.lease_attempts;
      job.record.failure_log = job.events;
      job.record.device_time_s = 0.0;
      job.has_record = true;
      ++counters_.failed_terminal;
      obs::counter("orchestrate.failed_terminal").add();
    } else {
      job.state = JobState::Pending;
      queue_.push_back(i);
    }
    changed = true;
  }
  if (changed) journal_locked();
}

LeaseGrant Coordinator::grant_locked(const std::string& worker_id,
                                     std::uint64_t now_ms) {
  LeaseGrant grant;
  grant.lease_ttl_ms = options_.lease_ttl_ms;
  grant.options_fingerprint = fingerprint_;

  while (!queue_.empty() && jobs_[queue_.front()].state != JobState::Pending) {
    queue_.pop_front();  // index went Done/Failed while queued (stale complete)
  }
  if (queue_.empty()) {
    bool live = false;
    std::uint64_t nearest = options_.lease_ttl_ms;
    for (const JobSnapshot& job : jobs_) {
      if (job.state == JobState::Leased) {
        live = true;
        nearest = std::min(nearest, job.lease_deadline_ms > now_ms
                                        ? job.lease_deadline_ms - now_ms
                                        : std::uint64_t{0});
      } else if (job.state == JobState::Pending) {
        live = true;  // raced into the queue? treat as busy-wait
      }
    }
    if (!live) {
      grant.state = LeaseGrant::State::Drained;
      return grant;
    }
    grant.state = LeaseGrant::State::Wait;
    grant.retry_after_ms = std::clamp<std::uint64_t>(nearest, 10, 1000);
    return grant;
  }

  const std::size_t idx = queue_.front();
  queue_.pop_front();
  JobSnapshot& job = jobs_[idx];
  job.state = JobState::Leased;
  ++job.lease_attempts;
  job.lease_token = next_token_++;
  job.worker = worker_id;
  job.lease_deadline_ms = now_ms + options_.lease_ttl_ms;
  job.events.push_back("leased to " + worker_id + " (attempt " +
                       std::to_string(job.lease_attempts) + ", token " +
                       std::to_string(job.lease_token) + ")");
  ++counters_.leases_granted;
  obs::counter("orchestrate.leases_granted").add();
  if (job.lease_attempts > 1) {
    ++counters_.reassignments;
    obs::counter("orchestrate.reassignments").add();
  }

  grant.state = LeaseGrant::State::Granted;
  grant.pdb_id = job.pdb_id;
  grant.lease_token = job.lease_token;
  grant.attempt = job.lease_attempts;
  grant.deadline_ms = job.lease_deadline_ms;
  return grant;
}

LeaseGrant Coordinator::lease(const std::string& worker_id) {
  // The lease span is the cross-process anchor (ISSUE 10): its context
  // rides back to the worker inside the grant, so every remote job span
  // parents here.  Opened before the lock so its id derivation sits on the
  // caller's context (the serving request span, typically).
  obs::Span span("orchestrate.lease");
  const MutexLock lock(mu_);
  const std::uint64_t now = clock_->now_ms();
  sweep_expired_locked(now);
  LeaseGrant grant = grant_locked(worker_id, now);
  if (grant.state == LeaseGrant::State::Granted) {
    span.set_attr("pdb_id", grant.pdb_id);
    span.set_attr("worker", worker_id);
    const obs::TraceContext ctx = span.context();
    if (ctx.valid() && ctx.span_id != 0) {
      grant.traceparent = obs::format_traceparent(ctx);
    }
    journal_locked();
  }
  return grant;
}

bool Coordinator::has_job(const std::string& pdb_id) const {
  const MutexLock lock(mu_);
  return by_id_.count(pdb_id) != 0;
}

HeartbeatResult Coordinator::heartbeat(const std::string& pdb_id,
                                       std::uint64_t token) {
  const MutexLock lock(mu_);
  HeartbeatResult result;
  const auto it = by_id_.find(pdb_id);
  if (it == by_id_.end()) {
    result.reason = "unknown job '" + pdb_id + "'";
  } else {
    JobSnapshot& job = jobs_[it->second];
    if (job.state != JobState::Leased) {
      result.reason = "job is " + std::string(job_state_name(job.state)) +
                      ", not leased";
    } else if (job.lease_token != token) {
      result.reason = "stale lease token " + std::to_string(token) +
                      " (live token " + std::to_string(job.lease_token) + ")";
    } else {
      // Deadline extension is deliberately NOT journaled: a restart voids
      // every lease anyway, so durability would buy nothing and the
      // heartbeat path stays write-free.
      job.lease_deadline_ms = clock_->now_ms() + options_.lease_ttl_ms;
      result.ok = true;
      result.deadline_ms = job.lease_deadline_ms;
      ++counters_.heartbeats;
      obs::counter("orchestrate.heartbeats").add();
    }
  }
  if (!result.ok) {
    ++counters_.heartbeats_rejected;
    obs::counter("orchestrate.heartbeats_rejected").add();
  }
  return result;
}

CompleteResult Coordinator::complete(const std::string& pdb_id,
                                     std::uint64_t token,
                                     const BatchJobRecord& record) {
  const MutexLock lock(mu_);
  const auto it = by_id_.find(pdb_id);
  if (it == by_id_.end()) {
    throw Error("complete: unknown job '" + pdb_id + "'");
  }
  if (record.pdb_id != pdb_id) {
    throw Error("complete: record is for '" + record.pdb_id +
                "', endpoint names '" + pdb_id + "'");
  }
  JobSnapshot& job = jobs_[it->second];
  CompleteResult result;
  result.stale_lease = !(job.state == JobState::Leased && job.lease_token == token);

  if (job.state == JobState::Done) {
    // First writer already won.  By construction the retry carries a
    // byte-identical record, so discarding it loses nothing; counting it
    // proves the idempotency path ran.
    result.duplicate = true;
    result.result_hash = job.result_hash;
    ++counters_.duplicate_completions;
    obs::counter("orchestrate.duplicate_completions").add();
    return result;
  }

  // Accept even on a lapsed or superseded lease (including a job already
  // swept to Failed): deterministic re-execution makes the record correct
  // regardless of which attempt delivered it.
  if (result.stale_lease) {
    ++counters_.stale_completions;
    obs::counter("orchestrate.stale_completions").add();
    job.events.push_back("completion with stale token " + std::to_string(token) +
                         " accepted");
  }
  const std::string dump = batch_job_record_json(record).dump();
  // Blob write under the coordinator mutex: atomic-rename IO, bounded and
  // rare (once per job), and it keeps journal/state/store transitions in one
  // critical section.
  result.result_hash = options_.results != nullptr
                           ? options_.results->put_blob(dump)
                           : store::content_hash(dump).hex();
  job.state = JobState::Done;
  job.record = record;
  job.has_record = true;
  job.result_hash = result.result_hash;
  job.events.push_back("completed by " + job.worker + " (token " +
                       std::to_string(token) + ", result " + result.result_hash +
                       ")");
  result.accepted = true;
  ++counters_.completions;
  obs::counter("orchestrate.completions").add();
  journal_locked();
  return result;
}

bool Coordinator::drained() const {
  const MutexLock lock(mu_);
  for (const JobSnapshot& job : jobs_) {
    if (job.state == JobState::Pending || job.state == JobState::Leased) {
      return false;
    }
  }
  return true;
}

Json Coordinator::status_json() const {
  const MutexLock lock(mu_);
  int pending = 0, leased = 0, done = 0, failed = 0;
  Json detail = Json::array();
  for (const JobSnapshot& job : jobs_) {
    switch (job.state) {
      case JobState::Pending: ++pending; break;
      case JobState::Leased: ++leased; break;
      case JobState::Done: ++done; break;
      case JobState::Failed: ++failed; break;
    }
    Json j = Json::object();
    j.set("pdb_id", job.pdb_id);
    j.set("state", job_state_name(job.state));
    j.set("lease_attempts", job.lease_attempts);
    j.set("worker", job.worker);
    j.set("result_hash", job.result_hash);
    detail.push_back(std::move(j));
  }
  Json body = Json::object();
  body.set("options_fingerprint", static_cast<std::int64_t>(fingerprint_));
  body.set("drained", pending == 0 && leased == 0);
  Json states = Json::object();
  states.set("pending", pending);
  states.set("leased", leased);
  states.set("done", done);
  states.set("failed", failed);
  body.set("states", std::move(states));
  body.set("counters", counters_json(counters_));
  body.set("jobs", std::move(detail));
  return body;
}

CoordinatorCounters Coordinator::counters() const {
  const MutexLock lock(mu_);
  return counters_;
}

std::vector<JobSnapshot> Coordinator::jobs() const {
  const MutexLock lock(mu_);
  return jobs_;
}

BatchReport Coordinator::report() const {
  const MutexLock lock(mu_);
  BatchReport report;
  report.jobs.reserve(jobs_.size());
  for (const JobSnapshot& job : jobs_) {
    QDB_REQUIRE(job.state == JobState::Done || job.state == JobState::Failed,
                "report() before drained: job " << job.pdb_id << " is "
                                                << job_state_name(job.state));
    QDB_ASSERT(job.has_record, "terminal job " << job.pdb_id << " lacks a record");
    report.jobs.push_back(job.record);
  }
  finalize_batch_schedule(report, options_.batch);
  return report;
}

}  // namespace qdb::orchestrate
