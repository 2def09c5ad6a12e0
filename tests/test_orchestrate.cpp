// Tests for the distributed job orchestration layer (ISSUE 7): the lease
// state machine on a ManualClock (grants, heartbeat extension, expiry
// reassignment, bounded attempts, first-writer-wins completion), the
// journal round-trip and kill+resume doctrine, the HTTP job API matrix,
// and the headline chaos gate — a multi-worker batch with 10% injected
// worker deaths must converge to a report byte-identical to the serial
// executor's, with exact lease/completion accounting.
#include <gtest/gtest.h>
#include <unistd.h>  // getpid for per-process scratch directories

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/json.h"
#include "data/batch.h"
#include "data/checkpoint.h"
#include "data/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "orchestrate/api.h"
#include "orchestrate/coordinator.h"
#include "orchestrate/worker.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/store.h"

namespace qdb::orchestrate {
namespace {

namespace fs = std::filesystem;

/// Every test starts and ends with a clean fault injector.
struct InjectorGuard {
  InjectorGuard() { reset(); }
  ~InjectorGuard() { reset(); }
  static void reset() {
    FaultInjector::instance().clear();
    FaultInjector::instance().set_seed(0);
  }
};

std::string scratch_dir(const std::string& tag) {
  const auto dir = fs::temp_directory_path() /
                   ("qdb_orchestrate_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Accounting mode: fast (no simulation) yet fully exercises the record
/// pipeline — exactly what the chaos gate needs to run 55 jobs in seconds.
BatchOptions account_options() {
  BatchOptions opt;
  opt.run_vqe = false;
  opt.threads = 1;
  return opt;
}

std::vector<const DatasetEntry*> first_s_entries(std::size_t count) {
  std::vector<const DatasetEntry*> subset;
  for (const DatasetEntry* e : entries_in_group(Group::S)) {
    subset.push_back(e);
    if (subset.size() == count) break;
  }
  return subset;
}

std::vector<const DatasetEntry*> all_entries() {
  std::vector<const DatasetEntry*> entries;
  for (const DatasetEntry& e : qdockbank_entries()) entries.push_back(&e);
  return entries;
}

/// The canonical byte-identity check: both reports serialized through the
/// checkpoint writer (exact-double bits included) must be equal strings.
void expect_reports_byte_identical(const BatchReport& a, const BatchReport& b,
                                   const BatchOptions& opt) {
  const std::uint64_t fp = batch_options_fingerprint(opt);
  EXPECT_EQ(batch_checkpoint_json(a, fp).dump(), batch_checkpoint_json(b, fp).dump());
}

// --- lease state machine on a manual clock ----------------------------------

TEST(Coordinator, LeaseLifecycleGrantHeartbeatComplete) {
  InjectorGuard guard;
  ManualClock clock(1000);
  CoordinatorOptions copt;
  copt.batch = account_options();
  copt.lease_ttl_ms = 500;
  copt.clock = &clock;
  const auto entries = first_s_entries(2);
  Coordinator coord(entries, copt);

  // Grants come in entry order, with monotonic process-unique tokens.
  const LeaseGrant g1 = coord.lease("w1");
  ASSERT_EQ(g1.state, LeaseGrant::State::Granted);
  EXPECT_EQ(g1.pdb_id, entries[0]->pdb_id);
  EXPECT_EQ(g1.attempt, 1);
  EXPECT_EQ(g1.deadline_ms, 1500u);
  EXPECT_EQ(g1.options_fingerprint, coord.options_fingerprint());

  const LeaseGrant g2 = coord.lease("w2");
  ASSERT_EQ(g2.state, LeaseGrant::State::Granted);
  EXPECT_EQ(g2.pdb_id, entries[1]->pdb_id);
  EXPECT_GT(g2.lease_token, g1.lease_token);

  // Heartbeats extend the deadline from "now", not from the old deadline.
  clock.advance(400);
  const HeartbeatResult hb = coord.heartbeat(g1.pdb_id, g1.lease_token);
  ASSERT_TRUE(hb.ok);
  EXPECT_EQ(hb.deadline_ms, 1900u);
  ASSERT_TRUE(coord.heartbeat(g2.pdb_id, g2.lease_token).ok);

  // Kept-alive leases survive sweeps past their original deadlines.
  clock.advance(200);  // now 1600 > original 1500
  const LeaseGrant wait = coord.lease("w3");
  EXPECT_EQ(wait.state, LeaseGrant::State::Wait);
  EXPECT_GE(wait.retry_after_ms, 10u);
  EXPECT_LE(wait.retry_after_ms, 1000u);

  const BatchJobRecord r1 = run_batch_job(*entries[0], copt.batch);
  const CompleteResult c1 = coord.complete(g1.pdb_id, g1.lease_token, r1);
  EXPECT_TRUE(c1.accepted);
  EXPECT_FALSE(c1.duplicate);
  EXPECT_FALSE(c1.stale_lease);
  EXPECT_FALSE(c1.result_hash.empty());
  EXPECT_FALSE(coord.drained());

  const BatchJobRecord r2 = run_batch_job(*entries[1], copt.batch);
  EXPECT_TRUE(coord.complete(g2.pdb_id, g2.lease_token, r2).accepted);
  EXPECT_TRUE(coord.drained());
  EXPECT_EQ(coord.lease("w3").state, LeaseGrant::State::Drained);

  const CoordinatorCounters c = coord.counters();
  EXPECT_EQ(c.leases_granted, 2u);
  EXPECT_EQ(c.heartbeats, 2u);
  EXPECT_EQ(c.completions, 2u);
  EXPECT_EQ(c.lease_expiries, 0u);

  // The drained coordinator's report is byte-identical to the serial run.
  const BatchReport serial = run_batch(entries, copt.batch);
  expect_reports_byte_identical(coord.report(), serial, copt.batch);
}

TEST(Coordinator, ExpiryReassignsThenBoundedAttemptsFailTerminal) {
  InjectorGuard guard;
  ManualClock clock;
  CoordinatorOptions copt;
  copt.batch = account_options();
  copt.lease_ttl_ms = 100;
  copt.max_lease_attempts = 2;
  copt.clock = &clock;
  const auto entries = first_s_entries(1);
  Coordinator coord(entries, copt);

  const LeaseGrant g1 = coord.lease("w1");
  ASSERT_EQ(g1.state, LeaseGrant::State::Granted);

  // Worker dies; the lease lapses and the next lease() sweeps + reassigns.
  clock.advance(101);
  const LeaseGrant g2 = coord.lease("w2");
  ASSERT_EQ(g2.state, LeaseGrant::State::Granted);
  EXPECT_EQ(g2.pdb_id, g1.pdb_id);
  EXPECT_EQ(g2.attempt, 2);
  EXPECT_GT(g2.lease_token, g1.lease_token);
  EXPECT_EQ(coord.counters().lease_expiries, 1u);
  EXPECT_EQ(coord.counters().reassignments, 1u);

  // Second death exhausts the budget: terminal Failed, synthesized record.
  clock.advance(101);
  EXPECT_EQ(coord.lease("w3").state, LeaseGrant::State::Drained);
  EXPECT_TRUE(coord.drained());
  const CoordinatorCounters c = coord.counters();
  EXPECT_EQ(c.lease_expiries, 2u);
  EXPECT_EQ(c.failed_terminal, 1u);
  EXPECT_EQ(c.completions, 0u);

  const std::vector<JobSnapshot> jobs = coord.jobs();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].state, JobState::Failed);
  EXPECT_EQ(jobs[0].lease_attempts, 2);

  const BatchReport report = coord.report();
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].status, JobStatus::Failed);
  EXPECT_EQ(report.jobs[0].pdb_id, entries[0]->pdb_id);
  EXPECT_EQ(report.jobs[0].attempts, 2);
  EXPECT_EQ(report.jobs[0].device_time_s, 0.0);
  // The synthesized failure log carries the full lease history.
  ASSERT_GE(report.jobs[0].failure_log.size(), 4u);  // 2 leases + 2 expiries

  // Heartbeats against a terminal job are rejected.
  EXPECT_FALSE(coord.heartbeat(g1.pdb_id, g2.lease_token).ok);
}

TEST(Coordinator, HeartbeatRejectsUnknownStaleAndUnleased) {
  InjectorGuard guard;
  ManualClock clock;
  CoordinatorOptions copt;
  copt.batch = account_options();
  copt.lease_ttl_ms = 100;
  copt.clock = &clock;
  const auto entries = first_s_entries(1);
  Coordinator coord(entries, copt);

  EXPECT_FALSE(coord.heartbeat("zzzz", 1).ok);
  EXPECT_FALSE(coord.heartbeat(entries[0]->pdb_id, 1).ok);  // pending, not leased

  const LeaseGrant g1 = coord.lease("w1");
  EXPECT_FALSE(coord.heartbeat(g1.pdb_id, g1.lease_token + 7).ok);

  // After expiry + reassignment the old token no longer extends anything.
  clock.advance(101);
  const LeaseGrant g2 = coord.lease("w2");
  ASSERT_EQ(g2.state, LeaseGrant::State::Granted);
  EXPECT_FALSE(coord.heartbeat(g1.pdb_id, g1.lease_token).ok);
  EXPECT_TRUE(coord.heartbeat(g2.pdb_id, g2.lease_token).ok);

  const CoordinatorCounters c = coord.counters();
  EXPECT_EQ(c.heartbeats, 1u);
  EXPECT_EQ(c.heartbeats_rejected, 4u);
}

TEST(Coordinator, CompletionIsFirstWriterWinsAndStaleTolerant) {
  InjectorGuard guard;
  ManualClock clock;
  CoordinatorOptions copt;
  copt.batch = account_options();
  copt.lease_ttl_ms = 100;
  copt.clock = &clock;
  const auto entries = first_s_entries(1);
  Coordinator coord(entries, copt);
  const BatchJobRecord record = run_batch_job(*entries[0], copt.batch);

  EXPECT_THROW(coord.complete("zzzz", 1, record), Error);
  {
    BatchJobRecord wrong = record;
    wrong.pdb_id = "nope";
    EXPECT_THROW(coord.complete(entries[0]->pdb_id, 1, wrong), Error);
  }

  // The first attempt's worker stalls; the lease expires and a replacement
  // finishes first.  The stale original then delivers: accepted and counted
  // as stale=duplicate, never recounted as a completion.
  const LeaseGrant g1 = coord.lease("w1");
  clock.advance(101);
  const LeaseGrant g2 = coord.lease("w2");
  ASSERT_EQ(g2.state, LeaseGrant::State::Granted);

  // Replacement wins with a *stale-tolerant* twist first: deliver with the
  // DEAD first token — deterministic re-execution makes the bytes right, so
  // the coordinator accepts it (counted stale) rather than wasting the work.
  const CompleteResult first = coord.complete(g1.pdb_id, g1.lease_token, record);
  EXPECT_TRUE(first.accepted);
  EXPECT_TRUE(first.stale_lease);
  EXPECT_FALSE(first.duplicate);

  // Every later delivery — live token or not — is a duplicate carrying the
  // first writer's hash.
  const CompleteResult dup = coord.complete(g2.pdb_id, g2.lease_token, record);
  EXPECT_TRUE(dup.duplicate);
  EXPECT_FALSE(dup.accepted);
  EXPECT_EQ(dup.result_hash, first.result_hash);

  const CoordinatorCounters c = coord.counters();
  EXPECT_EQ(c.completions, 1u);
  EXPECT_EQ(c.stale_completions, 1u);
  EXPECT_EQ(c.duplicate_completions, 1u);
  EXPECT_TRUE(coord.drained());
}

// --- journal (satellite: round-trip + resume doctrine) -----------------------

TEST(Journal, RoundTripsEveryFieldIncludingAttemptsAndFailureLogs) {
  InjectorGuard guard;
  const auto entries = first_s_entries(3);
  const BatchOptions opt = account_options();
  const std::uint64_t fp = batch_options_fingerprint(opt);

  JournalSnapshot state;
  state.next_token = 42;
  state.counters.leases_granted = 7;
  state.counters.reassignments = 2;
  state.counters.heartbeats = 13;
  state.counters.heartbeats_rejected = 1;
  state.counters.lease_expiries = 3;
  state.counters.completions = 1;
  state.counters.duplicate_completions = 4;
  state.counters.stale_completions = 5;
  state.counters.failed_terminal = 1;
  state.counters.journal_failures = 6;

  JobSnapshot done;
  done.pdb_id = entries[0]->pdb_id;
  done.state = JobState::Done;
  done.lease_attempts = 2;
  done.lease_token = 9;
  done.worker = "w1";
  done.lease_deadline_ms = 123456;
  done.events = {"leased to w1", "completed by w1"};
  done.record = run_batch_job(*entries[0], opt);
  done.has_record = true;
  done.result_hash = "abc123";

  JobSnapshot failed;
  failed.pdb_id = entries[1]->pdb_id;
  failed.state = JobState::Failed;
  failed.lease_attempts = 8;
  failed.worker = "w2";
  failed.events = {"leased to w2", "lease 3 expired (worker w2, attempt 8)"};
  failed.record.pdb_id = entries[1]->pdb_id;
  failed.record.status = JobStatus::Failed;
  failed.record.attempts = 8;
  failed.record.failure_log = failed.events;
  failed.has_record = true;

  JobSnapshot leased;
  leased.pdb_id = entries[2]->pdb_id;
  leased.state = JobState::Leased;
  leased.lease_attempts = 1;
  leased.lease_token = 41;
  leased.worker = "w3";
  leased.lease_deadline_ms = 999;

  state.jobs = {done, failed, leased};

  const Json doc = coordinator_journal_json(state, fp);
  const JournalSnapshot back = coordinator_journal_from_json(doc, fp);

  EXPECT_EQ(back.next_token, 42u);
  EXPECT_EQ(back.counters.leases_granted, 7u);
  EXPECT_EQ(back.counters.reassignments, 2u);
  EXPECT_EQ(back.counters.heartbeats, 13u);
  EXPECT_EQ(back.counters.heartbeats_rejected, 1u);
  EXPECT_EQ(back.counters.lease_expiries, 3u);
  EXPECT_EQ(back.counters.completions, 1u);
  EXPECT_EQ(back.counters.duplicate_completions, 4u);
  EXPECT_EQ(back.counters.stale_completions, 5u);
  EXPECT_EQ(back.counters.failed_terminal, 1u);
  EXPECT_EQ(back.counters.journal_failures, 6u);

  ASSERT_EQ(back.jobs.size(), state.jobs.size());
  for (std::size_t i = 0; i < state.jobs.size(); ++i) {
    SCOPED_TRACE(state.jobs[i].pdb_id);
    const JobSnapshot& a = state.jobs[i];
    const JobSnapshot& b = back.jobs[i];
    EXPECT_EQ(a.pdb_id, b.pdb_id);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.lease_attempts, b.lease_attempts);
    EXPECT_EQ(a.lease_token, b.lease_token);
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_EQ(a.lease_deadline_ms, b.lease_deadline_ms);
    EXPECT_EQ(a.result_hash, b.result_hash);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.has_record, b.has_record);
    if (a.has_record) {
      // Record equality through the exact-double serializer: bit identity.
      EXPECT_EQ(batch_job_record_json(a.record).dump(),
                batch_job_record_json(b.record).dump());
      EXPECT_EQ(a.record.attempts, b.record.attempts);
      EXPECT_EQ(a.record.failure_log, b.record.failure_log);
    }
  }

  // Re-serialization is byte-stable.
  EXPECT_EQ(coordinator_journal_json(back, fp).dump(), doc.dump());

  // Fingerprint and format mismatches refuse loudly.
  EXPECT_THROW(coordinator_journal_from_json(doc, fp + 1), Error);
  EXPECT_THROW(coordinator_journal_from_json(doc, fp + 1), IoError);
  Json bad = Json::object();
  bad.set("format", "something-else");
  EXPECT_THROW(coordinator_journal_from_json(bad, fp), IoError);

  // A version-1 journal (%.10g text plus "_bits" twins in its records) is
  // refused rather than resumed from its rounded values.
  Json v1 = Json::parse(R"({"format": "qdockbank-orchestrator-journal",
    "version": 1, "next_token": 1, "counters": {}, "jobs": []})");
  v1.set("options_fingerprint", static_cast<std::int64_t>(fp));
  EXPECT_THROW(coordinator_journal_from_json(v1, fp), IoError);
}

TEST(Journal, CoordinatorResumeVoidsLeasesRequeuesFailedKeepsDone) {
  InjectorGuard guard;
  const std::string dir = scratch_dir("journal_resume");
  const auto entries = first_s_entries(3);
  ManualClock clock;
  CoordinatorOptions copt;
  copt.batch = account_options();
  copt.lease_ttl_ms = 100;
  copt.max_lease_attempts = 2;
  copt.clock = &clock;
  copt.journal_path = dir + "/journal.json";

  std::uint64_t next_token_before = 0;
  std::string done_hash;
  {
    Coordinator coord(entries, copt);
    // Job 0: completed.  Job 1: leased (attempt 1).  Job 2: terminal Failed.
    const LeaseGrant g0 = coord.lease("w1");
    const LeaseGrant g1 = coord.lease("w2");
    const LeaseGrant g2 = coord.lease("w3");
    ASSERT_EQ(g2.state, LeaseGrant::State::Granted);
    done_hash =
        coord.complete(g0.pdb_id, g0.lease_token,
                       run_batch_job(*entries[0], copt.batch)).result_hash;
    clock.advance(101);                          // g1 and g2 lapse
    (void)coord.lease("w4");                     // sweep; re-grants job 1 or 2
    const LeaseGrant g4 = coord.lease("w4");     // re-grants the other
    ASSERT_EQ(g4.state, LeaseGrant::State::Granted);
    clock.advance(101);                          // both second leases lapse ->
    (void)coord.lease("w5");                     // attempts exhausted: Failed
    EXPECT_EQ(coord.counters().failed_terminal, 2u);
    next_token_before = g4.lease_token;
  }

  // Same options: the journal resumes.  Done survives with its record and
  // hash; Leased and Failed return to Pending (Failed with a fresh budget).
  Coordinator resumed(entries, copt);
  const std::vector<JobSnapshot> jobs = resumed.jobs();
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].state, JobState::Done);
  EXPECT_TRUE(jobs[0].has_record);
  EXPECT_EQ(jobs[0].result_hash, done_hash);
  for (std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(i);
    EXPECT_EQ(jobs[i].state, JobState::Pending);
    EXPECT_EQ(jobs[i].lease_attempts, 0);  // fresh budget after Failed
    EXPECT_FALSE(jobs[i].has_record);
    ASSERT_FALSE(jobs[i].events.empty());
    EXPECT_NE(jobs[i].events.back().find("recovered"), std::string::npos);
  }
  // Counters and the token sequence survive: no token is ever reissued.
  EXPECT_EQ(resumed.counters().failed_terminal, 2u);
  const LeaseGrant g = resumed.lease("w6");
  ASSERT_EQ(g.state, LeaseGrant::State::Granted);
  EXPECT_GT(g.lease_token, next_token_before);

  // Different batch options: the fingerprint check refuses to resume.
  CoordinatorOptions other = copt;
  other.batch.retry.max_attempts += 1;
  EXPECT_THROW(Coordinator(entries, other), Error);

  // A corrupt journal is an IoError, not a silent fresh start.
  write_file_atomic(copt.journal_path, "{not json");
  EXPECT_THROW(Coordinator(entries, copt), IoError);

  fs::remove_all(dir);
}

// --- HTTP job API matrix (socket-free via DatasetServer::handle) -------------

serve::HttpRequest make_request(const std::string& method,
                                const std::string& target) {
  serve::HttpRequest req;
  req.method = method;
  req.target = target;
  req.version = "HTTP/1.1";
  serve::split_target(target, &req.path, &req.query);
  return req;
}

TEST(JobApi, EndpointMatrixStatusesAndBodies) {
  InjectorGuard guard;
  const std::string dir = scratch_dir("api");
  store::Store store(dir + "/results");
  ManualClock clock;
  CoordinatorOptions copt;
  copt.batch = account_options();
  copt.clock = &clock;
  copt.results = &store;
  const auto entries = first_s_entries(2);
  Coordinator coord(entries, copt);
  serve::DatasetServer server(store, {});
  attach_job_api(server, coord);

  // Method and path validation.
  EXPECT_EQ(server.handle(make_request("POST", "/jobs/status"), "{}").status, 405);
  EXPECT_EQ(server.handle(make_request("GET", "/jobs/lease")).status, 405);
  EXPECT_EQ(server.handle(make_request("GET", "/jobs/status?x=1")).status, 400);
  EXPECT_EQ(server.handle(make_request("GET", "/jobs/nope")).status, 404);
  EXPECT_EQ(server.handle(make_request("POST", "/jobs/lease"), "{oops").status, 400);
  EXPECT_EQ(server.handle(make_request("POST", "/jobs/lease"), "{}").status, 400);
  EXPECT_EQ(server.handle(make_request("POST", "/jobs/lease"),
                          "{\"worker\":\"w1\",\"bogus\":1}").status, 400);

  // Lease grant over the wire.
  serve::HttpResponse resp = server.handle(make_request("POST", "/jobs/lease"),
                                           "{\"worker\": \"w1\"}");
  ASSERT_EQ(resp.status, 200);
  const LeaseGrant grant = lease_grant_from_json(Json::parse(resp.body));
  ASSERT_EQ(grant.state, LeaseGrant::State::Granted);
  EXPECT_EQ(grant.pdb_id, entries[0]->pdb_id);
  EXPECT_EQ(grant.options_fingerprint, coord.options_fingerprint());

  // Heartbeat: 200 on the live token, 409 + reason on a stale one.
  Json hb = Json::object();
  hb.set("worker", "w1");
  hb.set("lease_token", static_cast<std::int64_t>(grant.lease_token));
  resp = server.handle(make_request("POST", "/jobs/" + grant.pdb_id + "/heartbeat"),
                       hb.dump());
  EXPECT_EQ(resp.status, 200);
  EXPECT_TRUE(Json::parse(resp.body).at("ok").as_bool());
  hb.set("lease_token", static_cast<std::int64_t>(grant.lease_token + 5));
  resp = server.handle(make_request("POST", "/jobs/" + grant.pdb_id + "/heartbeat"),
                       hb.dump());
  EXPECT_EQ(resp.status, 409);
  EXPECT_FALSE(Json::parse(resp.body).at("ok").as_bool());

  // Completion: 404 for unknown jobs, 400 for a mismatched record, 200 with
  // the stored hash on success — and duplicate=true on the replay.
  const BatchJobRecord record = run_batch_job(*entries[0], copt.batch);
  Json complete = Json::object();
  complete.set("worker", "w1");
  complete.set("lease_token", static_cast<std::int64_t>(grant.lease_token));
  complete.set("record", batch_job_record_json(record));
  EXPECT_EQ(server.handle(make_request("POST", "/jobs/zzzz/complete"),
                          complete.dump()).status, 404);
  EXPECT_EQ(server.handle(make_request("POST",
                                       "/jobs/" + std::string(entries[1]->pdb_id) +
                                           "/complete"),
                          complete.dump()).status, 400);
  resp = server.handle(make_request("POST", "/jobs/" + grant.pdb_id + "/complete"),
                       complete.dump());
  ASSERT_EQ(resp.status, 200);
  const CompleteResult first = complete_result_from_json(Json::parse(resp.body));
  EXPECT_TRUE(first.accepted);
  // The accepted record is in the content-addressed store, byte-exact.
  ASSERT_TRUE(store.has_blob(first.result_hash));
  EXPECT_EQ(*store.read_blob(first.result_hash),
            batch_job_record_json(record).dump());
  resp = server.handle(make_request("POST", "/jobs/" + grant.pdb_id + "/complete"),
                       complete.dump());
  ASSERT_EQ(resp.status, 200);
  EXPECT_TRUE(complete_result_from_json(Json::parse(resp.body)).duplicate);

  // /jobs/status reflects it all.
  resp = server.handle(make_request("GET", "/jobs/status"));
  ASSERT_EQ(resp.status, 200);
  const Json status = Json::parse(resp.body);
  EXPECT_EQ(status.at("states").at("done").as_int(), 1);
  EXPECT_EQ(status.at("states").at("pending").as_int(), 1);
  EXPECT_EQ(status.at("counters").at("duplicate_completions").as_int(), 1);
  EXPECT_FALSE(status.at("drained").as_bool());

  fs::remove_all(dir);
}

TEST(JobApi, StoreWriteFaultOnCompleteIs500AndTheJobStaysLeased) {
  InjectorGuard guard;
  const std::string dir = scratch_dir("api_fault");
  store::Store store(dir + "/results");
  ManualClock clock;
  CoordinatorOptions copt;
  copt.batch = account_options();
  copt.clock = &clock;
  copt.results = &store;
  const auto entries = first_s_entries(1);
  Coordinator coord(entries, copt);
  serve::DatasetServer server(store, {});
  attach_job_api(server, coord);

  const LeaseGrant grant = coord.lease("w1");
  ASSERT_EQ(grant.state, LeaseGrant::State::Granted);
  Json complete = Json::object();
  complete.set("worker", "w1");
  complete.set("lease_token", static_cast<std::int64_t>(grant.lease_token));
  complete.set("record", batch_job_record_json(run_batch_job(*entries[0], copt.batch)));
  const serve::HttpRequest request =
      make_request("POST", "/jobs/" + grant.pdb_id + "/complete");

  // The store write fails: the server's fault, so 500, and nothing commits.
  FaultSiteConfig cfg;
  cfg.kind = FaultKind::Io;
  cfg.trigger_on_nth = 1;
  FaultInjector::instance().configure("store.ingest.io", cfg);
  {
    FaultScope scope("api-fault", 1);
    const serve::HttpResponse failed = server.handle(request, complete.dump());
    EXPECT_EQ(failed.status, 500);
    EXPECT_TRUE(Json::parse(failed.body).at("error").is_string());
  }
  EXPECT_EQ(coord.jobs()[0].state, JobState::Leased);

  // The retry commits.
  InjectorGuard::reset();
  const serve::HttpResponse retried = server.handle(request, complete.dump());
  ASSERT_EQ(retried.status, 200) << retried.body;
  EXPECT_TRUE(complete_result_from_json(Json::parse(retried.body)).accepted);
  EXPECT_EQ(coord.jobs()[0].state, JobState::Done);
  fs::remove_all(dir);
}

// --- live workers ------------------------------------------------------------

serve::ServeOptions ephemeral_options(int threads) {
  serve::ServeOptions opt;
  opt.port = 0;
  opt.threads = threads;
  return opt;
}

TEST(Worker, SingleWorkerMatchesSerialByteForByte) {
  InjectorGuard guard;
  const std::string dir = scratch_dir("single");
  store::Store store(dir + "/results");
  CoordinatorOptions copt;
  copt.batch = account_options();
  copt.results = &store;
  const auto entries = first_s_entries(5);
  Coordinator coord(entries, copt);
  serve::DatasetServer server(store, ephemeral_options(2));
  attach_job_api(server, coord);
  server.start();

  WorkerOptions wopt;
  wopt.port = server.port();
  wopt.worker_id = "solo";
  wopt.batch = copt.batch;
  const WorkerStats stats = run_worker(wopt);
  server.stop();

  EXPECT_FALSE(stats.aborted_io);
  EXPECT_EQ(stats.leases_received, 5);
  EXPECT_EQ(stats.jobs_executed, 5);
  EXPECT_EQ(stats.completions_accepted, 5);
  EXPECT_EQ(stats.crashes, 0);
  EXPECT_TRUE(coord.drained());

  const BatchReport serial = run_batch(entries, copt.batch);
  expect_reports_byte_identical(coord.report(), serial, copt.batch);

  // Every record is retrievable from the store by its reported hash.
  for (const JobSnapshot& job : coord.jobs()) {
    ASSERT_TRUE(store.has_blob(job.result_hash)) << job.pdb_id;
    EXPECT_EQ(*store.read_blob(job.result_hash),
              batch_job_record_json(job.record).dump());
  }
  fs::remove_all(dir);
}

// The tracing contract of ISSUE 10: every worker-side orchestrate.job span
// must parent to the coordinator-side orchestrate.lease span that granted it
// (the grant's traceparent is the propagation vehicle), sharing that lease's
// trace id.  Distinct leases root distinct traces (the server salts each
// synthesized root with its request sequence), so the match is per-job, not
// one global trace id.  The heartbeat pump's counters must also be
// registered even when no heartbeat fired during the short run.
TEST(Worker, JobSpansParentToCoordinatorLeaseSpans) {
  InjectorGuard guard;
  const std::string dir = scratch_dir("tracing");
  store::Store store(dir + "/results");
  CoordinatorOptions copt;
  copt.batch = account_options();
  copt.results = &store;
  const auto entries = first_s_entries(4);

  obs::TraceSession session;
  session.start();
  {
    Coordinator coord(entries, copt);
    serve::DatasetServer server(store, ephemeral_options(2));
    attach_job_api(server, coord);
    server.start();

    WorkerOptions wopt;
    wopt.port = server.port();
    wopt.worker_id = "traced";
    wopt.batch = copt.batch;
    const WorkerStats stats = run_worker(wopt);
    server.stop();

    EXPECT_EQ(stats.jobs_executed, 4);
    EXPECT_TRUE(coord.drained());
  }
  session.stop();

  // Lease span id -> the trace it roots.
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> leases;
  for (const obs::TraceEvent& ev : session.events()) {
    if (ev.name != "orchestrate.lease") continue;
    ASSERT_NE(ev.span_id, 0u);
    leases.emplace(ev.span_id, std::make_pair(ev.trace_hi, ev.trace_lo));
  }
  // One lease span per granted job plus the final empty-handed request that
  // tells the worker the queue is drained.
  EXPECT_GE(leases.size(), 4u);

  std::size_t jobs_seen = 0;
  for (const obs::TraceEvent& ev : session.events()) {
    if (ev.name != "orchestrate.job") continue;
    ++jobs_seen;
    ASSERT_NE(ev.span_id, 0u);
    const auto lease = leases.find(ev.parent_id);
    ASSERT_NE(lease, leases.end())
        << "job span " << obs::span_id_hex(ev.span_id)
        << " does not parent to any lease span";
    EXPECT_EQ(ev.trace_hi, lease->second.first);
    EXPECT_EQ(ev.trace_lo, lease->second.second);
  }
  EXPECT_EQ(jobs_seen, 4u);

  // run_worker registers the heartbeat counters eagerly, so the scrape
  // names are stable whether or not a heartbeat fired during the run.
  const Json registry = obs::MetricRegistry::global().to_json();
  const Json& counters = registry.at("counters");
  EXPECT_NO_THROW(counters.at("orchestrate.heartbeat.sent"));
  EXPECT_NO_THROW(counters.at("orchestrate.heartbeat.failed"));

  fs::remove_all(dir);
}

TEST(Worker, FingerprintMismatchRefusesToWork) {
  InjectorGuard guard;
  const std::string dir = scratch_dir("fingerprint");
  store::Store store(dir + "/results");
  CoordinatorOptions copt;
  copt.batch = account_options();
  const auto entries = first_s_entries(1);
  Coordinator coord(entries, copt);
  serve::DatasetServer server(store, ephemeral_options(1));
  attach_job_api(server, coord);
  server.start();

  WorkerOptions wopt;
  wopt.port = server.port();
  wopt.batch = copt.batch;
  wopt.batch.retry.max_attempts += 1;  // would not reproduce the serial run
  EXPECT_THROW(run_worker(wopt), Error);
  server.stop();
  EXPECT_FALSE(coord.drained());  // the job was NOT silently mis-executed
  fs::remove_all(dir);
}

TEST(Worker, UnreachableCoordinatorAbortsAfterBoundedRetries) {
  InjectorGuard guard;
  WorkerOptions wopt;
  wopt.port = 1;  // nothing listens here
  wopt.batch = account_options();
  wopt.max_request_attempts = 2;
  wopt.backoff_initial_ms = 1;
  wopt.backoff_max_ms = 2;
  const WorkerStats stats = run_worker(wopt);
  EXPECT_TRUE(stats.aborted_io);
  EXPECT_EQ(stats.leases_received, 0);
}

TEST(Worker, CompletionRetriesAfterCoordinatorStoreFault) {
  InjectorGuard guard;
  const std::string dir = scratch_dir("complete_500");
  store::Store store(dir + "/results");
  // Configured before the coordinator: the fault sites are part of the
  // batch fingerprint the worker must match.
  FaultSiteConfig cfg;
  cfg.kind = FaultKind::Io;
  cfg.trigger_on_nth = 1;
  FaultInjector::instance().configure("store.ingest.io", cfg);
  CoordinatorOptions copt;
  copt.batch = account_options();
  copt.results = &store;
  const auto entries = first_s_entries(1);
  Coordinator coord(entries, copt);
  serve::DatasetServer api(store, {});
  attach_job_api(api, coord);

  // The live server forwards /jobs to the job API and runs the first
  // completion inside an armed scope, so its store write fails: a 500.
  std::atomic<int> completions{0};
  serve::DatasetServer front(store, ephemeral_options(1));
  front.set_route("/jobs", [&](const serve::HttpRequest& request, const std::string& body) {
    if (request.path.ends_with("/complete") && completions.fetch_add(1) == 0) {
      FaultScope scope("front", 1);
      return api.handle(request, body);
    }
    return api.handle(request, body);
  });
  front.start();

  WorkerOptions wopt;
  wopt.port = front.port();
  wopt.worker_id = "w1";
  wopt.batch = copt.batch;
  wopt.heartbeats = false;
  wopt.backoff_initial_ms = 1;
  wopt.backoff_max_ms = 2;
  const WorkerStats stats = run_worker(wopt);
  front.stop();

  // The 500 is retried, not fatal: the second completion commits.
  EXPECT_EQ(FaultInjector::instance().fire_count("store.ingest.io"), 1u);
  EXPECT_EQ(completions.load(), 2);
  EXPECT_FALSE(stats.aborted_io);
  EXPECT_EQ(stats.completions_accepted, 1);
  EXPECT_EQ(stats.completions_abandoned, 0);
  EXPECT_TRUE(coord.drained());
  fs::remove_all(dir);
}

// --- the chaos gate ----------------------------------------------------------

/// Configure the ISSUE 7 worker-death model at `probability` per site call.
void configure_chaos(double probability) {
  FaultInjector::instance().set_seed(fault_seed_from_env(1));
  FaultSiteConfig transient;
  transient.probability = probability;
  transient.kind = FaultKind::Transient;
  FaultInjector::instance().configure("orchestrate.lease.drop", transient);
  FaultInjector::instance().configure("orchestrate.worker.crash", transient);
  FaultSiteConfig io;
  io.probability = probability;
  io.kind = FaultKind::Io;
  FaultInjector::instance().configure("orchestrate.complete.io", io);
}

WorkerOptions chaos_worker_options(std::uint16_t port, const std::string& id,
                                   const BatchOptions& batch) {
  WorkerOptions wopt;
  wopt.port = port;
  wopt.worker_id = id;
  wopt.batch = batch;
  wopt.heartbeats = false;  // accounting jobs finish far inside the TTL
  wopt.backoff_initial_ms = 1;
  wopt.backoff_max_ms = 8;
  return wopt;
}

TEST(Chaos, MultiWorkerBatchConvergesByteIdenticalUnderTenPercentKills) {
  // The acceptance gate: 55 jobs, 4 workers, every orchestrate fault site
  // firing at 10%, and the distributed batch must converge with exact
  // accounting and a report byte-identical to the serial executor's.
  InjectorGuard guard;
  configure_chaos(0.10);
  const std::string dir = scratch_dir("chaos");
  store::Store store(dir + "/results");

  const BatchOptions batch = account_options();
  // The injector config is part of the fingerprint, so the serial reference
  // runs under the SAME armed sites — which never fire on the serial path
  // (they live in worker.cpp), keeping the reference the plain batch run.
  const BatchReport serial = run_batch(all_entries(), batch);

  CoordinatorOptions copt;
  copt.batch = batch;
  copt.lease_ttl_ms = 200;  // real clock: dropped leases expire quickly
  copt.max_lease_attempts = 10;
  copt.results = &store;
  Coordinator coord(all_entries(), copt);
  serve::DatasetServer server(store, ephemeral_options(6));
  attach_job_api(server, coord);
  server.start();

  std::vector<WorkerStats> stats(4);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      std::string id = "w";
      id += std::to_string(w + 1);
      stats[static_cast<std::size_t>(w)] =
          run_worker(chaos_worker_options(server.port(), id, batch));
    });
  }
  for (std::thread& t : workers) t.join();

  ASSERT_TRUE(coord.drained());
  const CoordinatorCounters c = coord.counters();

  // Exact accounting: every job completed exactly once, nothing lost to the
  // injected deaths, nothing double-counted.
  EXPECT_EQ(c.completions, 55u);
  EXPECT_EQ(c.failed_terminal, 0u);
  int received = 0, dropped = 0, crashed = 0, duplicate_acks = 0;
  for (const WorkerStats& s : stats) {
    EXPECT_FALSE(s.aborted_io);
    received += s.leases_received;
    dropped += s.leases_dropped;
    crashed += s.crashes;
    duplicate_acks += s.duplicate_acks;
  }
  EXPECT_EQ(c.leases_granted, static_cast<std::uint64_t>(received));
  // Every abandoned lease is accounted for: it either expired or its job was
  // finished by a stale completion while the abandoned lease dangled.  Every
  // expiry of a non-terminal job leads to a reassignment, except when a
  // stale completion finished the job while it sat re-queued.
  EXPECT_GE(c.lease_expiries + c.stale_completions,
            static_cast<std::uint64_t>(dropped + crashed));
  EXPECT_GE(c.lease_expiries, c.reassignments);
  EXPECT_LE(c.lease_expiries, c.reassignments + c.stale_completions);
  // The 10% rates actually exercised the machinery under this seed: lost
  // leases, worker deaths, or lost completion acks must all have happened.
  EXPECT_GT(dropped + crashed + duplicate_acks, 0);
  EXPECT_GE(c.duplicate_completions,
            static_cast<std::uint64_t>(duplicate_acks));

  // /jobs/status agrees with the in-process counters.
  {
    serve::HttpClient client("127.0.0.1", server.port());
    const Json status = Json::parse(client.get("/jobs/status").body);
    EXPECT_TRUE(status.at("drained").as_bool());
    EXPECT_EQ(status.at("states").at("done").as_int(), 55);
    EXPECT_EQ(status.at("counters").at("completions").as_int(), 55);
    EXPECT_EQ(status.at("counters").at("lease_expiries").as_int(),
              static_cast<std::int64_t>(c.lease_expiries));
    // The orchestrate.* registry counters surface on /metrics too.
    const Json metrics = Json::parse(client.get("/metrics").body);
    EXPECT_GE(metrics.at("registry").at("counters")
                  .at("orchestrate.leases_granted").as_int(),
              static_cast<std::int64_t>(c.leases_granted));
  }
  server.stop();

  // The headline: byte-identical to the serial run, and every stored blob
  // holds exactly the serialized record it is keyed by.
  expect_reports_byte_identical(coord.report(), serial, batch);
  for (const JobSnapshot& job : coord.jobs()) {
    ASSERT_TRUE(store.has_blob(job.result_hash)) << job.pdb_id;
    EXPECT_EQ(*store.read_blob(job.result_hash),
              batch_job_record_json(job.record).dump());
  }
  fs::remove_all(dir);
}

TEST(Chaos, CoordinatorKillAndResumeConvergesByteIdentical) {
  // Phase 1 runs the chaos batch and hard-stops the control plane partway;
  // phase 2 rebuilds the coordinator from its journal on a fresh port and
  // drains.  The final report must still be byte-identical to serial.
  InjectorGuard guard;
  configure_chaos(0.10);
  const std::string dir = scratch_dir("resume_chaos");
  store::Store store(dir + "/results");

  const BatchOptions batch = account_options();
  const auto entries = all_entries();
  const BatchReport serial = run_batch(entries, batch);

  CoordinatorOptions copt;
  copt.batch = batch;
  copt.lease_ttl_ms = 200;
  copt.max_lease_attempts = 10;
  copt.journal_path = dir + "/journal.json";
  copt.results = &store;

  {
    Coordinator coord(entries, copt);
    serve::DatasetServer server(store, ephemeral_options(4));
    attach_job_api(server, coord);
    server.start();
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
      workers.emplace_back([&, w] {
        (void)run_worker(chaos_worker_options(server.port(),
                                              "p1w" + std::to_string(w), batch));
      });
    }
    // Kill the control plane after a prefix of completions.
    while (coord.counters().completions < 10) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    server.stop();  // workers hit IoError and abort; leases die with them
    for (std::thread& t : workers) t.join();
    ASSERT_TRUE(fs::exists(copt.journal_path));
  }

  // Phase 2: resume from the journal; completed work is not repeated.
  Coordinator coord(entries, copt);
  EXPECT_GE(coord.counters().completions, 10u);
  serve::DatasetServer server(store, ephemeral_options(4));
  attach_job_api(server, coord);
  server.start();
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      (void)run_worker(chaos_worker_options(server.port(),
                                            "p2w" + std::to_string(w), batch));
    });
  }
  for (std::thread& t : workers) t.join();
  server.stop();

  ASSERT_TRUE(coord.drained());
  EXPECT_EQ(coord.counters().completions, 55u);
  expect_reports_byte_identical(coord.report(), serial, batch);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace qdb::orchestrate
