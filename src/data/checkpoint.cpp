#include "data/checkpoint.h"

#include "common/check.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/strings.h"

namespace qdb {

namespace {

// Version 1 files held %.10g-rounded doubles; they are refused, never resumed.
constexpr int kCheckpointVersion = 2;

RecordHeader checkpoint_header(std::uint64_t fingerprint) {
  return {"qdockbank-batch-checkpoint", kCheckpointVersion, fingerprint};
}

Group group_from_name(std::string_view name) {
  if (name == "S") return Group::S;
  if (name == "M") return Group::M;
  if (name == "L") return Group::L;
  throw IoError("checkpoint: unknown group '" + std::string(name) + "'");
}

}  // namespace

// --- fingerprint ------------------------------------------------------------

std::uint64_t batch_options_fingerprint(const BatchOptions& o) {
  std::string d = "batch-checkpoint-v" + std::to_string(kCheckpointVersion) + ";";
  fingerprint_field(d, "run_vqe", static_cast<long long>(o.run_vqe));
  fingerprint_field(d, "usd_per_second", o.usd_per_second);
  // VqeOptions fields that shape per-job results (seed and run_id are
  // derived per pdb_id inside run_batch, so they are not part of the
  // fingerprint).
  fingerprint_field(d, "reps", static_cast<long long>(o.vqe.reps));
  fingerprint_field(d, "max_evaluations", static_cast<long long>(o.vqe.max_evaluations));
  fingerprint_field(d, "shots_per_eval", static_cast<long long>(o.vqe.shots_per_eval));
  fingerprint_field(d, "final_shots", static_cast<long long>(o.vqe.final_shots));
  fingerprint_field(d, "cvar_alpha", o.vqe.cvar_alpha);
  fingerprint_field(d, "noise_trajectories", static_cast<long long>(o.vqe.noise_trajectories));
  fingerprint_field(d, "max_bond", static_cast<long long>(o.vqe.max_bond));
  fingerprint_field(d, "refine", static_cast<long long>(o.vqe.refine_bitstring));
  fingerprint_field(d, "mitigation", static_cast<long long>(o.vqe.readout_mitigation));
  fingerprint_field(d, "engine", static_cast<long long>(o.vqe.engine));
  fingerprint_field(d, "max_truncation_weight", o.vqe.max_truncation_weight);
  // Stage-1 precision changes which bitstrings are sampled, so results too.
  fingerprint_field(d, "stage1_precision", static_cast<long long>(o.vqe.stage1_precision));
  // Retry policy: backoff lands in the report, so it is result-shaping.
  fingerprint_field(d, "max_attempts", static_cast<long long>(o.retry.max_attempts));
  fingerprint_field(d, "backoff_initial_s", o.retry.backoff_initial_s);
  fingerprint_field(d, "backoff_multiplier", o.retry.backoff_multiplier);
  fingerprint_field(d, "backoff_max_s", o.retry.backoff_max_s);
  fingerprint_field(d, "engine_fallback", static_cast<long long>(o.retry.engine_fallback));
  fingerprint_field(d, "budget_reduction", static_cast<long long>(o.retry.budget_reduction));
  // Fault-injector state: a resumed golden replay must see the same faults.
  FaultInjector& fi = FaultInjector::instance();
  fingerprint_field(d, "fault_seed", static_cast<long long>(fi.seed()));
  d += "fault_sites=";
  for (const std::string& site : fi.configured_sites()) {
    d += site;
    d += ',';
  }
  d += ';';
  return fnv1a(d);
}

Json batch_job_record_json(const BatchJobRecord& j) {
  Json job = Json::object();
  job.set("pdb_id", j.pdb_id);
  job.set("group", group_name(j.group));
  job.set("qubits", j.qubits);
  job.set("evaluations", j.evaluations);
  job.set("shots", static_cast<std::int64_t>(j.shots));
  job.set("device_time_s", j.device_time_s);
  job.set("lowest_energy", j.lowest_energy);
  job.set("status", job_status_name(j.status));
  job.set("attempts", j.attempts);
  job.set("retry_wait_s", j.retry_wait_s);
  job.set("engine_used", j.engine_used);
  job.set("degradation", j.degradation);
  Json log = Json::array();
  for (const std::string& line : j.failure_log) log.push_back(line);
  job.set("failure_log", std::move(log));
  return job;
}

BatchJobRecord batch_job_record_from_json(const Json& job) {
  BatchJobRecord j;
  j.pdb_id = job.at("pdb_id").as_string();
  j.group = group_from_name(job.at("group").as_string());
  j.qubits = static_cast<int>(job.at("qubits").as_int());
  j.evaluations = static_cast<int>(job.at("evaluations").as_int());
  j.shots = static_cast<std::size_t>(job.at("shots").as_int());
  j.device_time_s = job.at("device_time_s").as_double();
  j.lowest_energy = job.at("lowest_energy").as_double();
  j.status = job_status_from_name(job.at("status").as_string());
  j.attempts = static_cast<int>(job.at("attempts").as_int());
  j.retry_wait_s = job.at("retry_wait_s").as_double();
  j.engine_used = job.at("engine_used").as_string();
  j.degradation = job.at("degradation").as_string();
  for (const Json& line : job.at("failure_log").as_array()) {
    j.failure_log.push_back(line.as_string());
  }
  return j;
}

Json batch_checkpoint_json(const BatchReport& report, std::uint64_t fingerprint) {
  Json doc = record_header(checkpoint_header(fingerprint));
  doc.set("completed_jobs", static_cast<std::int64_t>(report.jobs.size()));

  Json jobs = Json::array();
  for (const BatchJobRecord& j : report.jobs) {
    jobs.push_back(batch_job_record_json(j));
  }
  doc.set("jobs", std::move(jobs));

  // Human-readable summary; recomputed on load, never parsed back.
  Json summary = Json::object();
  summary.set("total_device_time_s", report.total_device_time_s);
  summary.set("total_retry_wait_s", report.total_retry_wait_s);
  summary.set("total_cost_usd", report.total_cost_usd);
  doc.set("summary", std::move(summary));
  return doc;
}

BatchReport batch_checkpoint_from_json(const Json& doc, std::uint64_t fingerprint) {
  check_record_header(doc, checkpoint_header(fingerprint), "batch checkpoint");
  BatchReport report;
  for (const Json& job : doc.at("jobs").as_array()) {
    report.jobs.push_back(batch_job_record_from_json(job));
  }
  return report;
}

void save_batch_checkpoint(const std::string& path, const BatchReport& report,
                           std::uint64_t fingerprint) {
  fault_site("batch.checkpoint");  // deterministic fault injection (ISSUE 2)
  const Json doc = batch_checkpoint_json(report, fingerprint);
  const std::string dump = doc.dump();
  // Checkpoint round-trip audit (ISSUE 3): bit-exact resume (PR 2's golden
  // replay) requires that parsing what we are about to write and
  // re-serialising it reproduces the per-job records byte for byte — this
  // exercises the shortest round-trip double encoding end to end before the
  // file hits disk.  The comparison covers the "jobs" array only: the summary
  // block is documented as recomputed on load, never parsed back.
  if constexpr (check::audit_enabled()) {
    const BatchReport reread =
        batch_checkpoint_from_json(Json::parse(dump), fingerprint);
    const std::string jobs_dump = doc.at("jobs").dump();
    const std::string jobs_redump =
        batch_checkpoint_json(reread, fingerprint).at("jobs").dump();
    QDB_AUDIT(jobs_redump == jobs_dump,
              "checkpoint job records do not round-trip byte-identically: "
                  << jobs_dump.size() << " vs " << jobs_redump.size()
                  << " bytes, jobs=" << report.jobs.size());
  }
  write_file_atomic(path, dump);
}

bool load_batch_checkpoint(const std::string& path, std::uint64_t fingerprint,
                           BatchReport* out) {
  const std::optional<Json> doc = read_record(path, checkpoint_header(fingerprint));
  if (!doc) return false;
  *out = batch_checkpoint_from_json(*doc, fingerprint);
  return true;
}

}  // namespace qdb
