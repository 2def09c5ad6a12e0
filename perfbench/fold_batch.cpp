// fold_batch: the Tables 1-3 / `qdb batch all` path.  run_batch over all 55
// entries with threads = nproc, a checkpoint file on and no docking; each
// pass submits the entries in a fresh seeded order.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>

#include "common/rng.h"
#include "data/batch.h"
#include "data/checkpoint.h"
#include "obs/trace.h"
#include "util.h"

namespace perfbench {

namespace {

constexpr int kSetupReps = 9;
constexpr int kCheckpointSaves = 9;

std::vector<const qdb::DatasetEntry*> all_entries() {
  std::vector<const qdb::DatasetEntry*> out;
  for (const qdb::DatasetEntry& e : qdb::qdockbank_entries()) out.push_back(&e);
  return out;
}

qdb::BatchOptions fold_options(int threads, const std::string& checkpoint) {
  qdb::BatchOptions o;
  o.vqe = qdb::PipelineOptions::bench_profile().vqe;
  o.threads = threads;
  o.checkpoint_path = checkpoint;
  return o;
}

std::string bits_hex(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(u));
  return buf;
}

/// Every per-job field except queue_start_s, which depends on the
/// submission order by design (the device queue is modelled in that order).
std::uint64_t job_digest(const qdb::BatchJobRecord& j) {
  std::string s = j.pdb_id + "|" + qdb::group_name(j.group) + "|" + std::to_string(j.qubits) +
                  "|" + std::to_string(j.evaluations) + "|" + std::to_string(j.shots) + "|" +
                  bits_hex(j.device_time_s) + "|" + bits_hex(j.lowest_energy) + "|" +
                  qdb::job_status_name(j.status) + "|" + std::to_string(j.attempts) + "|" +
                  bits_hex(j.retry_wait_s) + "|" + j.engine_used + "|" + j.degradation;
  for (const std::string& line : j.failure_log) s += "|" + line;
  return qdb::fnv1a(s);
}

using Digests = std::map<std::string, std::uint64_t>;  // by pdb_id

/// The report digest: per-job digests sorted by pdb_id, folded into one.
std::uint64_t report_digest(const Digests& d) {
  std::uint64_t h = qdb::fnv1a("fold_batch");
  for (const auto& [id, digest] : d) h = qdb::seed_combine(h, digest);
  return h;
}

/// Counts the jobs as operations; a job that is not Ok, or whose record
/// differs from `expected` (when given), is a failure.
Digests check_report(const qdb::BatchReport& report, const Digests* expected, Outcome& out) {
  Digests d;
  for (const qdb::BatchJobRecord& j : report.jobs) {
    ++out.attempted;
    const std::uint64_t digest = job_digest(j);
    d[j.pdb_id] = digest;
    if (j.status != qdb::JobStatus::Ok) {
      out.mismatch("job " + j.pdb_id + " finished " + qdb::job_status_name(j.status));
    } else if (expected != nullptr && expected->at(j.pdb_id) != digest) {
      out.mismatch("job " + j.pdb_id + " record differs between passes");
    }
  }
  if (report.jobs.size() != qdb::qdockbank_entries().size()) {
    out.mismatch("batch report has " + std::to_string(report.jobs.size()) + " jobs");
  }
  return d;
}

qdb::BatchReport run_pass(const std::vector<const qdb::DatasetEntry*>& order,
                          const qdb::BatchOptions& options, double* seconds) {
  std::filesystem::remove(options.checkpoint_path);  // no resume between passes
  qdb::BatchReport report;
  *seconds = timed([&] { report = qdb::run_batch(order, options); });
  return report;
}

struct Window {
  std::int64_t jobs = 0;
  double seconds = 0.0;
  std::vector<double> pass_ms, steal;

  /// Clean pass walls, at least the 3 least stolen.
  std::vector<double> clean_pass_ms() const { return clean(pass_ms, steal, 3); }

  /// Jobs per second of the median clean pass: robust to a pass slowed by
  /// load from outside the benchmark.
  double rate() const {
    return static_cast<double>(qdb::qdockbank_entries().size()) /
           (median(clean_pass_ms()) / 1e3);
  }
};

Window measure(const Args& args, const qdb::BatchOptions& options, const Digests& expected,
               std::uint64_t* pass_counter, double seconds, bool traced, Outcome& out) {
  std::unique_ptr<qdb::obs::TraceSession> session;
  if (traced) {
    session = std::make_unique<qdb::obs::TraceSession>();
    session->start();
  }
  const std::vector<const qdb::DatasetEntry*> entries = all_entries();
  Window w;
  do {
    std::vector<const qdb::DatasetEntry*> order;
    const std::uint64_t pass_seed =
        qdb::seed_combine(qdb::seed_combine(args.seed, qdb::fnv1a("fold_batch")), ++*pass_counter);
    for (std::size_t i : permutation(entries.size(), pass_seed)) order.push_back(entries[i]);
    double dt = 0.0;
    const CpuTicks before = cpu_ticks();
    const qdb::BatchReport report = run_pass(order, options, &dt);
    w.steal.push_back(steal_share(before, cpu_ticks()));
    check_report(report, &expected, out);
    w.jobs += static_cast<std::int64_t>(report.jobs.size());
    w.seconds += dt;
    w.pass_ms.push_back(dt * 1e3);
  } while (w.seconds < seconds);
  if (session) session->stop();
  return w;
}

}  // namespace

void run_fold_batch(const Args& args, Outcome& out) {
  const std::vector<const qdb::DatasetEntry*> entries = all_entries();
  const double setup_s =
      median_setup_s("fold_batch", kSetupReps, [&] { return cold_tuner_warmup(entries); });

  const qdb::BatchOptions options =
      fold_options(hardware_threads(), args.workdir + "/fold_checkpoint.json");

  // Warm-up pass in table order: its records are what every seeded pass
  // must reproduce.
  double warm_s = 0.0;
  const Digests expected = check_report(run_pass(entries, options, &warm_s), nullptr, out);
  std::printf("fold_batch: report digest %016llx (%zu jobs, threads=%d)\n",
              static_cast<unsigned long long>(report_digest(expected)), expected.size(),
              options.threads);

  std::uint64_t passes = 0;
  if (args.trace) {
    // Untraced and traced passes alternate, so drift in machine load
    // affects both sides alike.
    std::vector<double> plain, traced;
    const double start = now_s();
    do {
      plain.push_back(measure(args, options, expected, &passes, 0.0, false, out).rate());
      traced.push_back(measure(args, options, expected, &passes, 0.0, true, out).rate());
    } while (now_s() - start < args.seconds);
    out.metrics.set("trace.overhead_pct", overhead_pct(median(plain), median(traced)), "%");
    return;
  }
  const Window w = measure(args, options, expected, &passes, args.seconds, false, out);
  const std::vector<double> pass_ms = w.clean_pass_ms();
  std::printf("fold_batch: %lld jobs in %zu passes, %.3f s; %zu clean passes\n",
              static_cast<long long>(w.jobs), w.pass_ms.size(), w.seconds, pass_ms.size());
  print_samples("fold_batch", "pass_ms", w.pass_ms, w.steal);
  out.metrics.set("setup_s", setup_s, "s");
  out.metrics.set("ops_per_s", w.rate(), "1/s");
  out.metrics.set("op_ms.p50", median(pass_ms), "ms");
  out.metrics.set("op_ms.tail", quantile(pass_ms, 0.9), "ms");
}

void sweep_fold_layers(const Args& args, Outcome& out) {
  const std::vector<const qdb::DatasetEntry*> entries = all_entries();
  cold_tuner_warmup(entries);

  // Plain single-threaded pass: one run_batch_job call per entry.
  const qdb::BatchOptions serial = fold_options(1, "");
  double dense_s = 0.0, mps_s = 0.0;
  int mps_jobs = 0;
  qdb::BatchReport serial_report;
  for (const qdb::DatasetEntry* e : entries) {
    qdb::BatchJobRecord job;
    const double dt = timed([&] { job = qdb::run_batch_job(*e, serial); });
    if (job.engine_used == "mps") {
      mps_s += dt;
      ++mps_jobs;
    } else {
      dense_s += dt;
    }
    serial_report.jobs.push_back(std::move(job));
  }
  const Digests serial_digests = check_report(serial_report, nullptr, out);

  // The same jobs through the parallel executor; records must match.
  const qdb::BatchOptions parallel =
      fold_options(hardware_threads(), args.workdir + "/fold_sweep_checkpoint.json");
  double wall_s = 0.0;
  const qdb::BatchReport report = run_pass(entries, parallel, &wall_s);
  check_report(report, &serial_digests, out);

  const std::uint64_t fingerprint = qdb::batch_options_fingerprint(parallel);
  std::vector<double> save_ms;
  for (int k = 0; k < kCheckpointSaves; ++k) {
    save_ms.push_back(1e3 * timed([&] {
      qdb::save_batch_checkpoint(parallel.checkpoint_path, report, fingerprint);
    }));
  }

  out.metrics.set("layer.vqe.job_ms.dense", dense_s * 1e3, "ms");
  out.metrics.set("layer.vqe.job_ms.mps", mps_s * 1e3, "ms");
  out.metrics.set("layer.data.batch.efficiency",
                  (dense_s + mps_s) / (parallel.threads * wall_s), "ratio");
  out.metrics.set("layer.data.checkpoint.save_ms", median(save_ms), "ms");
  out.metrics.set("count.batch.mps_jobs", mps_jobs, "count");
}

}  // namespace perfbench
