// qdb — command-line interface over the QDockBank library.
//
//   qdb list [S|M|L]               list dataset entries
//   qdb info <pdb_id>              published Tables 1-3 metadata of an entry
//   qdb predict <pdb_id> [method] [out.pdb]
//                                  predict a fragment and optionally save it
//   qdb evaluate <pdb_id> [method] RMSD + docking metrics for one entry
//   qdb reference <pdb_id> <out.pdb>
//                                  write the reference structure
//   qdb batch [S|M|L|all] [flags]  resilient batch execution (ISSUE 2):
//       --account               use published exec times (no simulation)
//       --threads N             host-side parallelism (0 = all)
//       --evals N --shots N --final-shots N
//                               per-job VQE budgets (simulation mode)
//       --resume <path>         checkpoint file: written crash-consistently
//                               after every job; if it already exists,
//                               completed pdb_ids are skipped
//       --checkpoint <path>     alias for --resume
//       --max-attempts K        retries per degradation rung (default 3)
//       --fail-fast             abort after the batch drains if any job failed
//       --fault-rate P          inject transient faults with probability P
//                               per evaluation (deterministic per seed)
//       --fault-seed S          fault stream seed (default: $QDB_FAULT_SEED)
//       --limit N               run only the first N selected entries
//                               (CI-sized subsets for --trace runs)
//       --stage1-precision f32|f64
//                               dense-engine precision for stage-1 shot
//                               scoring (default f32; f64 reproduces the
//                               pre-fusion scalar engine bit-for-bit)
//   qdb ingest <dataset_root> <store_root>
//                                  ingest a §4.2 dataset tree into the
//                                  content-addressed store (dedup + index)
//   qdb screen <pdb_id> [flags]    two-stage virtual screening (ISSUE 9):
//       --library-seed S        library geometry seed (default 1)
//       --library-size N        ligands to screen (default 256)
//       --top-k K               ranked hits to publish (default 16)
//       --stage1-keep F         fraction surviving the grid filter (0.125)
//       --poses N --rescored M  stage-1 poses per ligand / exact rescores
//       --threads N             executor width (never changes the output)
//       --checkpoint <path>     chunk-level crash-consistent checkpoint
//       --resume                resume from --checkpoint if it exists
//       --stop-after N          stop after N chunks this run (exit 5;
//                               rerun with --resume to finish)
//       --out <path>            write the ranked-hit report JSON
//       --store <root>          ingest the receptor grid + report into a
//                               store and print their blob hashes
//       --server <host:port>    run remotely via POST /screen instead
//       --ingest                (remote) server ingests the report too
//   qdb serve <store_root> [flags] serve the store over HTTP/1.1 (ISSUE 4):
//       --port P                bind port (default 8080; 0 = ephemeral)
//       --host H                bind address (default 127.0.0.1)
//       --threads N             worker pool size (default 4)
//       --cache N               LRU blob-cache capacity in entries
//                               (default 256; 0 disables)
//       runs until SIGINT/SIGTERM, then shuts down cleanly and prints a
//       final metrics summary
//   qdb coordinate <results_store> [S|M|L|all] [batch flags] [flags]
//                                  lease coordinator for distributed batches
//                                  (ISSUE 7): serves POST /jobs/lease,
//                                  /jobs/{id}/heartbeat, /jobs/{id}/complete
//                                  and GET /jobs/status until the batch
//                                  drains or SIGINT/SIGTERM:
//       --port/--host/--serve-threads   as serve
//       --lease-ttl-ms T        lease deadline per grant/heartbeat (30000)
//       --max-lease-attempts K  grants per job before terminal Failed (8)
//       --journal <path>        crash-consistent state; re-run to resume
//       --report <path>         write the final report as a batch
//                               checkpoint (byte-comparable to --resume)
//   qdb work <host> <port> [batch flags] [flags]
//                                  worker loop against a coordinator; batch
//                                  flags must match (fingerprint-checked):
//       --worker-id W --poll-ms N --heartbeat-ms N --no-heartbeats
//       --max-request-attempts N
//   qdb get <host> <port> <target>
//                                  one GET via the in-tree client; prints
//                                  the body (CI smoke checks)
//
// Global flags (any subcommand):
//   --trace <out.json>             record a TraceSession for the whole
//                                  command; writes Chrome trace_event JSON
//                                  (open in chrome://tracing or Perfetto)
//                                  with the span summary, the metric
//                                  registry, and a Prometheus rendering
//                                  embedded as extra top-level keys, and
//                                  prints the per-span summary table
//
// Methods: qdock (default), af2, af3, annealing, greedy, exact.
// Structured logging follows QDB_LOG=off|warn|info|debug (default warn).
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "common/error.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/qdockbank.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "data/batch.h"
#include "data/checkpoint.h"
#include "orchestrate/api.h"
#include "orchestrate/coordinator.h"
#include "orchestrate/worker.h"
#include "screen/funnel.h"
#include "serve/client.h"
#include "serve/screen_api.h"
#include "serve/server.h"
#include "serve/trace_api.h"
#include "store/store.h"
#include "structure/pdb.h"

namespace {

using namespace qdb;

/// Host threads a --threads flag may ask for (0 = every core).
constexpr int kMaxThreads = 1024;

/// Parse the whole of `text` as a decimal number in [lo, hi] for `what` (a
/// flag or positional name).  Trailing text, garbage, a sign on an unsigned
/// value and out-of-range values are refused with an Error rather than read
/// as a prefix, as 0 or wrapped.
template <typename T>
T parse_number(const char* what, std::string_view text,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  // Written as !(in range) so that a parsed NaN is refused too.
  if (ec != std::errc() || stop != end || !(value >= lo && value <= hi)) {
    const auto bound = [](T v) {
      if constexpr (std::is_floating_point_v<T>) return format("%g", v);
      else return std::to_string(v);
    };
    throw Error(std::string(what) + " needs a number in [" + bound(lo) + ", " +
                bound(hi) + "] (got '" + std::string(text) + "')");
  }
  return value;
}

Method parse_method(const std::string& s) {
  if (s == "qdock") return Method::QDock;
  if (s == "af2") return Method::AF2;
  if (s == "af3") return Method::AF3;
  if (s == "annealing") return Method::Annealing;
  if (s == "greedy") return Method::Greedy;
  if (s == "exact") return Method::Exact;
  throw Error("unknown method '" + s + "' (try qdock|af2|af3|annealing|greedy|exact)");
}

int cmd_list(int argc, char** argv) {
  std::printf("%-6s %-5s %-16s %-9s %s\n", "PDB", "Group", "Sequence", "Residues", "Qubits");
  for (const DatasetEntry& e : qdockbank_entries()) {
    if (argc > 2 && std::string(argv[2]) != group_name(e.group())) continue;
    std::printf("%-6s %-5s %-16s %4d-%-4d %d\n", e.pdb_id, group_name(e.group()),
                e.sequence, e.residue_start, e.residue_end, e.qubits);
  }
  return 0;
}

int cmd_info(const char* id) {
  const DatasetEntry& e = entry_by_id(id);
  std::printf("%s (%s group)\n", e.pdb_id, group_name(e.group()));
  std::printf("  sequence        %s (%d residues, %d-%d)\n", e.sequence, e.length(),
              e.residue_start, e.residue_end);
  std::printf("  logical qubits  %d (compact turn encoding)\n", encoding_qubits(e.length()));
  std::printf("published (paper Tables 1-3):\n");
  std::printf("  allocated qubits %d, transpiled depth %d\n", e.qubits, e.depth);
  std::printf("  energy min/max   %.3f / %.3f (range %.3f)\n", e.lowest_energy,
              e.highest_energy, e.energy_range);
  std::printf("  execution time   %.2f s\n", e.exec_time_s);
  return 0;
}

int cmd_predict(int argc, char** argv) {
  const DatasetEntry& e = entry_by_id(argv[2]);
  const Method m = argc > 3 ? parse_method(argv[3]) : Method::QDock;
  Pipeline pipeline;
  const Prediction p = pipeline.predict(e, m);
  std::printf("%s prediction of %s: %zu atoms, conformation energy %.3f\n",
              method_name(m), e.pdb_id, p.structure.num_atoms(), p.conformation_energy);
  if (p.vqe) {
    std::printf("VQE: %d evaluations, lowest estimate %.3f, modeled exec %.0f s\n",
                p.vqe->evaluations, p.vqe->lowest_energy, p.vqe->modeled_exec_time_s);
  }
  if (argc > 4) {
    write_pdb_file(p.structure, argv[4]);
    std::printf("wrote %s\n", argv[4]);
  }
  return 0;
}

int cmd_evaluate(int argc, char** argv) {
  const DatasetEntry& e = entry_by_id(argv[2]);
  const Method m = argc > 3 ? parse_method(argv[3]) : Method::QDock;
  Pipeline pipeline;
  const Evaluation ev = pipeline.evaluate(e, m);
  std::printf("%s on %s:\n", method_name(m), e.pdb_id);
  std::printf("  Calpha RMSD vs reference  %.3f A\n", ev.rmsd);
  std::printf("  best docking affinity     %.3f kcal/mol\n", ev.affinity);
  std::printf("  mean of run-best          %.3f kcal/mol\n", ev.mean_affinity);
  std::printf("  pose RMSD l.b./u.b.       %.2f / %.2f A\n", ev.pose_rmsd_lb, ev.pose_rmsd_ub);
  return 0;
}

/// Batch configuration shared by `batch` (serial executor), `coordinate`
/// (lease coordinator), and `work` (distributed worker).  All three parse
/// the same flags with the same defaults: byte-identity across the serial
/// and distributed paths starts with identical BatchOptions, and the
/// coordinator/worker fingerprint handshake rejects any drift.
struct BatchCliConfig {
  BatchOptions opt;
  std::string group = "all";
  double fault_rate = 0.0;
  std::uint64_t fault_seed = fault_seed_from_env(1);
  long limit = -1;

  BatchCliConfig() {
    opt.run_vqe = true;
    opt.vqe.max_evaluations = 12;
    opt.vqe.shots_per_eval = 128;
    opt.vqe.final_shots = 1000;
  }
};

/// Consume argv[i] (advancing i past any value) if it is a shared batch
/// flag; return false to let the caller try its own flags.
bool parse_batch_flag(BatchCliConfig& b, int argc, char** argv, int& i) {
  const std::string arg = argv[i];
  auto next = [&](const char* flag) -> const char* {
    if (i + 1 >= argc) throw Error(std::string(flag) + " needs a value");
    return argv[++i];
  };
  if (arg == "--account") b.opt.run_vqe = false;
  else if (arg == "--threads") b.opt.threads =
      parse_number<int>("--threads", next("--threads"), 0, kMaxThreads);
  else if (arg == "--evals") b.opt.vqe.max_evaluations =
      parse_number<int>("--evals", next("--evals"), 1);
  else if (arg == "--shots") b.opt.vqe.shots_per_eval =
      parse_number<std::size_t>("--shots", next("--shots"), 1);
  else if (arg == "--final-shots") b.opt.vqe.final_shots =
      parse_number<std::size_t>("--final-shots", next("--final-shots"), 1);
  else if (arg == "--max-attempts") b.opt.retry.max_attempts =
      parse_number<int>("--max-attempts", next("--max-attempts"), 1);
  else if (arg == "--fail-fast") b.opt.fail_fast = true;
  else if (arg == "--limit") b.limit = parse_number<long>("--limit", next("--limit"), 0);
  else if (arg == "--stage1-precision") {
    const std::string prec = next("--stage1-precision");
    if (prec == "f32") b.opt.vqe.stage1_precision = Precision::f32;
    else if (prec == "f64") b.opt.vqe.stage1_precision = Precision::f64;
    else throw Error("--stage1-precision must be f32 or f64 (got '" + prec + "')");
  }
  else if (arg == "--fault-rate") b.fault_rate =
      parse_number<double>("--fault-rate", next("--fault-rate"), 0.0, 1.0);
  else if (arg == "--fault-seed") b.fault_seed =
      parse_number<std::uint64_t>("--fault-seed", next("--fault-seed"));
  else if (arg == "S" || arg == "M" || arg == "L" || arg == "all") b.group = arg;
  else return false;
  return true;
}

/// Arm the fault injector from the shared flags.  Both ends of a
/// distributed run must call this with identical flags — the injector
/// seed and site set are part of the options fingerprint.
void configure_fault_injection(const BatchCliConfig& b) {
  if (b.fault_rate <= 0.0) return;
  FaultInjector& fi = FaultInjector::instance();
  fi.set_seed(b.fault_seed);
  FaultSiteConfig cfg;
  cfg.probability = b.fault_rate;
  cfg.kind = FaultKind::Transient;
  if (b.opt.run_vqe) {
    fi.configure("vqe.stage1.evaluate", cfg);
    fi.configure("vqe.stage2.sample", cfg);
  } else {
    fi.configure("batch.account", cfg);
  }
}

std::vector<const DatasetEntry*> select_entries(const BatchCliConfig& b) {
  std::vector<const DatasetEntry*> entries;
  for (const DatasetEntry& e : qdockbank_entries()) {
    if (b.group == "all" || b.group == group_name(e.group())) entries.push_back(&e);
  }
  if (b.limit >= 0 && static_cast<std::size_t>(b.limit) < entries.size()) {
    entries.resize(static_cast<std::size_t>(b.limit));
  }
  return entries;
}

/// Print the per-job table + summary used by `batch` and `coordinate`.
void print_batch_report(const BatchReport& r) {
  std::printf("%-6s %-9s %-9s %-8s %-15s %12s %10s\n", "PDB", "Status", "Attempts",
              "Engine", "Degradation", "Device(s)", "Wait(s)");
  for (const BatchJobRecord& j : r.jobs) {
    std::printf("%-6s %-9s %-9d %-8s %-15s %12.1f %10.1f\n", j.pdb_id.c_str(),
                job_status_name(j.status), j.attempts,
                j.engine_used.empty() ? "-" : j.engine_used.c_str(),
                j.degradation.empty() ? "-" : j.degradation.c_str(), j.device_time_s,
                j.retry_wait_s);
    for (const std::string& line : j.failure_log) {
      std::printf("       | %s\n", line.c_str());
    }
  }
  std::printf("\n%zu jobs: %d ok, %d retried, %d degraded, %d failed "
              "(completion %.1f%%)\n",
              r.jobs.size(), r.count(JobStatus::Ok), r.count(JobStatus::Retried),
              r.count(JobStatus::Degraded), r.count(JobStatus::Failed),
              100.0 * r.completion_rate());
  std::printf("device time %.1f h, retry wait %.1f h, cost %.0f USD\n",
              r.total_device_hours(), r.total_retry_wait_s / 3600.0, r.total_cost_usd);
  for (const std::string& warn : r.checkpoint_warnings) {
    std::printf("warning: %s\n", warn.c_str());
  }
}

int cmd_batch(int argc, char** argv) {
  BatchCliConfig b;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) throw Error(std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (parse_batch_flag(b, argc, argv, i)) continue;
    if (arg == "--resume" || arg == "--checkpoint") b.opt.checkpoint_path = next("--resume");
    else throw Error("unknown batch flag '" + arg + "'");
  }

  configure_fault_injection(b);
  const BatchReport r = run_batch(select_entries(b), b.opt);
  print_batch_report(r);
  if (!b.opt.checkpoint_path.empty()) {
    std::printf("checkpoint: %s\n", b.opt.checkpoint_path.c_str());
  }
  return r.count(JobStatus::Failed) == 0 ? 0 : 3;
}

int cmd_reference(char** argv) {
  const DatasetEntry& e = entry_by_id(argv[2]);
  const Structure ref = reference_structure(e);
  write_pdb_file(ref, argv[3]);
  std::printf("wrote reference structure of %s (%zu atoms) to %s\n", e.pdb_id,
              ref.num_atoms(), argv[3]);
  return 0;
}

int cmd_ingest(char** argv) {
  store::Store s(argv[3]);
  const store::IngestStats st = s.ingest_dataset(argv[2]);
  const store::StoreStats total = s.stats();
  std::printf("ingested %zu entries (%zu artifacts) from %s\n", st.entries_seen,
              st.artifacts_seen, argv[2]);
  std::printf("  new blobs        %zu (%llu bytes)\n", st.blobs_written,
              static_cast<unsigned long long>(st.bytes_written));
  std::printf("  deduplicated     %zu\n", st.blobs_deduplicated);
  std::printf("store now: %zu entries, %zu blobs, %llu blob bytes "
              "(%llu logical)\n",
              total.entries, total.blobs,
              static_cast<unsigned long long>(total.blob_bytes),
              static_cast<unsigned long long>(total.logical_bytes));
  std::printf("index: %s\n", s.index_path().c_str());
  return 0;
}

/// `qdb screen <pdb_id> [flags]` — run the two-stage screening funnel
/// locally against the entry's reference pocket, or remotely via POST
/// /screen when --server is given.  Flags that shape results are identical
/// in both modes; identical requests produce byte-identical reports.
int cmd_screen(int argc, char** argv) {
  const std::string pdb_id = argv[2];
  screen::ScreenOptions opt;
  std::string out_path, store_root, server;
  bool remote_ingest = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) throw Error(std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (arg == "--library-seed") opt.library.seed =
        parse_number<std::uint64_t>("--library-seed", next("--library-seed"));
    else if (arg == "--library-size") opt.library.size =
        parse_number<std::uint64_t>("--library-size", next("--library-size"), 1);
    else if (arg == "--top-k") opt.top_k = parse_number<int>("--top-k", next("--top-k"), 1);
    else if (arg == "--stage1-keep") opt.stage1_keep =
        parse_number<double>("--stage1-keep", next("--stage1-keep"), 0.0, 1.0);
    else if (arg == "--poses") opt.poses_per_ligand =
        parse_number<int>("--poses", next("--poses"), 1);
    else if (arg == "--rescored") opt.poses_rescored =
        parse_number<int>("--rescored", next("--rescored"), 1);
    else if (arg == "--threads") opt.threads =
        parse_number<int>("--threads", next("--threads"), 0, kMaxThreads);
    else if (arg == "--checkpoint") opt.checkpoint_path = next("--checkpoint");
    else if (arg == "--resume") opt.resume = true;
    else if (arg == "--stop-after") opt.stop_after_chunks =
        parse_number<int>("--stop-after", next("--stop-after"), 0);
    else if (arg == "--chunk") opt.chunk_size =
        parse_number<std::uint64_t>("--chunk", next("--chunk"), 1);
    else if (arg == "--out") out_path = next("--out");
    else if (arg == "--store") store_root = next("--store");
    else if (arg == "--server") server = next("--server");
    else if (arg == "--ingest") remote_ingest = true;
    else throw Error("unknown screen flag '" + arg + "'");
  }

  if (!server.empty()) {
    const std::size_t colon = server.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= server.size()) {
      throw Error("--server needs host:port");
    }
    serve::HttpClient client(
        server.substr(0, colon),
        parse_number<std::uint16_t>("--server port",
                                    std::string_view(server).substr(colon + 1), 1));
    Json body = Json::object();
    body.set("pdb_id", pdb_id);
    body.set("library_seed", static_cast<std::int64_t>(opt.library.seed));
    body.set("library_size", static_cast<std::int64_t>(opt.library.size));
    body.set("top_k", opt.top_k);
    body.set("stage1_keep", opt.stage1_keep);
    body.set("poses_per_ligand", opt.poses_per_ligand);
    body.set("poses_rescored", opt.poses_rescored);
    if (remote_ingest) body.set("ingest", true);
    const serve::HttpClientResponse r = client.post("/screen", body.dump());
    if (!out_path.empty() && r.status < 400) {
      write_file_atomic(out_path, r.body);
      std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    }
    std::fputs(r.body.c_str(), stdout);
    if (!r.body.empty() && r.body.back() != '\n') std::printf("\n");
    return r.status < 400 ? 0 : 4;
  }

  const DatasetEntry& e = entry_by_id(pdb_id);
  const Structure receptor = reference_structure(e);
  const screen::PreparedReceptor prepared = screen::prepare_receptor(receptor, opt);
  const screen::ScreenReport report = screen::run_screen(prepared, pdb_id, opt);
  if (report.preempted) {
    std::printf("screen preempted after %llu/%llu chunks; checkpoint %s "
                "(rerun with --resume to finish)\n",
                static_cast<unsigned long long>(report.chunks_done),
                static_cast<unsigned long long>(report.chunks_total),
                opt.checkpoint_path.c_str());
    return 5;
  }

  const std::string report_bytes = screen::serialize_report(report);
  if (!out_path.empty()) {
    write_file_atomic(out_path, report_bytes);
    std::printf("report: %s\n", out_path.c_str());
  }
  if (!store_root.empty()) {
    store::Store s(store_root);
    std::printf("grid blob:   %s\n", s.put_blob(prepared.grid.serialize()).c_str());
    std::printf("report blob: %s\n", s.put_blob(report_bytes).c_str());
  }

  std::printf("screened %llu ligands against %s: %llu survived stage 1 "
              "(keep rate %.3f), top %zu hits\n",
              static_cast<unsigned long long>(report.ligands_screened),
              pdb_id.c_str(),
              static_cast<unsigned long long>(report.stage1_survivors),
              report.keep_rate(), report.hits.size());
  std::printf("%-4s %-28s %12s %12s %6s %5s\n", "Rank", "Ligand", "Stage1",
              "Affinity", "Atoms", "Tors");
  for (std::size_t i = 0; i < report.hits.size(); ++i) {
    const screen::ScreenHit& h = report.hits[i];
    std::printf("%-4zu %-28s %12.3f %12.3f %6d %5d\n", i + 1, h.id.c_str(),
                h.stage1_score, h.affinity, h.num_atoms, h.num_torsions);
  }
  return 0;
}

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

int cmd_serve(int argc, char** argv) {
  serve::ServeOptions opt;
  opt.port = 8080;
  std::size_t cache_capacity = 256;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) throw Error(std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (arg == "--port") opt.port = parse_number<std::uint16_t>("--port", next("--port"));
    else if (arg == "--host") opt.host = next("--host");
    else if (arg == "--threads") opt.threads =
        parse_number<int>("--threads", next("--threads"), 1, kMaxThreads);
    else if (arg == "--cache") cache_capacity =
        parse_number<std::size_t>("--cache", next("--cache"));
    else throw Error("unknown serve flag '" + arg + "'");
  }

  store::Store s(argv[2], cache_capacity);
  if (s.entries().empty()) {
    throw Error(std::string("store '") + argv[2] +
                "' has no index — run `qdb ingest` first");
  }
  serve::DatasetServer server(s, opt);
  serve::ScreenService screen_service(s);
  serve::attach_screen_api(server, screen_service);
  serve::attach_trace_api(server, s);
  server.start();
  std::printf("qdb: serving %zu entries on http://%s:%u (%d workers, "
              "cache %zu)\n",
              s.entries().size(), opt.host.c_str(), server.port(), opt.threads,
              cache_capacity);
  std::fflush(stdout);

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();

  // The request counts live in the process-wide registry; this process ran
  // one server, so they are this server's.
  const auto count = [](const char* name) {
    return static_cast<unsigned long long>(obs::counter(name).value());
  };
  std::printf("qdb: shut down cleanly after %llu requests "
              "(2xx %llu, 3xx %llu, 4xx %llu, 5xx %llu)\n",
              count("serve.requests"), count("serve.responses_2xx"),
              count("serve.responses_3xx"), count("serve.responses_4xx"),
              count("serve.responses_5xx"));
  std::printf("  blob cache: %zu hits, %zu misses (hit rate %.1f%%)\n",
              s.cache().hits(), s.cache().misses(), 100.0 * s.cache().hit_rate());
  return 0;
}

/// `qdb coordinate <results_store> [group] [batch flags] [flags]` — run the
/// lease coordinator (ISSUE 7): serve the job API until the batch drains or
/// SIGINT/SIGTERM.  With --journal the state survives a kill; re-running
/// the same command resumes.  Accepted results are ingested into
/// <results_store> as content-addressed blobs.
int cmd_coordinate(int argc, char** argv) {
  BatchCliConfig b;
  serve::ServeOptions serve_opt;
  serve_opt.port = 8080;
  orchestrate::CoordinatorOptions copt;
  std::string report_path;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) throw Error(std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (parse_batch_flag(b, argc, argv, i)) continue;
    if (arg == "--port") serve_opt.port =
        parse_number<std::uint16_t>("--port", next("--port"));
    else if (arg == "--host") serve_opt.host = next("--host");
    else if (arg == "--serve-threads") serve_opt.threads =
        parse_number<int>("--serve-threads", next("--serve-threads"), 1, kMaxThreads);
    else if (arg == "--lease-ttl-ms") copt.lease_ttl_ms =
        parse_number<std::uint64_t>("--lease-ttl-ms", next("--lease-ttl-ms"), 1);
    else if (arg == "--max-lease-attempts") copt.max_lease_attempts =
        parse_number<int>("--max-lease-attempts", next("--max-lease-attempts"), 1);
    else if (arg == "--journal") copt.journal_path = next("--journal");
    else if (arg == "--report") report_path = next("--report");
    else throw Error("unknown coordinate flag '" + arg + "'");
  }

  configure_fault_injection(b);
  copt.batch = b.opt;
  store::Store results(argv[2]);
  copt.results = &results;
  orchestrate::Coordinator coordinator(select_entries(b), copt);

  serve::DatasetServer server(results, serve_opt);
  orchestrate::attach_job_api(server, coordinator);
  serve::attach_trace_api(server, results);
  server.start();
  std::printf("qdb: coordinating %zu jobs on http://%s:%u "
              "(ttl %llu ms, %d lease attempts, fingerprint %016llx)\n",
              coordinator.jobs().size(), serve_opt.host.c_str(), server.port(),
              static_cast<unsigned long long>(copt.lease_ttl_ms),
              copt.max_lease_attempts,
              static_cast<unsigned long long>(coordinator.options_fingerprint()));
  if (!copt.journal_path.empty()) {
    std::printf("qdb: journal %s (kill + re-run to resume)\n",
                copt.journal_path.c_str());
  }
  std::fflush(stdout);

  g_stop = 0;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (!g_stop && !coordinator.drained()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();

  const Json status = coordinator.status_json();
  if (!coordinator.drained()) {
    std::printf("qdb: interrupted before drain: %s\n",
                status.at("states").dump(-1).c_str());
    return copt.journal_path.empty() ? 130 : 0;
  }

  const BatchReport r = coordinator.report();
  print_batch_report(r);
  const orchestrate::CoordinatorCounters c = coordinator.counters();
  std::printf("leases %llu (reassigned %llu, expired %llu), completions %llu "
              "(duplicate %llu, stale %llu)\n",
              static_cast<unsigned long long>(c.leases_granted),
              static_cast<unsigned long long>(c.reassignments),
              static_cast<unsigned long long>(c.lease_expiries),
              static_cast<unsigned long long>(c.completions),
              static_cast<unsigned long long>(c.duplicate_completions),
              static_cast<unsigned long long>(c.stale_completions));
  if (!report_path.empty()) {
    // Same format as a serial `batch --resume` checkpoint: the two files
    // are byte-comparable (the CI chaos job diffs them with cmp).
    save_batch_checkpoint(report_path, r, batch_options_fingerprint(b.opt));
    std::printf("report: %s\n", report_path.c_str());
  }
  return r.count(JobStatus::Failed) == 0 ? 0 : 3;
}

/// `qdb work <host> <port> [batch flags] [flags]` — one worker loop against
/// a running coordinator.  Batch flags (and fault flags) must match the
/// coordinator's or the worker refuses the fingerprint handshake.
int cmd_work(int argc, char** argv) {
  BatchCliConfig b;
  orchestrate::WorkerOptions wopt;
  wopt.host = argv[2];
  wopt.port = parse_number<std::uint16_t>("<port>", argv[3], 1);
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) throw Error(std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (parse_batch_flag(b, argc, argv, i)) continue;
    if (arg == "--worker-id") wopt.worker_id = next("--worker-id");
    else if (arg == "--poll-ms") wopt.poll_interval_ms =
        parse_number<std::uint64_t>("--poll-ms", next("--poll-ms"));
    else if (arg == "--heartbeat-ms") wopt.heartbeat_interval_ms =
        parse_number<std::uint64_t>("--heartbeat-ms", next("--heartbeat-ms"));
    else if (arg == "--no-heartbeats") wopt.heartbeats = false;
    else if (arg == "--max-request-attempts") wopt.max_request_attempts =
        parse_number<int>("--max-request-attempts", next("--max-request-attempts"), 1);
    else throw Error("unknown work flag '" + arg + "'");
  }

  configure_fault_injection(b);
  wopt.batch = b.opt;
  const orchestrate::WorkerStats stats = orchestrate::run_worker(wopt);
  std::printf("worker %s: %d leases (%d dropped), %d executed, %d crashes, "
              "%d accepted, %d duplicate acks, %d abandoned%s\n",
              wopt.worker_id.c_str(), stats.leases_received,
              stats.leases_dropped, stats.jobs_executed, stats.crashes,
              stats.completions_accepted, stats.duplicate_acks,
              stats.completions_abandoned,
              stats.aborted_io ? " [aborted: coordinator unreachable]" : "");
  return stats.aborted_io ? 4 : 0;
}

int cmd_get(char** argv) {
  serve::HttpClient client(argv[2], parse_number<std::uint16_t>("<port>", argv[3], 1));
  const serve::HttpClientResponse r = client.get(argv[4]);
  std::fprintf(stderr, "HTTP %d\n", r.status);
  std::fputs(r.body.c_str(), stdout);
  if (!r.body.empty() && r.body.back() != '\n') std::printf("\n");
  return r.status < 400 ? 0 : 4;
}

int dispatch(int argc, char** argv) {
  const std::string cmd = argv[1];
  if (cmd == "list") return cmd_list(argc, argv);
  if (cmd == "batch") return cmd_batch(argc, argv);
  if (argc >= 3 && cmd == "info") return cmd_info(argv[2]);
  if (argc >= 3 && cmd == "predict") return cmd_predict(argc, argv);
  if (argc >= 3 && cmd == "evaluate") return cmd_evaluate(argc, argv);
  if (argc >= 4 && cmd == "reference") return cmd_reference(argv);
  if (argc >= 4 && cmd == "ingest") return cmd_ingest(argv);
  if (argc >= 3 && cmd == "screen") return cmd_screen(argc, argv);
  if (argc >= 3 && cmd == "serve") return cmd_serve(argc, argv);
  if (argc >= 3 && cmd == "coordinate") return cmd_coordinate(argc, argv);
  if (argc >= 4 && cmd == "work") return cmd_work(argc, argv);
  if (argc >= 5 && cmd == "get") return cmd_get(argv);
  std::fprintf(stderr, "qdb: bad arguments for '%s'\n", cmd.c_str());
  return 2;
}

/// Drain the trace session and write the --trace file: standard Chrome
/// trace_event JSON (viewers ignore extra top-level keys) carrying the
/// per-span summary, the full metric registry, and a Prometheus rendering —
/// one self-contained artifact per run, cross-checkable by qdb_trace_check.
void write_trace_file(obs::TraceSession& session, const std::string& path) {
  session.stop();
  Json doc = session.to_chrome_json();
  doc.set("summary", session.summary_json());
  doc.set("registry", obs::MetricRegistry::global().to_json());
  doc.set("prometheus", obs::MetricRegistry::global().to_prometheus());
  write_file_atomic(path, doc.dump());
  const std::string table = session.summary_table();
  std::fputs(table.c_str(), stdout);
  std::printf("trace: %zu events -> %s\n", session.events().size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // `--trace <path>` is a global flag: strip it before subcommand parsing so
  // every command (predict, batch, ingest, ...) can be traced uniformly.
  std::string trace_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "qdb: --trace needs an output path\n");
        return 2;
      }
      trace_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: qdb list [S|M|L] | info <id> | predict <id> [method] [out.pdb] "
                 "| evaluate <id> [method] | reference <id> <out.pdb> "
                 "| batch [S|M|L|all] [--account] [--resume <checkpoint>] "
                 "[--limit N] [flags] "
                 "| ingest <dataset_root> <store_root> "
                 "| screen <pdb_id> [--library-seed S] [--library-size N] [--top-k K] "
                 "[--stage1-keep F] [--checkpoint C --resume] [--server host:port] [flags] "
                 "| serve <store_root> [--port P] [--host H] [--threads N] [--cache N] "
                 "| coordinate <results_store> [group] [batch flags] [--port P] "
                 "[--lease-ttl-ms T] [--max-lease-attempts K] [--journal J] [--report R] "
                 "| work <host> <port> [batch flags] [--worker-id W] "
                 "| get <host> <port> <target>  [--trace out.json]\n");
    return 2;
  }
  // Distributed-tracing identity (ISSUE 10).  The process root context
  // derives from the command line — the same doctrine as every other seed in
  // the repo — so a re-run of the identical command produces identical trace
  // and span ids, and two processes in a coordinator/worker pair (different
  // commands) get distinct trace ids.  QDB_FLIGHT_DUMP arms the flight
  // recorder's crash dump: any contract violation writes the last ring of
  // span/log records there before the exception propagates.
  std::uint64_t ctx_seed = fnv1a("qdb_cli");
  for (int i = 1; i < argc; ++i) ctx_seed = seed_combine(ctx_seed, fnv1a(argv[i]));
  obs::set_process_root_context(obs::derive_root_context(ctx_seed));
  if (const char* flight_path = std::getenv("QDB_FLIGHT_DUMP");
      flight_path != nullptr && *flight_path != '\0') {
    obs::arm_flight_crash_dump(flight_path);
  }
  try {
    obs::TraceSession session;
    session.set_process(static_cast<int>(::getpid()),
                        argc >= 2 ? std::string("qdb ") + argv[1] : "qdb");
    if (!trace_path.empty()) session.start();
    const int rc = dispatch(argc, argv);
    if (!trace_path.empty()) write_trace_file(session, trace_path);
    return rc;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "qdb: %s\n", ex.what());
    return 1;
  }
}
