// Shared helpers for the reproduction bench harnesses.
//
// Each bench binary regenerates one table or figure of the paper and prints
// the paper's published values next to the measured ones.  Absolute numbers
// are not expected to match (the substrate is a simulator, not the authors'
// Eagle testbed and PDBbind data); the *shape* — who wins, by roughly what
// factor, where the group trends fall — is the reproduction target.  See
// EXPERIMENTS.md for the recorded outcomes.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "common/table.h"
#include "core/qdockbank.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qdb::bench {

/// Machine-readable bench output: writes BENCH_<name>.json with a flat
/// metric map so the perf trajectory can be tracked (diffed, plotted)
/// across PRs.  Values are emitted at full double precision.
///
/// After the caller's metrics (whose keys and order are byte-stable across
/// this change), every `span.<name>` histogram in the global registry is
/// appended as `span.<name>.count` / `span.<name>.total_us` — so a bench
/// that ran under obs spans publishes its span summary in the same file
/// without disturbing existing diff/plot tooling (new keys append only).
inline void emit_bench_json(const std::string& name,
                            const std::vector<std::pair<std::string, double>>& metrics) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "emit_bench_json: cannot write %s\n", path.c_str());
    return;
  }
  // Timestamp via <chrono>, not std::time(): the qdb_lint raw-time rule bans
  // time() repo-wide so it can never creep back in as an RNG seed.
  const long long unix_time = std::chrono::duration_cast<std::chrono::seconds>(
                                  std::chrono::system_clock::now().time_since_epoch())
                                  .count();
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"unix_time\": %lld", name.c_str(), unix_time);
  for (const auto& [key, value] : metrics) {
    std::fprintf(f, ",\n  \"%s\": %.17g", key.c_str(), value);
  }
  const obs::Snapshot snap = obs::MetricRegistry::global().snapshot();
  for (const obs::Snapshot::HistogramSample& h : snap.histograms) {
    if (h.name.rfind("span.", 0) != 0) continue;
    std::fprintf(f, ",\n  \"%s.count\": %.17g", h.name.c_str(),
                 static_cast<double>(h.count()));
    std::fprintf(f, ",\n  \"%s.total_us\": %.17g", h.name.c_str(),
                 static_cast<double>(h.total));
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

/// RAII trace session for a bench: starts recording on construction and, on
/// destruction, drains the session and prints the per-span summary table
/// (count / total / self time) below the bench's own output.  Benches that
/// also call emit_bench_json get the same spans in their JSON via the
/// registry mirror.  It installs a root trace context on the constructing
/// thread, because self time is charged by parent span id.
class ScopedBenchTrace {
 public:
  ScopedBenchTrace() { session_.start(); }
  ~ScopedBenchTrace() {
    session_.stop();
    if (!session_.events().empty()) {
      std::printf("\nspan summary:\n%s", session_.summary_table().c_str());
    }
  }
  ScopedBenchTrace(const ScopedBenchTrace&) = delete;
  ScopedBenchTrace& operator=(const ScopedBenchTrace&) = delete;

 private:
  obs::TraceSession session_;
  const obs::ScopedTraceContext root_{obs::derive_root_context(1)};
};

inline void header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n\n");
}

/// Run the VQE stage for every entry of a group and print the table the
/// paper reports (Tables 1-3): qubits, depth, energies, exec time — the
/// measured values with the published ones alongside.
inline void run_group_table(Group g, const char* paper_table) {
  header(format("%s - %s group fragments (measured vs published)", paper_table,
                group_name(g)));

  const ScopedBenchTrace trace;
  Pipeline pipeline;
  Table t({"PDB", "Sequence", "Len", "Qubits", "Depth", "E_min", "E_max", "E_range",
           "Time(s)", "| pub E_min", "pub E_range", "pub Time(s)"});

  double ratio_sum = 0.0;
  int ratio_count = 0;
  for (const DatasetEntry* e : entries_in_group(g)) {
    const Prediction pred = pipeline.predict(*e, Method::QDock);
    const VqeResult& v = *pred.vqe;
    t.add_row({e->pdb_id, e->sequence, format("%d", e->length()),
               format("%d", v.allocation.qubits), format("%d", v.allocation.depth),
               format_fixed(v.lowest_energy, 1), format_fixed(v.highest_energy, 1),
               format_fixed(v.energy_range, 1), format_fixed(v.modeled_exec_time_s, 0),
               format("| %.1f", e->lowest_energy), format_fixed(e->energy_range, 1),
               format_fixed(e->exec_time_s, 0)});
    if (e->lowest_energy > 0) {
      ratio_sum += v.lowest_energy / e->lowest_energy;
      ++ratio_count;
    }
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\nmean measured/published lowest-energy ratio: %.3f "
              "(1.0 = exact scale match)\n",
              ratio_sum / ratio_count);
  std::printf("qubits and depth columns reproduce the published allocation exactly\n");
}

/// Print the per-entry scatter of Figures 2/3 (QDock vs a baseline) plus
/// the win-rate summary per group and overall.
inline void run_method_comparison(Method baseline, const char* figure,
                                  double paper_affinity_rate, double paper_rmsd_rate) {
  header(format("%s - QDock vs %s: affinity and RMSD per entry", figure,
                method_name(baseline)));

  const ScopedBenchTrace trace;
  Pipeline pipeline;
  const auto qd = pipeline.evaluate_all(Method::QDock);
  const auto base = pipeline.evaluate_all(baseline);

  Table t({"PDB", "Grp", "QDock aff", format("%s aff", method_name(baseline)),
           "QDock rmsd", format("%s rmsd", method_name(baseline)), "aff win", "rmsd win"});
  for (std::size_t i = 0; i < qd.size(); ++i) {
    t.add_row({qd[i].pdb_id, group_name(qd[i].group), format_fixed(qd[i].affinity, 2),
               format_fixed(base[i].affinity, 2), format_fixed(qd[i].rmsd, 2),
               format_fixed(base[i].rmsd, 2),
               qd[i].affinity < base[i].affinity ? "QDock" : method_name(baseline),
               qd[i].rmsd < base[i].rmsd ? "QDock" : method_name(baseline)});
  }
  std::printf("%s\n", t.to_string().c_str());

  const WinRates all = win_rates(qd, base);
  std::printf("overall: QDock wins affinity %.1f%% (paper: %.1f%%), RMSD %.1f%% "
              "(paper: %.1f%%) of %d entries\n",
              100.0 * all.affinity_rate(), paper_affinity_rate, 100.0 * all.rmsd_rate(),
              paper_rmsd_rate, all.entries);

  for (Group g : {Group::L, Group::M, Group::S}) {
    std::vector<Evaluation> qg, bg;
    for (std::size_t i = 0; i < qd.size(); ++i) {
      if (qd[i].group == g) {
        qg.push_back(qd[i]);
        bg.push_back(base[i]);
      }
    }
    const WinRates w = win_rates(qg, bg);
    std::printf("group %s: affinity %d/%d, RMSD %d/%d\n", group_name(g), w.affinity_wins,
                w.entries, w.rmsd_wins, w.entries);
  }
}

}  // namespace qdb::bench
