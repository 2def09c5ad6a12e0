// eval6: the paper's unit of work.  A closed loop with one caller; each pass
// builds a fresh Pipeline (cold reference and ligand caches) and runs
// evaluate(QDock) on the stratified six-entry set in a seeded order.
#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "obs/trace.h"
#include "util.h"

namespace perfbench {

namespace {

constexpr int kSetupReps = 9;
constexpr int kWarmupsPerSample = 8;

bool same_evaluation(const qdb::Evaluation& a, const qdb::Evaluation& b) {
  return a.pdb_id == b.pdb_id && a.group == b.group && a.method == b.method &&
         same_bits(a.rmsd, b.rmsd) && same_bits(a.affinity, b.affinity) &&
         same_bits(a.mean_affinity, b.mean_affinity) &&
         same_bits(a.pose_rmsd_lb, b.pose_rmsd_lb) && same_bits(a.pose_rmsd_ub, b.pose_rmsd_ub);
}

std::vector<const qdb::DatasetEntry*> seeded_order(std::uint64_t seed) {
  const std::vector<const qdb::DatasetEntry*> entries = entries_by_id(eval6_ids());
  std::vector<const qdb::DatasetEntry*> order;
  for (std::size_t i : permutation(entries.size(), qdb::seed_combine(seed, qdb::fnv1a("eval6")))) {
    order.push_back(entries[i]);
  }
  return order;
}

struct Window {
  std::int64_t evaluations = 0;
  double seconds = 0.0;
  std::vector<double> latency_ms, steal;  ///< one per evaluate call
  std::vector<std::vector<double>> per_entry_ms, per_entry_steal;  ///< the same, by entry

  /// Each entry's median clean latency: robust to a pass slowed by load
  /// from outside the benchmark.
  std::vector<double> entry_medians_ms() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < per_entry_ms.size(); ++i) {
      out.push_back(median(clean(per_entry_ms[i], per_entry_steal[i], 2)));
    }
    return out;
  }

  /// Entries per second of a pass made of each entry's median latency.
  double rate() const {
    double pass_ms = 0.0;
    for (double ms : entry_medians_ms()) pass_ms += ms;
    return static_cast<double>(per_entry_ms.size()) / (pass_ms / 1e3);
  }

  /// Clean latencies, at least one pass' worth (the least stolen).
  std::vector<double> clean_latency_ms() const {
    return clean(latency_ms, steal, per_entry_ms.size());
  }
};

/// Whole passes of Pipeline::evaluate until `seconds` have elapsed; traced
/// passes differ only in having an obs::TraceSession recording.  Every
/// result is checked against `expected` bit for bit.
Window measure(const std::vector<const qdb::DatasetEntry*>& order,
               const std::vector<qdb::Evaluation>& expected, double seconds, bool traced,
               Outcome& out) {
  std::unique_ptr<qdb::obs::TraceSession> session;
  if (traced) {
    session = std::make_unique<qdb::obs::TraceSession>();
    session->start();
  }
  Window w;
  w.per_entry_ms.resize(order.size());
  w.per_entry_steal.resize(order.size());
  const double start = now_s();
  do {
    const qdb::Pipeline pipeline(qdb::PipelineOptions::bench_profile());
    for (std::size_t i = 0; i < order.size(); ++i) {
      qdb::Evaluation ev;
      const CpuTicks before = cpu_ticks();
      const double dt = timed([&] { ev = pipeline.evaluate(*order[i], qdb::Method::QDock); });
      const double stolen = steal_share(before, cpu_ticks());
      w.latency_ms.push_back(dt * 1e3);
      w.steal.push_back(stolen);
      w.per_entry_ms[i].push_back(dt * 1e3);
      w.per_entry_steal[i].push_back(stolen);
      ++w.evaluations;
      ++out.attempted;
      if (!same_evaluation(ev, expected[i])) {
        out.mismatch(std::string("evaluate(") + order[i]->pdb_id +
                     ") differs from the layer chain");
      }
    }
  } while (now_s() - start < seconds);
  w.seconds = now_s() - start;
  if (session) session->stop();
  return w;
}

}  // namespace

void run_eval6(const Args& args, Outcome& out) {
  const std::vector<const qdb::DatasetEntry*> order = seeded_order(args.seed);

  // One cold warm-up here is only about 10 ms, so each set-up sample is the
  // mean of kWarmupsPerSample of them; a single one is too short to time
  // steadily.
  const double setup_s = median_setup_s("eval6", kSetupReps, [&] {
    double sum = 0.0;
    for (int k = 0; k < kWarmupsPerSample; ++k) sum += cold_tuner_warmup(order);
    return sum / kWarmupsPerSample;
  });

  // Warm-up pass through the layer chain; its evaluations are the reference
  // every timed Pipeline::evaluate must reproduce bit for bit.
  std::vector<qdb::Evaluation> expected;
  {
    const qdb::Pipeline pipeline(qdb::PipelineOptions::bench_profile());
    for (const qdb::DatasetEntry* e : order) {
      expected.push_back(evaluate_by_layers(pipeline, *e).evaluation);
    }
  }

  if (args.trace) {
    // Untraced and traced passes alternate, so drift in machine load
    // affects both sides alike.
    std::vector<double> plain, traced;
    const double start = now_s();
    do {
      plain.push_back(measure(order, expected, 0.0, false, out).rate());
      traced.push_back(measure(order, expected, 0.0, true, out).rate());
    } while (now_s() - start < args.seconds);
    out.metrics.set("trace.overhead_pct", overhead_pct(median(plain), median(traced)), "%");
    return;
  }
  const Window w = measure(order, expected, args.seconds, false, out);
  const std::vector<double> latency_ms = w.clean_latency_ms();
  std::printf("eval6: %lld evaluations in %.3f s; %zu clean latency samples\n",
              static_cast<long long>(w.evaluations), w.seconds, latency_ms.size());
  print_samples("eval6", "evaluate_ms", w.latency_ms, w.steal);
  out.metrics.set("setup_s", setup_s, "s");
  out.metrics.set("ops_per_s", w.rate(), "1/s");
  // The latencies fall in six clusters, one per entry, so the median over
  // all calls jumps between the third and fourth entry from run to run; the
  // median of the per-entry medians interpolates between them instead.
  out.metrics.set("op_ms.p50", median(w.entry_medians_ms()), "ms");
  out.metrics.set("op_ms.tail", quantile(latency_ms, 0.9), "ms");
}

std::vector<ChainResult> sweep_eval_layers(const Args& args, Outcome& out) {
  const std::vector<const qdb::DatasetEntry*> order = seeded_order(args.seed);
  cold_tuner_warmup(order);
  const qdb::Pipeline pipeline(qdb::PipelineOptions::bench_profile());

  std::vector<ChainResult> chain;
  double reference = 0, imprint = 0, dense = 0, mps = 0, dock = 0, total = 0;
  double evaluations = 0, shots = 0, cache_hits = 0, distinct = 0, stage2_shots = 0;
  for (const qdb::DatasetEntry* e : order) {
    ChainResult r = evaluate_by_layers(pipeline, *e);
    ++out.attempted;
    reference += r.reference_s;
    imprint += r.imprint_s;
    (r.dense ? dense : mps) += r.predict_s;
    dock += r.dock_s;
    total += r.total_s;
    const qdb::VqeResult& vqe = *r.prediction.vqe;
    evaluations += vqe.evaluations;
    shots += static_cast<double>(vqe.total_shots);
    cache_hits += static_cast<double>(vqe.energy_cache_hits);
    distinct += static_cast<double>(vqe.stage2_distinct);
    stage2_shots += static_cast<double>(pipeline.options().vqe.final_shots);
    chain.push_back(std::move(r));
  }

  // Per pass of six entries; the layers plus core.other sum to evaluate_ms.
  out.metrics.set("layer.core.evaluate_ms", total * 1e3, "ms");
  out.metrics.set("layer.data.reference_ms", reference * 1e3, "ms");
  out.metrics.set("layer.dock.imprint_ms", imprint * 1e3, "ms");
  out.metrics.set("layer.vqe.predict_ms.dense", dense * 1e3, "ms");
  out.metrics.set("layer.vqe.predict_ms.mps", mps * 1e3, "ms");
  out.metrics.set("layer.dock.search_ms", dock * 1e3, "ms");
  out.metrics.set("layer.core.other_ms",
                  (total - reference - imprint - dense - mps - dock) * 1e3, "ms");
  out.metrics.set("count.vqe.evaluations", evaluations, "count");
  out.metrics.set("count.vqe.shots", shots, "count");
  out.metrics.set("count.vqe.energy_cache_hits", cache_hits, "count");
  out.metrics.set("count.vqe.stage2_distinct", distinct, "count");
  out.metrics.set("count.vqe.stage2_shots", stage2_shots, "count");
  return chain;
}

}  // namespace perfbench
