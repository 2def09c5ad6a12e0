// Micro-benchmarks (google-benchmark) for the performance-critical kernels:
// statevector gate application, MPS circuit simulation and sampling,
// Hamiltonian energy evaluation (per-shot vs histogram+scratch), the batch
// executor, exact solving, Vina scoring (plain and incremental), and
// docking.  main() additionally runs a direct A/B of the stage-2 evaluation
// pipeline and writes the numbers to BENCH_micro_perf.json so the perf
// trajectory is tracked across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <regex>
#include <string>

#include "bench_util.h"
#include "common/parallel.h"
#include "obs/trace.h"
#include "core/qdockbank.h"
#include "data/batch.h"
#include "quantum/ansatz.h"
#include "quantum/fusion.h"
#include "quantum/histogram.h"
#include "quantum/kernels.h"
#include "quantum/mps.h"
#include "support/statevector.h"
#include "transpile/basis.h"

namespace {

using namespace qdb;

/// Synthetic stage-2 shot stream on the 14-residue / 22-qubit 4jpy register:
/// `shots` draws concentrated on `distinct` bitstrings — the shape a frozen
/// circuit's measurement distribution actually has.
std::vector<std::uint64_t> synthetic_shots(const FoldingHamiltonian& h,
                                           std::size_t shots, std::size_t distinct) {
  Rng rng(fnv1a("stage2-shots"));
  const std::uint64_t dim = std::uint64_t{1} << h.num_qubits();
  std::vector<std::uint64_t> pool(distinct);
  for (auto& x : pool) x = rng.below(dim);
  std::vector<std::uint64_t> out(shots);
  // Zipf-ish concentration: low pool indices dominate, like a trained ansatz.
  for (auto& x : out) {
    const double u = rng.uniform();
    const auto idx = static_cast<std::size_t>(static_cast<double>(distinct) * u * u);
    x = pool[std::min(idx, distinct - 1)];
  }
  return out;
}

/// The pre-optimization evaluation loop: one heap-allocating energy
/// evaluation per *shot* (the old FoldingHamiltonian::energy path).
double eval_per_shot_naive(const FoldingHamiltonian& h,
                           const std::vector<std::uint64_t>& shots) {
  double lo = std::numeric_limits<double>::infinity();
  for (std::uint64_t x : shots) {
    lo = std::min(lo, h.energy_of_turns(decode_turns(x, h.length())));
  }
  return lo;
}

/// The histogram + scratch-kernel pipeline: collapse to distinct bitstrings,
/// score each once through the batched allocation-free kernel.
double eval_histogram(const FoldingHamiltonian& h,
                      const std::vector<std::uint64_t>& shots) {
  const auto entries = sorted_entries(histogram_from_shots(shots));
  std::vector<std::uint64_t> distinct(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) distinct[i] = entries[i].first;
  std::vector<double> energies(distinct.size());
  h.energies(distinct, energies);
  return *std::min_element(energies.begin(), energies.end());
}

/// The VQE shot-scoring workload: a transpiled (native-basis, simplified)
/// EfficientSU2(nq, 2) at a fixed random point — the circuit shape both the
/// fused engine and the serial test oracle Statevector execute per
/// trajectory.
Circuit transpiled_ansatz(int nq) {
  const EfficientSU2 ansatz(nq, 2);
  Rng rng(fnv1a("kernel-bench"));
  return simplify_native(to_native_basis(ansatz.build(ansatz.initial_point(rng, 0.5))));
}

void BM_StatevectorGates(benchmark::State& state) {
  const int nq = static_cast<int>(state.range(0));
  Statevector sv(nq);
  Circuit c(nq);
  for (int q = 0; q < nq; ++q) c.ry(0.3, q);
  for (int q = 0; q + 1 < nq; ++q) c.cx(q, q + 1);
  for (auto _ : state) {
    sv.apply(c);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(c.size()));
}
BENCHMARK(BM_StatevectorGates)->Arg(10)->Arg(16)->Arg(20);

// Fused engine on the transpiled ansatz: range(0) = qubits, range(1) selects
// the precision (0 = f64 exact traversal fusion, 1 = f32 matrix fusion).
// Compare against BM_StatevectorGates / the unfused summary below.
void BM_FusedAnsatzApply(benchmark::State& state) {
  const int nq = static_cast<int>(state.range(0));
  const Precision prec = state.range(1) == 0 ? Precision::f64 : Precision::f32;
  const Circuit c = transpiled_ansatz(nq);
  FusedEngine eng(nq, prec);
  const FusedProgram prog =
      fuse_circuit(c, FusionOptions{prec == Precision::f32, 0});
  for (auto _ : state) {
    eng.reset();
    eng.apply(prog);
    benchmark::DoNotOptimize(eng.probability(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(c.size()));
  state.SetLabel(std::string(precision_name(prec)) + " block=" +
                 std::to_string(eng.block_qubits()));
}
// 14/1 is the widest f32 register the batch runs: its matrix-fused ops on
// qubits 0..2 exercise the kernels below the vector width.
BENCHMARK(BM_FusedAnsatzApply)
    ->Args({10, 0})
    ->Args({14, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({20, 1});

void BM_MpsAnsatzApply(benchmark::State& state) {
  const int nq = static_cast<int>(state.range(0));
  const EfficientSU2 ansatz(nq, 2);
  Rng rng(1);
  const auto params = ansatz.initial_point(rng, 0.5);
  const Circuit c = ansatz.build(params);
  for (auto _ : state) {
    MpsSimulator mps(nq);
    mps.apply(c);
    benchmark::DoNotOptimize(mps.max_bond_reached());
  }
}
BENCHMARK(BM_MpsAnsatzApply)->Arg(10)->Arg(22)->Arg(40);

void BM_MpsSampling(benchmark::State& state) {
  const int nq = 22;  // L-group register
  const EfficientSU2 ansatz(nq, 2);
  Rng rng(1);
  MpsSimulator mps(nq);
  mps.apply(ansatz.build(ansatz.initial_point(rng, 0.5)));
  for (auto _ : state) {
    auto shots = mps.sample(static_cast<std::size_t>(state.range(0)), rng);
    benchmark::DoNotOptimize(shots.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MpsSampling)->Arg(256)->Arg(4096);

void BM_HamiltonianEnergy(benchmark::State& state) {
  const DatasetEntry& e = entry_by_id("4jpy");  // 14 residues
  const FoldingHamiltonian h = entry_hamiltonian(e);
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.energy(x));
    x = (x + 0x9e3779b9ULL) & ((1ULL << 22) - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HamiltonianEnergy);

void BM_HamiltonianEnergyScratch(benchmark::State& state) {
  const FoldingHamiltonian h = entry_hamiltonian(entry_by_id("4jpy"));
  FoldingHamiltonian::Scratch scratch;
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.energy_scratch(x, scratch));
    x = (x + 0x9e3779b9ULL) & ((1ULL << 22) - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HamiltonianEnergyScratch);

// Stage-2 evaluation A/B: 100k shots on the 22-qubit 4jpy register drawn
// from `range(0)` distinct bitstrings.  PerShot is the pre-optimization
// loop; Batch is the histogram + scratch-kernel pipeline.
void BM_HamiltonianEnergyPerShot(benchmark::State& state) {
  const FoldingHamiltonian h = entry_hamiltonian(entry_by_id("4jpy"));
  const auto shots = synthetic_shots(h, 100000, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval_per_shot_naive(h, shots));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(shots.size()));
}
BENCHMARK(BM_HamiltonianEnergyPerShot)->Arg(512)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_HamiltonianEnergyBatch(benchmark::State& state) {
  const FoldingHamiltonian h = entry_hamiltonian(entry_by_id("4jpy"));
  const auto shots = synthetic_shots(h, 100000, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval_histogram(h, shots));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(shots.size()));
}
BENCHMARK(BM_HamiltonianEnergyBatch)->Arg(512)->Arg(4096)->Unit(benchmark::kMillisecond);

// Dataset batch executor: four S-group fragments with a small VQE budget,
// 1 thread vs all hardware threads.  Reports are byte-identical either way
// (tests/test_perf.cpp); only the wall time changes.
void BM_BatchExecutor(benchmark::State& state) {
  std::vector<const DatasetEntry*> subset;
  for (const DatasetEntry* e : entries_in_group(Group::S)) {
    subset.push_back(e);
    if (subset.size() == 4) break;
  }
  BatchOptions opt;
  opt.run_vqe = true;
  opt.vqe.max_evaluations = 8;
  opt.vqe.shots_per_eval = 64;
  opt.vqe.final_shots = 1000;
  opt.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_batch(subset, opt).total_device_time_s);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(subset.size()));
}
BENCHMARK(BM_BatchExecutor)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_ExactSolver(benchmark::State& state) {
  const DatasetEntry& e = entry_by_id(state.range(0) == 0 ? "2bok" : "4jpy");
  const FoldingHamiltonian h = entry_hamiltonian(e);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactSolver().solve(h).energy);
  }
}
BENCHMARK(BM_ExactSolver)->Arg(0)->Arg(1);

void BM_VinaScoring(benchmark::State& state) {
  Pipeline pipeline;
  const DatasetEntry& e = entry_by_id("2bok");
  const Structure& receptor = pipeline.reference(e);
  const Ligand& lig = pipeline.ligand(e);
  const NeighbourIndex grid(type_receptor(receptor), 8.0);
  const auto coords = lig.conformation(lig.neutral_pose());
  for (auto _ : state) {
    benchmark::DoNotOptimize(intermolecular_energy(grid, lig, coords));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VinaScoring);

/// The scoring path every dock candidate takes: IncrementalScorer::score
/// with no incumbent, over 400 seeded poses inside the receptor's bounding
/// box (arg: 0 = 6p86 S, 1 = 2qbs M, 2 = 4jpy L).  One iteration is one pose.
void BM_IncrementalScoreFresh(benchmark::State& state) {
  const char* ids[] = {"6p86", "2qbs", "4jpy"};
  const char* id = ids[state.range(0)];
  Pipeline pipeline;
  const DatasetEntry& e = entry_by_id(id);
  const std::vector<ReceptorAtom> typed = type_receptor(pipeline.reference(e));
  const Ligand& lig = pipeline.ligand(e);
  const NeighbourIndex grid(typed, 8.0);
  Vec3 lo = typed[0].pos, hi = typed[0].pos;
  for (const ReceptorAtom& a : typed) {
    lo = {std::min(lo.x, a.pos.x), std::min(lo.y, a.pos.y), std::min(lo.z, a.pos.z)};
    hi = {std::max(hi.x, a.pos.x), std::max(hi.y, a.pos.y), std::max(hi.z, a.pos.z)};
  }
  Rng rng(fnv1a(id));
  std::vector<std::vector<Vec3>> poses;
  for (int n = 0; n < 400; ++n) {
    Pose pose = lig.neutral_pose();
    pose.translation = {rng.uniform(lo.x, hi.x), rng.uniform(lo.y, hi.y), rng.uniform(lo.z, hi.z)};
    pose.orientation = Quat::random(rng.uniform(), rng.uniform(), rng.uniform());
    for (double& t : pose.torsions) t = rng.uniform(-3.14159, 3.14159);
    poses.push_back(lig.conformation(pose));
  }
  IncrementalScorer scorer(grid, lig);
  ScoredConformation out;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.score(poses[i], nullptr, out));
    i = i + 1 == poses.size() ? 0 : i + 1;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["pairs_per_pose"] =
      static_cast<double>(scorer.fresh_pairs()) / static_cast<double>(scorer.calls());
}
BENCHMARK(BM_IncrementalScoreFresh)->DenseRange(0, 2);

void BM_DockingRun(benchmark::State& state) {
  Pipeline pipeline;
  const DatasetEntry& e = entry_by_id("3ckz");
  const Structure& receptor = pipeline.reference(e);
  const Ligand& lig = pipeline.ligand(e);
  DockingParams params;
  params.num_runs = 1;
  params.mc_steps = 300;
  for (auto _ : state) {
    params.seed++;
    benchmark::DoNotOptimize(dock(receptor, lig, params).best_affinity);
  }
}
BENCHMARK(BM_DockingRun);

using MetricList = std::vector<std::pair<std::string, double>>;

/// Direct A/B of the stage-2 evaluation pipeline (the acceptance-criterion
/// workload: 100k shots, 14-residue / 22-qubit fragment).  Returns the
/// metrics destined for BENCH_micro_perf.json.
MetricList stage2_speedup_summary() {
  const FoldingHamiltonian h = entry_hamiltonian(entry_by_id("4jpy"));
  const std::size_t kShots = 100000;
  const std::size_t kDistinct = 4096;
  const auto shots = synthetic_shots(h, kShots, kDistinct);
  const std::size_t distinct = histogram_from_shots(shots).size();

  // Warm up, then time the best of three runs of each path.
  double naive_best = 1e300, hist_best = 1e300;
  double naive_lo = 0.0, hist_lo = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    {
      obs::Span t1("bench.stage2.naive");
      naive_lo = eval_per_shot_naive(h, shots);
      naive_best = std::min(naive_best, t1.seconds());
    }
    {
      obs::Span t2("bench.stage2.histogram");
      hist_lo = eval_histogram(h, shots);
      hist_best = std::min(hist_best, t2.seconds());
    }
  }
  const double speedup = naive_best / hist_best;
  std::printf("\nstage-2 evaluation A/B (4jpy, %zu shots, %zu distinct):\n",
              kShots, distinct);
  std::printf("  per-shot naive path  %8.2f ms\n", naive_best * 1e3);
  std::printf("  histogram + scratch  %8.2f ms\n", hist_best * 1e3);
  std::printf("  speedup              %8.1fx  (acceptance: >= 5x)\n", speedup);
  if (naive_lo != hist_lo) {
    std::printf("  WARNING: paths disagree (%.12g vs %.12g)\n", naive_lo, hist_lo);
  }
  return {{"stage2_shots", static_cast<double>(kShots)},
          {"stage2_distinct", static_cast<double>(distinct)},
          {"per_shot_naive_ms", naive_best * 1e3},
          {"histogram_scratch_ms", hist_best * 1e3},
          {"stage2_speedup", speedup},
          {"paths_agree", naive_lo == hist_lo ? 1.0 : 0.0},
          {"hardware_threads", static_cast<double>(hardware_threads())}};
}

/// Fused-kernel A/B (ISSUE 6 acceptance workload): the 16-qubit transpiled
/// ansatz applied through (a) the unfused scalar Statevector, the serial
/// test oracle (tests/support/statevector.h, one thread), (b) the fused
/// f64 engine (bit-identical path) and (c) the fused f32 engine (stage-1
/// path), plus a matrix-fusion depth sweep.  Keys are appended to BENCH_micro_perf.json *after* the existing
/// stage-2 keys so diff tooling sees append-only growth.
MetricList fused_kernel_summary() {
  const int nq = 16;
  const Circuit c = transpiled_ansatz(nq);
  constexpr int kReps = 5;

  double unfused_best = 1e300;
  {
    Statevector sv(nq);
    for (int rep = 0; rep < kReps; ++rep) {
      sv.reset();
      obs::Span t("bench.kernel.unfused_f64");
      sv.apply(c);
      unfused_best = std::min(unfused_best, t.seconds());
    }
  }

  FusedEngine f64(nq, Precision::f64);
  FusedEngine f32(nq, Precision::f32);
  const FusedProgram prog64 = fuse_circuit(c, FusionOptions{false, 0});
  const FusedProgram prog32 = fuse_circuit(c, FusionOptions{true, 0});
  double f64_best = 1e300, f32_best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    f64.reset();
    obs::Span t("bench.kernel.fused_f64");
    f64.apply(prog64);
    f64_best = std::min(f64_best, t.seconds());
  }
  for (int rep = 0; rep < kReps; ++rep) {
    f32.reset();
    obs::Span t("bench.kernel.fused_f32");
    f32.apply(prog32);
    f32_best = std::min(f32_best, t.seconds());
  }

  std::printf("\nfused-kernel A/B (%d-qubit transpiled ansatz, %zu gates):\n", nq,
              c.size());
  std::printf("  unfused scalar Statevector %8.2f ms\n", unfused_best * 1e3);
  std::printf("  fused f64 (bit-identical)  %8.2f ms  %6.1fx\n", f64_best * 1e3,
              unfused_best / f64_best);
  std::printf("  fused f32 (stage-1)        %8.2f ms  %6.1fx  (acceptance: >= 5x)\n",
              f32_best * 1e3, unfused_best / f32_best);
  std::printf("  avx2=%d  block f64=%d f32=%d  fusion ratio f32=%.2f\n",
              kernels_avx2_active() ? 1 : 0, f64.block_qubits(), f32.block_qubits(),
              prog32.fusion_ratio());

  MetricList m = {{"kernel.nq", static_cast<double>(nq)},
                  {"kernel.gates", static_cast<double>(c.size())},
                  {"kernel.avx2", kernels_avx2_active() ? 1.0 : 0.0},
                  {"kernel.block_qubits_f64", static_cast<double>(f64.block_qubits())},
                  {"kernel.block_qubits_f32", static_cast<double>(f32.block_qubits())},
                  {"kernel.unfused_f64_ms", unfused_best * 1e3},
                  {"kernel.fused_f64_ms", f64_best * 1e3},
                  {"kernel.fused_f32_ms", f32_best * 1e3},
                  {"kernel.speedup_f64", unfused_best / f64_best},
                  {"kernel.speedup_f32", unfused_best / f32_best},
                  {"kernel.fusion_ratio_f32", prog32.fusion_ratio()}};

  // Matrix-fusion depth sweep (f32): cap the 1q gates a run may absorb.
  // max_run 0 = unlimited, the production setting.
  std::printf("  f32 fusion-depth sweep (max_run: ms / ops):\n");
  for (const int cap : {1, 2, 4, 8, 0}) {
    const FusedProgram prog = fuse_circuit(c, FusionOptions{true, cap});
    double best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      f32.reset();
      obs::Span t("bench.kernel.sweep");
      f32.apply(prog);
      best = std::min(best, t.seconds());
    }
    std::printf("    max_run=%-2d %8.2f ms  %4zu ops\n", cap, best * 1e3,
                prog.ops.size());
    std::string key = "kernel.sweep.max_run_";
    key += std::to_string(cap);
    m.emplace_back(key + "_ms", best * 1e3);
    m.emplace_back(key + "_ops", static_cast<double>(prog.ops.size()));
  }
  return m;
}

/// True when --benchmark_filter selects benchmark `name` (google-benchmark's
/// rule: empty or "all" selects everything, a leading '-' negates the regex).
bool filter_selects(const std::string& name) {
  std::string filter = benchmark::GetBenchmarkFilter();
  if (filter.empty() || filter == "all") return true;
  const bool negate = filter.front() == '-';
  if (negate) filter.erase(0, 1);
  return std::regex_search(name, std::regex(filter)) != negate;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Each A/B summary runs only beside the benchmark it extends, so a filter
  // for other layers (docking, say) does not time the engines.
  MetricList metrics;
  if (filter_selects("BM_HamiltonianEnergyBatch/4096")) metrics = stage2_speedup_summary();
  if (filter_selects("BM_FusedAnsatzApply/16/0")) {
    const MetricList kernel = fused_kernel_summary();
    metrics.insert(metrics.end(), kernel.begin(), kernel.end());
  }
  if (!metrics.empty()) bench::emit_bench_json("micro_perf", metrics);
  return 0;
}
