#include "vqe/vqe.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/check.h"
#include "common/error.h"
#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimize/cobyla.h"
#include "quantum/ansatz.h"
#include "quantum/histogram.h"
#include "quantum/mitigation.h"
#include "quantum/mps.h"
#include "vqe/exec_time.h"

namespace qdb {

bool uses_mps_engine(int num_qubits, const VqeOptions& opt) {
  return opt.engine == VqeOptions::Engine::Mps ||
         (opt.engine == VqeOptions::Engine::Auto && num_qubits > 14);
}

VqeDriver::VqeDriver(const FoldingHamiltonian& hamiltonian, VqeOptions options)
    : h_(hamiltonian), opt_(options) {
  QDB_REQUIRE(opt_.max_evaluations >= 1, "vqe needs a positive budget");
  QDB_REQUIRE(opt_.shots_per_eval >= 1 && opt_.final_shots >= 1, "vqe needs shots");
  QDB_REQUIRE(opt_.cvar_alpha > 0.0 && opt_.cvar_alpha <= 1.0, "cvar alpha in (0,1]");
  QDB_REQUIRE(opt_.noise_trajectories >= 1, "need at least one trajectory");
}

double VqeDriver::cvar(std::vector<double> energies, double alpha) {
  QDB_REQUIRE(!energies.empty(), "cvar of no samples");
  QDB_REQUIRE(alpha > 0.0 && alpha <= 1.0, "cvar alpha in (0,1]");
  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(alpha * static_cast<double>(energies.size()))));
  std::partial_sort(energies.begin(), energies.begin() + static_cast<std::ptrdiff_t>(keep),
                    energies.end());
  double acc = 0.0;
  for (std::size_t i = 0; i < keep; ++i) acc += energies[i];
  return acc / static_cast<double>(keep);
}

double VqeDriver::cvar_weighted(std::vector<std::pair<double, double>> samples,
                                double alpha) {
  QDB_REQUIRE(!samples.empty(), "cvar of no samples");
  QDB_REQUIRE(alpha > 0.0 && alpha <= 1.0, "cvar alpha in (0,1]");
  double total = 0.0;
  for (auto& [e, w] : samples) {
    (void)e;
    if (w < 0.0) w = 0.0;  // quasi-probabilities: clamp mitigation artifacts
    total += w;
  }
  QDB_REQUIRE(total > 0.0, "cvar of zero total weight");
  std::sort(samples.begin(), samples.end());
  const double tail = alpha * total;
  double used = 0.0, acc = 0.0;
  for (const auto& [e, w] : samples) {
    // Zero-weight samples (readout mitigation clamps negative
    // quasi-probabilities to 0) must be *skipped*, not treated as tail
    // exhaustion: breaking on them returned 0/0 = NaN whenever the
    // lowest-energy bin carried a negative quasi-probability — a silent
    // NaN that poisoned the published lowest/highest/mean energy columns
    // for mitigated noisy runs.  Found by the QDB_AUDIT statevector-norm
    // check (ISSUE 3): COBYLA turned the NaN objective into NaN parameters.
    if (w <= 0.0) continue;
    const double take = std::min(w, tail - used);
    if (take <= 0.0) break;
    acc += e * take;
    used += take;
    if (used >= tail) break;
  }
  // total > 0 guarantees at least one positive-weight sample was consumed.
  const double estimate = acc / used;
  QDB_ENSURE(used > 0.0 && std::isfinite(estimate),
             "cvar estimate not finite: acc=" << acc << " used=" << used
                 << " tail=" << tail);
  return estimate;
}

RefineOutcome refine_descents(const FoldingHamiltonian& h,
                              std::span<const std::pair<double, std::uint64_t>> starts) {
  QDB_REQUIRE(h.num_qubits() < 64, "refine needs the top bit of a bitstring free");
  RefineOutcome out;
  out.minima.reserve(starts.size());

  // Direct-mapped energy memo, 4096 slots (64 KiB).  No bitstring has its
  // top bit set, so an all-ones key marks an empty slot.
  struct Slot {
    std::uint64_t x;
    double e;
  };
  constexpr int kSlotBits = 12;
  std::vector<Slot> memo(std::size_t{1} << kSlotBits, Slot{~std::uint64_t{0}, 0.0});
  FoldingHamiltonian::Scratch scratch;
  auto energy = [&](std::uint64_t x) {
    Slot& slot = memo[(x * 0x9e3779b97f4a7c15ULL) >> (64 - kSlotBits)];
    if (slot.x == x) {
      ++out.memo_hits;
    } else {
      ++out.energies;
      slot = {x, h.energy_scratch(x, scratch)};
    }
    return slot.e;
  };

  // One descent step: move (x, e) to the first improving single-turn
  // change, else to the first improving two-turn change (which escapes
  // shallow single-move minima).  False at a local minimum.
  const int free_turns = h.length() - 3;
  auto step = [&](std::uint64_t& x, double& e) {
    auto try_move = [&](std::uint64_t cand) {
      if (cand == x) return false;
      const double ce = energy(cand);
      if (!(ce < e - 1e-12)) return false;
      x = cand;
      e = ce;
      return true;
    };
    for (int k = 0; k < free_turns; ++k) {
      for (std::uint64_t t = 0; t < 4; ++t) {
        if (try_move((x & ~(std::uint64_t{3} << (2 * k))) | (t << (2 * k)))) return true;
      }
    }
    for (int k1 = 0; k1 < free_turns; ++k1) {
      for (int k2 = k1 + 1; k2 < free_turns; ++k2) {
        for (std::uint64_t t1 = 0; t1 < 4; ++t1) {
          for (std::uint64_t t2 = 0; t2 < 4; ++t2) {
            std::uint64_t cand = (x & ~(std::uint64_t{3} << (2 * k1))) | (t1 << (2 * k1));
            cand = (cand & ~(std::uint64_t{3} << (2 * k2))) | (t2 << (2 * k2));
            if (try_move(cand)) return true;
          }
        }
      }
    }
    return false;
  };

  // A step depends on the state alone, so a descent that reaches a state an
  // earlier descent passed through ends where that one ended.
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, double>> reached;
  std::vector<std::uint64_t> path;
  for (const auto& [e0, x0] : starts) {
    std::pair<std::uint64_t, double> at{x0, e0};
    path.clear();
    for (;;) {
      if (const auto it = reached.find(at.first); it != reached.end()) {
        at = it->second;
        ++out.merged;
        break;
      }
      path.push_back(at.first);
      if (!step(at.first, at.second)) break;
    }
    for (std::uint64_t x : path) reached.emplace(x, at);
    out.minima.push_back(at);
  }
  return out;
}

VqeResult VqeDriver::run() const {
  obs::Span wall("vqe.run");  // doubles as the sim_wall_time_s stopwatch
  const int nq = h_.num_qubits();
  const EfficientSU2 ansatz(nq, opt_.reps);

  const bool use_mps = uses_mps_engine(nq, opt_);

  Rng rng(opt_.seed);

  // Dense engines are hoisted out of the trajectory loop and reused via
  // reset(): one allocation per precision for the whole run.  Stage 1 uses
  // opt_.stage1_precision (f32 by default — see VqeOptions); stage 2 and
  // everything published always sample at f64.
  std::optional<FusedEngine> dense_f64, dense_f32;
  auto dense_engine = [&](Precision prec) -> FusedEngine& {
    auto& slot = prec == Precision::f64 ? dense_f64 : dense_f32;
    if (!slot) slot.emplace(nq, prec);
    return *slot;
  };

  // Draw `shots` measurement outcomes of the ansatz at `params` under the
  // noise model, split across stochastic error trajectories.  A clean
  // trajectory (no error drawn) is the logical circuit itself, so when the
  // trajectory simulated just before it in this call was clean too, the
  // engine already holds its state: it samples again without reset or
  // apply.  Every trajectory still draws its errors, its shots and its
  // readout flips, and calls the engine's fault site once, so the RNG stream
  // and the fault numbering are those of simulating it afresh.
  std::size_t trajectories_simulated = 0, trajectories_reused = 0;
  auto sample_bitstrings = [&](const std::vector<double>& params, std::size_t shots,
                               int trajectories, Precision precision) {
    const Circuit logical = ansatz.build(params);
    std::vector<std::uint64_t> all;
    all.reserve(shots);
    const int ntraj = opt_.noise.is_ideal()
                          ? 1
                          : static_cast<int>(std::min<std::size_t>(
                                static_cast<std::size_t>(trajectories), shots));
    const std::size_t per_traj = shots / static_cast<std::size_t>(ntraj);
    std::optional<MpsSimulator> mps;
    bool holds_logical = false;  // the engine's state is the logical circuit's
    for (int t = 0; t < ntraj; ++t) {
      const std::size_t want = (t + 1 == ntraj) ? shots - per_traj * static_cast<std::size_t>(ntraj - 1)
                                                : per_traj;
      if (want == 0) continue;
      std::size_t errors = 0;
      const Circuit noisy = noise_trajectory(logical, opt_.noise, rng, &errors);
      const bool reuse = holds_logical && errors == 0;
      holds_logical = errors == 0;
      ++(reuse ? trajectories_reused : trajectories_simulated);
      std::vector<std::uint64_t> s;
      if (use_mps) {
        if (reuse) {
          fault_site("engine.mps.apply");
        } else {
          if (mps) {
            mps->reset();
          } else {
            mps.emplace(nq, opt_.max_bond);
          }
          mps->apply(noisy);
          if (mps->truncation_weight() > opt_.max_truncation_weight) {
            throw TransientDeviceError(
                "mps bond-cap overflow: truncation weight " +
                std::to_string(mps->truncation_weight()) + " exceeds bound " +
                std::to_string(opt_.max_truncation_weight) + " at max_bond " +
                std::to_string(opt_.max_bond) + " (retry on the dense engine)");
          }
        }
        s = mps->sample(want, rng);
      } else {
        FusedEngine& sim = dense_engine(precision);
        if (reuse) {
          fault_site("engine.dense.apply");
        } else {
          sim.reset();
          sim.apply(noisy);
        }
        s = sim.sample(want, rng);
      }
      apply_readout_error(s, nq, opt_.noise, rng);
      all.insert(all.end(), s.begin(), s.end());
    }
    return all;
  };

  VqeResult result;

  // Histogram-first evaluation: collapse shots to distinct bitstrings, score
  // each distinct bitstring once (memoised across COBYLA iterations that
  // revisit basins, batched through the allocation-free scratch kernel), and
  // let the weights carry the multiplicity into the CVaR estimator.
  BoundedEnergyCache cache(opt_.energy_cache_capacity);
  struct ScoredBit {
    std::uint64_t x;
    double energy;
    double weight;
  };
  std::vector<std::uint64_t> uncached_xs;      // reused across iterations
  std::vector<double> uncached_es;
  std::vector<const double*> cached;
  auto score_histogram = [&](const Histogram& hist) {
    // Sorted entries: deterministic arithmetic order regardless of the
    // unordered_map's layout.
    std::vector<ScoredBit> scored;
    scored.reserve(hist.size());
    for (const auto& [x, w] : sorted_entries(hist)) scored.push_back({x, 0.0, w});
    uncached_xs.clear();
    cached.assign(scored.size(), nullptr);
    for (std::size_t i = 0; i < scored.size(); ++i) {
      cached[i] = cache.find(scored[i].x);  // value pointers survive inserts
      if (cached[i] == nullptr) uncached_xs.push_back(scored[i].x);
    }
    uncached_es.resize(uncached_xs.size());
    h_.energies(uncached_xs, uncached_es);  // parallel scratch-kernel batch
    std::size_t next_uncached = 0;
    for (std::size_t i = 0; i < scored.size(); ++i) {
      if (cached[i] != nullptr) {
        scored[i].energy = *cached[i];
      } else {
        scored[i].energy = uncached_es[next_uncached++];
        cache.insert(scored[i].x, scored[i].energy);
      }
    }
    // Cache/batch zip accounting: every uncached entry was consumed exactly
    // once — a drift here silently mis-attributes energies to bitstrings.
    QDB_ENSURE(next_uncached == uncached_xs.size(),
               "uncached energy batch mismatch: consumed " << next_uncached
                   << " of " << uncached_xs.size());
    return scored;
  };

  // Stage 1: CVaR-VQE with COBYLA.  Raw per-iteration estimates are kept:
  // the paper's "lowest/highest energy of each quantum system during
  // optimization" are their extrema.
  std::vector<double> estimates;
  const bool mitigate = opt_.readout_mitigation && !opt_.noise.is_ideal();
  const ReadoutMitigator mitigator(nq, mitigate ? opt_.noise : NoiseModel::ideal());
  static obs::Counter& eval_count = obs::counter("vqe.stage1.evals");
  static obs::Counter& shot_count = obs::counter("vqe.shots");
  const Objective objective = [&](const std::vector<double>& params) {
    QDB_SPAN("vqe.stage1.eval");
    eval_count.add();
    shot_count.add(opt_.shots_per_eval);
    fault_site("vqe.stage1.evaluate");  // deterministic fault injection (ISSUE 2)
    const auto xs = sample_bitstrings(params, opt_.shots_per_eval,
                                      opt_.noise_trajectories, opt_.stage1_precision);
    Histogram hist = histogram_from_shots(xs);
    if (mitigate) hist = mitigator.mitigate(hist);
    // Both the mitigated (quasi-probability) and the raw (integer-count)
    // paths run through the weighted CVaR: one estimator, one code path.
    const auto scored = score_histogram(hist);
    std::vector<std::pair<double, double>> samples;
    samples.reserve(scored.size());
    for (const ScoredBit& s : scored) samples.emplace_back(s.energy, s.weight);
    const double estimate = cvar_weighted(std::move(samples), opt_.cvar_alpha);
    estimates.push_back(estimate);
    return estimate;
  };

  Rng init_rng = rng.split();
  const std::vector<double> x0 = ansatz.initial_point(init_rng, 0.25);
  // COBYLA needs a full simplex (one evaluation per parameter) before it can
  // take a single model step; guarantee room for the simplex plus progress.
  const int budget = std::max(opt_.max_evaluations, ansatz.num_parameters() + 20);
  OptimResult opt_result;
  {
    QDB_SPAN("vqe.stage1");
    opt_result = Cobyla().minimize(objective, x0, budget);
  }

  result.best_params = opt_result.x;
  result.best_cvar = opt_result.fx;
  result.evaluations = opt_result.evaluations;
  result.history = opt_result.history;

  QDB_REQUIRE(!estimates.empty(), "vqe made no energy estimates");
  double est_lo = estimates.front(), est_hi = estimates.front(), est_sum = 0.0;
  for (double e : estimates) {
    est_lo = std::min(est_lo, e);
    est_hi = std::max(est_hi, e);
    est_sum += e;
  }
  result.lowest_energy = est_lo;
  result.highest_energy = est_hi;
  result.energy_range = est_hi - est_lo;
  result.mean_energy = est_sum / static_cast<double>(estimates.size());

  // Stage 2: freeze the circuit, sample heavily, collapse the shots into a
  // histogram and score each *distinct* bitstring once (100k shots on a
  // <= 22-qubit register concentrate on a few hundred distinct outcomes).
  obs::Span stage2_span("vqe.stage2");
  fault_site("vqe.stage2.sample");  // deterministic fault injection (ISSUE 2)
  shot_count.add(opt_.final_shots);
  const auto final_samples = sample_bitstrings(
      result.best_params, opt_.final_shots, 2 * opt_.noise_trajectories,
      Precision::f64);
  QDB_REQUIRE(!final_samples.empty(), "stage-2 sampling produced no shots");
  const auto final_scored = score_histogram(histogram_from_shots(final_samples));
  result.stage2_distinct = final_scored.size();
  stage2_span.set_attr("distinct", std::to_string(final_scored.size()));
  double lo = std::numeric_limits<double>::infinity();
  std::uint64_t best_x = final_scored.front().x;
  for (const ScoredBit& s : final_scored) {
    // Deterministic argmin: strict less over ascending-x order picks the
    // smallest bitstring among exact energy ties.
    if (s.energy < lo) {
      lo = s.energy;
      best_x = s.x;
    }
  }
  result.sampled_min_energy = lo;
  // Lowest-energy bitstring audit (ISSUE 3): the published (bitstring,
  // energy) pair is the paper's headline claim per entry.  Re-score the
  // winner from scratch — if the memo or the batched kernel ever disagreed
  // with the reference evaluator, the dataset entry would be silently wrong.
  if constexpr (check::audit_enabled()) {
    const double re = h_.energy(best_x);
    QDB_AUDIT(re == lo,
              "stage-2 winner energy mismatch: cached=" << lo
                  << " recomputed=" << re << " bitstring=" << best_x);
  }

  // Classical refinement: greedy descents started from the lowest-energy
  // distinct samples of the measured distribution (the quantum stage
  // supplies the starting basins; the histogram scores are reused, no
  // stage-2 shot is re-evaluated).
  double best_e = lo;
  if (opt_.refine_bitstring) {
    QDB_SPAN("vqe.refine");
    std::vector<std::pair<double, std::uint64_t>> ranked;
    ranked.reserve(final_scored.size());
    for (const ScoredBit& s : final_scored) ranked.emplace_back(s.energy, s.x);
    std::sort(ranked.begin(), ranked.end());
    ranked.resize(std::min<std::size_t>(48, ranked.size()));
    const RefineOutcome refined = refine_descents(h_, ranked);
    for (const auto& [x, e] : refined.minima) {
      if (e < best_e) {
        best_e = e;
        best_x = x;
      }
    }
    static obs::Counter& refine_energies = obs::counter("vqe.refine.energies");
    static obs::Counter& refine_memo_hits = obs::counter("vqe.refine.memo_hits");
    static obs::Counter& refine_merged = obs::counter("vqe.refine.merged");
    refine_energies.add(refined.energies);
    refine_memo_hits.add(refined.memo_hits);
    refine_merged.add(refined.merged);
  }
  result.best_bitstring = best_x;
  result.best_energy = best_e;
  result.energy_cache_hits = cache.hits();
  static obs::Counter& cache_hits = obs::counter("vqe.energy_cache.hits");
  static obs::Counter& simulated = obs::counter("vqe.trajectories.simulated");
  static obs::Counter& reused = obs::counter("vqe.trajectories.reused");
  cache_hits.add(cache.hits());
  simulated.add(trajectories_simulated);
  reused.add(trajectories_reused);

  // Resource metadata.
  result.logical_qubits = nq;
  result.allocation = published_eagle_allocation(h_.length());
  result.total_shots = static_cast<std::size_t>(result.evaluations) * opt_.shots_per_eval +
                       opt_.final_shots;
  result.modeled_exec_time_s =
      ExecTimeModel{}.total_time_s(result.allocation.depth, opt_.noise, result.total_shots,
                                   result.evaluations, opt_.run_id);
  result.sim_wall_time_s = wall.seconds();
  return result;
}

}  // namespace qdb
