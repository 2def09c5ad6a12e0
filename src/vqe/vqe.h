// VQE driver for the folding Hamiltonian (paper §4.3.2 and §5.2).
//
// Reproduces the paper's two-stage quantum workflow:
//   Stage 1 — variational optimisation: COBYLA minimises a CVaR-alpha
//     estimate of <H> computed from a modest number of shots per evaluation,
//     under the Eagle noise model (stochastic Pauli trajectories + readout
//     errors).  CVaR (mean of the lowest alpha-fraction of sampled energies)
//     is the standard estimator for folding VQE (Robert et al. 2021): for a
//     diagonal Hamiltonian the goal is a good *sample*, not a good mean.
//   Stage 2 — the optimised circuit is frozen and executed with 100,000
//     measurement shots; the lowest-energy bitstrings map to conformations.
//
// Simulation engine: dense statevector for small registers, MPS for the
// larger L-group circuits (linear-entanglement EfficientSU2 keeps the bond
// dimension tiny).  All runs are deterministic per seed.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lattice/allocation.h"
#include "lattice/hamiltonian.h"
#include "optimize/optimizer.h"
#include "quantum/kernels.h"
#include "quantum/noise.h"

namespace qdb {

struct VqeOptions {
  int reps = 2;                    // EfficientSU2 repetitions
  int max_evaluations = 200;       // classical optimisation budget (paper: >200)
  std::size_t shots_per_eval = 512;  // stage-1 estimation shots
  std::size_t final_shots = 100000;  // stage-2 sampling shots (paper: 100,000)
  double cvar_alpha = 0.05;        // CVaR tail fraction (Robert et al. use 0.025-0.1)
  NoiseModel noise = NoiseModel::eagle_r3();
  int noise_trajectories = 2;      // error realisations per evaluation
  std::uint64_t seed = 1;
  int max_bond = 64;               // MPS bond-dimension cap
  std::string run_id = "fragment"; // seeds the execution-time queue factor

  // Classical post-processing of the measured bitstrings: greedy single-
  // turn descent from the lowest-energy sample (the classical half of the
  // hybrid workflow; the quantum stage supplies the starting basin).
  bool refine_bitstring = true;

  // Readout-error mitigation: correct each iteration's measured histogram
  // with the tensor-product inverse confusion matrix before estimating the
  // CVaR (standard utility-hardware practice; see quantum/mitigation.h).
  bool readout_mitigation = false;

  enum class Engine { Auto, Dense, Mps };
  Engine engine = Engine::Auto;    // Auto: dense <= 14 qubits, MPS above

  // Working precision of the dense engine during stage-1 shot scoring
  // (ISSUE 6).  f32 runs the fused single-precision kernels: it perturbs
  // only *which bitstrings get sampled* (amplitudes good to ~1e-6) while
  // every energy is still scored classically in f64.  Stage 2 and the
  // refine path always run f64, so published energies and the stage-2
  // histogram are computed at full precision regardless of this setting.
  // Set to Precision::f64 to make stage-1 bit-identical to the pre-fusion
  // scalar engine.
  Precision stage1_precision = Precision::f32;

  // Bound on the per-driver bitstring -> energy memo.  COBYLA iterations
  // revisit the same basins, so distinct bitstrings scored in earlier
  // iterations are reused for free.  0 disables caching.
  std::size_t energy_cache_capacity = std::size_t{1} << 18;

  // MPS fidelity guard (ISSUE 2): if the accumulated truncation weight of an
  // MPS trajectory exceeds this bound, the run throws TransientDeviceError
  // ("bond-cap overflow") — the signal the batch executor's degradation
  // ladder uses to re-run the job on the dense engine.  The default
  // (infinity) keeps the historical truncate-silently behaviour.
  double max_truncation_weight = std::numeric_limits<double>::infinity();
};

/// Bounded bitstring -> energy memo used by the histogram evaluation path.
/// Insertions stop once the capacity is reached (the hot basins are scored
/// in the earliest iterations, so a simple stop-inserting policy keeps the
/// memo effective without eviction bookkeeping).
///
/// Thread-safety: the *map* is unsynchronised — inserts must stay on one
/// thread (the VQE driver honours this by batching uncached lookups through
/// FoldingHamiltonian::energies, which parallelises internally, instead of
/// sharing the cache across threads).  The hit/miss counters, however, are
/// observability telemetry mutated through a const find(); they are relaxed
/// atomics so that concurrent read-only lookups (e.g. several VQE drivers
/// probing caches while the batch executor runs jobs in parallel, or future
/// shared-cache experiments) never constitute a data race.  Relaxed ordering
/// is enough: the counters carry no synchronisation meaning, only totals.
class BoundedEnergyCache {
 public:
  /// A capacity of 0 disables the memo entirely: nothing is ever stored,
  /// every find() is a (counted) miss, and insert() returns false.
  explicit BoundedEnergyCache(std::size_t capacity) : capacity_(capacity) {}

  /// Pointer to the cached energy, or nullptr on a miss.  The returned
  /// pointer stays valid across insert() calls (std::unordered_map never
  /// invalidates value references on insertion).
  const double* find(std::uint64_t x) const {
    if (capacity_ == 0) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    const auto it = map_.find(x);
    if (it == map_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return &it->second;
  }

  /// Store the score if there is room.  Returns true iff the entry was
  /// newly stored (false when at capacity, capacity is 0, or the key was
  /// already present).
  bool insert(std::uint64_t x, double e) {
    if (capacity_ == 0 || map_.size() >= capacity_) return false;
    return map_.emplace(x, e).second;
  }

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  std::size_t capacity_;
  std::unordered_map<std::uint64_t, double> map_;
  // Mutated by the const find(); see the class comment.
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
};

struct VqeResult {
  // Optimisation outcome.
  std::vector<double> best_params;
  double best_cvar = 0.0;          // best CVaR estimate seen in stage 1
  int evaluations = 0;
  std::vector<double> history;     // best-so-far CVaR per evaluation

  // Energy statistics "during optimization" (the Tables 1-3 columns): the
  // minimum and maximum CVaR energy estimate across stage-1 iterations.
  double lowest_energy = 0.0;
  double highest_energy = 0.0;
  double energy_range = 0.0;         // highest - lowest
  double mean_energy = 0.0;          // mean estimate across iterations

  // Stage-2 sampling outcome.
  std::uint64_t best_bitstring = 0;  // best conformation after refinement
  double best_energy = 0.0;          // its energy
  double sampled_min_energy = 0.0;   // lowest single-shot energy in stage 2

  // Resource metadata (the paper's per-fragment metadata JSON).
  int logical_qubits = 0;            // compact turn-encoding register
  EagleAllocation allocation;        // published hardware allocation profile
  std::size_t total_shots = 0;
  double modeled_exec_time_s = 0.0;  // execution-time model (see exec_time.h)
  double sim_wall_time_s = 0.0;      // actual simulator wall time

  // Evaluation-pipeline telemetry: how hard the histogram collapse and the
  // energy memo worked (stage-2 shots / distinct is the per-shot-loop
  // speedup factor the histogram path realises).
  std::size_t stage2_distinct = 0;    // distinct bitstrings in stage-2 shots
  std::size_t energy_cache_hits = 0;  // memo hits across both stages
};

/// Outcome and work tallies of refine_descents.
struct RefineOutcome {
  /// minima[i] is the (bitstring, energy) local minimum starts[i] reaches.
  std::vector<std::pair<std::uint64_t, double>> minima;
  std::size_t energies = 0;   // energy_scratch evaluations run
  std::size_t memo_hits = 0;  // candidate energies served by the slot memo
  std::size_t merged = 0;     // descents that reached an earlier one's path
};

/// Classical refinement of measured conformations (the classical half of
/// the hybrid workflow): from each start (energy, bitstring), with the
/// energy as h scores it, a greedy descent takes the first improving
/// single-turn change, else the first improving two-turn change, until
/// neither improves.  Runs the descents in start order on the calling
/// thread.  Each candidate energy is looked up in a 4096-slot memo first,
/// and a descent that reaches a state an earlier descent passed through
/// takes that descent's minimum, so the minima are bit for bit those of
/// running every descent on its own.
RefineOutcome refine_descents(const FoldingHamiltonian& h,
                              std::span<const std::pair<double, std::uint64_t>> starts);

class VqeDriver {
 public:
  VqeDriver(const FoldingHamiltonian& hamiltonian, VqeOptions options);

  /// Run both stages.  Deterministic per options.seed.
  VqeResult run() const;

  /// CVaR_alpha of a set of sampled energies: the mean of the lowest
  /// ceil(alpha * n) values.  Exposed for tests and the estimator ablation.
  static double cvar(std::vector<double> energies, double alpha);

  /// Weighted CVaR over (energy, weight) pairs — used for mitigated
  /// quasi-probability histograms.  Negative weights are clamped to zero.
  static double cvar_weighted(std::vector<std::pair<double, double>> samples,
                              double alpha);

 private:
  const FoldingHamiltonian& h_;
  VqeOptions opt_;
};

/// Whether a VqeDriver run over `num_qubits` with `opt` uses the MPS engine
/// (Engine::Mps, or Engine::Auto above 14 qubits) rather than the dense one.
bool uses_mps_engine(int num_qubits, const VqeOptions& opt);

}  // namespace qdb
