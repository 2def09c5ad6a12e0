// Hardware noise model for utility-level superconducting processors.
//
// The paper runs on IBM Eagle r3 (127 qubits, T1 ~ 60-120 us, T2 ~ 40-100 us,
// paper §5.2) and argues that moderate noise acts as a stochastic
// perturbation that helps VQE escape local minima.  We model the dominant
// effects with stochastic Pauli-error trajectories (one sampled error
// realisation per circuit execution) plus classical readout bit-flips:
//   - depolarizing error after every 1q and 2q gate,
//   - thermal relaxation folded into the per-gate depolarizing rates
//     (derived from gate time / T1, T2),
//   - readout assignment errors on the sampled bitstrings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "quantum/circuit.h"

namespace qdb {

struct NoiseModel {
  double p_depol_1q = 0.0;   // depolarizing probability per 1q gate
  double p_depol_2q = 0.0;   // depolarizing probability per 2q gate
  double p_readout_01 = 0.0; // P(read 1 | prepared 0)
  double p_readout_10 = 0.0; // P(read 0 | prepared 1)

  // Device timing parameters (used by the execution-time model).
  double t1_us = 100.0;
  double t2_us = 70.0;
  double gate_time_1q_ns = 35.0;
  double gate_time_2q_ns = 460.0;   // ECR duration on Eagle
  double readout_time_ns = 4000.0;

  /// Noise-free model (for exact tests and ideal baselines).
  static NoiseModel ideal();

  /// Calibrated to public IBM Eagle r3 medians: ~3e-4 1q error, ~7e-3 2q
  /// (ECR) error, ~1-2% readout assignment error.
  static NoiseModel eagle_r3();

  /// Uniformly scale all error probabilities (for the noise ablation bench).
  NoiseModel scaled(double factor) const;

  bool is_ideal() const {
    return p_depol_1q == 0.0 && p_depol_2q == 0.0 && p_readout_01 == 0.0 &&
           p_readout_10 == 0.0;
  }
};

/// Sample one stochastic error realisation of `c`: after each gate, with the
/// model's depolarizing probability, insert a uniformly random non-identity
/// Pauli on the affected qubit(s).  Averaging runs over trajectories
/// converges to the depolarizing channel.  If `errors` is given it receives
/// the number of errors drawn; each appends at least one gate, so a
/// trajectory that drew none is gate for gate `c` (a "clean" trajectory).
Circuit noise_trajectory(const Circuit& c, const NoiseModel& m, Rng& rng,
                         std::size_t* errors = nullptr);

/// Apply readout assignment errors to sampled bitstrings in place.
void apply_readout_error(std::vector<std::uint64_t>& shots, int num_qubits,
                         const NoiseModel& m, Rng& rng);

/// Total modelled wall-clock duration of one execution of `c` followed by
/// measurement, in seconds (used by the execution-time model of Tables 1-3).
double circuit_duration_s(const Circuit& c, const NoiseModel& m);

}  // namespace qdb
