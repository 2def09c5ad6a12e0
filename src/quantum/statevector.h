// Dense statevector simulator.
//
// Exact simulation for circuits up to ~24 qubits (the compact turn encoding
// of every QDockBank fragment fits: at most 22 qubits for 14 residues).
// Amplitude loops run on common/parallel.h's thread pool.  Qubit 0 is the least-significant bit
// of the state index.
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "quantum/circuit.h"

namespace qdb {

class Statevector {
 public:
  /// Initialises |0...0>.
  explicit Statevector(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  std::uint64_t dimension() const { return std::uint64_t{1} << num_qubits_; }
  const std::vector<cplx>& amplitudes() const { return amps_; }

  /// Reset to |0...0>.
  void reset();

  void apply(const Gate& g);
  void apply(const Circuit& c);

  /// Probability of measuring basis state `index`.
  double probability(std::uint64_t index) const;

  /// <psi| f |psi> for an operator diagonal in the computational basis,
  /// where f(x) is the diagonal entry for bitstring x.
  double expectation_diagonal(const std::function<double(std::uint64_t)>& f) const;

  /// Sum of |amp|^2 (1.0 up to round-off for unitary circuits).
  double norm2() const;

  /// Draw `shots` measurement outcomes.  Deterministic given the rng state.
  /// The CDF prefix pass is cached across calls and invalidated by
  /// apply/reset, so repeated sampling of an unchanged state costs
  /// O(shots log shots), not O(dim) per call (ISSUE 6).
  std::vector<std::uint64_t> sample(std::size_t shots, Rng& rng) const;

  /// Fidelity |<a|b>|^2 between two states of equal dimension.
  static double fidelity(const Statevector& a, const Statevector& b);

 private:
  void apply_1q(const std::array<std::array<cplx, 2>, 2>& u, int q);
  void apply_2q(const std::array<std::array<cplx, 4>, 4>& u, int q0, int q1);

  int num_qubits_;
  std::vector<cplx> amps_;
  // Reusable sampling buffers (see sample()).  Logically const scratch: the
  // simulator state is unchanged by sampling.  sample() already mutates the
  // caller's Rng, so it was never safe to call concurrently on one instance.
  // cdf_scratch_ doubles as a cache of the prefix sums, valid until the
  // next apply/reset.
  mutable std::vector<double> cdf_scratch_;
  mutable std::vector<double> draw_scratch_;
  mutable double cdf_total_ = 1.0;
  mutable bool cdf_valid_ = false;
};

}  // namespace qdb
