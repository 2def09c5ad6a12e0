// Dense statevector simulator: the test oracle.
//
// The plainest exact simulator of a circuit: one gate at a time over
// std::complex<double> amplitudes, serial loops, no fusion, no blocking,
// no SIMD and no caching.  The production engines (quantum/kernels.h's
// FusedEngine, quantum/mps.h's MpsSimulator) are checked against it; no
// library target links it.  Qubit 0 is the least-significant bit of the
// state index.
#pragma once

#include <array>
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

  /// Draw `shots` measurement outcomes.  Deterministic given the rng state:
  /// full CDF, one uniform per shot, sorted draws walked linearly, then a
  /// Fisher-Yates unshuffle — the Rng consumption FusedEngine::sample must
  /// reproduce draw for draw.
  std::vector<std::uint64_t> sample(std::size_t shots, Rng& rng) const;

  /// Fidelity |<a|b>|^2 between two states of equal dimension.
  static double fidelity(const Statevector& a, const Statevector& b);

 private:
  void apply_1q(const std::array<std::array<cplx, 2>, 2>& u, int q);
  void apply_2q(const std::array<std::array<cplx, 4>, 4>& u, int q0, int q1);

  int num_qubits_;
  std::vector<cplx> amps_;
};

}  // namespace qdb
