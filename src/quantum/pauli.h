// Diagonal Pauli-Z operators.
//
// The folding Hamiltonian is diagonal in the computational basis, so its
// qubit-operator form is a polynomial of Pauli-Z products:
//
//     H = sum_m  c_m  *  prod_{q in mask_m} Z_q
//
// This module gives that representation explicitly: exact expansion of any
// diagonal function via the Walsh-Hadamard transform, and evaluation.  An
// expectation <psi|H|psi> is a diagonal sum over a state; the tests take it
// with value() on the test oracle Statevector (tests/support/statevector.h),
// and the VQE scores sampled bitstrings classically.  It also makes the
// paper's large positive energies transparent: the identity (mask = 0)
// coefficient of a penalty-encoded Hamiltonian is its mean over all
// bitstrings — the constant floor that dominates Tables 1-3 (see
// lattice/hamiltonian.h).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace qdb {

/// One term: coeff * product of Z over the set bits of mask.
struct PauliZTerm {
  std::uint64_t mask = 0;
  double coeff = 0.0;
};

class DiagonalPauliOp {
 public:
  explicit DiagonalPauliOp(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  std::size_t num_terms() const { return terms_.size(); }
  const std::vector<PauliZTerm>& terms() const { return terms_; }

  /// Add (or merge into) a term.
  void add(std::uint64_t mask, double coeff);

  /// Coefficient of the identity term (0 if absent).
  double identity_coefficient() const;

  /// Diagonal entry for bitstring x:  sum c_m * (-1)^popcount(x & mask_m).
  double value(std::uint64_t x) const;

  /// Exact Pauli expansion of an arbitrary diagonal function on n qubits via
  /// the Walsh-Hadamard transform (cost O(n 2^n); n <= 20).  Coefficients
  /// below `tol` are dropped.
  static DiagonalPauliOp from_function(int num_qubits,
                                       const std::function<double(std::uint64_t)>& f,
                                       double tol = 1e-12);

 private:
  int num_qubits_;
  std::vector<PauliZTerm> terms_;
};

}  // namespace qdb
