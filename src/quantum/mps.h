// Matrix-product-state (MPS) simulator.
//
// The EfficientSU2 ansatz the paper runs (RY/RZ layers + linear CX
// entanglement, paper §4.3.2) generates little entanglement per layer, so an
// MPS with a modest bond dimension simulates the full 22-qubit L-group
// circuits in milliseconds where a dense statevector would need 4M
// amplitudes.  This mirrors Qiskit Aer's "matrix_product_state" method.
//
// Sites are qubits in index order; two-qubit gates on non-adjacent qubits are
// routed with exact adjacent SWAP applications.  Truncation keeps at most
// `max_bond` singular values per bond and drops values below
// `trunc_tol * s_max`; the accumulated discarded weight is tracked.
//
// sample() draws shots by sequential conditional sampling, qubit 0 first.
// Shots that share a bit prefix share the conditional vector and the two
// probabilities of the next bit, so one call builds a prefix trie: a node
// per distinct prefix the shots reach, expanded on first visit (the
// contraction v_p = vec . A(:,p,:) and p_p = v_p^dag env v_p, both bits)
// and only walked afterwards.  Expansion runs the same loops in the same
// order as a per-shot walk would, so the trie changes no bit of the result.
// The RNG stream contract is one rng.uniform() per qubit per shot, none
// when both probabilities vanish, in shot-major then qubit order — so the
// shots, and every draw the caller makes afterwards, are what the plain
// walk would give.  Child vectors live in one arena per call; past a fixed
// byte budget (a few MiB) the trie stops growing and a shot leaving it
// finishes with the same per-qubit step on scratch buffers.  sample() keeps
// no state between calls, so one simulator may be sampled from many
// threads at once.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "quantum/circuit.h"

namespace qdb {

class MpsSimulator {
 public:
  explicit MpsSimulator(int num_qubits, int max_bond = 64, double trunc_tol = 1e-12);

  int num_qubits() const { return num_qubits_; }

  /// Reset to |0...0>.
  void reset();

  void apply(const Gate& g);
  /// Apply every gate of `c`.  Adds the SVDs it ran to the counter
  /// `mps.svds` and records the largest bond it reached in the histogram
  /// `mps.peak_bond`, once per call.
  void apply(const Circuit& c);

  /// Largest bond dimension currently in the state.
  int max_bond_reached() const;

  /// Local estimate of the squared-norm weight discarded by truncation so
  /// far.  (Exact only when truncating in canonical form; use norm2() for
  /// the true global norm.)
  double truncation_weight() const { return truncated_weight_; }

  /// Amplitude <x|psi> of one basis state (qubit 0 = low bit of x).
  cplx amplitude(std::uint64_t x) const;

  /// Squared norm of the state (1.0 up to truncation).
  double norm2() const;

  /// Draw `shots` measurement outcomes by sequential conditional sampling
  /// (prefix-memoised; see the class comment).
  std::vector<std::uint64_t> sample(std::size_t shots, Rng& rng) const;

 private:
  /// Read access to the site tensors for the per-shot sampling oracle and
  /// the std::complex two-site update oracle in tests/test_quantum.cpp.
  friend struct MpsSamplingOracle;
  friend struct MpsTwoSiteOracle;

  struct Site {
    // Row-major tensor: value(l, p, r) = data[(l * 2 + p) * chi_r + r].
    std::vector<cplx> data;
    int chi_l = 1;
    int chi_r = 1;
  };

  void apply_1q(const std::array<std::array<cplx, 2>, 2>& u, int q);
  /// Two-qubit gate on adjacent sites (low, low+1); first_is_low tells
  /// whether the gate's first operand (its q0) is the low site.
  void apply_2q_adjacent(const std::array<std::array<cplx, 4>, 4>& u, int low,
                         bool first_is_low);
  void swap_adjacent(int low);

  /// Right environments for sampling: env[i] is the chi_i x chi_i matrix of
  /// the contraction of sites i..n-1 with physical indices summed.
  std::vector<std::vector<cplx>> right_environments() const;

  /// Working storage of apply_2q_adjacent, grown to the largest update
  /// seen and reused, so a gate allocates nothing once it is warm.
  struct Scratch {
    std::vector<cplx> theta;  ///< theta(l, pa, pb, r), row-major
    std::vector<cplx> cols;   ///< the (2 chi_l) x (2 chi_r) matrix, column-major
    std::vector<cplx> v;      ///< Jacobi's right rotations, column-major
    std::vector<double> norms;
    std::vector<int> order;
  };

  int num_qubits_;
  int max_bond_;
  double trunc_tol_;
  double truncated_weight_ = 0.0;
  std::vector<Site> sites_;
  Scratch scratch_;
  // Work tallies of the apply(Circuit) in progress.
  std::uint64_t svds_ = 0;
  int peak_bond_ = 1;
};

}  // namespace qdb
