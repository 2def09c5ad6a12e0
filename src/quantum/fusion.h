// Gate fusion: fold wire runs into single 2x2/4x4 applications (ISSUE 6).
//
// The fused statevector engine (quantum/kernels.h) executes a FusedProgram
// instead of a raw gate list.  A program is produced at one of two fidelity
// levels:
//
//  * exact (fuse_matrices = false): every source gate keeps its own matrix.
//    The engine still batches consecutive block-local ops per cache block
//    (traversal fusion), which reorders only *which amplitudes are resident
//    in L1 when*, never the arithmetic on any amplitude — so the float64
//    path stays bit-identical to the one-gate-at-a-time loop of the test
//    oracle Statevector (tests/support/statevector.h).
//
//  * fused (fuse_matrices = true): each wire run (transpile/layers.h) is
//    premultiplied into one 2x2, and a two-qubit gate plus its absorbed
//    one-qubit prefixes becomes one 4x4 via U4 * (B ⊗ A).  Premultiplication
//    reassociates floating-point products, so results agree with the exact
//    path only to rounding; this level backs the Precision::f32 stage-1
//    mode where sampled bitstrings tolerate ~1e-6 amplitude error.
//
// Fusion choices are deliberately deterministic: the matrix-fusion depth cap
// is a fixed program property (FusionOptions::max_run), never a timing
// decision, so identical inputs produce identical programs on every host.
// The engine's cache-block size (default_block_qubits in quantum/kernels.h)
// is results-neutral at both fidelity levels.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "quantum/gate.h"

namespace qdb {

class Circuit;

/// One fused application: a 2x2 on wire q0, or a 4x4 on (q0, q1) in the
/// |q1 q0> basis ordering of gate_matrix_2q.
struct FusedOp {
  bool two_qubit = false;
  int q0 = 0;
  int q1 = -1;
  std::array<std::array<cplx, 2>, 2> m2{};  ///< valid when !two_qubit
  std::array<std::array<cplx, 4>, 4> m4{};  ///< valid when two_qubit
  std::size_t gates = 1;                    ///< source gates folded in
};

struct FusionOptions {
  /// Premultiply wire runs into single matrices (float-reassociating).  When
  /// false the program is gate-per-op and arithmetically exact.
  bool fuse_matrices = true;
  /// Cap on one-qubit gates absorbed per run; 0 = unlimited.  Only
  /// meaningful with fuse_matrices (the bench sweeps it; production uses 0).
  int max_run = 0;
};

struct FusedProgram {
  int num_qubits = 0;
  std::vector<FusedOp> ops;
  std::size_t gates_in = 0;  ///< gates in the source circuit
  /// Source gates per emitted op — the "fused-gates ratio" kernel counter.
  double fusion_ratio() const {
    return ops.empty() ? 1.0
                       : static_cast<double>(gates_in) /
                             static_cast<double>(ops.size());
  }
};

/// Lower a circuit to a fused program.  Preserves per-wire gate order, so
/// executing the ops left to right is equivalent to the circuit (exactly so
/// when fuse_matrices is false, to rounding otherwise).
FusedProgram fuse_circuit(const Circuit& c, const FusionOptions& opt = {});

/// 2x2 complex matrix product a*b (a applied after b).
std::array<std::array<cplx, 2>, 2> matmul_2x2(
    const std::array<std::array<cplx, 2>, 2>& a,
    const std::array<std::array<cplx, 2>, 2>& b);

/// 4x4 complex matrix product a*b (a applied after b).
std::array<std::array<cplx, 4>, 4> matmul_4x4(
    const std::array<std::array<cplx, 4>, 4>& a,
    const std::array<std::array<cplx, 4>, 4>& b);

/// Kronecker product (hi ⊗ lo) in the |q1 q0> ordering: row = 2*r1 + r0.
std::array<std::array<cplx, 4>, 4> kron_2x2(
    const std::array<std::array<cplx, 2>, 2>& hi,
    const std::array<std::array<cplx, 2>, 2>& lo);

}  // namespace qdb
