// Layer-grouping metadata for gate fusion (ISSUE 6).
//
// The fusion pass (quantum/fusion.h) folds runs of adjacent one-qubit gates
// and their neighbouring two-qubit gate into single 2x2/4x4 applications.
// Deciding *which* gates belong together is a circuit-structure question,
// not a matrix question, so it lives here next to the other structural
// passes (basis lowering, routing): a single left-to-right sweep groups each
// circuit into wire runs — maximal sequences of one-qubit gates on one wire,
// and two-qubit gates annotated with the one-qubit runs they absorb.
//
// The grouping is purely metadata: it references gates by index into the
// source circuit and never touches matrices, so both the fused engine and
// diagnostics (fused-gates ratio, bench sweep columns) consume the same
// analysis.
#pragma once

#include <cstddef>
#include <vector>

#include "quantum/circuit.h"

namespace qdb {

/// One fused application site: either a maximal run of one-qubit gates on a
/// single wire, or a two-qubit gate together with the one-qubit runs on its
/// operands that precede it (which the fusion pass folds into a 4x4).
struct GateRun {
  bool two_qubit = false;
  int q0 = 0;             ///< wire (1q) or first operand (2q)
  int q1 = -1;            ///< second operand (2q only)
  /// Indices into Circuit::gates(), in application order.  For a 2q run the
  /// last index is the two-qubit gate itself; everything before it is the
  /// absorbed one-qubit prefix on either operand.
  std::vector<std::size_t> gates;
};

/// The full grouping of a circuit plus the accounting the kernel counters
/// report (obs `kernel.fusion.*`).
struct LayerGrouping {
  std::vector<GateRun> runs;
  std::size_t gates_in = 0;   ///< gates in the source circuit
  std::size_t runs_out() const { return runs.size(); }
  /// gates per fused application, >= 1.0; the "fused-gates ratio".
  double fusion_ratio() const {
    return runs.empty() ? 1.0
                        : static_cast<double>(gates_in) / static_cast<double>(runs.size());
  }
};

/// Group `c` into wire runs with a single sweep.  `max_run` caps how many
/// one-qubit gates a run may absorb (FusionOptions::max_run, a fixed
/// program property, never timed); 0 means unlimited.  Gate order within
/// and across runs preserves circuit order per wire, so applying the runs
/// left to right is equivalent to the circuit.
LayerGrouping group_wire_runs(const Circuit& c, int max_run = 0);

}  // namespace qdb
