#include "quantum/statevector.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "quantum/sampling.h"

namespace qdb {

Statevector::Statevector(int num_qubits) : num_qubits_(num_qubits) {
  QDB_REQUIRE(num_qubits >= 1 && num_qubits <= 30, "statevector supports 1..30 qubits");
  amps_.assign(std::size_t{1} << num_qubits, cplx{0.0, 0.0});
  amps_[0] = 1.0;
}

void Statevector::reset() {
  std::fill(amps_.begin(), amps_.end(), cplx{0.0, 0.0});
  amps_[0] = 1.0;
  cdf_valid_ = false;
}

void Statevector::apply_1q(const std::array<std::array<cplx, 2>, 2>& u, int q) {
  const std::uint64_t bit = std::uint64_t{1} << q;
  const auto n = static_cast<std::int64_t>(dimension() >> 1);
  cplx* amps = amps_.data();
  // Enumerate indices with qubit q clear; the partner has it set.
  parallel_for_static(n, [&](std::int64_t k) {
    const auto uk = static_cast<std::uint64_t>(k);
    // Insert a 0 bit at position q.
    const std::uint64_t low = uk & (bit - 1);
    const std::uint64_t i0 = ((uk >> q) << (q + 1)) | low;
    const std::uint64_t i1 = i0 | bit;
    const cplx a0 = amps[i0];
    const cplx a1 = amps[i1];
    amps[i0] = u[0][0] * a0 + u[0][1] * a1;
    amps[i1] = u[1][0] * a0 + u[1][1] * a1;
  });
}

void Statevector::apply_2q(const std::array<std::array<cplx, 4>, 4>& u, int q0, int q1) {
  const std::uint64_t b0 = std::uint64_t{1} << q0;
  const std::uint64_t b1 = std::uint64_t{1} << q1;
  const int lo = std::min(q0, q1);
  const int hi = std::max(q0, q1);
  const auto n = static_cast<std::int64_t>(dimension() >> 2);
  cplx* amps = amps_.data();
  // Loop-invariant bit masks hoisted out of the per-index body.
  const std::uint64_t lo_mask = (std::uint64_t{1} << lo) - 1;
  const std::uint64_t mid_mask = (std::uint64_t{1} << (hi - 1)) - 1;
  const std::uint64_t mid_only = mid_mask & ~lo_mask;
  parallel_for_static(n, [&](std::int64_t k) {
    // Insert 0 bits at positions lo and hi.
    const auto idx = static_cast<std::uint64_t>(k);
    const std::uint64_t i = (idx & lo_mask) | ((idx & mid_only) << 1) |
                            ((idx & ~mid_mask) << 2);
    const std::uint64_t i00 = i;
    const std::uint64_t i01 = i | b0;  // q0 set
    const std::uint64_t i10 = i | b1;  // q1 set
    const std::uint64_t i11 = i | b0 | b1;
    // Matrix basis ordering |q1 q0>: row/col index = 2*bit(q1) + bit(q0).
    const cplx a0 = amps[i00];
    const cplx a1 = amps[i01];
    const cplx a2 = amps[i10];
    const cplx a3 = amps[i11];
    amps[i00] = u[0][0] * a0 + u[0][1] * a1 + u[0][2] * a2 + u[0][3] * a3;
    amps[i01] = u[1][0] * a0 + u[1][1] * a1 + u[1][2] * a2 + u[1][3] * a3;
    amps[i10] = u[2][0] * a0 + u[2][1] * a1 + u[2][2] * a2 + u[2][3] * a3;
    amps[i11] = u[3][0] * a0 + u[3][1] * a1 + u[3][2] * a2 + u[3][3] * a3;
  });
}

void Statevector::apply(const Gate& g) {
  QDB_REQUIRE(g.q0 < num_qubits_ && g.q1 < num_qubits_, "gate qubit out of range");
  cdf_valid_ = false;
  if (is_two_qubit(g.kind)) {
    apply_2q(gate_matrix_2q(g.kind), g.q0, g.q1);
  } else {
    apply_1q(gate_matrix_1q(g.kind, g.angle), g.q0);
  }
}

void Statevector::apply(const Circuit& c) {
  QDB_REQUIRE(c.num_qubits() <= num_qubits_, "circuit wider than statevector");
  fault_site("engine.dense.apply");  // deterministic fault injection (ISSUE 2)
  for (const Gate& g : c.gates()) apply(g);
  // All supported gates are unitary, so the statevector norm must survive an
  // entire circuit to within accumulated rounding (ISSUE 3 invariant
  // catalog).  Checked per circuit, not per gate: norm2() is O(dim).
  if constexpr (check::audit_enabled()) {
    const double n2 = norm2();
    QDB_AUDIT(std::abs(n2 - 1.0) < 1e-6,
              "statevector norm drifted after circuit: norm2=" << n2
                  << " gates=" << c.gates().size());
  }
}

double Statevector::probability(std::uint64_t index) const {
  QDB_REQUIRE(index < dimension(), "probability index out of range");
  return std::norm(amps_[index]);
}

double Statevector::expectation_diagonal(
    const std::function<double(std::uint64_t)>& f) const {
  const cplx* amps = amps_.data();
  return parallel_reduce(static_cast<std::int64_t>(dimension()), [&](std::int64_t i) {
    const double p = std::norm(amps[static_cast<std::uint64_t>(i)]);
    return p > 0.0 ? p * f(static_cast<std::uint64_t>(i)) : 0.0;
  });
}

double Statevector::norm2() const {
  const cplx* amps = amps_.data();
  return parallel_reduce(static_cast<std::int64_t>(dimension()),
                         [&](std::int64_t i) { return std::norm(amps[i]); });
}

std::vector<std::uint64_t> Statevector::sample(std::size_t shots, Rng& rng) const {
  // Inverse-CDF sampling over sorted uniforms: build the CDF once, then walk
  // it with the sorted draws — O(dim + shots log shots).  The prefix pass is
  // the O(dim) part, and the state rarely changes between calls (one call
  // per noise trajectory per COBYLA iteration, stage-2's 100k-shot pass),
  // so the CDF is cached until the next apply/reset rather than rebuilt.
  if (!cdf_valid_) {
    std::vector<double>& cdf = cdf_scratch_;
    cdf.resize(amps_.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < amps_.size(); ++i) {
      acc += std::norm(amps_[i]);
      cdf[i] = acc;
    }
    cdf_total_ = acc > 0.0 ? acc : 1.0;
    cdf_valid_ = true;
  }
  return detail::sample_sorted_cdf(cdf_scratch_, cdf_total_, shots, rng,
                                   draw_scratch_);
}

double Statevector::fidelity(const Statevector& a, const Statevector& b) {
  QDB_REQUIRE(a.dimension() == b.dimension(), "fidelity: dimension mismatch");
  const cplx* pa = a.amps_.data();
  const cplx* pb = b.amps_.data();
  const cplx inner = parallel_reduce(static_cast<std::int64_t>(a.amps_.size()),
                                     [&](std::int64_t i) { return std::conj(pa[i]) * pb[i]; });
  return std::norm(inner);
}

}  // namespace qdb
