#include "support/statevector.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/error.h"

namespace qdb {

Statevector::Statevector(int num_qubits) : num_qubits_(num_qubits) {
  QDB_REQUIRE(num_qubits >= 1 && num_qubits <= 30, "statevector supports 1..30 qubits");
  amps_.assign(std::size_t{1} << num_qubits, cplx{0.0, 0.0});
  amps_[0] = 1.0;
}

void Statevector::reset() {
  std::fill(amps_.begin(), amps_.end(), cplx{0.0, 0.0});
  amps_[0] = 1.0;
}

void Statevector::apply_1q(const std::array<std::array<cplx, 2>, 2>& u, int q) {
  const std::uint64_t bit = std::uint64_t{1} << q;
  const std::uint64_t n = dimension() >> 1;
  cplx* amps = amps_.data();
  // Enumerate indices with qubit q clear; the partner has it set.
  for (std::uint64_t k = 0; k < n; ++k) {
    // Insert a 0 bit at position q.
    const std::uint64_t i0 = ((k >> q) << (q + 1)) | (k & (bit - 1));
    const std::uint64_t i1 = i0 | bit;
    const cplx a0 = amps[i0];
    const cplx a1 = amps[i1];
    amps[i0] = u[0][0] * a0 + u[0][1] * a1;
    amps[i1] = u[1][0] * a0 + u[1][1] * a1;
  }
}

void Statevector::apply_2q(const std::array<std::array<cplx, 4>, 4>& u, int q0, int q1) {
  const std::uint64_t b0 = std::uint64_t{1} << q0;
  const std::uint64_t b1 = std::uint64_t{1} << q1;
  const int lo = std::min(q0, q1);
  const int hi = std::max(q0, q1);
  const std::uint64_t lo_mask = (std::uint64_t{1} << lo) - 1;
  const std::uint64_t mid_mask = (std::uint64_t{1} << (hi - 1)) - 1;
  const std::uint64_t mid_only = mid_mask & ~lo_mask;
  const std::uint64_t n = dimension() >> 2;
  cplx* amps = amps_.data();
  for (std::uint64_t k = 0; k < n; ++k) {
    // Insert 0 bits at positions lo and hi.
    const std::uint64_t i = (k & lo_mask) | ((k & mid_only) << 1) | ((k & ~mid_mask) << 2);
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
  }
}

void Statevector::apply(const Gate& g) {
  QDB_REQUIRE(g.q0 < num_qubits_ && g.q1 < num_qubits_, "gate qubit out of range");
  if (is_two_qubit(g.kind)) {
    apply_2q(gate_matrix_2q(g.kind), g.q0, g.q1);
  } else {
    apply_1q(gate_matrix_1q(g.kind, g.angle), g.q0);
  }
}

void Statevector::apply(const Circuit& c) {
  QDB_REQUIRE(c.num_qubits() <= num_qubits_, "circuit wider than statevector");
  for (const Gate& g : c.gates()) apply(g);
  // All supported gates are unitary, so the statevector norm must survive an
  // entire circuit to within accumulated rounding.  Checked per circuit, not
  // per gate: norm2() is O(dim).
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
  double acc = 0.0;
  for (std::uint64_t i = 0; i < dimension(); ++i) {
    const double p = std::norm(amps_[i]);
    if (p > 0.0) acc += p * f(i);
  }
  return acc;
}

double Statevector::norm2() const {
  double acc = 0.0;
  for (const cplx& a : amps_) acc += std::norm(a);
  return acc;
}

std::vector<std::uint64_t> Statevector::sample(std::size_t shots, Rng& rng) const {
  std::vector<double> cdf(amps_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    acc += std::norm(amps_[i]);
    cdf[i] = acc;
  }
  const double total = acc > 0.0 ? acc : 1.0;
  std::vector<double> draws(shots);
  for (double& d : draws) d = rng.uniform() * total;
  std::sort(draws.begin(), draws.end());
  // Each outcome is the first index whose CDF reaches its draw.
  std::vector<std::uint64_t> out(shots);
  std::size_t idx = 0;
  for (std::size_t s = 0; s < shots; ++s) {
    while (idx + 1 < cdf.size() && cdf[idx] < draws[s]) ++idx;
    out[s] = idx;
  }
  // Sorted outcomes would bias consumers that stream shots; shuffle back.
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.below(i)]);
  }
  return out;
}

double Statevector::fidelity(const Statevector& a, const Statevector& b) {
  QDB_REQUIRE(a.dimension() == b.dimension(), "fidelity: dimension mismatch");
  cplx inner{0.0, 0.0};
  for (std::size_t i = 0; i < a.amps_.size(); ++i) inner += std::conj(a.amps_[i]) * b.amps_[i];
  return std::norm(inner);
}

}  // namespace qdb
