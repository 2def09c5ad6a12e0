#include "quantum/noise.h"

namespace qdb {

NoiseModel NoiseModel::ideal() { return NoiseModel{}; }

NoiseModel NoiseModel::eagle_r3() {
  NoiseModel m;
  m.p_depol_1q = 3e-4;
  m.p_depol_2q = 7e-3;
  m.p_readout_01 = 0.012;
  m.p_readout_10 = 0.022;  // |1> decay during readout makes 1->0 more likely
  m.t1_us = 100.0;
  m.t2_us = 70.0;
  m.gate_time_1q_ns = 35.0;
  m.gate_time_2q_ns = 460.0;
  m.readout_time_ns = 4000.0;
  return m;
}

NoiseModel NoiseModel::scaled(double factor) const {
  NoiseModel m = *this;
  auto clamp01 = [](double p) { return p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p); };
  m.p_depol_1q = clamp01(p_depol_1q * factor);
  m.p_depol_2q = clamp01(p_depol_2q * factor);
  m.p_readout_01 = clamp01(p_readout_01 * factor);
  m.p_readout_10 = clamp01(p_readout_10 * factor);
  return m;
}

namespace {

GateKind random_pauli(Rng& rng) {
  switch (rng.below(3)) {
    case 0: return GateKind::X;
    case 1: return GateKind::Y;
    default: return GateKind::Z;
  }
}

}  // namespace

Circuit noise_trajectory(const Circuit& c, const NoiseModel& m, Rng& rng,
                         std::size_t* errors) {
  if (errors != nullptr) *errors = 0;
  if (m.is_ideal()) return c;
  std::size_t drawn = 0;
  Circuit out(c.num_qubits());
  for (const Gate& g : c.gates()) {
    out.append(g);
    if (is_two_qubit(g.kind)) {
      // Two-qubit depolarizing: uniformly random non-identity two-qubit
      // Pauli, sampled as independent marginals conditioned on not-identity.
      if (rng.bernoulli(m.p_depol_2q)) {
        ++drawn;
        int pick = static_cast<int>(rng.below(15)) + 1;  // 1..15, skip II
        const int pa = pick & 3;
        const int pb = (pick >> 2) & 3;
        auto emit = [&](int p, int q) {
          if (p == 1) out.append(Gate::one(GateKind::X, q));
          if (p == 2) out.append(Gate::one(GateKind::Y, q));
          if (p == 3) out.append(Gate::one(GateKind::Z, q));
        };
        emit(pa, g.q0);
        emit(pb, g.q1);
      }
    } else if (rng.bernoulli(m.p_depol_1q)) {
      ++drawn;
      out.append(Gate::one(random_pauli(rng), g.q0));
    }
  }
  if (errors != nullptr) *errors = drawn;
  return out;
}

void apply_readout_error(std::vector<std::uint64_t>& shots, int num_qubits,
                         const NoiseModel& m, Rng& rng) {
  if (m.p_readout_01 == 0.0 && m.p_readout_10 == 0.0) return;
  for (std::uint64_t& x : shots) {
    for (int q = 0; q < num_qubits; ++q) {
      const std::uint64_t bit = std::uint64_t{1} << q;
      const bool one = (x & bit) != 0;
      const double p_flip = one ? m.p_readout_10 : m.p_readout_01;
      if (p_flip > 0.0 && rng.bernoulli(p_flip)) x ^= bit;
    }
  }
}

double circuit_duration_s(const Circuit& c, const NoiseModel& m) {
  // Duration is set by the critical path: depth layers of the slowest gate
  // class per layer.  A simple, calibratable model: count per-qubit serial
  // time as (1q gates)*t1q + (2q gates)*t2q along the depth, approximated by
  // depth * weighted mean gate time, plus one readout.
  const auto ops = c.count_ops();
  std::size_t n1 = 0, n2 = 0;
  for (const Gate& g : c.gates()) (is_two_qubit(g.kind) ? n2 : n1)++;
  const double total_gates = static_cast<double>(n1 + n2);
  const double mean_gate_ns =
      total_gates == 0.0
          ? m.gate_time_1q_ns
          : (static_cast<double>(n1) * m.gate_time_1q_ns + static_cast<double>(n2) * m.gate_time_2q_ns) / total_gates;
  (void)ops;
  return (static_cast<double>(c.depth()) * mean_gate_ns + m.readout_time_ns) * 1e-9;
}

}  // namespace qdb
