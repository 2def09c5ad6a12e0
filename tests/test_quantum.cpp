// Tests for src/quantum: gate unitarity, circuit accounting, dense
// statevector correctness, MPS-vs-dense equivalence, sampling statistics,
// the noise model, and the EfficientSU2 ansatz.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "quantum/ansatz.h"
#include "quantum/circuit.h"
#include "quantum/gate.h"
#include "quantum/kernels.h"
#include "quantum/mps.h"
#include "quantum/noise.h"
#include "support/statevector.h"

namespace qdb {
namespace {

constexpr double kPi = 3.14159265358979323846;

bool matrix_is_unitary_1q(GateKind k, double angle) {
  const auto u = gate_matrix_1q(k, angle);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      cplx acc{};
      for (int m = 0; m < 2; ++m) acc += std::conj(u[static_cast<std::size_t>(m)][static_cast<std::size_t>(i)]) * u[static_cast<std::size_t>(m)][static_cast<std::size_t>(j)];
      const double want = i == j ? 1.0 : 0.0;
      if (std::abs(acc - cplx{want, 0.0}) > 1e-12) return false;
    }
  }
  return true;
}

bool matrix_is_unitary_2q(GateKind k) {
  const auto u = gate_matrix_2q(k);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      cplx acc{};
      for (int m = 0; m < 4; ++m) acc += std::conj(u[static_cast<std::size_t>(m)][static_cast<std::size_t>(i)]) * u[static_cast<std::size_t>(m)][static_cast<std::size_t>(j)];
      const double want = i == j ? 1.0 : 0.0;
      if (std::abs(acc - cplx{want, 0.0}) > 1e-12) return false;
    }
  }
  return true;
}

TEST(Gates, AllOneQubitGatesAreUnitary) {
  for (GateKind k : {GateKind::I, GateKind::X, GateKind::Y, GateKind::Z, GateKind::H,
                     GateKind::S, GateKind::Sdg, GateKind::SX, GateKind::SXdg}) {
    EXPECT_TRUE(matrix_is_unitary_1q(k, 0.0)) << gate_name(k);
  }
  for (GateKind k : {GateKind::RX, GateKind::RY, GateKind::RZ}) {
    for (double a : {0.0, 0.3, kPi, -2.1}) EXPECT_TRUE(matrix_is_unitary_1q(k, a)) << gate_name(k);
  }
}

TEST(Gates, AllTwoQubitGatesAreUnitary) {
  for (GateKind k : {GateKind::CX, GateKind::CZ, GateKind::SWAP, GateKind::ECR}) {
    EXPECT_TRUE(matrix_is_unitary_2q(k)) << gate_name(k);
  }
}

TEST(Gates, SxSquaredIsX) {
  const auto sx = gate_matrix_1q(GateKind::SX, 0);
  const auto x = gate_matrix_1q(GateKind::X, 0);
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) {
      cplx acc{};
      for (int m = 0; m < 2; ++m) acc += sx[static_cast<std::size_t>(i)][static_cast<std::size_t>(m)] * sx[static_cast<std::size_t>(m)][static_cast<std::size_t>(j)];
      EXPECT_NEAR(std::abs(acc - x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]), 0.0, 1e-12);
    }
}

TEST(Gates, TwoQubitQueriesOnOneQubitGateThrow) {
  EXPECT_THROW(gate_matrix_2q(GateKind::X), PreconditionError);
  EXPECT_THROW(gate_matrix_1q(GateKind::CX, 0), PreconditionError);
}

TEST(Circuit, DepthCountsLongestChain) {
  Circuit c(3);
  c.h(0).h(1).h(2);      // depth 1: parallel layer
  EXPECT_EQ(c.depth(), 1);
  c.cx(0, 1);            // depth 2
  c.cx(1, 2);            // depth 3
  c.x(0);                // fits in layer 3 (qubit 0 free after layer 2)
  EXPECT_EQ(c.depth(), 3);
}

TEST(Circuit, CountOpsAndTwoQubitCount) {
  Circuit c(2);
  c.ry(0.1, 0).rz(0.2, 1).cx(0, 1).cx(1, 0);
  const auto ops = c.count_ops();
  EXPECT_EQ(ops.at("ry"), 1u);
  EXPECT_EQ(ops.at("rz"), 1u);
  EXPECT_EQ(ops.at("cx"), 2u);
  EXPECT_EQ(c.two_qubit_count(), 2u);
  EXPECT_EQ(c.size(), 4u);
}

TEST(Circuit, RejectsBadQubits) {
  Circuit c(2);
  EXPECT_THROW(c.x(2), PreconditionError);
  EXPECT_THROW(c.cx(0, 0), PreconditionError);
  EXPECT_THROW(c.cx(0, 5), PreconditionError);
  EXPECT_THROW(Circuit(0), PreconditionError);
}

TEST(Statevector, InitialState) {
  Statevector sv(3);
  EXPECT_DOUBLE_EQ(sv.probability(0), 1.0);
  EXPECT_DOUBLE_EQ(sv.probability(5), 0.0);
  EXPECT_NEAR(sv.norm2(), 1.0, 1e-12);
}

TEST(Statevector, BellState) {
  Statevector sv(2);
  Circuit c(2);
  c.h(0).cx(0, 1);
  sv.apply(c);
  EXPECT_NEAR(sv.probability(0b00), 0.5, 1e-12);
  EXPECT_NEAR(sv.probability(0b11), 0.5, 1e-12);
  EXPECT_NEAR(sv.probability(0b01), 0.0, 1e-12);
  EXPECT_NEAR(sv.probability(0b10), 0.0, 1e-12);
}

TEST(Statevector, GhzOnFiveQubits) {
  Statevector sv(5);
  Circuit c(5);
  c.h(0);
  for (int q = 0; q + 1 < 5; ++q) c.cx(q, q + 1);
  sv.apply(c);
  EXPECT_NEAR(sv.probability(0), 0.5, 1e-12);
  EXPECT_NEAR(sv.probability(31), 0.5, 1e-12);
  EXPECT_NEAR(sv.norm2(), 1.0, 1e-12);
}

TEST(Statevector, CxControlTargetOrientation) {
  // CX(control=1, target=0) on |q1=1,q0=0> must give |11>.
  Statevector sv(2);
  Circuit c(2);
  c.x(1).cx(1, 0);
  sv.apply(c);
  EXPECT_NEAR(sv.probability(0b11), 1.0, 1e-12);
}

TEST(Statevector, RotationAngleConvention) {
  // RY(pi) |0> = |1> (up to phase); RY(pi/2) gives equal weights.
  Statevector sv(1);
  sv.apply(Gate::one(GateKind::RY, 0, kPi));
  EXPECT_NEAR(sv.probability(1), 1.0, 1e-12);
  sv.reset();
  sv.apply(Gate::one(GateKind::RY, 0, kPi / 2));
  EXPECT_NEAR(sv.probability(0), 0.5, 1e-12);
}

TEST(Statevector, NormPreservedByRandomCircuit) {
  Rng rng(3);
  Circuit c(6);
  for (int i = 0; i < 120; ++i) {
    const int q = static_cast<int>(rng.below(6));
    switch (rng.below(4)) {
      case 0: c.ry(rng.uniform(-kPi, kPi), q); break;
      case 1: c.rz(rng.uniform(-kPi, kPi), q); break;
      case 2: c.h(q); break;
      default: {
        int q2 = static_cast<int>(rng.below(6));
        if (q2 == q) q2 = (q + 1) % 6;
        c.cx(q, q2);
      }
    }
  }
  Statevector sv(6);
  sv.apply(c);
  EXPECT_NEAR(sv.norm2(), 1.0, 1e-10);
}

TEST(Statevector, ExpectationDiagonalMatchesManualSum) {
  Statevector sv(2);
  Circuit c(2);
  c.h(0);
  sv.apply(c);
  // f(x) = x as a number: <f> = 0.5*0 + 0.5*1 = 0.5
  const double e = sv.expectation_diagonal([](std::uint64_t x) { return static_cast<double>(x); });
  EXPECT_NEAR(e, 0.5, 1e-12);
}

TEST(Statevector, SamplingMatchesProbabilities) {
  Statevector sv(3);
  Circuit c(3);
  c.h(0).h(1).h(2);
  sv.apply(c);
  Rng rng(77);
  const auto shots = sv.sample(16000, rng);
  std::map<std::uint64_t, int> counts;
  for (auto s : shots) ++counts[s];
  EXPECT_EQ(counts.size(), 8u);
  for (const auto& [k, v] : counts) {
    (void)k;
    EXPECT_NEAR(static_cast<double>(v) / 16000.0, 0.125, 0.02);
  }
}

TEST(Statevector, SamplingIsDeterministicPerSeed) {
  Statevector sv(2);
  Circuit c(2);
  c.h(0).cx(0, 1);
  sv.apply(c);
  Rng r1(5), r2(5);
  EXPECT_EQ(sv.sample(100, r1), sv.sample(100, r2));
}

TEST(Statevector, FidelityOfIdenticalStatesIsOne) {
  Statevector a(3), b(3);
  Circuit c(3);
  c.h(0).cx(0, 1).ry(0.7, 2);
  a.apply(c);
  b.apply(c);
  EXPECT_NEAR(Statevector::fidelity(a, b), 1.0, 1e-12);
}

Circuit random_linear_circuit(int nq, int gates, std::uint64_t seed) {
  Rng rng(seed);
  Circuit c(nq);
  for (int i = 0; i < gates; ++i) {
    const int q = static_cast<int>(rng.below(static_cast<std::uint64_t>(nq)));
    switch (rng.below(5)) {
      case 0: c.ry(rng.uniform(-kPi, kPi), q); break;
      case 1: c.rz(rng.uniform(-kPi, kPi), q); break;
      case 2: c.h(q); break;
      case 3: c.sx(q); break;
      default:
        if (q + 1 < nq) c.cx(q, q + 1);
        else c.cx(q - 1, q);
    }
  }
  return c;
}

TEST(Mps, MatchesDenseOnRandomCircuits) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const int nq = 6;
    const Circuit c = random_linear_circuit(nq, 80, seed);
    Statevector sv(nq);
    sv.apply(c);
    MpsSimulator mps(nq, /*max_bond=*/64);
    mps.apply(c);
    for (std::uint64_t x = 0; x < (1u << nq); ++x) {
      EXPECT_NEAR(std::abs(mps.amplitude(x) - sv.amplitudes()[x]), 0.0, 1e-8)
          << "seed " << seed << " x " << x;
    }
    EXPECT_NEAR(mps.norm2(), 1.0, 1e-8);
    EXPECT_LT(mps.truncation_weight(), 1e-12);
  }
}

TEST(Mps, HandlesNonAdjacentGates) {
  const int nq = 5;
  Circuit c(nq);
  c.h(0).cx(0, 4).cx(4, 1).ry(0.3, 2).cx(3, 0);
  Statevector sv(nq);
  sv.apply(c);
  MpsSimulator mps(nq);
  mps.apply(c);
  for (std::uint64_t x = 0; x < (1u << nq); ++x) {
    EXPECT_NEAR(std::abs(mps.amplitude(x) - sv.amplitudes()[x]), 0.0, 1e-8);
  }
}

TEST(Mps, ApplyTalliesSvdsAndPeakBondOncePerCall) {
  // cx(0,1) runs one SVD; cx(0,3) routes over two swaps there and back, so
  // 2 + 1 + 2 more.  The three-qubit GHZ state has bond 2 across every cut.
  Circuit c(5);
  c.h(0).cx(0, 1).cx(0, 3);
  obs::Counter& svds = obs::counter("mps.svds");
  obs::Histogram& peak = obs::histogram("mps.peak_bond");
  const auto svds0 = svds.value();
  const auto applies0 = peak.count();
  const auto peak0 = peak.total();
  MpsSimulator mps(5);
  mps.apply(c);
  EXPECT_EQ(svds.value() - svds0, 6u);
  EXPECT_EQ(peak.count() - applies0, 1u);
  EXPECT_EQ(peak.total() - peak0, 2u);
  mps.apply(Circuit(5));  // an empty circuit keeps the bond it found
  EXPECT_EQ(svds.value() - svds0, 6u);
  EXPECT_EQ(peak.count() - applies0, 2u);
  EXPECT_EQ(peak.total() - peak0, 4u);
}

TEST(Mps, GhzStateAmplitudesAndSampling) {
  const int nq = 10;
  Circuit c(nq);
  c.h(0);
  for (int q = 0; q + 1 < nq; ++q) c.cx(q, q + 1);
  MpsSimulator mps(nq);
  mps.apply(c);
  const std::uint64_t all_ones = (std::uint64_t{1} << nq) - 1;
  EXPECT_NEAR(std::abs(mps.amplitude(0)), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(std::abs(mps.amplitude(all_ones)), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(std::abs(mps.amplitude(1)), 0.0, 1e-10);
  EXPECT_EQ(mps.max_bond_reached(), 2);

  Rng rng(123);
  const auto shots = mps.sample(4000, rng);
  int zeros = 0, ones = 0, other = 0;
  for (auto s : shots) {
    if (s == 0) ++zeros;
    else if (s == all_ones) ++ones;
    else ++other;
  }
  EXPECT_EQ(other, 0);
  EXPECT_NEAR(static_cast<double>(zeros) / 4000.0, 0.5, 0.04);
  EXPECT_NEAR(static_cast<double>(ones) / 4000.0, 0.5, 0.04);
}

TEST(Mps, SamplingDistributionMatchesDense) {
  const int nq = 4;
  const Circuit c = random_linear_circuit(nq, 40, 9);
  Statevector sv(nq);
  sv.apply(c);
  MpsSimulator mps(nq);
  mps.apply(c);
  Rng rng(55);
  const auto shots = mps.sample(30000, rng);
  std::vector<int> counts(1 << nq, 0);
  for (auto s : shots) ++counts[s];
  for (std::uint64_t x = 0; x < (1u << nq); ++x) {
    EXPECT_NEAR(static_cast<double>(counts[x]) / 30000.0, sv.probability(x), 0.02);
  }
}

TEST(Mps, TruncationIsTrackedUnderTightBond) {
  // A deep entangling circuit with max_bond=2 must truncate and renormalise.
  const int nq = 8;
  Circuit c(nq);
  Rng rng(21);
  for (int layer = 0; layer < 6; ++layer) {
    for (int q = 0; q < nq; ++q) c.ry(rng.uniform(-kPi, kPi), q);
    for (int q = 0; q + 1 < nq; ++q) c.cx(q, q + 1);
  }
  MpsSimulator mps(nq, /*max_bond=*/2);
  mps.apply(c);
  EXPECT_GT(mps.truncation_weight(), 0.0);
  // Local renormalisation keeps the norm close to 1 but (without canonical
  // form) not exact.
  EXPECT_NEAR(mps.norm2(), 1.0, 0.1);
}

TEST(Mps, ExpectationSampledConvergesToDense) {
  const int nq = 5;
  const Circuit c = random_linear_circuit(nq, 60, 17);
  Statevector sv(nq);
  sv.apply(c);
  auto f = [](std::uint64_t x) { return static_cast<double>(__builtin_popcountll(x)); };
  const double exact = sv.expectation_diagonal(f);
  MpsSimulator mps(nq);
  mps.apply(c);
  Rng rng(31);
  double sum = 0.0;
  for (const std::uint64_t x : mps.sample(20000, rng)) sum += f(x);
  const double est = sum / 20000.0;
  EXPECT_NEAR(est, exact, 0.06);
}

TEST(Mps, ApplyRejectsMalformedGates) {
  const int nq = 4;
  MpsSimulator mps(nq);
  EXPECT_THROW(mps.apply(Gate::one(GateKind::H, -1)), Error);
  EXPECT_THROW(mps.apply(Gate::one(GateKind::H, nq)), Error);
  EXPECT_THROW(mps.apply(Gate::two(GateKind::CX, -1, 0)), Error);
  EXPECT_THROW(mps.apply(Gate::two(GateKind::CX, 0, -1)), Error);
  EXPECT_THROW(mps.apply(Gate::two(GateKind::CX, 0, nq)), Error);
  EXPECT_THROW(mps.apply(Gate::two(GateKind::CX, nq - 1, nq - 1)), Error);
  EXPECT_THROW(mps.apply(Gate::two(GateKind::CX, 1, 1)), Error);
  // A rejected gate leaves the state untouched.
  EXPECT_EQ(mps.amplitude(0), cplx(1.0, 0.0));
  EXPECT_EQ(mps.max_bond_reached(), 1);
}

/// Seeded EfficientSU2 (reps 2) circuit with one Eagle noise trajectory;
/// `scale` bounds the random angles, and so the entanglement.
Circuit noisy_ansatz(int nq, std::uint64_t seed, double scale) {
  const EfficientSU2 ansatz(nq, 2);
  Rng rng(seed);
  const auto params = ansatz.initial_point(rng, scale);
  return noise_trajectory(ansatz.build(params), NoiseModel::eagle_r3(), rng);
}

}  // namespace

/// The per-shot conditional sampling walk that MpsSimulator::sample ran
/// before it memoised prefixes, kept verbatim as the bit-for-bit oracle.
struct MpsSamplingOracle {
  static std::vector<std::uint64_t> sample(const MpsSimulator& m, std::size_t shots, Rng& rng) {
    const auto env = m.right_environments();
    std::vector<std::uint64_t> out(shots);
    for (std::size_t shot = 0; shot < shots; ++shot) {
      std::vector<cplx> vec{1.0};
      std::uint64_t x = 0;
      for (int q = 0; q < m.num_qubits_; ++q) {
        const MpsSimulator::Site& s = m.sites_[static_cast<std::size_t>(q)];
        const auto& right = env[static_cast<std::size_t>(q) + 1];
        double prob[2];
        std::vector<cplx> cand[2];
        for (int p = 0; p < 2; ++p) {
          std::vector<cplx> v(static_cast<std::size_t>(s.chi_r), cplx{});
          for (int l = 0; l < s.chi_l; ++l) {
            if (vec[static_cast<std::size_t>(l)] == cplx{}) continue;
            for (int r = 0; r < s.chi_r; ++r)
              v[static_cast<std::size_t>(r)] += vec[static_cast<std::size_t>(l)] *
                  s.data[(static_cast<std::size_t>(l) * 2 + static_cast<std::size_t>(p)) * static_cast<std::size_t>(s.chi_r) + static_cast<std::size_t>(r)];
          }
          cplx acc{};
          for (int r = 0; r < s.chi_r; ++r)
            for (int rp = 0; rp < s.chi_r; ++rp)
              acc += std::conj(v[static_cast<std::size_t>(r)]) *
                     right[static_cast<std::size_t>(r) * static_cast<std::size_t>(s.chi_r) + static_cast<std::size_t>(rp)] *
                     v[static_cast<std::size_t>(rp)];
          prob[p] = std::max(acc.real(), 0.0);
          cand[p] = std::move(v);
        }
        const double total = prob[0] + prob[1];
        const int bit = (total <= 0.0) ? 0 : (rng.uniform() * total < prob[0] ? 0 : 1);
        if (bit) x |= std::uint64_t{1} << q;
        vec = std::move(cand[bit]);
      }
      out[shot] = x;
    }
    return out;
  }
};

namespace {

/// Sample the same state through the simulator and the oracle from equal
/// seeds: the shots and the stream position afterwards must agree exactly.
void expect_sampling_matches_oracle(const MpsSimulator& mps, std::size_t shots,
                                    std::uint64_t seed) {
  Rng fast(seed), slow(seed);
  const auto got = mps.sample(shots, fast);
  const auto want = MpsSamplingOracle::sample(mps, shots, slow);
  EXPECT_EQ(got, want) << "shots " << shots;
  EXPECT_EQ(fast(), slow()) << "rng stream shifted after " << shots << " shots";
}

TEST(Mps, MemoisedSamplingMatchesPerShotWalkBitForBit) {
  for (int nq : {16, 22}) {
    for (int bond : {2, 64}) {
      MpsSimulator mps(nq, bond);
      mps.apply(noisy_ansatz(nq, 40 + static_cast<std::uint64_t>(nq), 1.0));
      SCOPED_TRACE("nq " + std::to_string(nq) + " max_bond " + std::to_string(bond));
      for (std::size_t shots : {std::size_t{1}, std::size_t{128}, std::size_t{1500}})
        expect_sampling_matches_oracle(mps, shots, 7 + shots);
    }
  }

  // A near-uniform entangled state over 22 qubits (bond 2) reaches a new
  // prefix at almost every qubit of every shot, so 20,000 shots outgrow the
  // trie's byte cap and the remaining shots finish outside it.
  const int nq = 22;
  Circuit c(nq);
  Rng angles(5);
  for (int q = 0; q < nq; ++q) c.ry(angles.uniform(1.2, 1.9), q);
  for (int q = 0; q + 1 < nq; ++q) c.cx(q, q + 1);
  MpsSimulator mps(nq);
  mps.apply(c);
  obs::Counter& steps = obs::counter("mps.sample.steps");
  obs::Counter& expansions = obs::counter("mps.sample.expansions");
  const std::uint64_t steps0 = steps.value(), expansions0 = expansions.value();
  const std::size_t shots = 20000;
  Rng rng(99);
  const auto xs = mps.sample(shots, rng);
  EXPECT_EQ(steps.value() - steps0, shots * static_cast<std::uint64_t>(nq));
  // One trie node per distinct prefix of length 0..nq-1 the shots reach.
  std::set<std::pair<int, std::uint64_t>> prefixes;
  for (std::uint64_t x : xs)
    for (int q = 0; q < nq; ++q) prefixes.emplace(q, x & ((std::uint64_t{1} << q) - 1));
  EXPECT_LT(expansions.value() - expansions0, prefixes.size()) << "memo cap never reached";
  expect_sampling_matches_oracle(mps, shots, 99);
}

}  // namespace

/// MpsSimulator's two-site update as it ran on std::complex arithmetic and a
/// vector of per-column vectors, kept as the bit-for-bit oracle of the
/// allocation-free plain-double update.
struct MpsTwoSiteOracle {
  using Columns = std::vector<std::vector<cplx>>;

  /// One-sided Jacobi SVD of an m x n row-major matrix: U (m x k), s (k,
  /// descending), Vdag (k x n), k = min(m, n).
  static void svd(const std::vector<cplx>& a, int m, int n, std::vector<cplx>& u,
                  std::vector<double>& s, std::vector<cplx>& vdag) {
    auto z = [](int i) { return static_cast<std::size_t>(i); };
    Columns g(z(n), std::vector<cplx>(z(m)));
    for (int r = 0; r < m; ++r)
      for (int c = 0; c < n; ++c) g[z(c)][z(r)] = a[z(r) * z(n) + z(c)];
    Columns v(z(n), std::vector<cplx>(z(n)));
    for (int j = 0; j < n; ++j) v[z(j)][z(j)] = 1.0;
    for (int sweep = 0; sweep < 60; ++sweep) {
      bool converged = true;
      for (int i = 0; i < n - 1; ++i) {
        for (int j = i + 1; j < n; ++j) {
          auto& gi = g[z(i)];
          auto& gj = g[z(j)];
          double alpha = 0.0, beta = 0.0;
          cplx gamma{0.0, 0.0};
          for (int r = 0; r < m; ++r) {
            alpha += std::norm(gi[z(r)]);
            beta += std::norm(gj[z(r)]);
            gamma += std::conj(gi[z(r)]) * gj[z(r)];
          }
          const double ag = std::abs(gamma);
          if (ag <= 1e-14 * std::sqrt(alpha * beta) || ag == 0.0) continue;
          converged = false;
          const cplx phase = gamma / ag;
          const double zeta = (beta - alpha) / (2.0 * ag);
          const double t = (zeta >= 0 ? 1.0 : -1.0) /
                           (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
          const double c = 1.0 / std::sqrt(1.0 + t * t);
          const double sn = c * t;
          for (int r = 0; r < m; ++r) {
            const cplx x = gi[z(r)];
            const cplx y = gj[z(r)] * std::conj(phase);
            gi[z(r)] = c * x - sn * y;
            gj[z(r)] = sn * x + c * y;
          }
          auto& vi = v[z(i)];
          auto& vj = v[z(j)];
          for (int r = 0; r < n; ++r) {
            const cplx x = vi[z(r)];
            const cplx y = vj[z(r)] * std::conj(phase);
            vi[z(r)] = c * x - sn * y;
            vj[z(r)] = sn * x + c * y;
          }
        }
      }
      if (converged) break;
    }
    std::vector<int> order(z(n));
    std::iota(order.begin(), order.end(), 0);
    std::vector<double> norms(z(n));
    for (int j = 0; j < n; ++j) {
      double nn = 0.0;
      for (int r = 0; r < m; ++r) nn += std::norm(g[z(j)][z(r)]);
      norms[z(j)] = std::sqrt(nn);
    }
    std::sort(order.begin(), order.end(),
              [&](int x, int y) { return norms[z(x)] > norms[z(y)]; });
    const int k = std::min(m, n);
    u.assign(z(m) * z(k), cplx{});
    s.assign(z(k), 0.0);
    vdag.assign(z(k) * z(n), cplx{});
    for (int kk = 0; kk < k; ++kk) {
      const int j = order[z(kk)];
      const double sv = norms[z(j)];
      s[z(kk)] = sv;
      if (sv > 0.0) {
        for (int r = 0; r < m; ++r) u[z(r) * z(k) + z(kk)] = g[z(j)][z(r)] / sv;
      }
      for (int r = 0; r < n; ++r) vdag[z(kk) * z(n) + z(r)] = std::conj(v[z(j)][z(r)]);
    }
  }

  static void apply_2q_adjacent(MpsSimulator& mps, const std::array<std::array<cplx, 4>, 4>& u,
                                int low, bool first_is_low) {
    auto z = [](int i) { return static_cast<std::size_t>(i); };
    MpsSimulator::Site& a = mps.sites_[z(low)];
    MpsSimulator::Site& b = mps.sites_[z(low) + 1];
    const int cl = a.chi_l, cm = a.chi_r, cr = b.chi_r;
    auto at = [&](int l, int pa, int pb, int r) {
      return ((z(l) * 2 + z(pa)) * 2 + z(pb)) * z(cr) + z(r);
    };
    std::vector<cplx> theta(z(cl) * 4 * z(cr));
    for (int l = 0; l < cl; ++l)
      for (int pa = 0; pa < 2; ++pa)
        for (int m = 0; m < cm; ++m) {
          const cplx av = a.data[(z(l) * 2 + z(pa)) * z(cm) + z(m)];
          if (av == cplx{}) continue;
          for (int pb = 0; pb < 2; ++pb)
            for (int r = 0; r < cr; ++r)
              theta[at(l, pa, pb, r)] += av * b.data[(z(m) * 2 + z(pb)) * z(cr) + z(r)];
        }
    std::vector<cplx> theta2(theta.size());
    for (int l = 0; l < cl; ++l)
      for (int r = 0; r < cr; ++r)
        for (int pa = 0; pa < 2; ++pa)
          for (int pb = 0; pb < 2; ++pb) {
            const int row = first_is_low ? pb * 2 + pa : pa * 2 + pb;
            cplx acc{};
            for (int qa = 0; qa < 2; ++qa)
              for (int qb = 0; qb < 2; ++qb) {
                const int col = first_is_low ? qb * 2 + qa : qa * 2 + qb;
                acc += u[z(row)][z(col)] * theta[at(l, qa, qb, r)];
              }
            theta2[at(l, pa, pb, r)] = acc;
          }
    const int m_rows = cl * 2, n_cols = 2 * cr;
    std::vector<cplx> mat(z(m_rows) * z(n_cols));
    for (int l = 0; l < cl; ++l)
      for (int pa = 0; pa < 2; ++pa)
        for (int pb = 0; pb < 2; ++pb)
          for (int r = 0; r < cr; ++r)
            mat[z(l * 2 + pa) * z(n_cols) + z(pb * cr + r)] = theta2[at(l, pa, pb, r)];
    std::vector<cplx> su, svdag;
    std::vector<double> ss;
    svd(mat, m_rows, n_cols, su, ss, svdag);
    const int k = std::min(m_rows, n_cols);
    int keep = 0;
    for (int i = 0; i < k; ++i)
      if (ss[z(i)] > mps.trunc_tol_ * ss[0] && keep < mps.max_bond_) ++keep;
    keep = std::max(keep, 1);
    double kept_w = 0.0, all_w = 0.0;
    for (int i = 0; i < k; ++i) {
      all_w += ss[z(i)] * ss[z(i)];
      if (i < keep) kept_w += ss[z(i)] * ss[z(i)];
    }
    mps.truncated_weight_ += all_w - kept_w;
    const double rescale = kept_w > 0.0 ? std::sqrt(all_w / kept_w) : 1.0;
    a.chi_r = keep;
    a.data.assign(z(cl) * 2 * z(keep), cplx{});
    for (int row = 0; row < m_rows; ++row)
      for (int kk = 0; kk < keep; ++kk)
        a.data[z(row) * z(keep) + z(kk)] = su[z(row) * z(k) + z(kk)];
    b.chi_l = keep;
    b.data.assign(z(keep) * 2 * z(cr), cplx{});
    for (int kk = 0; kk < keep; ++kk)
      for (int pb = 0; pb < 2; ++pb)
        for (int r = 0; r < cr; ++r)
          b.data[(z(kk) * 2 + z(pb)) * z(cr) + z(r)] =
              ss[z(kk)] * rescale * svdag[z(kk) * z(n_cols) + z(pb * cr + r)];
  }

  /// Give sites (low, low+1) of `mps` bonds (cl, cm, cr) and seeded random
  /// entries; `zero_every` > 0 zeroes every such entry of A and every such
  /// right-bond column of B (exact zeros: skipped products, zero columns).
  static void set_pair(MpsSimulator& mps, int cl, int cm, int cr, std::uint64_t seed,
                       int zero_every) {
    Rng rng(seed);
    MpsSimulator::Site& a = mps.sites_[0];
    MpsSimulator::Site& b = mps.sites_[1];
    a.chi_l = cl;
    a.chi_r = cm;
    b.chi_l = cm;
    b.chi_r = cr;
    a.data.resize(static_cast<std::size_t>(cl) * 2 * static_cast<std::size_t>(cm));
    b.data.resize(static_cast<std::size_t>(cm) * 2 * static_cast<std::size_t>(cr));
    for (std::size_t i = 0; i < a.data.size(); ++i)
      a.data[i] = (zero_every > 0 && i % static_cast<std::size_t>(zero_every) == 0)
                      ? cplx{}
                      : cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    for (std::size_t i = 0; i < b.data.size(); ++i) {
      const std::size_t r = i % static_cast<std::size_t>(cr);
      b.data[i] = (zero_every > 0 && r % static_cast<std::size_t>(zero_every) == 0)
                      ? cplx{}
                      : cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    }
  }

  static ::testing::AssertionResult same_pair(const MpsSimulator& x, const MpsSimulator& y) {
    for (std::size_t q = 0; q < 2; ++q) {
      const MpsSimulator::Site& s = x.sites_[q];
      const MpsSimulator::Site& t = y.sites_[q];
      if (s.chi_l != t.chi_l || s.chi_r != t.chi_r || s.data.size() != t.data.size())
        return ::testing::AssertionFailure()
               << "site " << q << " shape (" << s.chi_l << "," << s.chi_r << ") vs ("
               << t.chi_l << "," << t.chi_r << ")";
      for (std::size_t i = 0; i < s.data.size(); ++i)
        if (std::memcmp(&s.data[i], &t.data[i], sizeof(cplx)) != 0)
          return ::testing::AssertionFailure() << "site " << q << " entry " << i << ": "
                                               << s.data[i] << " vs " << t.data[i];
    }
    const double wx = x.truncation_weight(), wy = y.truncation_weight();
    if (std::memcmp(&wx, &wy, sizeof wx) != 0)
      return ::testing::AssertionFailure() << "truncation weight " << wx << " vs " << wy;
    return ::testing::AssertionSuccess();
  }

  static void run(MpsSimulator& fast, MpsSimulator& slow,
                  const std::array<std::array<cplx, 4>, 4>& u, bool first_is_low) {
    fast.apply_2q_adjacent(u, 0, first_is_low);
    apply_2q_adjacent(slow, u, 0, first_is_low);
  }
};

namespace {

TEST(Mps, TwoSiteUpdateMatchesComplexOracleBitForBit) {
  Rng gate_rng(17);
  std::array<std::array<cplx, 4>, 4> random_gate{};
  for (auto& row : random_gate)
    for (cplx& x : row) x = cplx{gate_rng.uniform(-1.0, 1.0), gate_rng.uniform(-1.0, 1.0)};
  const std::array<std::array<cplx, 4>, 4> gates[] = {
      random_gate, gate_matrix_2q(GateKind::CX), gate_matrix_2q(GateKind::SWAP)};
  struct Shape {
    int cl, cm, cr, zero_every;
  };
  // Largest first, so later, smaller updates run on scratch a larger one
  // grew.  Bonds span 1..64; cm below min(2 cl, 2 cr) makes theta
  // rank-deficient (singular values at round-off, cut by the tolerance);
  // zero_every plants exact zero entries in A and zero columns in B.
  const Shape shapes[] = {{16, 16, 16, 0}, {64, 4, 1, 0}, {1, 4, 16, 0}, {12, 4, 12, 0},
                          {2, 64, 2, 0},   {16, 32, 16, 5}, {8, 2, 8, 0}, {5, 3, 7, 0},
                          {4, 4, 4, 3},    {2, 4, 2, 0},  {1, 2, 1, 0},  {1, 1, 1, 0},
                          {3, 1, 2, 2}};
  for (const int max_bond : {64, 3}) {  // 3 truncates every full-rank update
    MpsSimulator fast(2, max_bond), slow(2, max_bond);
    std::uint64_t seed = 100;
    for (const Shape& sh : shapes) {
      // Every gate and operand order on the small shapes; one on the large.
      const std::size_t ngates = sh.cl * sh.cr > 64 ? 1 : std::size(gates);
      for (std::size_t gi = 0; gi < ngates; ++gi) {
        for (const bool first_is_low : {true, false}) {
          SCOPED_TRACE("max_bond " + std::to_string(max_bond) + " bonds " +
                       std::to_string(sh.cl) + "," + std::to_string(sh.cm) + "," +
                       std::to_string(sh.cr) + " gate " + std::to_string(gi) +
                       (first_is_low ? " low" : " high"));
          ++seed;
          MpsTwoSiteOracle::set_pair(fast, sh.cl, sh.cm, sh.cr, seed, sh.zero_every);
          MpsTwoSiteOracle::set_pair(slow, sh.cl, sh.cm, sh.cr, seed, sh.zero_every);
          MpsTwoSiteOracle::run(fast, slow, gates[gi], first_is_low);
          ASSERT_TRUE(MpsTwoSiteOracle::same_pair(fast, slow));
          // A second update on the result (a truncated bond, a gauge the
          // SVD produced) chains the scratch reuse.
          MpsTwoSiteOracle::run(fast, slow, gates[(gi + 1) % std::size(gates)], !first_is_low);
          ASSERT_TRUE(MpsTwoSiteOracle::same_pair(fast, slow));
        }
      }
    }
    if (max_bond == 3) {
      EXPECT_GT(fast.truncation_weight(), 0.0);
    }
  }
}

TEST(Mps, MatchesFusedEngineWithinTruncationWeight) {
  EngineOptions opt;
  opt.block_qubits = 10;
  for (int nq : {10, 13, 16}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      const Circuit c = noisy_ansatz(nq, seed, 0.5);
      FusedEngine fused(nq, Precision::f64, opt);
      fused.apply(c);
      const auto ref = fused.amplitudes();
      for (int bond : {64, 1, 2, 3}) {
        SCOPED_TRACE("nq " + std::to_string(nq) + " seed " + std::to_string(seed) +
                     " max_bond " + std::to_string(bond));
        MpsSimulator mps(nq, bond);
        mps.apply(c);
        cplx overlap{};
        double mps_norm2 = 0.0, max_err = 0.0;
        for (std::uint64_t x = 0; x < ref.size(); ++x) {
          const cplx a = mps.amplitude(x);
          overlap += std::conj(ref[x]) * a;
          mps_norm2 += std::norm(a);
          max_err = std::max(max_err, std::abs(a - ref[x]));
        }
        if (bond == 64) {
          EXPECT_EQ(mps.truncation_weight(), 0.0);
          EXPECT_LE(max_err, 1e-12);
        } else {
          EXPECT_LE(1.0 - std::norm(overlap) / mps_norm2, mps.truncation_weight());
        }
      }
    }
  }
}

TEST(Noise, IdealModelIsIdentity) {
  const NoiseModel m = NoiseModel::ideal();
  EXPECT_TRUE(m.is_ideal());
  Circuit c(2);
  c.h(0).cx(0, 1);
  Rng rng(1);
  const Circuit noisy = noise_trajectory(c, m, rng);
  EXPECT_EQ(noisy.size(), c.size());
}

TEST(Noise, TrajectoriesInsertErrorsAtExpectedRate) {
  NoiseModel m;
  m.p_depol_1q = 0.5;
  Circuit c(1);
  for (int i = 0; i < 200; ++i) c.ry(0.1, 0);
  Rng rng(2);
  const Circuit noisy = noise_trajectory(c, m, rng);
  const std::size_t inserted = noisy.size() - c.size();
  EXPECT_NEAR(static_cast<double>(inserted), 100.0, 25.0);
}

TEST(Noise, TrajectoryIsCleanIffItDrewNoError) {
  // VqeDriver::run reuses the simulated state across clean trajectories, so
  // it relies on this contract: a trajectory that reports no error drawn is
  // gate for gate the logical circuit, and every drawn error appends at
  // least one gate (at most two: a two-qubit Pauli).  Reporting the count
  // must not move the RNG stream either.
  const EfficientSU2 ansatz(6, 2);
  Rng init(4);
  const Circuit c = ansatz.build(ansatz.initial_point(init, 1.0));
  const NoiseModel m = NoiseModel::eagle_r3().scaled(8.0);
  int clean = 0, dirty = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Rng counted(seed), plain(seed);
    std::size_t errors = 99;
    const Circuit noisy = noise_trajectory(c, m, counted, &errors);
    const Circuit same = noise_trajectory(c, m, plain);
    ASSERT_EQ(counted(), plain());
    ASSERT_EQ(noisy.size(), same.size());
    const std::size_t added = noisy.size() - c.size();
    EXPECT_GE(added, errors);
    EXPECT_LE(added, 2 * errors);
    if (errors == 0) {
      ++clean;
      ASSERT_EQ(noisy.size(), c.size());
      for (std::size_t i = 0; i < c.size(); ++i) {
        const Gate& a = noisy.gates()[i];
        const Gate& b = c.gates()[i];
        EXPECT_TRUE(a.kind == b.kind && a.q0 == b.q0 && a.q1 == b.q1 &&
                    a.angle == b.angle);
      }
    } else {
      ++dirty;
      EXPECT_GT(noisy.size(), c.size());
    }
  }
  EXPECT_GT(clean, 20);  // both outcomes are exercised
  EXPECT_GT(dirty, 20);
  Rng rng(1);
  std::size_t errors = 99;
  noise_trajectory(c, NoiseModel::ideal(), rng, &errors);
  EXPECT_EQ(errors, 0u);
}

TEST(Noise, ReadoutErrorFlipsBitsAtConfiguredRate) {
  NoiseModel m;
  m.p_readout_01 = 0.25;
  std::vector<std::uint64_t> shots(20000, 0);  // all zeros, 1 qubit
  Rng rng(3);
  apply_readout_error(shots, 1, m, rng);
  int flipped = 0;
  for (auto s : shots) flipped += (s == 1);
  EXPECT_NEAR(static_cast<double>(flipped) / 20000.0, 0.25, 0.02);
}

TEST(Noise, EagleModelIsCalibratedAndScalable) {
  const NoiseModel m = NoiseModel::eagle_r3();
  EXPECT_GT(m.p_depol_2q, m.p_depol_1q);
  EXPECT_FALSE(m.is_ideal());
  const NoiseModel doubled = m.scaled(2.0);
  EXPECT_NEAR(doubled.p_depol_2q, 2 * m.p_depol_2q, 1e-12);
  const NoiseModel off = m.scaled(0.0);
  EXPECT_TRUE(off.is_ideal());
  // Scaling clamps at probability 1.
  EXPECT_LE(m.scaled(1e6).p_readout_01, 1.0);
}

TEST(Noise, CircuitDurationGrowsWithDepth) {
  const NoiseModel m = NoiseModel::eagle_r3();
  Circuit shallow(2);
  shallow.h(0);
  Circuit deep(2);
  for (int i = 0; i < 100; ++i) deep.cx(0, 1);
  EXPECT_GT(circuit_duration_s(deep, m), circuit_duration_s(shallow, m));
  EXPECT_GT(circuit_duration_s(shallow, m), 0.0);
}

TEST(Ansatz, ParameterCountMatchesQiskit) {
  // Qiskit EfficientSU2(n, reps=r, ['ry','rz']): 2*n*(r+1) parameters.
  EXPECT_EQ(EfficientSU2(4, 1).num_parameters(), 16);
  EXPECT_EQ(EfficientSU2(22, 3).num_parameters(), 176);
}

TEST(Ansatz, BuildStructure) {
  const EfficientSU2 ansatz(4, 2);
  std::vector<double> params(static_cast<std::size_t>(ansatz.num_parameters()), 0.1);
  const Circuit c = ansatz.build(params);
  const auto ops = c.count_ops();
  EXPECT_EQ(ops.at("ry"), 12u);  // 3 rotation blocks x 4 qubits
  EXPECT_EQ(ops.at("rz"), 12u);
  EXPECT_EQ(ops.at("cx"), 6u);  // 2 reps x 3 adjacent pairs
  EXPECT_THROW(ansatz.build({0.0}), PreconditionError);
}

TEST(Ansatz, ZeroParametersGiveZeroState) {
  const EfficientSU2 ansatz(5, 1);
  std::vector<double> zeros(static_cast<std::size_t>(ansatz.num_parameters()), 0.0);
  Statevector sv(5);
  sv.apply(ansatz.build(zeros));
  EXPECT_NEAR(sv.probability(0), 1.0, 1e-12);
}

TEST(Ansatz, LowEntanglementUnderMps) {
  // reps=2 linear entanglement stays at tiny bond dimension: that is why the
  // MPS simulator handles the 22-qubit L-group circuits instantly.
  const EfficientSU2 ansatz(22, 2);
  Rng rng(5);
  const auto p = ansatz.initial_point(rng, 0.8);
  MpsSimulator mps(22);
  mps.apply(ansatz.build(p));
  EXPECT_LE(mps.max_bond_reached(), 4);
  EXPECT_NEAR(mps.norm2(), 1.0, 1e-9);
}

TEST(Ansatz, InitialPointIsDeterministicPerSeed) {
  const EfficientSU2 ansatz(3, 1);
  Rng r1(9), r2(9);
  EXPECT_EQ(ansatz.initial_point(r1), ansatz.initial_point(r2));
}

}  // namespace
}  // namespace qdb
