// Tests for quantum/pauli: the diagonal Pauli-Z operator representation,
// the exact Walsh-Hadamard expansion, and its link to the folding
// Hamiltonian's identity coefficient (the energy floor of Tables 1-3).
#include <gtest/gtest.h>

#include <bit>

#include "common/error.h"
#include "common/rng.h"
#include "lattice/hamiltonian.h"
#include "quantum/pauli.h"

namespace qdb {
namespace {

TEST(Pauli, SingleTermValues) {
  DiagonalPauliOp op(2);
  op.add(0b01, 1.0);  // Z on qubit 0
  EXPECT_DOUBLE_EQ(op.value(0b00), 1.0);
  EXPECT_DOUBLE_EQ(op.value(0b01), -1.0);
  EXPECT_DOUBLE_EQ(op.value(0b10), 1.0);
  EXPECT_DOUBLE_EQ(op.value(0b11), -1.0);
}

TEST(Pauli, ZzParity) {
  DiagonalPauliOp op(2);
  op.add(0b11, 2.0);  // Z0 Z1
  EXPECT_DOUBLE_EQ(op.value(0b00), 2.0);
  EXPECT_DOUBLE_EQ(op.value(0b01), -2.0);
  EXPECT_DOUBLE_EQ(op.value(0b10), -2.0);
  EXPECT_DOUBLE_EQ(op.value(0b11), 2.0);
}

TEST(Pauli, AddMergesDuplicateMasks) {
  DiagonalPauliOp op(3);
  op.add(0b101, 1.0);
  op.add(0b101, 0.5);
  op.add(0, 3.0);
  EXPECT_EQ(op.num_terms(), 2u);
  EXPECT_DOUBLE_EQ(op.identity_coefficient(), 3.0);
  EXPECT_DOUBLE_EQ(op.value(0), 4.5);
  EXPECT_THROW(op.add(0b1000, 1.0), PreconditionError);
}

TEST(Pauli, ExpansionReconstructsArbitraryFunction) {
  Rng rng(5);
  const int nq = 6;
  std::vector<double> f(1 << nq);
  for (double& v : f) v = rng.uniform(-10, 10);
  const auto op = DiagonalPauliOp::from_function(nq, [&](std::uint64_t x) { return f[x]; });
  for (std::uint64_t x = 0; x < (1u << nq); ++x) {
    EXPECT_NEAR(op.value(x), f[x], 1e-9) << x;
  }
}

TEST(Pauli, ExpansionOfConstantIsIdentityOnly) {
  const auto op = DiagonalPauliOp::from_function(4, [](std::uint64_t) { return 7.5; });
  EXPECT_EQ(op.num_terms(), 1u);
  EXPECT_DOUBLE_EQ(op.identity_coefficient(), 7.5);
}

TEST(Pauli, IdentityCoefficientIsMeanValue) {
  // The identity coefficient of any diagonal operator equals its average
  // over all bitstrings — the formal basis of the Hamiltonian's energy
  // floor story.
  const auto seq = parse_sequence("PWWERYQP");  // 10 free-turn bits
  const FoldingHamiltonian h(seq, HamiltonianWeights::standard(8));
  const auto op = DiagonalPauliOp::from_function(
      h.num_qubits(), [&](std::uint64_t x) { return h.energy(x); });

  double mean = 0.0;
  const std::uint64_t dim = std::uint64_t{1} << h.num_qubits();
  for (std::uint64_t x = 0; x < dim; ++x) mean += h.energy(x);
  mean /= static_cast<double>(dim);
  EXPECT_NEAR(op.identity_coefficient(), mean, 1e-6 * std::abs(mean));
  // The configured offset is part of (but smaller than) that mean: penalty
  // states raise the average above the floor.
  EXPECT_GT(op.identity_coefficient(), h.weights().energy_offset);
}

TEST(Pauli, HamiltonianExpansionMatchesDirectEvaluation) {
  const auto seq = parse_sequence("VKDRS");
  const FoldingHamiltonian h(seq, HamiltonianWeights::standard(5));
  const auto op = DiagonalPauliOp::from_function(
      h.num_qubits(), [&](std::uint64_t x) { return h.energy(x); });
  for (std::uint64_t x = 0; x < 16; ++x) {
    EXPECT_NEAR(op.value(x), h.energy(x), 1e-9);
  }
}

TEST(Pauli, ExpansionToleranceDropsSmallTerms) {
  // A pure ZZ function expands to exactly one term; loose tolerance must
  // not invent extra ones.
  const auto op = DiagonalPauliOp::from_function(
      4, [](std::uint64_t x) { return (std::popcount(x & 0b11ull) % 2 == 0) ? 1.0 : -1.0; });
  EXPECT_EQ(op.num_terms(), 1u);
  EXPECT_EQ(op.terms()[0].mask, 0b11u);
}

}  // namespace
}  // namespace qdb
