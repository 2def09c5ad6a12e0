// Tests for quantum/mitigation: readout-error mitigation recovers ideal
// statistics from corrupted shots.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "quantum/mitigation.h"
#include "support/statevector.h"

namespace qdb {
namespace {

TEST(Mitigation, HistogramFromShots) {
  const Histogram h = histogram_from_shots({0, 1, 1, 3, 3, 3});
  EXPECT_DOUBLE_EQ(h.at(0), 1.0);
  EXPECT_DOUBLE_EQ(h.at(1), 2.0);
  EXPECT_DOUBLE_EQ(h.at(3), 3.0);
}

TEST(Mitigation, IdentityWhenNoiseIsIdeal) {
  const ReadoutMitigator m(3, NoiseModel::ideal());
  const Histogram h = histogram_from_shots({0, 5, 5, 7});
  const Histogram out = m.mitigate(h);
  for (const auto& [x, w] : h) {
    EXPECT_NEAR(out.at(x), w, 1e-12) << x;
  }
}

TEST(Mitigation, InvertsKnownSingleQubitFlip) {
  // Prepared all |0>; readout flips 0->1 with p01 = 0.2.  A large measured
  // sample has ~20% ones; mitigation must restore ~100% zeros.
  NoiseModel noise;
  noise.p_readout_01 = 0.2;
  Rng rng(3);
  std::vector<std::uint64_t> shots(50000, 0);
  apply_readout_error(shots, 1, noise, rng);

  const ReadoutMitigator m(1, noise);
  const Histogram corrected = m.mitigate(histogram_from_shots(shots));
  const double total = 50000.0;
  EXPECT_NEAR(corrected.at(0) / total, 1.0, 0.02);
  // Whatever weight remains on |1> is statistical noise around zero.
  const double ones = corrected.count(1) ? corrected.at(1) / total : 0.0;
  EXPECT_NEAR(ones, 0.0, 0.02);
}

TEST(Mitigation, RecoversExpectationOnEntangledState) {
  // GHZ state on 4 qubits measured through asymmetric readout errors; the
  // mitigated parity expectation must be far closer to the ideal value.
  const int nq = 4;
  Circuit c(nq);
  c.h(0);
  for (int q = 0; q + 1 < nq; ++q) c.cx(q, q + 1);
  Statevector sv(nq);
  sv.apply(c);

  auto parity = [](std::uint64_t x) {
    return (__builtin_popcountll(x) % 2 == 0) ? 1.0 : -1.0;
  };
  const double ideal = sv.expectation_diagonal(parity);  // +1 for GHZ

  NoiseModel noise;
  noise.p_readout_01 = 0.03;
  noise.p_readout_10 = 0.08;
  Rng rng(17);
  auto shots = sv.sample(60000, rng);
  apply_readout_error(shots, nq, noise, rng);
  const Histogram measured = histogram_from_shots(shots);

  double raw = 0.0;
  for (const auto& [x, w] : measured) raw += w * parity(x);
  raw /= 60000.0;

  const ReadoutMitigator m(nq, noise);
  const double mitigated = m.mitigated_expectation(measured, parity);

  EXPECT_GT(std::abs(raw - ideal), 0.1);          // errors visibly bias raw
  EXPECT_LT(std::abs(mitigated - ideal), 0.03);   // mitigation recovers it
}

TEST(Mitigation, PreservesTotalWeight) {
  NoiseModel noise;
  noise.p_readout_01 = 0.05;
  noise.p_readout_10 = 0.1;
  const ReadoutMitigator m(3, noise);
  const Histogram h = histogram_from_shots({0, 1, 2, 3, 4, 5, 6, 7, 7, 7});
  const Histogram out = m.mitigate(h);
  double total = 0.0;
  for (const auto& [x, w] : out) {
    (void)x;
    total += w;
  }
  EXPECT_NEAR(total, 10.0, 1e-6);
}

TEST(Mitigation, RejectsDegenerateCalibration) {
  NoiseModel noise;
  noise.p_readout_01 = 0.5;
  noise.p_readout_10 = 0.5;  // singular confusion matrix
  EXPECT_THROW(ReadoutMitigator(2, noise), PreconditionError);
}

}  // namespace
}  // namespace qdb
