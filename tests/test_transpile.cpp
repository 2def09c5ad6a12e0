// Tests for src/transpile: coupling maps, native-basis lowering (verified by
// full unitary-equivalence checks against the dense simulator), routing
// correctness, the margin strategy, and the published allocation profile.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/error.h"
#include "common/rng.h"
#include "quantum/ansatz.h"
#include "support/statevector.h"
#include "lattice/allocation.h"
#include "transpile/basis.h"
#include "transpile/coupling.h"
#include "transpile/router.h"

namespace qdb {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// |<a|b>|^2 == 1 iff the states agree up to global phase.
bool states_equal_up_to_phase(const Statevector& a, const Statevector& b, double tol = 1e-9) {
  return std::abs(Statevector::fidelity(a, b) - 1.0) < tol;
}

/// Check U(original) == U(lowered) up to global phase by comparing action on
/// a random product state (sufficient with several random trials).
void expect_equivalent(const Circuit& original, const Circuit& lowered, std::uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    Circuit prep(original.num_qubits());
    for (int q = 0; q < original.num_qubits(); ++q) {
      prep.ry(rng.uniform(-kPi, kPi), q);
      prep.rz(rng.uniform(-kPi, kPi), q);
    }
    Statevector a(original.num_qubits());
    a.apply(prep);
    a.apply(original);
    Statevector b(original.num_qubits());
    b.apply(prep);
    b.apply(lowered);
    EXPECT_TRUE(states_equal_up_to_phase(a, b))
        << "trial " << trial << "\noriginal:\n" << original.to_string()
        << "lowered:\n" << lowered.to_string();
  }
}

TEST(Coupling, LineDistances) {
  const CouplingMap m = CouplingMap::line(5);
  EXPECT_TRUE(m.connected(0, 1));
  EXPECT_FALSE(m.connected(0, 2));
  EXPECT_EQ(m.distance(0, 4), 4);
  EXPECT_EQ(m.distance(2, 2), 0);
  EXPECT_EQ(m.num_edges(), 4u);
}

TEST(Coupling, EdgesAreDeduplicatedAndValidated) {
  CouplingMap m(3);
  m.add_edge(0, 1);
  m.add_edge(1, 0);
  EXPECT_EQ(m.num_edges(), 1u);
  EXPECT_THROW(m.add_edge(0, 0), PreconditionError);
  EXPECT_THROW(m.add_edge(0, 3), PreconditionError);
}

TEST(Coupling, Eagle127Shape) {
  const CouplingMap m = CouplingMap::eagle127();
  EXPECT_EQ(m.num_qubits(), 127);
  // Heavy-hex: degree never exceeds 3 and the graph is connected.
  int max_deg = 0;
  for (int q = 0; q < 127; ++q) max_deg = std::max(max_deg, static_cast<int>(m.neighbors(q).size()));
  EXPECT_EQ(max_deg, 3);
  EXPECT_EQ(m.bfs_order(0).size(), 127u);
  // Eagle has 144 edges (6 rows of 13/14 links + 48 bridge links).
  EXPECT_GT(m.num_edges(), 130u);
  EXPECT_LT(m.num_edges(), 150u);
}

TEST(Basis, OneQubitGatesLowerCorrectly) {
  std::uint64_t seed = 100;
  for (GateKind k : {GateKind::H, GateKind::Y, GateKind::Z, GateKind::S, GateKind::Sdg,
                     GateKind::SXdg}) {
    Circuit c(1);
    c.append(Gate::one(k, 0));
    const Circuit lowered = to_native_basis(c);
    EXPECT_TRUE(is_native_basis(lowered)) << gate_name(k);
    expect_equivalent(c, lowered, seed++);
  }
  for (GateKind k : {GateKind::RX, GateKind::RY}) {
    for (double angle : {0.37, -1.2, kPi / 2, kPi}) {
      Circuit c(1);
      c.append(Gate::one(k, 0, angle));
      const Circuit lowered = to_native_basis(c);
      EXPECT_TRUE(is_native_basis(lowered));
      expect_equivalent(c, lowered, seed++);
    }
  }
}

TEST(Basis, CxOverEcrIsEquivalent) {
  Circuit c(2);
  c.cx(0, 1);
  const Circuit lowered = to_native_basis(c);
  EXPECT_TRUE(is_native_basis(lowered));
  EXPECT_EQ(lowered.count_ops().at("ecr"), 1u);
  expect_equivalent(c, lowered, 7);

  Circuit rev(2);
  rev.cx(1, 0);
  expect_equivalent(rev, to_native_basis(rev), 8);
}

TEST(Basis, CzAndSwapLower) {
  Circuit cz(2);
  cz.cz(0, 1);
  expect_equivalent(cz, to_native_basis(cz), 9);

  Circuit sw(2);
  sw.swap(0, 1);
  const Circuit lowered = to_native_basis(sw);
  EXPECT_EQ(lowered.count_ops().at("ecr"), 3u);
  expect_equivalent(sw, lowered, 10);
}

TEST(Basis, RandomCircuitLowersEquivalently) {
  Rng rng(11);
  Circuit c(4);
  for (int i = 0; i < 40; ++i) {
    const int q = static_cast<int>(rng.below(4));
    switch (rng.below(6)) {
      case 0: c.ry(rng.uniform(-kPi, kPi), q); break;
      case 1: c.rz(rng.uniform(-kPi, kPi), q); break;
      case 2: c.h(q); break;
      case 3: c.rx(rng.uniform(-kPi, kPi), q); break;
      case 4: {
        int q2 = static_cast<int>(rng.below(4));
        if (q2 == q) q2 = (q + 1) % 4;
        c.cx(q, q2);
        break;
      }
      default: {
        int q2 = static_cast<int>(rng.below(4));
        if (q2 == q) q2 = (q + 1) % 4;
        c.cz(q, q2);
      }
    }
  }
  const Circuit lowered = to_native_basis(c);
  EXPECT_TRUE(is_native_basis(lowered));
  expect_equivalent(c, lowered, 12);

  const Circuit simplified = simplify_native(lowered);
  EXPECT_LE(simplified.size(), lowered.size());
  expect_equivalent(c, simplified, 13);
}

TEST(Basis, SimplifyMergesRz) {
  Circuit c(1);
  c.rz(0.5, 0).rz(-0.5, 0).rz(0.25, 0);
  const Circuit s = simplify_native(c);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_NEAR(s.gates()[0].angle, 0.25, 1e-12);

  Circuit zero(1);
  zero.rz(kPi, 0).rz(kPi, 0);  // 2*pi == identity
  EXPECT_EQ(simplify_native(zero).size(), 0u);
}

TEST(Basis, SimplifyRejectsNonNative) {
  Circuit c(1);
  c.h(0);
  EXPECT_THROW(simplify_native(c), PreconditionError);
}

TEST(Router, AdjacentGatesNeedNoSwaps) {
  const CouplingMap line = CouplingMap::line(4);
  Circuit c(4);
  c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
  const RoutingResult r = route_circuit(c, line, {0, 1, 2, 3});
  EXPECT_EQ(r.swaps_inserted, 0);
  EXPECT_EQ(r.routed.two_qubit_count(), 3u);
}

TEST(Router, DistantGateGetsSwapsAndStaysCorrect) {
  const CouplingMap line = CouplingMap::line(4);
  Circuit c(4);
  c.h(0).cx(0, 3);
  const RoutingResult r = route_circuit(c, line, {0, 1, 2, 3});
  EXPECT_GE(r.swaps_inserted, 2);

  // Verify semantics: simulate the routed circuit and undo the final layout
  // permutation; the result must match the logical circuit.
  Statevector logical(4);
  logical.apply(c);
  Statevector phys(4);
  phys.apply(r.routed);
  // Compare probabilities through the final layout (logical l lives on
  // physical r.final_layout[l]).
  for (std::uint64_t x = 0; x < 16; ++x) {
    std::uint64_t y = 0;
    for (int l = 0; l < 4; ++l) {
      if ((x >> l) & 1) y |= std::uint64_t{1} << r.final_layout[static_cast<std::size_t>(l)];
    }
    EXPECT_NEAR(logical.probability(x), phys.probability(y), 1e-9) << x;
  }
}

TEST(Router, RejectsBadLayouts) {
  const CouplingMap line = CouplingMap::line(3);
  Circuit c(3);
  c.cx(0, 1);
  EXPECT_THROW(route_circuit(c, line, {0, 1}), PreconditionError);       // wrong size
  EXPECT_THROW(route_circuit(c, line, {0, 0, 1}), PreconditionError);    // duplicate
  EXPECT_THROW(route_circuit(c, line, {0, 1, 7}), PreconditionError);    // off-device
}

TEST(Router, RegionAllocationIsConnectedAndSized) {
  const CouplingMap eagle = CouplingMap::eagle127();
  const auto region = allocate_region(eagle, 22, 8, 0);
  EXPECT_EQ(region.size(), 30u);
  const std::set<int> unique(region.begin(), region.end());
  EXPECT_EQ(unique.size(), region.size());
  EXPECT_THROW(allocate_region(eagle, 120, 20, 0), PreconditionError);
}

TEST(Router, LineLayoutCoversChain) {
  const CouplingMap eagle = CouplingMap::eagle127();
  const auto region = allocate_region(eagle, 10, 6, 0);
  const auto layout = line_layout_in_region(eagle, region, 10);
  ASSERT_EQ(layout.size(), 10u);
  const std::set<int> unique(layout.begin(), layout.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Router, MarginReducesRoutedDepth) {
  // The §5.3 claim: extra ancilla qubits give the router freedom and cut the
  // executed depth.  Compare a tight allocation against a +8 margin for the
  // L-group ansatz (22 logical qubits) on Eagle.
  const CouplingMap eagle = CouplingMap::eagle127();
  const EfficientSU2 ansatz(22, 2);
  std::vector<double> params(static_cast<std::size_t>(ansatz.num_parameters()), 0.3);
  const Circuit logical = ansatz.build(params);

  const TranspileReport tight = transpile_for_device(logical, eagle, 0);
  const TranspileReport roomy = transpile_for_device(logical, eagle, 8);
  EXPECT_LE(roomy.swaps_inserted, tight.swaps_inserted);
  EXPECT_LE(roomy.depth, tight.depth);
  EXPECT_EQ(roomy.allocated_qubits, 30);
}

TEST(Allocation, PublishedValuesMatchPaperTables) {
  // Spot-check the exact published (length -> qubits, depth) pairs.
  struct Row { int len, qubits, depth; };
  for (const Row& r : {Row{5, 12, 53}, Row{6, 23, 97}, Row{7, 38, 157}, Row{8, 46, 189},
                       Row{9, 54, 221}, Row{10, 63, 257}, Row{11, 72, 293},
                       Row{12, 82, 333}, Row{13, 92, 373}, Row{14, 102, 413}}) {
    const EagleAllocation a = published_eagle_allocation(r.len);
    EXPECT_EQ(a.qubits, r.qubits) << "len " << r.len;
    EXPECT_EQ(a.depth, r.depth) << "len " << r.len;
  }
}

TEST(Allocation, DepthLawHolds) {
  for (int len = 5; len <= 14; ++len) {
    const EagleAllocation a = published_eagle_allocation(len);
    EXPECT_EQ(a.depth, modeled_depth_for_allocation(a.qubits));
  }
  EXPECT_THROW(published_eagle_allocation(4), PreconditionError);
  EXPECT_THROW(published_eagle_allocation(15), PreconditionError);
}

TEST(Allocation, LogicalTurnQubits) {
  EXPECT_EQ(logical_turn_qubits(5), 4);
  EXPECT_EQ(logical_turn_qubits(14), 22);
  EXPECT_THROW(logical_turn_qubits(3), PreconditionError);
}


TEST(Resynth, CollapsesLongRunsToFiveGates) {
  Rng rng(77);
  Circuit c(1);
  for (int i = 0; i < 30; ++i) {
    switch (rng.below(5)) {
      case 0: c.ry(rng.uniform(-kPi, kPi), 0); break;
      case 1: c.rz(rng.uniform(-kPi, kPi), 0); break;
      case 2: c.h(0); break;
      case 3: c.sx(0); break;
      default: c.rx(rng.uniform(-kPi, kPi), 0); break;
    }
  }
  const Circuit r = resynthesize_1q(c);
  EXPECT_LE(r.size(), 5u);
  expect_equivalent(c, r, 501);
}

TEST(Resynth, PreservesTwoQubitStructure) {
  Rng rng(79);
  Circuit c(3);
  for (int i = 0; i < 50; ++i) {
    const int q = static_cast<int>(rng.below(3));
    switch (rng.below(5)) {
      case 0: c.ry(rng.uniform(-kPi, kPi), q); break;
      case 1: c.rz(rng.uniform(-kPi, kPi), q); break;
      case 2: c.h(q); break;
      case 3: c.sx(q); break;
      default: {
        int q2 = static_cast<int>(rng.below(3));
        if (q2 == q) q2 = (q + 1) % 3;
        c.cx(q, q2);
      }
    }
  }
  const Circuit r = resynthesize_1q(c);
  EXPECT_EQ(r.two_qubit_count(), c.two_qubit_count());
  EXPECT_LE(r.size(), c.size() + 10);  // typically much smaller
  expect_equivalent(c, r, 502);
}

TEST(Resynth, IdentityRunsVanish) {
  Circuit c(2);
  c.x(0).x(0).sx(1).sx(1).sx(1).sx(1);  // X^2 = I, SX^4 = I
  const Circuit r = resynthesize_1q(c);
  EXPECT_EQ(r.size(), 0u);
}

TEST(Resynth, PureZRunsBecomeOneRz) {
  Circuit c(1);
  c.rz(0.3, 0).z(0).s(0).rz(-0.1, 0);
  const Circuit r = resynthesize_1q(c);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.gates()[0].kind, GateKind::RZ);
  expect_equivalent(c, r, 503);
}

TEST(Resynth, HandlesAntiDiagonalUnitaries) {
  Circuit c(1);
  c.x(0);
  const Circuit r = resynthesize_1q(c);
  EXPECT_LE(r.size(), 5u);
  expect_equivalent(c, r, 504);
}

}  // namespace
}  // namespace qdb
