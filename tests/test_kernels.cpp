// Fused engine goldens: f64 bit-identity against the scalar
// Statevector, f32 tolerance bounds, fusion accounting and spans, the
// default cache-block rule, and no cache file written under the user's home.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quantum/ansatz.h"
#include "quantum/fusion.h"
#include "quantum/kernels.h"
#include "quantum/noise.h"
#include "support/statevector.h"
#include "transpile/basis.h"
#include "transpile/layers.h"

namespace qdb {
namespace {

Circuit transpiled_ansatz(int nq, std::uint64_t seed) {
  const EfficientSU2 ansatz(nq, 2);
  Rng rng(seed);
  return simplify_native(to_native_basis(ansatz.build(ansatz.initial_point(rng, 0.5))));
}

// Every supported gate kind at least once, with wire gaps that exercise
// non-adjacent two-qubit strides.
Circuit misc_circuit(int nq) {
  Circuit c(nq);
  c.h(0).x(1).y(2).z(3).s(0).sdg(1).sx(2).sxdg(3);
  c.rx(0.3, 0).ry(-0.7, 1).rz(1.1, 2);
  c.cx(0, 1).cx(1, 0).cz(2, 3).swap(0, 2).ecr(3, 1);
  c.cx(0, nq - 1).cz(nq - 1, 1).swap(1, nq - 2);
  c.ry(0.25, nq - 1).rz(-0.4, nq - 2);
  return c;
}

// Bitwise equality: EXPECT_EQ on doubles treats -0.0 == 0.0, memcmp does not.
::testing::AssertionResult bit_identical(const std::vector<cplx>& a,
                                         const std::vector<cplx>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(cplx)) != 0) {
      return ::testing::AssertionFailure()
             << "amplitude " << i << " differs: (" << a[i].real() << "," << a[i].imag()
             << ") vs (" << b[i].real() << "," << b[i].imag() << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// Deterministic pseudo-Hamiltonian diagonal for energy-tolerance bounds.
double diag_energy(std::uint64_t x) {
  const auto h = x * 0x9e3779b97f4a7c15ull;
  return -5.0 + static_cast<double>(h >> 40) * 1e-5;
}

TEST(FusedEngineF64, BitIdenticalToStatevectorOnTranspiledAnsatz) {
  for (const int nq : {9, 12, 16}) {
    const Circuit native = transpiled_ansatz(nq, 7 + static_cast<std::uint64_t>(nq));
    Statevector sv(nq);
    sv.apply(native);
    FusedEngine eng(nq, Precision::f64);
    eng.apply(native);
    EXPECT_TRUE(bit_identical(eng.amplitudes(), sv.amplitudes())) << "nq=" << nq;
  }
}

TEST(FusedEngineF64, BitIdenticalAcrossBlockSizesAndGateKinds) {
  // Block 12 is the default rule's pick on every register wider than 12.
  const std::vector<std::pair<int, std::vector<int>>> cases = {
      {11, {2, 4, 7, 11}}, {14, {12}}, {16, {12}}};
  for (const auto& [nq, blocks] : cases) {
    const Circuit c = misc_circuit(nq);
    Statevector sv(nq);
    sv.apply(c);
    const auto want = sv.amplitudes();
    for (const int block : blocks) {
      EngineOptions opt;
      opt.block_qubits = block;
      FusedEngine eng(nq, Precision::f64, opt);
      eng.apply(c);
      EXPECT_TRUE(bit_identical(eng.amplitudes(), want)) << "nq=" << nq << " block=" << block;
    }
  }
}

TEST(FusedEngineF64, ScalarFallbackMatchesDispatchBitForBit) {
  const int nq = 12;
  const Circuit native = transpiled_ansatz(nq, 3);
  EngineOptions scalar_opt;
  scalar_opt.force_scalar = true;
  FusedEngine scalar(nq, Precision::f64, scalar_opt);
  FusedEngine dispatch(nq, Precision::f64);
  scalar.apply(native);
  dispatch.apply(native);
  // On AVX2 hosts this proves the SIMD kernels reproduce the scalar
  // expression tree exactly; elsewhere both sides run the same fallback.
  EXPECT_TRUE(bit_identical(dispatch.amplitudes(), scalar.amplitudes()));
}

/// EfficientSU2 (reps 2) with one Eagle noise trajectory: the circuits
/// stage-1 shot scoring applies, Pauli errors included.
Circuit noisy_ansatz(int nq, std::uint64_t seed) {
  const EfficientSU2 ansatz(nq, 2);
  Rng rng(seed);
  return noise_trajectory(ansatz.build(ansatz.initial_point(rng, 1.0)),
                          NoiseModel::eagle_r3(), rng);
}

TEST(FusedEngineF32, ScalarFallbackMatchesDispatchBitForBit) {
  // Matrix-fused f32 programs put 1q and 2q ops on qubits 0..2, below the
  // eight-lane width; on AVX2 hosts those take the in-register permute
  // kernels, which must reproduce the scalar loops to the bit.
  for (int nq = 9; nq <= 14; ++nq) {
    const Circuit c = noisy_ansatz(nq, 50 + static_cast<std::uint64_t>(nq));
    for (int block = 1; block <= nq; ++block) {
      EngineOptions scalar_opt;
      scalar_opt.force_scalar = true;
      scalar_opt.block_qubits = block;
      EngineOptions dispatch_opt;
      dispatch_opt.block_qubits = block;
      FusedEngine scalar(nq, Precision::f32, scalar_opt);
      FusedEngine dispatch(nq, Precision::f32, dispatch_opt);
      scalar.apply(c);
      dispatch.apply(c);
      EXPECT_TRUE(bit_identical(dispatch.amplitudes(), scalar.amplitudes()))
          << "nq=" << nq << " block=" << block;
    }
  }
}

std::array<std::array<cplx, 2>, 2> random_2x2(Rng& rng) {
  std::array<std::array<cplx, 2>, 2> m{};
  for (auto& row : m)
    for (cplx& x : row) x = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return m;
}

std::array<std::array<cplx, 4>, 4> random_4x4(Rng& rng) {
  std::array<std::array<cplx, 4>, 4> m{};
  for (auto& row : m)
    for (cplx& x : row) x = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return m;
}

TEST(FusedKernels, LowQubitOpsMatchScalarAtEveryPairAndRange) {
  // Every op of a 9-qubit register: each 1q op, and each (q0, q1) in both
  // orders.  Ops whose low qubit is below the lane count (8 f32, 4 f64)
  // take the permute kernel, with the other qubit below or above the
  // width; the rest take the wide kernel.  Block sizes above the op's top
  // qubit run it on block ranges, the rest on full-array chunks (down to
  // chunks shorter than one vector, which stay scalar), so each kernel
  // instance meets the scalar one at every block size.  Random non-unitary
  // matrices, from a random state, so every matrix entry reaches the result.
  const int nq = 9;
  for (const Precision prec : {Precision::f32, Precision::f64}) {
    Rng rng(23);
    std::vector<FusedOp> ops;
    for (int q = 0; q < nq; ++q) {
      FusedOp op;
      op.q0 = q;
      op.m2 = random_2x2(rng);
      ops.push_back(op);
    }
    for (int q0 = 0; q0 < nq; ++q0)
      for (int q1 = 0; q1 < nq; ++q1) {
        if (q0 == q1) continue;
        FusedOp op;
        op.two_qubit = true;
        op.q0 = q0;
        op.q1 = q1;
        op.m4 = random_4x4(rng);
        ops.push_back(op);
      }
    FusedProgram prep;
    prep.num_qubits = nq;
    for (int q = 0; q < nq; ++q) {
      FusedOp op;
      op.q0 = q;
      op.m2 = random_2x2(rng);
      prep.ops.push_back(op);
    }
    for (const FusedOp& op : ops) {
      FusedProgram p;
      p.num_qubits = nq;
      p.ops = {op};
      for (int block = 1; block <= nq; ++block) {
        EngineOptions scalar_opt;
        scalar_opt.force_scalar = true;
        scalar_opt.block_qubits = block;
        EngineOptions dispatch_opt;
        dispatch_opt.block_qubits = block;
        FusedEngine scalar(nq, prec, scalar_opt);
        FusedEngine dispatch(nq, prec, dispatch_opt);
        scalar.apply(prep);
        dispatch.apply(prep);
        ASSERT_TRUE(bit_identical(dispatch.amplitudes(), scalar.amplitudes()));
        scalar.apply(p);
        dispatch.apply(p);
        EXPECT_TRUE(bit_identical(dispatch.amplitudes(), scalar.amplitudes()))
            << precision_name(prec) << " q0=" << op.q0 << " q1=" << op.q1
            << " block=" << block;
      }
    }
  }
}

TEST(FusedEngineF64, ResetAndReuseMatchesFreshEngine) {
  const int nq = 10;
  const Circuit a = transpiled_ansatz(nq, 11);
  const Circuit b = misc_circuit(nq);
  FusedEngine reused(nq, Precision::f64);
  reused.apply(a);
  reused.reset();
  reused.apply(b);
  FusedEngine fresh(nq, Precision::f64);
  fresh.apply(b);
  EXPECT_TRUE(bit_identical(reused.amplitudes(), fresh.amplitudes()));
}

TEST(FusedEngineF64, SampleIsDrawForDrawIdenticalToStatevector) {
  const int nq = 12;
  const Circuit native = transpiled_ansatz(nq, 21);
  Statevector sv(nq);
  sv.apply(native);
  FusedEngine eng(nq, Precision::f64);
  eng.apply(native);
  // Both the sparse (binary search) and dense (linear walk) strategies.
  for (const std::size_t shots : {std::size_t{5}, std::size_t{4096}}) {
    Rng rng_sv(99), rng_eng(99);
    EXPECT_EQ(eng.sample(shots, rng_eng), sv.sample(shots, rng_sv)) << shots;
  }
  // A call at another shot count first: reusing the engine's draw buffer
  // must not change the next call's outcomes.
  Rng rng_sv(123), rng_eng(123);
  (void)sv.sample(7, rng_sv);
  (void)eng.sample(7, rng_eng);
  EXPECT_EQ(eng.sample(5000, rng_eng), sv.sample(5000, rng_sv));
}

TEST(FusedEngineF64, CachedCdfIsInvalidatedByApply) {
  const int nq = 9;
  FusedEngine eng(nq, Precision::f64);
  eng.apply(transpiled_ansatz(nq, 5));
  Rng rng_a(7);
  const auto first = eng.sample(100, rng_a);   // builds the CDF
  const auto second = eng.sample(100, rng_a);  // reuses it
  {
    // A fresh engine over the same state must reproduce both calls from the
    // same rng stream: caching changes cost, never outcomes.
    FusedEngine fresh(nq, Precision::f64);
    fresh.apply(transpiled_ansatz(nq, 5));
    Rng rng_b(7);
    EXPECT_EQ(first, fresh.sample(100, rng_b));
    EXPECT_EQ(second, fresh.sample(100, rng_b));
  }
  // Applying more gates must invalidate the cache.
  Circuit more(nq);
  more.h(0).cx(0, nq - 1);
  eng.apply(more);
  Statevector sv(nq);
  sv.apply(transpiled_ansatz(nq, 5));
  sv.apply(more);
  Rng rng_c(13), rng_d(13);
  EXPECT_EQ(eng.sample(500, rng_c), sv.sample(500, rng_d));
}

TEST(FusedEngineF32, AmplitudeAndEnergyErrorBounded) {
  const int nq = 12;
  const Circuit native = transpiled_ansatz(nq, 29);
  FusedEngine f64(nq, Precision::f64);
  FusedEngine f32(nq, Precision::f32);
  f64.apply(native);
  f32.apply(native);
  const auto a64 = f64.amplitudes();
  const auto a32 = f32.amplitudes();
  double max_err = 0.0;
  for (std::size_t i = 0; i < a64.size(); ++i) {
    max_err = std::max(max_err, std::abs(a64[i] - a32[i]));
  }
  // ~400 native gates of float arithmetic: error should sit near 1e-6 and
  // must stay far below anything that reorders the sampled histogram tails.
  EXPECT_LT(max_err, 5e-5);
  EXPECT_GT(max_err, 0.0);  // it IS single precision, not secretly double
  EXPECT_NEAR(f32.norm2(), 1.0, 1e-4);
  // Stage-1 energy bound: a diagonal expectation in the f32 state agrees
  // with the f64 state to far better than CVaR's shot noise.
  const auto energy = [](const std::vector<cplx>& amps) {
    double e = 0.0;
    for (std::size_t i = 0; i < amps.size(); ++i) e += std::norm(amps[i]) * diag_energy(i);
    return e;
  };
  const double e64 = energy(a64);
  const double e32 = energy(a32);
  EXPECT_NEAR(e32, e64, 1e-4 * std::abs(e64));
}

TEST(Fusion, GroupWireRunsCoversEveryGateOncePreservingWireOrder) {
  const Circuit c = transpiled_ansatz(10, 41);
  const LayerGrouping grouping = group_wire_runs(c);
  std::set<std::size_t> seen;
  for (const GateRun& run : grouping.runs) {
    ASSERT_FALSE(run.gates.empty());
    if (run.two_qubit) {
      EXPECT_TRUE(is_two_qubit(c.gates()[run.gates.back()].kind));
    }
    for (std::size_t gi : run.gates) EXPECT_TRUE(seen.insert(gi).second) << gi;
  }
  EXPECT_EQ(seen.size(), c.gates().size());
  EXPECT_GT(grouping.fusion_ratio(), 2.0);  // RZ/SX runs actually fold
}

TEST(Fusion, MaxRunCapsAbsorbedOneQubitGates) {
  const Circuit c = transpiled_ansatz(8, 43);
  for (const int cap : {1, 2, 4}) {
    const LayerGrouping grouping = group_wire_runs(c, cap);
    for (const GateRun& run : grouping.runs) {
      if (!run.two_qubit) {
        EXPECT_LE(run.gates.size(), static_cast<std::size_t>(cap));
      }
    }
  }
  // Tighter caps can only emit more runs.
  EXPECT_GE(group_wire_runs(c, 1).runs_out(), group_wire_runs(c, 4).runs_out());
  EXPECT_GE(group_wire_runs(c, 4).runs_out(), group_wire_runs(c).runs_out());
}

TEST(Fusion, MatrixFusedProgramMatchesUnfusedToRounding) {
  const int nq = 10;
  const Circuit native = transpiled_ansatz(nq, 47);
  Statevector sv(nq);
  sv.apply(native);
  const auto want = sv.amplitudes();
  FusionOptions fo;
  fo.fuse_matrices = true;
  const FusedProgram prog = fuse_circuit(native, fo);
  EXPECT_GT(prog.fusion_ratio(), 2.0);
  EXPECT_EQ(prog.gates_in, native.gates().size());
  FusedEngine eng(nq, Precision::f64);
  eng.apply(prog);
  const auto got = eng.amplitudes();
  for (std::size_t i = 0; i < want.size(); ++i) {
    // Premultiplication reassociates rounding; it must stay at the 1e-12
    // scale, far from the exact-path guarantee but numerically irrelevant.
    EXPECT_NEAR(got[i].real(), want[i].real(), 1e-12) << i;
    EXPECT_NEAR(got[i].imag(), want[i].imag(), 1e-12) << i;
  }
}

TEST(Fusion, ExactModeEmitsOneOpPerGate) {
  const Circuit c = misc_circuit(6);
  FusionOptions fo;
  fo.fuse_matrices = false;
  const FusedProgram prog = fuse_circuit(c, fo);
  EXPECT_EQ(prog.ops.size(), c.gates().size());
  EXPECT_DOUBLE_EQ(prog.fusion_ratio(), 1.0);
}

/// Sets (or, for nullptr, unsets) an environment variable for one scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* prior = std::getenv(name);
    had_ = prior != nullptr;
    if (had_) prior_ = prior;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_, prior_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::string prior_;
  bool had_ = false;
};

TEST(FusedEngineBlock, DefaultIsTheQubitCountCappedAtTwelve) {
  for (int nq = 1; nq <= 22; ++nq) {
    for (const Precision p : {Precision::f64, Precision::f32}) {
      EXPECT_EQ(FusedEngine(nq, p).block_qubits(), std::min(nq, 12))
          << "nq=" << nq << " " << precision_name(p);
    }
  }
}

TEST(UserCache, DenseEnginesAndAColdEvaluateWriteNothingThere) {
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / "qdb_user_cache";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  {
    const ScopedEnv xdg_env("XDG_CACHE_HOME", root.c_str());
    const ScopedEnv home_env("HOME", root.c_str());
    for (const int nq : {10, 12, 14}) {
      for (const Precision p : {Precision::f64, Precision::f32}) {
        FusedEngine eng(nq, p);
        eng.apply(transpiled_ansatz(nq, 5));
      }
    }
    const Pipeline pipeline(PipelineOptions::bench_profile());
    pipeline.evaluate(entry_by_id("6p86"), Method::QDock);
    EXPECT_TRUE(std::filesystem::is_empty(root));
  }
  std::filesystem::remove_all(root);
}

TEST(FusedEngineCounters, FusionAccountingIsRecorded) {
  const int nq = 9;
  const Circuit native = transpiled_ansatz(nq, 53);
  FusedEngine eng(nq, Precision::f32);
  const auto gates_before = obs::counter("kernel.fused.gates_in").value();
  const auto ops_before = obs::counter("kernel.fused.ops").value();
  eng.apply(native);
  const auto gates = obs::counter("kernel.fused.gates_in").value() - gates_before;
  const auto ops = obs::counter("kernel.fused.ops").value() - ops_before;
  EXPECT_EQ(gates, native.gates().size());
  EXPECT_LT(ops, gates);  // the ratio the obs layer reports is > 1
}

/// Names of the events a trace session recorded, in (tid, ts, depth) order.
std::vector<std::string> span_names(const obs::TraceSession& session) {
  std::vector<std::string> names;
  for (const obs::TraceEvent& e : session.events()) {
    EXPECT_EQ(e.depth, 0) << e.name;  // siblings: fusion is not apply time
    names.push_back(e.name);
  }
  return names;
}

TEST(FusedEngineSpans, CircuitApplyRecordsOneFuseSpanAndPreFusedApplyNone) {
  const int nq = 9;
  const Circuit native = transpiled_ansatz(nq, 59);
  for (const Precision p : {Precision::f32, Precision::f64}) {
    SCOPED_TRACE(precision_name(p));
    std::string apply_span = "kernel.apply.";
    apply_span += precision_name(p);
    FusedEngine eng(nq, p);
    {
      obs::TraceSession session;
      session.start();
      eng.apply(native);
      session.stop();
      EXPECT_EQ(span_names(session), (std::vector<std::string>{"kernel.fuse", apply_span}));
    }
    FusionOptions fo;
    fo.fuse_matrices = p == Precision::f32;
    const FusedProgram program = fuse_circuit(native, fo);
    {
      obs::TraceSession session;
      session.start();
      eng.apply(program);
      session.stop();
      EXPECT_EQ(span_names(session), std::vector<std::string>{apply_span});
    }
  }
}

}  // namespace
}  // namespace qdb
