// Fused, cache-blocked, SIMD statevector engine (ISSUE 6).
//
// FusedEngine is the library's one dense engine, which VQE shot scoring
// runs on.  Its reference is the serial test oracle Statevector
// (tests/support/statevector.h).  Three mechanisms stack:
//
//  * traversal fusion — consecutive ops that only touch qubits below the
//    cache-block size are applied block by block while a 2^B-amplitude
//    window is L1-resident, instead of re-streaming the full 2^n array per
//    gate.  Updates stay elementwise-identical to the one-gate-at-a-time
//    loop, so this never changes a single bit of the result.
//
//  * matrix fusion (quantum/fusion.h) — wire runs premultiplied into one
//    2x2/4x4.  Reassociates rounding, so it is reserved for Precision::f32.
//
//  * SIMD — split re/im storage (structure of arrays) makes every gate a
//    contiguous-run loop that AVX2 covers with plain mul/add/sub vectors.
//    Each ISA has one gate kernel, written once over <Real, kIn> (kIn = 2
//    inputs for a 1q op, 4 for a 2q op): apply_scalar, and on AVX2
//    apply_wide_avx2 (ops whose run covers a vector) and apply_low_avx2
//    (ops below the vector width).  `#pragma GCC unroll` unrolls their
//    constant-trip loops, which GCC leaves rolled at -O2.  The AVX2 kernels
//    mirror the scalar expression tree exactly and never use FMA, so f64
//    SIMD results are bit-identical to scalar; a runtime
//    `__builtin_cpu_supports` dispatch (plus the QDB_NO_AVX2 build option)
//    keeps non-AVX2 hosts on the scalar fallback.
//
// Precision doctrine: Precision::f64 runs exact programs (no matrix fusion)
// and reproduces the oracle's amplitudes bit-for-bit — it backs stage-2 and
// every published energy.  Precision::f32 adds matrix fusion and is used
// only for stage-1 shot scoring, where sampled bitstrings tolerate ~1e-6
// amplitude error (energies are always scored classically in f64).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "quantum/circuit.h"
#include "quantum/fusion.h"

namespace qdb {

enum class Precision { f64, f32 };

const char* precision_name(Precision p);

/// AVX2 kernels compiled in (not under -DQDB_NO_AVX2=ON, x86-64 only) *and*
/// supported by the running CPU.
bool kernels_avx2_active();

/// The cache-block size FusedEngine uses when EngineOptions::block_qubits
/// is 0: min(num_qubits, 12).  The only place the default is decided.
int default_block_qubits(int num_qubits);

struct EngineOptions {
  /// Cache-block size in qubits; 0 takes default_block_qubits().
  /// Results-neutral at every value — it only changes traversal order.
  int block_qubits = 0;
  /// Skip the AVX2 dispatch even when available (scalar-vs-SIMD goldens).
  bool force_scalar = false;
};

class FusedEngine {
 public:
  FusedEngine(int num_qubits, Precision precision, EngineOptions opt = {});

  int num_qubits() const { return num_qubits_; }
  std::uint64_t dimension() const { return std::uint64_t{1} << num_qubits_; }
  Precision precision() const { return precision_; }
  /// The resolved cache-block size (the option, else the default rule).
  int block_qubits() const { return block_qubits_; }

  /// Reset to |0...0>.
  void reset();

  /// Fuse with the precision's default policy (f64: exact, f32: matrix
  /// fusion) and execute, with the engine.dense.apply fault site and the
  /// norm audit.  The one place the kernel.fused.gates_in /
  /// kernel.fused.ops counters are added to.
  void apply(const Circuit& c);

  /// Execute an already-fused program (bench and sweep entry point);
  /// adds nothing to the fusion counters.
  void apply(const FusedProgram& p);

  /// Amplitudes widened to double (exact for f64, value-preserving for f32).
  std::vector<cplx> amplitudes() const;

  /// Probability of measuring basis state `index`.
  double probability(std::uint64_t index) const;

  /// Sum of |amp|^2 (1.0 up to round-off for unitary circuits).
  double norm2() const;

  /// Draw `shots` measurement outcomes.  Deterministic given the rng state,
  /// and for f64 draw-for-draw identical to the test oracle's
  /// Statevector::sample on the same state.  The CDF prefix pass is cached
  /// across calls and invalidated by apply/reset, so repeated sampling
  /// costs O(shots log shots), not O(dim).
  std::vector<std::uint64_t> sample(std::size_t shots, Rng& rng) const;

 private:
  const std::vector<double>& cdf() const;

  /// Calls f(re, im) with the data pointers of the populated pair (double
  /// or float, const when `self` is); the one place, after construction,
  /// that branches on the storage precision.
  template <class Self, class F>
  static decltype(auto) with_amps(Self& self, F&& f);

  int num_qubits_;
  Precision precision_;
  EngineOptions opt_;
  int block_qubits_ = 0;
  // Split re/im storage; exactly one pair is populated per precision.
  std::vector<double> re64_, im64_;
  std::vector<float> re32_, im32_;
  // Cached sampling state (see sample()).
  mutable std::vector<double> cdf_scratch_;
  mutable std::vector<double> draw_scratch_;
  mutable double cdf_total_ = 1.0;
  mutable bool cdf_valid_ = false;
};

}  // namespace qdb
