#include "quantum/kernels.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// AVX2 kernels are compiled behind a target attribute and selected at
// runtime, so the translation unit builds (and the scalar path runs) on any
// host.  -DQDB_NO_AVX2=ON removes them entirely: the CI scalar-fallback leg
// and sanitizer builds on non-AVX2 runners take this path.
#if !defined(QDB_NO_AVX2) && (defined(__x86_64__) || defined(_M_X64))
#define QDB_AVX2_BUILD 1
#include <immintrin.h>
#endif

namespace qdb {

const char* precision_name(Precision p) {
  return p == Precision::f64 ? "f64" : "f32";
}

bool kernels_avx2_active() {
#ifdef QDB_AVX2_BUILD
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#else
  return false;
#endif
}

namespace {

// One lowered op on kIn amplitudes: kIn = 2 for a 1q op on qs[0], 4 for a
// 2q op on (qs[0], qs[1]) = (q0, q1).  Input or output c is the amplitude
// with bit j of c on qubit qs[j]: the |q1 q0> basis of gate_matrix_2q and
// of the test oracle's Statevector (tests/support/statevector.h).  m is
// the kIn x kIn matrix flattened to the working precision as row-major
// (real, imag) pairs: entry (r, c) is m[2 * kIn * r + 2 * c].
template <class Real>
struct OpK {
  bool two_qubit = false;
  int qs[2] = {0, -1};
  int lo = 0;  ///< lowest qubit touched (vector-width test)
  int hi = 0;  ///< highest qubit touched (block-locality test)
  Real m[32] = {};
};

template <class Real>
std::vector<OpK<Real>> lower_ops(const FusedProgram& p) {
  std::vector<OpK<Real>> ops;
  ops.reserve(p.ops.size());
  for (const FusedOp& src : p.ops) {
    OpK<Real> op;
    op.two_qubit = src.two_qubit;
    op.qs[0] = src.q0;
    op.qs[1] = src.q1;
    op.lo = src.two_qubit ? std::min(src.q0, src.q1) : src.q0;
    op.hi = src.two_qubit ? std::max(src.q0, src.q1) : src.q0;
    const int n = src.two_qubit ? 4 : 2;
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < n; ++c) {
        const cplx v = src.two_qubit ? src.m4[r][c] : src.m2[r][c];
        op.m[(r * n + c) * 2 + 0] = static_cast<Real>(v.real());
        op.m[(r * n + c) * 2 + 1] = static_cast<Real>(v.imag());
      }
    ops.push_back(op);
  }
  return ops;
}

// Where an op on kIn inputs reads: input c sits off[c] past its base index,
// and the bases of [begin, end) are base + mid + j for base stepping by
// 2 * 2^hi, mid by 2 * 2^lo below 2^hi, and j below 2^lo (a 1q op has
// lo = hi, so mid is 0 only).
template <int kIn>
struct OpShape {
  std::uint64_t off[kIn] = {};
  std::uint64_t lo = 0;  ///< 2^(lowest qubit)
  std::uint64_t hi = 0;  ///< 2^(highest qubit)
  explicit OpShape(const int* qs) {
    constexpr int kQubits = kIn == 2 ? 1 : 2;
    lo = hi = std::uint64_t{1} << qs[0];
    for (int j = 1; j < kQubits; ++j) {
      lo = std::min(lo, std::uint64_t{1} << qs[j]);
      hi = std::max(hi, std::uint64_t{1} << qs[j]);
    }
    for (int c = 0; c < kIn; ++c)
      for (int j = 0; j < kQubits; ++j)
        if (((c >> j) & 1) != 0) off[c] += std::uint64_t{1} << qs[j];
  }
};

// ---------------------------------------------------------------------------
// Scalar kernel.  The expression tree is the SoA transliteration of the
// test oracle Statevector's std::complex arithmetic: per output row r,
// v = t_0, then v = v + t_c for c = 1..kIn-1, left to right, where t_c is
// the complex product m(r, c) a_c written as (mr ar - mi ai, mr ai + mi ar)
// with each product rounded on its own.  The AVX2 kernels evaluate the
// same tree per lane with no FMA, which is what makes f64 results
// bit-identical across scalar, SIMD, and any cache-block size.
// `#pragma GCC unroll` fully unrolls the loops over inputs and rows here and
// in the AVX2 kernels: at -O2 (the default RelWithDebInfo build) GCC 12
// leaves them rolled.
// ---------------------------------------------------------------------------

template <class Real, int kIn>
void apply_scalar(Real* re, Real* im, std::uint64_t begin, std::uint64_t end,
                  const int* qs, const Real* m) {
  const OpShape<kIn> s(qs);
  for (std::uint64_t base = begin; base != end; base += s.hi << 1) {
    for (std::uint64_t mid = 0; mid < s.hi; mid += s.lo << 1) {
      for (std::uint64_t j = 0; j < s.lo; ++j) {
        const std::uint64_t i = base + mid + j;
        Real ar[kIn], ai[kIn], out_r[kIn], out_i[kIn];
#pragma GCC unroll 4
        for (int c = 0; c < kIn; ++c) {
          ar[c] = re[i + s.off[c]];
          ai[c] = im[i + s.off[c]];
        }
#pragma GCC unroll 4
        for (int r = 0; r < kIn; ++r) {
          const Real* mr = m + 2 * kIn * r;
          Real vr = mr[0] * ar[0] - mr[1] * ai[0];
          Real vi = mr[0] * ai[0] + mr[1] * ar[0];
#pragma GCC unroll 4
          for (int c = 1; c < kIn; ++c) {
            vr = vr + (mr[2 * c] * ar[c] - mr[2 * c + 1] * ai[c]);
            vi = vi + (mr[2 * c] * ai[c] + mr[2 * c + 1] * ar[c]);
          }
          out_r[r] = vr;
          out_i[r] = vi;
        }
#pragma GCC unroll 4
        for (int r = 0; r < kIn; ++r) {
          re[i + s.off[r]] = out_r[r];
          im[i + s.off[r]] = out_i[r];
        }
      }
    }
  }
}

#ifdef QDB_AVX2_BUILD

// ---------------------------------------------------------------------------
// AVX2 kernels.  target("avx2") deliberately omits "fma": without the FMA
// ISA the compiler cannot contract mul+add, so each lane computes exactly
// the scalar expression tree.  apply_wide_avx2 takes ops whose contiguous
// inner run (2^lo) covers at least one full vector; apply_low_avx2 takes
// the ops whose low qubit is below the vector width.
// ---------------------------------------------------------------------------

#define QDB_TARGET_AVX2 __attribute__((target("avx2")))

// One AVX2 vector of the working precision: eight floats or four doubles.
// Lane permutes move 32-bit elements, so a double lane k travels as the
// 32-bit pair (2k, 2k+1); either way a permute copies bits unchanged.
template <class Real>
struct Avx2;

template <>
struct Avx2<float> {
  using V = __m256;
  static constexpr int kLanes = 8;
  QDB_TARGET_AVX2 static V set1(float x) { return _mm256_set1_ps(x); }
  QDB_TARGET_AVX2 static V load(const float* p) { return _mm256_loadu_ps(p); }
  QDB_TARGET_AVX2 static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  QDB_TARGET_AVX2 static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  QDB_TARGET_AVX2 static V add(V a, V b) { return _mm256_add_ps(a, b); }
  QDB_TARGET_AVX2 static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  QDB_TARGET_AVX2 static V permute(V a, __m256i idx) {
    return _mm256_permutevar8x32_ps(a, idx);
  }
  /// Permute indices that move lane from[k] to lane k.
  QDB_TARGET_AVX2 static __m256i indices(const int* from) {
    return _mm256_setr_epi32(from[0], from[1], from[2], from[3], from[4], from[5],
                             from[6], from[7]);
  }
};

template <>
struct Avx2<double> {
  using V = __m256d;
  static constexpr int kLanes = 4;
  QDB_TARGET_AVX2 static V set1(double x) { return _mm256_set1_pd(x); }
  QDB_TARGET_AVX2 static V load(const double* p) { return _mm256_loadu_pd(p); }
  QDB_TARGET_AVX2 static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  QDB_TARGET_AVX2 static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  QDB_TARGET_AVX2 static V add(V a, V b) { return _mm256_add_pd(a, b); }
  QDB_TARGET_AVX2 static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  QDB_TARGET_AVX2 static V permute(V a, __m256i idx) {
    return _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(a), idx));
  }
  QDB_TARGET_AVX2 static __m256i indices(const int* from) {
    return _mm256_setr_epi32(2 * from[0], 2 * from[0] + 1, 2 * from[1], 2 * from[1] + 1,
                             2 * from[2], 2 * from[2] + 1, 2 * from[3], 2 * from[3] + 1);
  }
};

// One output vector of an op on kIn inputs: per lane, the scalar kernel's
// tree  v = t_0;  v = v + t_c  (c = 1..kIn-1)  with t_c the complex product
// (mr_c + i mi_c)(ar_c + i ai_c) written as (mr ar - mi ai, mr ai + mi ar).
template <class Real, int kIn>
QDB_TARGET_AVX2 inline void lane_row(const typename Avx2<Real>::V* ar,
                                     const typename Avx2<Real>::V* ai,
                                     const typename Avx2<Real>::V* mr,
                                     const typename Avx2<Real>::V* mi,
                                     typename Avx2<Real>::V& out_r,
                                     typename Avx2<Real>::V& out_i) {
  using T = Avx2<Real>;
  auto vr = T::sub(T::mul(mr[0], ar[0]), T::mul(mi[0], ai[0]));
  auto vi = T::add(T::mul(mr[0], ai[0]), T::mul(mi[0], ar[0]));
#pragma GCC unroll 4
  for (int c = 1; c < kIn; ++c) {
    vr = T::add(vr, T::sub(T::mul(mr[c], ar[c]), T::mul(mi[c], ai[c])));
    vi = T::add(vi, T::add(T::mul(mr[c], ai[c]), T::mul(mi[c], ar[c])));
  }
  out_r = vr;
  out_i = vi;
}

// An op whose low qubit is at or above the vector width: every input and
// output is a whole vector at a fixed offset from its base, so each lane
// is one base of the scalar loop.  The kIn x kIn matrix is broadcast once
// per call, one vector per (row, input) entry.
template <class Real, int kIn>
QDB_TARGET_AVX2 void apply_wide_avx2(Real* re, Real* im, std::uint64_t begin,
                                     std::uint64_t end, const int* qs, const Real* m) {
  using T = Avx2<Real>;
  using V = typename T::V;
  const OpShape<kIn> s(qs);
  V mr[kIn][kIn], mi[kIn][kIn];
  for (int r = 0; r < kIn; ++r) {
    for (int c = 0; c < kIn; ++c) {
      mr[r][c] = T::set1(m[2 * kIn * r + 2 * c]);
      mi[r][c] = T::set1(m[2 * kIn * r + 2 * c + 1]);
    }
  }
  for (std::uint64_t base = begin; base != end; base += s.hi << 1) {
    for (std::uint64_t mid = 0; mid < s.hi; mid += s.lo << 1) {
      for (std::uint64_t j = 0; j < s.lo; j += T::kLanes) {
        const std::uint64_t i = base + mid + j;
        V ar[kIn], ai[kIn], out_r[kIn], out_i[kIn];
#pragma GCC unroll 4
        for (int c = 0; c < kIn; ++c) {
          ar[c] = T::load(re + i + s.off[c]);
          ai[c] = T::load(im + i + s.off[c]);
        }
#pragma GCC unroll 4
        for (int r = 0; r < kIn; ++r) {
          lane_row<Real, kIn>(ar, ai, mr[r], mi[r], out_r[r], out_i[r]);
        }
#pragma GCC unroll 4
        for (int r = 0; r < kIn; ++r) {
          T::store(re + i + s.off[r], out_r[r]);
          T::store(im + i + s.off[r], out_i[r]);
        }
      }
    }
  }
}

// An op whose low qubit is below the vector width (inputs encoded as in
// OpK): an output lane's matrix row is its own bits on qs.  Qubits below
// the width pair lanes within one vector; a 2q op's other qubit h, if at
// or above it, pairs the vector at i with the one at i + 2^h.  Each output lane gathers its kIn inputs with in-register
// permutes from those vectors and multiplies them by its row, broadcast
// per lane, in the scalar expression tree: the same IEEE operations on the
// same operands, hence the same bits, as apply_scalar.
// [begin, end) must be a multiple of the vector width at both ends.
template <class Real, int kIn>
QDB_TARGET_AVX2 void apply_low_avx2(Real* re, Real* im, std::uint64_t begin,
                                    std::uint64_t end, const int* qs, const Real* m) {
  using T = Avx2<Real>;
  using V = typename T::V;
  constexpr int kLanes = T::kLanes;
  constexpr int kQubits = kIn == 2 ? 1 : 2;
  int h = -1;  // the qubit at or above the width, if any
  int in_mask = 0;
  for (int j = 0; j < kQubits; ++j) {
    if ((1 << qs[j]) >= kLanes) {
      h = qs[j];
    } else {
      in_mask |= 1 << qs[j];
    }
  }
  // Input c: lane k reads lane (k & ~in_mask) | bits(c) of vector from_hi[c].
  __m256i idx[kIn];
  bool from_hi[kIn];
  for (int c = 0; c < kIn; ++c) {
    int bits = 0;
    from_hi[c] = false;
    for (int j = 0; j < kQubits; ++j) {
      if (((c >> j) & 1) == 0) continue;
      if (qs[j] == h) {
        from_hi[c] = true;
      } else {
        bits |= 1 << qs[j];
      }
    }
    int from[kLanes];
    for (int k = 0; k < kLanes; ++k) from[k] = (k & ~in_mask) | bits;
    idx[c] = T::indices(from);
  }
  // Output vector g (the value of bit h; 0 when there is no h), lane k:
  // row r holds bit j = that lane's bit on qs[j].
  const int groups = h >= 0 ? 2 : 1;
  alignas(32) Real coef[2][2][kIn][kLanes];  // [g][re/im][c][lane]
  V mr[2][kIn], mi[2][kIn];
  for (int g = 0; g < groups; ++g) {
    for (int k = 0; k < kLanes; ++k) {
      int r = 0;
      for (int j = 0; j < kQubits; ++j)
        r |= (qs[j] == h ? g : (k >> qs[j]) & 1) << j;
      for (int c = 0; c < kIn; ++c) {
        coef[g][0][c][k] = m[2 * kIn * r + 2 * c];
        coef[g][1][c][k] = m[2 * kIn * r + 2 * c + 1];
      }
    }
    for (int c = 0; c < kIn; ++c) {
      mr[g][c] = T::load(coef[g][0][c]);
      mi[g][c] = T::load(coef[g][1][c]);
    }
  }
  V ar[kIn], ai[kIn];
  if (h < 0) {
    for (std::uint64_t i = begin; i != end; i += kLanes) {
      const V xr = T::load(re + i), xi = T::load(im + i);
#pragma GCC unroll 4
      for (int c = 0; c < kIn; ++c) {
        ar[c] = T::permute(xr, idx[c]);
        ai[c] = T::permute(xi, idx[c]);
      }
      V out_r, out_i;
      lane_row<Real, kIn>(ar, ai, mr[0], mi[0], out_r, out_i);
      T::store(re + i, out_r);
      T::store(im + i, out_i);
    }
    return;
  }
  const std::uint64_t hs = std::uint64_t{1} << h;
  for (std::uint64_t base = begin; base != end; base += hs << 1) {
    for (std::uint64_t j = 0; j < hs; j += kLanes) {
      const std::uint64_t i0 = base + j;
      const std::uint64_t i1 = i0 + hs;
      const V xr[2] = {T::load(re + i0), T::load(re + i1)};
      const V xi[2] = {T::load(im + i0), T::load(im + i1)};
#pragma GCC unroll 4
      for (int c = 0; c < kIn; ++c) {
        ar[c] = T::permute(xr[from_hi[c]], idx[c]);
        ai[c] = T::permute(xi[from_hi[c]], idx[c]);
      }
      V out_r, out_i;
      lane_row<Real, kIn>(ar, ai, mr[0], mi[0], out_r, out_i);
      T::store(re + i0, out_r);
      T::store(im + i0, out_i);
      lane_row<Real, kIn>(ar, ai, mr[1], mi[1], out_r, out_i);
      T::store(re + i1, out_r);
      T::store(im + i1, out_i);
    }
  }
}

#endif  // QDB_AVX2_BUILD

// Apply one lowered op on kIn inputs to the index range [begin, end).
// `begin`/`end` must be multiples of 2^(op.hi + 1) (block bases and
// full-array chunks are).
template <class Real, int kIn>
void apply_op_range(Real* re, Real* im, const OpK<Real>& op, std::uint64_t begin,
                    std::uint64_t end, bool avx2) {
#ifdef QDB_AVX2_BUILD
  constexpr std::uint64_t lanes = Avx2<Real>::kLanes;
  if (avx2 && (std::uint64_t{1} << op.lo) >= lanes) {
    apply_wide_avx2<Real, kIn>(re, im, begin, end, op.qs, op.m);
    return;
  }
  // Below the width: whole vectors only (a full-array chunk of an op on
  // qubits 0..1 can be shorter than one).
  if (avx2 && ((begin | end) & (lanes - 1)) == 0) {
    apply_low_avx2<Real, kIn>(re, im, begin, end, op.qs, op.m);
    return;
  }
#else
  (void)avx2;
#endif
  apply_scalar<Real, kIn>(re, im, begin, end, op.qs, op.m);
}

template <class Real>
void apply_op_range(Real* re, Real* im, const OpK<Real>& op, std::uint64_t begin,
                    std::uint64_t end, bool avx2) {
  if (op.two_qubit) {
    apply_op_range<Real, 4>(re, im, op, begin, end, avx2);
  } else {
    apply_op_range<Real, 2>(re, im, op, begin, end, avx2);
  }
}

// Execute a lowered program: consecutive ops confined to the low `block`
// qubits run block by block (one 2^block window stays L1-resident across
// the whole segment); anything wider takes its own full-array pass.  Every
// task updates a disjoint index range, so thread count never affects bits.
template <class Real>
void run_lowered(Real* re, Real* im, int num_qubits, int block, bool avx2,
                 const std::vector<OpK<Real>>& ops) {
  const std::uint64_t dim = std::uint64_t{1} << num_qubits;
  const int b = std::min(block, num_qubits);
  const std::uint64_t bs = std::uint64_t{1} << b;
  std::size_t i = 0;
  while (i < ops.size()) {
    if (ops[i].hi < b) {
      std::size_t j = i + 1;
      while (j < ops.size() && ops[j].hi < b) ++j;
      const auto nblocks = static_cast<std::int64_t>(dim >> b);
      parallel_for_static(nblocks, [&](std::int64_t blk) {
        const std::uint64_t begin = static_cast<std::uint64_t>(blk) << b;
        for (std::size_t k = i; k < j; ++k) {
          apply_op_range(re, im, ops[k], begin, begin + bs, avx2);
        }
      });
      i = j;
    } else {
      const OpK<Real>& op = ops[i];
      const std::uint64_t step = std::uint64_t{2} << op.hi;
      const auto nchunks = static_cast<std::int64_t>(dim / step);
      parallel_for_static(nchunks, [&](std::int64_t k) {
        const std::uint64_t begin = static_cast<std::uint64_t>(k) * step;
        apply_op_range(re, im, op, begin, begin + step, avx2);
      });
      ++i;
    }
  }
}

// Draws `shots` outcomes from the inclusive prefix sums `cdf` of the
// probabilities, whose final value is `total` (1.0 for an all-zero state).
// One uniform per shot, sorted, walked once along the CDF, then a
// Fisher-Yates unshuffle: the test oracle's Statevector::sample consumes the
// Rng the same way, so f64 draws match it draw for draw.  `draw_scratch` is
// reused so per-trajectory sampling does not re-allocate.
std::vector<std::uint64_t> sample_sorted_cdf(const std::vector<double>& cdf,
                                             double total, std::size_t shots,
                                             Rng& rng,
                                             std::vector<double>& draw_scratch) {
  std::vector<double>& draws = draw_scratch;
  draws.resize(shots);
  for (double& d : draws) d = rng.uniform() * total;
  std::sort(draws.begin(), draws.end());

  std::vector<std::uint64_t> out(shots);
  // With shots << dim the linear walk touches every CDF entry between
  // consecutive draws; a binary search over the remaining tail is far
  // cheaper.  Both locate the first index with cdf[idx] >= draw (the draws
  // are sorted, so the search start is monotone) and so give the same
  // outcomes.
  const bool sparse = shots < cdf.size() / 64;
  std::size_t idx = 0;
  for (std::size_t s = 0; s < shots; ++s) {
    if (sparse) {
      const auto it = std::lower_bound(cdf.begin() + static_cast<std::ptrdiff_t>(idx),
                                       cdf.end(), draws[s]);
      idx = std::min(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
    } else {
      while (idx + 1 < cdf.size() && cdf[idx] < draws[s]) ++idx;
    }
    out[s] = idx;
  }
  // Sorted outcomes would bias consumers that stream shots; shuffle back.
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.below(i)]);
  }
  return out;
}

}  // namespace

int default_block_qubits(int num_qubits) {
  // Block size never changes a bit of the result.  On the registers the
  // dataset runs dense (4-14 qubits, even), this block times level with the
  // timed picks it replaced both inside a parallel region, where the block
  // loop is serial, and at top level on 2 and 4 threads (DESIGN.md §11.2),
  // so the block is not worth timing.
  return std::min(num_qubits, 12);
}

FusedEngine::FusedEngine(int num_qubits, Precision precision, EngineOptions opt)
    : num_qubits_(num_qubits), precision_(precision), opt_(opt) {
  QDB_REQUIRE(num_qubits >= 1 && num_qubits <= 30,
              "fused engine supports 1..30 qubits");
  block_qubits_ =
      opt_.block_qubits > 0 ? opt_.block_qubits : default_block_qubits(num_qubits);
  block_qubits_ = std::clamp(block_qubits_, 1, num_qubits_);
  const std::size_t dim = std::size_t{1} << num_qubits_;
  if (precision_ == Precision::f64) {
    re64_.assign(dim, 0.0);
    im64_.assign(dim, 0.0);
    re64_[0] = 1.0;
  } else {
    re32_.assign(dim, 0.0f);
    im32_.assign(dim, 0.0f);
    re32_[0] = 1.0f;
  }
}

template <class Self, class F>
decltype(auto) FusedEngine::with_amps(Self& self, F&& f) {
  if (self.precision_ == Precision::f64) return f(self.re64_.data(), self.im64_.data());
  return f(self.re32_.data(), self.im32_.data());
}

void FusedEngine::reset() {
  with_amps(*this, [&]<class Real>(Real* re, Real* im) {
    std::fill(re, re + dimension(), Real{0});
    std::fill(im, im + dimension(), Real{0});
    re[0] = Real{1};
  });
  cdf_valid_ = false;
}

void FusedEngine::apply(const Circuit& c) {
  QDB_REQUIRE(c.num_qubits() <= num_qubits_, "circuit wider than engine");
  fault_site("engine.dense.apply");
  FusionOptions fo;
  fo.fuse_matrices = (precision_ == Precision::f32);
  const FusedProgram program = [&] {
    obs::Span span("kernel.fuse");
    return fuse_circuit(c, fo);
  }();
  // Counted where the fusion happens, so applying a program fused earlier
  // (the micro-benchmarks' loops) adds nothing.
  static obs::Counter& gates_in = obs::counter("kernel.fused.gates_in");
  static obs::Counter& ops_out = obs::counter("kernel.fused.ops");
  gates_in.add(program.gates_in);
  ops_out.add(program.ops.size());
  apply(program);
  if constexpr (check::audit_enabled()) {
    const double n2 = norm2();
    const double tol = precision_ == Precision::f64 ? 1e-6 : 1e-3;
    QDB_AUDIT(std::abs(n2 - 1.0) < tol,
              "fused engine norm drifted after circuit: norm2="
                  << n2 << " gates=" << c.gates().size() << " precision="
                  << precision_name(precision_));
  }
}

void FusedEngine::apply(const FusedProgram& p) {
  QDB_REQUIRE(p.num_qubits <= num_qubits_, "program wider than engine");
  obs::Span span(precision_ == Precision::f64 ? "kernel.apply.f64"
                                              : "kernel.apply.f32");
  const bool avx2 = !opt_.force_scalar && kernels_avx2_active();
  with_amps(*this, [&]<class Real>(Real* re, Real* im) {
    run_lowered(re, im, num_qubits_, block_qubits_, avx2, lower_ops<Real>(p));
  });
  cdf_valid_ = false;
}

// The readers below widen each amplitude through `const double r = re[i]`,
// which is the identity for f64: both precisions evaluate the test oracle
// Statevector's tree (re^2 + im^2, and for the CDF acc += that) in double.

std::vector<cplx> FusedEngine::amplitudes() const {
  std::vector<cplx> out(dimension());
  with_amps(*this, [&](const auto* re, const auto* im) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = cplx{static_cast<double>(re[i]), static_cast<double>(im[i])};
    }
  });
  return out;
}

double FusedEngine::probability(std::uint64_t index) const {
  QDB_REQUIRE(index < dimension(), "probability index out of range");
  return with_amps(*this, [&](const auto* re, const auto* im) {
    const double r = re[index];
    const double m = im[index];
    return r * r + m * m;
  });
}

double FusedEngine::norm2() const {
  const auto n = static_cast<std::int64_t>(dimension());
  return with_amps(*this, [&](const auto* re, const auto* im) {
    return parallel_reduce(n, [&](std::int64_t i) {
      const double r = re[i];
      const double m = im[i];
      return r * r + m * m;
    });
  });
}

const std::vector<double>& FusedEngine::cdf() const {
  if (!cdf_valid_) {
    cdf_scratch_.resize(dimension());
    // Exactly the test oracle Statevector's prefix pass at f64, so f64
    // sampling is draw-for-draw identical to it.
    const double acc = with_amps(*this, [&](const auto* re, const auto* im) {
      double sum = 0.0;
      for (std::size_t i = 0; i < cdf_scratch_.size(); ++i) {
        const double r = re[i];
        const double m = im[i];
        sum += r * r + m * m;
        cdf_scratch_[i] = sum;
      }
      return sum;
    });
    cdf_total_ = acc > 0.0 ? acc : 1.0;
    cdf_valid_ = true;
  }
  return cdf_scratch_;
}

std::vector<std::uint64_t> FusedEngine::sample(std::size_t shots,
                                               Rng& rng) const {
  static obs::Counter& cdf_hits = obs::counter("kernel.sample.cdf_reuse");
  const bool reused = cdf_valid_;
  const std::vector<double>& c = cdf();
  if (reused) cdf_hits.add(1);
  return sample_sorted_cdf(c, cdf_total_, shots, rng, draw_scratch_);
}

}  // namespace qdb
