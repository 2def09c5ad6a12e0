#include "quantum/kernels.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quantum/sampling.h"

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

bool kernels_avx2_compiled() {
#ifdef QDB_AVX2_BUILD
  return true;
#else
  return false;
#endif
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

// One lowered op: matrices flattened to the working precision as
// (real, imag) pairs.  1q uses m[0..7] = row-major 2x2; 2q uses m[0..31] =
// row-major 4x4 in the |q1 q0> basis Statevector::apply_2q uses.
template <class Real>
struct OpK {
  bool two_qubit = false;
  int q0 = 0;
  int q1 = -1;
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
    op.q0 = src.q0;
    op.q1 = src.q1;
    if (src.two_qubit) {
      op.hi = std::max(src.q0, src.q1);
      for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c) {
          op.m[(r * 4 + c) * 2 + 0] = static_cast<Real>(src.m4[r][c].real());
          op.m[(r * 4 + c) * 2 + 1] = static_cast<Real>(src.m4[r][c].imag());
        }
    } else {
      op.hi = src.q0;
      for (int r = 0; r < 2; ++r)
        for (int c = 0; c < 2; ++c) {
          op.m[(r * 2 + c) * 2 + 0] = static_cast<Real>(src.m2[r][c].real());
          op.m[(r * 2 + c) * 2 + 1] = static_cast<Real>(src.m2[r][c].imag());
        }
    }
    ops.push_back(op);
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Scalar kernels.  The expression trees below are the SoA transliteration of
// Statevector's std::complex arithmetic: per output, products are rounded
// individually, subtractions pair (real, imag) cross terms, and sums
// associate left to right.  The AVX2 kernels replicate the same trees per
// lane with no FMA, which is what makes f64 results bit-identical across
// scalar, SIMD, and any cache-block size.
// ---------------------------------------------------------------------------

template <class Real>
void apply_1q_scalar(Real* re, Real* im, std::uint64_t begin, std::uint64_t end,
                     int q, const Real* m) {
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t step = stride << 1;
  for (std::uint64_t base = begin; base != end; base += step) {
    for (std::uint64_t j = 0; j < stride; ++j) {
      const std::uint64_t i0 = base + j;
      const std::uint64_t i1 = i0 + stride;
      const Real a0r = re[i0], a0i = im[i0];
      const Real a1r = re[i1], a1i = im[i1];
      re[i0] = (m[0] * a0r - m[1] * a0i) + (m[2] * a1r - m[3] * a1i);
      im[i0] = (m[0] * a0i + m[1] * a0r) + (m[2] * a1i + m[3] * a1r);
      re[i1] = (m[4] * a0r - m[5] * a0i) + (m[6] * a1r - m[7] * a1i);
      im[i1] = (m[4] * a0i + m[5] * a0r) + (m[6] * a1i + m[7] * a1r);
    }
  }
}

template <class Real>
void apply_2q_scalar(Real* re, Real* im, std::uint64_t begin, std::uint64_t end,
                     int q0, int q1, const Real* m) {
  const std::uint64_t b0 = std::uint64_t{1} << q0;
  const std::uint64_t b1 = std::uint64_t{1} << q1;
  const std::uint64_t bl = std::uint64_t{1} << std::min(q0, q1);
  const std::uint64_t bh = std::uint64_t{1} << std::max(q0, q1);
  for (std::uint64_t base = begin; base != end; base += (bh << 1)) {
    for (std::uint64_t mid = 0; mid < bh; mid += (bl << 1)) {
      for (std::uint64_t j = 0; j < bl; ++j) {
        const std::uint64_t i00 = base + mid + j;
        const std::uint64_t i01 = i00 + b0;
        const std::uint64_t i10 = i00 + b1;
        const std::uint64_t i11 = i00 + b0 + b1;
        const Real ar[4] = {re[i00], re[i01], re[i10], re[i11]};
        const Real ai[4] = {im[i00], im[i01], im[i10], im[i11]};
        Real orr[4], ori[4];
        for (int r = 0; r < 4; ++r) {
          const Real* mr = m + 8 * r;
          Real vr = mr[0] * ar[0] - mr[1] * ai[0];
          Real vi = mr[0] * ai[0] + mr[1] * ar[0];
          vr += mr[2] * ar[1] - mr[3] * ai[1];
          vi += mr[2] * ai[1] + mr[3] * ar[1];
          vr += mr[4] * ar[2] - mr[5] * ai[2];
          vi += mr[4] * ai[2] + mr[5] * ar[2];
          vr += mr[6] * ar[3] - mr[7] * ai[3];
          vi += mr[6] * ai[3] + mr[7] * ar[3];
          orr[r] = vr;
          ori[r] = vi;
        }
        re[i00] = orr[0]; im[i00] = ori[0];
        re[i01] = orr[1]; im[i01] = ori[1];
        re[i10] = orr[2]; im[i10] = ori[2];
        re[i11] = orr[3]; im[i11] = ori[3];
      }
    }
  }
}

#ifdef QDB_AVX2_BUILD

// ---------------------------------------------------------------------------
// AVX2 kernels.  target("avx2") deliberately omits "fma": without the FMA
// ISA the compiler cannot contract mul+add, so each lane computes exactly
// the scalar expression tree.  apply_1q_avx2/apply_2q_avx2 take ops whose
// contiguous inner run (2^q for 1q, 2^min(q0,q1) for 2q) covers at least
// one full vector; apply_low_avx2 takes the ops whose low qubit is below
// the vector width.
// ---------------------------------------------------------------------------

#define QDB_TARGET_AVX2 __attribute__((target("avx2")))

QDB_TARGET_AVX2
void apply_1q_avx2(double* re, double* im, std::uint64_t begin,
                   std::uint64_t end, int q, const double* m) {
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t step = stride << 1;
  __m256d mv[8];
  for (int k = 0; k < 8; ++k) mv[k] = _mm256_set1_pd(m[k]);
  for (std::uint64_t base = begin; base != end; base += step) {
    for (std::uint64_t j = 0; j < stride; j += 4) {
      const std::uint64_t i0 = base + j;
      const std::uint64_t i1 = i0 + stride;
      const __m256d a0r = _mm256_loadu_pd(re + i0);
      const __m256d a0i = _mm256_loadu_pd(im + i0);
      const __m256d a1r = _mm256_loadu_pd(re + i1);
      const __m256d a1i = _mm256_loadu_pd(im + i1);
      _mm256_storeu_pd(
          re + i0,
          _mm256_add_pd(
              _mm256_sub_pd(_mm256_mul_pd(mv[0], a0r), _mm256_mul_pd(mv[1], a0i)),
              _mm256_sub_pd(_mm256_mul_pd(mv[2], a1r), _mm256_mul_pd(mv[3], a1i))));
      _mm256_storeu_pd(
          im + i0,
          _mm256_add_pd(
              _mm256_add_pd(_mm256_mul_pd(mv[0], a0i), _mm256_mul_pd(mv[1], a0r)),
              _mm256_add_pd(_mm256_mul_pd(mv[2], a1i), _mm256_mul_pd(mv[3], a1r))));
      _mm256_storeu_pd(
          re + i1,
          _mm256_add_pd(
              _mm256_sub_pd(_mm256_mul_pd(mv[4], a0r), _mm256_mul_pd(mv[5], a0i)),
              _mm256_sub_pd(_mm256_mul_pd(mv[6], a1r), _mm256_mul_pd(mv[7], a1i))));
      _mm256_storeu_pd(
          im + i1,
          _mm256_add_pd(
              _mm256_add_pd(_mm256_mul_pd(mv[4], a0i), _mm256_mul_pd(mv[5], a0r)),
              _mm256_add_pd(_mm256_mul_pd(mv[6], a1i), _mm256_mul_pd(mv[7], a1r))));
    }
  }
}

QDB_TARGET_AVX2
void apply_1q_avx2(float* re, float* im, std::uint64_t begin, std::uint64_t end,
                   int q, const float* m) {
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t step = stride << 1;
  __m256 mv[8];
  for (int k = 0; k < 8; ++k) mv[k] = _mm256_set1_ps(m[k]);
  for (std::uint64_t base = begin; base != end; base += step) {
    for (std::uint64_t j = 0; j < stride; j += 8) {
      const std::uint64_t i0 = base + j;
      const std::uint64_t i1 = i0 + stride;
      const __m256 a0r = _mm256_loadu_ps(re + i0);
      const __m256 a0i = _mm256_loadu_ps(im + i0);
      const __m256 a1r = _mm256_loadu_ps(re + i1);
      const __m256 a1i = _mm256_loadu_ps(im + i1);
      _mm256_storeu_ps(
          re + i0,
          _mm256_add_ps(
              _mm256_sub_ps(_mm256_mul_ps(mv[0], a0r), _mm256_mul_ps(mv[1], a0i)),
              _mm256_sub_ps(_mm256_mul_ps(mv[2], a1r), _mm256_mul_ps(mv[3], a1i))));
      _mm256_storeu_ps(
          im + i0,
          _mm256_add_ps(
              _mm256_add_ps(_mm256_mul_ps(mv[0], a0i), _mm256_mul_ps(mv[1], a0r)),
              _mm256_add_ps(_mm256_mul_ps(mv[2], a1i), _mm256_mul_ps(mv[3], a1r))));
      _mm256_storeu_ps(
          re + i1,
          _mm256_add_ps(
              _mm256_sub_ps(_mm256_mul_ps(mv[4], a0r), _mm256_mul_ps(mv[5], a0i)),
              _mm256_sub_ps(_mm256_mul_ps(mv[6], a1r), _mm256_mul_ps(mv[7], a1i))));
      _mm256_storeu_ps(
          im + i1,
          _mm256_add_ps(
              _mm256_add_ps(_mm256_mul_ps(mv[4], a0i), _mm256_mul_ps(mv[5], a0r)),
              _mm256_add_ps(_mm256_mul_ps(mv[6], a1i), _mm256_mul_ps(mv[7], a1r))));
    }
  }
}

QDB_TARGET_AVX2
void apply_2q_avx2(double* re, double* im, std::uint64_t begin,
                   std::uint64_t end, int q0, int q1, const double* m) {
  const std::uint64_t b0 = std::uint64_t{1} << q0;
  const std::uint64_t b1 = std::uint64_t{1} << q1;
  const std::uint64_t bl = std::uint64_t{1} << std::min(q0, q1);
  const std::uint64_t bh = std::uint64_t{1} << std::max(q0, q1);
  __m256d mv[32];
  for (int k = 0; k < 32; ++k) mv[k] = _mm256_set1_pd(m[k]);
  for (std::uint64_t base = begin; base != end; base += (bh << 1)) {
    for (std::uint64_t mid = 0; mid < bh; mid += (bl << 1)) {
      for (std::uint64_t j = 0; j < bl; j += 4) {
        const std::uint64_t i00 = base + mid + j;
        const std::uint64_t i01 = i00 + b0;
        const std::uint64_t i10 = i00 + b1;
        const std::uint64_t i11 = i00 + b0 + b1;
        const __m256d ar0 = _mm256_loadu_pd(re + i00), ai0 = _mm256_loadu_pd(im + i00);
        const __m256d ar1 = _mm256_loadu_pd(re + i01), ai1 = _mm256_loadu_pd(im + i01);
        const __m256d ar2 = _mm256_loadu_pd(re + i10), ai2 = _mm256_loadu_pd(im + i10);
        const __m256d ar3 = _mm256_loadu_pd(re + i11), ai3 = _mm256_loadu_pd(im + i11);
        __m256d orr[4], ori[4];
        for (int r = 0; r < 4; ++r) {
          const __m256d* mr = mv + 8 * r;
          __m256d vr = _mm256_sub_pd(_mm256_mul_pd(mr[0], ar0), _mm256_mul_pd(mr[1], ai0));
          __m256d vi = _mm256_add_pd(_mm256_mul_pd(mr[0], ai0), _mm256_mul_pd(mr[1], ar0));
          vr = _mm256_add_pd(vr, _mm256_sub_pd(_mm256_mul_pd(mr[2], ar1), _mm256_mul_pd(mr[3], ai1)));
          vi = _mm256_add_pd(vi, _mm256_add_pd(_mm256_mul_pd(mr[2], ai1), _mm256_mul_pd(mr[3], ar1)));
          vr = _mm256_add_pd(vr, _mm256_sub_pd(_mm256_mul_pd(mr[4], ar2), _mm256_mul_pd(mr[5], ai2)));
          vi = _mm256_add_pd(vi, _mm256_add_pd(_mm256_mul_pd(mr[4], ai2), _mm256_mul_pd(mr[5], ar2)));
          vr = _mm256_add_pd(vr, _mm256_sub_pd(_mm256_mul_pd(mr[6], ar3), _mm256_mul_pd(mr[7], ai3)));
          vi = _mm256_add_pd(vi, _mm256_add_pd(_mm256_mul_pd(mr[6], ai3), _mm256_mul_pd(mr[7], ar3)));
          orr[r] = vr;
          ori[r] = vi;
        }
        _mm256_storeu_pd(re + i00, orr[0]); _mm256_storeu_pd(im + i00, ori[0]);
        _mm256_storeu_pd(re + i01, orr[1]); _mm256_storeu_pd(im + i01, ori[1]);
        _mm256_storeu_pd(re + i10, orr[2]); _mm256_storeu_pd(im + i10, ori[2]);
        _mm256_storeu_pd(re + i11, orr[3]); _mm256_storeu_pd(im + i11, ori[3]);
      }
    }
  }
}

QDB_TARGET_AVX2
void apply_2q_avx2(float* re, float* im, std::uint64_t begin, std::uint64_t end,
                   int q0, int q1, const float* m) {
  const std::uint64_t b0 = std::uint64_t{1} << q0;
  const std::uint64_t b1 = std::uint64_t{1} << q1;
  const std::uint64_t bl = std::uint64_t{1} << std::min(q0, q1);
  const std::uint64_t bh = std::uint64_t{1} << std::max(q0, q1);
  __m256 mv[32];
  for (int k = 0; k < 32; ++k) mv[k] = _mm256_set1_ps(m[k]);
  for (std::uint64_t base = begin; base != end; base += (bh << 1)) {
    for (std::uint64_t mid = 0; mid < bh; mid += (bl << 1)) {
      for (std::uint64_t j = 0; j < bl; j += 8) {
        const std::uint64_t i00 = base + mid + j;
        const std::uint64_t i01 = i00 + b0;
        const std::uint64_t i10 = i00 + b1;
        const std::uint64_t i11 = i00 + b0 + b1;
        const __m256 ar0 = _mm256_loadu_ps(re + i00), ai0 = _mm256_loadu_ps(im + i00);
        const __m256 ar1 = _mm256_loadu_ps(re + i01), ai1 = _mm256_loadu_ps(im + i01);
        const __m256 ar2 = _mm256_loadu_ps(re + i10), ai2 = _mm256_loadu_ps(im + i10);
        const __m256 ar3 = _mm256_loadu_ps(re + i11), ai3 = _mm256_loadu_ps(im + i11);
        __m256 orr[4], ori[4];
        for (int r = 0; r < 4; ++r) {
          const __m256* mr = mv + 8 * r;
          __m256 vr = _mm256_sub_ps(_mm256_mul_ps(mr[0], ar0), _mm256_mul_ps(mr[1], ai0));
          __m256 vi = _mm256_add_ps(_mm256_mul_ps(mr[0], ai0), _mm256_mul_ps(mr[1], ar0));
          vr = _mm256_add_ps(vr, _mm256_sub_ps(_mm256_mul_ps(mr[2], ar1), _mm256_mul_ps(mr[3], ai1)));
          vi = _mm256_add_ps(vi, _mm256_add_ps(_mm256_mul_ps(mr[2], ai1), _mm256_mul_ps(mr[3], ar1)));
          vr = _mm256_add_ps(vr, _mm256_sub_ps(_mm256_mul_ps(mr[4], ar2), _mm256_mul_ps(mr[5], ai2)));
          vi = _mm256_add_ps(vi, _mm256_add_ps(_mm256_mul_ps(mr[4], ai2), _mm256_mul_ps(mr[5], ar2)));
          vr = _mm256_add_ps(vr, _mm256_sub_ps(_mm256_mul_ps(mr[6], ar3), _mm256_mul_ps(mr[7], ai3)));
          vi = _mm256_add_ps(vi, _mm256_add_ps(_mm256_mul_ps(mr[6], ai3), _mm256_mul_ps(mr[7], ar3)));
          orr[r] = vr;
          ori[r] = vi;
        }
        _mm256_storeu_ps(re + i00, orr[0]); _mm256_storeu_ps(im + i00, ori[0]);
        _mm256_storeu_ps(re + i01, orr[1]); _mm256_storeu_ps(im + i01, ori[1]);
        _mm256_storeu_ps(re + i10, orr[2]); _mm256_storeu_ps(im + i10, ori[2]);
        _mm256_storeu_ps(re + i11, orr[3]); _mm256_storeu_ps(im + i11, ori[3]);
      }
    }
  }
}

// One AVX2 vector of the working precision: eight floats or four doubles.
// Lane permutes move 32-bit elements, so a double lane k travels as the
// 32-bit pair (2k, 2k+1); either way a permute copies bits unchanged.
template <class Real>
struct Avx2;

template <>
struct Avx2<float> {
  using V = __m256;
  static constexpr int kLanes = 8;
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

// One output vector of an op on kIn inputs: per lane, the scalar kernels'
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
  for (int c = 1; c < kIn; ++c) {
    vr = T::add(vr, T::sub(T::mul(mr[c], ar[c]), T::mul(mi[c], ai[c])));
    vi = T::add(vi, T::add(T::mul(mr[c], ai[c]), T::mul(mi[c], ar[c])));
  }
  out_r = vr;
  out_i = vi;
}

// An op whose low qubit is below the vector width: kIn = 2 for a 1q op on
// qs[0], 4 for a 2q op on (qs[0], qs[1]) = (q0, q1).  Input c is the
// amplitude with bit j of c on qubit qs[j] (the scalar kernels' i00, i01,
// i10, i11 order), and an output lane's matrix row is its own bits in the
// same encoding.  Qubits below the width pair lanes within one vector; a
// 2q op's other qubit h, if at or above it, pairs the vector at i with the
// one at i + 2^h.  Each output lane gathers its kIn inputs with in-register
// permutes from those vectors and multiplies them by its row, broadcast
// per lane, in the scalar expression tree: the same IEEE operations on the
// same operands, hence the same bits, as apply_1q_scalar/apply_2q_scalar.
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

template <class Real>
constexpr std::uint64_t simd_lanes() {
  return sizeof(Real) == 8 ? 4 : 8;
}

// Apply one lowered op to the index range [begin, end).  `begin`/`end` must
// be multiples of 2^(op.hi + 1) (block bases and full-array chunks are).
template <class Real>
void apply_op_range(Real* re, Real* im, const OpK<Real>& op, std::uint64_t begin,
                    std::uint64_t end, bool avx2) {
  const int lo = op.two_qubit ? std::min(op.q0, op.q1) : op.q0;
#ifdef QDB_AVX2_BUILD
  constexpr std::uint64_t lanes = simd_lanes<Real>();
  if (avx2 && (std::uint64_t{1} << lo) >= lanes) {
    if (op.two_qubit) {
      apply_2q_avx2(re, im, begin, end, op.q0, op.q1, op.m);
    } else {
      apply_1q_avx2(re, im, begin, end, op.q0, op.m);
    }
    return;
  }
  // Below the width: whole vectors only (a full-array chunk of an op on
  // qubits 0..1 can be shorter than one).
  if (avx2 && ((begin | end) & (lanes - 1)) == 0) {
    if (op.two_qubit) {
      const int qs[2] = {op.q0, op.q1};
      apply_low_avx2<Real, 4>(re, im, begin, end, qs, op.m);
    } else {
      apply_low_avx2<Real, 2>(re, im, begin, end, &op.q0, op.m);
    }
    return;
  }
#else
  (void)avx2;
  (void)lo;
#endif
  if (op.two_qubit) {
    apply_2q_scalar(re, im, begin, end, op.q0, op.q1, op.m);
  } else {
    apply_1q_scalar(re, im, begin, end, op.q0, op.m);
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

void FusedEngine::reset() {
  if (precision_ == Precision::f64) {
    std::fill(re64_.begin(), re64_.end(), 0.0);
    std::fill(im64_.begin(), im64_.end(), 0.0);
    re64_[0] = 1.0;
  } else {
    std::fill(re32_.begin(), re32_.end(), 0.0f);
    std::fill(im32_.begin(), im32_.end(), 0.0f);
    re32_[0] = 1.0f;
  }
  cdf_valid_ = false;
}

void FusedEngine::apply(const Circuit& c) {
  QDB_REQUIRE(c.num_qubits() <= num_qubits_, "circuit wider than engine");
  // Same site name as Statevector::apply — the fused engine *is* the dense
  // apply path now, and the fault sweep's coverage carries over unchanged.
  fault_site("engine.dense.apply");
  FusionOptions fo;
  fo.fuse_matrices = (precision_ == Precision::f32);
  const FusedProgram program = fuse_circuit(c, fo);
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
  if (precision_ == Precision::f64) {
    run_lowered(re64_.data(), im64_.data(), num_qubits_, block_qubits_, avx2,
                lower_ops<double>(p));
  } else {
    run_lowered(re32_.data(), im32_.data(), num_qubits_, block_qubits_, avx2,
                lower_ops<float>(p));
  }
  cdf_valid_ = false;
}

std::vector<cplx> FusedEngine::amplitudes() const {
  std::vector<cplx> out(dimension());
  if (precision_ == Precision::f64) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = cplx{re64_[i], im64_[i]};
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = cplx{static_cast<double>(re32_[i]), static_cast<double>(im32_[i])};
    }
  }
  return out;
}

double FusedEngine::probability(std::uint64_t index) const {
  QDB_REQUIRE(index < dimension(), "probability index out of range");
  if (precision_ == Precision::f64) {
    return re64_[index] * re64_[index] + im64_[index] * im64_[index];
  }
  const double r = re32_[index];
  const double m = im32_[index];
  return r * r + m * m;
}

double FusedEngine::expectation_diagonal(
    const std::function<double(std::uint64_t)>& f) const {
  const auto n = static_cast<std::int64_t>(dimension());
  if (precision_ == Precision::f64) {
    const double* re = re64_.data();
    const double* im = im64_.data();
    return parallel_reduce(n, [&](std::int64_t i) {
      const double p = re[i] * re[i] + im[i] * im[i];
      return p > 0.0 ? p * f(static_cast<std::uint64_t>(i)) : 0.0;
    });
  }
  const float* re = re32_.data();
  const float* im = im32_.data();
  return parallel_reduce(n, [&](std::int64_t i) {
    const double r = re[i];
    const double m = im[i];
    const double p = r * r + m * m;
    return p > 0.0 ? p * f(static_cast<std::uint64_t>(i)) : 0.0;
  });
}

double FusedEngine::norm2() const {
  const auto n = static_cast<std::int64_t>(dimension());
  if (precision_ == Precision::f64) {
    const double* re = re64_.data();
    const double* im = im64_.data();
    return parallel_reduce(
        n, [&](std::int64_t i) { return re[i] * re[i] + im[i] * im[i]; });
  }
  const float* re = re32_.data();
  const float* im = im32_.data();
  return parallel_reduce(n, [&](std::int64_t i) {
    const double r = re[i];
    const double m = im[i];
    return r * r + m * m;
  });
}

const std::vector<double>& FusedEngine::cdf() const {
  if (!cdf_valid_) {
    cdf_scratch_.resize(dimension());
    double acc = 0.0;
    if (precision_ == Precision::f64) {
      // Exactly Statevector's prefix pass: acc += re^2 + im^2, same tree,
      // so f64 sampling is draw-for-draw identical to the scalar engine.
      for (std::size_t i = 0; i < cdf_scratch_.size(); ++i) {
        acc += re64_[i] * re64_[i] + im64_[i] * im64_[i];
        cdf_scratch_[i] = acc;
      }
    } else {
      for (std::size_t i = 0; i < cdf_scratch_.size(); ++i) {
        const double r = re32_[i];
        const double m = im32_[i];
        acc += r * r + m * m;
        cdf_scratch_[i] = acc;
      }
    }
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
  return detail::sample_sorted_cdf(c, cdf_total_, shots, rng, draw_scratch_);
}

}  // namespace qdb
