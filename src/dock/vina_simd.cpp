// The AVX2+FMA body of the Vina pair kernel (DESIGN.md §3.2).
//
// Bit-identical to the scalar body of vina_score.cpp, four pairs at a time:
// every operation is the scalar one on four lanes (IEEE add, mul, div and
// sqrt round the same way in a vector register), and exp is glibc's own FMA
// variant copied op for op, which the self-check confirms against std::exp
// before the body is used.  This file is built with -ffp-contract=off: the
// compiler must not fuse the term assembly's multiplies and adds into FMAs
// the scalar body does not have.  The only FMAs are the explicit ones of
// the exp.
#include "dock/vina_simd.h"

#include <bit>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/rng.h"
#include "obs/log.h"

// The AVX2 body is compiled behind a target attribute and chosen at run
// time, so this file builds on any x86-64 host; -DQDB_NO_AVX2=ON leaves it
// out, and every walk takes the scalar body.
#if !defined(QDB_NO_AVX2) && (defined(__x86_64__) || defined(_M_X64))
#define QDB_VINA_AVX2 1
#include <immintrin.h>

#include "dock/exp_table.h"
#endif

namespace qdb::vina_simd {

#ifdef QDB_VINA_AVX2

#define QDB_TARGET_AVX2_FMA __attribute__((target("avx2,fma")))

namespace {

/// exp of four lanes: the main path of glibc's __exp_fma (optimized-routines
/// exp.c compiled with FMA), operation for operation.  Lanes whose |x| has
/// top-12 bits outside [0x3c9, 0x407] (|x| < 2^-54, |x| >= 512, inf, NaN)
/// leave that path in glibc too; they call std::exp.
QDB_TARGET_AVX2_FMA inline __m256d vexp4(__m256d x) {
  namespace t = exp_table;
  const __m256i ix = _mm256_castpd_si256(x);
  const __m256i abstop = _mm256_and_si256(_mm256_srli_epi64(ix, 52), _mm256_set1_epi64x(0x7ff));
  const __m256i special = _mm256_or_si256(_mm256_cmpgt_epi64(_mm256_set1_epi64x(0x3c9), abstop),
                                          _mm256_cmpgt_epi64(abstop, _mm256_set1_epi64x(0x407)));
  // x = k ln2/N + r, r in [-ln2/2N, ln2/2N]; kd = k as a double, ki its bits.
  __m256d kd = _mm256_fmadd_pd(x, _mm256_set1_pd(t::kInvLn2N), _mm256_set1_pd(t::kShift));
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, _mm256_set1_pd(t::kShift));
  __m256d r = _mm256_fmadd_pd(kd, _mm256_set1_pd(t::kNegLn2hiN), x);
  r = _mm256_fmadd_pd(kd, _mm256_set1_pd(t::kNegLn2loN), r);
  // 2^(k/N) ~= scale * (1 + tail).
  const __m256i idx = _mm256_slli_epi64(_mm256_and_si256(ki, _mm256_set1_epi64x(t::kN - 1)), 1);
  const auto* table = reinterpret_cast<const long long*>(t::kExpTable);
  const __m256d tail = _mm256_castsi256_pd(_mm256_i64gather_epi64(table, idx, 8));
  const __m256i sbits = _mm256_add_epi64(_mm256_i64gather_epi64(table + 1, idx, 8),
                                         _mm256_slli_epi64(ki, 52 - t::kTableBits));
  // tmp = tail + r + r2 (C2 + r C3) + r2^2 (C4 + r C5), contracted as
  // glibc's compiler contracts it.
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d tmp = _mm256_fmadd_pd(
      _mm256_mul_pd(r2, r2),
      _mm256_fmadd_pd(r, _mm256_set1_pd(t::kC5), _mm256_set1_pd(t::kC4)),
      _mm256_fmadd_pd(_mm256_fmadd_pd(r, _mm256_set1_pd(t::kC3), _mm256_set1_pd(t::kC2)), r2,
                      _mm256_add_pd(r, tail)));
  const __m256d scale = _mm256_castsi256_pd(sbits);
  __m256d y = _mm256_fmadd_pd(scale, tmp, scale);
  const int odd = _mm256_movemask_pd(_mm256_castsi256_pd(special));
  if (odd != 0) [[unlikely]] {
    alignas(32) double xs[4], ys[4];
    _mm256_store_pd(xs, x);
    _mm256_store_pd(ys, y);
    for (int l = 0; l < 4; ++l) {
      if ((odd >> l) & 1) ys[l] = std::exp(xs[l]);
    }
    y = _mm256_load_pd(ys);
  }
  return y;
}

/// Compaction of four lanes by their keep mask: for each mask, the 32-bit
/// halves of the kept doubles and the kept lane numbers, in lane order.
struct CompressTable {
  alignas(32) std::int32_t halves[16][8] = {};
  alignas(16) std::int32_t lanes[16][4] = {};
};

constexpr CompressTable make_compress_table() {
  CompressTable t;
  for (int mask = 0; mask < 16; ++mask) {
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if (((mask >> lane) & 1) == 0) continue;
      t.halves[mask][2 * out] = 2 * lane;
      t.halves[mask][2 * out + 1] = 2 * lane + 1;
      t.lanes[mask][out] = lane;
      ++out;
    }
  }
  return t;
}

constexpr CompressTable kCompress = make_compress_table();

/// The in-cutoff pairs of one batch, in walk order.
struct Batch {
  alignas(32) double d2[kBatchPairs];
  alignas(32) double e[kBatchPairs];
  std::uint32_t slot[kBatchPairs];
};

/// The term weights, one broadcast each.
struct Weights {
  __m256d gauss1, gauss2, repulsion, hydrophobic, hbond;
};

/// slope_step(ds, good, bad) of vina_score.cpp on four lanes.
QDB_TARGET_AVX2_FMA inline __m256d slope4(__m256d ds, double good, double bad) {
  const __m256d below = _mm256_cmp_pd(ds, _mm256_set1_pd(good), _CMP_LE_OQ);
  const __m256d above = _mm256_cmp_pd(ds, _mm256_set1_pd(bad), _CMP_GE_OQ);
  __m256d s = _mm256_div_pd(_mm256_sub_pd(_mm256_set1_pd(bad), ds), _mm256_set1_pd(bad - good));
  s = _mm256_blendv_pd(s, _mm256_set1_pd(1.0), below);
  return _mm256_blendv_pd(s, _mm256_setzero_pd(), above);
}

/// `e + term` in the lanes whose receptor flags meet `mask`, `e` elsewhere.
QDB_TARGET_AVX2_FMA inline __m256d add_where(__m256d e, __m256d term, __m256i flags,
                                             std::uint8_t mask) {
  const __m256i off = _mm256_cmpeq_epi64(_mm256_and_si256(flags, _mm256_set1_epi64x(mask)),
                                         _mm256_setzero_si256());
  return _mm256_blendv_pd(_mm256_add_pd(e, term), e, _mm256_castsi256_pd(off));
}

/// Passes 2 and 3 over the first `n` (>= 1) pairs of `b`: their terms, four
/// at a time in the scalar body's operation order, then `total += e` and the
/// appends one pair at a time in walk order.
QDB_TARGET_AVX2_FMA double flush(const PairWalk& walk, Batch& b, int n, const Weights& w,
                                 double total, std::vector<double>* terms) {
  for (int i = n; i % 4 != 0; ++i) {  // pad the last group with a real pair
    b.d2[i] = b.d2[0];
    b.slot[i] = b.slot[0];
  }
  const __m256d lr = _mm256_set1_pd(walk.lr);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d zero = _mm256_setzero_pd();
  for (int i = 0; i < n; i += 4) {
    const std::uint32_t* s = b.slot + i;
    const __m256d rr =
        _mm256_set_pd(walk.radius[s[3]], walk.radius[s[2]], walk.radius[s[1]], walk.radius[s[0]]);
    const __m256i flags =
        _mm256_set_epi64x(walk.flags[s[3]], walk.flags[s[2]], walk.flags[s[1]], walk.flags[s[0]]);
    const __m256d d = _mm256_sqrt_pd(_mm256_load_pd(b.d2 + i));
    const __m256d ds = _mm256_sub_pd(_mm256_sub_pd(d, lr), rr);
    // -(ds / 0.5) * (ds / 0.5) and -g2 * g2: negation is exact.
    const __m256d q = _mm256_div_pd(ds, _mm256_set1_pd(0.5));
    const __m256d g2 = _mm256_div_pd(_mm256_sub_pd(ds, _mm256_set1_pd(3.0)), _mm256_set1_pd(2.0));
    const __m256d exp1 = vexp4(_mm256_mul_pd(_mm256_xor_pd(q, sign), q));
    const __m256d exp2 = vexp4(_mm256_mul_pd(_mm256_xor_pd(g2, sign), g2));
    __m256d e = _mm256_mul_pd(w.gauss1, exp1);
    e = _mm256_add_pd(e, _mm256_mul_pd(w.gauss2, exp2));
    const __m256d repulsed = _mm256_add_pd(e, _mm256_mul_pd(_mm256_mul_pd(w.repulsion, ds), ds));
    e = _mm256_blendv_pd(e, repulsed, _mm256_cmp_pd(ds, zero, _CMP_LT_OQ));
    e = add_where(e, _mm256_mul_pd(w.hydrophobic, slope4(ds, 0.5, 1.5)), flags, walk.hydrophobic);
    e = add_where(e, _mm256_mul_pd(w.hbond, slope4(ds, -0.7, 0.0)), flags, walk.hbond);
    _mm256_store_pd(b.e + i, e);
  }
  for (int i = 0; i < n; ++i) total += b.e[i];
  if (terms != nullptr) terms->insert(terms->end(), b.e, b.e + n);
  return total;
}

/// Pass 1 over every run, then passes 2 and 3 per batch.  d2 has the
/// scalar association, (dx dx + dy dy) + dz dz; a run's last one to three
/// slots are loaded under a mask, so nothing past the arrays is read.
QDB_TARGET_AVX2_FMA double accumulate_avx2(const PairWalk& walk, double total,
                                           const VinaWeights& vw, std::vector<double>* terms) {
  const Weights w{_mm256_set1_pd(vw.gauss1), _mm256_set1_pd(vw.gauss2),
                  _mm256_set1_pd(vw.repulsion), _mm256_set1_pd(vw.hydrophobic),
                  _mm256_set1_pd(vw.hbond)};
  const __m256d px = _mm256_set1_pd(walk.p.x);
  const __m256d py = _mm256_set1_pd(walk.p.y);
  const __m256d pz = _mm256_set1_pd(walk.p.z);
  const __m256d cutoff2 = _mm256_set1_pd(walk.cutoff2);
  const __m256i lane = _mm256_set_epi64x(3, 2, 1, 0);
  Batch b;
  int n = 0;
  for (int r = 0; r < PairWalk::kRuns; ++r) {
    const std::uint32_t end = walk.runs[r].end;
    for (std::uint32_t k = walk.runs[r].begin; k < end; k += 4) {
      if (n > kBatchPairs - 4) {
        total = flush(walk, b, n, w, total, terms);
        n = 0;
      }
      __m256d x, y, z;
      int valid = 0xf;
      if (end - k >= 4) {
        x = _mm256_loadu_pd(walk.x + k);
        y = _mm256_loadu_pd(walk.y + k);
        z = _mm256_loadu_pd(walk.z + k);
      } else {
        const int left = static_cast<int>(end - k);
        const __m256i m = _mm256_cmpgt_epi64(_mm256_set1_epi64x(left), lane);
        x = _mm256_maskload_pd(walk.x + k, m);
        y = _mm256_maskload_pd(walk.y + k, m);
        z = _mm256_maskload_pd(walk.z + k, m);
        valid = (1 << left) - 1;
      }
      const __m256d dx = _mm256_sub_pd(px, x);
      const __m256d dy = _mm256_sub_pd(py, y);
      const __m256d dz = _mm256_sub_pd(pz, z);
      const __m256d d2 = _mm256_add_pd(
          _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)), _mm256_mul_pd(dz, dz));
      const int keep = _mm256_movemask_pd(_mm256_cmp_pd(d2, cutoff2, _CMP_LE_OQ)) & valid;
      const __m256i halves =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(kCompress.halves[keep]));
      _mm256_storeu_pd(b.d2 + n, _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
                                     _mm256_castpd_si256(d2), halves)));
      const __m128i lanes = _mm_load_si128(reinterpret_cast<const __m128i*>(kCompress.lanes[keep]));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(b.slot + n),
                       _mm_add_epi32(_mm_set1_epi32(static_cast<int>(k)), lanes));
      n += std::popcount(static_cast<unsigned>(keep));
    }
  }
  if (n > 0) total = flush(walk, b, n, w, total, terms);
  return total;
}

QDB_TARGET_AVX2_FMA void exp4_avx2(const double* x, double* out) {
  _mm256_storeu_pd(out, vexp4(_mm256_loadu_pd(x)));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// exp4 against std::exp, bit for bit, on three probe sets:
///   - 2^16 seeded arguments over [-90, 0], the range the terms' exps take,
///     and the edge cases of glibc's special paths;
///   - every reduction boundary (k + 1/2) ln2/N in [-90, 0] and its two
///     neighbours, where x N/ln2 is half-way between two integers: an
///     unfused x N/ln2 + shift rounds k the other way there, and nowhere
///     in 10^7 seeded arguments;
///   - eight arguments at which an unfused (C2 + r C3) r2 + (r + tail)
///     gives other bits.  That variant differs on about one argument in
///     10^6, so the seeded probes miss it; the eight come from a seeded
///     search of 5 * 10^7 arguments.
/// Dropping any other one of the FMAs either fails the seeded probes or
/// changed none of 10^7 arguments.  Only the edge cases and the eight are
/// stored; the other probes are generated.
bool exp4_matches_std_exp() {
  static constexpr double kStored[] = {
      0.0, -0.0, 0x1p-54, -0x1p-54, 0x1.fffffffffffffp-55, -0x1.fffffffffffffp-55,
      0x1p-1074, -0x1p-1074, -1.0, -0.5, -90.0, 511.99, -511.99, 512.0, -512.0,
      -708.5, -709.0, -740.0, -745.1, -745.2, -746.0, 709.7, 709.8, 710.0,
      std::numeric_limits<double>::infinity(), -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      // The unfused polynomial step gives other bits here.
      -0x1.37abbbe53d88p-6, -0x1.0c6cacf30d62dp+2, -0x1.9aef680342e3cp+3,
      -0x1.15c12ffbb93fep+4, -0x1.fefb8b05b6ca8p+4, -0x1.3de6f442a2fbap+5,
      -0x1.d60f025f99313p+5, -0x1.42ad589103e86p+6};
  double x[4], got[4];
  int filled = 0;
  bool same = true;
  const auto probe = [&](double v) {
    x[filled++] = v;
    if (filled < 4) return;
    filled = 0;
    exp4_avx2(x, got);
    for (int l = 0; l < 4; ++l) same = same && bits(got[l]) == bits(std::exp(x[l]));
  };
  for (const double v : kStored) probe(v);
  std::uint64_t state = 0x5eedf00dULL;
  for (int i = 0; i < 1 << 16; ++i) {
    probe(-90.0 * static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53);
  }
  for (int k = -1;; --k) {
    const double boundary = (k + 0.5) / exp_table::kInvLn2N;
    if (boundary < -90.0) break;
    probe(std::nextafter(boundary, -1.0));
    probe(boundary);
    probe(std::nextafter(boundary, 0.0));
  }
  while (filled != 0) probe(0.0);
  return same;
}

}  // namespace

bool active() {
  static const bool on = [] {
    if (__builtin_cpu_supports("avx2") == 0 || __builtin_cpu_supports("fma") == 0) {
      obs::log_info("dock.pair_kernel").kv("body", "scalar").kv("reason", "cpu without avx2+fma");
      return false;
    }
    if (!exp4_matches_std_exp()) {
      obs::log_warn("dock.pair_kernel")
          .kv("body", "scalar")
          .kv("reason", "exp4 differs from this libm's exp");
      return false;
    }
    obs::log_info("dock.pair_kernel").kv("body", "avx2");
    return true;
  }();
  return on;
}

void exp4(const double* x, double* out) { exp4_avx2(x, out); }

double accumulate(const PairWalk& walk, double total, const VinaWeights& w,
                  std::vector<double>* terms) {
  return accumulate_avx2(walk, total, w, terms);
}

#else  // !QDB_VINA_AVX2

bool active() {
  static const bool on = [] {
    obs::log_info("dock.pair_kernel").kv("body", "scalar").kv("reason", "built without avx2");
    return false;
  }();
  return on;
}

void exp4(const double*, double*) {
  QDB_REQUIRE(false, "vina_simd::exp4: built without the AVX2 body");
}

double accumulate(const PairWalk&, double, const VinaWeights&, std::vector<double>*) {
  QDB_REQUIRE(false, "vina_simd::accumulate: built without the AVX2 body");
  return 0.0;
}

#endif

}  // namespace qdb::vina_simd
