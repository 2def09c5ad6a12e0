#include "quantum/mps.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/error.h"
#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qdb {

namespace {

// The loops below run on complex storage viewed as interleaved (re, im)
// doubles (std::complex<double> is array-compatible with double[2]).  Each
// complex product is written out as the real multiplies and adds that
// std::complex<double> evaluates for finite operands:
//   x * y        = (xr*yr - xi*yi, xr*yi + xi*yr)
//   conj(x) * y  = (xr*yr + xi*yi, xr*yi - xi*yr)
//   x * conj(y)  = (xr*yr + xi*yi, xi*yr - xr*yi)
//   t * x        = (t*xr, t*xi)               (t real)
// in the same summation order, so every tensor, singular value and sampled
// bit is what the std::complex loops gave, without their per-product NaN
// check (DESIGN.md §11.5).  This file is built without floating-point
// contraction (src/quantum/CMakeLists.txt): an FMA would round differently.

double* re_im(cplx* p) { return reinterpret_cast<double*>(p); }
const double* re_im(const cplx* p) { return reinterpret_cast<const double*>(p); }

/// Thin SVD by one-sided Jacobi, in place.  `g` holds an m x n complex
/// matrix column-major (column j at g + 2*j*m); `v` must hold n*n complex
/// entries.  On return column j of `g` is sigma_j u_j with sigma_j =
/// norms[j], column j of `v` is v_j (A = sum_j sigma_j u_j v_j^dag), and
/// order[0..n) lists the columns by descending norm.  One-sided Jacobi
/// orthogonalises the columns of A while accumulating V; it is simple,
/// numerically robust, and fast for the small matrices an MPS two-site
/// update produces.
void svd_columns(double* g, int m, int n, double* v, double* norms, int* order) {
  const auto mm = static_cast<std::size_t>(m);
  const auto nn = static_cast<std::size_t>(n);
  std::fill(v, v + 2 * nn * nn, 0.0);
  for (std::size_t j = 0; j < nn; ++j) v[2 * (j * nn + j)] = 1.0;

  constexpr double kTol = 1e-14;
  for (int sweep = 0; sweep < 60; ++sweep) {
    bool converged = true;
    for (std::size_t i = 0; i + 1 < nn; ++i) {
      for (std::size_t j = i + 1; j < nn; ++j) {
        double* gi = g + 2 * i * mm;
        double* gj = g + 2 * j * mm;
        double alpha = 0.0, beta = 0.0, gamma_re = 0.0, gamma_im = 0.0;
        for (std::size_t r = 0; r < 2 * mm; r += 2) {
          const double xr = gi[r], xi = gi[r + 1], yr = gj[r], yi = gj[r + 1];
          alpha += xr * xr + xi * xi;
          beta += yr * yr + yi * yi;
          gamma_re += xr * yr + xi * yi;  // conj(x) * y
          gamma_im += xr * yi - xi * yr;
        }
        const double ag = std::abs(cplx{gamma_re, gamma_im});
        if (ag <= kTol * std::sqrt(alpha * beta) || ag == 0.0) continue;
        converged = false;
        // Absorb the phase of gamma into column j so the 2x2 Gram block
        // becomes real, then apply the classic Jacobi rotation.
        const double ph_re = gamma_re / ag, ph_im = gamma_im / ag;
        const double zeta = (beta - alpha) / (2.0 * ag);
        const double t = (zeta >= 0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        // x' = c x - s y and y' = s x + c y with y = col_j * conj(phase).
        auto rotate = [&](double* xs, double* ys, std::size_t len) {
          for (std::size_t r = 0; r < 2 * len; r += 2) {
            const double xr = xs[r], xi = xs[r + 1];
            const double yr = ys[r] * ph_re + ys[r + 1] * ph_im;
            const double yi = ys[r + 1] * ph_re - ys[r] * ph_im;
            xs[r] = c * xr - s * yr;
            xs[r + 1] = c * xi - s * yi;
            ys[r] = s * xr + c * yr;
            ys[r + 1] = s * xi + c * yi;
          }
        };
        rotate(gi, gj, mm);
        rotate(v + 2 * i * nn, v + 2 * j * nn, nn);
      }
    }
    if (converged) break;
  }

  // Column norms are the singular values; sort descending.
  for (std::size_t j = 0; j < nn; ++j) {
    const double* gj = g + 2 * j * mm;
    double sq = 0.0;
    for (std::size_t r = 0; r < 2 * mm; r += 2) sq += gj[r] * gj[r] + gj[r + 1] * gj[r + 1];
    norms[j] = std::sqrt(sq);
  }
  std::iota(order, order + n, 0);
  std::sort(order, order + n, [&](int a, int b) {
    return norms[static_cast<std::size_t>(a)] > norms[static_cast<std::size_t>(b)];
  });
}

/// Byte budget of one sample() call's prefix trie (node records plus
/// vector arena).  Past it, shots finish their walk without memoising.
constexpr std::size_t kTrieMaxBytes = std::size_t{4} << 20;

/// One conditional-sampling step at a site with tensor `a` (chi_l x 2 x
/// chi_r): from the prefix vector `vec` (chi_l) write the two candidate
/// vectors v_p(r) = sum_l vec(l) A(l,p,r) to out[p * chi_r + r] and their
/// unnormalised probabilities prob[p] = v_p^dag right v_p.
void conditional_step(const cplx* a_data, int chi_l, int chi_r, const cplx* right_data,
                      const cplx* vec_data, cplx* out_data, double prob[2]) {
  const double* a = re_im(a_data);
  const double* right = re_im(right_data);
  const double* vec = re_im(vec_data);
  const auto cr = static_cast<std::size_t>(chi_r);
  for (std::size_t p = 0; p < 2; ++p) {
    double* v = re_im(out_data) + 2 * p * cr;
    std::fill(v, v + 2 * cr, 0.0);
    for (std::size_t l = 0; l < static_cast<std::size_t>(chi_l); ++l) {
      const double xr = vec[2 * l], xi = vec[2 * l + 1];
      if (xr == 0.0 && xi == 0.0) continue;
      const double* row = a + 2 * ((l * 2 + p) * cr);
      for (std::size_t r = 0; r < 2 * cr; r += 2) {
        v[r] += xr * row[r] - xi * row[r + 1];
        v[r + 1] += xr * row[r + 1] + xi * row[r];
      }
    }
    // Re(sum_{r,r'} conj(v_r) right(r,r') v_r'): the imaginary part of the
    // sum is never read, so it is not accumulated.
    double acc = 0.0;
    for (std::size_t r = 0; r < cr; ++r) {
      const double xr = v[2 * r], xi = v[2 * r + 1];
      const double* row = right + 2 * r * cr;
      for (std::size_t rp = 0; rp < 2 * cr; rp += 2) {
        const double tr = xr * row[rp] + xi * row[rp + 1];  // conj(v_r) * right
        const double ti = xr * row[rp + 1] - xi * row[rp];
        acc += tr * v[rp] - ti * v[rp + 1];
      }
    }
    prob[p] = std::max(acc, 0.0);
  }
}

/// The measured bit given its two unnormalised probabilities: one uniform
/// draw, none when both vanish.
int draw_bit(const double prob[2], Rng& rng) {
  const double total = prob[0] + prob[1];
  return (total <= 0.0) ? 0 : (rng.uniform() * total < prob[0] ? 0 : 1);
}

}  // namespace

MpsSimulator::MpsSimulator(int num_qubits, int max_bond, double trunc_tol)
    : num_qubits_(num_qubits), max_bond_(max_bond), trunc_tol_(trunc_tol) {
  QDB_REQUIRE(num_qubits >= 1, "mps needs at least one qubit");
  QDB_REQUIRE(max_bond >= 1, "mps needs max_bond >= 1");
  reset();
}

void MpsSimulator::reset() {
  sites_.assign(static_cast<std::size_t>(num_qubits_), Site{});
  for (auto& s : sites_) {
    s.chi_l = s.chi_r = 1;
    s.data.assign(2, cplx{});
    s.data[0] = 1.0;  // physical state |0>
  }
  truncated_weight_ = 0.0;
}

int MpsSimulator::max_bond_reached() const {
  int chi = 1;
  for (const auto& s : sites_) chi = std::max(chi, s.chi_r);
  return chi;
}

void MpsSimulator::apply_1q(const std::array<std::array<cplx, 2>, 2>& u, int q) {
  Site& s = sites_[static_cast<std::size_t>(q)];
  const double u00r = u[0][0].real(), u00i = u[0][0].imag();
  const double u01r = u[0][1].real(), u01i = u[0][1].imag();
  const double u10r = u[1][0].real(), u10i = u[1][0].imag();
  const double u11r = u[1][1].real(), u11i = u[1][1].imag();
  const auto cr = static_cast<std::size_t>(s.chi_r);
  double* d = re_im(s.data.data());
  for (std::size_t l = 0; l < static_cast<std::size_t>(s.chi_l); ++l) {
    double* row0 = d + 2 * (l * 2 + 0) * cr;
    double* row1 = d + 2 * (l * 2 + 1) * cr;
    for (std::size_t r = 0; r < 2 * cr; r += 2) {
      const double a0r = row0[r], a0i = row0[r + 1];
      const double a1r = row1[r], a1i = row1[r + 1];
      row0[r] = (u00r * a0r - u00i * a0i) + (u01r * a1r - u01i * a1i);
      row0[r + 1] = (u00r * a0i + u00i * a0r) + (u01r * a1i + u01i * a1r);
      row1[r] = (u10r * a0r - u10i * a0i) + (u11r * a1r - u11i * a1i);
      row1[r + 1] = (u10r * a0i + u10i * a0r) + (u11r * a1i + u11i * a1r);
    }
  }
}

void MpsSimulator::apply_2q_adjacent(const std::array<std::array<cplx, 4>, 4>& u,
                                     int low, bool first_is_low) {
  Site& a = sites_[static_cast<std::size_t>(low)];
  Site& b = sites_[static_cast<std::size_t>(low) + 1];
  QDB_REQUIRE(a.chi_r == b.chi_l, "mps bond mismatch");
  const auto cl = static_cast<std::size_t>(a.chi_l);
  const auto cm = static_cast<std::size_t>(a.chi_r);
  const auto cr = static_cast<std::size_t>(b.chi_r);
  const std::size_t m_rows = cl * 2;
  const std::size_t n_cols = 2 * cr;
  scratch_.theta.resize(cl * 4 * cr);
  scratch_.cols.resize(m_rows * n_cols);
  scratch_.v.resize(n_cols * n_cols);
  scratch_.norms.resize(n_cols);
  scratch_.order.resize(n_cols);

  // theta(l, pa, pb, r) = sum_m a(l, pa, m) * b(m, pb, r), at
  // theta[2 * (((l * 2 + pa) * 2 + pb) * cr + r)].
  double* theta = re_im(scratch_.theta.data());
  std::fill(theta, theta + 2 * scratch_.theta.size(), 0.0);
  const double* ad = re_im(a.data.data());
  const double* bd = re_im(b.data.data());
  for (std::size_t lpa = 0; lpa < cl * 2; ++lpa)
    for (std::size_t m = 0; m < cm; ++m) {
      const double xr = ad[2 * (lpa * cm + m)], xi = ad[2 * (lpa * cm + m) + 1];
      if (xr == 0.0 && xi == 0.0) continue;
      for (std::size_t pb = 0; pb < 2; ++pb) {
        double* th = theta + 2 * ((lpa * 2 + pb) * cr);
        const double* brow = bd + 2 * ((m * 2 + pb) * cr);
        for (std::size_t r = 0; r < 2 * cr; r += 2) {
          th[r] += xr * brow[r] - xi * brow[r + 1];
          th[r + 1] += xr * brow[r + 1] + xi * brow[r];
        }
      }
    }

  // Apply the gate on the two physical indices, writing the (cl*2) x (2*cr)
  // matrix (row l*2+pa, column pb*cr+r) straight into the SVD's columns.
  // The gate matrix is indexed by |q1 q0> where q0 is the first operand:
  // row = 2*bit(q1) + bit(q0).
  double* cols = re_im(scratch_.cols.data());
  for (std::size_t l = 0; l < cl; ++l)
    for (std::size_t r = 0; r < cr; ++r)
      for (std::size_t pa = 0; pa < 2; ++pa)
        for (std::size_t pb = 0; pb < 2; ++pb) {
          const std::size_t row = first_is_low ? pb * 2 + pa : pa * 2 + pb;
          double acc_re = 0.0, acc_im = 0.0;
          for (std::size_t qa = 0; qa < 2; ++qa)
            for (std::size_t qb = 0; qb < 2; ++qb) {
              const std::size_t col = first_is_low ? qb * 2 + qa : qa * 2 + qb;
              const double ur = u[row][col].real(), ui = u[row][col].imag();
              const double* th = theta + 2 * (((l * 2 + qa) * 2 + qb) * cr + r);
              acc_re += ur * th[0] - ui * th[1];
              acc_im += ur * th[1] + ui * th[0];
            }
          double* out = cols + 2 * ((pb * cr + r) * m_rows + l * 2 + pa);
          out[0] = acc_re;
          out[1] = acc_im;
        }

  double* v = re_im(scratch_.v.data());
  const double* norms = scratch_.norms.data();
  const int* order = scratch_.order.data();
  svd_columns(cols, static_cast<int>(m_rows), static_cast<int>(n_cols), v,
              scratch_.norms.data(), scratch_.order.data());
  ++svds_;
  const int k = static_cast<int>(std::min(m_rows, n_cols));
  auto sigma = [&](int i) { return norms[order[i]]; };

  // Truncate: drop singular values below tol * s_max and cap at max_bond.
  int keep = 0;
  const double smax = k == 0 ? 0.0 : sigma(0);
  for (int i = 0; i < k; ++i) {
    if (sigma(i) > trunc_tol_ * smax && keep < max_bond_) ++keep;
  }
  keep = std::max(keep, 1);
  peak_bond_ = std::max(peak_bond_, keep);
  double kept_w = 0.0, all_w = 0.0;
  for (int i = 0; i < k; ++i) {
    all_w += sigma(i) * sigma(i);
    if (i < keep) kept_w += sigma(i) * sigma(i);
  }
  truncated_weight_ += all_w - kept_w;
  // Truncation accounting (ISSUE 3 invariant catalog): the kept rank must
  // respect the bond cap, and discarded weight is a sum of squares — it can
  // only ever grow, and can dip below zero only by rounding.
  QDB_ASSERT(keep >= 1 && keep <= max_bond_,
             "SVD kept rank outside [1, max_bond]: keep=" << keep
                 << " max_bond=" << max_bond_);
  QDB_ASSERT(std::isfinite(truncated_weight_) && truncated_weight_ >= -1e-12,
             "truncated weight not a finite non-negative sum: "
                 << truncated_weight_);
  // Renormalise the kept weight so the state stays a unit vector.
  const double rescale = kept_w > 0.0 ? std::sqrt(all_w / kept_w) : 1.0;

  // a(row, kk) = u_kk(row) = column order[kk] / sigma_kk (0 for sigma 0).
  const auto kp = static_cast<std::size_t>(keep);
  a.chi_r = keep;
  a.data.resize(m_rows * kp);
  double* an = re_im(a.data.data());
  for (std::size_t row = 0; row < m_rows; ++row)
    for (std::size_t kk = 0; kk < kp; ++kk) {
      const double sv = sigma(static_cast<int>(kk));
      const double* g = cols + 2 * (static_cast<std::size_t>(order[kk]) * m_rows + row);
      an[2 * (row * kp + kk)] = sv > 0.0 ? g[0] / sv : 0.0;
      an[2 * (row * kp + kk) + 1] = sv > 0.0 ? g[1] / sv : 0.0;
    }

  // b(kk, pb, r) = sigma_kk * rescale * conj(v_kk(pb * cr + r)).
  b.chi_l = keep;
  b.data.resize(kp * n_cols);
  double* bn = re_im(b.data.data());
  for (std::size_t kk = 0; kk < kp; ++kk) {
    const double scale = sigma(static_cast<int>(kk)) * rescale;
    const double* vk = v + 2 * static_cast<std::size_t>(order[kk]) * n_cols;
    for (std::size_t col = 0; col < n_cols; ++col) {
      bn[2 * (kk * n_cols + col)] = vk[2 * col] * scale;
      bn[2 * (kk * n_cols + col) + 1] = -vk[2 * col + 1] * scale;
    }
  }
}

void MpsSimulator::swap_adjacent(int low) {
  apply_2q_adjacent(gate_matrix_2q(GateKind::SWAP), low, true);
}

void MpsSimulator::apply(const Gate& g) {
  QDB_REQUIRE(g.q0 >= 0 && g.q0 < num_qubits_, "gate qubit out of range");
  if (!is_two_qubit(g.kind)) {
    apply_1q(gate_matrix_1q(g.kind, g.angle), g.q0);
    return;
  }
  QDB_REQUIRE(g.q1 >= 0 && g.q1 < num_qubits_, "gate qubit out of range");
  QDB_REQUIRE(g.q0 != g.q1, "two-qubit gate needs distinct qubits");
  int a = g.q0;
  int b = g.q1;
  // Route the first operand next to the second with exact adjacent swaps.
  std::vector<int> undo;
  while (std::abs(a - b) > 1) {
    const int step = a < b ? a : a - 1;
    swap_adjacent(step);
    undo.push_back(step);
    a += (a < b) ? 1 : -1;
  }
  apply_2q_adjacent(gate_matrix_2q(g.kind), std::min(a, b), /*first_is_low=*/a < b);
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) swap_adjacent(*it);
}

void MpsSimulator::apply(const Circuit& c) {
  QDB_SPAN("mps.apply");
  QDB_REQUIRE(c.num_qubits() <= num_qubits_, "circuit wider than mps");
  fault_site("engine.mps.apply");  // deterministic fault injection (ISSUE 2)
  static obs::Counter& svd_count = obs::counter("mps.svds");
  static obs::Histogram& peak_bond = obs::histogram("mps.peak_bond");
  svds_ = 0;
  peak_bond_ = max_bond_reached();
  for (const Gate& g : c.gates()) apply(g);
  svd_count.add(svds_);
  peak_bond.record(static_cast<std::uint64_t>(peak_bond_));
  // Chain structural audit (ISSUE 3): adjacent site tensors must agree on
  // their shared bond dimension, every bond must respect the cap, and the
  // boundary bonds are trivial.  (Deliberately *not* a global-norm check:
  // truncation renormalises locally, so the global norm is not an invariant
  // here — see the class comment in mps.h.)
  if constexpr (check::audit_enabled()) {
    QDB_AUDIT(sites_.front().chi_l == 1 && sites_.back().chi_r == 1,
              "MPS boundary bonds not trivial: chi_l0="
                  << sites_.front().chi_l
                  << " chi_rN=" << sites_.back().chi_r);
    for (std::size_t q = 0; q < sites_.size(); ++q) {
      const Site& s = sites_[q];
      QDB_AUDIT(s.chi_l >= 1 && s.chi_r >= 1 && s.chi_l <= max_bond_ &&
                    s.chi_r <= max_bond_,
                "MPS bond dimension out of range at site "
                    << q << ": chi_l=" << s.chi_l << " chi_r=" << s.chi_r
                    << " max_bond=" << max_bond_);
      if (q + 1 < sites_.size()) {
        QDB_AUDIT(s.chi_r == sites_[q + 1].chi_l,
                  "MPS bond mismatch between sites " << q << " and " << q + 1
                      << ": chi_r=" << s.chi_r
                      << " next chi_l=" << sites_[q + 1].chi_l);
      }
    }
  }
}

cplx MpsSimulator::amplitude(std::uint64_t x) const {
  std::vector<cplx> vec{1.0};
  for (int q = 0; q < num_qubits_; ++q) {
    const Site& s = sites_[static_cast<std::size_t>(q)];
    const int p = static_cast<int>((x >> q) & 1);
    std::vector<cplx> next(static_cast<std::size_t>(s.chi_r), cplx{});
    for (int l = 0; l < s.chi_l; ++l) {
      if (vec[static_cast<std::size_t>(l)] == cplx{}) continue;
      for (int r = 0; r < s.chi_r; ++r)
        next[static_cast<std::size_t>(r)] += vec[static_cast<std::size_t>(l)] *
            s.data[(static_cast<std::size_t>(l) * 2 + static_cast<std::size_t>(p)) * static_cast<std::size_t>(s.chi_r) + static_cast<std::size_t>(r)];
    }
    vec = std::move(next);
  }
  return vec[0];
}

std::vector<std::vector<cplx>> MpsSimulator::right_environments() const {
  std::vector<std::vector<cplx>> env(static_cast<std::size_t>(num_qubits_) + 1);
  env[static_cast<std::size_t>(num_qubits_)] = {cplx{1.0, 0.0}};
  std::vector<cplx> tmp_buf;
  for (int q = num_qubits_ - 1; q >= 0; --q) {
    const Site& s = sites_[static_cast<std::size_t>(q)];
    const auto cl = static_cast<std::size_t>(s.chi_l);
    const auto cr = static_cast<std::size_t>(s.chi_r);
    const double* right = re_im(env[static_cast<std::size_t>(q) + 1].data());
    const double* a = re_im(s.data.data());
    std::vector<cplx> e(cl * cl, cplx{});
    double* ed = re_im(e.data());
    tmp_buf.resize(cl * cr);
    double* tmp = re_im(tmp_buf.data());
    // e(l, l') = sum_p sum_{r, r'} A(l,p,r) right(r,r') conj(A(l',p,r'))
    for (std::size_t p = 0; p < 2; ++p) {
      // tmp(l, r') = sum_r A(l,p,r) right(r, r')
      std::fill(tmp, tmp + 2 * cl * cr, 0.0);
      for (std::size_t l = 0; l < cl; ++l) {
        double* trow = tmp + 2 * l * cr;
        for (std::size_t r = 0; r < cr; ++r) {
          const double xr = a[2 * ((l * 2 + p) * cr + r)];
          const double xi = a[2 * ((l * 2 + p) * cr + r) + 1];
          if (xr == 0.0 && xi == 0.0) continue;
          const double* rrow = right + 2 * r * cr;
          for (std::size_t rp = 0; rp < 2 * cr; rp += 2) {
            trow[rp] += xr * rrow[rp] - xi * rrow[rp + 1];
            trow[rp + 1] += xr * rrow[rp + 1] + xi * rrow[rp];
          }
        }
      }
      for (std::size_t l = 0; l < cl; ++l) {
        const double* trow = tmp + 2 * l * cr;
        for (std::size_t lp = 0; lp < cl; ++lp) {
          const double* arow = a + 2 * ((lp * 2 + p) * cr);
          double acc_re = 0.0, acc_im = 0.0;
          for (std::size_t rp = 0; rp < 2 * cr; rp += 2) {
            acc_re += trow[rp] * arow[rp] + trow[rp + 1] * arow[rp + 1];  // tmp * conj(A)
            acc_im += trow[rp + 1] * arow[rp] - trow[rp] * arow[rp + 1];
          }
          ed[2 * (l * cl + lp)] += acc_re;
          ed[2 * (l * cl + lp) + 1] += acc_im;
        }
      }
    }
    env[static_cast<std::size_t>(q)] = std::move(e);
  }
  return env;
}

double MpsSimulator::norm2() const {
  const auto env = right_environments();
  return env[0][0].real();
}

std::vector<std::uint64_t> MpsSimulator::sample(std::size_t shots, Rng& rng) const {
  QDB_SPAN("mps.sample");
  static obs::Counter& step_count = obs::counter("mps.sample.steps");
  static obs::Counter& expansion_count = obs::counter("mps.sample.expansions");
  const auto env = right_environments();
  std::vector<std::uint64_t> out(shots);
  if (shots == 0) return out;

  // Prefix trie over the bits drawn so far (see the class comment).  Node i
  // stands for one distinct prefix x_0..x_q; its record holds the two
  // conditional probabilities of x_q and an arena offset where the two
  // child prefix vectors v_0, v_1 (chi_r of site q each) are stored back to
  // back.  arena[0] is the root's input vector {1}.
  struct TrieNode {
    double prob[2];
    std::uint32_t kids;           // arena offset of v_0 (v_1 follows)
    std::int32_t child[2];        // node of prefix + bit, -1 until expanded
  };
  static_assert(kTrieMaxBytes / sizeof(cplx) < std::numeric_limits<std::int32_t>::max());
  std::vector<TrieNode> nodes;
  std::vector<cplx> arena{cplx{1.0, 0.0}};
  auto chi_r = [&](int q) {
    return static_cast<std::size_t>(sites_[static_cast<std::size_t>(q)].chi_r);
  };
  // Expand the prefix at depth q whose input vector sits at arena[in].
  // Returns -1 (and expands nothing) once the trie would outgrow its cap.
  auto expand = [&](int q, std::size_t in) -> std::int32_t {
    const Site& s = sites_[static_cast<std::size_t>(q)];
    const std::size_t kids = arena.size();
    if ((nodes.size() + 1) * sizeof(TrieNode) + (kids + 2 * chi_r(q)) * sizeof(cplx) >
        kTrieMaxBytes)
      return -1;
    arena.resize(kids + 2 * chi_r(q));
    TrieNode node{{0.0, 0.0}, static_cast<std::uint32_t>(kids), {-1, -1}};
    conditional_step(s.data.data(), s.chi_l, s.chi_r,
                     env[static_cast<std::size_t>(q) + 1].data(), arena.data() + in,
                     arena.data() + kids, node.prob);
    nodes.push_back(node);
    return static_cast<std::int32_t>(nodes.size() - 1);
  };
  expand(0, 0);

  // Past the cap a shot finishes with the same step on ping-pong buffers.
  const std::size_t walk_len = 2 * static_cast<std::size_t>(max_bond_reached());
  std::vector<cplx> walk[2] = {std::vector<cplx>(walk_len), std::vector<cplx>(walk_len)};
  for (std::size_t shot = 0; shot < shots; ++shot) {
    std::uint64_t x = 0;
    std::int32_t node = 0;
    for (int q = 0; q < num_qubits_; ++q) {
      const int bit = draw_bit(nodes[static_cast<std::size_t>(node)].prob, rng);
      if (bit) x |= std::uint64_t{1} << q;
      if (q + 1 == num_qubits_) break;
      const std::size_t in = nodes[static_cast<std::size_t>(node)].kids +
                             static_cast<std::size_t>(bit) * chi_r(q);
      std::int32_t next = nodes[static_cast<std::size_t>(node)].child[bit];
      if (next < 0) {
        next = expand(q + 1, in);
        if (next >= 0) {
          nodes[static_cast<std::size_t>(node)].child[bit] = next;
        } else {
          std::copy_n(arena.begin() + static_cast<std::ptrdiff_t>(in), chi_r(q), walk[0].begin());
          const cplx* vec = walk[0].data();
          for (int w = q + 1, buf = 1; w < num_qubits_; ++w, buf ^= 1) {
            const Site& s = sites_[static_cast<std::size_t>(w)];
            double prob[2];
            conditional_step(s.data.data(), s.chi_l, s.chi_r,
                             env[static_cast<std::size_t>(w) + 1].data(), vec,
                             walk[buf].data(), prob);
            const int b = draw_bit(prob, rng);
            if (b) x |= std::uint64_t{1} << w;
            vec = walk[buf].data() + static_cast<std::size_t>(b) * chi_r(w);
          }
          break;
        }
      }
      node = next;
    }
    out[shot] = x;
  }
  step_count.add(static_cast<std::uint64_t>(shots) * static_cast<std::uint64_t>(num_qubits_));
  expansion_count.add(nodes.size());
  return out;
}

}  // namespace qdb
