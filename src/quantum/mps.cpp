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

/// Thin SVD of an m x n complex matrix (row-major) by one-sided Jacobi.
/// Returns U (m x k), singular values s (k, descending), Vdag (k x n) with
/// k = min(m, n).  One-sided Jacobi orthogonalises the columns of A while
/// accumulating V; it is simple, numerically robust, and fast for the small
/// matrices an MPS two-site update produces.
struct Svd {
  std::vector<cplx> u;     // m x k row-major
  std::vector<double> s;   // k
  std::vector<cplx> vdag;  // k x n row-major
  int m = 0, n = 0, k = 0;
};

Svd svd_columns(const std::vector<cplx>& a_rowmajor, int m, int n) {
  // Work column-major internally: g[j] is column j of A.
  std::vector<std::vector<cplx>> g(static_cast<std::size_t>(n),
                                   std::vector<cplx>(static_cast<std::size_t>(m)));
  for (int r = 0; r < m; ++r)
    for (int c = 0; c < n; ++c)
      g[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)] =
          a_rowmajor[static_cast<std::size_t>(r) * static_cast<std::size_t>(n) +
                     static_cast<std::size_t>(c)];
  std::vector<std::vector<cplx>> v(static_cast<std::size_t>(n),
                                   std::vector<cplx>(static_cast<std::size_t>(n)));
  for (int j = 0; j < n; ++j) v[static_cast<std::size_t>(j)][static_cast<std::size_t>(j)] = 1.0;

  constexpr double kTol = 1e-14;
  for (int sweep = 0; sweep < 60; ++sweep) {
    bool converged = true;
    for (int i = 0; i < n - 1; ++i) {
      for (int j = i + 1; j < n; ++j) {
        auto& gi = g[static_cast<std::size_t>(i)];
        auto& gj = g[static_cast<std::size_t>(j)];
        double alpha = 0.0, beta = 0.0;
        cplx gamma{0.0, 0.0};
        for (int r = 0; r < m; ++r) {
          alpha += std::norm(gi[static_cast<std::size_t>(r)]);
          beta += std::norm(gj[static_cast<std::size_t>(r)]);
          gamma += std::conj(gi[static_cast<std::size_t>(r)]) * gj[static_cast<std::size_t>(r)];
        }
        const double ag = std::abs(gamma);
        if (ag <= kTol * std::sqrt(alpha * beta) || ag == 0.0) continue;
        converged = false;
        // Absorb the phase of gamma into column j so the 2x2 Gram block
        // becomes real, then apply the classic Jacobi rotation.
        const cplx phase = gamma / ag;
        const double zeta = (beta - alpha) / (2.0 * ag);
        const double t = (zeta >= 0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        auto& vi = v[static_cast<std::size_t>(i)];
        auto& vj = v[static_cast<std::size_t>(j)];
        for (int r = 0; r < m; ++r) {
          const cplx x = gi[static_cast<std::size_t>(r)];
          const cplx y = gj[static_cast<std::size_t>(r)] * std::conj(phase);
          gi[static_cast<std::size_t>(r)] = c * x - s * y;
          gj[static_cast<std::size_t>(r)] = s * x + c * y;
        }
        for (int r = 0; r < n; ++r) {
          const cplx x = vi[static_cast<std::size_t>(r)];
          const cplx y = vj[static_cast<std::size_t>(r)] * std::conj(phase);
          vi[static_cast<std::size_t>(r)] = c * x - s * y;
          vj[static_cast<std::size_t>(r)] = s * x + c * y;
        }
      }
    }
    if (converged) break;
  }

  // Column norms are the singular values; sort descending.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> norms(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    double nn = 0.0;
    for (int r = 0; r < m; ++r) nn += std::norm(g[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)]);
    norms[static_cast<std::size_t>(j)] = std::sqrt(nn);
  }
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return norms[static_cast<std::size_t>(a)] > norms[static_cast<std::size_t>(b)]; });

  Svd out;
  out.m = m;
  out.n = n;
  out.k = std::min(m, n);
  out.u.assign(static_cast<std::size_t>(m) * static_cast<std::size_t>(out.k), cplx{});
  out.s.assign(static_cast<std::size_t>(out.k), 0.0);
  out.vdag.assign(static_cast<std::size_t>(out.k) * static_cast<std::size_t>(n), cplx{});
  for (int kk = 0; kk < out.k; ++kk) {
    const int j = order[static_cast<std::size_t>(kk)];
    const double sv = norms[static_cast<std::size_t>(j)];
    out.s[static_cast<std::size_t>(kk)] = sv;
    if (sv > 0.0) {
      for (int r = 0; r < m; ++r)
        out.u[static_cast<std::size_t>(r) * static_cast<std::size_t>(out.k) + static_cast<std::size_t>(kk)] =
            g[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)] / sv;
    }
    for (int r = 0; r < n; ++r)
      out.vdag[static_cast<std::size_t>(kk) * static_cast<std::size_t>(n) + static_cast<std::size_t>(r)] =
          std::conj(v[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)]);
  }
  return out;
}

/// Byte budget of one sample() call's prefix trie (node records plus
/// vector arena).  Past it, shots finish their walk without memoising.
constexpr std::size_t kTrieMaxBytes = std::size_t{4} << 20;

/// One conditional-sampling step at a site with tensor `a` (chi_l x 2 x
/// chi_r): from the prefix vector `vec` (chi_l) write the two candidate
/// vectors v_p(r) = sum_l vec(l) A(l,p,r) to out[p * chi_r + r] and their
/// unnormalised probabilities prob[p] = v_p^dag right v_p.
void conditional_step(const cplx* a, int chi_l, int chi_r, const cplx* right,
                      const cplx* vec, cplx* out, double prob[2]) {
  const auto cr = static_cast<std::size_t>(chi_r);
  for (int p = 0; p < 2; ++p) {
    cplx* v = out + static_cast<std::size_t>(p) * cr;
    std::fill(v, v + cr, cplx{});
    for (int l = 0; l < chi_l; ++l) {
      if (vec[static_cast<std::size_t>(l)] == cplx{}) continue;
      for (std::size_t r = 0; r < cr; ++r)
        v[r] += vec[static_cast<std::size_t>(l)] *
                a[(static_cast<std::size_t>(l) * 2 + static_cast<std::size_t>(p)) * cr + r];
    }
    cplx acc{};
    for (std::size_t r = 0; r < cr; ++r)
      for (std::size_t rp = 0; rp < cr; ++rp)
        acc += std::conj(v[r]) * right[r * cr + rp] * v[rp];
    prob[p] = std::max(acc.real(), 0.0);
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
  for (int l = 0; l < s.chi_l; ++l) {
    for (int r = 0; r < s.chi_r; ++r) {
      const std::size_t i0 = (static_cast<std::size_t>(l) * 2 + 0) * static_cast<std::size_t>(s.chi_r) + static_cast<std::size_t>(r);
      const std::size_t i1 = (static_cast<std::size_t>(l) * 2 + 1) * static_cast<std::size_t>(s.chi_r) + static_cast<std::size_t>(r);
      const cplx a0 = s.data[i0];
      const cplx a1 = s.data[i1];
      s.data[i0] = u[0][0] * a0 + u[0][1] * a1;
      s.data[i1] = u[1][0] * a0 + u[1][1] * a1;
    }
  }
}

void MpsSimulator::apply_2q_adjacent(const std::array<std::array<cplx, 4>, 4>& u,
                                     int low, bool first_is_low) {
  Site& a = sites_[static_cast<std::size_t>(low)];
  Site& b = sites_[static_cast<std::size_t>(low) + 1];
  const int cl = a.chi_l;
  const int cm = a.chi_r;
  const int cr = b.chi_r;
  QDB_REQUIRE(cm == b.chi_l, "mps bond mismatch");

  // theta(l, pa, pb, r) = sum_m a(l, pa, m) * b(m, pb, r)
  std::vector<cplx> theta(static_cast<std::size_t>(cl) * 4 * static_cast<std::size_t>(cr));
  auto th = [&](int l, int pa, int pb, int r) -> cplx& {
    return theta[((static_cast<std::size_t>(l) * 2 + static_cast<std::size_t>(pa)) * 2 +
                  static_cast<std::size_t>(pb)) * static_cast<std::size_t>(cr) +
                 static_cast<std::size_t>(r)];
  };
  for (int l = 0; l < cl; ++l)
    for (int pa = 0; pa < 2; ++pa)
      for (int m = 0; m < cm; ++m) {
        const cplx av = a.data[(static_cast<std::size_t>(l) * 2 + static_cast<std::size_t>(pa)) * static_cast<std::size_t>(cm) + static_cast<std::size_t>(m)];
        if (av == cplx{}) continue;
        for (int pb = 0; pb < 2; ++pb)
          for (int r = 0; r < cr; ++r)
            th(l, pa, pb, r) += av * b.data[(static_cast<std::size_t>(m) * 2 + static_cast<std::size_t>(pb)) * static_cast<std::size_t>(cr) + static_cast<std::size_t>(r)];
      }

  // Apply the gate on the two physical indices.  The gate matrix is indexed
  // by |q1 q0> where q0 is the first operand: row = 2*bit(q1) + bit(q0).
  std::vector<cplx> theta2(theta.size());
  auto th2 = [&](int l, int pa, int pb, int r) -> cplx& {
    return theta2[((static_cast<std::size_t>(l) * 2 + static_cast<std::size_t>(pa)) * 2 +
                   static_cast<std::size_t>(pb)) * static_cast<std::size_t>(cr) +
                  static_cast<std::size_t>(r)];
  };
  for (int l = 0; l < cl; ++l)
    for (int r = 0; r < cr; ++r)
      for (int pa = 0; pa < 2; ++pa)
        for (int pb = 0; pb < 2; ++pb) {
          const int row = first_is_low ? pb * 2 + pa : pa * 2 + pb;
          cplx acc{};
          for (int qa = 0; qa < 2; ++qa)
            for (int qb = 0; qb < 2; ++qb) {
              const int col = first_is_low ? qb * 2 + qa : qa * 2 + qb;
              acc += u[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] * th(l, qa, qb, r);
            }
          th2(l, pa, pb, r) = acc;
        }

  // Reshape to (cl*2) x (2*cr) and SVD.
  const int m_rows = cl * 2;
  const int n_cols = 2 * cr;
  std::vector<cplx> mat(static_cast<std::size_t>(m_rows) * static_cast<std::size_t>(n_cols));
  for (int l = 0; l < cl; ++l)
    for (int pa = 0; pa < 2; ++pa)
      for (int pb = 0; pb < 2; ++pb)
        for (int r = 0; r < cr; ++r)
          mat[static_cast<std::size_t>(l * 2 + pa) * static_cast<std::size_t>(n_cols) + static_cast<std::size_t>(pb * cr + r)] =
              th2(l, pa, pb, r);

  Svd svd = svd_columns(mat, m_rows, n_cols);
  ++svds_;

  // Truncate: drop singular values below tol * s_max and cap at max_bond.
  int keep = 0;
  const double smax = svd.s.empty() ? 0.0 : svd.s[0];
  for (int i = 0; i < svd.k; ++i) {
    if (svd.s[static_cast<std::size_t>(i)] > trunc_tol_ * smax && keep < max_bond_) ++keep;
  }
  keep = std::max(keep, 1);
  peak_bond_ = std::max(peak_bond_, keep);
  double kept_w = 0.0, all_w = 0.0;
  for (int i = 0; i < svd.k; ++i) {
    all_w += svd.s[static_cast<std::size_t>(i)] * svd.s[static_cast<std::size_t>(i)];
    if (i < keep) kept_w += svd.s[static_cast<std::size_t>(i)] * svd.s[static_cast<std::size_t>(i)];
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

  a.chi_r = keep;
  a.data.assign(static_cast<std::size_t>(cl) * 2 * static_cast<std::size_t>(keep), cplx{});
  for (int row = 0; row < m_rows; ++row)
    for (int kk = 0; kk < keep; ++kk)
      a.data[static_cast<std::size_t>(row) * static_cast<std::size_t>(keep) + static_cast<std::size_t>(kk)] =
          svd.u[static_cast<std::size_t>(row) * static_cast<std::size_t>(svd.k) + static_cast<std::size_t>(kk)];

  b.chi_l = keep;
  b.chi_r = cr;
  b.data.assign(static_cast<std::size_t>(keep) * 2 * static_cast<std::size_t>(cr), cplx{});
  for (int kk = 0; kk < keep; ++kk)
    for (int pb = 0; pb < 2; ++pb)
      for (int r = 0; r < cr; ++r)
        b.data[(static_cast<std::size_t>(kk) * 2 + static_cast<std::size_t>(pb)) * static_cast<std::size_t>(cr) + static_cast<std::size_t>(r)] =
            svd.s[static_cast<std::size_t>(kk)] * rescale *
            svd.vdag[static_cast<std::size_t>(kk) * static_cast<std::size_t>(n_cols) + static_cast<std::size_t>(pb * cr + r)];
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
  for (int q = num_qubits_ - 1; q >= 0; --q) {
    const Site& s = sites_[static_cast<std::size_t>(q)];
    const auto& right = env[static_cast<std::size_t>(q) + 1];
    std::vector<cplx> e(static_cast<std::size_t>(s.chi_l) * static_cast<std::size_t>(s.chi_l), cplx{});
    // e(l, l') = sum_p sum_{r, r'} A(l,p,r) right(r,r') conj(A(l',p,r'))
    for (int p = 0; p < 2; ++p) {
      // tmp(l, r') = sum_r A(l,p,r) right(r, r')
      std::vector<cplx> tmp(static_cast<std::size_t>(s.chi_l) * static_cast<std::size_t>(s.chi_r), cplx{});
      for (int l = 0; l < s.chi_l; ++l)
        for (int r = 0; r < s.chi_r; ++r) {
          const cplx av = s.data[(static_cast<std::size_t>(l) * 2 + static_cast<std::size_t>(p)) * static_cast<std::size_t>(s.chi_r) + static_cast<std::size_t>(r)];
          if (av == cplx{}) continue;
          for (int rp = 0; rp < s.chi_r; ++rp)
            tmp[static_cast<std::size_t>(l) * static_cast<std::size_t>(s.chi_r) + static_cast<std::size_t>(rp)] +=
                av * right[static_cast<std::size_t>(r) * static_cast<std::size_t>(s.chi_r) + static_cast<std::size_t>(rp)];
        }
      for (int l = 0; l < s.chi_l; ++l)
        for (int lp = 0; lp < s.chi_l; ++lp) {
          cplx acc{};
          for (int rp = 0; rp < s.chi_r; ++rp)
            acc += tmp[static_cast<std::size_t>(l) * static_cast<std::size_t>(s.chi_r) + static_cast<std::size_t>(rp)] *
                   std::conj(s.data[(static_cast<std::size_t>(lp) * 2 + static_cast<std::size_t>(p)) * static_cast<std::size_t>(s.chi_r) + static_cast<std::size_t>(rp)]);
          e[static_cast<std::size_t>(l) * static_cast<std::size_t>(s.chi_l) + static_cast<std::size_t>(lp)] += acc;
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

void MpsSimulator::normalize() {
  const double n2 = norm2();
  if (n2 <= 0.0) return;
  const double scale = 1.0 / std::sqrt(n2);
  for (cplx& v : sites_[0].data) v *= scale;
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

double MpsSimulator::expectation_diagonal_sampled(
    const std::function<double(std::uint64_t)>& f, std::size_t shots, Rng& rng) const {
  QDB_REQUIRE(shots > 0, "expectation needs at least one shot");
  const auto xs = sample(shots, rng);
  double acc = 0.0;
  for (std::uint64_t x : xs) acc += f(x);
  return acc / static_cast<double>(shots);
}

}  // namespace qdb
