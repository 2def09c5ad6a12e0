#include "dock/vina_score.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/error.h"
#include "dock/vina_simd.h"

namespace qdb {

double vdw_radius(char element) {
  switch (element) {
    case 'C': return 1.9;
    case 'N': return 1.8;
    case 'O': return 1.7;
    case 'S': return 2.0;
    case 'H': return 1.0;
    default: return 1.9;
  }
}

std::vector<ReceptorAtom> type_receptor(const Structure& receptor) {
  std::vector<ReceptorAtom> out;
  for (const Residue& r : receptor.residues) {
    const bool hydrophobic_residue = aa_class(r.type) == ResidueClass::Hydrophobic;
    for (const Atom& a : r.atoms) {
      if (a.is_hydrogen()) continue;  // united-atom model
      ReceptorAtom t;
      t.pos = a.pos;
      t.element = a.element;
      if (a.element == 'C') {
        // Backbone carbons are bonded to polar atoms; side-chain carbons of
        // hydrophobic residues drive the hydrophobic term.
        t.hydrophobic = !a.is_backbone() && hydrophobic_residue;
      } else if (a.element == 'N') {
        t.donor = true;  // backbone amide and positive side-chain nitrogens
        t.acceptor = !a.is_backbone() && aa_charge(r.type) <= 0;
      } else if (a.element == 'O') {
        t.acceptor = true;
        t.donor = (r.type == AminoAcid::Ser || r.type == AminoAcid::Thr ||
                   r.type == AminoAcid::Tyr);  // hydroxyls donate too
      } else if (a.element == 'S') {
        t.acceptor = true;
        t.hydrophobic = true;  // thioether sulfurs behave hydrophobically
      }
      out.push_back(t);
    }
  }
  return out;
}

NeighbourIndex::NeighbourIndex(const std::vector<ReceptorAtom>& atoms, double cutoff)
    : cutoff_(cutoff), cell_(cutoff) {
  QDB_REQUIRE(!atoms.empty(), "receptor grid needs atoms");
  QDB_REQUIRE(cutoff > 0.0, "cutoff must be positive");
  QDB_REQUIRE(atoms.size() < (std::size_t{1} << 31), "receptor grid: too many atoms");
  origin_ = atoms[0].pos;
  Vec3 hi = atoms[0].pos;
  for (const ReceptorAtom& a : atoms) {
    QDB_REQUIRE(std::isfinite(a.pos.x) && std::isfinite(a.pos.y) && std::isfinite(a.pos.z),
                "receptor grid: non-finite atom coordinate");
    origin_.x = std::min(origin_.x, a.pos.x);
    origin_.y = std::min(origin_.y, a.pos.y);
    origin_.z = std::min(origin_.z, a.pos.z);
    hi.x = std::max(hi.x, a.pos.x);
    hi.y = std::max(hi.y, a.pos.y);
    hi.z = std::max(hi.z, a.pos.z);
  }
  // Occupied cells plus one empty padding layer on each side.
  auto extent = [&](double lo, double top) {
    const double cells = std::floor((top - lo) / cell_) + 3.0;
    QDB_REQUIRE(cells <= 1024.0, "receptor grid: extent too large for the cell box");
    return static_cast<int>(cells);
  };
  nx_ = extent(origin_.x, hi.x);
  ny_ = extent(origin_.y, hi.y);
  nz_ = extent(origin_.z, hi.z);
  const std::size_t num_cells =
      static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_) * static_cast<std::size_t>(nz_);
  QDB_REQUIRE(num_cells <= (std::size_t{1} << 24), "receptor grid: too many cells");
  auto linear = [&](int x, int y, int z) {
    return (static_cast<std::size_t>(x) * static_cast<std::size_t>(ny_) +
            static_cast<std::size_t>(y)) * static_cast<std::size_t>(nz_) +
           static_cast<std::size_t>(z);
  };

  // Counting sort by cell; stable, so each cell keeps ascending indices.
  std::vector<std::size_t> cell_of_atom(atoms.size());
  std::vector<std::uint32_t> start(num_cells + 1, 0);
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    const Vec3& p = atoms[i].pos;
    cell_of_atom[i] = linear(cell_of(p.x, origin_.x, nx_), cell_of(p.y, origin_.y, ny_),
                             cell_of(p.z, origin_.z, nz_));
    ++start[cell_of_atom[i] + 1];
  }
  for (std::size_t c = 0; c < num_cells; ++c) start[c + 1] += start[c];
  x_.resize(atoms.size());
  y_.resize(atoms.size());
  z_.resize(atoms.size());
  radius_.resize(atoms.size());
  flags_.resize(atoms.size());
  index_.resize(atoms.size());
  std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    const ReceptorAtom& a = atoms[i];
    const std::uint32_t k = fill[cell_of_atom[i]]++;
    x_[k] = a.pos.x;
    y_[k] = a.pos.y;
    z_[k] = a.pos.z;
    radius_[k] = vdw_radius(a.element);
    flags_[k] = static_cast<std::uint8_t>((a.hydrophobic ? kHydrophobic : 0) |
                                          (a.donor ? kDonor : 0) | (a.acceptor ? kAcceptor : 0));
    index_[k] = static_cast<int>(i);
  }

  // Per cell, the (dx, dy) runs cover cells z-1..z+1 of that column; the
  // padding layers are empty, so clipping a run at the box edge drops no atom.
  runs_.resize(num_cells * kRuns);
  for (int x = 0; x < nx_; ++x) {
    for (int y = 0; y < ny_; ++y) {
      for (int z = 0; z < nz_; ++z) {
        Run* runs = &runs_[linear(x, y, z) * kRuns];
        for (int dx = -1; dx <= 1; ++dx) {
          for (int dy = -1; dy <= 1; ++dy, ++runs) {
            const int nx = x + dx, ny = y + dy;
            if (nx < 0 || nx >= nx_ || ny < 0 || ny >= ny_) continue;
            runs->begin = start[linear(nx, ny, std::max(z - 1, 0))];
            runs->end = start[linear(nx, ny, std::min(z + 1, nz_ - 1)) + 1];
          }
        }
      }
    }
  }
}

namespace {

/// Linear slope that is 1 below `good`, 0 above `bad`.
double slope_step(double x, double good, double bad) {
  if (x <= good) return 1.0;
  if (x >= bad) return 0.0;
  return (bad - x) / (bad - good);
}

bool all_finite(const Vec3& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
}

bool same_bits(const Vec3& a, const Vec3& b) {
  return std::memcmp(&a.x, &b.x, sizeof a.x) == 0 && std::memcmp(&a.y, &b.y, sizeof a.y) == 0 &&
         std::memcmp(&a.z, &b.z, sizeof a.z) == 0;
}

}  // namespace

PairWalk::PairWalk(const NeighbourIndex& grid, const Vec3& point, const LigandAtom& atom)
    : p(point),
      runs(grid.runs_at(point)),
      x(grid.x_.data()),
      y(grid.y_.data()),
      z(grid.z_.data()),
      radius(grid.radius_.data()),
      flags(grid.flags_.data()),
      cutoff2(grid.cutoff_ * grid.cutoff_),
      lr(vdw_radius(atom.element)),
      hydrophobic(atom.hydrophobic ? NeighbourIndex::kHydrophobic : std::uint8_t{0}),
      hbond(static_cast<std::uint8_t>((atom.donor ? NeighbourIndex::kAcceptor : 0) |
                                      (atom.acceptor ? NeighbourIndex::kDonor : 0))) {}

namespace {

/// The scalar body; kRecord = false is the plain sum.  Each run is taken
/// in chunks of kChunk slots, in two passes: the first computes every
/// slot's d2 and keeps the in-cutoff (slot, d2) pairs in walk order with no
/// branch on the test, the second computes the terms of the kept pairs
/// only.  The pairs, their order and their arithmetic are those of a
/// one-pass loop that skips `d2 > cutoff2`: d2 is never NaN (finite `p`,
/// finite atoms), so `d2 <= cutoff2` keeps exactly its pairs.
template <bool kRecord>
double scalar_pairs(const PairWalk& walk, double total, const VinaWeights& w,
                    std::vector<double>* terms) {
  constexpr std::uint32_t kChunk = 64;
  const Vec3& p = walk.p;
  std::uint32_t kept[kChunk];
  double kept_d2[kChunk];
  for (int r = 0; r < PairWalk::kRuns; ++r) {
    for (std::uint32_t begin = walk.runs[r].begin; begin < walk.runs[r].end; begin += kChunk) {
      const std::uint32_t end = std::min(walk.runs[r].end, begin + kChunk);
      std::uint32_t n = 0;
      for (std::uint32_t k = begin; k < end; ++k) {
        // The arithmetic of p.distance2(atom position), term for term.
        const double dx = p.x - walk.x[k];
        const double dy = p.y - walk.y[k];
        const double dz = p.z - walk.z[k];
        const double d2 = dx * dx + dy * dy + dz * dz;
        kept[n] = k;
        kept_d2[n] = d2;
        n += d2 <= walk.cutoff2 ? 1u : 0u;
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t k = kept[i];
        const double d = std::sqrt(kept_d2[i]);
        const double ds = d - walk.lr - walk.radius[k];

        double e = w.gauss1 * std::exp(-(ds / 0.5) * (ds / 0.5));
        const double g2 = (ds - 3.0) / 2.0;
        e += w.gauss2 * std::exp(-g2 * g2);
        if (ds < 0.0) e += w.repulsion * ds * ds;
        if ((walk.flags[k] & walk.hydrophobic) != 0) e += w.hydrophobic * slope_step(ds, 0.5, 1.5);
        if ((walk.flags[k] & walk.hbond) != 0) e += w.hbond * slope_step(ds, -0.7, 0.0);
        if constexpr (kRecord) terms->push_back(e);
        total += e;
      }
    }
  }
  return total;
}

/// The pair kernel: the NaN and outside-the-box cases, then the AVX2 body
/// where `simd` holds and the scalar body otherwise.
template <bool kRecord>
double accumulate_pairs(const NeighbourIndex& grid, const Vec3& p, const LigandAtom& atom,
                        double total, const VinaWeights& w, std::vector<double>* terms,
                        bool simd) {
  if (!all_finite(p)) return std::numeric_limits<double>::quiet_NaN();
  const PairWalk walk(grid, p, atom);
  if (walk.runs == nullptr) return total;
  if (simd) return vina_simd::accumulate(walk, total, w, terms);
  return scalar_pairs<kRecord>(walk, total, w, terms);
}

}  // namespace

double accumulate_point_energy(const NeighbourIndex& grid, const Vec3& p, const LigandAtom& atom,
                               double total, const VinaWeights& w) {
  return accumulate_pairs<false>(grid, p, atom, total, w, nullptr, vina_simd::active());
}

double accumulate_point_energy(const NeighbourIndex& grid, const Vec3& p, const LigandAtom& atom,
                               double total, const VinaWeights& w, std::vector<double>& terms) {
  return accumulate_pairs<true>(grid, p, atom, total, w, &terms, vina_simd::active());
}

double accumulate_point_energy_scalar(const NeighbourIndex& grid, const Vec3& p,
                                      const LigandAtom& atom, double total,
                                      const VinaWeights& w, std::vector<double>& terms) {
  return accumulate_pairs<true>(grid, p, atom, total, w, &terms, false);
}

double intermolecular_energy(const NeighbourIndex& grid, const Ligand& ligand,
                             const std::vector<Vec3>& coords, const VinaWeights& w) {
  QDB_REQUIRE(coords.size() == static_cast<std::size_t>(ligand.num_atoms()),
              "coords/ligand mismatch");
  double total = 0.0;
  for (std::size_t li = 0; li < coords.size(); ++li) {
    const LigandAtom& la = ligand.atoms()[li];
    if (la.element == 'H') continue;
    total = accumulate_point_energy(grid, coords[li], la, total, w);
  }
  return total;
}

IncrementalScorer::IncrementalScorer(const NeighbourIndex& grid, const Ligand& ligand,
                                     const VinaWeights& w)
    : grid_(grid), ligand_(ligand), w_(w) {}

double IncrementalScorer::score(std::vector<Vec3> coords, const ScoredConformation* incumbent,
                                ScoredConformation& out) {
  QDB_REQUIRE(coords.size() == static_cast<std::size_t>(ligand_.num_atoms()),
              "coords/ligand mismatch");
  QDB_REQUIRE(incumbent != &out, "incremental score: incumbent aliases the output");
  QDB_REQUIRE(incumbent == nullptr || incumbent->coords.size() == coords.size(),
              "incremental score: incumbent of another ligand");
  out.coords = std::move(coords);
  const std::size_t n = out.coords.size();
  out.offsets.resize(n + 1);
  out.terms.clear();
  double total = 0.0;
  for (std::size_t li = 0; li < n; ++li) {
    out.offsets[li] = out.terms.size();
    const LigandAtom& la = ligand_.atoms()[li];
    if (la.element == 'H') continue;  // unscored, like intermolecular_energy
    const Vec3& p = out.coords[li];
    if (incumbent != nullptr && all_finite(p) && same_bits(p, incumbent->coords[li])) {
      // Equal inputs gave these terms; adding them in the same order gives
      // the same sum.
      const double* begin = incumbent->terms.data() + incumbent->offsets[li];
      const double* end = incumbent->terms.data() + incumbent->offsets[li + 1];
      for (const double* t = begin; t != end; ++t) total += *t;
      out.terms.insert(out.terms.end(), begin, end);
      reused_ += static_cast<std::uint64_t>(end - begin);
    } else {
      const std::size_t before = out.terms.size();
      total = accumulate_point_energy(grid_, p, la, total, w_, out.terms);
      fresh_ += out.terms.size() - before;
    }
  }
  out.offsets[n] = out.terms.size();
  ++calls_;
  out.energy = total;
  return total;
}

double affinity_from_energy(double inter_energy, int num_torsions, const VinaWeights& w) {
  return inter_energy / (1.0 + w.rot_penalty * static_cast<double>(num_torsions));
}

}  // namespace qdb
