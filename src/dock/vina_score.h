// AutoDock Vina scoring function (Trott & Olson 2010), used for all docking
// evaluations in the paper (§4.2, §6.1.2).
//
// Intermolecular score between receptor and ligand heavy atoms within an
// 8 A cutoff, as a function of the surface distance
// d_surf = d - R_i - R_j (van der Waals radii by element):
//
//   gauss1      -0.035579 * exp(-(d_surf / 0.5)^2)
//   gauss2      -0.005156 * exp(-((d_surf - 3) / 2)^2)
//   repulsion    0.840245 * d_surf^2            (d_surf < 0)
//   hydrophobic -0.035069 * slope(0.5, 1.5)     (both atoms hydrophobic)
//   h-bond      -0.587439 * slope(-0.7, 0)      (donor-acceptor pair)
//
// Binding affinity (kcal/mol) of a pose divides the intermolecular energy
// by 1 + w_rot * N_rot with w_rot = 0.05846, penalising flexible ligands.
// Hydrogens are ignored (united-atom model); only heavy atoms score.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "dock/ligand.h"
#include "structure/molecule.h"

namespace qdb {

/// Typed receptor atom ready for scoring.
struct ReceptorAtom {
  Vec3 pos;
  char element = 'C';
  bool hydrophobic = false;
  bool donor = false;
  bool acceptor = false;
};

/// Van der Waals radius by element (Vina's values, Angstroms).
double vdw_radius(char element);

/// Type the receptor's heavy atoms for scoring: side-chain carbons of
/// hydrophobic residues are hydrophobic, backbone N donates, O accepts,
/// side-chain terminal N/O follow their residue chemistry.
std::vector<ReceptorAtom> type_receptor(const Structure& receptor);

/// Vina term weights (exposed for the scoring ablation bench).
struct VinaWeights {
  double gauss1 = -0.035579;
  double gauss2 = -0.005156;
  double repulsion = 0.840245;
  double hydrophobic = -0.035069;
  double hbond = -0.587439;
  double rot_penalty = 0.05846;
};

/// Flat spatial index over the receptor's heavy atoms for neighbour lookup
/// within the scoring cutoff.
///
/// Cells are cubes of side `cutoff` anchored at the receptor's minimum
/// corner, laid out densely in a box with one empty layer of padding on each
/// side, z fastest.  Each atom is stored once, sorted by (cell, original
/// index), as struct-of-arrays (x, y, z, vdW radius, type flags).  Because z
/// is fastest, the three z-neighbours of a cell are adjacent, so each query
/// cell's 27-cell neighbourhood is 9 contiguous (dx, dy) runs over those
/// arrays.  Memory is O(atoms + cells).
///
/// Walk-order contract: the neighbourhood of a point is visited cell by
/// cell in nested (dx, dy, dz) order, each from -1 to 1, and by ascending
/// original atom index within a cell.  Scores are sums over pairs in this
/// order, so the order is part of the bit-for-bit results.  A point whose
/// cell lies outside the padded box visits nothing; the range check happens
/// in double precision, so far-off points are safe.
class NeighbourIndex {
 public:
  explicit NeighbourIndex(const std::vector<ReceptorAtom>& atoms, double cutoff = 8.0);

  /// Visit the original indices of the receptor atoms in the 27 cells
  /// around `p`, in walk order.  A superset of the atoms within the cutoff;
  /// nothing for a non-finite `p`.
  template <typename Fn>
  void for_neighbors(const Vec3& p, Fn&& fn) const {
    const Run* runs = runs_at(p);
    if (runs == nullptr) return;
    for (int r = 0; r < kRuns; ++r) {
      for (std::uint32_t k = runs[r].begin; k < runs[r].end; ++k) fn(index_[k]);
    }
  }

 private:
  friend struct PairWalk;  // the pair kernel's view of the arrays (dock/vina_simd.h)

  /// Half-open range of sorted atom slots.
  struct Run {
    std::uint32_t begin = 0, end = 0;
  };
  static constexpr int kRuns = 9;  ///< one per (dx, dy)
  static constexpr std::uint8_t kHydrophobic = 1, kDonor = 2, kAcceptor = 4;

  /// Padded cell coordinate of `v` along one axis, or -1 outside [0, n).
  int cell_of(double v, double origin, int n) const {
    const double c = std::floor((v - origin) / cell_) + 1.0;
    return c >= 0.0 && c < static_cast<double>(n) ? static_cast<int>(c) : -1;
  }

  /// The kRuns runs of the cell containing `p`; nullptr outside the box.
  const Run* runs_at(const Vec3& p) const {
    const int cx = cell_of(p.x, origin_.x, nx_);
    const int cy = cell_of(p.y, origin_.y, ny_);
    const int cz = cell_of(p.z, origin_.z, nz_);
    if (cx < 0 || cy < 0 || cz < 0) return nullptr;
    const std::size_t cell = (static_cast<std::size_t>(cx) * static_cast<std::size_t>(ny_) +
                              static_cast<std::size_t>(cy)) * static_cast<std::size_t>(nz_) +
                             static_cast<std::size_t>(cz);
    return &runs_[cell * kRuns];
  }

  double cutoff_;
  double cell_;
  Vec3 origin_;
  int nx_ = 0, ny_ = 0, nz_ = 0;  ///< padded box size in cells
  // Receptor atoms sorted by (cell, original index).
  std::vector<double> x_, y_, z_, radius_;
  std::vector<std::uint8_t> flags_;  ///< kHydrophobic | kDonor | kAcceptor
  std::vector<int> index_;           ///< original index
  std::vector<Run> runs_;            ///< kRuns per cell
};

/// The one pair-sum kernel of the scorer: adds the Vina energy of one
/// ligand atom of `atom`'s type at `p` against every receptor atom within
/// the cutoff to `total`, pair by pair in walk order, and returns the sum.
/// NaN for a non-finite `p`; `total` unchanged for a point outside the box.
/// intermolecular_energy and the screening grid's node fill both call it,
/// so a grid node equals a one-atom intermolecular_energy bit for bit.
/// It filters the runs by the cutoff in a first pass, computes the terms of
/// the kept pairs in a second and adds them in walk order in a third, on
/// AVX2+FMA where the host allows and in scalar code otherwise
/// (DESIGN.md §3.2); the pairs, their order and every bit are those of a
/// one-pass scalar loop that skips the rest.
double accumulate_point_energy(const NeighbourIndex& grid, const Vec3& p, const LigandAtom& atom,
                               double total, const VinaWeights& w = VinaWeights{});

/// The same kernel, also appending each in-cutoff pair's term to `terms` in
/// walk order: re-adding them to the incoming `total` one by one with
/// `total += term` gives the returned sum bit for bit.  Appends nothing for
/// a non-finite `p` (whose NaN no term list can reproduce) or a point
/// outside the box.
double accumulate_point_energy(const NeighbourIndex& grid, const Vec3& p, const LigandAtom& atom,
                               double total, const VinaWeights& w, std::vector<double>& terms);

/// Intermolecular energy of ligand coordinates against the receptor index;
/// NaN if a heavy atom has a non-finite coordinate.
double intermolecular_energy(const NeighbourIndex& grid, const Ligand& ligand,
                             const std::vector<Vec3>& coords,
                             const VinaWeights& w = VinaWeights{});

/// A ligand conformation scored pair by pair: its coordinates, the
/// in-cutoff pair terms of every atom in one flat array (atom i's are
/// terms[offsets[i], offsets[i + 1]), empty for hydrogens), and the
/// intermolecular energy they sum to.
struct ScoredConformation {
  std::vector<Vec3> coords;
  std::vector<std::size_t> offsets;
  std::vector<double> terms;
  double energy = 0.0;
};

/// Scores conformations of one ligand incrementally against an incumbent
/// (DESIGN.md §3.2).  Each heavy atom whose coordinates are finite and bit
/// for bit the incumbent's re-adds the incumbent's recorded terms; every
/// other heavy atom walks the receptor index.  Atoms are taken in index
/// order and every term is added with `total += term`, so each energy is
/// intermolecular_energy's, bit for bit.  One scorer per thread.
class IncrementalScorer {
 public:
  IncrementalScorer(const NeighbourIndex& grid, const Ligand& ligand,
                    const VinaWeights& w = VinaWeights{});

  /// Score `coords` into `out` and return its energy.  A null `incumbent`
  /// reuses nothing; it must not alias `out`.
  double score(std::vector<Vec3> coords, const ScoredConformation* incumbent,
               ScoredConformation& out);

  std::uint64_t calls() const { return calls_; }
  std::uint64_t fresh_pairs() const { return fresh_; }    ///< terms the kernel computed
  std::uint64_t reused_pairs() const { return reused_; }  ///< terms re-added from an incumbent

 private:
  const NeighbourIndex& grid_;
  const Ligand& ligand_;
  VinaWeights w_;
  std::uint64_t calls_ = 0, fresh_ = 0, reused_ = 0;
};

/// Affinity (kcal/mol): intermolecular energy scaled by the torsion penalty.
double affinity_from_energy(double inter_energy, int num_torsions,
                            const VinaWeights& w = VinaWeights{});

}  // namespace qdb
