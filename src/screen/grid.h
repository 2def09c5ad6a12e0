// Precomputed receptor potential grid for stage-1 screening (ISSUE 9).
//
// A screen::ReceptorGrid samples the Vina intermolecular field of one
// receptor pocket on a regular lattice, once, for each of the three probe
// atom types the library chemistry uses (hydrophobic carbon, donor nitrogen,
// acceptor oxygen).  Scoring a ligand pose against the grid is then a
// trilinear interpolation per heavy atom — no receptor neighbour walks, no
// exponentials — which is what makes the stage-1 filter an order of
// magnitude cheaper per ligand than full `vina_score` rescoring
// (BENCH_screen.json records the measured ratio).
//
// Exactness contract (tested in test_screen.cpp):
//   - At a grid NODE, the interpolated value for a probe equals
//     `intermolecular_energy` of a single-atom ligand of that probe type at
//     the node position, bit for bit.  Node channels are filled by the same
//     kernel, `accumulate_point_energy` of vina_score, that
//     intermolecular_energy sums with, so the pair order and arithmetic are
//     shared by construction; node coordinates are exact multiples of the
//     spacing (the origin is snapped to the lattice), and the interpolation
//     weights degenerate to exactly 0/1 at nodes.
//   - Between nodes the filter is an approximation; published affinities
//     always come from full rescoring (DESIGN.md §14).
//   - Poses reaching outside the box are not extrapolated: each out-of-box
//     heavy atom contributes the documented kOutOfBoxPenalty instead.
//
// Serialization is byte-stable (fixed little-endian layout, IEEE-754 bit
// patterns, FNV-1a integrity trailer) so a grid ingested into the
// content-addressed store dedups across runs and machines.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dock/ligand.h"
#include "dock/vina_score.h"
#include "geom/vec3.h"
#include "structure/molecule.h"

namespace qdb::screen {

/// Probe atom types, one grid channel each.  The set mirrors the library
/// chemistry exactly: C/hydrophobic, N/donor, O/acceptor.
enum class Probe : int { Carbon = 0, Nitrogen = 1, Oxygen = 2 };
inline constexpr int kNumProbes = 3;

/// Channel for a ligand atom: by element for C/N/O; any other heavy element
/// falls back to the carbon probe (stage-1 approximation, see DESIGN.md §14).
Probe probe_for(const LigandAtom& atom);

/// Lattice geometry.  Node (i,j,k) sits at spacing * (origin_index + (i,j,k));
/// keeping the origin as an integer lattice index (not a free Vec3) makes
/// node coordinates exact products, which the node-exactness contract needs.
struct GridSpec {
  double spacing = 0.75;                 ///< Angstroms between nodes
  std::int64_t ox = 0, oy = 0, oz = 0;   ///< lattice index of node (0,0,0)
  std::int64_t nx = 0, ny = 0, nz = 0;   ///< node counts per axis (>= 2)
};

struct GridParams {
  double spacing = 0.75;   ///< lattice spacing; exactly-representable values
                           ///< (0.25 steps) preserve node exactness
  double padding = 4.0;    ///< box margin beyond the receptor heavy extent
  int threads = 0;         ///< build parallelism (0 = all cores); the built
                           ///< grid is identical for every thread count
  VinaWeights weights;
};

class ReceptorGrid {
 public:
  /// Energy contribution per out-of-box heavy atom (kcal/mol): a flat
  /// repulsive shelf, large enough that a pose leaking out of the padded box
  /// never survives stage-1, finite so scores stay totally ordered.
  static constexpr double kOutOfBoxPenalty = 4.0;

  /// Sample the receptor field on the lattice covering the receptor's heavy
  /// extent plus padding.  Deterministic for fixed inputs.
  ReceptorGrid(const Structure& receptor, const GridParams& params);

  const GridSpec& spec() const { return spec_; }
  const VinaWeights& weights() const { return weights_; }
  std::int64_t num_nodes() const { return spec_.nx * spec_.ny * spec_.nz; }

  /// World position of node (i,j,k) — an exact multiple of the spacing.
  Vec3 node_pos(std::int64_t i, std::int64_t j, std::int64_t k) const;
  /// Stored channel value at node (i,j,k).
  double node_value(std::int64_t i, std::int64_t j, std::int64_t k, Probe probe) const;

  /// Trilinear interpolation of `probe`'s channel at `p`; kOutOfBoxPenalty
  /// outside the lattice.  Exactly node_value(...) when `p` is a node.
  double value_at(const Vec3& p, Probe probe) const;

  /// Stage-1 filter energy of a pose: per heavy atom, the interpolated
  /// channel of its probe type (or the out-of-box penalty).  Hydrogens are
  /// skipped, matching the united-atom scoring model.
  double filter_energy(const Ligand& ligand, const std::vector<Vec3>& coords) const;

  /// Filter energy scaled by the Vina torsion penalty — the stage-1 ranking
  /// score (comparable to, but not a substitute for, a real affinity).
  double filter_affinity(const Ligand& ligand, const std::vector<Vec3>& coords) const;

  /// Lower/upper corner of the sampled box (translation bounds for coarse
  /// pose seeding).
  Vec3 box_lo() const { return node_pos(0, 0, 0); }
  Vec3 box_hi() const { return node_pos(spec_.nx - 1, spec_.ny - 1, spec_.nz - 1); }

  /// Byte-stable binary image ("QDBGRID1", little-endian, bit-pattern
  /// doubles, FNV-1a trailer).  Identical grids serialize to identical
  /// bytes, so store ingestion dedups them.
  std::string serialize() const;
  /// Inverse of serialize(); throws qdb::IoError on bad magic, truncation,
  /// or integrity-trailer mismatch.
  static ReceptorGrid deserialize(const std::string& bytes);

 private:
  ReceptorGrid() = default;  // deserialize fills the fields directly

  std::size_t flat(std::int64_t i, std::int64_t j, std::int64_t k) const {
    return static_cast<std::size_t>((i * spec_.ny + j) * spec_.nz + k);
  }

  GridSpec spec_;
  VinaWeights weights_;
  std::array<std::vector<double>, kNumProbes> values_;
};

}  // namespace qdb::screen
