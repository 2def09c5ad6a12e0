// The two bodies of the Vina pair kernel (DESIGN.md §3.2).
//
// accumulate_point_energy runs one of two bodies over the same walk: the
// AVX2+FMA body of vina_simd.cpp where the host allows it, and the scalar
// body of vina_score.cpp everywhere else.  Both give the same pairs, the
// same terms and the same sums, bit for bit; the scalar body is also the
// oracle the tests hold the AVX2 body against.
#pragma once

#include <cstdint>
#include <vector>

#include "dock/vina_score.h"

namespace qdb {

/// One ligand atom's walk over the receptor index, as both bodies read it.
struct PairWalk {
  /// The walk of a ligand atom of `atom`'s type at a finite point `p`.
  PairWalk(const NeighbourIndex& grid, const Vec3& p, const LigandAtom& atom);

  static constexpr int kRuns = NeighbourIndex::kRuns;

  Vec3 p;
  const NeighbourIndex::Run* runs;  ///< kRuns slot ranges; nullptr outside the box
  const double* x;                  ///< receptor atoms by slot
  const double* y;
  const double* z;
  const double* radius;
  const std::uint8_t* flags;
  double cutoff2;
  double lr;                ///< the ligand atom's vdW radius
  std::uint8_t hydrophobic;  ///< receptor flags that switch the hydrophobic term on
  std::uint8_t hbond;        ///< ... and the h-bond term
};

/// The scalar body, whatever the host: the fallback where the AVX2 body
/// cannot run, and the tests' oracle for it.  Same contract as the
/// recording accumulate_point_energy.
double accumulate_point_energy_scalar(const NeighbourIndex& grid, const Vec3& p,
                                      const LigandAtom& atom, double total,
                                      const VinaWeights& w, std::vector<double>& terms);

namespace vina_simd {

/// In-cutoff pairs the AVX2 body gathers before it computes their terms; a
/// walk that keeps more is computed in several batches.
inline constexpr int kBatchPairs = 128;

/// True when accumulate_point_energy runs the AVX2 body: it is compiled in
/// (x86-64 without QDB_NO_AVX2), the CPU has AVX2 and FMA (the test glibc
/// uses to pick its FMA exp), and exp4 matched std::exp bit for bit on a
/// self-check of 2^16 + edge-case arguments.  Decided and logged once per
/// process.
bool active();

/// exp of x[0..3] into out[0..3], glibc's FMA exp four lanes at a time;
/// lanes outside its main path call std::exp.  Only where the CPU has AVX2
/// and FMA, in a build with the AVX2 body.
void exp4(const double* x, double* out);

/// The AVX2 body: adds the walk's in-cutoff pair terms to `total` in walk
/// order, appending each to `*terms` when `terms` is not null.  Only where
/// active() holds, for a walk with runs.
double accumulate(const PairWalk& walk, double total, const VinaWeights& w,
                  std::vector<double>* terms);

}  // namespace vina_simd
}  // namespace qdb
