// Rigid-receptor docking search (the AutoDock Vina protocol of §4.2/§6.1.2).
//
// Each docking run is an independent Monte-Carlo search over the pose space
// (translation inside the search box, orientation, torsions) under the Vina
// scoring function, with greedy local refinement of the incumbent.  The
// paper's protocol is reproduced exactly at the interface level: 20
// independently seeded runs per receptor, each reporting the top 10 poses
// ranked by affinity, plus the pose-variability metrics Vina prints (RMSD
// lower/upper bounds of each pose against the best one, the Table 4
// columns).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dock/ligand.h"
#include "dock/vina_score.h"
#include "structure/molecule.h"

namespace qdb {

struct DockingParams {
  int num_runs = 20;           // independent random seeds (paper: 20)
  int top_poses = 10;          // poses reported per run (paper: top 10)
  int mc_steps = 1200;         // Monte-Carlo steps per run
  int refine_steps = 150;      // greedy refinement steps on the run's best
  double temperature = 1.2;    // Metropolis temperature (kcal/mol)
  double box_padding = 2.5;    // search box beyond the receptor extent
  std::uint64_t seed = 1;      // base seed; run r uses seed + r
  VinaWeights weights;

  // Optional binding-site box (the Vina "center_x/size_x" inputs): when
  // box_size > 0 the search is confined to a cube of that side length
  // around box_center instead of the whole receptor extent.
  Vec3 box_center;
  double box_size = 0.0;
};

struct ScoredPose {
  Pose pose;
  double affinity = 0.0;       // kcal/mol, lower is better
  int run = 0;                 // which seeded run produced it
};

struct DockingResult {
  std::vector<ScoredPose> poses;  // global top poses, best first
  double best_affinity = 0.0;
  double mean_affinity = 0.0;     // mean of per-run best affinities
  std::vector<double> run_best;   // best affinity of each run

  // Vina-style pose variability against the best pose (Table 4 metrics):
  // u.b. = direct per-atom RMSD, l.b. = RMSD under the best greedy atom
  // matching (symmetry-tolerant lower bound).
  double rmsd_lb_mean = 0.0;
  double rmsd_ub_mean = 0.0;
};

/// Direct (upper-bound) RMSD between two pose conformations.
double pose_rmsd_ub(const std::vector<Vec3>& a, const std::vector<Vec3>& b);

/// Greedy minimum-assignment (lower-bound) RMSD between two conformations.
double pose_rmsd_lb(const std::vector<Vec3>& a, const std::vector<Vec3>& b);

/// Dock `ligand` against the rigid `receptor`.  Deterministic per params.
/// A non-empty `beside` runs on the calling thread while the pool threads
/// start the seeded runs (parallel_for_beside); the result does not depend
/// on it, and an exception from it is rethrown once the runs finish.
DockingResult dock(const Structure& receptor, const Ligand& ligand,
                   const DockingParams& params = {},
                   const std::function<void()>& beside = {});

}  // namespace qdb
