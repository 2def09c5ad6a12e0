// Two-stage virtual-screening funnel (ISSUE 9).
//
//   stage 1  every library ligand gets `poses_per_ligand` coarse poses
//            (seeded per ligand, independent of thread count), scored with
//            the precomputed ReceptorGrid filter — cheap, approximate,
//            monotone enough to rank (DESIGN.md §14).
//   cut      the best `stage1_keep` fraction of ligands survives.
//   stage 2  each survivor's best stage-1 poses are rescored with the full
//            Vina function against the receptor — the exact score, and the
//            only one the hit list publishes.
//   top-K    a bounded heap over the exact scores yields the ranked hit
//            list, ties broken by ligand ID, deterministic to the byte.
//
// Parallelism: ligands fan out over the PR 1 parallel executor in chunks;
// every ligand writes a disjoint slot, so results are identical at any
// thread count.  After every chunk the stage-1 state checkpoints
// crash-consistently; a killed run resumes from the checkpoint and converges
// to the same ranked bytes as an uninterrupted one (CI gates on cmp).
#pragma once

#include <cstdint>
#include <string>

#include "dock/vina_score.h"
#include "screen/grid.h"
#include "screen/library.h"
#include "screen/report.h"
#include "structure/molecule.h"

namespace qdb::screen {

struct ScreenOptions {
  LibrarySpec library;

  int top_k = 16;              ///< ranked hits to publish
  double stage1_keep = 0.125;  ///< fraction of the library surviving stage 1
  int poses_per_ligand = 24;   ///< coarse poses sampled per ligand in stage 1
  int poses_rescored = 4;      ///< best stage-1 poses rescored per survivor

  double grid_spacing = 0.75;  ///< ReceptorGrid lattice spacing (Angstroms)
  double grid_padding = 4.0;   ///< box margin beyond the receptor extent

  int threads = 0;             ///< executor width (0 = all cores); never
                               ///< changes any output byte
  std::uint64_t chunk_size = 64;  ///< ligands per checkpoint chunk

  std::string checkpoint_path;  ///< empty = no checkpointing
  bool resume = false;          ///< load checkpoint_path if it exists
  int stop_after_chunks = 0;    ///< cooperative preemption: stop after this
                                ///< many chunks THIS run (0 = run to the
                                ///< end); the kill+resume golden's hook

  VinaWeights weights;
};

/// Everything reusable across screens of one receptor: the stage-1 potential
/// grid and the exact-rescoring neighbour structure.  Build once (it is the
/// expensive part), share read-only across thousands of ligands — and, via
/// serialize(), across processes through the content-addressed store.
struct PreparedReceptor {
  ReceptorGrid grid;
  qdb::NeighbourIndex rescoring;

  PreparedReceptor(ReceptorGrid g, qdb::NeighbourIndex r)
      : grid(std::move(g)), rescoring(std::move(r)) {}
};

/// Build the grid and the rescoring structure for one receptor.
PreparedReceptor prepare_receptor(const Structure& receptor,
                                  const ScreenOptions& options);

/// Fingerprint over every result-shaping option (library, funnel shape, grid
/// geometry, weights — not threads, not preemption, not paths).  Checkpoints
/// and reports embed it and refuse mismatched resumes.
std::uint64_t screen_options_fingerprint(const ScreenOptions& options);

/// Run the funnel against a prepared receptor.  `receptor_tag` names the
/// receptor in checkpoints and reports (a pdb_id, or any stable label).
ScreenReport run_screen(const PreparedReceptor& prepared,
                        const std::string& receptor_tag,
                        const ScreenOptions& options);

/// Convenience: prepare_receptor + run_screen.
ScreenReport run_screen(const Structure& receptor, const std::string& receptor_tag,
                        const ScreenOptions& options);

}  // namespace qdb::screen
