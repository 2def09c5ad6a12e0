// Screening provenance records: per-ligand stage-1 results, the ranked hit
// list, and their crash-consistent serializations (ISSUE 9).
//
// Two artifacts come out of a screen:
//   - the CHECKPOINT: per-ligand stage-1 results written after every chunk
//     (write_file_atomic), replayable after a kill.  Json writes every
//     double as the shortest decimal that parses back to the same bits, so
//     a resumed run converges to the same bytes as an uninterrupted one.
//   - the RANKED-HIT FILE: the canonical report of the funnel, deterministic
//     down to the byte for fixed options (thread count, resume history, and
//     machine do not change it), so the store dedups identical screens and
//     CI can gate on blob-hash equality.
//
// Both formats embed the options fingerprint and the receptor tag.  The
// checkpoint is a durable record (common/json.h): a load refuses, with
// qdb::IoError, a corrupt file, another version or fingerprint, and —
// checks of this format alone — another receptor or chunk size.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "dock/ligand.h"
#include "screen/library.h"

namespace qdb::screen {

/// One coarse pose surviving stage-1 for a ligand, with its filter score.
struct StagePose {
  Pose pose;
  double score = 0.0;  ///< stage-1 filter affinity (grid-interpolated)
};

/// Stage-1 outcome for one ligand: the best filter score and the top poses
/// kept for exact rescoring.  Pure function of (library spec, index, grid).
struct Stage1Result {
  std::uint64_t index = 0;
  std::string id;
  double best_score = 0.0;
  std::vector<StagePose> poses;  ///< best first, bounded by poses_rescored
};

/// One entry of the ranked hit list.
struct ScreenHit {
  std::string id;
  std::uint64_t index = 0;
  double stage1_score = 0.0;  ///< filter affinity of the best coarse pose
  double affinity = 0.0;      ///< full Vina rescoring — the published number
  Pose pose;                  ///< rescored pose of `affinity`
  int num_atoms = 0;
  int num_torsions = 0;
};

/// Funnel outcome.  `preempted` marks a cooperative mid-screen stop (the
/// checkpoint holds the progress); hits are only populated on completion.
struct ScreenReport {
  std::string receptor_tag;
  LibrarySpec library;
  std::uint64_t options_fingerprint = 0;
  std::uint64_t ligands_screened = 0;
  std::uint64_t stage1_survivors = 0;
  int top_k = 0;
  std::uint64_t chunks_done = 0;
  std::uint64_t chunks_total = 0;
  bool preempted = false;
  std::vector<ScreenHit> hits;  ///< ranked best-first, ties broken by id

  double keep_rate() const {
    return ligands_screened == 0
               ? 0.0
               : static_cast<double>(stage1_survivors) /
                     static_cast<double>(ligands_screened);
  }
};

/// Exact pose round-trip (translation, quaternion, torsions).
Json pose_json(const Pose& pose);
Pose pose_from_json(const Json& doc);

/// Canonical ranked-hit file bytes (indented JSON, exact doubles).
/// Refuses preempted reports — partial funnels have no ranked output.
std::string serialize_report(const ScreenReport& report);
/// Inverse of serialize_report; throws qdb::ParseError/IoError on bad input.
ScreenReport report_from_bytes(const std::string& bytes);

/// Write the stage-1 checkpoint crash-consistently (write_file_atomic).
void save_screen_checkpoint(const std::string& path,
                            const std::vector<Stage1Result>& results,
                            std::uint64_t chunks_done, std::uint64_t chunk_size,
                            std::uint64_t fingerprint,
                            const std::string& receptor_tag);

/// Load a checkpoint if `path` exists.  Returns false when absent; throws
/// qdb::IoError when present but corrupt or written by a different run
/// (version, fingerprint, receptor, or chunk size mismatch).
bool load_screen_checkpoint(const std::string& path, std::uint64_t fingerprint,
                            const std::string& receptor_tag,
                            std::uint64_t chunk_size,
                            std::vector<Stage1Result>* results,
                            std::uint64_t* chunks_done);

}  // namespace qdb::screen
