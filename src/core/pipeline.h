// QDockBank pipeline — the library's primary public API.
//
// Ties every substrate together the way the paper's workflow does
// (Figure 1): sequence -> lattice encoding -> VQE on the simulated Eagle
// backend -> atomic reconstruction -> docking + RMSD evaluation, with the
// AF2/AF3 surrogates and classical folders as comparison methods, and the
// §5.2 batch architecture for whole-dataset runs.
//
// Budget profiles: the *bench* profile bounds VQE iterations/shots and
// docking runs so the full 55-entry evaluation finishes in minutes on one
// core; the *paper* profile uses the published budgets (>=200 COBYLA
// iterations, 100,000 stage-2 shots, 20 docking seeds).  Setting QDB_FULL=1
// in the environment selects the paper profile everywhere.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset_io.h"
#include "data/reference.h"
#include "data/registry.h"
#include "dock/dock.h"
#include "dock/ligand_gen.h"
#include "structure/molecule.h"
#include "vqe/vqe.h"

namespace qdb {

/// Structure-prediction methods the benchmark compares.
enum class Method {
  QDock,      // the paper's contribution: VQE on quantum hardware
  AF2,        // AlphaFold2 surrogate
  AF3,        // AlphaFold3 surrogate
  Annealing,  // classical simulated annealing on the same Hamiltonian
  Greedy,     // greedy chain growth (weak classical baseline)
  Exact,      // certified ground state (oracle upper bound)
};

const char* method_name(Method m);

struct PipelineOptions {
  VqeOptions vqe;
  DockingParams docking;
  ReferenceOptions reference;
  LigandGenOptions ligand;

  /// Fast profile for benches/tests (bounded budgets).
  static PipelineOptions bench_profile();
  /// The paper's budgets (200 evaluations, 100k shots, 20 docking seeds).
  static PipelineOptions paper_profile();
  /// bench_profile() unless the environment sets QDB_FULL=1.
  static PipelineOptions from_env();
};

/// A method's prediction for one entry, docking-ready.
struct Prediction {
  Method method = Method::QDock;
  Structure structure;
  double conformation_energy = 0.0;       // folding energy (lattice methods)
  std::optional<VqeResult> vqe;           // populated for QDock
};

/// Full evaluation of one (entry, method) pair: the paper's two headline
/// metrics plus the docking detail columns.
struct Evaluation {
  std::string pdb_id;
  Group group = Group::S;
  Method method = Method::QDock;
  double rmsd = 0.0;             // Calpha RMSD vs the reference (Angstrom)
  double affinity = 0.0;         // best docking affinity (kcal/mol)
  double mean_affinity = 0.0;    // mean of per-run best affinities
  double pose_rmsd_lb = 0.0;     // Vina pose-variability bounds (Table 4)
  double pose_rmsd_ub = 0.0;
};

/// Paired win rates of QDock against a baseline (the Figures 2-3 numbers):
/// fraction of entries where QDock's metric is strictly better (lower).
struct WinRates {
  int entries = 0;
  int affinity_wins = 0;
  int rmsd_wins = 0;
  double affinity_rate() const { return entries ? static_cast<double>(affinity_wins) / entries : 0.0; }
  double rmsd_rate() const { return entries ? static_cast<double>(rmsd_wins) / entries : 0.0; }
};

WinRates win_rates(const std::vector<Evaluation>& qdock,
                   const std::vector<Evaluation>& baseline);

class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options = PipelineOptions::from_env());

  const PipelineOptions& options() const { return opt_; }

  /// Predict one entry with one method.  Deterministic per entry/method.
  Prediction predict(const DatasetEntry& entry, Method method) const;

  /// Reference structure (cached per entry within this pipeline).
  const Structure& reference(const DatasetEntry& entry) const;

  /// The entry's (imprinted) ligand plus binding-site centre (cached).
  const ImprintResult& ligand_and_site(const DatasetEntry& entry) const;
  const Ligand& ligand(const DatasetEntry& entry) const {
    return ligand_and_site(entry).ligand;
  }

  /// Dock a prediction against the entry's ligand.
  DockingResult dock_prediction(const DatasetEntry& entry,
                                const Prediction& prediction) const;

  /// Predict + RMSD + docking in one call.
  Evaluation evaluate(const DatasetEntry& entry, Method method) const;

  /// Batch evaluation over a set of entries (§5.2 multi-tasking: entries
  /// are independent jobs).  Order matches the input.
  std::vector<Evaluation> evaluate_entries(const std::vector<const DatasetEntry*>& entries,
                                           Method method) const;
  std::vector<Evaluation> evaluate_group(Group g, Method method) const;
  std::vector<Evaluation> evaluate_all(Method method) const;

  /// Build the distributable dataset tree (§4.2 layout) for all entries
  /// with the QDock method; returns the evaluations it produced.
  std::vector<Evaluation> build_dataset(const std::string& root) const;

 private:
  /// One entry's prediction, docking and evaluation: the body shared by
  /// evaluate and build_dataset.
  struct EntryRun {
    Prediction prediction;
    DockingResult docking;
    Evaluation evaluation;
  };
  EntryRun run_entry(const DatasetEntry& entry, Method method) const;

  /// ligand_and_site, with `beside` run on this thread beside the imprint's
  /// docking runs when the slot is cold (and not at all when it is warm).
  const ImprintResult& imprint(const DatasetEntry& entry,
                               const std::function<void()>& beside) const;

  PipelineOptions opt_;
  mutable std::vector<std::optional<Structure>> reference_cache_;
  mutable std::vector<std::optional<ImprintResult>> ligand_cache_;
};

}  // namespace qdb
