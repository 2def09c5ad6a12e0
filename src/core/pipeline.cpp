#include "core/pipeline.h"

#include <cstdlib>

#include "baseline/af_surrogate.h"
#include "baseline/classical.h"
#include "common/check.h"
#include "common/error.h"
#include "common/rng.h"
#include "geom/kabsch.h"
#include "lattice/lattice.h"
#include "lattice/solver.h"
#include "obs/trace.h"
#include "structure/protonate.h"

namespace qdb {

const char* method_name(Method m) {
  switch (m) {
    case Method::QDock: return "QDock";
    case Method::AF2: return "AF2";
    case Method::AF3: return "AF3";
    case Method::Annealing: return "Annealing";
    case Method::Greedy: return "Greedy";
    case Method::Exact: return "Exact";
  }
  return "?";
}

PipelineOptions PipelineOptions::bench_profile() {
  PipelineOptions o;
  o.vqe.max_evaluations = 70;
  o.vqe.shots_per_eval = 256;
  o.vqe.final_shots = 6000;
  o.docking.num_runs = 10;
  o.docking.mc_steps = 900;
  return o;
}

PipelineOptions PipelineOptions::paper_profile() {
  PipelineOptions o;
  o.vqe.max_evaluations = 200;   // "over 200 iterations" (§5.2)
  o.vqe.shots_per_eval = 512;
  o.vqe.final_shots = 100000;    // stage-2 sampling (§5.2)
  o.docking.num_runs = 20;       // 20 independent seeds (§4.2)
  o.docking.mc_steps = 1200;
  return o;
}

PipelineOptions PipelineOptions::from_env() {
  const char* full = std::getenv("QDB_FULL");
  if (full != nullptr && full[0] == '1') return paper_profile();
  return bench_profile();
}

Pipeline::Pipeline(PipelineOptions options)
    : opt_(std::move(options)),
      reference_cache_(qdockbank_entries().size()),
      ligand_cache_(qdockbank_entries().size()) {}

namespace {

std::size_t entry_index(const DatasetEntry& entry) {
  const auto& all = qdockbank_entries();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (&all[i] == &entry || std::string_view(all[i].pdb_id) == entry.pdb_id) return i;
  }
  throw Error("entry is not part of the QDockBank registry");
}

}  // namespace

const Structure& Pipeline::reference(const DatasetEntry& entry) const {
  auto& slot = reference_cache_[entry_index(entry)];
  if (!slot) {
    const obs::Span span("pipeline.reference");
    slot = reference_structure(entry, opt_.reference);
  }
  return *slot;
}

const ImprintResult& Pipeline::ligand_and_site(const DatasetEntry& entry) const {
  return imprint(entry, {});
}

const ImprintResult& Pipeline::imprint(const DatasetEntry& entry,
                                       const std::function<void()>& beside) const {
  auto& slot = ligand_cache_[entry_index(entry)];
  if (!slot) {
    // The paper docks the *native* PDBbind ligand, whose chemistry and
    // shape complement the reference pocket; imprinting reproduces that
    // coupling (see dock/ligand_gen.h).
    const Structure& ref = reference(entry);
    const obs::Span span("pipeline.imprint");
    slot = imprint_ligand_with_site(generate_ligand(entry.pdb_id, opt_.ligand), ref, beside);
  }
  return *slot;
}

Prediction Pipeline::predict(const DatasetEntry& entry, Method method) const {
  const FoldingHamiltonian h = entry_hamiltonian(entry);
  Prediction out;
  out.method = method;

  switch (method) {
    case Method::QDock: {
      VqeOptions vopt = opt_.vqe;
      vopt.seed = seed_combine(fnv1a(entry.pdb_id), fnv1a("vqe"));
      vopt.run_id = entry.pdb_id;
      const VqeResult r = VqeDriver(h, vopt).run();
      const auto turns = decode_turns(r.best_bitstring, entry.length());
      out.structure = structure_from_turns(h, turns, entry.pdb_id, entry.residue_start);
      out.conformation_energy = r.best_energy;
      out.vqe = r;
      break;
    }
    case Method::AF2:
    case Method::AF3: {
      const AlphaFoldSurrogate surrogate(method == Method::AF2
                                             ? AlphaFoldSurrogate::Version::AF2
                                             : AlphaFoldSurrogate::Version::AF3);
      Structure s = surrogate.predict(entry.pdb_id, h.sequence(), entry.residue_start,
                                      &reference(entry));
      // Docking-ready like every other method's output.
      out.structure = std::move(s);
      {
        Structure& st = out.structure;
        add_polar_hydrogens(st);
        assign_partial_charges(st);
      }
      out.conformation_energy = 0.0;  // surrogates never see the Hamiltonian
      break;
    }
    case Method::Annealing: {
      AnnealingPredictor annealer;
      annealer.options.seed = seed_combine(fnv1a(entry.pdb_id), fnv1a("annealing"));
      out.structure = annealer.predict(h, entry.pdb_id, entry.residue_start);
      out.conformation_energy =
          AnnealingSolver(annealer.options).solve(h).energy;
      break;
    }
    case Method::Greedy: {
      const GreedyPredictor greedy;
      const auto turns = greedy.fold(h);
      out.structure = structure_from_turns(h, turns, entry.pdb_id, entry.residue_start);
      out.conformation_energy = h.energy_of_turns(turns);
      break;
    }
    case Method::Exact: {
      const SolveResult r = ExactSolver().solve(h);
      out.structure = structure_from_turns(h, r.turns, entry.pdb_id, entry.residue_start);
      out.conformation_energy = r.energy;
      break;
    }
  }
  return out;
}

DockingResult Pipeline::dock_prediction(const DatasetEntry& entry,
                                        const Prediction& prediction) const {
  DockingParams params = opt_.docking;
  // Paired design: every method docks a given entry with the same recorded
  // seeds (common random numbers), so affinity differences reflect the
  // receptor conformation, not search luck.  The paper likewise records the
  // per-run seeds for reproducibility (§6.2).
  params.seed = seed_combine(fnv1a(entry.pdb_id), fnv1a("dock"));

  // Vina protocol: the search box is centred on the known binding site.
  // The site is defined on the reference; map it onto the predicted
  // structure through the optimal Calpha superposition.
  const ImprintResult& imp = ligand_and_site(entry);
  const Superposition sp =
      superpose(reference(entry).ca_positions(), prediction.structure.ca_positions());
  params.box_center = sp.apply(imp.site_center);
  params.box_size = 2.0 * (imp.ligand.radius() + 4.0);
  return dock(prediction.structure, imp.ligand, params);
}

Pipeline::EntryRun Pipeline::run_entry(const DatasetEntry& entry, Method method) const {
  obs::Span span("pipeline.evaluate");
  span.set_attr("entry", entry.pdb_id);
  EntryRun run;
  if (ligand_cache_[entry_index(entry)]) {
    run.prediction = predict(entry, method);
  } else {
    // The prediction does not depend on the ligand, so it runs on this
    // thread beside the imprint's docking runs, which leave cores idle
    // (DESIGN.md §3.1).  The reference, which both sides read, is built
    // first.  The prediction's spans keep this span as their parent rather
    // than the imprint's dock.run.
    reference(entry);
    const obs::TraceContext here = obs::current_trace_context();
    imprint(entry, [&] {
      const obs::ScopedTraceContext scope(here);
      run.prediction = predict(entry, method);
    });
  }
  run.docking = dock_prediction(entry, run.prediction);

  Evaluation& ev = run.evaluation;
  ev.pdb_id = entry.pdb_id;
  ev.group = entry.group();
  ev.method = method;
  {
    const obs::Span rmsd_span("pipeline.rmsd");
    ev.rmsd = ca_rmsd(run.prediction.structure, reference(entry));
  }
  ev.affinity = run.docking.best_affinity;
  ev.mean_affinity = run.docking.mean_affinity;
  ev.pose_rmsd_lb = run.docking.rmsd_lb_mean;
  ev.pose_rmsd_ub = run.docking.rmsd_ub_mean;
  return run;
}

Evaluation Pipeline::evaluate(const DatasetEntry& entry, Method method) const {
  return run_entry(entry, method).evaluation;
}

std::vector<Evaluation> Pipeline::evaluate_entries(
    const std::vector<const DatasetEntry*>& entries, Method method) const {
  std::vector<Evaluation> out;
  out.reserve(entries.size());
  // §5.2 batch architecture: entries are independent jobs executed back to
  // back on the (simulated) processor.
  for (const DatasetEntry* e : entries) out.push_back(evaluate(*e, method));
  return out;
}

std::vector<Evaluation> Pipeline::evaluate_group(Group g, Method method) const {
  return evaluate_entries(entries_in_group(g), method);
}

std::vector<Evaluation> Pipeline::evaluate_all(Method method) const {
  std::vector<const DatasetEntry*> all;
  for (const DatasetEntry& e : qdockbank_entries()) all.push_back(&e);
  return evaluate_entries(all, method);
}

std::vector<Evaluation> Pipeline::build_dataset(const std::string& root) const {
  std::vector<Evaluation> evals;
  for (const DatasetEntry& entry : qdockbank_entries()) {
    EntryRun run = run_entry(entry, Method::QDock);
    QDB_REQUIRE(run.prediction.vqe.has_value(), "QDock prediction must carry VQE metadata");
    write_entry_files(root, entry, run.prediction.structure, *run.prediction.vqe, run.docking,
                      run.evaluation.rmsd);
    evals.push_back(std::move(run.evaluation));
  }
  return evals;
}

WinRates win_rates(const std::vector<Evaluation>& qdock,
                   const std::vector<Evaluation>& baseline) {
  QDB_REQUIRE(qdock.size() == baseline.size(), "win_rates: unpaired evaluations");
  WinRates w;
  for (std::size_t i = 0; i < qdock.size(); ++i) {
    QDB_REQUIRE(qdock[i].pdb_id == baseline[i].pdb_id, "win_rates: entry mismatch");
    ++w.entries;
    if (qdock[i].affinity < baseline[i].affinity) ++w.affinity_wins;
    if (qdock[i].rmsd < baseline[i].rmsd) ++w.rmsd_wins;
  }
  return w;
}

}  // namespace qdb
