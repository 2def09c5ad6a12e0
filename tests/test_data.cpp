// Tests for src/data: registry integrity against the paper's tables, the
// reference-structure provider, and the dataset JSON/directory layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <set>

#include "common/error.h"
#include "data/dataset_io.h"
#include "data/reference.h"
#include "data/protein_class.h"
#include "data/registry.h"
#include "geom/kabsch.h"
#include "lattice/solver.h"
#include "structure/pdb.h"

namespace qdb {
namespace {

TEST(Registry, HasAll55Entries) {
  const auto& entries = qdockbank_entries();
  EXPECT_EQ(entries.size(), 55u);
  // Group sizes from the paper: 12 L, 23 M, 20 S.
  EXPECT_EQ(entries_in_group(Group::L).size(), 12u);
  EXPECT_EQ(entries_in_group(Group::M).size(), 23u);
  EXPECT_EQ(entries_in_group(Group::S).size(), 20u);
}

TEST(Registry, PdbIdsAreUnique) {
  std::set<std::string> ids;
  for (const auto& e : qdockbank_entries()) ids.insert(e.pdb_id);
  EXPECT_EQ(ids.size(), 55u);
}

TEST(Registry, SequencesParseAndMatchResidueRanges) {
  for (const auto& e : qdockbank_entries()) {
    EXPECT_NO_THROW(e.parsed_sequence()) << e.pdb_id;
    EXPECT_EQ(e.residue_end - e.residue_start + 1, e.length()) << e.pdb_id;
    EXPECT_GE(e.length(), 5) << e.pdb_id;
    EXPECT_LE(e.length(), 14) << e.pdb_id;
  }
}

TEST(Registry, PublishedValuesAreInternallyConsistent) {
  for (const auto& e : qdockbank_entries()) {
    // Energy range column = highest - lowest (to table rounding).  The
    // paper's own Table 3 row for 4zb8 violates this (968.063 vs 1085.915);
    // we transcribe tables verbatim, so that row is exempt.
    if (std::string_view(e.pdb_id) != "4zb8") {
      EXPECT_NEAR(e.energy_range, e.highest_energy - e.lowest_energy, 0.01) << e.pdb_id;
    }
    // Depth follows the 4q+5 law of the allocation profile.
    EXPECT_EQ(e.depth, 4 * e.qubits + 5) << e.pdb_id;
    EXPECT_GT(e.exec_time_s, 0.0) << e.pdb_id;
  }
}

TEST(Registry, SpotCheckTableValues) {
  const DatasetEntry& jpy = entry_by_id("4jpy");
  EXPECT_STREQ(jpy.sequence, "DYLEAYGKGGVKAK");
  EXPECT_EQ(jpy.qubits, 102);
  EXPECT_NEAR(jpy.lowest_energy, 23332.068, 1e-6);
  EXPECT_EQ(jpy.group(), Group::L);

  const DatasetEntry& ckz = entry_by_id("3ckz");
  EXPECT_EQ(ckz.length(), 5);
  EXPECT_EQ(ckz.qubits, 12);
  EXPECT_EQ(ckz.group(), Group::S);
  EXPECT_NEAR(ckz.exec_time_s, 5763.36, 1e-6);

  const DatasetEntry& qbs = entry_by_id("2qbs");
  EXPECT_EQ(qbs.residue_start, 214);
  EXPECT_EQ(qbs.residue_end, 224);

  EXPECT_THROW(entry_by_id("zzzz"), Error);
}

TEST(Registry, RepeatedSequencesAppearAcrossProteins) {
  // §4.1: EDACQGDSGG and LLDTGADDTV recur in multiple protein contexts.
  int edac = 0, lldt = 0;
  for (const auto& e : qdockbank_entries()) {
    if (std::string_view(e.sequence) == "EDACQGDSGG") ++edac;
    if (std::string_view(e.sequence) == "LLDTGADDTV") ++lldt;
  }
  EXPECT_EQ(edac, 2);  // 2bok, 2vwo
  EXPECT_EQ(lldt, 3);  // 1zsf, 3vf7, 4mc1
}

TEST(Reference, DeterministicAndDockingReady) {
  const DatasetEntry& e = entry_by_id("2bok");
  const Structure a = reference_structure(e);
  const Structure b = reference_structure(e);
  EXPECT_NEAR(ca_rmsd(a, b), 0.0, 1e-12);
  EXPECT_EQ(a.sequence(), "EDACQGDSGG");
  EXPECT_EQ(a.residues.front().seq_number, 188);
  EXPECT_NEAR(a.center().norm(), 0.0, 1e-9);
  EXPECT_NE(a.residues[0].find("HN"), nullptr);  // protonated
}

TEST(Reference, NearButNotOnTheLatticeMinimum) {
  const DatasetEntry& e = entry_by_id("1e2l");
  const FoldingHamiltonian h = entry_hamiltonian(e);
  const SolveResult ground = ExactSolver().solve(h);

  std::vector<Vec3> lattice_trace;
  for (const IVec3& p : walk_positions(ground.turns)) {
    lattice_trace.push_back(lattice_to_cartesian(p));
  }
  const Structure ref = reference_structure(e);
  const double d = rmsd_superposed(ref.ca_positions(), lattice_trace);
  EXPECT_GT(d, 0.1);  // relaxed off-lattice
  EXPECT_LT(d, 2.0);  // but still the same fold
}

TEST(Reference, DifferentEntriesGetDifferentRelaxations) {
  // Same sequence, different PDB context: 2bok vs 2vwo (EDACQGDSGG).
  const Structure a = reference_structure(entry_by_id("2bok"));
  const Structure b = reference_structure(entry_by_id("2vwo"));
  EXPECT_GT(ca_rmsd(a, b), 0.05);
}

TEST(DatasetIo, MetadataJsonHasPublishedAndMeasured) {
  const DatasetEntry& e = entry_by_id("3ckz");
  VqeResult vqe;
  vqe.logical_qubits = 4;
  vqe.allocation = published_eagle_allocation(e.length());
  vqe.lowest_energy = 10.5;
  vqe.highest_energy = 15.0;
  vqe.energy_range = 4.5;
  vqe.modeled_exec_time_s = 5000.0;
  vqe.evaluations = 200;
  vqe.total_shots = 202400;

  const Json j = prediction_metadata_json(e, vqe);
  EXPECT_EQ(j.at("pdb_id").as_string(), "3ckz");
  EXPECT_EQ(j.at("group").as_string(), "S");
  EXPECT_EQ(j.at("measured").at("qubits").as_int(), 12);
  EXPECT_NEAR(j.at("published").at("lowest_energy").as_double(), 10.433, 1e-6);
  EXPECT_EQ(j.at("residues").at("start").as_int(), 149);
  // Round-trips through the parser.
  EXPECT_NO_THROW(Json::parse(j.dump()));
}

TEST(DatasetIo, DockingJsonShape) {
  const DatasetEntry& e = entry_by_id("3ckz");
  DockingResult d;
  d.run_best = {-4.1, -4.0, -3.9};
  d.best_affinity = -4.1;
  d.mean_affinity = -4.0;
  d.rmsd_lb_mean = 1.4;
  d.rmsd_ub_mean = 1.9;
  d.poses.push_back(ScoredPose{{}, -4.1, 0});
  d.poses.push_back(ScoredPose{{}, -4.0, 1});

  const Json j = docking_results_json(e, d, 2.43);
  EXPECT_EQ(j.at("num_runs").as_int(), 3);
  EXPECT_EQ(j.at("run_best_affinity").as_array().size(), 3u);
  EXPECT_EQ(j.at("top_poses").as_array().size(), 2u);
  EXPECT_NEAR(j.at("ca_rmsd_vs_reference").as_double(), 2.43, 1e-12);
}

TEST(DatasetIo, WritesPaperDirectoryLayout) {
  const DatasetEntry& e = entry_by_id("3eax");  // S group, tiny
  const Structure ref = reference_structure(e);
  VqeResult vqe;
  vqe.allocation = published_eagle_allocation(e.length());
  DockingResult dock_result;
  dock_result.run_best = {-3.0};
  dock_result.best_affinity = -3.0;
  dock_result.mean_affinity = -3.0;
  dock_result.poses.push_back(ScoredPose{{}, -3.0, 0});

  const std::string root = testing::TempDir() + "/qdb_dataset_test";
  write_entry_files(root, e, ref, vqe, dock_result, 1.2);

  const std::string dir = root + "/S/3eax";
  EXPECT_EQ(entry_directory(root, e), dir);
  EXPECT_TRUE(std::filesystem::exists(dir + "/structure.pdb"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/metadata.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/docking.json"));

  // The written PDB parses back to the same fragment.
  const Structure back = read_pdb_file(dir + "/structure.pdb");
  EXPECT_EQ(back.sequence(), "RYRDV");
}


// --- writer/reader round-trips (ISSUE 4) ------------------------------------
//
// The readers exist so the artifact store can extract query fields at ingest;
// these tests pin writer and reader to one schema, field for field.  Json
// writes doubles exactly, so every double must come back bit for bit.

TEST(DatasetIo, MetadataRoundTripsFieldForField) {
  const DatasetEntry& e = entry_by_id("4tmk");
  VqeResult vqe;
  vqe.logical_qubits = 22;
  vqe.allocation = published_eagle_allocation(e.length());
  vqe.lowest_energy = 22590.2071234567;  // more digits than %.10g keeps
  vqe.highest_energy = 29135.42;
  vqe.energy_range = vqe.highest_energy - vqe.lowest_energy;
  vqe.modeled_exec_time_s = 199292.66;
  vqe.evaluations = 137;
  vqe.total_shots = 1234567;

  const Json written = prediction_metadata_json(e, vqe);
  const PredictionMetadata m =
      parse_prediction_metadata(Json::parse(written.dump()));
  EXPECT_EQ(m.pdb_id, "4tmk");
  EXPECT_EQ(m.sequence, e.sequence);
  EXPECT_EQ(m.group, "L");
  EXPECT_EQ(m.protein_class, protein_class_name(protein_class(e.pdb_id)));
  EXPECT_EQ(m.sequence_length, e.length());
  EXPECT_EQ(m.residue_start, e.residue_start);
  EXPECT_EQ(m.residue_end, e.residue_end);
  EXPECT_EQ(m.measured.qubits, vqe.allocation.qubits);
  EXPECT_EQ(m.measured.circuit_depth, vqe.allocation.depth);
  EXPECT_EQ(m.measured.logical_qubits, vqe.logical_qubits);
  EXPECT_EQ(m.measured.evaluations, vqe.evaluations);
  EXPECT_EQ(m.measured.total_shots,
            static_cast<std::int64_t>(vqe.total_shots));
  EXPECT_EQ(m.measured.lowest_energy, vqe.lowest_energy);
  EXPECT_EQ(m.measured.highest_energy, vqe.highest_energy);
  EXPECT_EQ(m.measured.energy_range, vqe.energy_range);
  EXPECT_EQ(m.measured.exec_time_s, vqe.modeled_exec_time_s);
  EXPECT_EQ(m.published.qubits, e.qubits);
  EXPECT_EQ(m.published.circuit_depth, e.depth);
  EXPECT_EQ(m.published.lowest_energy, e.lowest_energy);
  EXPECT_EQ(m.published.highest_energy, e.highest_energy);
  EXPECT_EQ(m.published.energy_range, e.energy_range);
  EXPECT_EQ(m.published.exec_time_s, e.exec_time_s);
}

TEST(DatasetIo, DockingRoundTripsFieldForField) {
  const DatasetEntry& e = entry_by_id("2qbs");
  DockingResult d;
  d.run_best = {-5.1234567891, -5.0, -4.875, -4.25};
  d.best_affinity = -5.1234567891;
  d.mean_affinity = -4.8121141973;
  d.rmsd_lb_mean = 1.4142135624;
  d.rmsd_ub_mean = 1.7320508076;
  d.poses.push_back(ScoredPose{{}, -5.1234567891, 2});
  d.poses.push_back(ScoredPose{{}, -5.0, 0});

  const Json written = docking_results_json(e, d, 0.8660254038);
  const DockingSummary s = parse_docking_results(Json::parse(written.dump()));
  EXPECT_EQ(s.pdb_id, "2qbs");
  ASSERT_EQ(s.run_best.size(), d.run_best.size());
  for (std::size_t i = 0; i < d.run_best.size(); ++i) {
    EXPECT_EQ(s.run_best[i], d.run_best[i]);
  }
  EXPECT_EQ(s.best_affinity, d.best_affinity);
  EXPECT_EQ(s.mean_affinity, d.mean_affinity);
  EXPECT_EQ(s.pose_rmsd_lb_mean, d.rmsd_lb_mean);
  EXPECT_EQ(s.pose_rmsd_ub_mean, d.rmsd_ub_mean);
  EXPECT_EQ(s.ca_rmsd_vs_reference, 0.8660254038);
  ASSERT_EQ(s.top_poses.size(), d.poses.size());
  for (std::size_t i = 0; i < d.poses.size(); ++i) {
    EXPECT_EQ(s.top_poses[i].affinity, d.poses[i].affinity);
    EXPECT_EQ(s.top_poses[i].run, d.poses[i].run);
  }
}

TEST(DatasetIo, ParsersNameTheMissingField) {
  Json doc = Json::object();
  doc.set("pdb_id", "1abc");
  try {
    parse_prediction_metadata(doc);
    FAIL() << "expected ParseError";
  } catch (const ParseError& ex) {
    EXPECT_NE(std::string(ex.what()).find("sequence"), std::string::npos);
  }
  try {
    parse_docking_results(doc);
    FAIL() << "expected ParseError";
  } catch (const ParseError& ex) {
    EXPECT_NE(std::string(ex.what()).find("run_best_affinity"), std::string::npos)
        << ex.what();
  }
}

TEST(DatasetIo, DockingParserRejectsRunCountMismatch) {
  const DatasetEntry& e = entry_by_id("3ckz");
  DockingResult d;
  d.run_best = {-3.5, -3.25};
  d.best_affinity = -3.5;
  d.mean_affinity = -3.375;
  Json doc = docking_results_json(e, d, 1.0);
  doc.set("num_runs", 7);  // contradicts run_best_affinity length
  EXPECT_THROW(parse_docking_results(doc), ParseError);
}

TEST(Registry, EntryByIdIsIndexedAndThrowsOnUnknown) {
  // The hash-indexed lookup must agree with a linear scan for every id and
  // still reject unknown ids (the server's 404 path relies on the throw).
  for (const DatasetEntry& e : qdockbank_entries()) {
    EXPECT_EQ(&entry_by_id(e.pdb_id), &e);
  }
  EXPECT_THROW(entry_by_id("0xyz"), Error);
  EXPECT_THROW(entry_by_id(""), Error);
  EXPECT_THROW(entry_by_id("1yc"), Error);   // prefix of a real id
  EXPECT_THROW(entry_by_id("1yc44"), Error); // extension of a real id
}

TEST(ProteinClass, FollowsThePaperListing) {
  EXPECT_EQ(protein_class("1zsf"), ProteinClass::ViralEnzyme);
  EXPECT_EQ(protein_class("4tmk"), ProteinClass::Kinase);
  EXPECT_EQ(protein_class("1ppi"), ProteinClass::MetabolicEnzyme);
  EXPECT_EQ(protein_class("3s0b"), ProteinClass::Receptor);
  EXPECT_EQ(protein_class("1yc4"), ProteinClass::Chaperone);
  EXPECT_EQ(protein_class("5kqx"), ProteinClass::Protease);
  EXPECT_EQ(protein_class("2bfq"), ProteinClass::Miscellaneous);
  EXPECT_EQ(protein_class("5tya"), ProteinClass::Miscellaneous);
}

TEST(ProteinClass, EveryEntryHasExactlyOneClass) {
  std::size_t total = 0;
  for (int c = 0; c <= static_cast<int>(ProteinClass::Miscellaneous); ++c) {
    total += entries_in_class(static_cast<ProteinClass>(c)).size();
  }
  EXPECT_EQ(total, qdockbank_entries().size());
  // The dataset spans several functional classes (the paper's diversity claim).
  EXPECT_GE(entries_in_class(ProteinClass::ViralEnzyme).size(), 4u);
  EXPECT_GE(entries_in_class(ProteinClass::Kinase).size(), 5u);
}

}  // namespace
}  // namespace qdb
