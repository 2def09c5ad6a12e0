// Tests for src/screen (ISSUE 9): the seeded combinatorial library, the
// precomputed receptor grid and its node-exactness contract, byte-stable
// grid serialization, checkpoint refusal semantics, funnel determinism
// across thread counts and kill+resume, report round-trips, and the strict
// /screen endpoint matrix over a socket-free DatasetServer.
#include <gtest/gtest.h>
#include <unistd.h>  // getpid for per-process scratch directories

#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/rng.h"
#include "data/dataset_io.h"
#include "data/registry.h"
#include "dataset_fixture.h"
#include "dock/vina_score.h"
#include "lattice/lattice.h"
#include "lattice/solver.h"
#include "screen/funnel.h"
#include "screen/grid.h"
#include "screen/library.h"
#include "screen/report.h"
#include "serve/http.h"
#include "serve/screen_api.h"
#include "serve/server.h"
#include "store/store.h"
#include "structure/pdb.h"
#include "structure/protonate.h"
#include "structure/reconstruct.h"

namespace qdb::screen {
namespace {

namespace fs = std::filesystem;

/// Small folded fragment with donors and acceptors in reach (same recipe as
/// test_dock's receptor helper).
Structure test_receptor(const std::string& seq = "LKDCS") {
  const auto aa = parse_sequence(seq);
  FoldingHamiltonian h(aa, HamiltonianWeights::standard(static_cast<int>(aa.size())));
  const SolveResult ground = ExactSolver().solve(h);
  std::vector<Vec3> trace;
  for (const IVec3& p : walk_positions(ground.turns)) trace.push_back(lattice_to_cartesian(p));
  Structure s = reconstruct_backbone(trace, aa, "test");
  add_polar_hydrogens(s);
  assign_partial_charges(s);
  s.center_on_origin();
  return s;
}

/// Single probe atom with the library chemistry flags (C hydrophobic,
/// N donor, O acceptor) — the atoms the grid channels are exact for.
Ligand single_atom_ligand(char element) {
  std::vector<LigandAtom> atoms(1);
  atoms[0].name = "P1";
  atoms[0].element = element;
  atoms[0].local_pos = {0, 0, 0};
  atoms[0].hydrophobic = element == 'C';
  atoms[0].donor = element == 'N';
  atoms[0].acceptor = element == 'O';
  return Ligand(std::move(atoms), {}, "probe");
}

std::string scratch_path(const std::string& name) {
  return (fs::temp_directory_path() /
          ("qdb_screen_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

// --- library ----------------------------------------------------------------

TEST(Library, LigandsArePureFunctionsOfSeedAndIndex) {
  const LibrarySpec spec{7, 64};
  for (std::uint64_t idx : {std::uint64_t{0}, std::uint64_t{13}, std::uint64_t{63}}) {
    const Ligand a = library_ligand(spec, idx);
    const Ligand b = library_ligand(spec, idx);
    ASSERT_EQ(a.num_atoms(), b.num_atoms());
    ASSERT_EQ(a.num_torsions(), b.num_torsions());
    const auto ca = a.conformation(a.neutral_pose());
    const auto cb = b.conformation(b.neutral_pose());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i].x, cb[i].x);  // bitwise: same stream, same geometry
      EXPECT_EQ(ca[i].y, cb[i].y);
      EXPECT_EQ(ca[i].z, cb[i].z);
    }
  }
}

TEST(Library, DifferentSeedsGiveDifferentConformersOfSameChemistry) {
  const Ligand a = library_ligand({1, 64}, 5);
  const Ligand b = library_ligand({2, 64}, 5);
  // Same skeleton: the atom count is decided by the index alone.
  ASSERT_EQ(a.num_atoms(), b.num_atoms());
  const auto ca = a.conformation(a.neutral_pose());
  const auto cb = b.conformation(b.neutral_pose());
  bool any_differs = false;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    any_differs = any_differs || ca[i].distance(cb[i]) > 1e-9;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Library, ChemistryIsExactlyTheProbeSet) {
  for (std::uint64_t idx = 0; idx < 32; ++idx) {
    const Ligand lig = library_ligand({1, 32}, idx);
    for (int i = 0; i < lig.num_atoms(); ++i) {
      const char e = lig.atoms()[static_cast<std::size_t>(i)].element;
      EXPECT_TRUE(e == 'C' || e == 'N' || e == 'O' || e == 'H')
          << "unexpected element " << e << " in library ligand " << idx;
    }
  }
}

TEST(Library, IdsEmbedBothCoordinatesAndSortInIndexOrder) {
  const LibrarySpec spec{255, 1000};
  EXPECT_EQ(library_ligand_id(spec, 0), "LIB-00000000000000ff-00000000");
  EXPECT_EQ(library_ligand_id(spec, 999), "LIB-00000000000000ff-00000999");
  std::string prev = library_ligand_id(spec, 0);
  for (std::uint64_t idx = 1; idx < 50; ++idx) {
    const std::string cur = library_ligand_id(spec, idx);
    EXPECT_LT(prev, cur);  // lexicographic == index order
    prev = cur;
  }
  EXPECT_GT(library_skeleton_count(), std::uint64_t{100000});
}

// --- receptor grid ----------------------------------------------------------

class GridTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    receptor_ = std::make_unique<Structure>(test_receptor());
    grid_ = std::make_unique<ReceptorGrid>(*receptor_, GridParams{});
    rescoring_ = std::make_unique<qdb::NeighbourIndex>(type_receptor(*receptor_));
  }
  static void TearDownTestSuite() {
    rescoring_.reset();
    grid_.reset();
    receptor_.reset();
  }

  static std::unique_ptr<Structure> receptor_;
  static std::unique_ptr<ReceptorGrid> grid_;
  static std::unique_ptr<qdb::NeighbourIndex> rescoring_;
};

std::unique_ptr<Structure> GridTest::receptor_;
std::unique_ptr<ReceptorGrid> GridTest::grid_;
std::unique_ptr<qdb::NeighbourIndex> GridTest::rescoring_;

TEST_F(GridTest, NodeValuesReproduceVinaScoreBitForBit) {
  // The exactness contract: at a grid NODE, the stored channel equals the
  // full intermolecular_energy of a single probe atom there — not "close",
  // EQUAL, because stage-1 and stage-2 must agree wherever both are defined.
  const GridSpec& spec = grid_->spec();
  const char elements[kNumProbes] = {'C', 'N', 'O'};
  int checked = 0;
  for (std::int64_t i = 0; i < spec.nx; i += spec.nx / 3 + 1) {
    for (std::int64_t j = 0; j < spec.ny; j += spec.ny / 3 + 1) {
      for (std::int64_t k = 0; k < spec.nz; k += spec.nz / 3 + 1) {
        const Vec3 p = grid_->node_pos(i, j, k);
        for (int probe = 0; probe < kNumProbes; ++probe) {
          const Ligand lig = single_atom_ligand(elements[probe]);
          const double exact =
              intermolecular_energy(*rescoring_, lig, {p}, VinaWeights{});
          EXPECT_EQ(grid_->node_value(i, j, k, static_cast<Probe>(probe)), exact)
              << "node (" << i << "," << j << "," << k << ") probe " << probe;
          // value_at degenerates to the node value exactly at nodes.
          EXPECT_EQ(grid_->value_at(p, static_cast<Probe>(probe)),
                    grid_->node_value(i, j, k, static_cast<Probe>(probe)));
          ++checked;
        }
      }
    }
  }
  EXPECT_GE(checked, 3 * 27);
}

TEST_F(GridTest, InterpolationStaysWithinTheCellCornerEnvelope) {
  // Trilinear interpolation is a convex combination of the 8 cell corners.
  const GridSpec& spec = grid_->spec();
  const std::int64_t i = spec.nx / 2, j = spec.ny / 2, k = spec.nz / 2;
  const Vec3 a = grid_->node_pos(i, j, k);
  const Vec3 b = grid_->node_pos(i + 1, j + 1, k + 1);
  const Vec3 p{0.5 * (a.x + b.x), 0.25 * a.y + 0.75 * b.y, 0.9 * a.z + 0.1 * b.z};
  double lo = grid_->node_value(i, j, k, Probe::Carbon);
  double hi = lo;
  for (int di = 0; di <= 1; ++di) {
    for (int dj = 0; dj <= 1; ++dj) {
      for (int dk = 0; dk <= 1; ++dk) {
        const double v = grid_->node_value(i + di, j + dj, k + dk, Probe::Carbon);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
  }
  const double v = grid_->value_at(p, Probe::Carbon);
  EXPECT_GE(v, lo - 1e-12);
  EXPECT_LE(v, hi + 1e-12);
}

TEST_F(GridTest, OutOfBoxAtomsPayTheDocumentedPenaltyNotAnExtrapolation) {
  const Vec3 far_out = grid_->box_hi() + Vec3{50.0, 0.0, 0.0};
  EXPECT_EQ(grid_->value_at(far_out, Probe::Carbon), ReceptorGrid::kOutOfBoxPenalty);
  EXPECT_EQ(grid_->value_at(grid_->box_lo() - Vec3{0.0, 1e-6, 0.0}, Probe::Oxygen),
            ReceptorGrid::kOutOfBoxPenalty);

  // filter_energy of a single out-of-box heavy atom is exactly one penalty;
  // with zero torsions filter_affinity coincides with it.
  const Ligand lig = single_atom_ligand('C');
  Pose pose = lig.neutral_pose();
  pose.translation = far_out;
  const auto coords = lig.conformation(pose);
  EXPECT_EQ(grid_->filter_energy(lig, coords), ReceptorGrid::kOutOfBoxPenalty);
  EXPECT_EQ(grid_->filter_affinity(lig, coords), ReceptorGrid::kOutOfBoxPenalty);
}

TEST_F(GridTest, SerializationRoundTripsFieldForField) {
  const std::string bytes = grid_->serialize();
  const ReceptorGrid copy = ReceptorGrid::deserialize(bytes);

  const GridSpec& a = grid_->spec();
  const GridSpec& b = copy.spec();
  EXPECT_EQ(a.spacing, b.spacing);
  EXPECT_EQ(a.ox, b.ox);
  EXPECT_EQ(a.oy, b.oy);
  EXPECT_EQ(a.oz, b.oz);
  EXPECT_EQ(a.nx, b.nx);
  EXPECT_EQ(a.ny, b.ny);
  EXPECT_EQ(a.nz, b.nz);
  EXPECT_EQ(grid_->weights().gauss1, copy.weights().gauss1);
  EXPECT_EQ(grid_->weights().gauss2, copy.weights().gauss2);
  EXPECT_EQ(grid_->weights().repulsion, copy.weights().repulsion);
  EXPECT_EQ(grid_->weights().hydrophobic, copy.weights().hydrophobic);
  EXPECT_EQ(grid_->weights().hbond, copy.weights().hbond);
  EXPECT_EQ(grid_->weights().rot_penalty, copy.weights().rot_penalty);
  for (std::int64_t i = 0; i < a.nx; i += a.nx / 4 + 1) {
    for (std::int64_t j = 0; j < a.ny; j += a.ny / 4 + 1) {
      for (std::int64_t k = 0; k < a.nz; k += a.nz / 4 + 1) {
        for (int probe = 0; probe < kNumProbes; ++probe) {
          EXPECT_EQ(grid_->node_value(i, j, k, static_cast<Probe>(probe)),
                    copy.node_value(i, j, k, static_cast<Probe>(probe)));
        }
      }
    }
  }
  // Byte-stability: re-serializing the copy reproduces the exact image, so
  // store ingestion dedups grids across processes.
  EXPECT_EQ(copy.serialize(), bytes);
}

TEST_F(GridTest, DeserializeRefusesCorruptImages) {
  const std::string bytes = grid_->serialize();

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(ReceptorGrid::deserialize(bad_magic), IoError);

  EXPECT_THROW(ReceptorGrid::deserialize(bytes.substr(0, bytes.size() / 2)), IoError);

  std::string flipped = bytes;
  flipped[bytes.size() / 2] = static_cast<char>(flipped[bytes.size() / 2] ^ 0x40);
  EXPECT_THROW(ReceptorGrid::deserialize(flipped), IoError);
}

TEST_F(GridTest, DeserializeRefusesOverflowingDimensions) {
  // Axes of 2^32 each, whose product wraps a signed 64-bit integer, behind a
  // re-sealed trailer: only the dimension check stands in the way.
  std::string bytes = grid_->serialize();
  const auto put = [&](std::size_t at, std::uint64_t x) {
    for (std::size_t i = 0; i < 8; ++i) bytes[at + i] = static_cast<char>((x >> (8 * i)) & 0xFF);
  };
  // Magic, spacing, ox, oy and oz (8 bytes each) precede nx, ny and nz.
  for (std::size_t axis = 0; axis < 3; ++axis) put(40 + 8 * axis, std::uint64_t{1} << 32);
  put(bytes.size() - 8, fnv1a(std::string_view(bytes).substr(0, bytes.size() - 8)));
  EXPECT_THROW(ReceptorGrid::deserialize(bytes), IoError);
}

TEST_F(GridTest, BuildIsIdenticalAcrossThreadCounts) {
  GridParams one;
  one.threads = 1;
  GridParams eight;
  eight.threads = 8;
  EXPECT_EQ(ReceptorGrid(*receptor_, one).serialize(),
            ReceptorGrid(*receptor_, eight).serialize());
}

TEST(GridParamsValidation, RejectsDegenerateLattices) {
  const Structure rec = test_receptor("VKDRS");
  GridParams bad_spacing;
  bad_spacing.spacing = 0.1;
  EXPECT_THROW(ReceptorGrid(rec, bad_spacing), Error);
  GridParams bad_padding;
  bad_padding.padding = 0.1;
  EXPECT_THROW(ReceptorGrid(rec, bad_padding), Error);
}

// --- report + checkpoint ----------------------------------------------------

TEST(Report, PoseJsonRoundTripsBitwise) {
  Pose pose;
  pose.translation = {1.25, -3.5, 0.1 + 0.2};  // 0.30000000000000004: not round
  pose.orientation = Quat::from_axis_angle({0, 0, 1}, 0.7);
  pose.torsions = {0.1, -2.9, 3.0 / 7.0};
  const Pose back = pose_from_json(pose_json(pose));
  EXPECT_EQ(back.translation.x, pose.translation.x);
  EXPECT_EQ(back.translation.y, pose.translation.y);
  EXPECT_EQ(back.translation.z, pose.translation.z);
  EXPECT_EQ(back.orientation.w, pose.orientation.w);
  EXPECT_EQ(back.orientation.x, pose.orientation.x);
  EXPECT_EQ(back.orientation.y, pose.orientation.y);
  EXPECT_EQ(back.orientation.z, pose.orientation.z);
  ASSERT_EQ(back.torsions.size(), pose.torsions.size());
  for (std::size_t i = 0; i < pose.torsions.size(); ++i) {
    EXPECT_EQ(back.torsions[i], pose.torsions[i]);
  }
}

TEST(Report, SerializeRefusesPreemptedReports) {
  ScreenReport report;
  report.preempted = true;
  EXPECT_THROW(serialize_report(report), Error);
}

TEST(Checkpoint, RefusesMismatchedRunsAndRoundTripsMatchingOnes) {
  const std::string path = scratch_path("ckpt.json");
  fs::remove(path);

  std::vector<Stage1Result> results(2);
  results[0].index = 0;
  results[0].id = "LIB-0000000000000001-00000000";
  results[0].best_score = -1.25;
  results[1].index = 1;
  results[1].id = "LIB-0000000000000001-00000001";
  results[1].best_score = 0.5;
  StagePose sp;
  sp.pose.translation = {1, 2, 3};
  sp.score = -1.25;
  results[0].poses.push_back(sp);

  std::vector<Stage1Result> loaded;
  std::uint64_t chunks_done = 0;
  EXPECT_FALSE(load_screen_checkpoint(path, 42, "4jpy", 2, &loaded, &chunks_done));

  save_screen_checkpoint(path, results, 1, 2, 42, "4jpy");
  EXPECT_THROW(load_screen_checkpoint(path, 43, "4jpy", 2, &loaded, &chunks_done),
               IoError);  // options fingerprint mismatch
  EXPECT_THROW(load_screen_checkpoint(path, 42, "1yc4", 2, &loaded, &chunks_done),
               IoError);  // different receptor
  EXPECT_THROW(load_screen_checkpoint(path, 42, "4jpy", 4, &loaded, &chunks_done),
               IoError);  // different chunk layout

  ASSERT_TRUE(load_screen_checkpoint(path, 42, "4jpy", 2, &loaded, &chunks_done));
  EXPECT_EQ(chunks_done, 1u);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].id, results[0].id);
  EXPECT_EQ(loaded[0].best_score, results[0].best_score);  // bitwise
  ASSERT_EQ(loaded[0].poses.size(), 1u);
  EXPECT_EQ(loaded[0].poses[0].score, sp.score);
  EXPECT_EQ(loaded[0].poses[0].pose.translation.x, 1.0);
  EXPECT_EQ(loaded[1].index, 1u);

  // A truncated file is corrupt: IoError, not an escaping ParseError.
  const std::string text = read_file(path);
  write_file(path, text.substr(0, text.size() / 2));
  EXPECT_THROW(load_screen_checkpoint(path, 42, "4jpy", 2, &loaded, &chunks_done),
               IoError);

  // A version-1 checkpoint (%.10g text plus "_bits" twins) is refused rather
  // than resumed from its rounded values.
  write_file(path, R"({"version": 1, "kind": "screen-checkpoint",
    "options_fingerprint": 42, "receptor": "4jpy", "chunk_size": 2,
    "chunks_done": 1, "stage1": [{"index": 0,
      "id": "LIB-0000000000000001-00000000", "best_score": -1.25,
      "best_score_bits": -4615063718147915776, "poses": []}]})");
  EXPECT_THROW(load_screen_checkpoint(path, 42, "4jpy", 2, &loaded, &chunks_done),
               IoError);
  fs::remove(path);
}

// --- funnel -----------------------------------------------------------------

class FunnelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    receptor_ = std::make_unique<Structure>(test_receptor("VKDRS"));
    base_ = small_options();
    prepared_ = std::make_unique<PreparedReceptor>(
        prepare_receptor(*receptor_, base_));
  }
  static void TearDownTestSuite() {
    prepared_.reset();
    receptor_.reset();
  }

  static ScreenOptions small_options() {
    ScreenOptions opt;
    opt.library = {3, 32};
    opt.top_k = 6;
    opt.stage1_keep = 0.25;
    opt.poses_per_ligand = 6;
    opt.poses_rescored = 2;
    opt.chunk_size = 8;
    opt.threads = 1;
    return opt;
  }

  static std::unique_ptr<Structure> receptor_;
  static std::unique_ptr<PreparedReceptor> prepared_;
  static ScreenOptions base_;
};

std::unique_ptr<Structure> FunnelTest::receptor_;
std::unique_ptr<PreparedReceptor> FunnelTest::prepared_;
ScreenOptions FunnelTest::base_;

TEST_F(FunnelTest, RankedHitsAreSortedAndBounded) {
  const ScreenReport report = run_screen(*prepared_, "test", base_);
  EXPECT_FALSE(report.preempted);
  EXPECT_EQ(report.ligands_screened, 32u);
  EXPECT_EQ(report.stage1_survivors, 8u);  // ceil(0.25 * 32)
  EXPECT_EQ(report.chunks_done, report.chunks_total);
  ASSERT_LE(report.hits.size(), 6u);
  ASSERT_GE(report.hits.size(), 1u);
  for (std::size_t i = 1; i < report.hits.size(); ++i) {
    const ScreenHit& a = report.hits[i - 1];
    const ScreenHit& b = report.hits[i];
    EXPECT_TRUE(a.affinity < b.affinity ||
                (a.affinity == b.affinity && a.id < b.id))
        << "hit list not in (affinity, id) order at rank " << i;
  }
  EXPECT_NEAR(report.keep_rate(), 0.25, 1e-12);
}

TEST_F(FunnelTest, ReportBytesAreIdenticalAcrossThreadCounts) {
  ScreenOptions one = base_;
  one.threads = 1;
  ScreenOptions eight = base_;
  eight.threads = 8;
  const std::string a = serialize_report(run_screen(*prepared_, "test", one));
  const std::string b = serialize_report(run_screen(*prepared_, "test", eight));
  EXPECT_EQ(a, b);
}

TEST_F(FunnelTest, ReportRoundTripsThroughBytes) {
  const ScreenReport report = run_screen(*prepared_, "test", base_);
  const ScreenReport back = report_from_bytes(serialize_report(report));
  EXPECT_EQ(back.receptor_tag, report.receptor_tag);
  EXPECT_EQ(back.library.seed, report.library.seed);
  EXPECT_EQ(back.library.size, report.library.size);
  EXPECT_EQ(back.options_fingerprint, report.options_fingerprint);
  EXPECT_EQ(back.stage1_survivors, report.stage1_survivors);
  ASSERT_EQ(back.hits.size(), report.hits.size());
  for (std::size_t i = 0; i < report.hits.size(); ++i) {
    EXPECT_EQ(back.hits[i].id, report.hits[i].id);
    EXPECT_EQ(back.hits[i].index, report.hits[i].index);
    EXPECT_EQ(back.hits[i].affinity, report.hits[i].affinity);      // bitwise
    EXPECT_EQ(back.hits[i].stage1_score, report.hits[i].stage1_score);
    EXPECT_EQ(back.hits[i].pose.translation.x, report.hits[i].pose.translation.x);
  }
  // The round-tripped report re-serializes to the exact same bytes.
  EXPECT_EQ(serialize_report(back), serialize_report(report));
}

TEST_F(FunnelTest, KillAndResumeConvergesToTheUninterruptedBytes) {
  const std::string path = scratch_path("funnel_ckpt.json");
  fs::remove(path);

  const std::string uninterrupted =
      serialize_report(run_screen(*prepared_, "test", base_));

  // Simulate repeated kills: every invocation gets one chunk, then stops.
  ScreenOptions opt = base_;
  opt.checkpoint_path = path;
  opt.stop_after_chunks = 1;
  ScreenReport resumed;
  int invocations = 0;
  for (;; ++invocations) {
    ASSERT_LT(invocations, 16) << "screen never completed";
    resumed = run_screen(*prepared_, "test", opt);
    if (!resumed.preempted) break;
    EXPECT_TRUE(resumed.hits.empty());  // partial funnels publish nothing
    opt.resume = true;
  }
  EXPECT_EQ(invocations, 3);  // 4 chunks: 1 fresh + 2 resumed + final
  EXPECT_EQ(serialize_report(resumed), uninterrupted);

  // A resumed run with different result-shaping options must refuse the
  // checkpoint rather than silently mix two screens.
  ScreenOptions other = opt;
  other.library.seed = 99;
  EXPECT_THROW(run_screen(*prepared_, "test", other), IoError);
  fs::remove(path);
}

TEST_F(FunnelTest, ValidationRejectsNonsenseOptions) {
  ScreenOptions opt = base_;
  opt.stage1_keep = 0.0;
  EXPECT_THROW(run_screen(*prepared_, "test", opt), Error);
  opt = base_;
  opt.top_k = 0;
  EXPECT_THROW(run_screen(*prepared_, "test", opt), Error);
  opt = base_;
  opt.resume = true;  // without a checkpoint path
  EXPECT_THROW(run_screen(*prepared_, "test", opt), Error);
}

TEST(Fingerprint, CoversResultShapingOptionsOnly) {
  ScreenOptions a;
  const std::uint64_t base = screen_options_fingerprint(a);

  ScreenOptions b = a;
  b.threads = 7;
  b.chunk_size = 3;
  b.checkpoint_path = "/tmp/x";
  b.stop_after_chunks = 2;
  EXPECT_EQ(screen_options_fingerprint(b), base)
      << "execution-steering options must not change the result identity";

  ScreenOptions c = a;
  c.library.seed = 2;
  EXPECT_NE(screen_options_fingerprint(c), base);
  ScreenOptions d = a;
  d.stage1_keep = 0.5;
  EXPECT_NE(screen_options_fingerprint(d), base);
  ScreenOptions e = a;
  e.weights.hbond = -0.6;
  EXPECT_NE(screen_options_fingerprint(e), base);
}

// --- /screen endpoint (socket-free, via DatasetServer::handle) --------------

class ScreenApiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = std::make_unique<std::string>(scratch_path("api_suite"));
    fs::remove_all(*dir_);
    const std::string dataset = *dir_ + "/dataset";
    qdb::testing::build_synthetic_dataset(dataset);
    // Give the first entry a real (small) receptor so /screen can dock
    // against it; every other entry keeps the atom-free placeholder.
    const DatasetEntry& e = qdockbank_entries().front();
    pdb_id_ = std::make_unique<std::string>(e.pdb_id);
    write_file_atomic(entry_directory(dataset, e) + "/structure.pdb",
                      to_pdb(test_receptor("VKDRS")));
    store_ = std::make_unique<store::Store>(*dir_ + "/store", 32);
    store_->ingest_dataset(dataset);
  }
  static void TearDownTestSuite() {
    store_.reset();
    fs::remove_all(*dir_);
    pdb_id_.reset();
    dir_.reset();
  }

  static serve::HttpRequest screen_request(const std::string& method = "POST",
                                           const std::string& target = "/screen") {
    serve::HttpRequest req;
    req.method = method;
    req.target = target;
    req.version = "HTTP/1.1";
    serve::split_target(target, &req.path, &req.query);
    return req;
  }

  /// Minimal valid body for a fast screen of the real-receptor entry.
  static Json small_body() {
    Json body = Json::object();
    body.set("pdb_id", *pdb_id_);
    body.set("library_size", std::int64_t{16});
    body.set("top_k", std::int64_t{4});
    body.set("poses_per_ligand", std::int64_t{4});
    body.set("poses_rescored", std::int64_t{2});
    return body;
  }

  static std::unique_ptr<std::string> dir_;
  static std::unique_ptr<std::string> pdb_id_;
  static std::unique_ptr<store::Store> store_;
};

std::unique_ptr<std::string> ScreenApiTest::dir_;
std::unique_ptr<std::string> ScreenApiTest::pdb_id_;
std::unique_ptr<store::Store> ScreenApiTest::store_;

TEST_F(ScreenApiTest, StrictRequestMatrix) {
  serve::ScreenService service(*store_, {.threads = 1});

  // Method and path discipline.
  const serve::HttpResponse get = service.handle(screen_request("GET"), "");
  EXPECT_EQ(get.status, 405);
  bool has_allow = false;
  for (const auto& [k, v] : get.extra_headers) {
    has_allow = has_allow || (k == "Allow" && v == "POST");
  }
  EXPECT_TRUE(has_allow);
  EXPECT_EQ(service.handle(screen_request("POST", "/screen/sub"), "{}").status, 404);
  EXPECT_EQ(service.handle(screen_request("POST", "/screen?x=1"), "{}").status, 400);

  // Body discipline: every rejection is a 400 with a one-line reason.
  const auto post = [&](const std::string& body) {
    return service.handle(screen_request(), body).status;
  };
  EXPECT_EQ(post("not json"), 400);
  EXPECT_EQ(post("[1, 2]"), 400);
  EXPECT_EQ(post("{}"), 400);  // pdb_id is required
  EXPECT_EQ(post("{\"pdb_id\": 7}"), 400);
  EXPECT_EQ(post("{\"pdb_id\": \"x\", \"frobnicate\": 1}"), 400);
  EXPECT_EQ(post("{\"pdb_id\": \"x\", \"top_k\": \"five\"}"), 400);
  EXPECT_EQ(post("{\"pdb_id\": \"x\", \"top_k\": 0}"), 400);
  EXPECT_EQ(post("{\"pdb_id\": \"x\", \"library_size\": 1000000}"), 400);
  EXPECT_EQ(post("{\"pdb_id\": \"x\", \"stage1_keep\": 0.0}"), 400);
  EXPECT_EQ(post("{\"pdb_id\": \"x\", \"stage1_keep\": 1.5}"), 400);
  EXPECT_EQ(post("{\"pdb_id\": \"x\", \"stage1_keep\": true}"), 400);
  EXPECT_EQ(post("{\"pdb_id\": \"x\", \"ingest\": 1}"), 400);

  // Unknown receptor: 404, not 500.
  EXPECT_EQ(post("{\"pdb_id\": \"zzzz\"}"), 404);
}

TEST_F(ScreenApiTest, StoreWriteFaultOnGridIngestIs500) {
  // A fresh store and service: no cached grid and no grid blob yet, so the
  // request must write one.
  store::Store store(*dir_ + "/fault_store", 32);
  store.ingest_dataset(*dir_ + "/dataset");
  serve::ScreenService service(store, {.threads = 1});

  FaultSiteConfig cfg;
  cfg.kind = FaultKind::Io;
  cfg.trigger_on_nth = 1;
  FaultInjector::instance().configure("store.ingest.io", cfg);
  serve::HttpResponse resp;
  {
    FaultScope scope("screen-api-fault", 1);
    resp = service.handle(screen_request(), small_body().dump());
  }
  FaultInjector::instance().clear();
  EXPECT_EQ(resp.status, 500) << resp.body;
  EXPECT_TRUE(Json::parse(resp.body).at("error").is_string());
  // Without the fault the same request screens.
  EXPECT_EQ(service.handle(screen_request(), small_body().dump()).status, 200);
}

TEST_F(ScreenApiTest, ScreensAndIngestsOverTheMountedRoute) {
  serve::DatasetServer server(*store_, {});
  serve::ScreenService service(*store_, {.threads = 1});
  serve::attach_screen_api(server, service);

  Json body = small_body();
  body.set("ingest", true);
  const serve::HttpResponse resp =
      server.handle(screen_request(), body.dump());
  ASSERT_EQ(resp.status, 200) << resp.body;
  const Json doc = Json::parse(resp.body);
  EXPECT_EQ(doc.at("receptor").as_string(), *pdb_id_);
  EXPECT_EQ(doc.at("ligands_screened").as_int(), 16);
  EXPECT_FALSE(doc.at("grid_hash").as_string().empty());
  const std::string report_hash = doc.at("report_hash").as_string();
  EXPECT_FALSE(report_hash.empty());
  const JsonArray& hits = doc.at("hits").as_array();
  ASSERT_GE(hits.size(), 1u);
  ASSERT_LE(hits.size(), 4u);
  EXPECT_EQ(hits[0].at("rank").as_int(), 1);

  // Same request again: the grid cache serves it and the ingested report
  // dedups to the same blob — the byte-identity property the CI gate uses.
  const serve::HttpResponse again = server.handle(screen_request(), body.dump());
  ASSERT_EQ(again.status, 200);
  EXPECT_EQ(Json::parse(again.body).at("report_hash").as_string(), report_hash);
  EXPECT_EQ(again.body, resp.body);
}

TEST_F(ScreenApiTest, ResponsesAreByteIdenticalAcrossServiceThreadCounts) {
  serve::ScreenService one(*store_, {.threads = 1});
  serve::ScreenService eight(*store_, {.threads = 8});
  const std::string body = small_body().dump();
  const serve::HttpResponse a = one.handle(screen_request(), body);
  const serve::HttpResponse b = eight.handle(screen_request(), body);
  ASSERT_EQ(a.status, 200) << a.body;
  ASSERT_EQ(b.status, 200) << b.body;
  EXPECT_EQ(a.body, b.body);
}

}  // namespace
}  // namespace qdb::screen
