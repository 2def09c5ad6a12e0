#include "screen/funnel.h"

#include <algorithm>
#include <queue>

#include "common/check.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qdb::screen {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr int kFingerprintVersion = 1;

/// Coarse pose inside the grid box.  Draw order is pinned with named locals
/// (argument evaluation order is unspecified, and this stream must be
/// byte-reproducible).
Pose random_pose(const Vec3& lo, const Vec3& hi, int torsions, Rng& rng) {
  Pose pose;
  const double u1 = rng.uniform();
  const double u2 = rng.uniform();
  const double u3 = rng.uniform();
  pose.orientation = Quat::random(u1, u2, u3);
  const double tx = rng.uniform(lo.x, hi.x);
  const double ty = rng.uniform(lo.y, hi.y);
  const double tz = rng.uniform(lo.z, hi.z);
  pose.translation = Vec3{tx, ty, tz};
  pose.torsions.resize(static_cast<std::size_t>(torsions));
  for (double& t : pose.torsions) t = rng.uniform(-kPi, kPi);
  return pose;
}

/// Stage 1 for one ligand: sample coarse poses, rank by filter score, keep
/// the best `keep` for rescoring.  Pure function of (options, index, grid) —
/// the unit of work the chunked executor fans out.
Stage1Result stage1_ligand(const ReceptorGrid& grid, const ScreenOptions& opt,
                           std::uint64_t index) {
  Stage1Result result;
  result.index = index;
  result.id = library_ligand_id(opt.library, index);
  const Ligand ligand = library_ligand(opt.library, index);
  Rng rng(result.id, "screen.stage1", opt.library.seed);

  const Vec3 lo = grid.box_lo();
  const Vec3 hi = grid.box_hi();
  std::vector<StagePose> poses;
  poses.reserve(static_cast<std::size_t>(opt.poses_per_ligand));
  for (int p = 0; p < opt.poses_per_ligand; ++p) {
    StagePose sp;
    sp.pose = random_pose(lo, hi, ligand.num_torsions(), rng);
    sp.score = grid.filter_affinity(ligand, ligand.conformation(sp.pose));
    poses.push_back(std::move(sp));
  }
  // stable_sort: equal scores keep sample order, so the kept set is
  // deterministic even under exact score ties.
  std::stable_sort(poses.begin(), poses.end(),
                   [](const StagePose& a, const StagePose& b) { return a.score < b.score; });
  const std::size_t keep =
      std::min(poses.size(), static_cast<std::size_t>(opt.poses_rescored));
  poses.resize(keep);
  result.best_score = poses.empty() ? 0.0 : poses.front().score;
  result.poses = std::move(poses);
  return result;
}

void validate(const ScreenOptions& opt) {
  QDB_REQUIRE(opt.library.size >= 1, "library size must be >= 1");
  QDB_REQUIRE(opt.top_k >= 1, "top_k must be >= 1");
  QDB_REQUIRE(opt.stage1_keep > 0.0 && opt.stage1_keep <= 1.0,
              "stage1_keep must be in (0, 1]");
  QDB_REQUIRE(opt.poses_per_ligand >= 1, "poses_per_ligand must be >= 1");
  QDB_REQUIRE(opt.poses_rescored >= 1, "poses_rescored must be >= 1");
  QDB_REQUIRE(opt.chunk_size >= 1, "chunk_size must be >= 1");
  QDB_REQUIRE(!opt.resume || !opt.checkpoint_path.empty(),
              "--resume needs a checkpoint path");
}

}  // namespace

PreparedReceptor prepare_receptor(const Structure& receptor,
                                  const ScreenOptions& options) {
  GridParams gp;
  gp.spacing = options.grid_spacing;
  gp.padding = options.grid_padding;
  gp.threads = options.threads;
  gp.weights = options.weights;
  return PreparedReceptor(ReceptorGrid(receptor, gp),
                          qdb::NeighbourIndex(type_receptor(receptor)));
}

std::uint64_t screen_options_fingerprint(const ScreenOptions& o) {
  // Result-shaping options only.  threads / stop_after_chunks / paths steer
  // execution, not results, so a resumed run may change them freely.  No
  // fault sites fire inside the funnel, so the injector state is not part of
  // the identity either.
  std::string d = "screen-v" + std::to_string(kFingerprintVersion) + ";";
  fingerprint_field(d, "library_seed", static_cast<long long>(o.library.seed));
  fingerprint_field(d, "library_size", static_cast<long long>(o.library.size));
  fingerprint_field(d, "top_k", static_cast<long long>(o.top_k));
  fingerprint_field(d, "stage1_keep", o.stage1_keep);
  fingerprint_field(d, "poses_per_ligand", static_cast<long long>(o.poses_per_ligand));
  fingerprint_field(d, "poses_rescored", static_cast<long long>(o.poses_rescored));
  fingerprint_field(d, "grid_spacing", o.grid_spacing);
  fingerprint_field(d, "grid_padding", o.grid_padding);
  // chunk_size is NOT here: chunking shapes the checkpoint layout (validated
  // separately on load), never the per-ligand results or the report bytes.
  fingerprint_field(d, "gauss1", o.weights.gauss1);
  fingerprint_field(d, "gauss2", o.weights.gauss2);
  fingerprint_field(d, "repulsion", o.weights.repulsion);
  fingerprint_field(d, "hydrophobic", o.weights.hydrophobic);
  fingerprint_field(d, "hbond", o.weights.hbond);
  fingerprint_field(d, "rot_penalty", o.weights.rot_penalty);
  return fnv1a(d);
}

ScreenReport run_screen(const PreparedReceptor& prepared,
                        const std::string& receptor_tag,
                        const ScreenOptions& options) {
  static obs::Counter& ligands_done = obs::counter("screen.ligands");
  static obs::Counter& poses_scored = obs::counter("screen.stage1.poses");
  static obs::Counter& rescored_count = obs::counter("screen.stage2.rescored");
  static obs::Counter& preemptions = obs::counter("screen.preemptions");
  static obs::Counter& resumes = obs::counter("screen.resumes");
  QDB_SPAN("screen.run");
  validate(options);

  const std::uint64_t size = options.library.size;
  const std::uint64_t chunk = options.chunk_size;
  const std::uint64_t chunks_total = (size + chunk - 1) / chunk;
  const std::uint64_t fingerprint = screen_options_fingerprint(options);

  ScreenReport report;
  report.receptor_tag = receptor_tag;
  report.library = options.library;
  report.options_fingerprint = fingerprint;
  report.ligands_screened = size;
  report.top_k = options.top_k;
  report.chunks_total = chunks_total;

  // --- stage 1: chunked, checkpointed, thread-count independent -------------
  std::vector<Stage1Result> stage1(static_cast<std::size_t>(size));
  std::uint64_t chunks_done = 0;
  if (options.resume) {
    std::vector<Stage1Result> loaded;
    if (load_screen_checkpoint(options.checkpoint_path, fingerprint, receptor_tag,
                               chunk, &loaded, &chunks_done)) {
      const std::uint64_t expect = std::min(size, chunks_done * chunk);
      if (loaded.size() != expect) {
        throw IoError("screen checkpoint '" + options.checkpoint_path +
                      "': stage-1 record count does not match chunks_done");
      }
      for (std::size_t i = 0; i < loaded.size(); ++i) {
        stage1[i] = std::move(loaded[i]);
      }
      resumes.add();
      obs::log_info("screen.resume")
          .kv("checkpoint", options.checkpoint_path)
          .kv("chunks_done", chunks_done);
    }
  }

  {
    QDB_SPAN("screen.stage1");
    std::uint64_t ran_this_invocation = 0;
    for (std::uint64_t c = chunks_done; c < chunks_total; ++c) {
      const std::uint64_t begin = c * chunk;
      const std::uint64_t end = std::min(size, begin + chunk);
      parallel_for_threads(static_cast<std::int64_t>(end - begin), options.threads,
                           [&](std::int64_t i) {
                             const std::uint64_t idx = begin + static_cast<std::uint64_t>(i);
                             stage1[idx] = stage1_ligand(prepared.grid, options, idx);
                           });
      ligands_done.add(end - begin);
      poses_scored.add((end - begin) * static_cast<std::uint64_t>(options.poses_per_ligand));
      chunks_done = c + 1;
      if (!options.checkpoint_path.empty()) {
        const std::vector<Stage1Result> done(
            stage1.begin(),
            stage1.begin() + static_cast<std::ptrdiff_t>(std::min(size, chunks_done * chunk)));
        save_screen_checkpoint(options.checkpoint_path, done, chunks_done, chunk,
                               fingerprint, receptor_tag);
      }
      ++ran_this_invocation;
      if (options.stop_after_chunks > 0 && chunks_done < chunks_total &&
          ran_this_invocation >= static_cast<std::uint64_t>(options.stop_after_chunks)) {
        preemptions.add();
        report.preempted = true;
        report.chunks_done = chunks_done;
        return report;  // progress lives in the checkpoint
      }
    }
  }
  report.chunks_done = chunks_done;

  // --- cut: best stage1_keep fraction, ties broken by index ----------------
  std::vector<std::uint64_t> order(static_cast<std::size_t>(size));
  for (std::uint64_t i = 0; i < size; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    const Stage1Result& ra = stage1[static_cast<std::size_t>(a)];
    const Stage1Result& rb = stage1[static_cast<std::size_t>(b)];
    if (ra.best_score != rb.best_score) return ra.best_score < rb.best_score;
    return a < b;
  });
  const auto n_keep = static_cast<std::uint64_t>(std::min<double>(
      static_cast<double>(size),
      std::max(1.0, std::ceil(options.stage1_keep * static_cast<double>(size)))));
  order.resize(static_cast<std::size_t>(n_keep));
  report.stage1_survivors = n_keep;

  // --- stage 2: exact rescoring of the survivors ----------------------------
  std::vector<ScreenHit> rescored(static_cast<std::size_t>(n_keep));
  {
    QDB_SPAN("screen.stage2");
    parallel_for_threads(static_cast<std::int64_t>(n_keep), options.threads,
                         [&](std::int64_t s) {
      const Stage1Result& r = stage1[static_cast<std::size_t>(order[static_cast<std::size_t>(s)])];
      const Ligand ligand = library_ligand(options.library, r.index);
      ScreenHit hit;
      hit.id = r.id;
      hit.index = r.index;
      hit.stage1_score = r.best_score;
      hit.num_atoms = ligand.num_atoms();
      hit.num_torsions = ligand.num_torsions();
      bool first = true;
      for (const StagePose& sp : r.poses) {
        const double energy = intermolecular_energy(
            prepared.rescoring, ligand, ligand.conformation(sp.pose), options.weights);
        const double affinity =
            affinity_from_energy(energy, ligand.num_torsions(), options.weights);
        if (first || affinity < hit.affinity) {
          hit.affinity = affinity;
          hit.pose = sp.pose;
          first = false;
        }
      }
      rescored[static_cast<std::size_t>(s)] = std::move(hit);
    });
    rescored_count.add(n_keep * static_cast<std::uint64_t>(options.poses_rescored));
  }

  // --- bounded top-K: strict total order (affinity, then unique id) --------
  const auto worse = [](const ScreenHit& a, const ScreenHit& b) {
    if (a.affinity != b.affinity) return a.affinity < b.affinity;
    return a.id < b.id;
  };
  std::priority_queue<ScreenHit, std::vector<ScreenHit>, decltype(worse)> heap(worse);
  for (ScreenHit& hit : rescored) {
    heap.push(std::move(hit));
    if (heap.size() > static_cast<std::size_t>(options.top_k)) heap.pop();
  }
  report.hits.resize(heap.size());
  for (std::size_t i = heap.size(); i-- > 0;) {
    report.hits[i] = heap.top();
    heap.pop();
  }
  return report;
}

ScreenReport run_screen(const Structure& receptor, const std::string& receptor_tag,
                        const ScreenOptions& options) {
  const PreparedReceptor prepared = prepare_receptor(receptor, options);
  return run_screen(prepared, receptor_tag, options);
}

}  // namespace qdb::screen
