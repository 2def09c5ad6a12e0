#include "dock/dock.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "common/check.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qdb {

namespace {

constexpr double kPi = 3.14159265358979323846;

struct Box {
  Vec3 lo, hi;
  Vec3 center() const { return (lo + hi) * 0.5; }
};

Box search_box(const Structure& receptor, double padding) {
  const auto pts = receptor.heavy_positions();
  Box b{pts[0], pts[0]};
  for (const Vec3& p : pts) {
    b.lo.x = std::min(b.lo.x, p.x); b.hi.x = std::max(b.hi.x, p.x);
    b.lo.y = std::min(b.lo.y, p.y); b.hi.y = std::max(b.hi.y, p.y);
    b.lo.z = std::min(b.lo.z, p.z); b.hi.z = std::max(b.hi.z, p.z);
  }
  b.lo -= Vec3{padding, padding, padding};
  b.hi += Vec3{padding, padding, padding};
  return b;
}

Pose random_pose(const Box& box, int torsions, Rng& rng, bool near_rest_torsions = false) {
  Pose p;
  p.translation = Vec3{rng.uniform(box.lo.x, box.hi.x), rng.uniform(box.lo.y, box.hi.y),
                       rng.uniform(box.lo.z, box.hi.z)};
  p.orientation = Quat::random(rng.uniform(), rng.uniform(), rng.uniform());
  p.torsions.resize(static_cast<std::size_t>(torsions));
  // Half the runs keep torsions near the input (rest) conformation, as
  // docking tools do when the input conformer is meaningful (e.g. a
  // crystal-derived ligand); the rest randomise fully.
  for (double& t : p.torsions) {
    t = near_rest_torsions ? rng.normal(0.0, 0.35) : rng.uniform(-kPi, kPi);
  }
  return p;
}

/// Random perturbation: small rigid move + one torsion tweak.
Pose perturb(const Pose& p, const Box& box, double scale, Rng& rng) {
  Pose out = p;
  out.translation += Vec3{rng.normal(0.0, 0.6 * scale), rng.normal(0.0, 0.6 * scale),
                          rng.normal(0.0, 0.6 * scale)};
  out.translation.x = std::clamp(out.translation.x, box.lo.x, box.hi.x);
  out.translation.y = std::clamp(out.translation.y, box.lo.y, box.hi.y);
  out.translation.z = std::clamp(out.translation.z, box.lo.z, box.hi.z);
  const Vec3 axis{rng.normal(), rng.normal(), rng.normal()};
  out.orientation = (Quat::from_axis_angle(axis, rng.normal(0.0, 0.35 * scale)) *
                     out.orientation).normalized();
  if (!out.torsions.empty() && rng.bernoulli(0.75)) {
    const std::size_t idx = rng.below(out.torsions.size());
    out.torsions[idx] += rng.normal(0.0, 0.8 * scale);
  }
  return out;
}

struct RunOutput {
  std::vector<ScoredPose> top;  // this run's top poses, best first
};

RunOutput run_search(const NeighbourIndex& grid, const Ligand& ligand, const Box& box,
                     const DockingParams& params, int run_index) {
  obs::Span span("dock.search");
  span.set_attr("run", std::to_string(run_index));
  Rng rng(params.seed + static_cast<std::uint64_t>(run_index) * 0x9e3779b9ULL);

  // Every pose is scored through one scorer, and a local-search candidate
  // against the incumbent it was derived from: a torsion move leaves most
  // atoms in place, and their pair terms are re-added rather than recomputed
  // (DESIGN.md §3.2).  `incumbent` holds the terms of the pose being
  // polished; `trial` is the buffer a candidate is scored into.
  IncrementalScorer scorer(grid, ligand, params.weights);
  ScoredConformation incumbent, trial;
  // Search work, added to the dock.* counters once at the end of the run.
  std::uint64_t mc_steps = 0, mc_accepted = 0, polish_sweeps = 0;
  auto score = [&](const Pose& p, const ScoredConformation* against, ScoredConformation& out) {
    return affinity_from_energy(scorer.score(ligand.conformation(p), against, out),
                                ligand.num_torsions(), params.weights);
  };

  // Pattern-search local optimisation over the pose coordinates
  // (translation, orientation, torsions) with a shrinking step — the local
  // polish Vina performs after every mutation (its BFGS stage).  `e` is the
  // affinity of `p`, whose scored conformation is in `incumbent`.
  auto local_optimize = [&](Pose p, double e, int sweeps) {
    double step_t = 0.6;   // Angstrom
    double step_r = 0.25;  // radians
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      ++polish_sweeps;
      bool improved = false;
      auto try_pose = [&](Pose cand) {
        // Stay inside the search box (Vina clips to its box too).
        cand.translation.x = std::clamp(cand.translation.x, box.lo.x, box.hi.x);
        cand.translation.y = std::clamp(cand.translation.y, box.lo.y, box.hi.y);
        cand.translation.z = std::clamp(cand.translation.z, box.lo.z, box.hi.z);
        const double ce = score(cand, &incumbent, trial);
        if (ce < e - 1e-9) {
          e = ce;
          p = std::move(cand);
          std::swap(incumbent, trial);
          improved = true;
          return true;
        }
        return false;
      };
      for (int axis = 0; axis < 3; ++axis) {
        for (double sgn : {1.0, -1.0}) {
          Pose cand = p;
          (axis == 0 ? cand.translation.x : axis == 1 ? cand.translation.y : cand.translation.z) +=
              sgn * step_t;
          try_pose(cand);
        }
      }
      const Vec3 axes[3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
      for (const Vec3& ax : axes) {
        for (double sgn : {1.0, -1.0}) {
          Pose cand = p;
          cand.orientation = (Quat::from_axis_angle(ax, sgn * step_r) * cand.orientation).normalized();
          try_pose(cand);
        }
      }
      for (std::size_t t = 0; t < p.torsions.size(); ++t) {
        for (double sgn : {1.0, -1.0}) {
          Pose cand = p;
          cand.torsions[t] += sgn * 2.0 * step_r;
          try_pose(cand);
        }
      }
      if (!improved) {
        step_t *= 0.5;
        step_r *= 0.5;
        if (step_t < 0.05) break;
      }
    }
    return std::pair<Pose, double>{std::move(p), e};
  };

  // Iterated local search (the Vina algorithm): each step mutates the
  // incumbent and locally optimises the mutant before the Metropolis test.
  // A mutant moves every atom, so it is scored without reuse, and that
  // score starts its local optimisation.
  const int outer_steps = std::max(1, params.mc_steps / 10);
  const bool near_rest = (run_index % 2 == 0);

  Pose current = random_pose(box, ligand.num_torsions(), rng, near_rest);
  double current_e = score(current, nullptr, incumbent);
  std::tie(current, current_e) = local_optimize(current, current_e, 4);

  std::vector<ScoredPose> pool;
  auto remember = [&](const Pose& p, double e) {
    pool.push_back(ScoredPose{p, e, run_index});
  };
  remember(current, current_e);

  for (int step = 0; step < outer_steps; ++step) {
    const bool jump = rng.bernoulli(0.15);  // occasional restarts
    Pose cand = jump ? random_pose(box, ligand.num_torsions(), rng, near_rest)
                     : perturb(current, box, 1.2, rng);
    double cand_e = score(cand, nullptr, incumbent);
    std::tie(cand, cand_e) = local_optimize(std::move(cand), cand_e, 4);
    ++mc_steps;
    const double delta = cand_e - current_e;
    if (delta <= 0.0 || rng.uniform() < std::exp(-delta / params.temperature)) {
      ++mc_accepted;
      current = std::move(cand);
      current_e = cand_e;
      remember(current, current_e);
    }
  }

  // Thorough polish of the run's best pose, rescored once for its terms.
  std::sort(pool.begin(), pool.end(),
            [](const ScoredPose& a, const ScoredPose& b) { return a.affinity < b.affinity; });
  const double polish_e = score(pool.front().pose, nullptr, incumbent);
  auto [best, best_e] = local_optimize(pool.front().pose, polish_e, params.refine_steps / 5);
  remember(best, best_e);
  std::sort(pool.begin(), pool.end(),
            [](const ScoredPose& a, const ScoredPose& b) { return a.affinity < b.affinity; });

  static obs::Counter& score_calls = obs::counter("dock.score_calls");
  static obs::Counter& fresh_pairs = obs::counter("dock.pairs.fresh");
  static obs::Counter& reused_pairs = obs::counter("dock.pairs.reused");
  static obs::Counter& mc_step_count = obs::counter("dock.mc_steps");
  static obs::Counter& mc_accepted_count = obs::counter("dock.mc_accepted");
  static obs::Counter& polish_sweep_count = obs::counter("dock.polish_sweeps");
  score_calls.add(scorer.calls());
  fresh_pairs.add(scorer.fresh_pairs());
  reused_pairs.add(scorer.reused_pairs());
  mc_step_count.add(mc_steps);
  mc_accepted_count.add(mc_accepted);
  polish_sweep_count.add(polish_sweeps);

  // Deduplicate near-identical poses (within 1 A ub-RMSD of a kept pose).
  RunOutput out;
  std::vector<std::vector<Vec3>> kept_coords;
  for (const ScoredPose& sp : pool) {
    if (static_cast<int>(out.top.size()) >= params.top_poses) break;
    const auto coords = ligand.conformation(sp.pose);
    bool duplicate = false;
    for (const auto& kc : kept_coords) {
      if (pose_rmsd_ub(coords, kc) < 1.0) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    out.top.push_back(sp);
    kept_coords.push_back(coords);
  }
  return out;
}

}  // namespace

double pose_rmsd_ub(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  QDB_REQUIRE(a.size() == b.size() && !a.empty(), "pose rmsd: size mismatch");
  double ss = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) ss += a[i].distance2(b[i]);
  return std::sqrt(ss / static_cast<double>(a.size()));
}

double pose_rmsd_lb(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  QDB_REQUIRE(a.size() == b.size() && !a.empty(), "pose rmsd: size mismatch");
  // Greedy nearest matching: for each atom of `a`, the closest unused atom
  // of `b`.  Tolerates symmetry-equivalent atom permutations.  Greedy
  // assignment is not always better than the identity mapping, so the
  // result is capped by the upper bound to keep lb <= ub.
  std::vector<char> used(b.size(), 0);
  double ss = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double best = std::numeric_limits<double>::max();
    std::size_t best_j = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (used[j]) continue;
      const double d2 = a[i].distance2(b[j]);
      if (d2 < best) {
        best = d2;
        best_j = j;
      }
    }
    used[best_j] = 1;
    ss += best;
  }
  const double greedy = std::sqrt(ss / static_cast<double>(a.size()));
  return std::min(greedy, pose_rmsd_ub(a, b));
}

DockingResult dock(const Structure& receptor, const Ligand& ligand,
                   const DockingParams& params, const std::function<void()>& beside) {
  QDB_REQUIRE(params.num_runs >= 1 && params.top_poses >= 1, "bad docking params");
  obs::Span span("dock.run");
  span.set_attr("runs", std::to_string(params.num_runs));
  static obs::Counter& seed_count = obs::counter("dock.seeded_runs");
  seed_count.add(static_cast<std::uint64_t>(params.num_runs));
  obs::log_debug("dock.start")
      .kv("runs", params.num_runs)
      .kv("seed", params.seed)
      .kv("atoms", ligand.atoms().size());
  const NeighbourIndex grid(type_receptor(receptor), 8.0);
  Box box = search_box(receptor, params.box_padding);
  if (params.box_size > 0.0) {
    const Vec3 half{params.box_size / 2, params.box_size / 2, params.box_size / 2};
    box = Box{params.box_center - half, params.box_center + half};
  }

  // Each run's dock.search span parents under this dock.run on whichever
  // thread runs it; the run index is the branch salt, so sibling ids never
  // collide across threads.
  const obs::TraceContext here = obs::current_trace_context();
  std::vector<RunOutput> outputs(static_cast<std::size_t>(params.num_runs));
  parallel_for_beside(
      params.num_runs,
      [&](std::int64_t r) {
        const obs::ScopedTraceContext scope(here, static_cast<std::uint64_t>(r) + 1);
        outputs[static_cast<std::size_t>(r)] =
            run_search(grid, ligand, box, params, static_cast<int>(r));
      },
      [&] {
        if (beside) beside();
      });

  DockingResult result;
  for (const RunOutput& out : outputs) {
    QDB_REQUIRE(!out.top.empty(), "a docking run produced no poses");
    result.run_best.push_back(out.top.front().affinity);
    result.poses.insert(result.poses.end(), out.top.begin(), out.top.end());
  }
  std::sort(result.poses.begin(), result.poses.end(),
            [](const ScoredPose& a, const ScoredPose& b) { return a.affinity < b.affinity; });
  if (static_cast<int>(result.poses.size()) > params.top_poses) {
    result.poses.resize(static_cast<std::size_t>(params.top_poses));
  }

  result.best_affinity = result.poses.front().affinity;
  double acc = 0.0;
  for (double e : result.run_best) acc += e;
  result.mean_affinity = acc / static_cast<double>(result.run_best.size());

  // Pose variability the way Vina reports it: within each seeded run, the
  // RMSD bounds of every returned mode against that run's best mode,
  // averaged over runs (Table 4's l.b./u.b. columns).
  double lb = 0.0, ub = 0.0;
  int count = 0;
  for (const RunOutput& out : outputs) {
    const auto best_coords = ligand.conformation(out.top.front().pose);
    for (std::size_t i = 1; i < out.top.size(); ++i) {
      const auto coords = ligand.conformation(out.top[i].pose);
      lb += pose_rmsd_lb(coords, best_coords);
      ub += pose_rmsd_ub(coords, best_coords);
      ++count;
    }
  }
  if (count > 0) {
    result.rmsd_lb_mean = lb / count;
    result.rmsd_ub_mean = ub / count;
  }
  return result;
}

}  // namespace qdb
