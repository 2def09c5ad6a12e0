// Tests for src/vqe: the CVaR estimator, two-stage VQE runs on real dataset
// fragments (S/M/L groups), noise behaviour, determinism, metadata, and the
// execution-time model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>

#include "common/error.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "data/reference.h"
#include "data/registry.h"
#include "lattice/solver.h"
#include "obs/metrics.h"
#include "vqe/exec_time.h"
#include "vqe/vqe.h"

namespace qdb {
namespace {

FoldingHamiltonian make_h(const std::string& seq) {
  auto s = parse_sequence(seq);
  return FoldingHamiltonian(s, HamiltonianWeights::standard(static_cast<int>(s.size())));
}

VqeOptions fast_options(std::uint64_t seed = 1) {
  VqeOptions o;
  o.max_evaluations = 60;
  o.shots_per_eval = 256;
  o.final_shots = 4000;
  o.seed = seed;
  return o;
}

TEST(Cvar, TailMeanOfSamples) {
  // alpha=0.5 of {1..4} keeps {1,2}; alpha=0.25 keeps {1}.
  EXPECT_DOUBLE_EQ(VqeDriver::cvar({4, 2, 3, 1}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(VqeDriver::cvar({4, 2, 3, 1}, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(VqeDriver::cvar({4, 2, 3, 1}, 1.0), 2.5);  // plain mean
  EXPECT_DOUBLE_EQ(VqeDriver::cvar({7.0}, 0.01), 7.0);
  EXPECT_THROW(VqeDriver::cvar({}, 0.5), PreconditionError);
  EXPECT_THROW(VqeDriver::cvar({1.0}, 0.0), PreconditionError);
}

TEST(Vqe, ReachesNearGroundStateOnSmallFragment) {
  // 3ckz "VKDRS": 4 qubits, 16 conformations — VQE must find the optimum.
  const auto h = make_h("VKDRS");
  const SolveResult exact = ExactSolver().solve(h);
  const VqeResult r = VqeDriver(h, fast_options()).run();
  EXPECT_NEAR(r.sampled_min_energy, exact.energy, 1e-9)
      << "stage-2 sampling must hit the 4-qubit ground state";
  EXPECT_EQ(r.best_bitstring, exact.bitstring);
}

TEST(Vqe, ApproximationRatioOnMediumFragment) {
  // 2bok "EDACQGDSGG": 14 qubits.  The sampled minimum should land within a
  // few percent of the exact optimum (the offset floor dominates, so compare
  // the conformational part).
  const auto h = make_h("EDACQGDSGG");
  const SolveResult exact = ExactSolver().solve(h);
  VqeOptions o = fast_options(3);
  o.max_evaluations = 80;
  const VqeResult r = VqeDriver(h, o).run();
  const double floor = h.weights().energy_offset;
  const double exact_conf = exact.energy - floor;
  const double vqe_conf = r.sampled_min_energy - floor;
  EXPECT_LT(vqe_conf, exact_conf + 0.5 * std::abs(exact_conf) + 5.0);
  EXPECT_GE(r.sampled_min_energy, exact.energy - 1e-9);  // cannot beat the optimum
}

TEST(Vqe, MpsEngineHandlesLGroupFragment) {
  // 4jpy "DYLEAYGKGGVKAK": 22 qubits — must run through the MPS engine.
  const auto h = make_h("DYLEAYGKGGVKAK");
  VqeOptions o = fast_options(5);
  o.max_evaluations = 25;
  o.shots_per_eval = 128;
  o.final_shots = 2000;
  const VqeResult r = VqeDriver(h, o).run();
  EXPECT_EQ(r.logical_qubits, 22);
  EXPECT_EQ(r.allocation.qubits, 102);  // published L-group allocation
  EXPECT_EQ(r.allocation.depth, 413);
  EXPECT_GT(r.lowest_energy, 0.0);      // offset floor
  EXPECT_LT(r.lowest_energy, r.highest_energy);
}

TEST(Vqe, DeterministicPerSeed) {
  const auto h = make_h("VKDRS");
  const VqeResult a = VqeDriver(h, fast_options(7)).run();
  const VqeResult b = VqeDriver(h, fast_options(7)).run();
  EXPECT_EQ(a.best_bitstring, b.best_bitstring);
  EXPECT_DOUBLE_EQ(a.lowest_energy, b.lowest_energy);
  EXPECT_DOUBLE_EQ(a.best_cvar, b.best_cvar);
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// FNV-1a over the bit patterns of a sequence of doubles.
std::uint64_t digest(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : values) {
    const std::uint64_t b = bits(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (b >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(Vqe, GoldenBitsMatchParent) {
  // Bit patterns recorded before clean noise trajectories reused the
  // simulated state and the refine descents shared one memo: a VQE run must
  // not move by a single bit.  One entry per engine: fused dense (10
  // qubits), MPS at 16 and at 22 qubits.
  struct Golden {
    const char* id;
    std::uint64_t best_bitstring;
    std::uint64_t best_energy, best_cvar, lowest, highest, mean, sampled_min;
    std::size_t stage2_distinct, energy_cache_hits;
    std::uint64_t history;
  };
  const Golden cases[] = {
      {"6p86", 0x113ULL, 0x4093948bb72f01cdULL, 0x4093afedd95123efULL,
       0x4093afedd95123efULL, 0x40b0e5a37f6e7437ULL, 0x40ab7cc5e5cb3c0aULL,
       0x4093ac9cc84012deULL, 93, 1777, 0x8e68f29339d61a33ULL},
      {"2qbs", 0x8e1cULL, 0x40b8a691e805c7b2ULL, 0x40c1c34aaad072d5ULL,
       0x40c1c34aaad072d5ULL, 0x40d2d9fdb4695cb0ULL, 0x40ce75d474ed3efcULL,
       0x40c1fe78c6800bacULL, 438, 4803, 0x66b7c07c8da615c7ULL},
      {"4jpy", 0x3639ecULL, 0x40d59a836ddce9caULL, 0x40e280f81b9ff330ULL,
       0x40e280f81b9ff330ULL, 0x40f00ab1ebf6a8cfULL, 0x40e98e1f789364f8ULL,
       0x40e3fc90b384a4afULL, 489, 5537, 0x7a5132d9e58dde93ULL},
  };
  for (const Golden& g : cases) {
    SCOPED_TRACE(g.id);
    const auto h = make_h(entry_by_id(g.id).sequence);
    VqeOptions o = fast_options(31);
    o.max_evaluations = 20;  // the COBYLA simplex sets the floor
    o.shots_per_eval = 96;
    o.final_shots = 1500;
    o.run_id = g.id;
    const VqeResult r = VqeDriver(h, o).run();
    EXPECT_EQ(r.best_bitstring, g.best_bitstring);
    EXPECT_EQ(bits(r.best_energy), g.best_energy);
    EXPECT_EQ(bits(r.best_cvar), g.best_cvar);
    EXPECT_EQ(bits(r.lowest_energy), g.lowest);
    EXPECT_EQ(bits(r.highest_energy), g.highest);
    EXPECT_EQ(bits(r.mean_energy), g.mean);
    EXPECT_EQ(bits(r.sampled_min_energy), g.sampled_min);
    EXPECT_EQ(r.stage2_distinct, g.stage2_distinct);
    EXPECT_EQ(r.energy_cache_hits, g.energy_cache_hits);
    EXPECT_EQ(digest(r.history), g.history);
  }
}

TEST(Vqe, GoldenWorkCountsAtBenchProfile) {
  // The work a bench-profile VQE run does on each eval6 entry, counted by
  // the engines and the driver.  Work is deterministic where time is not:
  // a change that claims to be results-neutral and to do the same work
  // leaves every count here unchanged; one that changes a count updates
  // this table and says why.
  static const char* const kCounters[] = {
      "vqe.stage1.evals",           "vqe.shots",
      "vqe.trajectories.simulated", "vqe.trajectories.reused",
      "vqe.refine.energies",        "mps.svds",
      "mps.sample.steps",           "mps.sample.expansions",
      "kernel.fused.gates_in",      "kernel.fused.ops",
  };
  constexpr std::size_t kN = std::size(kCounters);
  struct Golden {
    const char* id;
    std::uint64_t counts[kN];
  };
  const Golden cases[] = {
      {"6p86", {80, 26480, 104, 60, 855, 0, 0, 0, 8154, 2962}},
      {"3eax", {70, 23920, 79, 65, 16, 0, 0, 0, 2382, 810}},
      {"1e2l", {92, 29552, 122, 66, 2629, 0, 0, 0, 11517, 4331}},
      {"2qbs", {116, 35696, 169, 67, 11536, 5070, 571136, 81110, 0, 0}},
      {"1yc4", {140, 41840, 206, 78, 28278, 7828, 836800, 129185, 0, 0}},
      {"4jpy", {152, 44912, 226, 82, 47189, 9492, 988064, 238347, 0, 0}},
  };
  for (const Golden& g : cases) {
    SCOPED_TRACE(g.id);
    const DatasetEntry& entry = entry_by_id(g.id);
    // The options Pipeline::predict(entry, Method::QDock) runs with.
    VqeOptions o = PipelineOptions::bench_profile().vqe;
    o.seed = seed_combine(fnv1a(entry.pdb_id), fnv1a("vqe"));
    o.run_id = entry.pdb_id;
    std::uint64_t before[kN];
    for (std::size_t k = 0; k < kN; ++k) before[k] = obs::counter(kCounters[k]).value();
    VqeDriver(entry_hamiltonian(entry), o).run();
    for (std::size_t k = 0; k < kN; ++k)
      EXPECT_EQ(obs::counter(kCounters[k]).value() - before[k], g.counts[k]) << kCounters[k];
  }
}

/// The refine descent as it ran before the memo and the path merge: one
/// greedy descent, every candidate scored afresh.  `calls` counts the
/// energies it scored; `path` collects the states it passed through.
std::pair<std::uint64_t, double> naive_descent(const FoldingHamiltonian& h, std::uint64_t x,
                                               double e, std::size_t& calls,
                                               std::vector<std::uint64_t>* path = nullptr) {
  const int free_turns = h.length() - 3;
  bool improved = true;
  while (improved) {
    if (path != nullptr) path->push_back(x);
    improved = false;
    for (int k = 0; k < free_turns && !improved; ++k) {
      for (std::uint64_t t = 0; t < 4; ++t) {
        const std::uint64_t cand = (x & ~(std::uint64_t{3} << (2 * k))) | (t << (2 * k));
        if (cand == x) continue;
        ++calls;
        const double ce = h.energy(cand);
        if (ce < e - 1e-12) {
          e = ce;
          x = cand;
          improved = true;
          break;
        }
      }
    }
    if (improved) continue;
    for (int k1 = 0; k1 < free_turns && !improved; ++k1) {
      for (int k2 = k1 + 1; k2 < free_turns && !improved; ++k2) {
        for (std::uint64_t t1 = 0; t1 < 4 && !improved; ++t1) {
          for (std::uint64_t t2 = 0; t2 < 4; ++t2) {
            std::uint64_t cand = (x & ~(std::uint64_t{3} << (2 * k1))) | (t1 << (2 * k1));
            cand = (cand & ~(std::uint64_t{3} << (2 * k2))) | (t2 << (2 * k2));
            if (cand == x) continue;
            ++calls;
            const double ce = h.energy(cand);
            if (ce < e - 1e-12) {
              e = ce;
              x = cand;
              improved = true;
              break;
            }
          }
        }
      }
    }
  }
  return {x, e};
}

TEST(VqeRefine, MemoisedDescentsMatchNaiveDescents) {
  // Every start of refine_descents must reach the minimum its own naive
  // descent reaches, bit for bit.  The 22-qubit entries score far more
  // distinct candidates than the memo has slots, so slots collide; a start
  // placed on an intermediate state of the first descent must merge.
  for (const char* id : {"6p86", "2qbs", "4jpy", "6udv"}) {
    SCOPED_TRACE(id);
    const auto h = make_h(entry_by_id(id).sequence);
    const std::uint64_t mask = (std::uint64_t{1} << h.num_qubits()) - 1;
    Rng rng(fnv1a(id));
    std::vector<std::pair<double, std::uint64_t>> starts;
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t x = rng() & mask;
      starts.emplace_back(h.energy(x), x);
    }
    std::size_t calls = 0;
    std::vector<std::uint64_t> path;
    naive_descent(h, starts[0].second, starts[0].first, calls, &path);
    ASSERT_GE(path.size(), 3u) << "the first descent must pass through a state";
    const std::uint64_t mid = path[path.size() / 2];
    starts.emplace_back(h.energy(mid), mid);
    starts.push_back(starts[3]);  // a repeated start merges at once

    const RefineOutcome out = refine_descents(h, starts);
    ASSERT_EQ(out.minima.size(), starts.size());
    calls = 0;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      const auto [x, e] = naive_descent(h, starts[i].second, starts[i].first, calls);
      EXPECT_EQ(out.minima[i].first, x) << "start " << i;
      EXPECT_EQ(bits(out.minima[i].second), bits(e)) << "start " << i;
    }
    EXPECT_GE(out.merged, 2u);
    EXPECT_GT(out.memo_hits, 0u);
    EXPECT_LT(out.energies + out.memo_hits, calls);  // merged descents stop early
    // More fresh evaluations than slots: some key was evicted or re-scored.
    if (h.num_qubits() == 22) {
      EXPECT_GT(out.energies, 4096u);
    }
  }
}

/// Run `h` with `o` and return how many trajectories it simulated and how
/// many reused the state of the one before.
std::pair<std::uint64_t, std::uint64_t> trajectory_counts(const FoldingHamiltonian& h,
                                                          const VqeOptions& o) {
  obs::Counter& simulated = obs::counter("vqe.trajectories.simulated");
  obs::Counter& reused = obs::counter("vqe.trajectories.reused");
  const auto s0 = simulated.value();
  const auto r0 = reused.value();
  VqeDriver(h, o).run();
  return {simulated.value() - s0, reused.value() - r0};
}

TEST(Vqe, CleanTrajectoriesReuseTheSimulatedState) {
  for (const char* seq : {"VYSSGIPL", "HCSAGIGRSGT"}) {  // dense, MPS
    SCOPED_TRACE(seq);
    const auto h = make_h(seq);
    VqeOptions o = fast_options(3);
    o.max_evaluations = 10;
    o.final_shots = 1000;
    const auto [simulated, reused] = trajectory_counts(h, o);
    EXPECT_GT(reused, 0u);
    EXPECT_GT(simulated, reused);
    o.noise = NoiseModel::ideal();  // one trajectory per call: nothing to reuse
    const auto [ideal_simulated, ideal_reused] = trajectory_counts(h, o);
    EXPECT_EQ(ideal_reused, 0u);
    EXPECT_GT(ideal_simulated, 0u);
  }
}

TEST(Vqe, ReusedTrajectoryKeepsTheEngineFaultNumbering) {
  // With no gate errors every trajectory is clean, so the second trajectory
  // of the first evaluation reuses the first one's state.  It must still
  // count as the second call of the engine's fault site and fire there,
  // before a second evaluation starts.
  const auto h = make_h("VYSSGIPL");
  FaultInjector& fi = FaultInjector::instance();
  for (const auto engine : {VqeOptions::Engine::Dense, VqeOptions::Engine::Mps}) {
    const char* site =
        engine == VqeOptions::Engine::Dense ? "engine.dense.apply" : "engine.mps.apply";
    SCOPED_TRACE(site);
    fi.clear();
    FaultSiteConfig cfg;
    cfg.trigger_on_nth = 2;
    fi.configure(site, cfg);
    VqeOptions o = fast_options(5);
    o.engine = engine;
    o.noise = NoiseModel{};
    o.noise.p_readout_01 = 0.01;  // not ideal: two trajectories per evaluation
    obs::Counter& evals = obs::counter("vqe.stage1.evals");
    const auto evals0 = evals.value();
    {
      FaultScope scope("fault-numbering", 1);
      EXPECT_THROW(VqeDriver(h, o).run(), TransientDeviceError);
    }
    EXPECT_EQ(fi.fire_count(site), 1u);
    EXPECT_EQ(evals.value() - evals0, 1u);
  }
  fi.clear();
}

TEST(Vqe, SeedsChangeTrajectories) {
  const auto h = make_h("PWWERYQP");
  const VqeResult a = VqeDriver(h, fast_options(11)).run();
  const VqeResult b = VqeDriver(h, fast_options(12)).run();
  // Histories differ even if both converge to the same optimum.
  EXPECT_NE(a.history, b.history);
}

TEST(Vqe, HistoryIsMonotone) {
  const auto h = make_h("VKDRS");
  const VqeResult r = VqeDriver(h, fast_options(13)).run();
  ASSERT_FALSE(r.history.empty());
  for (std::size_t i = 1; i < r.history.size(); ++i) {
    EXPECT_LE(r.history[i], r.history[i - 1] + 1e-12);
  }
}

TEST(Vqe, EnergyRangeMatchesPaperShape) {
  // The paper's Tables report energy ranges of roughly 20-40% of the lowest
  // energy.  Noisy sampling of penalty states must produce a positive range.
  const auto h = make_h("LLDTGADDTV");
  VqeOptions o = fast_options(17);
  const VqeResult r = VqeDriver(h, o).run();
  EXPECT_GT(r.energy_range, 0.0);
  EXPECT_GT(r.highest_energy, r.lowest_energy);
  EXPECT_GE(r.mean_energy, r.lowest_energy);
  EXPECT_LE(r.mean_energy, r.highest_energy);
}

TEST(Vqe, IdealNoiseFindsLowerOrEqualEnergy) {
  const auto h = make_h("PWWERYQP");
  VqeOptions noisy = fast_options(19);
  VqeOptions ideal = fast_options(19);
  ideal.noise = NoiseModel::ideal();
  const VqeResult rn = VqeDriver(h, noisy).run();
  const VqeResult ri = VqeDriver(h, ideal).run();
  // Both must sample valid low-energy states; the sampled minimum can only
  // be at or above the global optimum.
  const double exact = ExactSolver().solve(h).energy;
  EXPECT_GE(rn.lowest_energy, exact - 1e-9);
  EXPECT_GE(ri.lowest_energy, exact - 1e-9);
}

TEST(Vqe, MetadataIsComplete) {
  const auto h = make_h("GIKAVM");  // 3s0b, S group, 6 residues
  VqeOptions o = fast_options(23);
  o.run_id = "3s0b";
  const VqeResult r = VqeDriver(h, o).run();
  EXPECT_EQ(r.logical_qubits, 6);
  EXPECT_EQ(r.allocation.qubits, 23);  // published 6-residue allocation
  EXPECT_EQ(r.allocation.depth, 97);
  EXPECT_EQ(r.total_shots, static_cast<std::size_t>(r.evaluations) * 256 + 4000);
  EXPECT_GT(r.modeled_exec_time_s, 0.0);
  EXPECT_GT(r.sim_wall_time_s, 0.0);
  EXPECT_LE(r.evaluations, 60);
}

TEST(Vqe, RejectsBadOptions) {
  const auto h = make_h("VKDRS");
  VqeOptions o;
  o.max_evaluations = 0;
  EXPECT_THROW(VqeDriver(h, o), PreconditionError);
  o = VqeOptions{};
  o.cvar_alpha = 0.0;
  EXPECT_THROW(VqeDriver(h, o), PreconditionError);
  o = VqeOptions{};
  o.final_shots = 0;
  EXPECT_THROW(VqeDriver(h, o), PreconditionError);
}


TEST(CvarWeighted, MatchesUnweightedOnUnitWeights) {
  const double a = VqeDriver::cvar({4, 2, 3, 1}, 0.5);
  const double b = VqeDriver::cvar_weighted({{4, 1}, {2, 1}, {3, 1}, {1, 1}}, 0.5);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(CvarWeighted, HandlesFractionalTailAndNegativeWeights) {
  // Tail = 0.3 of total weight 2: takes all of (1, w=0.5) and 0.1 of (2, ...).
  const double v = VqeDriver::cvar_weighted({{2, 1.5}, {1, 0.5}}, 0.3);
  EXPECT_NEAR(v, (1.0 * 0.5 + 2.0 * 0.1) / 0.6, 1e-12);
  // Negative quasi-probabilities are clamped.
  EXPECT_NO_THROW(VqeDriver::cvar_weighted({{1, -0.2}, {2, 1.0}}, 0.5));
  EXPECT_THROW(VqeDriver::cvar_weighted({}, 0.5), PreconditionError);
  EXPECT_THROW(VqeDriver::cvar_weighted({{1, -1.0}}, 0.5), PreconditionError);
}

TEST(Vqe, ReadoutMitigationImprovesEstimates) {
  // Under strong readout errors, mitigated CVaR estimates should sit closer
  // to the noise-free estimates than the unmitigated ones do.
  const auto h = make_h("GIKAVM");
  VqeOptions base = fast_options(29);
  base.max_evaluations = 20;
  base.noise = NoiseModel::ideal();
  const VqeResult ideal = VqeDriver(h, base).run();

  VqeOptions noisy = base;
  noisy.noise = NoiseModel::eagle_r3();
  noisy.noise.p_readout_01 = 0.08;
  noisy.noise.p_readout_10 = 0.12;
  const VqeResult raw = VqeDriver(h, noisy).run();

  VqeOptions mitigated = noisy;
  mitigated.readout_mitigation = true;
  const VqeResult fixed = VqeDriver(h, mitigated).run();

  // Mitigation cannot make things worse on the best-estimate metric by a
  // large margin and is deterministic.
  EXPECT_LT(std::abs(fixed.best_cvar - ideal.best_cvar),
            std::abs(raw.best_cvar - ideal.best_cvar) + 50.0);
  const VqeResult fixed2 = VqeDriver(h, mitigated).run();
  EXPECT_DOUBLE_EQ(fixed.best_cvar, fixed2.best_cvar);
}

TEST(ExecTime, ScalesWithShotsAndDepth) {
  const ExecTimeModel m;
  const NoiseModel n = NoiseModel::eagle_r3();
  const double t_small = m.total_time_s(53, n, 10000, 50, "a");
  const double t_more_shots = m.total_time_s(53, n, 200000, 50, "a");
  const double t_deeper = m.total_time_s(413, n, 10000, 50, "a");
  EXPECT_GT(t_more_shots, t_small);
  EXPECT_GT(t_deeper, t_small);
}

TEST(ExecTime, QueueFactorIsPerIdDeterministicAndHeavyTailed) {
  const ExecTimeModel m;
  const NoiseModel n = NoiseModel::eagle_r3();
  EXPECT_DOUBLE_EQ(m.total_time_s(221, n, 100000, 200, "4y79"),
                   m.total_time_s(221, n, 100000, 200, "4y79"));
  // Different fragments see different queue factors.
  EXPECT_NE(m.total_time_s(221, n, 100000, 200, "4y79"),
            m.total_time_s(221, n, 100000, 200, "1e2l"));
  // The modelled times land in the paper's order of magnitude (10^3..10^5 s).
  double lo = 1e18, hi = 0.0;
  for (const char* id : {"a", "b", "c", "d", "e", "f", "g", "h"}) {
    const double t = m.total_time_s(257, n, 202400, 200, id);
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  EXPECT_GT(lo, 1e3);
  EXPECT_LT(hi, 1e6);
}

TEST(BoundedEnergyCache, CapacityZeroDisablesStorage) {
  BoundedEnergyCache cache(0);
  EXPECT_FALSE(cache.insert(1, 2.0));
  EXPECT_FALSE(cache.insert(1, 2.0));  // idempotent, still refused
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(1), nullptr);
  // Lookups against a disabled cache are honest misses, never hits.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BoundedEnergyCache, CountersAndCapacityBound) {
  BoundedEnergyCache cache(2);
  EXPECT_TRUE(cache.insert(10, 1.0));
  EXPECT_FALSE(cache.insert(10, 9.0));  // duplicate key: not newly stored
  EXPECT_TRUE(cache.insert(20, 2.0));
  EXPECT_FALSE(cache.insert(30, 3.0));  // over capacity: refused
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.capacity(), 2u);

  const double* hit = cache.find(10);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1.0);  // first value wins over the duplicate insert
  EXPECT_NE(cache.find(20), nullptr);
  EXPECT_EQ(cache.find(30), nullptr);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);

  // Cached value pointers survive later inserts (documented contract the
  // VQE histogram scorer relies on).
  BoundedEnergyCache big(1024);
  ASSERT_TRUE(big.insert(1, 1.5));
  const double* p = big.find(1);
  for (std::uint64_t x = 2; x < 600; ++x) big.insert(x, static_cast<double>(x));
  EXPECT_EQ(p, big.find(1));
  EXPECT_EQ(*p, 1.5);
}

}  // namespace
}  // namespace qdb
