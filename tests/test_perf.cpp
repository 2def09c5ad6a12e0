// Golden-equivalence and determinism tests for the performance pipeline:
// the allocation-free Hamiltonian scratch kernel, the batched energies()
// entry point, the histogram-based evaluation path, the bounded energy
// cache, and the parallel batch executor.  The contract under test: every
// fast path produces *bit-identical* numbers to the naive reference it
// replaced (or, where floating-point reassociation is inherent, agrees to
// tight tolerance and is deterministic).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "data/batch.h"
#include "data/reference.h"
#include "data/registry.h"
#include "lattice/hamiltonian.h"
#include "lattice/lattice.h"
#include "quantum/histogram.h"
#include "vqe/vqe.h"

namespace qdb {
namespace {

/// The pre-refactor energy path: heap-allocating decode + walk + terms.
double naive_energy(const FoldingHamiltonian& h, std::uint64_t x) {
  return h.energy_of_turns(decode_turns(x, h.length()));
}

std::vector<std::uint64_t> random_bitstrings(const FoldingHamiltonian& h,
                                             std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  const std::uint64_t dim = std::uint64_t{1} << h.num_qubits();
  std::vector<std::uint64_t> xs(count);
  for (auto& x : xs) x = rng.below(dim);
  return xs;
}

TEST(ScratchKernel, BitIdenticalToNaivePathAcrossAll55Entries) {
  for (const DatasetEntry& e : qdockbank_entries()) {
    const FoldingHamiltonian h = entry_hamiltonian(e);
    const auto xs = random_bitstrings(h, fnv1a(e.pdb_id), 64);
    std::vector<double> batch(xs.size());
    h.energies(xs, batch);
    FoldingHamiltonian::Scratch scratch;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double reference = naive_energy(h, xs[i]);
      // EXPECT_EQ on doubles: bit-identical, not just close.
      EXPECT_EQ(h.energy(xs[i]), reference) << e.pdb_id;
      EXPECT_EQ(h.energy_scratch(xs[i], scratch), reference) << e.pdb_id;
      EXPECT_EQ(batch[i], reference) << e.pdb_id;
    }
  }
}

TEST(ScratchKernel, ScratchReuseDoesNotLeakStateBetweenCalls) {
  const FoldingHamiltonian h = entry_hamiltonian(entry_by_id("4jpy"));  // L = 14
  const FoldingHamiltonian h_small = entry_hamiltonian(entry_by_id("3ckz"));  // L = 5
  FoldingHamiltonian::Scratch scratch;
  // Interleave evaluations of different lengths through one scratch.
  const auto xs_big = random_bitstrings(h, 1, 32);
  const auto xs_small = random_bitstrings(h_small, 2, 32);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(h.energy_scratch(xs_big[i], scratch), naive_energy(h, xs_big[i]));
    EXPECT_EQ(h_small.energy_scratch(xs_small[i], scratch),
              naive_energy(h_small, xs_small[i]));
  }
}

TEST(HistogramPath, DistinctScoresAreBitIdenticalAcrossAll55Entries) {
  for (const DatasetEntry& e : qdockbank_entries()) {
    const FoldingHamiltonian h = entry_hamiltonian(e);
    // Shots with heavy repetition: 4096 shots over <= 256 distinct values.
    Rng rng(seed_combine(fnv1a(e.pdb_id), fnv1a("hist")));
    const auto pool = random_bitstrings(h, fnv1a(e.pdb_id) ^ 7, 256);
    std::vector<std::uint64_t> shots(4096);
    for (auto& s : shots) s = pool[rng.below(pool.size())];

    const Histogram hist = histogram_from_shots(shots);
    const auto entries = sorted_entries(hist);
    // Total weight equals the shot count; entries are distinct and sorted.
    EXPECT_DOUBLE_EQ(histogram_total(hist), 4096.0);
    EXPECT_TRUE(std::is_sorted(entries.begin(), entries.end()));
    std::vector<std::uint64_t> distinct(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) distinct[i] = entries[i].first;
    std::vector<double> scores(distinct.size());
    h.energies(distinct, scores);
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      EXPECT_EQ(scores[i], naive_energy(h, distinct[i])) << e.pdb_id;
    }
  }
}

TEST(HistogramPath, WeightedCvarMatchesPerShotCvarWeighted) {
  const FoldingHamiltonian h = entry_hamiltonian(entry_by_id("2bok"));
  Rng rng(11);
  const auto pool = random_bitstrings(h, 13, 128);
  std::vector<std::uint64_t> shots(2000);
  for (auto& s : shots) s = pool[rng.below(pool.size())];

  // Per-shot: every shot contributes weight 1.
  std::vector<std::pair<double, double>> per_shot;
  for (std::uint64_t x : shots) per_shot.emplace_back(naive_energy(h, x), 1.0);
  // Histogram: distinct bitstrings carry their multiplicity.
  std::vector<std::pair<double, double>> collapsed;
  for (const auto& [x, w] : sorted_entries(histogram_from_shots(shots))) {
    collapsed.emplace_back(naive_energy(h, x), w);
  }
  for (const double alpha : {0.02, 0.05, 0.25, 1.0}) {
    const double a = VqeDriver::cvar_weighted(per_shot, alpha);
    const double b = VqeDriver::cvar_weighted(collapsed, alpha);
    EXPECT_NEAR(a, b, 1e-9 * (1.0 + std::abs(a))) << alpha;
  }
}

TEST(BoundedEnergyCache, HitsMissesAndCapacityBound) {
  BoundedEnergyCache cache(2);
  EXPECT_EQ(cache.find(1), nullptr);
  cache.insert(1, 10.0);
  cache.insert(2, 20.0);
  cache.insert(3, 30.0);  // beyond capacity: dropped
  const double* one = cache.find(1);
  ASSERT_NE(one, nullptr);
  EXPECT_DOUBLE_EQ(*one, 10.0);
  ASSERT_NE(cache.find(2), nullptr);
  EXPECT_EQ(cache.find(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(BoundedEnergyCache, CachingDoesNotChangeVqeResults) {
  const FoldingHamiltonian h = entry_hamiltonian(entry_by_id("3ckz"));
  VqeOptions base;
  base.max_evaluations = 40;
  base.shots_per_eval = 128;
  base.final_shots = 2000;
  base.seed = 31;

  VqeOptions uncached = base;
  uncached.energy_cache_capacity = 0;
  const VqeResult a = VqeDriver(h, base).run();
  const VqeResult b = VqeDriver(h, uncached).run();
  EXPECT_EQ(a.best_bitstring, b.best_bitstring);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_cvar, b.best_cvar);
  EXPECT_EQ(a.lowest_energy, b.lowest_energy);
  EXPECT_EQ(a.highest_energy, b.highest_energy);
  EXPECT_EQ(a.sampled_min_energy, b.sampled_min_energy);
  EXPECT_EQ(a.history, b.history);
  // The cached run actually reused scores across COBYLA iterations.
  EXPECT_GT(a.energy_cache_hits, 0u);
  EXPECT_EQ(b.energy_cache_hits, 0u);
  EXPECT_GT(a.stage2_distinct, 0u);
  EXPECT_LE(a.stage2_distinct, base.final_shots);
}

void expect_reports_identical(const BatchReport& a, const BatchReport& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].pdb_id, b.jobs[i].pdb_id);
    EXPECT_EQ(a.jobs[i].group, b.jobs[i].group);
    EXPECT_EQ(a.jobs[i].qubits, b.jobs[i].qubits);
    EXPECT_EQ(a.jobs[i].evaluations, b.jobs[i].evaluations);
    EXPECT_EQ(a.jobs[i].shots, b.jobs[i].shots);
    // EXPECT_EQ on doubles: byte-identical accounting.
    EXPECT_EQ(a.jobs[i].device_time_s, b.jobs[i].device_time_s);
    EXPECT_EQ(a.jobs[i].queue_start_s, b.jobs[i].queue_start_s);
    EXPECT_EQ(a.jobs[i].lowest_energy, b.jobs[i].lowest_energy);
  }
  EXPECT_EQ(a.total_device_time_s, b.total_device_time_s);
  EXPECT_EQ(a.total_cost_usd, b.total_cost_usd);
}

TEST(BatchExecutor, ParallelReportIsByteIdenticalToSerial) {
  std::vector<const DatasetEntry*> subset;
  for (const DatasetEntry* e : entries_in_group(Group::S)) {
    subset.push_back(e);
    if (subset.size() == 4) break;
  }
  BatchOptions serial;
  serial.run_vqe = true;
  serial.vqe.max_evaluations = 8;
  serial.vqe.shots_per_eval = 64;
  serial.vqe.final_shots = 400;
  serial.threads = 1;

  BatchOptions parallel = serial;
  parallel.threads = 0;  // all available

  const BatchReport a = run_batch(subset, serial);
  const BatchReport b = run_batch(subset, parallel);
  const BatchReport c = run_batch(subset, parallel);  // repeatable with itself
  expect_reports_identical(a, b);
  expect_reports_identical(b, c);

  // Jobs are still modelled back to back on the device clock.
  for (std::size_t i = 1; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].queue_start_s,
              a.jobs[i - 1].queue_start_s + a.jobs[i - 1].device_time_s);
  }
}

TEST(BatchExecutor, ThreadCountKnobCoversOddCounts) {
  std::vector<const DatasetEntry*> subset;
  for (const DatasetEntry* e : entries_in_group(Group::S)) {
    subset.push_back(e);
    if (subset.size() == 5) break;
  }
  BatchOptions opt;
  opt.run_vqe = true;
  opt.vqe.max_evaluations = 6;
  opt.vqe.shots_per_eval = 64;
  opt.vqe.final_shots = 300;
  opt.threads = 1;
  const BatchReport serial = run_batch(subset, opt);
  opt.threads = 3;
  const BatchReport three = run_batch(subset, opt);
  expect_reports_identical(serial, three);
  // threads >= 4 with more jobs than threads: exercises worker reuse across
  // jobs (the schedule where the TSan build has the most interleavings to
  // explore) and the oversubscribed case threads > jobs via the cap.
  opt.threads = 4;
  const BatchReport four = run_batch(subset, opt);
  expect_reports_identical(serial, four);
  opt.threads = 7;
  const BatchReport seven = run_batch(subset, opt);
  expect_reports_identical(serial, seven);
}

TEST(ParallelHelpers, ThreadCappedForAndComplexReduce) {
  std::vector<int> hit(100, 0);
  parallel_for_threads(100, 2, [&](std::int64_t i) { hit[static_cast<std::size_t>(i)]++; });
  EXPECT_EQ(std::count(hit.begin(), hit.end(), 1), 100);
  const std::complex<double> sum = parallel_reduce(10, [](std::int64_t i) {
    const double d = static_cast<double>(i);
    return std::complex<double>{d, d * d};
  });
  EXPECT_DOUBLE_EQ(sum.real(), 45.0);
  EXPECT_DOUBLE_EQ(sum.imag(), 285.0);
}

}  // namespace
}  // namespace qdb
