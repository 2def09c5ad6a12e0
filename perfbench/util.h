// Shared pieces of the perfbench harness: run arguments, the metric sink,
// timing and percentile helpers, the environment pins every workload relies
// on (cold tuner warm-up, seeded permutations), and the layer-by-layer
// evaluation chain that both eval6 and the serve_mix store build use.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "data/registry.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory owned by this run
};

/// Metrics in insertion order, printed as {"name": {"value": v, "unit": u}}.
/// Each name is set once per run.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string to_json() const;

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Outcome of one benchmark run: the operation tally and every metric.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  Metrics metrics;

  /// Record a correctness mismatch; it counts as one failed operation.
  void mismatch(const std::string& what);
};

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Time of `fn()` in seconds.
template <class Fn>
double timed(Fn&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Seeded Fisher-Yates permutation of [0, n).
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

/// Registry entries by PDB id, in the given order.
std::vector<const qdb::DatasetEntry*> entries_by_id(const std::vector<std::string>& ids);

/// The stratified eval6 set: two S, two M and two L entries.
const std::vector<std::string>& eval6_ids();

/// Cold autotuner warm-up: drop the in-process plans and the on-disk cache
/// ($QDB_TUNER_CACHE, which run.py pins inside this run's scratch
/// directory), then resolve the f32 and f64 plans for every register size
/// the dense engine runs for these entries.  Returns its wall time.
double cold_tuner_warmup(const std::vector<const qdb::DatasetEntry*>& entries);

/// `reps` timed calls of `setup`; prints every sample with its steal share
/// and returns the median of the clean ones (the setup_s figure).
template <class Fn>
double median_setup_s(const char* workload, int reps, Fn&& setup);

/// Aggregate CPU time counters of the host VM, from /proc/stat (ticks).
struct CpuTicks {
  double steal = 0.0;  ///< time the hypervisor ran something else
  double total = 0.0;
};
CpuTicks cpu_ticks();

/// Share of the CPU time between two readings that the hypervisor stole.
double steal_share(const CpuTicks& before, const CpuTicks& after);

/// A sample is clean when the hypervisor stole at most this share of the
/// CPU time while it was measured.  On a shared host, samples above it
/// measure the host rather than the program.
inline constexpr double kMaxStealShare = 0.02;

/// The clean values; when fewer than `min_clean` are clean, the `min_clean`
/// values with the least steal (all values if there are fewer).
std::vector<double> clean(const std::vector<double>& values, const std::vector<double>& steal,
                          std::size_t min_clean);

/// Number of hardware threads (nproc).
int hardware_threads();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Prints "<workload>: <what> samples (steal share): v (s) ..." on stdout.
void print_samples(const char* workload, const char* what, const std::vector<double>& values,
                   const std::vector<double>& steal);

/// Bit-exact equality of two doubles.
bool same_bits(double a, double b);

/// Fresh empty directory (removes any previous contents); returns `path`.
std::string fresh_dir(const std::string& path);

/// Throughput lost to tracing, in percent of the untraced rate.
double overhead_pct(double untraced_rate, double traced_rate);

/// One entry evaluated through the layer calls Pipeline::evaluate makes,
/// each timed separately.  The Evaluation is assembled exactly as
/// Pipeline::evaluate assembles it, so eval6 can demand bit-equality.
struct ChainResult {
  const qdb::DatasetEntry* entry = nullptr;
  qdb::Prediction prediction;
  qdb::DockingResult docking;
  qdb::Evaluation evaluation;
  bool dense = false;  ///< VQE ran on the fused dense engine (else MPS)
  double reference_s = 0.0;
  double imprint_s = 0.0;
  double predict_s = 0.0;
  double dock_s = 0.0;
  double total_s = 0.0;  ///< whole chain, including RMSD and assembly
};

ChainResult evaluate_by_layers(const qdb::Pipeline& pipeline, const qdb::DatasetEntry& entry);

// --- workloads and layer sweeps ---------------------------------------------
//
// run_<workload> measures one workload.  Untraced runs fill the end-to-end
// metrics; traced runs fill trace.overhead_pct instead (the workload's
// throughput with an obs::TraceSession recording, against without).
// sweep_<group>_layers times the calls into each layer's public functions
// and fills the per-layer metrics; a traced run performs every sweep, so each
// traced run reports every per-layer metric.

void run_eval6(const Args& args, Outcome& out);
void run_fold_batch(const Args& args, Outcome& out);
void run_serve_mix(const Args& args, Outcome& out);

/// Returns the chain results, which sweep_serve_layers ingests as its store.
std::vector<ChainResult> sweep_eval_layers(const Args& args, Outcome& out);
void sweep_fold_layers(const Args& args, Outcome& out);
void sweep_serve_layers(const Args& args, const std::vector<ChainResult>& chain,
                        Outcome& out);

template <class Fn>
double median_setup_s(const char* workload, int reps, Fn&& setup) {
  std::vector<double> seconds, steal;
  for (int k = 0; k < reps; ++k) {
    const CpuTicks before = cpu_ticks();
    seconds.push_back(setup());
    steal.push_back(steal_share(before, cpu_ticks()));
  }
  print_samples(workload, "setup_s", seconds, steal);
  return median(clean(seconds, steal, 3));
}

}  // namespace perfbench
