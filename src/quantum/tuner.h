// One-shot autotuner for the fused statevector engine (ISSUE 6).
//
// The only knob worth timing is the cache-block size: it decides how many
// amplitudes stay L1-resident while a run of block-local ops replays over
// them, and the best value depends on qubit count, working precision
// (f64 blocks are twice the bytes of f32) and whether the AVX2 kernels are
// active.  Crucially it is *results-neutral* — any block size produces
// bit-identical amplitudes — so timing noise can never leak into published
// energies or the repo's cross-process determinism goldens.  Knobs that DO
// change bits (the matrix-fusion depth) are deliberately not tuned; they
// are fixed program properties (quantum/fusion.h).
//
// Plans are resolved per (num_qubits, precision, avx2) key, QUDA-style:
// the first request benchmarks a synthetic EfficientSU2-shaped workload
// over a small candidate ladder, then the winner is cached in-process and
// persisted via write_file_atomic so later processes skip the benchmark.
//
// Disk cache: JSON at $QDB_TUNER_CACHE ("off" disables persistence), else
// at $XDG_CACHE_HOME/qdockbank/tuner.json, else at
// $HOME/.cache/qdockbank/tuner.json; with neither set there is no disk
// layer.  Saving creates the parent directory:
//
//   {"version": 1,
//    "plans": {"n16.f32.avx2": {"block_qubits": 11, "best_ms": 0.42}, ...}}
//
// Invalidation: a version bump discards the whole file; the avx2/scalar
// token in the key retires plans tuned under a different dispatch (a cache
// written on an AVX2 host is simply ignored, key by key, on a scalar one).
// Unreadable or malformed files are treated as absent — the tuner then
// re-benchmarks and rewrites.
#pragma once

#include <map>
#include <string>

#include "common/annotations.h"
#include "common/sync.h"
#include "quantum/kernels.h"

namespace qdb {

struct TunerPlan {
  int block_qubits = 0;
  double best_ms = 0.0;  ///< winning candidate's wall time (informational)
  /// Where the plan came from: "tuned", "memory", "disk" or "default".
  std::string source;
};

class Tuner {
 public:
  /// Process-wide instance (the engine constructor consults it).
  static Tuner& global();

  /// Resolve the plan for (num_qubits, precision), benchmarking on first
  /// use.  Thread-safe; concurrent callers serialise on the plan mutex.
  TunerPlan plan_for(int num_qubits, Precision precision) QDB_EXCLUDES(mu_);

  /// Cache file path: $QDB_TUNER_CACHE, else under $XDG_CACHE_HOME (if
  /// absolute), else under $HOME/.cache.  Empty, so no disk layer, for
  /// QDB_TUNER_CACHE=off or when neither directory is known.
  static std::string cache_path();

  /// Drop the in-process cache and force a disk reload on next use (tests).
  void clear_memory() QDB_EXCLUDES(mu_);

  /// On-disk format version; bumping it retires every persisted plan.
  static constexpr int kFormatVersion = 2;

 private:
  // *_locked helpers run with mu_ held by the caller (the QDB_REQUIRES
  // contract Clang enforces); tune_locked keeps the lock across the
  // benchmark on purpose so concurrent first-use callers do not race
  // duplicate timings onto the same cores.
  TunerPlan tune_locked(int num_qubits, Precision precision) QDB_REQUIRES(mu_);
  void load_disk_locked() QDB_REQUIRES(mu_);
  void save_disk_locked() QDB_REQUIRES(mu_);

  Mutex mu_;
  std::map<std::string, TunerPlan> plans_ QDB_GUARDED_BY(mu_);
  bool disk_loaded_ QDB_GUARDED_BY(mu_) = false;
};

}  // namespace qdb
