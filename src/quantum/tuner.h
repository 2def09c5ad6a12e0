// The three Tuner calls perfbench/util.cpp makes (cold_tuner_warmup),
// kept so the benchmark harness still builds now that the fused engine's
// cache block is a fixed rule (default_block_qubits in quantum/kernels.h)
// and nothing is timed or cached.  Only perfbench includes this header;
// ROADMAP item 1's benchmark change deletes it when it redefines setup_s.
#pragma once

#include <cstdlib>
#include <string>

#include "quantum/kernels.h"

namespace qdb {

class Tuner {
 public:
  static Tuner& global() {
    static Tuner instance;
    return instance;
  }

  /// The engine's own rule; the precision does not enter it.
  int plan_for(int num_qubits, Precision /*precision*/) const {
    return default_block_qubits(num_qubits);
  }

  /// Nothing is cached in memory.
  void clear_memory() {}

  /// $QDB_TUNER_CACHE, or "" when it is unset or "off" (the old switch
  /// that disabled the cache), so perfbench never deletes a stray file
  /// named "off".  Nothing is read from or written to this path.
  static std::string cache_path() {
    const char* env = std::getenv("QDB_TUNER_CACHE");
    if (env == nullptr || std::string(env) == "off") return std::string();
    return std::string(env);
  }
};

}  // namespace qdb
