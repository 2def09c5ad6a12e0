// qdb_lint: the project's source checker.
//
// clang-tidy covers general C++ hygiene; this tool enforces the
// *QDockBank-specific* conventions that keep the reproduction deterministic,
// its artifacts durable and its concurrency provable, none of which a
// generic linter knows about.  Rules come in three groups ("library" = the
// first path component is src/):
//
// Conventions
//   raw-random          rand()/srand()/time() — all randomness must flow
//                       through qdb::Rng so every run is seed-reproducible.
//   stdout-in-library   std::cout / printf in src/ — library code returns
//                       data; only bench/examples/tools own the terminal.
//   stderr-in-library   std::cerr / fprintf(stderr, ...) in src/ outside
//                       src/obs/ — diagnostics are structured obs::log
//                       events; the logger's default sink is the one
//                       sanctioned stderr writer.
//   missing-pragma-once headers without `#pragma once`.
//   naked-new-delete    raw new/delete — ownership is containers and
//                       values (`= delete` and `operator new/delete`
//                       declarations are exempt).
//   non-atomic-write    write_file()/std::ofstream in src/ — artifacts go
//                       through write_file_atomic so a crash never leaves a
//                       truncated file a resume would then trust.
//   omp-pragma          `#pragma omp` anywhere — the build has no OpenMP
//                       runtime (no -fopenmp), so the pragma would be
//                       ignored and its loop run serially; fan-out goes
//                       through the common/parallel.h wrappers.
//   raw-socket          bare or `::`-qualified socket()/bind()/accept()/
//                       listen()/connect() — socket plumbing lives in
//                       src/serve/net_socket.* (allowlisted).
//   sleep-in-library    sleep_for/sleep_until/usleep/nanosleep in src/
//                       outside src/common/ — library code takes time from
//                       the injectable qdb::Clock so tests run on a
//                       ManualClock.
//   simd-intrinsics     raw AVX2 spellings (immintrin.h, _mm256*, __m256*)
//                       outside src/quantum/kernels.cpp and
//                       src/dock/vina_simd.cpp (allowlisted) — two files
//                       to audit for the QDB_NO_AVX2 fallback.
//   raw-traceparent     the quoted W3C context-header literal in src/ —
//                       src/obs/trace.h (allowlisted) owns the name and its
//                       strict parse/format rules.  Scans raw text: the
//                       banned spelling is a string literal.
//   lenient-number      strtod/strtol/atoi/atof and relatives, and
//                       std::sto*, in src/ — they accept nan, inf, hex, '+'
//                       and trailing text; use Json's number grammar or
//                       std::from_chars on the whole value.
//
// Locking
//   naked-lock           .lock()/.unlock() in src/ — scope a qdb::MutexLock
//                        (common/sync.h, allowlisted, implements it).
//   cv-wait-no-predicate .wait/.wait_for/.wait_until/.wait_for_ms in src/
//                        without a predicate argument.
//   thread-detach        .detach() anywhere — every thread is joined so
//                        shutdown is provable.
//   unannotated-mutex    raw std::mutex / std::condition_variable /
//                        std::lock_guard / std::unique_lock / ... in src/ —
//                        locking goes through the annotated qdb::Mutex
//                        wrappers so Clang's -Wthread-safety sees it.
//
// Architecture (over the include graph of the scanned tree)
//   layer-violation     a src/ module includes a module in a higher layer
//                       of the declared layer map (kLayers, DESIGN.md §13).
//   include-cycle       a file-level include cycle, even within a layer.
//   unknown-module      a src/ module absent from the layer map.
//
// Comments and string literals are stripped before token rules run, so
// prose like "the new atom" never trips a rule.  Findings can be suppressed
// per (file, rule) via an allowlist whose unused entries are themselves
// reported so suppressions cannot go stale silently.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tools/scan_util.h"

namespace qdb::lint {

using qdb::scan::AllowEntry;
using qdb::scan::Diagnostic;
using qdb::scan::apply_allowlist;
using qdb::scan::format_diagnostic;
using qdb::scan::parse_allowlist;
using qdb::scan::strip_comments_and_strings;

/// One parsed project-local include directive.
struct IncludeEdge {
  std::string from_file;  ///< includer, relative path ("src/serve/server.cpp")
  std::string to_file;    ///< included header as written ("serve/server.h")
  int line = 0;           ///< 1-based line of the #include
};

/// The include graph of a source tree: per-file edges plus the module each
/// file belongs to (first path component under src/).
struct IncludeGraph {
  std::vector<IncludeEdge> edges;                ///< sorted by (from, line)
  std::vector<std::string> files;                ///< all scanned files, sorted
  std::map<std::string, std::string> module_of;  ///< file -> module ("" = not src/)
};

/// Findings and include graph of one walk over a tree.
struct TreeScan {
  std::vector<Diagnostic> diags;  ///< sorted by (file, line, rule)
  IncludeGraph graph;
};

/// Layer number for a src/ module, or -1 when the module is not in the
/// declared layer map.  Layer 0 is the bottom (common); higher layers may
/// include lower ones and peers in the same layer, never upward.
int layer_of(const std::string& module);

/// All modules in the declared layer map, sorted by (layer, name) — the
/// ranked rows of the --graph output.
std::vector<std::pair<std::string, int>> layer_map();

/// Run the per-file rules (conventions and locking) on one translation
/// unit.  `relpath` decides rule applicability.  Sorted by (line, rule).
std::vector<Diagnostic> lint_source(const std::string& relpath, const std::string& text);

/// Architecture rules over a graph: include-cycle (file-level DFS),
/// layer-violation (module edge upward in the layer map), unknown-module.
std::vector<Diagnostic> check_architecture(const IncludeGraph& graph);

/// Walk `root`/`dir` for each dir, reading and stripping every .h/.cpp file
/// once: the per-file rules run on it and its project-local
/// `#include "..."` lines become graph edges; the architecture rules then
/// run over the graph.  Directories whose name ends in "_fixtures" are
/// skipped so planted violations never fail the repo gate.
TreeScan scan_tree(const std::filesystem::path& root, const std::vector<std::string>& dirs);

/// The include DAG as a Graphviz digraph: one node per module, `rank=same`
/// rows per layer, de-duplicated module edges; unknown modules are rendered
/// in red so drift is visible in the picture too.
std::string graph_dot(const IncludeGraph& graph);

}  // namespace qdb::lint
