#include "tools/qdb_lint.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "tools/scan_util.h"

namespace qdb::lint {

namespace {

using qdb::scan::LineIndex;
using qdb::scan::first_component_is;
using qdb::scan::for_each_token;
using qdb::scan::has_dir_prefix;
using qdb::scan::is_header;
using qdb::scan::is_ident_char;
using qdb::scan::kBare;
using qdb::scan::kGlobal;
using qdb::scan::kMember;
using qdb::scan::kPrefix;
using qdb::scan::kQualified;
using qdb::scan::kStd;
using qdb::scan::previous_nonspace;
using qdb::scan::previous_word;
using qdb::scan::skip_ws;

/// A rule that is nothing but "these tokens, in these spellings, in this
/// part of the tree": each accepted occurrence is one finding.  `{}` in the
/// message stands for the matched token.
struct TokenRule {
  const char* rule;
  std::vector<std::string> tokens;
  unsigned spellings;
  bool call;               ///< only where the next non-space char is '('
  bool library;            ///< only in src/
  const char* exempt_dir;  ///< a src/ subtree the rule skips, or nullptr
  const char* message;
};

const std::vector<TokenRule>& token_rules() {
  static const std::vector<TokenRule> kRules = {
      // Conventions.
      {"raw-random", {"rand", "srand", "time"}, kBare | kStd, true, false, nullptr,
       "raw {}() call — use qdb::Rng so runs stay seed-reproducible"},
      {"stdout-in-library", {"cout"}, kStd, false, true, nullptr,
       "std::cout in library code — return data; printing belongs to "
       "bench/examples/tools"},
      {"stdout-in-library", {"printf"}, kBare | kStd, true, true, nullptr,
       "printf in library code — return data; printing belongs to "
       "bench/examples/tools"},
      {"stderr-in-library", {"cerr"}, kStd, false, true, "src/obs/",
       "std::cerr in library code — emit a structured obs::log event "
       "(src/obs/log.cpp owns the stderr sink)"},
      {"non-atomic-write", {"write_file"}, kBare, true, true, nullptr,
       "write_file() in library code — use write_file_atomic so a crash "
       "never leaves a truncated artifact"},
      {"non-atomic-write", {"ofstream"}, kBare | kStd, false, true, nullptr,
       "std::ofstream in library code — route writes through "
       "write_file_atomic"},
      {"raw-socket", {"socket", "bind", "accept", "listen", "connect"}, kBare | kGlobal, true,
       false, nullptr,
       "raw {}() call — socket plumbing belongs to the serve/net_socket "
       "wrapper (RAII fds, EINTR handling, shutdown semantics)"},
      // Qualified spellings (std::this_thread::sleep_for, ::usleep) are the
      // banned calls; members (`timer.sleep_for`) are somebody else's API.
      {"sleep-in-library", {"sleep_for", "sleep_until", "usleep", "nanosleep"},
       kBare | kQualified, true, true, "src/common/",
       "blocking {}() in library code — take time from an injectable "
       "qdb::Clock (common/clock.h) so tests control the clock"},
      {"simd-intrinsics", {"immintrin.h", "_mm256", "__m256"},
       kBare | kQualified | kMember | kPrefix, false, false, nullptr,
       "raw SIMD intrinsic ({}) — vector kernels belong to src/quantum/kernels.cpp or "
       "src/dock/vina_simd.cpp, behind their runtime dispatch and QDB_NO_AVX2 fallback"},
      {"lenient-number",
       {"strtod", "strtof", "strtold", "strtol", "strtoll", "strtoul", "strtoull", "atoi",
        "atol", "atoll", "atof", "stoi", "stol", "stoll", "stoul", "stoull", "stof", "stod",
        "stold"},
       kBare | kStd, true, true, nullptr,
       "lenient {}() — it accepts nan, inf, hex, '+' and trailing text; use "
       "Json's number grammar or std::from_chars on the whole value"},
      // Locking.
      {"naked-lock", {"lock", "unlock"}, kMember, true, true, nullptr,
       "naked .{}() — scope a qdb::MutexLock instead so the unlock is "
       "exception-safe and visible to Clang thread-safety analysis"},
      {"thread-detach", {"detach"}, kMember, true, false, nullptr,
       ".detach() — every thread must be joined (owning RAII member or "
       "explicit join in stop()) so shutdown is provable"},
      {"unannotated-mutex",
       {"mutex", "timed_mutex", "recursive_mutex", "shared_mutex", "condition_variable",
        "condition_variable_any", "lock_guard", "unique_lock", "scoped_lock"},
       kStd, false, true, nullptr,
       "raw std::{} — use the annotated qdb::Mutex / qdb::MutexLock / "
       "qdb::CondVar wrappers (common/sync.h) so -Werror=thread-safety can "
       "check the lock discipline"},
  };
  return kRules;
}

std::string fill(const char* message, const std::string& token) {
  std::string out = message;
  const std::size_t at = out.find("{}");
  if (at != std::string::npos) out.replace(at, 2, token);
  return out;
}

/// Count the arguments of the call whose '(' is at `open` (balanced parens,
/// brackets and braces; commas at top level separate arguments).  Returns -1
/// when the call is unterminated (truncated file).
int count_call_args(const std::string& text, std::size_t open) {
  int depth = 0;
  int commas = 0;
  bool any_tokens = false;
  for (std::size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '[' || c == '{') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) return any_tokens ? commas + 1 : 0;
    } else if (depth == 1) {
      if (c == ',') ++commas;
      else if (!std::isspace(static_cast<unsigned char>(c))) any_tokens = true;
    }
  }
  return -1;
}

/// The per-file rules over `text` and its stripped twin `code` (same
/// offsets, same lines).  Appends to `diags` unsorted.
void lint_file(const std::string& relpath, const std::string& text, const std::string& code,
               const LineIndex& lines, std::vector<Diagnostic>* diags) {
  const bool library = first_component_is(relpath, "src");
  auto add = [&](std::size_t offset, const char* rule, std::string message) {
    diags->push_back({relpath, lines.line_of(offset), rule, std::move(message)});
  };

  for (const TokenRule& r : token_rules()) {
    if (r.library && !library) continue;
    if (r.exempt_dir != nullptr && has_dir_prefix(relpath, r.exempt_dir)) continue;
    for (const std::string& tok : r.tokens) {
      for_each_token(code, tok, r.spellings, r.call,
                     [&](std::size_t pos) { add(pos, r.rule, fill(r.message, tok)); });
    }
  }

  // stderr-in-library, the fprintf(stderr, ...) spelling: the first
  // argument decides, so it is not a table row.
  if (library && !has_dir_prefix(relpath, "src/obs/")) {
    for_each_token(code, "fprintf", kBare | kStd, true, [&](std::size_t pos) {
      const std::size_t arg = skip_ws(code, skip_ws(code, pos + 7) + 1);
      if (code.compare(arg, 6, "stderr") != 0) return;
      if (arg + 6 < code.size() && is_ident_char(code[arg + 6])) return;
      add(pos, "stderr-in-library",
          "fprintf(stderr, ...) in library code — emit a structured obs::log "
          "event (src/obs/log.cpp owns the stderr sink)");
    });
  }

  // missing-pragma-once: headers only; checked on raw text (pragmas are never
  // inside literals in this codebase, and the stripper does not touch them).
  if (is_header(relpath) && text.find("#pragma once") == std::string::npos) {
    diags->push_back({relpath, 1, "missing-pragma-once", "header lacks #pragma once"});
  }

  // naked-new-delete: raw ownership.  `= delete` and operator new/delete
  // declarations are legitimate uses of the keywords.
  for_each_token(code, "new", kBare, false, [&](std::size_t pos) {
    if (previous_word(code, pos) == "operator") return;
    add(pos, "naked-new-delete",
        "naked new — use containers or std::make_unique for ownership");
  });
  for_each_token(code, "delete", kBare, false, [&](std::size_t pos) {
    if (previous_nonspace(code, pos) == '=') return;  // deleted function
    if (previous_word(code, pos) == "operator") return;
    add(pos, "naked-new-delete", "naked delete — ownership must be RAII-managed");
  });

  // omp-pragma: the tree builds without -fopenmp, so a stray pragma would
  // quietly compile to a serial loop; fan-out goes through parallel.h.
  for (std::size_t pos = code.find("#pragma omp"); pos != std::string::npos;
       pos = code.find("#pragma omp", pos + 1)) {
    add(pos, "omp-pragma",
        "#pragma omp — the build has no OpenMP runtime, so this loop would run "
        "serially; use the common/parallel.h wrappers");
  }

  // raw-traceparent: the W3C context header is named in exactly one place,
  // src/obs/trace.h (allowlisted home of kTraceparentHeader), so strictness
  // rules cannot fork between hand-rolled copies.  The banned spelling is a
  // string literal, which the stripper removes, so this scans the RAW text.
  if (library) {
    const std::string needle = "\"traceparent\"";
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
      add(pos, "raw-traceparent",
          "hand-rolled traceparent literal — use obs::kTraceparentHeader "
          "with parse_traceparent/format_traceparent (src/obs/trace.h owns "
          "the header and its strictness rules)");
    }
  }

  // cv-wait-no-predicate: `.wait(x)` (one argument) is the lost-wakeup-prone
  // raw overload; `.wait_for(x, dur)` / `.wait_until(x, tp)` without a third
  // argument return on spurious wakeups too.  qdb::CondVar's API makes the
  // predicate structural; this catches regressions to the raw types.
  if (library) {
    struct WaitRule {
      const char* token;
      int min_args;
    };
    for (const WaitRule& w : {WaitRule{"wait", 2}, WaitRule{"wait_for", 3},
                              WaitRule{"wait_until", 3}, WaitRule{"wait_for_ms", 3}}) {
      const std::string token = w.token;
      for_each_token(code, token, kMember, true, [&](std::size_t pos) {
        const int args = count_call_args(code, skip_ws(code, pos + token.size()));
        if (args < 0 || args >= w.min_args) return;
        add(pos, "cv-wait-no-predicate",
            "." + token + "() without a predicate argument — " +
                "spurious wakeups and missed notifications are silent here; "
                "pass the condition as a lambda (qdb::CondVar requires it)");
      });
    }
  }
}

/// The declared layer map.  Lower layer = closer to the bottom; a module may
/// include its own layer and below, never above.  Kept here (not in a config
/// file) so changing the architecture is a reviewed code change, and the
/// rationale stays next to the data:
///
///   0  common       leaf utilities: error, json, rng, clock, sync, contracts
///   1  obs          metrics/trace/log — everything above may instrument
///   2  geom quantum lattice optimize transpile structure   domain cores
///   3  vqe data dock baseline core    pipelines over the domain cores
///   4  screen       virtual-screening funnel over dock (grids, libraries)
///   5  store        content-addressed artifact store over data records
///   6  serve        HTTP service over the store (mounts /screen on screen)
///   7  orchestrate  distributed coordination over serve + store
///
/// obs sits low because the lattice/quantum/dock layers log and count
/// through it; see DESIGN.md §13.
struct LayerEntry {
  const char* module;
  int layer;
};
constexpr LayerEntry kLayers[] = {
    {"common", 0},   {"obs", 1},      {"geom", 2},      {"quantum", 2},
    {"lattice", 2},  {"optimize", 2}, {"transpile", 2}, {"structure", 2},
    {"vqe", 3},      {"data", 3},     {"dock", 3},      {"baseline", 3},
    {"core", 3},     {"screen", 4},   {"store", 5},     {"serve", 6},
    {"orchestrate", 7},
};

/// Module of a path under the scan root: "src/serve/server.cpp" -> "serve";
/// anything not under src/ (tools, tests, bench) -> "".
std::string module_of_path(const std::string& relpath) {
  if (!first_component_is(relpath, "src")) return "";
  const std::size_t start = relpath.find('/');
  if (start == std::string::npos) return "";
  const std::size_t end = relpath.find('/', start + 1);
  if (end == std::string::npos) return "";
  return relpath.substr(start + 1, end - start - 1);
}

/// Module of an include target as written: "serve/http.h" -> "serve".
std::string module_of_include(const std::string& target) {
  const std::size_t slash = target.find('/');
  if (slash == std::string::npos) return "";
  return target.substr(0, slash);
}

/// Add `relpath` and its project-local `#include "..."` edges to `graph`.
/// Include paths live inside string literals, which the stripper blanks;
/// they are read from the RAW text, with the stripped `code` consulted only
/// to skip directives inside comments.
void collect_includes(const std::string& relpath, const std::string& text,
                      const std::string& code, const LineIndex& lines, IncludeGraph* graph) {
  graph->files.push_back(relpath);
  graph->module_of[relpath] = module_of_path(relpath);
  for (std::size_t pos = text.find("#include"); pos != std::string::npos;
       pos = text.find("#include", pos + 1)) {
    if (code.compare(pos, 8, "#include") != 0) continue;  // commented out
    const std::size_t q = skip_ws(text, pos + 8);
    if (q >= text.size() || text[q] != '"') continue;  // <...> or malformed
    const std::size_t close = text.find('"', q + 1);
    if (close == std::string::npos) continue;
    graph->edges.push_back({relpath, text.substr(q + 1, close - q - 1), lines.line_of(pos)});
  }
}

/// Resolve an include target to a scanned file: as written from the root
/// ("tools/scan_util.h"), under src/ (the src include convention), or next
/// to the includer (tests' same-directory fixtures).  Empty when the target
/// is outside the scanned tree (system-adjacent or generated).
std::string resolve_target(const std::set<std::string>& files,
                           const std::string& from_file, const std::string& target) {
  if (files.count(target) != 0) return target;
  const std::string under_src = "src/" + target;
  if (files.count(under_src) != 0) return under_src;
  const std::size_t slash = from_file.rfind('/');
  if (slash != std::string::npos) {
    const std::string sibling = from_file.substr(0, slash + 1) + target;
    if (files.count(sibling) != 0) return sibling;
  }
  return "";
}

}  // namespace

int layer_of(const std::string& module) {
  for (const LayerEntry& e : kLayers) {
    if (module == e.module) return e.layer;
  }
  return -1;
}

std::vector<std::pair<std::string, int>> layer_map() {
  std::vector<std::pair<std::string, int>> out;
  for (const LayerEntry& e : kLayers) out.emplace_back(e.module, e.layer);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  });
  return out;
}

std::vector<Diagnostic> lint_source(const std::string& relpath, const std::string& text) {
  const std::string code = strip_comments_and_strings(text);
  std::vector<Diagnostic> diags;
  lint_file(relpath, text, code, LineIndex(code), &diags);
  qdb::scan::sort_diagnostics(diags);
  return diags;
}

std::vector<Diagnostic> check_architecture(const IncludeGraph& graph) {
  std::vector<Diagnostic> diags;
  const std::set<std::string> files(graph.files.begin(), graph.files.end());

  // unknown-module: every src/ module must appear in the layer map, so a new
  // top-level directory is a deliberate, reviewed placement.
  std::set<std::string> reported_unknown;
  for (const std::string& file : graph.files) {
    const std::string mod = graph.module_of.at(file);
    if (mod.empty() || layer_of(mod) >= 0) continue;
    if (!reported_unknown.insert(mod).second) continue;
    diags.push_back({file, 1, "unknown-module",
                     "module 'src/" + mod +
                         "' is not in the declared layer map — add it to "
                         "kLayers in tools/qdb_lint.cpp (and DESIGN.md §13) "
                         "at a deliberate layer"});
  }

  // layer-violation: a src/ file may include modules at its own layer or
  // below, never above.
  for (const IncludeEdge& e : graph.edges) {
    const std::string from_mod = graph.module_of.at(e.from_file);
    if (from_mod.empty()) continue;  // tools/tests/bench see every layer
    const int from_layer = layer_of(from_mod);
    if (from_layer < 0) continue;  // already reported as unknown-module
    const std::string to_mod = module_of_include(e.to_file);
    if (to_mod.empty() || to_mod == from_mod) continue;
    const int to_layer = layer_of(to_mod);
    // An unmapped target has no layer to compare; if it was scanned, the
    // loop above already reported it as unknown-module.
    if (to_layer < 0) continue;
    if (to_layer > from_layer) {
      diags.push_back(
          {e.from_file, e.line, "layer-violation",
           "'" + from_mod + "' (layer " + std::to_string(from_layer) +
               ") includes '" + e.to_file + "' from '" + to_mod + "' (layer " +
               std::to_string(to_layer) +
               ") — dependencies must point down the layer map (DESIGN.md §13)"});
    }
  }

  // include-cycle: file-level DFS over resolved edges.  Runs on the full
  // graph (not just src/) so a tools/tests header cycle is caught too.
  // Same-layer module cycles (quantum <-> transpile) are legal only while
  // the *files* stay acyclic, which is exactly what this enforces.
  std::unordered_map<std::string, std::vector<const IncludeEdge*>> adj;
  for (const IncludeEdge& e : graph.edges) {
    const std::string target = resolve_target(files, e.from_file, e.to_file);
    if (!target.empty() && target != e.from_file) adj[e.from_file].push_back(&e);
  }
  // 0 = unvisited, 1 = on the current DFS path, 2 = done.
  std::unordered_map<std::string, int> color;
  std::vector<std::string> path;  // files whose edge the DFS is following
  // Iterative DFS so a deep include chain cannot overflow the stack.
  struct Frame {
    std::string file;
    std::size_t next = 0;
  };
  for (const std::string& start : graph.files) {
    if (color[start] != 0) continue;
    std::vector<Frame> stack;
    stack.push_back({start, 0});
    color[start] = 1;
    while (!stack.empty()) {
      Frame& top = stack.back();
      const auto it = adj.find(top.file);
      const std::size_t fanout = it == adj.end() ? 0 : it->second.size();
      if (top.next >= fanout) {
        color[top.file] = 2;
        stack.pop_back();
        if (!path.empty()) path.pop_back();
        continue;
      }
      const IncludeEdge* e = it->second[top.next++];
      const std::string target = resolve_target(files, e->from_file, e->to_file);
      if (color[target] == 1) {
        // Back edge: reconstruct the cycle from the DFS path.
        std::string chain = target;
        bool in_cycle = false;
        for (const std::string& file : path) {
          if (file == target) in_cycle = true;
          if (in_cycle) chain += " -> " + file;
        }
        chain += " -> " + e->from_file + " -> " + target;
        // The path above starts at `target`, so drop the duplicated head.
        const std::string head = target + " -> " + target;
        if (chain.compare(0, head.size(), head) == 0) {
          chain = chain.substr(target.size() + 4);
        }
        diags.push_back({e->from_file, e->line, "include-cycle",
                         "include cycle: " + chain});
      } else if (color[target] == 0) {
        color[target] = 1;
        path.push_back(top.file);
        stack.push_back({target, 0});
      }
    }
  }

  qdb::scan::sort_diagnostics(diags);
  return diags;
}

TreeScan scan_tree(const std::filesystem::path& root, const std::vector<std::string>& dirs) {
  TreeScan scan;
  qdb::scan::for_each_source_file(
      root, dirs, [&](const std::string& relpath, const std::string& text) {
        const std::string code = strip_comments_and_strings(text);
        const LineIndex lines(code);
        lint_file(relpath, text, code, lines, &scan.diags);
        collect_includes(relpath, text, code, lines, &scan.graph);
      });
  IncludeGraph& graph = scan.graph;
  std::sort(graph.files.begin(), graph.files.end());
  std::sort(graph.edges.begin(), graph.edges.end(),
            [](const IncludeEdge& a, const IncludeEdge& b) {
              if (a.from_file != b.from_file) return a.from_file < b.from_file;
              return a.line != b.line ? a.line < b.line : a.to_file < b.to_file;
            });
  const std::vector<Diagnostic> arch = check_architecture(graph);
  scan.diags.insert(scan.diags.end(), arch.begin(), arch.end());
  qdb::scan::sort_diagnostics(scan.diags);
  return scan;
}

std::string graph_dot(const IncludeGraph& graph) {
  std::ostringstream out;
  out << "digraph qdb_include_graph {\n";
  out << "  rankdir=BT;\n";
  out << "  node [shape=box, fontname=\"Helvetica\"];\n";
  // Collect the modules that actually appear (as includer or include target
  // of a src/ file), so the picture tracks the tree, not the map.
  std::set<std::string> present;
  std::set<std::pair<std::string, std::string>> module_edges;
  for (const auto& [file, mod] : graph.module_of) {
    (void)file;
    if (!mod.empty()) present.insert(mod);
  }
  for (const IncludeEdge& e : graph.edges) {
    const auto it = graph.module_of.find(e.from_file);
    const std::string from_mod = it == graph.module_of.end() ? "" : it->second;
    if (from_mod.empty()) continue;
    present.insert(from_mod);
    const std::string to_mod = module_of_include(e.to_file);
    if (to_mod.empty() || layer_of(to_mod) < 0) continue;
    present.insert(to_mod);
    if (to_mod != from_mod) module_edges.emplace(from_mod, to_mod);
  }
  // One rank row per layer (bottom-up thanks to rankdir=BT); unknown modules
  // get their own red row at the top so drift is visible in the picture.
  int max_layer = 0;
  for (const auto& [mod, layer] : layer_map()) {
    (void)mod;
    max_layer = std::max(max_layer, layer);
  }
  for (int layer = 0; layer <= max_layer; ++layer) {
    std::string row;
    for (const auto& [mod, mod_layer] : layer_map()) {
      if (mod_layer != layer || present.count(mod) == 0) continue;
      row += " \"" + mod + "\";";
    }
    if (!row.empty()) {
      out << "  { rank=same;" << row << " }  // layer " << layer << "\n";
    }
  }
  for (const std::string& mod : present) {
    if (layer_of(mod) < 0) {
      out << "  \"" << mod << "\" [color=red, fontcolor=red];  // unknown module\n";
    }
  }
  for (const auto& [from, to] : module_edges) {
    out << "  \"" << from << "\" -> \"" << to << "\";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace qdb::lint
