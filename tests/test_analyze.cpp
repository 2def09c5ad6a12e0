// Tests for tools/qdb_lint's architecture and locking rules: the declared
// layer map, include-graph construction, architecture rules (cycle / upward
// include / unknown module) with exact file:line assertions against
// tests/analyze_fixtures/proj, the lock-hygiene token rules and their
// near-misses, allowlist round-trip with stale-entry detection, and Graphviz
// output, and the architecture/locking half of the repo gate (the full
// gate against the allowlist lives in test_lint.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/qdb_lint.h"

namespace qdb::lint {
namespace {

const std::string kFixtureRoot =
    std::string(QDB_SOURCE_DIR) + "/tests/analyze_fixtures/proj";

std::vector<Diagnostic> of_rule(const std::vector<Diagnostic>& diags,
                                const std::string& rule) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) out.push_back(d);
  }
  return out;
}

bool has_at(const std::vector<Diagnostic>& diags, const std::string& file,
            int line, const std::string& rule) {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.file == file && d.line == line && d.rule == rule;
  });
}

// --- layer map --------------------------------------------------------------

TEST(LayerMap, DeclaredModulesGetTheirLayersAndUnknownsGetMinusOne) {
  EXPECT_EQ(layer_of("common"), 0);
  EXPECT_EQ(layer_of("obs"), 1);
  EXPECT_EQ(layer_of("quantum"), 2);
  EXPECT_EQ(layer_of("transpile"), 2);  // same layer as quantum (peer cycle)
  EXPECT_EQ(layer_of("vqe"), 3);
  EXPECT_EQ(layer_of("screen"), 4);
  EXPECT_EQ(layer_of("store"), 5);
  EXPECT_EQ(layer_of("serve"), 6);
  EXPECT_EQ(layer_of("orchestrate"), 7);
  EXPECT_EQ(layer_of("gadgets"), -1);
  EXPECT_EQ(layer_of(""), -1);
}

TEST(LayerMap, MapIsSortedByLayerThenName) {
  const auto map = layer_map();
  ASSERT_FALSE(map.empty());
  EXPECT_EQ(map.front().first, "common");
  EXPECT_EQ(map.back().first, "orchestrate");
  for (std::size_t i = 1; i < map.size(); ++i) {
    EXPECT_LE(map[i - 1].second, map[i].second);
  }
}

// --- include graph ----------------------------------------------------------

TEST(IncludeGraph, ParsesQuotedIncludesWithModulesAndLines) {
  const IncludeGraph g = scan_tree(kFixtureRoot, {"src"}).graph;
  EXPECT_EQ(g.files.size(), 7u);
  EXPECT_EQ(g.module_of.at("src/common/upward.h"), "common");
  EXPECT_EQ(g.module_of.at("src/serve/handler.cpp"), "serve");
  // upward.h has exactly ONE edge: the commented-out includes are skipped.
  int upward_edges = 0;
  for (const IncludeEdge& e : g.edges) {
    if (e.from_file != "src/common/upward.h") continue;
    ++upward_edges;
    EXPECT_EQ(e.to_file, "serve/handler.h");
    EXPECT_EQ(e.line, 4);
  }
  EXPECT_EQ(upward_edges, 1);
}

// --- architecture rules (exact file:line against the fixture project) ------

TEST(Architecture, FixtureProjectProducesEachDiagnosticAtItsExactLine) {
  const std::vector<Diagnostic> diags =
      check_architecture(scan_tree(kFixtureRoot, {"src"}).graph);
  // The DFS visits cycle_a.h first (sorted order), so the back edge is
  // cycle_b.h's include on line 5 — and the cycle is reported exactly once
  // even though serve/handler.h also reaches it.
  const auto cycles = of_rule(diags, "include-cycle");
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].file, "src/common/cycle_b.h");
  EXPECT_EQ(cycles[0].line, 5);
  EXPECT_NE(cycles[0].message.find("src/common/cycle_a.h -> src/common/cycle_b.h "
                                   "-> src/common/cycle_a.h"),
            std::string::npos);

  // Two upward includes: common -> serve and screen -> serve. The second is
  // the fixture for the screening funnel: screen (layer 4) must never see
  // the HTTP layer.
  const auto upward = of_rule(diags, "layer-violation");
  ASSERT_EQ(upward.size(), 2u);
  EXPECT_TRUE(has_at(upward, "src/common/upward.h", 4, "layer-violation"));
  EXPECT_TRUE(has_at(upward, "src/screen/filter.h", 5, "layer-violation"));

  const auto unknown = of_rule(diags, "unknown-module");
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].file, "src/gadgets/widget.h");
  EXPECT_EQ(unknown[0].line, 1);

  EXPECT_EQ(diags.size(), 4u);  // nothing else fires
}

TEST(Architecture, DownwardAndSameLayerIncludesAreLegal) {
  IncludeGraph g;
  g.files = {"src/quantum/gate.h", "src/serve/server.cpp", "src/transpile/pass.h"};
  g.module_of = {{"src/quantum/gate.h", "quantum"},
                 {"src/serve/server.cpp", "serve"},
                 {"src/transpile/pass.h", "transpile"}};
  g.edges = {{"src/serve/server.cpp", "quantum/gate.h", 10},   // downward
             {"src/quantum/gate.h", "transpile/pass.h", 3}};   // same layer
  EXPECT_TRUE(check_architecture(g).empty());
}

// --- lock hygiene (exact file:line via the fixture) -------------------------

TEST(LockHygiene, FixtureProjectProducesEachDiagnosticAtItsExactLine) {
  const std::vector<Diagnostic> diags = scan_tree(kFixtureRoot, {"src"}).diags;
  const std::string f = "src/serve/handler.cpp";
  EXPECT_TRUE(has_at(diags, f, 7, "unannotated-mutex"));   // std::mutex
  EXPECT_TRUE(has_at(diags, f, 8, "unannotated-mutex"));   // std::condition_variable
  EXPECT_TRUE(has_at(diags, f, 11, "naked-lock"));         // .lock()
  EXPECT_TRUE(has_at(diags, f, 12, "unannotated-mutex"));  // std::unique_lock
  EXPECT_TRUE(has_at(diags, f, 13, "cv-wait-no-predicate"));
  EXPECT_TRUE(has_at(diags, f, 14, "naked-lock"));         // .unlock()
  EXPECT_TRUE(has_at(diags, f, 15, "thread-detach"));
  // 7 hygiene findings + 4 architecture findings, nothing more: the
  // predicated wait, free-function wait() and try_lock() stay silent.
  EXPECT_EQ(diags.size(), 11u);
}

TEST(LockHygiene, WaitVariantsRequireTheirPredicateArity) {
  const std::string two_arg_wait_for = "void f() { cv.wait_for(lk, ms); }";
  EXPECT_EQ(of_rule(lint_source("src/a.cpp", two_arg_wait_for),
                    "cv-wait-no-predicate")
                .size(),
            1u);
  const std::string ok =
      "void f() { cv.wait_for(lk, ms, [] { return done; }); "
      "cv.wait_until(lk, tp, pred); cv_.wait_for_ms(mu_, 50, pred); }";
  EXPECT_TRUE(of_rule(lint_source("src/a.cpp", ok), "cv-wait-no-predicate")
                  .empty());
  // wait_for_ms must not be mistaken for wait_for (token boundary).
  const std::string qdb_wait = "void f() { cv_.wait_for_ms(mu_, 50, pred); }";
  EXPECT_TRUE(lint_source("src/a.cpp", qdb_wait).empty());
}

TEST(LockHygiene, SrcOnlyRulesAreSilentInTestsButDetachIsNot) {
  const std::string text =
      "void f(std::thread& t) { std::mutex m; m.lock(); m.unlock(); t.detach(); }";
  const std::vector<Diagnostic> in_tests = lint_source("tests/a.cpp", text);
  EXPECT_EQ(in_tests.size(), 1u);  // only the detach: repo-wide rule
  EXPECT_EQ(in_tests[0].rule, "thread-detach");
  const std::vector<Diagnostic> in_src = lint_source("src/m/a.cpp", text);
  EXPECT_EQ(of_rule(in_src, "naked-lock").size(), 2u);
  EXPECT_EQ(of_rule(in_src, "unannotated-mutex").size(), 1u);  // std::mutex only
  EXPECT_EQ(of_rule(in_src, "thread-detach").size(), 1u);
}

TEST(LockHygiene, CommentsStringsAndRaiiGuardsAreNotHits) {
  const std::string ok =
      "// mu.lock() in a comment\n"
      "const char* s = \"cv.wait(lk)\";\n"
      "void f() { const MutexLock lock(mu_); my_unlock(); relock(); }\n";
  EXPECT_TRUE(lint_source("src/m/a.cpp", ok).empty());
}

// --- allowlist round-trip ---------------------------------------------------

TEST(Allowlist, SuppressesMatchedRulesAndFlagsStaleEntries) {
  const std::vector<Diagnostic> diags = scan_tree(kFixtureRoot, {"src"}).diags;
  const std::vector<AllowEntry> allow = parse_allowlist(
      "# fixture allowlist\n"
      "src/serve/handler.cpp naked-lock\n"
      "src/serve/handler.cpp no-such-rule\n");
  std::vector<AllowEntry> unused;
  const std::vector<Diagnostic> kept = apply_allowlist(diags, allow, &unused);
  EXPECT_EQ(kept.size(), diags.size() - 2);  // both naked-lock hits suppressed
  EXPECT_TRUE(of_rule(kept, "naked-lock").empty());
  ASSERT_EQ(unused.size(), 1u);  // the stale entry is reported, not ignored
  EXPECT_EQ(unused[0].file, "src/serve/handler.cpp");
  EXPECT_EQ(unused[0].rule, "no-such-rule");
}

// --- Graphviz output --------------------------------------------------------

TEST(GraphDot, RanksLayersAndPaintsUnknownModulesRed) {
  const std::string dot = graph_dot(scan_tree(kFixtureRoot, {"src"}).graph);
  EXPECT_NE(dot.find("digraph qdb_include_graph"), std::string::npos);
  EXPECT_NE(dot.find("{ rank=same; \"common\"; }  // layer 0"), std::string::npos);
  EXPECT_NE(dot.find("{ rank=same; \"screen\"; }  // layer 4"), std::string::npos);
  EXPECT_NE(dot.find("{ rank=same; \"serve\"; }  // layer 6"), std::string::npos);
  EXPECT_NE(dot.find("\"common\" -> \"serve\";"), std::string::npos);
  EXPECT_NE(dot.find("\"screen\" -> \"serve\";"), std::string::npos);
  EXPECT_NE(dot.find("\"serve\" -> \"common\";"), std::string::npos);
  EXPECT_NE(dot.find("\"gadgets\" [color=red"), std::string::npos);
}

// --- repo gate --------------------------------------------------------------

TEST(RepoGate, FixtureTreesAreSkippedAndTheRepoAnalyzesClean) {
  // The architecture and locking half of the repo gate, over the same one
  // walk: the planted fixture project must not leak into the include graph
  // (its cycle would otherwise appear), the architecture rules must be clean
  // with no allowlist at all, and the only locking findings are the
  // sync.h wrapper's two allowlisted ones.
  const TreeScan scan =
      scan_tree(QDB_SOURCE_DIR, {"src", "tests", "bench", "examples", "tools"});
  ASSERT_FALSE(scan.graph.files.empty());
  for (const std::string& f : scan.graph.files) {
    EXPECT_EQ(f.find("_fixtures"), std::string::npos) << f;
  }
  for (const Diagnostic& d : check_architecture(scan.graph)) {
    ADD_FAILURE() << format_diagnostic(d);
  }

  std::vector<std::string> locking;
  for (const std::string rule :
       {"naked-lock", "cv-wait-no-predicate", "thread-detach", "unannotated-mutex"}) {
    for (const Diagnostic& d : of_rule(scan.diags, rule)) {
      locking.push_back(d.file + " " + d.rule);
    }
  }
  std::sort(locking.begin(), locking.end());
  locking.erase(std::unique(locking.begin(), locking.end()), locking.end());
  EXPECT_EQ(locking, (std::vector<std::string>{"src/common/sync.h naked-lock",
                                               "src/common/sync.h unannotated-mutex"}));
}

}  // namespace
}  // namespace qdb::lint
