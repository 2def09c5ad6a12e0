// Tests for tools/qdb_lint's convention rules: the comment/string stripper,
// each rule's hits and deliberate near-misses, fixture-tree scanning,
// allowlist round-trip, and the repo-gate property that *_fixtures trees are
// skipped and the repo is clean.  The locking and architecture rules are
// tested in test_analyze.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "tools/qdb_lint.h"

namespace qdb::lint {
namespace {

std::vector<Diagnostic> of_rule(const std::vector<Diagnostic>& diags,
                                const std::string& rule) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) out.push_back(d);
  }
  return out;
}

TEST(Strip, RemovesCommentsAndLiteralsButKeepsLines) {
  const std::string in =
      "int a; // rand()\n"
      "/* new\ndelete */ int b;\n"
      "const char* s = \"printf(\\\"x\\\")\";\n"
      "char c = '\"'; int n = 1'000;\n";
  const std::string out = strip_comments_and_strings(in);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(in.begin(), in.end(), '\n'));
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("new"), std::string::npos);
  EXPECT_EQ(out.find("delete"), std::string::npos);
  EXPECT_EQ(out.find("printf"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
  // Digit separator must not open a char literal and eat the rest.
  EXPECT_NE(out.find("000"), std::string::npos);
}

TEST(Strip, RawStringsAreRemovedWholesale) {
  const std::string in = "auto s = R\"x(srand(1); std::cout;)x\"; int keep;";
  const std::string out = strip_comments_and_strings(in);
  EXPECT_EQ(out.find("srand"), std::string::npos);
  EXPECT_EQ(out.find("cout"), std::string::npos);
  EXPECT_NE(out.find("int keep;"), std::string::npos);
}

TEST(Rules, RawRandomFiresEverywhereIncludingStdQualified) {
  const std::string bad = "int x = rand(); std::srand(7); long t = time(nullptr);";
  EXPECT_EQ(of_rule(lint_source("src/a.cpp", bad), "raw-random").size(), 3u);
  EXPECT_EQ(of_rule(lint_source("tests/a.cpp", bad), "raw-random").size(), 3u);
  // Member calls, qualified non-std calls, and substrings are not hits.
  const std::string ok =
      "int a = rng.rand(); int b = my::rand(); int strand = 0; "
      "double runtime(double t); auto d = obj->time();";
  EXPECT_TRUE(lint_source("src/a.cpp", ok).empty());
}

TEST(Rules, StdoutOnlyFiresInLibraryCode) {
  const std::string text = "void f() { std::cout << 1; printf(\"x\"); }";
  EXPECT_EQ(of_rule(lint_source("src/a.cpp", text), "stdout-in-library").size(), 2u);
  EXPECT_TRUE(of_rule(lint_source("bench/a.cpp", text), "stdout-in-library").empty());
  EXPECT_TRUE(of_rule(lint_source("tools/a.cpp", text), "stdout-in-library").empty());
  // An identifier containing printf is not a hit (fprintf(stderr, ...) now
  // belongs to the stderr-in-library rule, tested below).
  const std::string ok = "void g() { my_printf_like(1); }";
  EXPECT_TRUE(lint_source("src/a.cpp", ok).empty());
}

TEST(Rules, StderrOnlyFiresInLibraryCodeOutsideObs) {
  const std::string text =
      "void f() { std::cerr << 1; fprintf(stderr, \"e\"); "
      "std::fprintf(stderr, \"e\"); }";
  EXPECT_EQ(of_rule(lint_source("src/a.cpp", text), "stderr-in-library").size(), 3u);
  // src/obs/ is the sanctioned sink; tools/benches own their terminal.
  EXPECT_TRUE(of_rule(lint_source("src/obs/log.cpp", text), "stderr-in-library").empty());
  EXPECT_TRUE(of_rule(lint_source("tools/a.cpp", text), "stderr-in-library").empty());
  EXPECT_TRUE(of_rule(lint_source("bench/a.cpp", text), "stderr-in-library").empty());
  // fprintf to a file handle and stderr as a plain identifier are not hits.
  const std::string ok =
      "void g(FILE* f) { fprintf(f, \"x\"); FILE* e = stderr; (void)e; }";
  EXPECT_TRUE(of_rule(lint_source("src/a.cpp", ok), "stderr-in-library").empty());
}

TEST(Rules, PragmaOnceRequiredInHeadersOnly) {
  const std::string guarded = "#pragma once\nint x;\n";
  const std::string bare = "int x;\n";
  EXPECT_TRUE(lint_source("src/a.h", guarded).empty());
  EXPECT_EQ(of_rule(lint_source("src/a.h", bare), "missing-pragma-once").size(), 1u);
  EXPECT_TRUE(lint_source("src/a.cpp", bare).empty());  // not a header
}

TEST(Rules, NakedNewDeleteWithExemptions) {
  EXPECT_EQ(of_rule(lint_source("src/a.cpp", "int* p = new int(1);"),
                    "naked-new-delete").size(), 1u);
  EXPECT_EQ(of_rule(lint_source("src/a.cpp", "void f(int* p) { delete p; }"),
                    "naked-new-delete").size(), 1u);
  const std::string ok =
      "struct S { S(const S&) = delete; void* operator new(unsigned long); "
      "void operator delete(void*); };";
  EXPECT_TRUE(lint_source("src/a.cpp", ok).empty());
}

TEST(Rules, NonAtomicWriteOnlyInLibraryAndAtomicIsFine) {
  const std::string bad = "void f() { write_file(\"a\", \"b\"); std::ofstream o(\"c\"); }";
  EXPECT_EQ(of_rule(lint_source("src/a.cpp", bad), "non-atomic-write").size(), 2u);
  EXPECT_TRUE(of_rule(lint_source("tests/a.cpp", bad), "non-atomic-write").empty());
  EXPECT_TRUE(lint_source("src/a.cpp", "void g() { write_file_atomic(\"a\", \"b\"); }")
                  .empty());
}

TEST(Rules, RawSocketFlagsBareAndGlobalScopeCallsEverywhere) {
  const std::string bad =
      "int f() { int s = socket(2, 1, 0); ::bind(s, nullptr, 0); "
      "listen(s, 8); return ::accept(s, nullptr, nullptr); }";
  EXPECT_EQ(of_rule(lint_source("src/a.cpp", bad), "raw-socket").size(), 4u);
  // Unlike stdout-in-library, the rule fires outside src/ too: examples and
  // tools go through serve::HttpClient, not their own sockets.
  EXPECT_EQ(of_rule(lint_source("examples/a.cpp", bad), "raw-socket").size(), 4u);
  // Members, wrapper names, ns-qualified calls, std::bind, and substrings
  // are not hits.
  const std::string ok =
      "int g(Endpoint& e, Endpoint* p) { return e.bind(1) + p->connect(2) + "
      "tcp_accept(3) + my::listen(4) + reconnect(5); } "
      "auto cb = std::bind(&g); int bindings = 0;";
  EXPECT_TRUE(lint_source("src/a.cpp", ok).empty());
}

TEST(Rules, SimdIntrinsicsFlaggedEverywhereIncludingKernelHome) {
  const std::string bad =
      "#include <immintrin.h>\n"
      "void f(double* p) { __m256d v = _mm256_loadu_pd(p); "
      "_mm256_storeu_pd(p, v); }\n";
  // include + type + two intrinsic calls
  EXPECT_EQ(of_rule(lint_source("src/vqe/vqe.cpp", bad), "simd-intrinsics").size(), 4u);
  EXPECT_EQ(of_rule(lint_source("bench/a.cpp", bad), "simd-intrinsics").size(), 4u);
  // Like raw-socket, the home file is flagged too and relies on the
  // checked-in allowlist entry — so moving intrinsics needs an explicit
  // allowlist change, not a silent path rename.
  EXPECT_EQ(of_rule(lint_source("src/quantum/kernels.cpp", bad), "simd-intrinsics").size(), 4u);
  EXPECT_EQ(of_rule(lint_source("src/dock/vina_simd.cpp", bad), "simd-intrinsics").size(), 4u);
  // Identifier substrings and comments/strings are not hits.
  const std::string ok =
      "// _mm256_loadu_pd in a comment\n"
      "const char* s = \"_mm256 immintrin.h\"; int my_mm256 = 0;\n";
  EXPECT_TRUE(of_rule(lint_source("src/a.cpp", ok), "simd-intrinsics").empty());
}

TEST(Rules, OmpPragmaFlaggedEvenInParallelHeader) {
  const std::string omp = "#pragma once\n#pragma omp parallel for\nvoid f();\n";
  EXPECT_EQ(of_rule(lint_source("src/quantum/statevector.cpp", omp),
                    "omp-pragma").size(), 1u);
  EXPECT_EQ(of_rule(lint_source("src/common/parallel.h", omp), "omp-pragma").size(), 1u);
}

TEST(Rules, SleepOnlyFiresInLibraryOutsideCommon) {
  const std::string bad =
      "void f() { std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"
      "  std::this_thread::sleep_until(later);\n"
      "  ::usleep(100);\n"
      "  nanosleep(&ts, nullptr); }\n";
  EXPECT_EQ(of_rule(lint_source("src/a.cpp", bad), "sleep-in-library").size(), 4u);
  // src/common/ owns the injectable Clock's one real sleep; non-library
  // trees (tests drive wall-clock servers, examples own their main loops)
  // are free to block.
  EXPECT_TRUE(of_rule(lint_source("src/common/clock.cpp", bad), "sleep-in-library").empty());
  EXPECT_TRUE(of_rule(lint_source("tests/a.cpp", bad), "sleep-in-library").empty());
  EXPECT_TRUE(of_rule(lint_source("examples/a.cpp", bad), "sleep-in-library").empty());
  const std::string ok =
      "void g(qdb::Clock& c) { c.sleep_ms(5); my_sleep_for(1); sleep_forever();\n"
      "  timer.sleep_for(2); timer->sleep_until(t); int sleep_until = 0;\n"
      "  (void)sleep_until; }\n"
      "// std::this_thread::sleep_for in a comment\n"
      "const char* s = \"usleep( nanosleep(\";\n";
  EXPECT_TRUE(of_rule(lint_source("src/a.cpp", ok), "sleep-in-library").empty());
}

TEST(Rules, RawTraceparentScansRawTextInLibraryOnly) {
  const std::string bad =
      "const char* h = \"traceparent\";\n"
      "// the \"traceparent\" header, quoted in prose\n";
  // Both fire: the rule scans raw text because the banned spelling is a
  // string literal (which the stripper removes) — and a quoted spelling in
  // a comment is still a copy of the name that can drift.
  EXPECT_EQ(of_rule(lint_source("src/serve/x.cpp", bad), "raw-traceparent").size(), 2u);
  EXPECT_TRUE(of_rule(lint_source("tests/x.cpp", bad), "raw-traceparent").empty());
  EXPECT_TRUE(of_rule(lint_source("tools/x.cpp", bad), "raw-traceparent").empty());
  const std::string ok =
      "std::string h() { return std::string(obs::kTraceparentHeader); }\n"
      "// traceparent without quotes is prose, not a header spelling\n";
  EXPECT_TRUE(of_rule(lint_source("src/serve/x.cpp", ok), "raw-traceparent").empty());
}

TEST(Rules, LenientNumberFiresInLibraryCodeOnly) {
  const std::filesystem::path root =
      std::filesystem::path(QDB_SOURCE_DIR) / "tests" / "lint_fixtures" / "numbers";
  const std::vector<Diagnostic> diags = scan_tree(root, {"src"}).diags;
  ASSERT_EQ(diags.size(), 4u);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "lenient-number") << format_diagnostic(d);
    EXPECT_EQ(d.file, "src/lenient.cpp");
  }
  // Outside src/ (the CLI parses its own flags) the calls are not flagged.
  const std::string bad = "int n = std::atoi(argv[1]); double d = strtod(s, &end);";
  EXPECT_EQ(of_rule(lint_source("src/a.cpp", bad), "lenient-number").size(), 2u);
  EXPECT_TRUE(of_rule(lint_source("examples/a.cpp", bad), "lenient-number").empty());
}

TEST(Fixtures, TreeScanFindsEveryPlantedViolationAndNothingElse) {
  const std::filesystem::path root =
      std::filesystem::path(QDB_SOURCE_DIR) / "tests" / "lint_fixtures" / "proj";
  ASSERT_TRUE(std::filesystem::exists(root)) << root;
  const std::vector<Diagnostic> diags = scan_tree(root, {"src", "tests"}).diags;

  EXPECT_EQ(of_rule(diags, "raw-random").size(), 4u);         // 3 in src + 1 in tests
  EXPECT_EQ(of_rule(diags, "stdout-in-library").size(), 2u);  // src only
  EXPECT_EQ(of_rule(diags, "stderr-in-library").size(), 2u);  // src only
  EXPECT_EQ(of_rule(diags, "naked-new-delete").size(), 2u);
  EXPECT_EQ(of_rule(diags, "non-atomic-write").size(), 2u);   // src only
  EXPECT_EQ(of_rule(diags, "omp-pragma").size(), 1u);
  EXPECT_EQ(of_rule(diags, "missing-pragma-once").size(), 1u);
  EXPECT_EQ(of_rule(diags, "raw-socket").size(), 3u);  // src/raw_socket.cpp
  EXPECT_EQ(of_rule(diags, "simd-intrinsics").size(), 3u);  // src/simd.cpp
  EXPECT_EQ(of_rule(diags, "sleep-in-library").size(), 4u);  // src/sleepy.cpp
  EXPECT_EQ(of_rule(diags, "raw-traceparent").size(), 2u);  // src/traceparent_home.cpp
  EXPECT_EQ(diags.size(), 26u);

  // The near-miss files, the guarded header, and the sanctioned sleep home
  // (src/common/) stay clean.
  for (const Diagnostic& d : diags) {
    EXPECT_NE(d.file, "src/clean.cpp") << format_diagnostic(d);
    EXPECT_NE(d.file, "src/guarded.h") << format_diagnostic(d);
    EXPECT_NE(d.file, "src/common/clock_home.cpp") << format_diagnostic(d);
    EXPECT_GT(d.line, 0);
  }
  // Output is deterministically ordered (path, then line, then rule).
  for (std::size_t i = 1; i < diags.size(); ++i) {
    const auto key = [](const Diagnostic& d) {
      return std::make_tuple(d.file, d.line, d.rule);
    };
    EXPECT_LE(key(diags[i - 1]), key(diags[i]));
  }
}

TEST(Allowlist, ParseApplyAndStaleDetectionRoundTrip) {
  const std::string text =
      "# comment line\n"
      "\n"
      "src/violations.cpp raw-random  # justified: fixture\n"
      "src/violations.cpp omp-pragma\n"
      "src/gone.cpp naked-new-delete  # stale: file no longer exists\n";
  const std::vector<AllowEntry> allow = parse_allowlist(text);
  ASSERT_EQ(allow.size(), 3u);
  EXPECT_EQ(allow[0].file, "src/violations.cpp");
  EXPECT_EQ(allow[0].rule, "raw-random");

  const std::filesystem::path root =
      std::filesystem::path(QDB_SOURCE_DIR) / "tests" / "lint_fixtures" / "proj";
  std::vector<AllowEntry> unused;
  const std::vector<Diagnostic> kept =
      apply_allowlist(scan_tree(root, {"src", "tests"}).diags, allow, &unused);

  // 3 raw-random + 1 omp-pragma suppressed from violations.cpp; the
  // tests/scoped.cpp raw-random hit is NOT (allowlist is per-file), and the
  // raw_socket.cpp / simd.cpp / sleepy.cpp / traceparent_home.cpp hits have
  // no matching entry here.
  EXPECT_EQ(kept.size(), 26u - 4u);
  EXPECT_EQ(of_rule(kept, "raw-random").size(), 1u);
  EXPECT_EQ(of_rule(kept, "raw-random")[0].file, "tests/scoped.cpp");
  EXPECT_TRUE(of_rule(kept, "omp-pragma").empty());
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0].file, "src/gone.cpp");
}

TEST(Allowlist, CheckedInListSanctionsOnlyTheTwoSimdHomes) {
  // Intrinsics pass in the two SIMD homes and nowhere else, not even next
  // to the pair kernel's home in src/dock/.
  std::ifstream allow_in(std::filesystem::path(QDB_SOURCE_DIR) / "tools" / "qdb_lint_allow.txt");
  ASSERT_TRUE(allow_in.good());
  std::ostringstream buf;
  buf << allow_in.rdbuf();
  const std::vector<AllowEntry> allow = parse_allowlist(buf.str());
  const std::string bad = "#include <immintrin.h>\n__m256d v;\n";
  for (const char* home : {"src/quantum/kernels.cpp", "src/dock/vina_simd.cpp"}) {
    EXPECT_TRUE(apply_allowlist(lint_source(home, bad), allow, nullptr).empty()) << home;
  }
  for (const char* other : {"src/dock/vina_score.cpp", "src/dock/dock.cpp", "src/dock/vina_simd.h",
                            "src/screen/grid.cpp"}) {
    EXPECT_EQ(of_rule(apply_allowlist(lint_source(other, bad), allow, nullptr), "simd-intrinsics")
                  .size(),
              2u)
        << other;
  }
}

TEST(RepoGate, FixtureTreesAreSkippedAndTheRepoLintsClean) {
  // The property the ctest/CI gate relies on: scanning the real repo must
  // not surface the planted fixture violations (the analyze fixture's cycle
  // would otherwise appear here), and — with the checked-in allowlist —
  // must be clean.
  const std::filesystem::path root(QDB_SOURCE_DIR);
  const std::vector<Diagnostic> diags =
      scan_tree(root, {"src", "tests", "bench", "examples", "tools"}).diags;
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.file.find("_fixtures"), std::string::npos)
        << format_diagnostic(d);
  }

  std::ifstream allow_in(root / "tools" / "qdb_lint_allow.txt");
  ASSERT_TRUE(allow_in.good());
  std::ostringstream buf;
  buf << allow_in.rdbuf();
  std::vector<AllowEntry> unused;
  const std::vector<Diagnostic> kept =
      apply_allowlist(diags, parse_allowlist(buf.str()), &unused);
  for (const Diagnostic& d : kept) ADD_FAILURE() << format_diagnostic(d);
  for (const AllowEntry& e : unused) {
    ADD_FAILURE() << "stale allowlist entry: " << e.file << " " << e.rule;
  }
}

}  // namespace
}  // namespace qdb::lint
