// qdb_lint: project-specific source checker (ISSUE 3).
//
// clang-tidy covers general C++ hygiene; this tool enforces the handful of
// *QDockBank-specific* conventions that keep the reproduction deterministic
// and its artifacts durable, none of which a generic linter knows about:
//
//   raw-random          rand()/srand()/time() — all randomness must flow
//                       through qdb::Rng so every run is seed-reproducible.
//   stdout-in-library   std::cout / printf in src/ — library code returns
//                       data; only bench/examples/tools own the terminal.
//   missing-pragma-once headers without `#pragma once`.
//   naked-new-delete    raw new/delete — ownership is containers and
//                       values in this codebase (`= delete` and
//                       `operator new/delete` declarations are exempt).
//   non-atomic-write    write_file()/std::ofstream in src/ — dataset and
//                       checkpoint artifacts must go through
//                       write_file_atomic so a crash never leaves a
//                       truncated file a resume would then trust.
//   omp-pragma          `#pragma omp` outside common/parallel.h — all
//                       fan-out goes through the parallel.h wrappers so the
//                       TSan build can swap in its std::thread backend.
//   raw-socket          direct socket()/bind()/accept()/listen()/connect()
//                       calls (bare or `::`-qualified) — socket plumbing
//                       lives in src/serve/net_socket.* (allowlisted), the
//                       one place that owns fds, EINTR loops and shutdown
//                       semantics.
//   stderr-in-library   std::cerr / fprintf(stderr, ...) in src/ outside
//                       src/obs/ — diagnostics are structured obs::log
//                       events (ISSUE 5); the logger's default sink in
//                       src/obs/log.cpp is the one sanctioned stderr
//                       writer, so levels, formats and capture stay in
//                       one place.
//   sleep-in-library    sleep_for/sleep_until/usleep/nanosleep in src/
//                       outside src/common/ — library code takes time from
//                       the injectable qdb::Clock (common/clock.h owns the
//                       one real sleep) so lease/backoff tests run on a
//                       ManualClock instead of wall-clock time.
//   simd-intrinsics     raw AVX2 spellings (immintrin.h, _mm256*, __m256*)
//                       outside src/quantum/kernels.* (allowlisted) — one
//                       surface to audit for the QDB_NO_AVX2 fallback and
//                       non-x86 ports.
//   raw-traceparent     the quoted W3C context-header literal in src/ —
//                       src/obs/trace.h (allowlisted) owns the header name
//                       (obs::kTraceparentHeader) and its strict
//                       parse/format rules, so strictness cannot fork
//                       between hand-rolled copies.  Scans raw text: the
//                       banned spelling is a string literal, which the
//                       stripper removes from code.
//   lenient-number      strtod/strtol/atoi/atof and relatives, and
//                       std::sto*, in src/ — they accept nan, inf, hex,
//                       '+' and trailing text.  Request parameters are read
//                       with Json's number grammar (serve/request.h),
//                       other numbers with std::from_chars on the whole
//                       value.
//
// The scanner core (comment/string stripping, token-boundary matching, tree
// walking, allowlist machinery) lives in tools/scan_util.h, shared with
// qdb_analyze; this header re-exports it under qdb::lint so existing callers
// (tests, the CLI) see one coherent API.  Prose like "the new atom" or a
// pattern string "rand(" never trips a rule, and findings can be suppressed
// per (file, rule) via an allowlist whose unused entries are themselves
// reported so suppressions cannot go stale silently.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "tools/scan_util.h"

namespace qdb::lint {

using qdb::scan::AllowEntry;
using qdb::scan::Diagnostic;
using qdb::scan::apply_allowlist;
using qdb::scan::format_diagnostic;
using qdb::scan::parse_allowlist;
using qdb::scan::strip_comments_and_strings;

/// Lint a single translation unit.  `relpath` decides rule applicability
/// (library-only rules fire iff the first path component is "src").
std::vector<Diagnostic> lint_source(const std::string& relpath, const std::string& text);

/// Walk `root`/`dir` for each dir, linting every .h/.cpp file.  Directories
/// whose name ends in "_fixtures" (lint_fixtures, analyze_fixtures) are
/// skipped so test fixtures with deliberate violations never fail the
/// repo-wide gate.  Results are sorted by path then line for deterministic
/// output.
std::vector<Diagnostic> lint_tree(const std::filesystem::path& root,
                                  const std::vector<std::string>& dirs);

}  // namespace qdb::lint
