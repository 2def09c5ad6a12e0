#include "tools/qdb_lint.h"

#include <string>
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
using qdb::scan::previous_nonspace;
using qdb::scan::previous_word;
using qdb::scan::skip_ws;

/// Is the token at [pos, pos+len) a plausible direct BSD-socket call site?
/// Accepts the bare (`socket(`) and global-scope (`::socket(`) spellings;
/// rejects members (`x.bind`), qualified names (`std::bind`, `ns::accept`)
/// and substrings (`tcp_accept`).
bool socket_call_token(const std::string& text, std::size_t pos, std::size_t len) {
  if (pos > 0) {
    const char prev = text[pos - 1];
    if (is_ident_char(prev) || prev == '.') return false;
    if (prev == '>' && pos > 1 && text[pos - 2] == '-') return false;
    if (prev == ':') {
      // `::socket` (global scope) is exactly the raw call; `ns::socket` is
      // somebody else's function.
      if (pos < 2 || text[pos - 2] != ':') return false;
      if (pos >= 3) {
        const char before = text[pos - 3];
        if (is_ident_char(before) || before == ':' || before == '>') return false;
      }
    }
  }
  const std::size_t after = pos + len;
  return after >= text.size() || !is_ident_char(text[after]);
}

}  // namespace

std::vector<Diagnostic> lint_source(const std::string& relpath, const std::string& text) {
  std::vector<Diagnostic> diags;
  const std::string code = strip_comments_and_strings(text);
  const LineIndex lines(code);
  const bool library = first_component_is(relpath, "src");
  auto add = [&](std::size_t offset, const char* rule, std::string message) {
    diags.push_back({relpath, lines.line_of(offset), rule, std::move(message)});
  };

  // raw-random: rand()/srand()/time() calls anywhere in the tree.
  for (const char* tok : {"rand", "srand", "time"}) {
    for_each_token(code, tok, /*allow_std=*/true, [&](std::size_t pos) {
      const std::size_t paren = skip_ws(code, pos + std::string(tok).size());
      if (paren < code.size() && code[paren] == '(') {
        add(pos, "raw-random",
            std::string("raw ") + tok +
                "() call — use qdb::Rng so runs stay seed-reproducible");
      }
    });
  }

  // stdout-in-library: src/ owns no terminal.
  if (library) {
    for (std::size_t pos = code.find("std::cout"); pos != std::string::npos;
         pos = code.find("std::cout", pos + 1)) {
      const bool start_ok = pos == 0 || !is_ident_char(code[pos - 1]);
      const bool end_ok = pos + 9 >= code.size() || !is_ident_char(code[pos + 9]);
      if (start_ok && end_ok) {
        add(pos, "stdout-in-library",
            "std::cout in library code — return data; printing belongs to "
            "bench/examples/tools");
      }
    }
    for_each_token(code, "printf", /*allow_std=*/true, [&](std::size_t pos) {
      const std::size_t paren = skip_ws(code, pos + 6);
      if (paren < code.size() && code[paren] == '(') {
        add(pos, "stdout-in-library",
            "printf in library code — return data; printing belongs to "
            "bench/examples/tools");
      }
    });
  }

  // stderr-in-library: library diagnostics are structured obs::log events
  // (ISSUE 5).  src/obs/ is exempt — the logger's default sink is the one
  // sanctioned stderr writer in the library.
  if (library && !has_dir_prefix(relpath, "src/obs/")) {
    for (std::size_t pos = code.find("std::cerr"); pos != std::string::npos;
         pos = code.find("std::cerr", pos + 1)) {
      const bool start_ok = pos == 0 || !is_ident_char(code[pos - 1]);
      const bool end_ok = pos + 9 >= code.size() || !is_ident_char(code[pos + 9]);
      if (start_ok && end_ok) {
        add(pos, "stderr-in-library",
            "std::cerr in library code — emit a structured obs::log event "
            "(src/obs/log.cpp owns the stderr sink)");
      }
    }
    for_each_token(code, "fprintf", /*allow_std=*/true, [&](std::size_t pos) {
      const std::size_t paren = skip_ws(code, pos + 7);
      if (paren >= code.size() || code[paren] != '(') return;
      const std::size_t arg = skip_ws(code, paren + 1);
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
    diags.push_back({relpath, 1, "missing-pragma-once", "header lacks #pragma once"});
  }

  // naked-new-delete: raw ownership.  `= delete` and operator new/delete
  // declarations are legitimate uses of the keywords.
  for_each_token(code, "new", /*allow_std=*/false, [&](std::size_t pos) {
    if (previous_word(code, pos) == "operator") return;
    add(pos, "naked-new-delete",
        "naked new — use containers or std::make_unique for ownership");
  });
  for_each_token(code, "delete", /*allow_std=*/false, [&](std::size_t pos) {
    if (previous_nonspace(code, pos) == '=') return;  // deleted function
    if (previous_word(code, pos) == "operator") return;
    add(pos, "naked-new-delete", "naked delete — ownership must be RAII-managed");
  });

  // non-atomic-write: artifacts written from library code must be atomic.
  if (library) {
    for_each_token(code, "write_file", /*allow_std=*/false, [&](std::size_t pos) {
      const std::size_t paren = skip_ws(code, pos + 10);
      if (paren < code.size() && code[paren] == '(') {
        add(pos, "non-atomic-write",
            "write_file() in library code — use write_file_atomic so a crash "
            "never leaves a truncated artifact");
      }
    });
    for_each_token(code, "ofstream", /*allow_std=*/true, [&](std::size_t pos) {
      add(pos, "non-atomic-write",
          "std::ofstream in library code — route writes through "
          "write_file_atomic");
    });
  }

  // omp-pragma: OpenMP stays behind the parallel.h wrappers so the TSan
  // build can substitute its instrumentable std::thread backend.
  if (relpath != "src/common/parallel.h") {
    for (std::size_t pos = code.find("#pragma omp"); pos != std::string::npos;
         pos = code.find("#pragma omp", pos + 1)) {
      add(pos, "omp-pragma",
          "#pragma omp outside common/parallel.h — use the parallel_for "
          "wrappers (the TSan build swaps in a std::thread backend there)");
    }
  }

  // raw-socket: direct BSD socket API calls.  All socket plumbing lives in
  // the serve layer's RAII wrapper (src/serve/net_socket.*, allowlisted) so
  // there is exactly one place that owns fds, EINTR loops and shutdown
  // semantics; everything else goes through Socket / HttpClient.
  for (const char* tok : {"socket", "bind", "accept", "listen", "connect"}) {
    const std::string token = tok;
    for (std::size_t pos = code.find(token); pos != std::string::npos;
         pos = code.find(token, pos + 1)) {
      if (!socket_call_token(code, pos, token.size())) continue;
      const std::size_t paren = skip_ws(code, pos + token.size());
      if (paren < code.size() && code[paren] == '(') {
        add(pos, "raw-socket",
            std::string("raw ") + tok +
                "() call — socket plumbing belongs to the serve/net_socket "
                "wrapper (RAII fds, EINTR handling, shutdown semantics)");
      }
    }
  }

  // sleep-in-library: blocking sleeps in src/ outside src/common/ (ISSUE 7).
  // Library code takes time from the injectable qdb::Clock (common/clock.h,
  // the one sanctioned sleep_for site) so lease-expiry and backoff tests run
  // on a ManualClock in microseconds instead of wall-clock minutes.  The
  // matcher is a plain find with identifier-boundary checks — unlike
  // standalone_token it must accept the qualified `this_thread::sleep_for`
  // spelling, which is exactly the call being banned.
  if (library && !has_dir_prefix(relpath, "src/common/")) {
    for (const char* tok : {"sleep_for", "sleep_until", "usleep", "nanosleep"}) {
      const std::string token = tok;
      for (std::size_t pos = code.find(token); pos != std::string::npos;
           pos = code.find(token, pos + 1)) {
        if (pos > 0) {
          const char prev = code[pos - 1];
          // Qualified spellings (std::this_thread::sleep_for, ::usleep) are
          // the banned calls; members (`x.sleep_for`) and substrings
          // (`my_sleep_for`, `sleep_forever`) are somebody else's API.
          if (is_ident_char(prev) || prev == '.') continue;
          if (prev == '>' && pos > 1 && code[pos - 2] == '-') continue;
        }
        const std::size_t after = pos + token.size();
        if (after < code.size() && is_ident_char(code[after])) continue;
        const std::size_t paren = skip_ws(code, after);
        if (paren < code.size() && code[paren] == '(') {
          add(pos, "sleep-in-library",
              std::string("blocking ") + tok +
                  "() in library code — take time from an injectable "
                  "qdb::Clock (common/clock.h) so tests control the clock");
        }
      }
    }
  }

  // simd-intrinsics: raw SIMD intrinsics live in exactly one place — the
  // fused statevector kernels (src/quantum/kernels.*, allowlisted) — so the
  // scalar-fallback build (-DQDB_NO_AVX2=ON) and non-x86 ports have a single
  // surface to audit.  Everything else vectorises through the kernel layer.
  for (const char* tok : {"immintrin.h", "_mm256", "__m256"}) {
    const std::string token = tok;
    for (std::size_t pos = code.find(token); pos != std::string::npos;
         pos = code.find(token, pos + token.size())) {
      if (pos > 0 && is_ident_char(code[pos - 1])) continue;
      add(pos, "simd-intrinsics",
          std::string("raw SIMD intrinsic (") + tok +
              ") — vector kernels belong to src/quantum/kernels.* behind its "
              "runtime dispatch and QDB_NO_AVX2 fallback");
    }
  }

  // lenient-number: the C and std:: string-to-number calls accept leading
  // space, '+', hex, "nan" and "inf", and stop silently at trailing text.
  // Library code reads numbers with Json's grammar (serve/request.h for
  // request parameters) or std::from_chars on the whole value.
  if (library) {
    for (const char* tok : {"strtod", "strtof", "strtold", "strtol", "strtoll", "strtoul",
                            "strtoull", "atoi", "atol", "atoll", "atof", "stoi", "stol",
                            "stoll", "stoul", "stoull", "stof", "stod", "stold"}) {
      for_each_token(code, tok, /*allow_std=*/true, [&](std::size_t pos) {
        const std::size_t paren = skip_ws(code, pos + std::string(tok).size());
        if (paren < code.size() && code[paren] == '(') {
          add(pos, "lenient-number",
              std::string("lenient ") + tok +
                  "() — it accepts nan, inf, hex, '+' and trailing text; use "
                  "Json's number grammar or std::from_chars on the whole value");
        }
      });
    }
  }

  // raw-traceparent: the W3C context header is parsed, formatted and even
  // *named* in exactly one place — src/obs/trace.h (allowlisted home of
  // kTraceparentHeader) — so strictness rules (reject uppercase hex, zero
  // ids, wrong version) cannot fork between hand-rolled copies.  The banned
  // spelling is a string literal, which strip_comments_and_strings removes,
  // so this rule scans the RAW text with its own line index.
  if (library) {
    const LineIndex raw_lines(text);
    const std::string needle = "\"traceparent\"";
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
      diags.push_back(
          {relpath, raw_lines.line_of(pos), "raw-traceparent",
           "hand-rolled traceparent literal — use obs::kTraceparentHeader "
           "with parse_traceparent/format_traceparent (src/obs/trace.h owns "
           "the header and its strictness rules)"});
    }
  }

  std::sort(diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return diags;
}

std::vector<Diagnostic> lint_tree(const std::filesystem::path& root,
                                  const std::vector<std::string>& dirs) {
  std::vector<Diagnostic> all;
  qdb::scan::for_each_source_file(root, dirs,
                                  [&](const std::string& relpath, const std::string& text) {
                                    std::vector<Diagnostic> diags = lint_source(relpath, text);
                                    all.insert(all.end(), diags.begin(), diags.end());
                                  });
  qdb::scan::sort_diagnostics(all);
  return all;
}

}  // namespace qdb::lint
