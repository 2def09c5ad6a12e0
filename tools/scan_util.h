// Comment/string-aware scanner core for qdb_lint: strip comments and
// literals without disturbing line numbers, match identifiers on token
// boundaries in the spellings a rule names, walk the source tree, and run
// findings through a per-(file,rule) allowlist whose stale entries are
// themselves findings.
//
// Everything is header-only and dependency-free (std only) so the checker
// can be built standalone in CI with a bare `g++`.
#pragma once

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace qdb::scan {

/// One finding: `file:line: [rule] message`.
struct Diagnostic {
  std::string file;  ///< path relative to the scan root, '/'-separated
  int line = 0;      ///< 1-based
  std::string rule;
  std::string message;
};

/// One allowlist line: suppress `rule` in `file` (exact relative path).
struct AllowEntry {
  std::string file;
  std::string rule;
};

inline bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Replace comments and string/char literal contents with spaces, preserving
/// newlines (so byte offsets map to the same line numbers).  Handles //, /**/,
/// "..." with escapes, '...' (but not digit separators like 1'000), and raw
/// strings R"delim(...)delim".
inline std::string strip_comments_and_strings(const std::string& text) {
  std::string out = text;
  const std::size_t n = text.size();
  std::size_t i = 0;
  auto blank = [&](std::size_t pos) {
    if (out[pos] != '\n') out[pos] = ' ';
  };
  while (i < n) {
    const char c = text[i];
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      while (i < n && text[i] != '\n') blank(i++);
    } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      blank(i++);
      blank(i++);
      while (i < n && !(text[i] == '*' && i + 1 < n && text[i + 1] == '/')) blank(i++);
      if (i < n) blank(i++);  // '*'
      if (i < n) blank(i++);  // '/'
    } else if (c == '"' && i > 0 && text[i - 1] == 'R') {
      // Raw string literal R"delim( ... )delim".  Find the delimiter, then
      // scan for the closing sequence; newlines inside are preserved.
      std::size_t p = i + 1;
      std::string delim;
      while (p < n && text[p] != '(') delim += text[p++];
      const std::string close = ")" + delim + "\"";
      std::size_t end = text.find(close, p);
      end = (end == std::string::npos) ? n : end + close.size();
      while (i < end && i < n) blank(i++);
    } else if (c == '"') {
      blank(i++);
      while (i < n && text[i] != '"' && text[i] != '\n') {
        if (text[i] == '\\' && i + 1 < n) blank(i++);
        blank(i++);
      }
      if (i < n && text[i] == '"') blank(i++);
    } else if (c == '\'' && (i == 0 || !is_ident_char(text[i - 1]))) {
      // Char literal — but not a digit separator (1'000'000), which follows
      // an identifier character.
      blank(i++);
      while (i < n && text[i] != '\'' && text[i] != '\n') {
        if (text[i] == '\\' && i + 1 < n) blank(i++);
        blank(i++);
      }
      if (i < n && text[i] == '\'') blank(i++);
    } else {
      ++i;
    }
  }
  return out;
}

/// Map byte offset -> 1-based line number.
class LineIndex {
 public:
  explicit LineIndex(const std::string& text) {
    starts_.push_back(0);
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '\n') starts_.push_back(i + 1);
    }
  }
  int line_of(std::size_t offset) const {
    const auto it = std::upper_bound(starts_.begin(), starts_.end(), offset);
    return static_cast<int>(it - starts_.begin());
  }

 private:
  std::vector<std::size_t> starts_;
};

/// First non-space char at or after `pos` (same line semantics not needed —
/// a call's '(' may legally sit on the next line).
inline std::size_t skip_ws(const std::string& text, std::size_t pos) {
  while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos])) != 0) ++pos;
  return pos;
}

/// Word immediately before `pos`, skipping whitespace (for `operator new`).
inline std::string previous_word(const std::string& text, std::size_t pos) {
  while (pos > 0 && std::isspace(static_cast<unsigned char>(text[pos - 1])) != 0) --pos;
  std::size_t end = pos;
  while (pos > 0 && is_ident_char(text[pos - 1])) --pos;
  return text.substr(pos, end - pos);
}

inline char previous_nonspace(const std::string& text, std::size_t pos) {
  while (pos > 0 && std::isspace(static_cast<unsigned char>(text[pos - 1])) != 0) --pos;
  return pos > 0 ? text[pos - 1] : '\0';
}

/// The spellings of a token that for_each_token accepts, as a bit set.  A
/// match never continues an identifier on the left (`my_rand` is not
/// `rand`), and on the right only with kPrefix.
enum Spelling : unsigned {
  kBare = 1u << 0,       ///< `tok`: not `::`-qualified, not a member (`a ?b:tok` is bare)
  kStd = 1u << 1,        ///< `std::tok`
  kGlobal = 1u << 2,     ///< `::tok` (global scope, not `ns::tok`)
  kQualified = 1u << 3,  ///< any `...::tok`, std:: and global included
  kMember = 1u << 4,     ///< `x.tok` or `p->tok`
  kPrefix = 1u << 5,     ///< `tok` may run on as an identifier (`_mm256_add_pd`)
};

/// Does the token at [pos, pos+len) take one of the accepted spellings?
inline bool spelled(const std::string& code, std::size_t pos, std::size_t len,
                    unsigned spellings) {
  unsigned form = kBare;
  if (pos > 0) {
    const char prev = code[pos - 1];
    if (is_ident_char(prev)) return false;
    if (prev == '.' || (prev == '>' && pos > 1 && code[pos - 2] == '-')) {
      form = kMember;
    } else if (prev == ':' && pos > 1 && code[pos - 2] == ':') {
      // `q` is where the qualifier's "::" starts.
      const std::size_t q = pos - 2;
      const char before = q > 0 ? code[q - 1] : '\0';
      form = kQualified;
      if (q >= 3 && code.compare(q - 3, 3, "std") == 0 &&
          (q == 3 || !is_ident_char(code[q - 4]))) {
        form |= kStd;
      } else if (!is_ident_char(before) && before != ':' && before != '>') {
        form |= kGlobal;
      }
    }
  }
  if ((form & spellings) == 0) return false;
  const std::size_t after = pos + len;
  return (spellings & kPrefix) != 0 || after >= code.size() ||
         !is_ident_char(code[after]);
}

/// Call fn(offset) for every occurrence of `token` in one of the accepted
/// spellings; with `call`, only where the next non-space char is '('.
template <typename Fn>
void for_each_token(const std::string& code, const std::string& token, unsigned spellings,
                    bool call, Fn&& fn) {
  for (std::size_t pos = code.find(token); pos != std::string::npos;
       pos = code.find(token, pos + 1)) {
    if (!spelled(code, pos, token.size(), spellings)) continue;
    if (call) {
      const std::size_t paren = skip_ws(code, pos + token.size());
      if (paren >= code.size() || code[paren] != '(') continue;
    }
    fn(pos);
  }
}

/// True iff relpath starts with the directory prefix (e.g. "src/obs/").
inline bool has_dir_prefix(const std::string& relpath, const char* prefix) {
  return relpath.rfind(prefix, 0) == 0;
}

inline bool first_component_is(const std::string& relpath, const char* component) {
  const std::size_t slash = relpath.find('/');
  return relpath.compare(0, slash == std::string::npos ? relpath.size() : slash,
                         component) == 0;
}

inline bool is_header(const std::string& relpath) {
  return relpath.size() >= 2 && relpath.compare(relpath.size() - 2, 2, ".h") == 0;
}

/// Does this directory hold deliberate-violation test fixtures?  Any
/// directory whose name ends in "_fixtures" (lint_fixtures, analyze_fixtures)
/// is skipped by the tree walk so fixtures never fail the repo gate.
inline bool is_fixture_dir(const std::string& dirname) {
  static const std::string kSuffix = "_fixtures";
  return dirname.size() >= kSuffix.size() &&
         dirname.compare(dirname.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0;
}

/// Walk `root`/`dir` for each dir and call fn(relpath, text) for every
/// .h/.cpp file, skipping *_fixtures directories.  Traversal order follows
/// the directory iterator; callers that need determinism sort their results
/// (the diagnostics sort below) rather than rely on walk order.
template <typename Fn>
void for_each_source_file(const std::filesystem::path& root,
                          const std::vector<std::string>& dirs, Fn&& fn) {
  namespace fs = std::filesystem;
  for (const std::string& dir : dirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (auto it = fs::recursive_directory_iterator(base);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() && is_fixture_dir(it->path().filename().string())) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cpp") continue;
      std::string relpath = fs::relative(it->path(), root).generic_string();
      std::ifstream in(it->path(), std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      fn(relpath, buf.str());
    }
  }
}

/// Sort diagnostics by (file, line, rule) for deterministic output.
inline void sort_diagnostics(std::vector<Diagnostic>& diags) {
  std::sort(diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
}

/// Parse allowlist text: one `<path> <rule>` pair per line, `#` comments and
/// blank lines ignored; anything after the rule token is justification.
inline std::vector<AllowEntry> parse_allowlist(const std::string& text) {
  std::vector<AllowEntry> entries;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    AllowEntry e;
    if (fields >> e.file >> e.rule) entries.push_back(std::move(e));
  }
  return entries;
}

/// Drop diagnostics matched by the allowlist.  Entries that matched nothing
/// are appended to `unused` (if non-null) — stale suppressions are findings
/// too.
inline std::vector<Diagnostic> apply_allowlist(const std::vector<Diagnostic>& diags,
                                               const std::vector<AllowEntry>& allow,
                                               std::vector<AllowEntry>* unused) {
  std::vector<bool> used(allow.size(), false);
  std::vector<Diagnostic> kept;
  for (const Diagnostic& d : diags) {
    bool suppressed = false;
    for (std::size_t i = 0; i < allow.size(); ++i) {
      if (allow[i].file == d.file && allow[i].rule == d.rule) {
        used[i] = true;
        suppressed = true;
      }
    }
    if (!suppressed) kept.push_back(d);
  }
  if (unused != nullptr) {
    for (std::size_t i = 0; i < allow.size(); ++i) {
      if (!used[i]) unused->push_back(allow[i]);
    }
  }
  return kept;
}

/// `file:line: [rule] message` — the format compilers use, so editors and CI
/// annotations pick the locations up for free.
inline std::string format_diagnostic(const Diagnostic& d) {
  std::ostringstream out;
  out << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message;
  return out.str();
}

}  // namespace qdb::scan
