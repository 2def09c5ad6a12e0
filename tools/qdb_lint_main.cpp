// qdb_lint CLI: scan the repo for project-convention, locking and
// architecture violations.
//
//   qdb_lint [--root <dir>] [--allow <file>] [--graph <out.dot>] [dir...]
//
// Default scan set is src/ tests/ bench/ examples/ tools/ under --root
// (default: the current directory); the default allowlist is
// <root>/tools/qdb_lint_allow.txt when it exists.  `--graph` also writes the
// module-level include DAG of the same walk as a Graphviz digraph (layers
// ranked bottom-up); it does not affect the exit status.  Exit status: 0
// clean, 1 findings (or stale allowlist entries), 2 usage error.  Output
// lines are `file:line: [rule] message` so editors and CI annotations parse
// them.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/qdb_lint.h"

int main(int argc, char** argv) {
  using namespace qdb::lint;
  std::string root = ".";
  std::string allow_path;
  std::string graph_path;
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--allow" && i + 1 < argc) {
      allow_path = argv[++i];
    } else if (arg == "--graph" && i + 1 < argc) {
      graph_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr,
                   "usage: qdb_lint [--root <dir>] [--allow <file>] "
                   "[--graph <out.dot>] [dir...]\n");
      return 2;
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty()) dirs = {"src", "tests", "bench", "examples", "tools"};
  if (allow_path.empty()) {
    const std::string candidate = root + "/tools/qdb_lint_allow.txt";
    if (std::ifstream(candidate).good()) allow_path = candidate;
  }

  std::vector<AllowEntry> allow;
  if (!allow_path.empty()) {
    std::ifstream in(allow_path);
    if (!in.good()) {
      std::fprintf(stderr, "qdb_lint: cannot read allowlist %s\n", allow_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    allow = parse_allowlist(buf.str());
  }

  const TreeScan scan = scan_tree(root, dirs);
  if (!graph_path.empty()) {
    std::ofstream out(graph_path, std::ios::binary | std::ios::trunc);
    out << graph_dot(scan.graph);
    if (!out.good()) {
      std::fprintf(stderr, "qdb_lint: cannot write graph %s\n", graph_path.c_str());
      return 2;
    }
    std::printf("qdb_lint: wrote %s\n", graph_path.c_str());
  }

  std::vector<AllowEntry> unused;
  const std::vector<Diagnostic> diags = apply_allowlist(scan.diags, allow, &unused);

  for (const Diagnostic& d : diags) {
    std::printf("%s\n", format_diagnostic(d).c_str());
  }
  for (const AllowEntry& e : unused) {
    std::printf("%s: [stale-allowlist] entry '%s %s' matched nothing — remove it\n",
                allow_path.c_str(), e.file.c_str(), e.rule.c_str());
  }
  if (diags.empty() && unused.empty()) {
    std::printf("qdb_lint: clean (%zu allowlist entries)\n", allow.size());
    return 0;
  }
  std::printf("qdb_lint: %zu finding(s), %zu stale allowlist entr%s\n", diags.size(),
              unused.size(), unused.size() == 1 ? "y" : "ies");
  return 1;
}
