// qdb_trace_merge: join N per-process `qdb_cli --trace` dumps into one
// Chrome trace (ISSUE 10).
//
//   qdb_trace_merge <out.json> <in.json> [<in.json>...]
//
// Each input is a single-process dump (the shape qdb_trace_check validates):
// "traceEvents" plus the qdb extensions "summary" / "registry" and an
// optional "process" {pid, name} identity stamped by the CLI.  The merge
//
//   * rewrites every event's pid to the input's 1-based position, so each
//     process renders as its own lane in a trace viewer regardless of OS pid
//     collisions (containers routinely hand every process pid 1);
//   * hoists each input's summary and registry into a "processes" array
//     entry {pid, name, summary, registry}, keyed by the rewritten pid, so
//     the per-process trace==histogram agreement stays checkable after the
//     merge (qdb_trace_check --merge re-verifies it per lane);
//   * leaves the distributed-tracing fields ("trace"/"span"/"parent")
//     untouched — span ids are derived from trace context, not pids, which
//     is exactly what makes cross-process parent references survive the pid
//     rewrite.
//
// After merging, every non-root "parent" reference must resolve to a span id
// somewhere in the merged set: a worker's orchestrate.job span parents to
// the coordinator's orchestrate.lease span, and that edge only exists once
// both dumps are in the same document.  Unresolved parents are reported and
// exit 1 — a merge that silently drops the cross-process edges it exists to
// create would be worse than no merge.
//
// Exit status: 0 merged clean, 1 unresolved parents, 2 usage/io/parse error.
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/strings.h"

namespace {

using qdb::Json;

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: qdb_trace_merge <out.json> <in.json> [<in.json>...]\n");
    return 2;
  }
  const std::string out_path = argv[1];

  Json merged_events = Json::array();
  Json processes = Json::array();
  std::set<std::uint64_t> span_ids;
  // parent id -> (event name, input path) for the unresolved report.
  std::vector<std::pair<std::uint64_t, std::string>> parent_refs;
  std::size_t event_total = 0;

  for (int i = 2; i < argc; ++i) {
    const std::string in_path = argv[i];
    const int pid = i - 1;  // 1-based lane per input
    Json doc;
    try {
      doc = Json::parse(qdb::read_file(in_path));
    } catch (const qdb::Error& e) {
      std::fprintf(stderr, "qdb_trace_merge: %s: %s\n", in_path.c_str(),
                   e.what());
      return 2;
    }
    try {
      if (!doc.contains("traceEvents") || !doc.at("traceEvents").is_array()) {
        throw qdb::Error("missing \"traceEvents\" array");
      }
      std::string name = basename_of(in_path);
      if (doc.contains("process") && doc.at("process").is_object() &&
          doc.at("process").contains("name") &&
          doc.at("process").at("name").is_string() &&
          !doc.at("process").at("name").as_string().empty()) {
        name = doc.at("process").at("name").as_string();
      }
      for (const Json& ev : doc.at("traceEvents").as_array()) {
        Json copy = ev;  // value-type JSON: cheap enough at trace-dump scale
        copy.set("pid", pid);
        if (ev.is_object() && ev.contains("span") &&
            ev.at("span").is_string()) {
          const std::string& text = ev.at("span").as_string();
          std::uint64_t span = 0;
          if (text.size() == 16 && qdb::parse_hex_u64(text, &span)) {
            span_ids.insert(span);
          }
        }
        if (ev.is_object() && ev.contains("parent") &&
            ev.at("parent").is_string()) {
          const std::string& text = ev.at("parent").as_string();
          std::uint64_t parent = 0;
          if (text.size() == 16 && qdb::parse_hex_u64(text, &parent)) {
            const std::string who =
                (ev.contains("name") && ev.at("name").is_string()
                     ? ev.at("name").as_string()
                     : "?") +
                " (" + in_path + ")";
            parent_refs.emplace_back(parent, who);
          }
        }
        merged_events.push_back(std::move(copy));
        ++event_total;
      }
      Json entry = Json::object();
      entry.set("pid", pid);
      entry.set("name", name);
      entry.set("summary", doc.contains("summary") ? doc.at("summary")
                                                   : Json::array());
      entry.set("registry", doc.contains("registry") ? doc.at("registry")
                                                     : Json::object());
      processes.push_back(std::move(entry));
    } catch (const qdb::Error& e) {
      std::fprintf(stderr, "qdb_trace_merge: %s: %s\n", in_path.c_str(),
                   e.what());
      return 2;
    }
  }

  int unresolved = 0;
  for (const auto& [parent, who] : parent_refs) {
    if (span_ids.count(parent) == 0) {
      std::fprintf(stderr,
                   "qdb_trace_merge: unresolved parent reference from %s\n",
                   who.c_str());
      ++unresolved;
    }
  }

  Json out = Json::object();
  out.set("traceEvents", std::move(merged_events));
  out.set("displayTimeUnit", "ms");
  out.set("merged", true);
  out.set("processes", std::move(processes));
  try {
    qdb::write_file_atomic(out_path, out.dump() + "\n");
  } catch (const qdb::Error& e) {
    std::fprintf(stderr, "qdb_trace_merge: %s\n", e.what());
    return 2;
  }

  std::printf("qdb_trace_merge: %s <- %d process(es), %zu events, "
              "%zu span ids, %d unresolved parent(s)\n",
              out_path.c_str(), argc - 2, event_total, span_ids.size(),
              unresolved);
  return unresolved == 0 ? 0 : 1;
}
