// qdb_trace_check: schema and consistency checker for qdb_cli --trace dumps
// and qdb_trace_merge outputs.
//
//   qdb_trace_check <trace.json> [--require-span <name>]...
//                   [--require-counter <name>]...
//                   [--merge] [--require-ancestor <child>=<ancestor>[@<pct>]]...
//
// Single-process mode validates the Chrome-trace document the CLI writes
// (ISSUE 5):
//
//   1. Top-level shape: "traceEvents" array, "displayTimeUnit" string, plus
//      the qdb extensions "summary" (array), "registry" (object) and
//      "prometheus" (string).  Extra top-level keys are legal in the
//      trace_event format — viewers ignore them — so embedding the metric
//      snapshot next to the events costs nothing.
//   2. Every event is a complete ("ph":"X") event carrying name / cat / ts /
//      dur / pid / tid with the right types and non-negative times; the
//      distributed-tracing fields ("trace" 32 hex, "span"/"parent" 16 hex,
//      ISSUE 10) are well-formed and self-consistent when present, and span
//      ids are unique within the document.
//   3. Exact agreement: for every span name, the number of trace events
//      equals the "summary" count, which equals the registry histogram
//      `span.<name>` count, and the summed event durations equal the summary
//      total_us (with self_us <= total_us).  This is the acceptance
//      criterion that ties the trace layer to the metric layer — the two are
//      recorded independently on the hot path, so any drift is a bug.
//   4. The embedded Prometheus exposition declares each family's # TYPE at
//      most once and every sample line parses as `name{labels} value`.
//
// --merge mode validates a qdb_trace_merge output instead (ISSUE 10):
// top-level "merged": true plus a "processes" array of
// {pid, name, summary, registry}; pid lanes are disjoint (unique pids,
// every event's pid named by a process); span ids are globally unique;
// every non-root "parent" reference resolves to a span id somewhere in the
// merged document (this is what makes cross-process parenting real, not
// cosmetic); and the trace==summary==histogram agreement holds per process
// over that process's pid lane.
//
// --require-ancestor child=ancestor[@pct] (merge mode's reason to exist):
// at least <pct>% (default 100) of the events named <child> must reach an
// event named <ancestor> by walking parent references — transitively,
// across processes.  The CI chaos gate uses
// `--require-ancestor orchestrate.job=orchestrate.lease@95` to prove worker
// job spans really parent to coordinator lease spans.
//
// --require-counter <name> (single-process mode): the registry must hold
// counter <name> with a nonzero value — proof that the code behind it ran,
// e.g. `dock.pairs.reused` for incremental docking scores.
//
// Exit status: 0 clean, 1 findings, 2 usage/io error.  Output lines are
// `trace.json: message` so CI annotations parse them.
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/strings.h"

namespace {

using qdb::Json;

int g_findings = 0;
const char* g_path = "";

void fail(const std::string& message) {
  std::printf("%s: %s\n", g_path, message.c_str());
  ++g_findings;
}

/// Per-span-name tallies accumulated from the raw events.
struct NameTally {
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;
};

/// One event that carried a distributed-trace span id.
struct IdEvent {
  std::string name;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;  // 0 = trace root
};

struct EventsScan {
  std::map<std::string, NameTally> by_name;
  std::map<std::int64_t, std::map<std::string, NameTally>> by_pid;
  std::set<std::int64_t> pids;
  std::vector<IdEvent> id_events;
};

EventsScan scan_events(const Json& doc) {
  EventsScan scan;
  const qdb::JsonArray& events = doc.at("traceEvents").as_array();
  std::size_t index = 0;
  for (const Json& ev : events) {
    const std::string where = "traceEvents[" + std::to_string(index++) + "]";
    if (!ev.is_object()) {
      fail(where + " is not an object");
      continue;
    }
    bool usable = true;
    for (const char* key : {"name", "cat", "ph"}) {
      if (!ev.contains(key) || !ev.at(key).is_string()) {
        fail(where + " missing string field \"" + key + "\"");
        usable = false;
      }
    }
    for (const char* key : {"ts", "dur", "pid", "tid"}) {
      if (!ev.contains(key) || !ev.at(key).is_number()) {
        fail(where + " missing numeric field \"" + key + "\"");
        usable = false;
      } else if (ev.at(key).as_int() < 0) {
        fail(where + " has negative \"" + key + "\"");
        usable = false;
      }
    }
    if (!usable) continue;
    if (ev.at("ph").as_string() != "X") {
      fail(where + " phase is \"" + ev.at("ph").as_string() +
           "\" (expected complete event \"X\")");
      continue;
    }
    if (ev.at("name").as_string().empty()) {
      fail(where + " has an empty span name");
      continue;
    }
    if (ev.contains("args") && !ev.at("args").is_object()) {
      fail(where + " \"args\" is not an object");
    }

    // Distributed-tracing fields (ISSUE 10): optional as a set, but all or
    // nothing per event ("parent" additionally requires a non-root parent).
    IdEvent id;
    bool has_id = false;
    if (ev.contains("span") != ev.contains("trace")) {
      fail(where + " carries \"span\"/\"trace\" without the other");
    } else if (ev.contains("span")) {
      std::uint64_t trace_hi_lo[2] = {0, 0};
      const std::string& trace = ev.at("trace").as_string();
      const std::string& span = ev.at("span").as_string();
      bool ok = true;
      // Uppercase hex is a finding: the exporter writes lowercase.
      if (trace.size() != 32 ||
          !qdb::parse_hex_u64(std::string_view(trace).substr(0, 16), &trace_hi_lo[0]) ||
          !qdb::parse_hex_u64(std::string_view(trace).substr(16), &trace_hi_lo[1]) ||
          (trace_hi_lo[0] | trace_hi_lo[1]) == 0) {
        fail(where + " \"trace\" is not 32 lowercase hex chars (nonzero)");
        ok = false;
      }
      if (span.size() != 16 || !qdb::parse_hex_u64(span, &id.span) || id.span == 0) {
        fail(where + " \"span\" is not 16 lowercase hex chars (nonzero)");
        ok = false;
      }
      if (ev.contains("parent")) {
        const std::string& parent = ev.at("parent").as_string();
        if (parent.size() != 16 || !qdb::parse_hex_u64(parent, &id.parent) ||
            id.parent == 0) {
          fail(where + " \"parent\" is not 16 lowercase hex chars (nonzero)");
          ok = false;
        } else if (id.parent == id.span) {
          fail(where + " is its own parent");
          ok = false;
        }
      }
      has_id = ok;
    } else if (ev.contains("parent")) {
      fail(where + " carries \"parent\" without \"span\"");
    }

    const std::string& name = ev.at("name").as_string();
    const std::int64_t pid = ev.at("pid").as_int();
    scan.pids.insert(pid);
    NameTally& tally = scan.by_name[name];
    tally.count += 1;
    tally.total_us += static_cast<std::uint64_t>(ev.at("dur").as_int());
    NameTally& lane = scan.by_pid[pid][name];
    lane.count += 1;
    lane.total_us += static_cast<std::uint64_t>(ev.at("dur").as_int());
    if (has_id) {
      id.name = name;
      scan.id_events.push_back(std::move(id));
    }
  }
  return scan;
}

void check_span_id_uniqueness(const EventsScan& scan) {
  std::unordered_map<std::uint64_t, const IdEvent*> seen;
  seen.reserve(scan.id_events.size());
  for (const IdEvent& ev : scan.id_events) {
    const auto [it, inserted] = seen.emplace(ev.span, &ev);
    if (!inserted) {
      fail("span id collision: \"" + ev.name + "\" and \"" + it->second->name +
           "\" both carry span id " + std::to_string(ev.span));
    }
  }
}

void check_parent_resolution(const EventsScan& scan) {
  std::set<std::uint64_t> spans;
  for (const IdEvent& ev : scan.id_events) spans.insert(ev.span);
  for (const IdEvent& ev : scan.id_events) {
    if (ev.parent != 0 && spans.count(ev.parent) == 0) {
      fail("span \"" + ev.name + "\" has unresolved parent id " +
           std::to_string(ev.parent) + " (no such span in the document)");
    }
  }
}

/// One --require-ancestor directive.
struct AncestorRequirement {
  std::string child;
  std::string ancestor;
  int min_pct = 100;
};

void check_ancestry(const EventsScan& scan, const AncestorRequirement& req) {
  const auto denom_it = scan.by_name.find(req.child);
  const std::uint64_t denominator =
      denom_it == scan.by_name.end() ? 0 : denom_it->second.count;
  if (denominator == 0) {
    fail("--require-ancestor: no events named \"" + req.child + "\"");
    return;
  }
  std::unordered_map<std::uint64_t, const IdEvent*> by_span;
  by_span.reserve(scan.id_events.size());
  for (const IdEvent& ev : scan.id_events) by_span.emplace(ev.span, &ev);

  std::uint64_t hits = 0;
  for (const IdEvent& ev : scan.id_events) {
    if (ev.name != req.child) continue;
    const IdEvent* cursor = &ev;
    for (int hop = 0; hop < 64 && cursor->parent != 0; ++hop) {
      const auto it = by_span.find(cursor->parent);
      if (it == by_span.end()) break;
      cursor = it->second;
      if (cursor->name == req.ancestor) {
        ++hits;
        break;
      }
    }
  }
  // Events named child without ids count against coverage: an un-propagated
  // context is exactly the regression this check exists to catch.
  const std::uint64_t pct = hits * 100 / denominator;
  if (pct < static_cast<std::uint64_t>(req.min_pct)) {
    fail("--require-ancestor: only " + std::to_string(hits) + "/" +
         std::to_string(denominator) + " (" + std::to_string(pct) +
         "%) of \"" + req.child + "\" spans reach ancestor \"" + req.ancestor +
         "\" (need " + std::to_string(req.min_pct) + "%)");
  }
}

void check_summary_agreement(const Json& summary,
                             const std::map<std::string, NameTally>& by_name,
                             const std::string& label) {
  std::set<std::string> summarized;
  for (const Json& row : summary.as_array()) {
    const std::string& name = row.at("name").as_string();
    summarized.insert(name);
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      fail(label + "summary names span \"" + name + "\" with no trace events");
      continue;
    }
    const auto count = static_cast<std::uint64_t>(row.at("count").as_int());
    const auto total = static_cast<std::uint64_t>(row.at("total_us").as_int());
    const auto self = static_cast<std::uint64_t>(row.at("self_us").as_int());
    if (count != it->second.count) {
      fail(label + "summary count for \"" + name + "\" is " +
           std::to_string(count) + " but the trace holds " +
           std::to_string(it->second.count) + " events");
    }
    if (total != it->second.total_us) {
      fail(label + "summary total_us for \"" + name + "\" is " +
           std::to_string(total) + " but event durations sum to " +
           std::to_string(it->second.total_us));
    }
    if (self > total) {
      fail(label + "summary self_us for \"" + name + "\" exceeds its total_us");
    }
  }
  for (const auto& [name, tally] : by_name) {
    (void)tally;
    if (summarized.count(name) == 0) {
      fail(label + "span \"" + name +
           "\" appears in traceEvents but not in summary");
    }
  }
}

void check_registry_agreement(const Json& registry,
                              const std::map<std::string, NameTally>& by_name,
                              const std::string& label) {
  const Json& histograms = registry.at("histograms");
  if (!histograms.is_object()) {
    fail(label + "registry.histograms is not an object");
    return;
  }
  for (const auto& [name, tally] : by_name) {
    const std::string metric = "span." + name;
    if (!histograms.contains(metric)) {
      fail(label + "registry has no histogram \"" + metric +
           "\" for a traced span");
      continue;
    }
    const auto registered =
        static_cast<std::uint64_t>(histograms.at(metric).at("count").as_int());
    if (registered != tally.count) {
      fail(label + "registry histogram \"" + metric + "\" counts " +
           std::to_string(registered) + " but the trace holds " +
           std::to_string(tally.count) + " events (must agree exactly)");
    }
  }
}

void check_prometheus(const Json& doc) {
  const std::string& text = doc.at("prometheus").as_string();
  std::set<std::string> families;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::size_t name_end = line.find(' ', 7);
      const std::string family =
          line.substr(7, name_end == std::string::npos ? std::string::npos
                                                       : name_end - 7);
      if (!families.insert(family).second) {
        fail("prometheus line " + std::to_string(line_no) +
             ": duplicate # TYPE for family \"" + family + "\"");
      }
      continue;
    }
    if (line[0] == '#') continue;  // other comments are legal
    // Sample line: metric_name[{labels}] value
    std::size_t name_end = 0;
    while (name_end < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[name_end])) != 0 ||
            line[name_end] == '_' || line[name_end] == ':')) {
      ++name_end;
    }
    if (name_end == 0) {
      fail("prometheus line " + std::to_string(line_no) +
           " does not start with a metric name: " + line);
      continue;
    }
    std::size_t rest = name_end;
    if (rest < line.size() && line[rest] == '{') {
      // Labels: scan to the closing brace outside of quoted strings.
      bool in_quotes = false;
      bool escaped = false;
      ++rest;
      while (rest < line.size()) {
        const char c = line[rest];
        if (escaped) {
          escaped = false;
        } else if (c == '\\') {
          escaped = true;
        } else if (c == '"') {
          in_quotes = !in_quotes;
        } else if (c == '}' && !in_quotes) {
          break;
        }
        ++rest;
      }
      if (rest >= line.size()) {
        fail("prometheus line " + std::to_string(line_no) +
             " has an unterminated label set: " + line);
        continue;
      }
      ++rest;  // past '}'
    }
    if (rest >= line.size() || line[rest] != ' ') {
      fail("prometheus line " + std::to_string(line_no) +
           " is missing the value separator: " + line);
      continue;
    }
    const std::string value = line.substr(rest + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      fail("prometheus line " + std::to_string(line_no) +
           " has a non-numeric value \"" + value + "\"");
    }
  }
}

void check_merged_processes(const Json& doc, const EventsScan& scan) {
  const qdb::JsonArray& processes = doc.at("processes").as_array();
  if (processes.empty()) {
    fail("merged document has an empty \"processes\" array");
    return;
  }
  std::set<std::int64_t> lane_pids;
  std::size_t index = 0;
  for (const Json& proc : processes) {
    const std::string where = "processes[" + std::to_string(index++) + "]";
    if (!proc.is_object() || !proc.contains("pid") ||
        !proc.at("pid").is_number() || !proc.contains("name") ||
        !proc.at("name").is_string() || !proc.contains("summary") ||
        !proc.at("summary").is_array() || !proc.contains("registry") ||
        !proc.at("registry").is_object()) {
      fail(where + " must carry pid / name / summary / registry");
      continue;
    }
    const std::int64_t pid = proc.at("pid").as_int();
    if (!lane_pids.insert(pid).second) {
      fail(where + " reuses pid " + std::to_string(pid) +
           " (pid lanes must be disjoint)");
      continue;
    }
    const std::string label =
        "pid " + std::to_string(pid) + " (" + proc.at("name").as_string() + "): ";
    static const std::map<std::string, NameTally> kEmpty;
    const auto lane_it = scan.by_pid.find(pid);
    const auto& lane = lane_it == scan.by_pid.end() ? kEmpty : lane_it->second;
    check_summary_agreement(proc.at("summary"), lane, label);
    check_registry_agreement(proc.at("registry"), lane, label);
  }
  for (const std::int64_t pid : scan.pids) {
    if (lane_pids.count(pid) == 0) {
      fail("events carry pid " + std::to_string(pid) +
           " but no process entry claims that lane");
    }
  }
}

void check_required_counter(const Json& registry, const std::string& name) {
  const Json& counters = registry.at("counters");
  if (!counters.is_object() || !counters.contains(name)) {
    fail("required counter \"" + name + "\" is not in the registry");
  } else if (counters.at(name).as_int() == 0) {
    fail("required counter \"" + name + "\" is zero");
  }
}

constexpr const char* kUsage =
    "usage: qdb_trace_check <trace.json> [--require-span <name>]...\n"
    "                       [--require-counter <name>]...\n"
    "                       [--merge] "
    "[--require-ancestor <child>=<ancestor>[@<pct>]]...\n";

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::vector<std::string> required_spans;
  std::vector<std::string> required_counters;
  std::vector<AncestorRequirement> required_ancestors;
  bool merge_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--require-span" && i + 1 < argc) {
      required_spans.push_back(argv[++i]);
    } else if (arg == "--require-counter" && i + 1 < argc) {
      required_counters.push_back(argv[++i]);
    } else if (arg == "--merge") {
      merge_mode = true;
    } else if (arg == "--require-ancestor" && i + 1 < argc) {
      const std::string spec = argv[++i];
      AncestorRequirement req;
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "%s", kUsage);
        return 2;
      }
      req.child = spec.substr(0, eq);
      std::string rest = spec.substr(eq + 1);
      const std::size_t at = rest.find('@');
      if (at != std::string::npos) {
        char* end = nullptr;
        const long pct = std::strtol(rest.c_str() + at + 1, &end, 10);
        if (end == nullptr || *end != '\0' || pct < 0 || pct > 100) {
          std::fprintf(stderr, "%s", kUsage);
          return 2;
        }
        req.min_pct = static_cast<int>(pct);
        rest = rest.substr(0, at);
      }
      if (rest.empty()) {
        std::fprintf(stderr, "%s", kUsage);
        return 2;
      }
      req.ancestor = rest;
      required_ancestors.push_back(std::move(req));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "qdb_trace_check: more than one input file\n");
      return 2;
    }
  }
  if (path.empty() || (merge_mode && !required_counters.empty())) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  g_path = path.c_str();

  Json doc;
  try {
    doc = Json::parse(qdb::read_file(path));
  } catch (const qdb::Error& e) {
    std::fprintf(stderr, "qdb_trace_check: %s\n", e.what());
    return 2;
  }

  try {
    // Top-level shape.
    if (!doc.contains("traceEvents") || !doc.at("traceEvents").is_array()) {
      fail("missing top-level \"traceEvents\" array");
    }
    if (!doc.contains("displayTimeUnit") ||
        !doc.at("displayTimeUnit").is_string()) {
      fail("missing top-level \"displayTimeUnit\" string");
    }
    if (merge_mode) {
      if (!doc.contains("merged") ||
          doc.at("merged").type() != Json::Type::Bool ||
          !doc.at("merged").as_bool()) {
        fail("missing top-level \"merged\": true (is this a qdb_trace_merge "
             "output?)");
      }
      if (!doc.contains("processes") || !doc.at("processes").is_array()) {
        fail("missing top-level \"processes\" array");
      }
    } else {
      if (!doc.contains("summary") || !doc.at("summary").is_array()) {
        fail("missing top-level \"summary\" array");
      }
      if (!doc.contains("registry") || !doc.at("registry").is_object()) {
        fail("missing top-level \"registry\" object");
      }
      if (!doc.contains("prometheus") || !doc.at("prometheus").is_string()) {
        fail("missing top-level \"prometheus\" string");
      }
    }
    if (g_findings != 0) {
      std::printf("qdb_trace_check: %d finding(s)\n", g_findings);
      return 1;
    }

    const EventsScan scan = scan_events(doc);
    check_span_id_uniqueness(scan);
    if (merge_mode) {
      // Parent references must resolve only in merge mode: a lone worker
      // dump legitimately references lease spans that live in the
      // coordinator's dump.
      check_parent_resolution(scan);
      check_merged_processes(doc, scan);
    } else {
      check_summary_agreement(doc.at("summary"), scan.by_name, "");
      check_registry_agreement(doc.at("registry"), scan.by_name, "");
      check_prometheus(doc);
    }
    for (const std::string& name : required_spans) {
      if (scan.by_name.count(name) == 0) {
        fail("required span \"" + name + "\" has no trace events");
      }
    }
    for (const std::string& name : required_counters) {
      check_required_counter(doc.at("registry"), name);
    }
    for (const AncestorRequirement& req : required_ancestors) {
      check_ancestry(scan, req);
    }

    if (g_findings == 0) {
      std::printf("qdb_trace_check: %s clean (%zu span name%s, %zu events)\n",
                  path.c_str(), scan.by_name.size(),
                  scan.by_name.size() == 1 ? "" : "s",
                  doc.at("traceEvents").as_array().size());
      return 0;
    }
    std::printf("qdb_trace_check: %d finding(s)\n", g_findings);
    return 1;
  } catch (const qdb::Error& e) {
    std::fprintf(stderr, "qdb_trace_check: malformed document: %s\n", e.what());
    return 2;
  }
}
