// qdb_trace_check: schema and consistency checker for one or more
// qdb_cli --trace dumps (one dump per process).
//
//   qdb_trace_check <trace.json>... [--require-span <name>]...
//                   [--require-counter <name>]...
//                   [--require-ancestor <child>=<ancestor>[@<pct>]]...
//                   [--out <joined.json>]
//
// Each input is first checked on its own:
//
//   1. Top-level shape: "traceEvents" array, "displayTimeUnit" string, plus
//      the qdb extensions "summary" (array), "registry" (object) and
//      "prometheus" (string).  Extra top-level keys are legal in the
//      trace_event format — viewers ignore them — so embedding the metric
//      snapshot next to the events costs nothing.
//   2. Every event is a complete ("ph":"X") event carrying name / cat / ts /
//      dur / pid / tid with the right types and non-negative times; the
//      distributed-tracing fields ("trace" 32 hex, "span"/"parent" 16 hex)
//      are well-formed and self-consistent when present.
//   3. Exact agreement: for every span name, the number of trace events
//      equals the "summary" count, which equals the registry histogram
//      `span.<name>` count, and the summed event durations equal the summary
//      total_us (with self_us <= total_us).  This is the acceptance
//      criterion that ties the trace layer to the metric layer — the two are
//      recorded independently on the hot path, so any drift is a bug.
//   4. The embedded Prometheus exposition declares each family's # TYPE at
//      most once and every sample line parses as `name{labels} value`.
//
// The inputs are then joined in memory, each event's pid rewritten to its
// input's 1-based position (containers routinely hand every process pid 1),
// and the union is checked:
//
//   * span ids are unique across all inputs;
//   * with more than one input, every non-root "parent" reference resolves
//     to a span id in some input.  A worker's orchestrate.job span parents
//     to the coordinator's orchestrate.lease span, an edge that only exists
//     once both dumps are read; a lone worker dump legitimately references
//     spans it does not hold, so one input skips this check;
//   * --require-span <name>: some input holds events named <name>;
//   * --require-ancestor child=ancestor[@pct]: at least <pct>% (default 100)
//     of the events named <child> reach an event named <ancestor> by walking
//     parent references — transitively, across inputs.  The CI chaos gate
//     uses `--require-ancestor orchestrate.job=orchestrate.lease@95` to prove
//     worker job spans really parent to coordinator lease spans;
//   * --require-counter <name> (one input only: counters are per process):
//     the registry holds counter <name> with a nonzero value — proof that
//     the code behind it ran, e.g. `dock.pairs.reused` for incremental
//     docking scores.
//
// --out <file> writes the joined Chrome trace ("traceEvents",
// "displayTimeUnit", "processes": [{pid, name}]) for a trace viewer, where
// each input renders as its own lane.  It is written whenever every input
// has the right top-level shape, findings or not.
//
// Exit status: 0 clean, 1 findings, 2 usage/io error.  Output lines are
// `trace.json: message` so CI annotations parse them.
#include <cctype>
#include <charconv>
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
  const char* path = "";     // the input it came from
};

/// The union of every input's events: per-name tallies and span ids.
struct EventsScan {
  std::map<std::string, NameTally> by_name;
  std::vector<IdEvent> id_events;
};

/// Scan one input's events into its own tallies and append its span ids to
/// `id_events` (the union over all inputs).
std::map<std::string, NameTally> scan_events(const Json& doc,
                                             std::vector<IdEvent>& id_events) {
  std::map<std::string, NameTally> by_name;
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

    // Distributed-tracing fields: optional as a set, but all or nothing per
    // event ("parent" additionally requires a non-root parent).
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
    NameTally& tally = by_name[name];
    tally.count += 1;
    tally.total_us += static_cast<std::uint64_t>(ev.at("dur").as_int());
    if (has_id) {
      id.name = name;
      id.path = g_path;
      id_events.push_back(std::move(id));
    }
  }
  return by_name;
}

/// A span id as the dumps spell it: 16 lowercase hex digits.
std::string span_hex(std::uint64_t id) {
  return qdb::format("%016llx", static_cast<unsigned long long>(id));
}

void check_span_id_uniqueness(const EventsScan& scan) {
  std::unordered_map<std::uint64_t, const IdEvent*> seen;
  seen.reserve(scan.id_events.size());
  for (const IdEvent& ev : scan.id_events) {
    const auto [it, inserted] = seen.emplace(ev.span, &ev);
    if (!inserted) {
      g_path = ev.path;
      const IdEvent& first = *it->second;
      const std::string first_where =
          first.path == ev.path ? "" : std::string(" (") + first.path + ")";
      fail("span id collision: \"" + ev.name + "\" and \"" + first.name + "\"" +
           first_where + " both carry span id " + span_hex(ev.span));
    }
  }
}

void check_parent_resolution(const EventsScan& scan) {
  std::set<std::uint64_t> spans;
  for (const IdEvent& ev : scan.id_events) spans.insert(ev.span);
  for (const IdEvent& ev : scan.id_events) {
    if (ev.parent != 0 && spans.count(ev.parent) == 0) {
      g_path = ev.path;
      fail("span \"" + ev.name + "\" has unresolved parent id " +
           span_hex(ev.parent) + " (no such span in any input)");
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
  const std::string coverage = std::to_string(hits) + "/" +
                               std::to_string(denominator) + " (" +
                               std::to_string(pct) + "%) of \"" + req.child +
                               "\" spans reach ancestor \"" + req.ancestor + "\"";
  if (pct < static_cast<std::uint64_t>(req.min_pct)) {
    fail("--require-ancestor: only " + coverage + " (need " +
         std::to_string(req.min_pct) + "%)");
  } else {
    std::printf("qdb_trace_check: %s\n", coverage.c_str());
  }
}

void check_summary_agreement(const Json& summary,
                             const std::map<std::string, NameTally>& by_name) {
  std::set<std::string> summarized;
  for (const Json& row : summary.as_array()) {
    const std::string& name = row.at("name").as_string();
    summarized.insert(name);
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      fail("summary names span \"" + name + "\" with no trace events");
      continue;
    }
    const auto count = static_cast<std::uint64_t>(row.at("count").as_int());
    const auto total = static_cast<std::uint64_t>(row.at("total_us").as_int());
    const auto self = static_cast<std::uint64_t>(row.at("self_us").as_int());
    if (count != it->second.count) {
      fail("summary count for \"" + name + "\" is " +
           std::to_string(count) + " but the trace holds " +
           std::to_string(it->second.count) + " events");
    }
    if (total != it->second.total_us) {
      fail("summary total_us for \"" + name + "\" is " +
           std::to_string(total) + " but event durations sum to " +
           std::to_string(it->second.total_us));
    }
    if (self > total) {
      fail("summary self_us for \"" + name + "\" exceeds its total_us");
    }
  }
  for (const auto& [name, tally] : by_name) {
    (void)tally;
    if (summarized.count(name) == 0) {
      fail("span \"" + name +
           "\" appears in traceEvents but not in summary");
    }
  }
}

void check_registry_agreement(const Json& registry,
                              const std::map<std::string, NameTally>& by_name) {
  const Json& histograms = registry.at("histograms");
  if (!histograms.is_object()) {
    fail("registry.histograms is not an object");
    return;
  }
  for (const auto& [name, tally] : by_name) {
    const std::string metric = "span." + name;
    if (!histograms.contains(metric)) {
      fail("registry has no histogram \"" + metric +
           "\" for a traced span");
      continue;
    }
    const auto registered =
        static_cast<std::uint64_t>(histograms.at(metric).at("count").as_int());
    if (registered != tally.count) {
      fail("registry histogram \"" + metric + "\" counts " +
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

void check_required_counter(const Json& registry, const std::string& name) {
  const Json& counters = registry.at("counters");
  if (!counters.is_object() || !counters.contains(name)) {
    fail("required counter \"" + name + "\" is not in the registry");
  } else if (counters.at(name).as_int() == 0) {
    fail("required counter \"" + name + "\" is zero");
  }
}

void check_shape(const Json& doc) {
  if (!doc.contains("traceEvents") || !doc.at("traceEvents").is_array()) {
    fail("missing top-level \"traceEvents\" array");
  }
  if (!doc.contains("displayTimeUnit") || !doc.at("displayTimeUnit").is_string()) {
    fail("missing top-level \"displayTimeUnit\" string");
  }
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

/// A dump's process name: its "process" object's name, else the file name.
std::string process_name(const Json& doc, const std::string& path) {
  if (doc.contains("process") && doc.at("process").is_object() &&
      doc.at("process").contains("name") && doc.at("process").at("name").is_string() &&
      !doc.at("process").at("name").as_string().empty()) {
    return doc.at("process").at("name").as_string();
  }
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

constexpr const char* kUsage =
    "usage: qdb_trace_check <trace.json>... [--require-span <name>]...\n"
    "                       [--require-counter <name>]... (one input only)\n"
    "                       [--require-ancestor <child>=<ancestor>[@<pct>]]...\n"
    "                       [--out <joined.json>]\n";

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::vector<std::string> required_spans;
  std::vector<std::string> required_counters;
  std::vector<AncestorRequirement> required_ancestors;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--require-span" && i + 1 < argc) {
      required_spans.push_back(argv[++i]);
    } else if (arg == "--require-counter" && i + 1 < argc) {
      required_counters.push_back(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
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
        // The whole of the text after '@': an empty or partial number would
        // otherwise read as 0%, a requirement that always holds.
        const char* first = rest.c_str() + at + 1;
        const char* last = rest.c_str() + rest.size();
        const auto [stop, ec] = std::from_chars(first, last, req.min_pct);
        if (ec != std::errc() || stop != last || req.min_pct < 0 || req.min_pct > 100) {
          std::fprintf(stderr, "%s", kUsage);
          return 2;
        }
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
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty() || (paths.size() > 1 && !required_counters.empty())) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  std::vector<Json> docs(paths.size());
  for (std::size_t k = 0; k < paths.size(); ++k) {
    try {
      docs[k] = Json::parse(qdb::read_file(paths[k]));
    } catch (const qdb::Error& e) {
      std::fprintf(stderr, "qdb_trace_check: %s\n", e.what());
      return 2;
    }
  }
  std::string label = paths[0];
  for (std::size_t k = 1; k < paths.size(); ++k) label += " + " + paths[k];

  try {
    for (std::size_t k = 0; k < paths.size(); ++k) {
      g_path = paths[k].c_str();
      check_shape(docs[k]);
    }
    if (g_findings != 0) {
      std::printf("qdb_trace_check: %d finding(s)\n", g_findings);
      return 1;
    }

    // Each input against its own summary, registry and exposition; the
    // union's tallies and span ids feed the cross-input checks below.
    EventsScan all;
    std::size_t event_total = 0;
    for (std::size_t k = 0; k < paths.size(); ++k) {
      g_path = paths[k].c_str();
      const auto by_name = scan_events(docs[k], all.id_events);
      check_summary_agreement(docs[k].at("summary"), by_name);
      check_registry_agreement(docs[k].at("registry"), by_name);
      check_prometheus(docs[k]);
      for (const auto& [name, tally] : by_name) {
        all.by_name[name].count += tally.count;
        all.by_name[name].total_us += tally.total_us;
      }
      event_total += docs[k].at("traceEvents").as_array().size();
    }

    check_span_id_uniqueness(all);
    if (paths.size() > 1) check_parent_resolution(all);
    g_path = label.c_str();
    for (const std::string& name : required_spans) {
      if (all.by_name.count(name) == 0) {
        fail("required span \"" + name + "\" has no trace events");
      }
    }
    for (const std::string& name : required_counters) {
      check_required_counter(docs[0].at("registry"), name);
    }
    for (const AncestorRequirement& req : required_ancestors) {
      check_ancestry(all, req);
    }

    if (!out_path.empty()) {
      Json events = Json::array();
      Json processes = Json::array();
      for (std::size_t k = 0; k < paths.size(); ++k) {
        const auto pid = static_cast<std::int64_t>(k + 1);
        for (const Json& ev : docs[k].at("traceEvents").as_array()) {
          Json copy = ev;  // value-type JSON: cheap enough at trace-dump scale
          if (copy.is_object()) copy.set("pid", pid);
          events.push_back(std::move(copy));
        }
        Json proc = Json::object();
        proc.set("pid", pid);
        proc.set("name", process_name(docs[k], paths[k]));
        processes.push_back(std::move(proc));
      }
      Json out = Json::object();
      out.set("traceEvents", std::move(events));
      out.set("displayTimeUnit", "ms");
      out.set("processes", std::move(processes));
      try {
        qdb::write_file_atomic(out_path, out.dump() + "\n");
      } catch (const qdb::Error& e) {
        std::fprintf(stderr, "qdb_trace_check: %s\n", e.what());
        return 2;
      }
      std::printf("qdb_trace_check: %s <- %zu process(es), %zu events\n",
                  out_path.c_str(), paths.size(), event_total);
    }

    if (g_findings == 0) {
      std::printf("qdb_trace_check: %s clean (%zu span name%s, %zu events)\n",
                  label.c_str(), all.by_name.size(),
                  all.by_name.size() == 1 ? "" : "s", event_total);
      return 0;
    }
    std::printf("qdb_trace_check: %d finding(s)\n", g_findings);
    return 1;
  } catch (const qdb::Error& e) {
    std::fprintf(stderr, "qdb_trace_check: malformed document: %s\n", e.what());
    return 2;
  }
}
