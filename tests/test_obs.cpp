// Tests for src/obs/ (ISSUE 5): metric registry semantics, Prometheus and
// JSON exposition, trace-span recording across threads, Chrome-trace JSON
// validity (escaping round-trips through qdb::Json), span self-time math,
// the trace/registry agreement invariant, and the structured logger.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/error.h"
#include "common/json.h"
#include "common/parallel.h"
#include "core/qdockbank.h"
#include "data/batch.h"
#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qdb::obs {
namespace {

// --- registry ---------------------------------------------------------------

TEST(Registry, GetOrCreateReturnsStableHandles) {
  MetricRegistry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add(2);
  EXPECT_EQ(a.value(), 5u);

  Gauge& g = reg.gauge("x.gauge");
  g.set(1.5);
  EXPECT_DOUBLE_EQ(reg.gauge("x.gauge").value(), 1.5);

  Histogram& h = reg.histogram("x.hist");
  h.record(7);
  EXPECT_EQ(reg.histogram("x.hist").count(), 1u);
}

TEST(Registry, NameBoundToOneTypeForever) {
  MetricRegistry reg;
  reg.counter("telemetry");
  EXPECT_THROW(reg.gauge("telemetry"), Error);
  EXPECT_THROW(reg.histogram("telemetry"), Error);
  reg.gauge("level");
  EXPECT_THROW(reg.counter("level"), Error);
}

TEST(Registry, HistogramBucketsArePowerOfTwo) {
  Histogram h("t");
  h.record(0);    // bucket 0 (le 1)
  h.record(1);    // bucket 0
  h.record(3);    // bucket 1 (le 2? no: bit_width(3)=2 -> b=1, le 2^1=2... 3>2)
  h.record(100);  // bit_width 7 -> bucket 6 (le 64 < 100 <= 127)
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.total(), 104u);
  // bit_width semantics: value v lands in bucket bit_width(v)-1, whose
  // nominal le bound is 2^b — an *under*-estimate by design (same convention
  // as the old serve::LatencyHistogram, kept for continuity).
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(6), 1u);
  EXPECT_EQ(Histogram::le_bound(3), 8u);
  // A huge value lands in +Inf.
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.bucket_count(Histogram::kBuckets), 1u);
}

TEST(Registry, SnapshotIsDeterministicallySorted) {
  MetricRegistry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(2);
  reg.gauge("mid").set(3.0);
  reg.histogram("beta.h").record(4);
  reg.add_collector([](Snapshot& s) {
    s.labeled.push_back({"fam", "site", "zz", 1});
    s.labeled.push_back({"fam", "site", "aa", 2});
  });
  const Snapshot s1 = reg.snapshot();
  const Snapshot s2 = reg.snapshot();
  ASSERT_EQ(s1.counters.size(), 2u);
  EXPECT_EQ(s1.counters[0].first, "alpha");  // std::map iterates sorted
  EXPECT_EQ(s1.counters[1].first, "zeta");
  ASSERT_EQ(s1.labeled.size(), 2u);
  EXPECT_EQ(s1.labeled[0].label_value, "aa");  // sorted post-collection
  // Two quiescent snapshots are identical.
  EXPECT_EQ(s1.counters, s2.counters);
  EXPECT_EQ(s1.gauges, s2.gauges);
  ASSERT_EQ(s2.histograms.size(), 1u);
  EXPECT_EQ(s1.histograms[0].buckets, s2.histograms[0].buckets);
}

TEST(Registry, ConcurrentRecordingIsExactAtQuiescence) {
  MetricRegistry reg;
  Counter& c = reg.counter("hits");
  Histogram& h = reg.histogram("lat");
  parallel_for_threads(8, 8, [&](std::int64_t t) {
    for (int i = 0; i < 1000; ++i) {
      c.add();
      h.record(static_cast<std::uint64_t>(t));
    }
  });
  EXPECT_EQ(c.value(), 8000u);
  EXPECT_EQ(h.count(), 8000u);
}

TEST(Registry, ResetZeroesButKeepsRegistrations) {
  MetricRegistry reg;
  Counter& c = reg.counter("n");
  c.add(9);
  reg.histogram("h").record(2);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
  EXPECT_EQ(&reg.counter("n"), &c);
}

// --- exposition -------------------------------------------------------------

TEST(Exposition, PrometheusGoldenText) {
  MetricRegistry reg;
  reg.counter("vqe.evals").add(3);
  reg.gauge("queue.depth").set(2.0);
  Histogram& h = reg.histogram("span.run");
  h.record(1);
  h.record(3);
  reg.add_collector([](Snapshot& s) {
    s.labeled.push_back({"fault.fires", "site", "a\"b\\c\nd", 7});
  });
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# TYPE qdb_vqe_evals counter\nqdb_vqe_evals 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE qdb_queue_depth gauge\nqdb_queue_depth 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE qdb_span_run histogram\n"), std::string::npos);
  EXPECT_NE(text.find("qdb_span_run_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("qdb_span_run_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("qdb_span_run_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("qdb_span_run_sum 4\n"), std::string::npos);
  EXPECT_NE(text.find("qdb_span_run_count 2\n"), std::string::npos);
  // Label values escape backslash, quote, newline.
  EXPECT_NE(text.find("qdb_fault_fires{site=\"a\\\"b\\\\c\\nd\"} 7\n"),
            std::string::npos);
  // Every family has exactly one TYPE line (no duplicates).
  std::size_t types = 0;
  for (std::size_t p = text.find("# TYPE"); p != std::string::npos;
       p = text.find("# TYPE", p + 1)) {
    ++types;
  }
  EXPECT_EQ(types, 4u);
}

TEST(Exposition, PrometheusNameSanitisation) {
  EXPECT_EQ(prometheus_name("vqe.stage1.evals"), "qdb_vqe_stage1_evals");
  EXPECT_EQ(prometheus_name("a-b c"), "qdb_a_b_c");
  EXPECT_EQ(prometheus_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Exposition, RegistryJsonShape) {
  MetricRegistry reg;
  reg.counter("c").add(1);
  reg.gauge("g").set(0.5);
  reg.histogram("h").record(2);
  reg.add_collector([](Snapshot& s) {
    s.labeled.push_back({"fam", "site", "x", 3});
  });
  const Json j = Json::parse(reg.to_json().dump());  // round-trip
  EXPECT_EQ(j.at("counters").at("c").as_int(), 1);
  EXPECT_DOUBLE_EQ(j.at("gauges").at("g").as_double(), 0.5);
  EXPECT_EQ(j.at("histograms").at("h").at("count").as_int(), 1);
  EXPECT_EQ(j.at("histograms").at("h").at("total").as_int(), 2);
  EXPECT_EQ(j.at("collected").at("fam").at("x").as_int(), 3);
}

// --- tracing ----------------------------------------------------------------

/// Serialise trace tests: they install the process-wide session.
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (TraceSession::current() != nullptr) TraceSession::current()->stop();
  }
};

TEST_F(TraceTest, SpansRecordOnlyWhileSessionActive) {
  { Span s("trace.before"); }  // no session: registry only, no event
  TraceSession session;
  session.start();
  EXPECT_TRUE(session.active());
  EXPECT_EQ(TraceSession::current(), &session);
  {
    Span outer("trace.outer");
    outer.set_attr("k", "v");
    { QDB_SPAN("trace.inner"); }
  }
  session.stop();
  EXPECT_FALSE(session.active());
  ASSERT_EQ(session.events().size(), 2u);
  // Sorted by (tid, ts, depth): outer starts first.
  EXPECT_EQ(session.events()[0].name, "trace.outer");
  EXPECT_EQ(session.events()[0].depth, 0);
  ASSERT_EQ(session.events()[0].args.size(), 1u);
  EXPECT_EQ(session.events()[0].args[0].first, "k");
  EXPECT_EQ(session.events()[1].name, "trace.inner");
  EXPECT_EQ(session.events()[1].depth, 1);
  { Span s("trace.after"); }  // after stop: ignored
  EXPECT_EQ(session.events().size(), 2u);
}

TEST_F(TraceTest, OnlyOneSessionAtATimeAndNoRestart) {
  TraceSession a;
  a.start();
  TraceSession b;
  EXPECT_THROW(b.start(), Error);
  a.stop();
  EXPECT_THROW(a.start(), Error);  // sessions are single-use
  b.start();                       // a stopped session frees the slot
  b.stop();
}

TEST_F(TraceTest, EightThreadsRecordIntoOneSession) {
  TraceSession session;
  session.start();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 50;
  parallel_for_threads(kThreads, kThreads, [&](std::int64_t t) {
    for (int i = 0; i < kSpansPerThread; ++i) {
      Span s("trace.worker");
      s.set_attr("t", std::to_string(t));
      { QDB_SPAN("trace.worker.child"); }
    }
  });
  session.stop();
  EXPECT_EQ(session.events().size(),
            static_cast<std::size_t>(2 * kThreads * kSpansPerThread));
  // Events are grouped by tid and time-ordered within each tid.
  int last_tid = 0;
  std::uint64_t last_ts = 0;
  for (const TraceEvent& e : session.events()) {
    ASSERT_GE(e.tid, last_tid);
    if (e.tid != last_tid) last_ts = 0;
    EXPECT_GE(e.ts_us, last_ts);
    last_tid = e.tid;
    last_ts = e.ts_us;
  }
  const auto summary = session.summary();
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary[0].name, "trace.worker");
  EXPECT_EQ(summary[0].count, static_cast<std::uint64_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(summary[1].name, "trace.worker.child");

  // The acceptance invariant: at quiescence the session's per-span counts
  // agree exactly with the registry's span.<name> histogram counts recorded
  // during the session (counted via before/after deltas so other tests'
  // spans don't interfere — the registry is process-global).
  const std::uint64_t registry_workers =
      MetricRegistry::global().histogram("span.trace.worker").count();
  EXPECT_GE(registry_workers, summary[0].count);
}

TEST_F(TraceTest, ThreadPoolSurvivesSessionTurnover) {
  // The parallel.h pool reuses its worker threads across regions; the
  // generation check must rebind each thread's cached buffer to the *new*
  // session.
  for (int round = 0; round < 3; ++round) {
    TraceSession session;
    session.start();
    parallel_for_threads(4, 4, [&](std::int64_t) { QDB_SPAN("trace.round"); });
    session.stop();
    EXPECT_EQ(session.events().size(), 4u) << "round " << round;
  }
}

TEST_F(TraceTest, ChromeJsonIsValidAndEscaped) {
  TraceSession session;
  session.start();
  {
    Span s("trace.escape");
    s.set_attr("quote\"backslash\\", "ctrl\x01\ttab");
    s.set_attr("utf8", "prot\xc3\xa9ine \xe2\x9c\x93");
  }
  session.stop();
  const std::string dumped = session.to_chrome_json().dump();
  const Json parsed = Json::parse(dumped);  // must survive a round-trip
  EXPECT_EQ(parsed.at("displayTimeUnit").as_string(), "ms");
  const JsonArray& events = parsed.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 1u);
  const Json& ev = events[0];
  EXPECT_EQ(ev.at("name").as_string(), "trace.escape");
  EXPECT_EQ(ev.at("ph").as_string(), "X");
  EXPECT_EQ(ev.at("cat").as_string(), "qdb");
  EXPECT_EQ(ev.at("pid").as_int(), 1);
  EXPECT_GE(ev.at("dur").as_int(), 0);
  const Json& args = ev.at("args");
  EXPECT_EQ(args.at("quote\"backslash\\").as_string(), "ctrl\x01\ttab");
  // UTF-8 passes through byte-exact.
  EXPECT_EQ(args.at("utf8").as_string(), "prot\xc3\xa9ine \xe2\x9c\x93");
}

TEST_F(TraceTest, SummarySelfTimeSubtractsDirectChildren) {
  // Live spans under a root context, so each carries its parent's id.
  TraceSession session;
  session.start();
  {
    const ScopedTraceContext root(derive_root_context(5));
    Span outer("trace.self.outer");
    {
      Span mid("trace.self.mid");
      { QDB_SPAN("trace.self.leaf"); }
    }
  }
  session.stop();
  const auto rows = session.summary();
  ASSERT_EQ(rows.size(), 3u);  // sorted by name: leaf < mid < outer
  const SpanSummary& leaf = rows[0];
  const SpanSummary& mid = rows[1];
  const SpanSummary& outer = rows[2];
  EXPECT_EQ(leaf.name, "trace.self.leaf");
  EXPECT_EQ(leaf.self_us, leaf.total_us);  // no children
  // A parent's self time excludes its direct child but never underflows.
  EXPECT_LE(mid.self_us, mid.total_us);
  EXPECT_LE(outer.self_us, outer.total_us);
  EXPECT_GE(mid.total_us, leaf.total_us);
  EXPECT_GE(outer.total_us, mid.total_us);
}

/// A hand-built event: span `id` under `parent` in one trace.
TraceEvent fixture_event(const char* name, int tid, std::uint64_t ts, std::uint64_t dur,
                         std::uint64_t id, std::uint64_t parent) {
  TraceEvent e;
  e.name = name;
  e.tid = tid;
  e.ts_us = ts;
  e.dur_us = dur;
  e.trace_lo = 7;
  e.span_id = id;
  e.parent_id = parent;
  return e;
}

const SpanSummary& row_named(const std::vector<SpanSummary>& rows, const std::string& name) {
  for (const SpanSummary& r : rows) {
    if (r.name == name) return r;
  }
  throw Error("no summary row " + name);
}

TEST(TraceSummary, ChargesChildrenByParentIdAcrossThreads) {
  std::vector<TraceEvent> events = {
      // One parent on thread 1; three overlapping children on threads 2-4,
      // the last overshooting the parent's end.  Covered: [100, 800) and
      // [900, 1000), so 800 of the parent's 1000 us.
      fixture_event("fan.parent", 1, 0, 1000, 10, 0),
      fixture_event("fan.child", 2, 100, 400, 11, 10),
      fixture_event("fan.child", 3, 300, 500, 12, 10),
      fixture_event("fan.child", 4, 900, 200, 13, 10),
      // A nested chain on one thread: only direct children are charged.
      fixture_event("chain.a", 5, 2000, 500, 20, 0),
      fixture_event("chain.b", 5, 2100, 300, 21, 20),
      fixture_event("chain.c", 5, 2150, 100, 22, 21),
      // Recorded without a context: no ids, nothing charged either way.
      fixture_event("naked", 5, 2100, 50, 0, 0),
      // The same span id in another trace is another span.
      fixture_event("other.trace", 6, 0, 1000, 99, 10),
  };
  events.back().trace_lo = 8;
  const std::vector<SpanSummary> rows = summarize_spans(events);
  EXPECT_EQ(row_named(rows, "fan.parent").self_us, 200u);
  EXPECT_EQ(row_named(rows, "fan.child").count, 3u);
  EXPECT_EQ(row_named(rows, "fan.child").total_us, 1100u);
  EXPECT_EQ(row_named(rows, "fan.child").self_us, 1100u);
  EXPECT_EQ(row_named(rows, "chain.a").self_us, 200u);
  EXPECT_EQ(row_named(rows, "chain.b").self_us, 200u);
  EXPECT_EQ(row_named(rows, "chain.c").self_us, 100u);
  EXPECT_EQ(row_named(rows, "naked").self_us, 50u);
  EXPECT_EQ(row_named(rows, "other.trace").self_us, 1000u);
  // Sorted by name, one row per name.
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end(),
                             [](const SpanSummary& a, const SpanSummary& b) {
                               return a.name < b.name;
                             }));
}

TEST_F(TraceTest, SummaryTableRendersEverySpan) {
  TraceSession session;
  session.start();
  { QDB_SPAN("trace.table"); }
  session.stop();
  const std::string table = session.summary_table();
  EXPECT_NE(table.find("trace.table"), std::string::npos);
  EXPECT_NE(table.find("Span"), std::string::npos);
  EXPECT_NE(table.find("Self(ms)"), std::string::npos);
}

// --- logger -----------------------------------------------------------------

/// Capture log lines; restores the stderr sink and Warn level on exit.
class LogCapture {
 public:
  LogCapture() {
    set_log_sink([this](std::string_view line) { lines_.emplace_back(line); });
  }
  ~LogCapture() {
    set_log_sink(nullptr);
    set_log_level(LogLevel::Warn);
  }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

TEST(Log, LevelsGateEmission) {
  LogCapture cap;
  set_log_level(LogLevel::Warn);
  log_warn("a");
  log_info("b");
  log_debug("c");
  ASSERT_EQ(cap.lines().size(), 1u);
  set_log_level(LogLevel::Debug);
  log_info("d");
  log_debug("e");
  EXPECT_EQ(cap.lines().size(), 3u);
  set_log_level(LogLevel::Off);
  log_warn("f");
  EXPECT_EQ(cap.lines().size(), 3u);
}

TEST(Log, ParseLevelIsCaseInsensitiveWithWarnFallback) {
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("Info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("verbose"), LogLevel::Warn);  // unknown -> default
  EXPECT_EQ(parse_log_level(""), LogLevel::Warn);
}

TEST(Log, KeyValueFormatAndEscaping) {
  LogCapture cap;
  set_log_level(LogLevel::Info);
  log_info("test.event")
      .kv("plain", "simple")
      .kv("spaced", "two words")
      .kv("quoted", "say \"hi\"")
      .kv("count", 42)
      .kv("ratio", 0.5)
      .kv("flag", true)
      .kv("ctrl", std::string_view("a\nb\x02"));
  ASSERT_EQ(cap.lines().size(), 1u);
  const std::string& line = cap.lines()[0];
  EXPECT_EQ(line.find('\n'), std::string::npos);  // single line, always
  EXPECT_NE(line.find("ts="), std::string::npos);
  EXPECT_NE(line.find(" level=info"), std::string::npos);
  EXPECT_NE(line.find(" event=test.event"), std::string::npos);
  EXPECT_NE(line.find(" plain=simple"), std::string::npos);
  EXPECT_NE(line.find(" spaced=\"two words\""), std::string::npos);
  EXPECT_NE(line.find(" quoted=\"say \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(line.find(" count=42"), std::string::npos);
  EXPECT_NE(line.find(" ratio=0.5"), std::string::npos);
  EXPECT_NE(line.find(" flag=true"), std::string::npos);
  EXPECT_NE(line.find(" ctrl=\"a\\nb\\x02\""), std::string::npos);
}

TEST(Log, EscapeValueRules) {
  EXPECT_EQ(log_escape_value("bare"), "bare");
  EXPECT_EQ(log_escape_value(""), "\"\"");
  EXPECT_EQ(log_escape_value("a=b"), "\"a=b\"");
  EXPECT_EQ(log_escape_value("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(log_escape_value("tab\there"), "\"tab\\there\"");
}

TEST(Log, DisabledEventsCostNoFormatting) {
  LogCapture cap;
  set_log_level(LogLevel::Off);
  // A disabled builder chain must be inert (and crash-free).
  log_debug("nope").kv("k", "v").kv("n", 1);
  EXPECT_TRUE(cap.lines().empty());
}

TEST(Log, ConcurrentRecordsNeverInterleave) {
  LogCapture cap;
  set_log_level(LogLevel::Info);
  parallel_for_threads(8, 8, [&](std::int64_t t) {
    for (int i = 0; i < 50; ++i) {
      log_info("log.thread").kv("t", t).kv("i", i);
    }
  });
  // Sink is mutex-serialised: exactly one line per record, each well-formed.
  EXPECT_EQ(cap.lines().size(), 400u);
  for (const std::string& line : cap.lines()) {
    EXPECT_EQ(line.rfind("ts=", 0), 0u) << line;
    EXPECT_NE(line.find(" event=log.thread"), std::string::npos) << line;
  }
}

// --- distributed trace context (ISSUE 10) -----------------------------------

TEST(TraceContext, RootDerivationIsDeterministicAndSeedSensitive) {
  const TraceContext a = derive_root_context(42);
  const TraceContext b = derive_root_context(42);
  const TraceContext c = derive_root_context(43);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.span_id, 0u);  // a root is a context, not a span
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(TraceContext, SpanIdDerivationSeparatesNameBranchSiblingAndParent) {
  const TraceContext root = derive_root_context(7);
  const std::uint64_t base = derive_span_id(root, "job", 1, 0);
  EXPECT_NE(base, 0u);
  EXPECT_EQ(base, derive_span_id(root, "job", 1, 0));
  EXPECT_NE(base, derive_span_id(root, "lease", 1, 0));
  EXPECT_NE(base, derive_span_id(root, "job", 2, 0));
  EXPECT_NE(base, derive_span_id(root, "job", 1, 1));
  TraceContext deeper = root;
  deeper.span_id = base;
  EXPECT_NE(base, derive_span_id(deeper, "job", 1, 0));
}

TEST(TraceContext, TraceparentRoundTripAndStrictRejects) {
  const TraceContext ctx{0x0123456789abcdefULL, 0xfedcba9876543210ULL,
                         0x00000000deadbeefULL};
  const std::string header = format_traceparent(ctx);
  EXPECT_EQ(header,
            "00-0123456789abcdeffedcba9876543210-00000000deadbeef-01");
  TraceContext parsed;
  ASSERT_TRUE(parse_traceparent(header, &parsed));
  EXPECT_EQ(parsed, ctx);

  TraceContext sink;
  EXPECT_FALSE(parse_traceparent("", &sink));
  EXPECT_FALSE(parse_traceparent(header.substr(0, 54), &sink));
  EXPECT_FALSE(parse_traceparent(header + "0", &sink));
  std::string upper = header;
  std::replace(upper.begin(), upper.end(), 'a', 'A');
  EXPECT_FALSE(parse_traceparent(upper, &sink));  // lowercase hex only
  std::string version = header;
  version[1] = '1';
  EXPECT_FALSE(parse_traceparent(version, &sink));  // only version 00
  std::string dashes = header;
  dashes[2] = '_';
  EXPECT_FALSE(parse_traceparent(dashes, &sink));
  std::string nonhex = header;
  nonhex[10] = 'g';
  EXPECT_FALSE(parse_traceparent(nonhex, &sink));
  EXPECT_FALSE(parse_traceparent(
      "00-00000000000000000000000000000000-00000000deadbeef-01", &sink));
  EXPECT_FALSE(parse_traceparent(
      "00-0123456789abcdeffedcba9876543210-0000000000000000-01", &sink));
}

TEST(TraceContext, FormatRequiresASpanToReferTo) {
  // W3C forbids a zero parent-id on the wire, so a bare root context (no
  // span open) is not injectable — callers must check span_id first.
  EXPECT_THROW(format_traceparent(TraceContext{}), Error);
  EXPECT_THROW(format_traceparent(TraceContext{1, 2, 0}), Error);
}

TEST_F(TraceTest, SpansWithoutAnyContextCarryNoIds) {
  TraceSession session;
  session.start();
  { Span s("ctx.naked"); }
  session.stop();
  ASSERT_EQ(session.events().size(), 1u);
  EXPECT_EQ(session.events()[0].span_id, 0u);
  EXPECT_EQ(session.events()[0].trace_hi | session.events()[0].trace_lo, 0u);
  const Json doc = session.to_chrome_json();
  const Json& ev = doc.at("traceEvents").as_array()[0];
  EXPECT_FALSE(ev.contains("trace"));
  EXPECT_FALSE(ev.contains("span"));
  EXPECT_FALSE(ev.contains("parent"));
}

TEST_F(TraceTest, ScopedContextParentsSpansReproducibly) {
  TraceSession session;
  session.start();
  const TraceContext remote{0x11d0c4b17e57aaaaULL, 0x5eedf00dcafef00dULL,
                            0x1234123412341234ULL};
  std::uint64_t outer_id = 0;
  std::uint64_t inner_a = 0;
  std::uint64_t inner_b = 0;
  {
    const ScopedTraceContext scope(remote, 9);
    Span outer("ctx.outer");
    EXPECT_EQ(outer.context().trace_hi, remote.trace_hi);
    EXPECT_EQ(outer.context().trace_lo, remote.trace_lo);
    outer_id = outer.context().span_id;
    { Span inner("ctx.inner"); inner_a = inner.context().span_id; }
    { Span inner("ctx.inner"); inner_b = inner.context().span_id; }
  }
  EXPECT_NE(outer_id, 0u);
  // The sibling counter separates same-name sequential children...
  EXPECT_NE(inner_a, inner_b);
  {
    // ...and a fresh scope with the same (context, branch) replays the same
    // ids: derivation, not randomness.
    const ScopedTraceContext scope(remote, 9);
    Span outer("ctx.outer");
    EXPECT_EQ(outer.context().span_id, outer_id);
  }
  session.stop();
  for (const TraceEvent& ev : session.events()) {
    if (ev.name == "ctx.outer") {
      EXPECT_EQ(ev.parent_id, remote.span_id);
    } else {
      EXPECT_EQ(ev.parent_id, outer_id);  // inner spans parent to outer
    }
  }
}

TEST_F(TraceTest, InvalidScopedContextInstallsNothing) {
  const ScopedTraceContext scope(TraceContext{});
  EXPECT_FALSE(current_trace_context().valid());
}

TEST_F(TraceTest, ChromeJsonCarriesProcessIdentityAndIds) {
  TraceSession session;
  session.set_process(7, "qdb test");
  session.start();
  const TraceContext remote{0xaULL, 0xbULL, 0xcULL};
  {
    const ScopedTraceContext scope(remote, 1);
    Span s("ctx.export");
  }
  session.stop();
  const Json doc = session.to_chrome_json();
  EXPECT_EQ(doc.at("process").at("pid").as_int(), 7);
  EXPECT_EQ(doc.at("process").at("name").as_string(), "qdb test");
  const Json& ev = doc.at("traceEvents").as_array()[0];
  EXPECT_EQ(ev.at("pid").as_int(), 7);
  EXPECT_EQ(ev.at("trace").as_string(), trace_id_hex(remote));
  EXPECT_EQ(ev.at("span").as_string().size(), 16u);
  EXPECT_EQ(ev.at("parent").as_string(), span_id_hex(remote.span_id));
}

// --- entry spans of a cold Pipeline::evaluate ------------------------------

PipelineOptions small_pipeline_options() {
  PipelineOptions o = PipelineOptions::bench_profile();
  o.vqe.max_evaluations = 20;
  o.vqe.shots_per_eval = 128;
  o.vqe.final_shots = 1000;
  o.docking.num_runs = 4;
  o.docking.mc_steps = 300;
  return o;
}

/// Trace one cold evaluate of `pdb_id` under a root context.
std::vector<TraceEvent> traced_cold_evaluate(const char* pdb_id) {
  const Pipeline pipeline(small_pipeline_options());
  TraceSession session;
  session.start();
  {
    const ScopedTraceContext root(derive_root_context(17));
    pipeline.evaluate(entry_by_id(pdb_id), Method::QDock);
  }
  session.stop();
  return session.events();
}

const TraceEvent& only_event(const std::vector<TraceEvent>& events, const std::string& name) {
  const TraceEvent* found = nullptr;
  for (const TraceEvent& ev : events) {
    if (ev.name != name) continue;
    EXPECT_EQ(found, nullptr) << "more than one " << name;
    found = &ev;
  }
  if (found == nullptr) throw Error("no " + name + " span");
  return *found;
}

/// The imprint's dock.run: the one whose parent is pipeline.imprint.
const TraceEvent& imprint_dock(const std::vector<TraceEvent>& events) {
  const std::uint64_t imprint = only_event(events, "pipeline.imprint").span_id;
  for (const TraceEvent& ev : events) {
    if (ev.name == "dock.run" && ev.parent_id == imprint) return ev;
  }
  throw Error("no dock.run under pipeline.imprint");
}

TEST_F(TraceTest, ColdEvaluateParentsTheVqeUnderTheEntryNotTheImprintDock) {
  const std::vector<TraceEvent> events = traced_cold_evaluate("6p86");
  const TraceEvent& entry = only_event(events, "pipeline.evaluate");
  EXPECT_EQ(entry.parent_id, 0u);  // a root span of the installed trace
  for (const char* child : {"pipeline.reference", "pipeline.imprint", "pipeline.rmsd", "vqe.run"}) {
    EXPECT_EQ(only_event(events, child).parent_id, entry.span_id) << child;
  }
  // Two dock runs: the imprint's, and the prediction's under the entry.
  const TraceEvent& imprint = imprint_dock(events);
  int docks = 0;
  for (const TraceEvent& ev : events) {
    if (ev.name != "dock.run") continue;
    ++docks;
    if (&ev != &imprint) {
      EXPECT_EQ(ev.parent_id, entry.span_id);
    }
  }
  EXPECT_EQ(docks, 2);
  // The VQE ran inside the imprint's dock.run on the same thread.
  const TraceEvent& vqe = only_event(events, "vqe.run");
  EXPECT_EQ(vqe.tid, imprint.tid);
  EXPECT_GE(vqe.ts_us, imprint.ts_us);
}

TEST_F(TraceTest, ColdEvaluateChargesPoolThreadSearchesToTheirDock) {
  const std::vector<TraceEvent> events = traced_cold_evaluate("6p86");
  std::set<std::uint64_t> docks;
  for (const TraceEvent& ev : events) {
    if (ev.name == "dock.run") docks.insert(ev.span_id);
  }
  ASSERT_EQ(docks.size(), 2u);
  std::set<std::uint64_t> searches;
  for (const TraceEvent& ev : events) {
    if (ev.name != "dock.search") continue;
    EXPECT_EQ(docks.count(ev.parent_id), 1u);
    searches.insert(ev.span_id);
  }
  // Every search on every thread has its own id.
  EXPECT_EQ(searches.size(),
            static_cast<std::size_t>(std::count_if(events.begin(), events.end(),
                                                   [](const TraceEvent& ev) {
                                                     return ev.name == "dock.search";
                                                   })));
  // The searches fill their docks, so a dock's self time is well below its
  // total: the pool threads' work is no longer left in the parent.
  const std::vector<SpanSummary> rows = summarize_spans(events);
  const SpanSummary& dock = row_named(rows, "dock.run");
  EXPECT_LT(dock.self_us, dock.total_us / 2);
}

TEST_F(TraceTest, BatchJobsParentUnderTheirRunOnEveryThread) {
  std::vector<const DatasetEntry*> entries = entries_in_group(Group::S);
  entries.resize(8);
  BatchOptions options;
  options.vqe = small_pipeline_options().vqe;
  options.vqe.max_evaluations = 8;
  options.vqe.final_shots = 256;
  options.threads = 4;
  TraceSession session;
  session.start();
  {
    const ScopedTraceContext root(derive_root_context(29));
    run_batch(entries, options);
  }
  session.stop();
  const std::vector<TraceEvent> events = session.events();
  const TraceEvent& run = only_event(events, "batch.run");
  std::set<std::uint64_t> jobs;
  for (const TraceEvent& ev : events) {
    if (ev.name != "batch.job") continue;
    EXPECT_EQ(ev.parent_id, run.span_id) << "job on thread " << ev.tid;
    jobs.insert(ev.span_id);
  }
  EXPECT_EQ(jobs.size(), entries.size());  // one job each, every id distinct
}

// --- flight recorder (ISSUE 10) ---------------------------------------------

TEST(Flight, RecordsEverySpanAndWrapsAtCapacity) {
  const std::int64_t before = flight_snapshot_json(0).at("recorded").as_int();
  for (int i = 0; i < 300; ++i) {
    Span s("flight.spin");  // no session needed: the ring is always on
  }
  const Json snap = flight_snapshot_json(0);
  EXPECT_EQ(snap.at("capacity").as_int(),
            static_cast<std::int64_t>(kFlightCapacity));
  EXPECT_GE(snap.at("recorded").as_int(), before + 300);
  const auto& recs = snap.at("records").as_array();
  EXPECT_EQ(recs.size(), kFlightCapacity);  // 300 > 256: the ring wrapped
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_LT(recs[i - 1].at("seq").as_int(), recs[i].at("seq").as_int());
  }
  // Byte-stable schema: the fixed key prefix, in order, on every record.
  for (const Json& rec : recs) {
    const auto& fields = rec.as_object();
    ASSERT_GE(fields.size(), 5u);
    EXPECT_EQ(fields[0].first, "seq");
    EXPECT_EQ(fields[1].first, "kind");
    EXPECT_EQ(fields[2].first, "name");
    EXPECT_EQ(fields[3].first, "ts_us");
    EXPECT_EQ(fields[4].first, "dur_us");
  }
  EXPECT_EQ(recs.back().at("kind").as_string(), "span");
  EXPECT_EQ(recs.back().at("name").as_string(), "flight.spin");
}

TEST(Flight, SnapshotKeepsOnlyTheLastN) {
  for (int i = 0; i < 10; ++i) {
    Span s("flight.lastn");
  }
  const Json snap = flight_snapshot_json(5);
  const auto& recs = snap.at("records").as_array();
  ASSERT_EQ(recs.size(), 5u);
  EXPECT_EQ(recs.back().at("name").as_string(), "flight.lastn");
}

TEST(Flight, EnabledLogEventsLandInTheRing) {
  set_log_sink([](std::string_view) {});
  set_log_level(LogLevel::Info);
  log_info("flight.logged").kv("k", 1);
  set_log_sink(nullptr);
  set_log_level(LogLevel::Warn);
  const Json snap = flight_snapshot_json(1);
  const auto& recs = snap.at("records").as_array();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].at("kind").as_string(), "log");
  EXPECT_EQ(recs[0].at("name").as_string(), "flight.logged");
}

TEST(Flight, ConcurrentWritersAndSnapshotsStayConsistent) {
  // TSan coverage for the seqlock: writers race the ring while a reader
  // snapshots continuously; every surfaced record must be well-formed.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Json snap = flight_snapshot_json(0);
      for (const Json& rec : snap.at("records").as_array()) {
        EXPECT_LE(rec.at("name").as_string().size(), kFlightNameBytes);
        EXPECT_FALSE(rec.at("kind").as_string().empty());
      }
    }
  });
  parallel_for_threads(4, 4, [&](std::int64_t t) {
    const std::string name = "flight.concurrent." + std::to_string(t);
    for (int i = 0; i < 2000; ++i) {
      flight_record_span(name, static_cast<std::uint64_t>(i), 1, 2, 3, 0);
    }
  });
  stop.store(true, std::memory_order_relaxed);
  reader.join();
}

TEST(Flight, CrashDumpWrittenOnContractViolation) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "qdb_flight_dump_test";
  fs::create_directories(dir);
  const std::string path = (dir / "flight.json").string();
  std::error_code ec;
  fs::remove(path, ec);

  arm_flight_crash_dump(path);
  { Span s("flight.before_crash"); }
  EXPECT_THROW(
      ([&] { QDB_REQUIRE(false, "flight crash dump test"); }()),
      PreconditionError);
  check::set_failure_hook(nullptr);  // disarm before any other test fails

  const Json doc = Json::parse(read_file(path));
  EXPECT_NE(doc.at("failure").as_string().find("flight crash dump test"),
            std::string::npos);
  bool found = false;
  for (const Json& rec : doc.at("records").as_array()) {
    found = found || rec.at("name").as_string() == "flight.before_crash";
  }
  EXPECT_TRUE(found);
}

// --- log / trace join (ISSUE 10) --------------------------------------------

TEST(Log, LinesJoinTheCurrentTraceContext) {
  LogCapture cap;
  set_log_level(LogLevel::Info);
  log_info("log.noctx");
  const TraceContext ctx{0xabcULL, 0xdefULL, 0x123ULL};
  {
    const ScopedTraceContext scope(ctx, 0);
    log_info("log.withctx").kv("k", "v");
  }
  ASSERT_EQ(cap.lines().size(), 2u);
  EXPECT_EQ(cap.lines()[0].find(" trace="), std::string::npos);
  EXPECT_NE(cap.lines()[1].find(" event=log.withctx trace=" +
                                trace_id_hex(ctx) + " k=v"),
            std::string::npos)
      << cap.lines()[1];
}

// --- process root (LAST in this file: set_process_root_context is sticky) ---

TEST(TraceContextRoot, ProcessRootIdentifiesSpansOnEveryThread) {
  // Installing the process root context is irreversible for the process
  // (worker threads cache a base frame derived from it), so this suite runs
  // last: earlier tests assert the no-context behaviour.
  set_process_root_context(derive_root_context(99));
  const TraceContext root = derive_root_context(99);
  TraceSession session;
  session.start();
  std::vector<std::uint64_t> span_ids(4, 0);
  std::vector<std::uint64_t> trace_his(4, 0);
  parallel_for_threads(4, 4, [&](std::int64_t t) {
    Span s("ctx.thread");
    span_ids[static_cast<std::size_t>(t)] = s.context().span_id;
    trace_his[static_cast<std::size_t>(t)] = s.context().trace_hi;
  });
  session.stop();
  const std::set<std::uint64_t> unique(span_ids.begin(), span_ids.end());
  EXPECT_EQ(unique.size(), 4u);  // distinct ids even for same-name spans
  EXPECT_EQ(unique.count(0), 0u);
  for (const std::uint64_t hi : trace_his) {
    EXPECT_EQ(hi, root.trace_hi);  // one trace per process
  }
}

}  // namespace
}  // namespace qdb::obs
