// Hierarchical trace spans with Chrome-trace export (ISSUE 5).
//
// RAII `Span` objects mark timed regions on a thread-local span stack.
// When a `TraceSession` is active (one per process), every span that *ends*
// while the session is live appends one complete event — name, start, wall
// duration, thread id, nesting depth, optional key=value attributes — to a
// per-thread buffer owned by the session.  The hot path takes no lock: a
// thread appends only to its own buffer, which it locates through one
// relaxed atomic load plus a generation-checked thread-local cache.
//
// Quiescence doctrine (same as /metrics): `stop()` must be called after all
// threads that recorded spans have finished their work — in this codebase
// that is structural, because every fan-out joins inside common/parallel.h
// before the orchestrator regains control.  The thread-join gives stop() a
// happens-before edge over every buffered event, so the drain is race-free
// under TSan without any per-event synchronisation.
//
// Whether or not a session is active, ending a span also records its
// duration into the global MetricRegistry histogram `span.<name>` — which
// is why, at quiescence, a session's per-span-name totals agree with the
// registry's histogram counts *exactly* (the acceptance criterion the
// tools/qdb_trace_check schema checker enforces on CLI trace dumps).
//
// Export formats:
//   to_chrome_json()  — Chrome trace_event JSON ("X" complete events),
//                       loadable in chrome://tracing and Perfetto
//   summary()/summary_table() — per-span-name count / total / self time
//                       (self = duration minus the union of the direct
//                       children's intervals, children found by parent id),
//                       the table benches print
//
// Distributed tracing (ISSUE 10): every span additionally carries a 128-bit
// trace id and a 64-bit span id, derived deterministically from the seeded
// rng primitives (splitmix64 / fnv1a / seed_combine) so that under fixed
// seeds the same command line produces the same ids run after run.  A
// process installs one root context (set_process_root_context, or a scoped
// ScopedTraceContext for a remote parent), and each span derives its id
// from (parent span id, span name, branch salt, sibling index).  The
// context crosses processes as a W3C `traceparent` header — injected by
// serve::HttpClient, extracted by serve::DatasetServer, and threaded
// through the orchestrate lease grant — so tools/qdb_trace_check can join
// per-process dumps into one trace with resolvable cross-process parents.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/json.h"
#include "common/sync.h"

namespace qdb::obs {

/// The W3C header name that carries a trace context between processes.
/// Every layer outside src/obs/ must use this constant (and the parse /
/// format helpers below) instead of spelling the literal — enforced by the
/// qdb_lint raw-traceparent rule.
inline constexpr std::string_view kTraceparentHeader = "traceparent";

/// A position in a distributed trace: which trace (128 bits) and which
/// span within it (64 bits).  span_id == 0 with a nonzero trace id is a
/// *root* context — it names a trace but no span, so spans created under
/// it become roots (parent id 0) rather than dangling references.
struct TraceContext {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;

  bool valid() const { return (trace_hi | trace_lo) != 0; }
  friend bool operator==(const TraceContext& a, const TraceContext& b) {
    return a.trace_hi == b.trace_hi && a.trace_lo == b.trace_lo &&
           a.span_id == b.span_id;
  }
};

/// Derive a root context (span_id 0) from a seed.  Deterministic: the same
/// seed always yields the same trace id; the all-zero trace id is forced to
/// a nonzero value so the result is always valid().
TraceContext derive_root_context(std::uint64_t seed);

/// Derive a child span id from its parent context, the span name, a branch
/// salt (disambiguates independent installations of the same remote
/// context — e.g. two server requests carrying one lease context), and the
/// sibling index within the parent.  Never returns 0.
std::uint64_t derive_span_id(const TraceContext& parent, std::string_view name,
                             std::uint64_t branch, std::uint64_t sibling);

/// Format as a W3C traceparent value: "00-<32 hex trace>-<16 hex span>-01".
/// Requires a valid context with a nonzero span id (W3C forbids an all-zero
/// parent id).
std::string format_traceparent(const TraceContext& ctx);

/// Strict W3C parse: exactly 55 chars, version "00", lowercase hex only,
/// rejects all-zero trace or span ids.  Returns false (and leaves *out
/// untouched) on any deviation.
bool parse_traceparent(std::string_view text, TraceContext* out);

/// 32 lowercase hex chars for the 128-bit trace id.
std::string trace_id_hex(const TraceContext& ctx);

/// 16 lowercase hex chars for a 64-bit span id.
std::string span_id_hex(std::uint64_t id);

/// The context of the innermost span (or installed scope) on this thread.
/// Invalid (all-zero) when no context has been installed.
TraceContext current_trace_context();

/// Install `ctx` as the parent for spans opened in this scope on this
/// thread.  Invalid contexts install nothing (spans fall through to the
/// enclosing scope).  `branch` is the salt mixed into child span ids; pass
/// a per-installation discriminator (e.g. a request sequence number) when
/// the same remote context can be installed more than once in a process.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx, std::uint64_t branch = 0);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  bool pushed_;
};

/// Install a process-wide default root context: any thread whose context
/// stack is empty parents its spans under this root (each thread gets a
/// distinct branch salt so sibling ids never collide across threads).
/// Called once per process by qdb_cli, before worker threads spawn.
void set_process_root_context(const TraceContext& ctx);

/// One completed span occurrence.
struct TraceEvent {
  std::string name;
  std::uint64_t ts_us = 0;   ///< start, microseconds since session start
  std::uint64_t dur_us = 0;  ///< wall duration, microseconds
  int tid = 0;               ///< small sequential id (registration order)
  int depth = 0;             ///< nesting depth at start (0 = top level)
  std::uint64_t trace_hi = 0;   ///< 128-bit trace id (0 when no context)
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;    ///< this span's id (0 when no context)
  std::uint64_t parent_id = 0;  ///< parent span id (0 = trace root)
  std::vector<std::pair<std::string, std::string>> args;
};

/// Aggregated per-span-name statistics.
struct SpanSummary {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;  ///< sum of durations
  std::uint64_t self_us = 0;   ///< sum of each event's wall time outside its direct children
};

/// Per-span-name aggregation of `events`, sorted by name.  An event's
/// direct children are the events of the same trace whose parent id is its
/// span id, on any thread.  Its self time is its duration minus the union
/// of its children's intervals clipped to its own, so children that run
/// concurrently on pool threads are subtracted once.  An event recorded
/// without a trace context has no span id, so nothing is charged to it.
std::vector<SpanSummary> summarize_spans(const std::vector<TraceEvent>& events);

class TraceSession {
 public:
  TraceSession() = default;
  ~TraceSession();  // stops if still active
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Install as the process-wide active session.  Only one session can be
  /// active at a time (starting a second throws qdb::Error).
  void start();

  /// Uninstall and drain all per-thread buffers.  Must be called at
  /// quiescence (see header comment).  Idempotent.  Acquires mu_ to drain
  /// the registered buffers.
  void stop() QDB_EXCLUDES(mu_);

  bool active() const;

  /// The currently installed session, or nullptr.
  static TraceSession* current();

  /// Drained events, sorted by (tid, ts, depth).  Valid after stop().
  const std::vector<TraceEvent>& events() const { return drained_; }

  /// summarize_spans(events()).  Valid after stop().
  std::vector<SpanSummary> summary() const;

  /// Chrome trace_event JSON document:
  ///   {"traceEvents": [{"name", "cat", "ph": "X", "ts", "dur", "pid",
  ///                     "tid", "args"}, ...], "displayTimeUnit": "ms"}
  /// Events that carried a trace context additionally get "trace" (32 hex
  /// chars), "span" and — when non-root — "parent" (16 hex chars each).
  /// Built through qdb::Json, so all strings are escaped correctly
  /// (control characters, quotes; UTF-8 passes through byte-exact).
  Json to_chrome_json() const;

  /// Label this process's dump: `pid` becomes the "pid" of every exported
  /// event (default 1), and a nonempty `name` adds a top-level "process"
  /// object — what qdb_trace_check --out uses to label pid lanes.
  void set_process(int pid, std::string name);

  /// summary() rendered with common/table.h (count, total ms, self ms).
  std::string summary_table() const;

  /// summary() as a JSON array of {name, count, total_us, self_us}.
  Json summary_json() const;

  /// One thread's append-only event buffer.  Public only so the translation
  /// unit's thread-local cache can name the type; user code never touches it.
  struct ThreadBuffer {
    int tid = 0;
    std::vector<TraceEvent> events;
  };

 private:
  friend class Span;

  /// Register (or look up) the calling thread's buffer.  Called once per
  /// (thread, session) via the Span thread-local cache.
  ThreadBuffer* buffer_for_this_thread() QDB_EXCLUDES(mu_);

  std::chrono::steady_clock::time_point epoch_;
  mutable Mutex mu_;  // guards buffers_ registration only
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ QDB_GUARDED_BY(mu_);
  // drained_ / started_ / stopped_ are deliberately unguarded: start() and
  // stop() run on the owning thread, and drained_ is only read after stop()
  // (the parallel.h joins give that thread a happens-before edge over every
  // buffered event), so a mutex here would assert a protocol that does not
  // exist.  The quiescence contract is the guard.
  std::vector<TraceEvent> drained_;
  bool started_ = false;
  bool stopped_ = false;
  int pid_ = 1;
  std::string process_name_;
};

/// RAII timed region.  `name` must be a string literal: a span's end finds
/// its span.<name> histogram through a per-thread cache keyed by the name's
/// address.
/// Construction costs one steady_clock read plus one relaxed atomic load
/// when no session is active.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a key=value attribute (exported as Chrome "args").  Attributes
  /// are only kept while a session is active.
  void set_attr(std::string_view key, std::string_view value);

  /// Elapsed wall time since construction (for result fields like
  /// VqeResult::sim_wall_time_s, replacing the old common/timer.h usage).
  double seconds() const;

  /// This span's position in the distributed trace — what gets formatted
  /// into an outgoing traceparent.  Invalid when no context was installed
  /// at construction.
  TraceContext context() const { return TraceContext{trace_hi_, trace_lo_, span_id_}; }

 private:
  const char* name_;
  std::chrono::steady_clock::time_point start_;
  TraceSession* session_;               // nullptr when inactive at start
  TraceSession::ThreadBuffer* buffer_;  // valid iff session_ != nullptr
  int depth_;
  std::uint64_t trace_hi_ = 0;
  std::uint64_t trace_lo_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

/// Span with an automatically unique variable name.
#define QDB_SPAN_CONCAT2_(a, b) a##b
#define QDB_SPAN_CONCAT_(a, b) QDB_SPAN_CONCAT2_(a, b)
#define QDB_SPAN(name) ::qdb::obs::Span QDB_SPAN_CONCAT_(qdb_span_, __LINE__)(name)

}  // namespace qdb::obs
