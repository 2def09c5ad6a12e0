#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <tuple>

#include "common/check.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "obs/flight.h"
#include "obs/metrics.h"

namespace qdb::obs {

namespace {

/// The installed session (at most one per process) and its generation.  The
/// generation invalidates the per-thread buffer cache across sessions: two
/// sessions could occupy the same address, so a pointer compare is not
/// enough (classic ABA).
std::atomic<TraceSession*> g_session{nullptr};
std::atomic<std::uint64_t> g_generation{0};

struct TlTraceCache {
  std::uint64_t generation = 0;  // 0 = nothing cached (generations start at 1)
  TraceSession::ThreadBuffer* buffer = nullptr;
};

TlTraceCache& tl_cache() {
  thread_local TlTraceCache cache;
  return cache;
}

int& tl_depth() {
  thread_local int depth = 0;
  return depth;
}

/// The registry histogram span.<name>, looked up by name once per thread and
/// cache slot rather than at every span end.  Span names are string literals
/// (trace.h), so the name's address is the key; a slot two names share is
/// looked up again on each switch.  Trivially destructible, so spans ended
/// during static destruction still find it.
Histogram& span_histogram(const char* name) {
  struct Slot {
    const char* name = nullptr;
    Histogram* histogram = nullptr;
  };
  constexpr std::size_t kSlots = 64;
  thread_local Slot slots[kSlots];
  Slot& slot = slots[(reinterpret_cast<std::uintptr_t>(name) >> 3) % kSlots];
  if (slot.name != name) {
    slot.histogram = &MetricRegistry::global().histogram(std::string("span.") + name);
    slot.name = name;
  }
  return *slot.histogram;
}

std::uint64_t micros_between(std::chrono::steady_clock::time_point from,
                             std::chrono::steady_clock::time_point to) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from).count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

/// One level of the per-thread context stack: the context spans at this
/// level parent under, the branch salt mixed into their ids, and the
/// running sibling index.
struct TraceFrame {
  TraceContext ctx;
  std::uint64_t branch = 0;
  std::uint64_t children = 0;
};

std::vector<TraceFrame>& tl_frames() {
  thread_local std::vector<TraceFrame> frames;
  return frames;
}

/// Process-wide default root (set_process_root_context).  Written once
/// before worker threads spawn; relaxed loads are sufficient because the
/// two words are only ever written together, once.
std::atomic<std::uint64_t> g_root_hi{0};
std::atomic<std::uint64_t> g_root_lo{0};

/// Registration-order thread discriminator: the branch salt of each
/// thread's implicit base frame, so two threads' spans under the shared
/// process root can never derive colliding sibling ids.
std::atomic<std::uint64_t> g_thread_seq{0};

std::uint64_t tl_thread_branch() {
  thread_local const std::uint64_t branch =
      g_thread_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  return branch;
}

}  // namespace

TraceContext derive_root_context(std::uint64_t seed) {
  std::uint64_t state = seed;
  TraceContext ctx;
  ctx.trace_hi = splitmix64(state);
  ctx.trace_lo = splitmix64(state);
  if ((ctx.trace_hi | ctx.trace_lo) == 0) ctx.trace_lo = 1;
  ctx.span_id = 0;
  return ctx;
}

std::uint64_t derive_span_id(const TraceContext& parent, std::string_view name,
                             std::uint64_t branch, std::uint64_t sibling) {
  std::uint64_t id = seed_combine(parent.span_id ^ parent.trace_lo, fnv1a(name));
  id = seed_combine(id, branch);
  id = seed_combine(id, sibling);
  return id == 0 ? 1 : id;
}

std::string span_id_hex(std::uint64_t id) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[id & 0xf];
    id >>= 4;
  }
  return out;
}

std::string trace_id_hex(const TraceContext& ctx) {
  return span_id_hex(ctx.trace_hi) + span_id_hex(ctx.trace_lo);
}

std::string format_traceparent(const TraceContext& ctx) {
  QDB_REQUIRE(ctx.valid() && ctx.span_id != 0,
              "traceparent needs a valid context with a nonzero span id");
  return "00-" + trace_id_hex(ctx) + "-" + span_id_hex(ctx.span_id) + "-01";
}

bool parse_traceparent(std::string_view text, TraceContext* out) {
  if (text.size() != 55) return false;
  if (text[0] != '0' || text[1] != '0') return false;
  if (text[2] != '-' || text[35] != '-' || text[52] != '-') return false;
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  std::uint64_t span = 0;
  std::uint64_t flags = 0;
  if (!parse_hex_u64(text.substr(3, 16), &hi)) return false;
  if (!parse_hex_u64(text.substr(19, 16), &lo)) return false;
  if (!parse_hex_u64(text.substr(36, 16), &span)) return false;
  if (!parse_hex_u64(text.substr(53, 2), &flags)) return false;
  if ((hi | lo) == 0 || span == 0) return false;
  out->trace_hi = hi;
  out->trace_lo = lo;
  out->span_id = span;
  return true;
}

TraceContext current_trace_context() {
  const auto& frames = tl_frames();
  return frames.empty() ? TraceContext{} : frames.back().ctx;
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx, std::uint64_t branch)
    : pushed_(ctx.valid()) {
  if (pushed_) tl_frames().push_back(TraceFrame{ctx, branch, 0});
}

ScopedTraceContext::~ScopedTraceContext() {
  if (pushed_) tl_frames().pop_back();
}

void set_process_root_context(const TraceContext& ctx) {
  g_root_hi.store(ctx.trace_hi, std::memory_order_relaxed);
  g_root_lo.store(ctx.trace_lo, std::memory_order_relaxed);
}

TraceSession::~TraceSession() { stop(); }

TraceSession* TraceSession::current() {
  return g_session.load(std::memory_order_acquire);
}

bool TraceSession::active() const {
  return g_session.load(std::memory_order_acquire) == this;
}

void TraceSession::start() {
  if (started_) throw Error("trace session cannot be restarted");
  epoch_ = std::chrono::steady_clock::now();
  started_ = true;
  // Bump the generation *before* publishing the pointer: a thread that sees
  // the new session also sees a generation newer than anything it cached.
  g_generation.fetch_add(1, std::memory_order_relaxed);
  TraceSession* expected = nullptr;
  if (!g_session.compare_exchange_strong(expected, this, std::memory_order_acq_rel)) {
    started_ = false;
    throw Error("a trace session is already active");
  }
}

void TraceSession::stop() {
  if (!started_ || stopped_) return;
  TraceSession* expected = this;
  g_session.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel);
  // Drain at quiescence: every recording thread has been joined by its
  // fan-out (common/parallel.h), which gives this thread a happens-before
  // edge over all buffered events.
  const MutexLock lock(mu_);
  std::size_t total = 0;
  for (const auto& buf : buffers_) total += buf->events.size();
  drained_.reserve(total);
  for (auto& buf : buffers_) {
    for (TraceEvent& ev : buf->events) drained_.push_back(std::move(ev));
    buf->events.clear();
  }
  std::sort(drained_.begin(), drained_.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.depth != b.depth) return a.depth < b.depth;
              return a.name < b.name;
            });
  stopped_ = true;
}

TraceSession::ThreadBuffer* TraceSession::buffer_for_this_thread() {
  const MutexLock lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  buffers_.back()->tid = static_cast<int>(buffers_.size());
  return buffers_.back().get();
}

std::vector<SpanSummary> summarize_spans(const std::vector<TraceEvent>& events) {
  // Each event's index by (trace, span id); the first wins should two ids
  // ever collide.
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>, std::size_t> by_id;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.span_id != 0) by_id.emplace(std::tuple{e.trace_hi, e.trace_lo, e.span_id}, i);
  }
  // Each direct child's interval, clipped to its parent's.
  using Interval = std::pair<std::uint64_t, std::uint64_t>;
  std::vector<std::vector<Interval>> children(events.size());
  for (const TraceEvent& e : events) {
    if (e.parent_id == 0) continue;
    const auto parent = by_id.find(std::tuple{e.trace_hi, e.trace_lo, e.parent_id});
    if (parent == by_id.end()) continue;
    const TraceEvent& p = events[parent->second];
    const std::uint64_t begin = std::max(e.ts_us, p.ts_us);
    const std::uint64_t end = std::min(e.ts_us + e.dur_us, p.ts_us + p.dur_us);
    if (begin < end) children[parent->second].emplace_back(begin, end);
  }

  std::map<std::string, SpanSummary> rows;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::vector<Interval>& spans = children[i];
    std::sort(spans.begin(), spans.end());
    std::uint64_t covered = 0, reach = 0;
    for (const auto& [begin, end] : spans) {
      const std::uint64_t from = std::max(begin, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    SpanSummary& row = rows[e.name];
    row.name = e.name;
    row.count += 1;
    row.total_us += e.dur_us;
    row.self_us += e.dur_us - covered;  // covered <= dur: children are clipped
  }
  std::vector<SpanSummary> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  return out;
}

std::vector<SpanSummary> TraceSession::summary() const { return summarize_spans(drained_); }

Json TraceSession::to_chrome_json() const {
  Json events = Json::array();
  for (const TraceEvent& e : drained_) {
    Json ev = Json::object();
    ev.set("name", e.name);
    ev.set("cat", "qdb");
    ev.set("ph", "X");
    ev.set("ts", static_cast<std::int64_t>(e.ts_us));
    ev.set("dur", static_cast<std::int64_t>(e.dur_us));
    ev.set("pid", pid_);
    ev.set("tid", e.tid);
    if (e.span_id != 0) {
      ev.set("trace", trace_id_hex(TraceContext{e.trace_hi, e.trace_lo, 0}));
      ev.set("span", span_id_hex(e.span_id));
      if (e.parent_id != 0) ev.set("parent", span_id_hex(e.parent_id));
    }
    if (!e.args.empty()) {
      Json args = Json::object();
      for (const auto& [key, value] : e.args) args.set(key, value);
      ev.set("args", std::move(args));
    }
    events.push_back(std::move(ev));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  if (!process_name_.empty()) {
    Json proc = Json::object();
    proc.set("pid", pid_);
    proc.set("name", process_name_);
    doc.set("process", std::move(proc));
  }
  return doc;
}

void TraceSession::set_process(int pid, std::string name) {
  pid_ = pid;
  process_name_ = std::move(name);
}

Json TraceSession::summary_json() const {
  Json rows = Json::array();
  for (const SpanSummary& s : summary()) {
    Json row = Json::object();
    row.set("name", s.name);
    row.set("count", static_cast<std::int64_t>(s.count));
    row.set("total_us", static_cast<std::int64_t>(s.total_us));
    row.set("self_us", static_cast<std::int64_t>(s.self_us));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string TraceSession::summary_table() const {
  Table t({"Span", "Count", "Total(ms)", "Self(ms)"});
  for (const SpanSummary& s : summary()) {
    t.add_row({s.name, std::to_string(s.count),
               format_fixed(static_cast<double>(s.total_us) / 1e3, 2),
               format_fixed(static_cast<double>(s.self_us) / 1e3, 2)});
  }
  return t.to_string();
}

Span::Span(const char* name)
    : name_(name), start_(std::chrono::steady_clock::now()), buffer_(nullptr) {
  session_ = g_session.load(std::memory_order_acquire);
  if (session_ != nullptr) {
    TlTraceCache& tl = tl_cache();
    const std::uint64_t gen = g_generation.load(std::memory_order_relaxed);
    if (tl.generation != gen) {
      tl.buffer = session_->buffer_for_this_thread();
      tl.generation = gen;
    }
    buffer_ = tl.buffer;
  }
  depth_ = tl_depth()++;

  auto& frames = tl_frames();
  if (frames.empty()) {
    const std::uint64_t hi = g_root_hi.load(std::memory_order_relaxed);
    const std::uint64_t lo = g_root_lo.load(std::memory_order_relaxed);
    if ((hi | lo) != 0) {
      // Persistent per-thread base frame under the process root.  Never
      // popped: its sibling counter must survive across top-level spans on
      // this thread, and its branch salt keeps ids distinct across threads.
      frames.push_back(TraceFrame{TraceContext{hi, lo, 0}, tl_thread_branch(), 0});
    }
  }
  if (!frames.empty()) {
    TraceFrame& parent = frames.back();
    trace_hi_ = parent.ctx.trace_hi;
    trace_lo_ = parent.ctx.trace_lo;
    parent_id_ = parent.ctx.span_id;
    span_id_ = derive_span_id(parent.ctx, name_, parent.branch, parent.children++);
    frames.push_back(TraceFrame{TraceContext{trace_hi_, trace_lo_, span_id_}, 0, 0});
  }
}

Span::~Span() {
  const auto end = std::chrono::steady_clock::now();
  const std::uint64_t dur_us = micros_between(start_, end);
  --tl_depth();
  if (span_id_ != 0) tl_frames().pop_back();
  // The flight recorder sees every span end, session or not — that is the
  // whole point of an always-on ring.
  flight_record_span(name_, dur_us, trace_hi_, trace_lo_, span_id_, parent_id_);
  // Always mirrored into the registry so span totals are observable (and
  // cross-checkable against a session's events) through /metrics.
  span_histogram(name_).record(dur_us);
  if (session_ != nullptr && buffer_ != nullptr) {
    TraceEvent ev;
    ev.name = name_;
    ev.ts_us = micros_between(session_->epoch_, start_);
    ev.dur_us = dur_us;
    ev.tid = buffer_->tid;
    ev.depth = depth_;
    ev.trace_hi = trace_hi_;
    ev.trace_lo = trace_lo_;
    ev.span_id = span_id_;
    ev.parent_id = parent_id_;
    ev.args = std::move(args_);
    buffer_->events.push_back(std::move(ev));
  }
}

void Span::set_attr(std::string_view key, std::string_view value) {
  if (session_ == nullptr) return;
  args_.emplace_back(std::string(key), std::string(value));
}

double Span::seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

}  // namespace qdb::obs
