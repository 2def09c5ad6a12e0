#include "obs/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/annotations.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/sync.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qdb::obs {

namespace {

std::atomic<int> g_level{-1};  // -1 = not yet initialised from QDB_LOG

/// The installed sink and the mutex that serialises every write through it.
/// One struct so the guarded_by relation is expressible: the sink slot may
/// only be touched holding its own mutex.
struct SinkState {
  Mutex mu;
  std::function<void(std::string_view)> sink QDB_GUARDED_BY(mu);
};

SinkState& sink_state() {
  static SinkState state;
  return state;
}

void default_sink(std::string_view line) {
  // The one sanctioned stderr write in the library: everything else routes
  // through this sink (enforced by qdb_lint's stderr-in-library rule, which
  // exempts src/obs/).
  std::fprintf(stderr, "%.*s\n", static_cast<int>(line.size()), line.data());
}

void emit(std::string_view line) {
  SinkState& state = sink_state();
  const MutexLock lock(state.mu);
  if (state.sink) {
    state.sink(line);
  } else {
    default_sink(line);
  }
}

char to_lower_ascii(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c; }

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Warn: return "warn";
    case LogLevel::Info: return "info";
    case LogLevel::Debug: return "debug";
    case LogLevel::Off: break;
  }
  return "off";
}

std::int64_t epoch_millis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// common/parallel.h cannot log, so it reports a rejected OMP_NUM_THREADS
/// through this hook, installed when the logger is linked in.
void warn_thread_env(std::string_view value, int threads) {
  log_warn("parallel.thread_count_rejected")
      .kv("variable", "OMP_NUM_THREADS")
      .kv("value", value)
      .kv("threads", threads)
      .kv("accepted", "whole number in [1, 1024]");
}

[[maybe_unused]] const bool g_thread_env_hook_installed = [] {
  set_thread_env_hook(&warn_thread_env);
  return true;
}();

}  // namespace

LogLevel parse_log_level(std::string_view text) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) lower += to_lower_ascii(c);
  if (lower == "off" || lower == "none" || lower == "0") return LogLevel::Off;
  if (lower == "info") return LogLevel::Info;
  if (lower == "debug") return LogLevel::Debug;
  return LogLevel::Warn;  // unknown strings fall back to the default
}

LogLevel log_level() {
  int lvl = g_level.load(std::memory_order_relaxed);
  if (lvl < 0) {
    const char* env = std::getenv("QDB_LOG");
    const LogLevel parsed = env == nullptr ? LogLevel::Warn : parse_log_level(env);
    // Racing initialisers agree (same env var), so plain stores are fine.
    g_level.store(static_cast<int>(parsed), std::memory_order_relaxed);
    lvl = static_cast<int>(parsed);
  }
  return static_cast<LogLevel>(lvl);
}

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) <= static_cast<int>(log_level()) &&
         level != LogLevel::Off;
}

void set_log_sink(std::function<void(std::string_view)> sink) {
  SinkState& state = sink_state();
  const MutexLock lock(state.mu);
  state.sink = std::move(sink);
}

std::string log_escape_value(std::string_view value) {
  bool needs_quotes = value.empty();
  for (char c : value) {
    const unsigned char uc = static_cast<unsigned char>(c);
    if (c == ' ' || c == '"' || c == '=' || c == '\\' || uc < 0x20) {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return std::string(value);
  std::string out = "\"";
  for (char c : value) {
    const unsigned char uc = static_cast<unsigned char>(c);
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else if (c == '\t') out += "\\t";
    else if (uc < 0x20) out += format("\\x%02x", uc);
    else out += c;
  }
  out += '"';
  return out;
}

LogEvent::LogEvent(LogLevel level, std::string_view event)
    : enabled_(log_enabled(level)) {
  if (!enabled_) return;
  static Counter& warn_count = counter("log.warn");
  static Counter& info_count = counter("log.info");
  static Counter& debug_count = counter("log.debug");
  switch (level) {
    case LogLevel::Warn: warn_count.add(); break;
    case LogLevel::Info: info_count.add(); break;
    case LogLevel::Debug: debug_count.add(); break;
    case LogLevel::Off: break;
  }
  line_ = "ts=" + std::to_string(epoch_millis());
  line_ += " level=";
  line_ += level_name(level);
  line_ += " event=";
  line_ += log_escape_value(event);
  event_.assign(event);
  const TraceContext ctx = current_trace_context();
  if (ctx.valid()) {
    trace_hi_ = ctx.trace_hi;
    trace_lo_ = ctx.trace_lo;
    span_id_ = ctx.span_id;
    line_ += " trace=";
    line_ += trace_id_hex(ctx);
  }
}

LogEvent::~LogEvent() {
  if (enabled_) {
    flight_record_log(event_, trace_hi_, trace_lo_, span_id_);
    emit(line_);
  }
}

LogEvent& LogEvent::kv(std::string_view key, std::string_view value) {
  if (!enabled_) return *this;
  line_ += ' ';
  line_ += key;
  line_ += '=';
  line_ += log_escape_value(value);
  return *this;
}

LogEvent& LogEvent::kv(std::string_view key, double value) {
  if (!enabled_) return *this;
  return kv(key, std::string_view(format("%g", value)));
}

LogEvent& LogEvent::kv(std::string_view key, std::int64_t value) {
  if (!enabled_) return *this;
  return kv(key, std::string_view(std::to_string(value)));
}

LogEvent& LogEvent::kv(std::string_view key, std::uint64_t value) {
  if (!enabled_) return *this;
  return kv(key, std::string_view(std::to_string(value)));
}

}  // namespace qdb::obs
