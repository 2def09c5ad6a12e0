#include "obs/flight.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "obs/trace.h"

namespace qdb::obs {

namespace {

constexpr std::size_t kNameWords = kFlightNameBytes / 8;

/// One ring slot.  Every word is an atomic so concurrent write/read is a
/// logical-consistency question (settled by the stamp protocol), never a
/// data race.  stamp encodes the slot's sequence number: 0 = never
/// written, 2*seq+1 = write in progress, 2*seq+2 = consistent.
struct Slot {
  std::atomic<std::uint64_t> stamp{0};
  std::atomic<std::uint64_t> kind{0};  // 0 span, 1 log
  std::atomic<std::uint64_t> ts_us{0};
  std::atomic<std::uint64_t> dur_us{0};
  std::atomic<std::uint64_t> trace_hi{0};
  std::atomic<std::uint64_t> trace_lo{0};
  std::atomic<std::uint64_t> span_id{0};
  std::atomic<std::uint64_t> parent_id{0};
  std::atomic<std::uint64_t> name_len{0};
  std::atomic<std::uint64_t> name[kNameWords]{};
};

struct Ring {
  std::atomic<std::uint64_t> next{0};
  Slot slots[kFlightCapacity];
};

Ring& ring() {
  static Ring r;
  return r;
}

std::uint64_t now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - epoch)
                      .count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

void record(std::uint64_t kind, std::string_view name, std::uint64_t dur_us,
            std::uint64_t trace_hi, std::uint64_t trace_lo,
            std::uint64_t span_id, std::uint64_t parent_id) {
  const std::uint64_t ts = now_us();
  Ring& r = ring();
  const std::uint64_t seq = r.next.fetch_add(1, std::memory_order_relaxed);
  Slot& s = r.slots[seq % kFlightCapacity];

  // Fence-free seqlock: each payload store is a release after the odd
  // stamp, so a reader that acquires any word of this write also sees that
  // stamp (or a later one) when it re-reads it, and drops the slot.
  s.stamp.store(2 * seq + 1, std::memory_order_relaxed);
  s.kind.store(kind, std::memory_order_release);
  s.ts_us.store(ts, std::memory_order_release);
  s.dur_us.store(dur_us, std::memory_order_release);
  s.trace_hi.store(trace_hi, std::memory_order_release);
  s.trace_lo.store(trace_lo, std::memory_order_release);
  s.span_id.store(span_id, std::memory_order_release);
  s.parent_id.store(parent_id, std::memory_order_release);
  char buf[kFlightNameBytes] = {};
  const std::size_t n = std::min(name.size(), kFlightNameBytes);
  std::memcpy(buf, name.data(), n);
  s.name_len.store(n, std::memory_order_release);
  for (std::size_t w = 0; w < kNameWords; ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, buf + 8 * w, 8);
    s.name[w].store(word, std::memory_order_release);
  }

  s.stamp.store(2 * seq + 2, std::memory_order_release);
}

struct SlotCopy {
  std::uint64_t seq = 0;
  std::uint64_t kind = 0;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::string name;
};

/// Arm target for the crash-dump hook.  Written before the hook is
/// installed (arm happens during startup / test setup), read from the
/// failing thread.
std::string& crash_dump_path() {
  static std::string path;
  return path;
}

void crash_dump_hook(const std::string& message) {
  Json doc = flight_snapshot_json(0);
  doc.set("failure", message);
  write_file_atomic(crash_dump_path(), doc.dump() + "\n");
}

}  // namespace

void flight_record_span(std::string_view name, std::uint64_t dur_us,
                        std::uint64_t trace_hi, std::uint64_t trace_lo,
                        std::uint64_t span_id, std::uint64_t parent_id) {
  record(0, name, dur_us, trace_hi, trace_lo, span_id, parent_id);
}

void flight_record_log(std::string_view event, std::uint64_t trace_hi,
                       std::uint64_t trace_lo, std::uint64_t span_id) {
  record(1, event, 0, trace_hi, trace_lo, span_id, 0);
}

Json flight_snapshot_json(std::size_t max_records) {
  if (max_records == 0 || max_records > kFlightCapacity) {
    max_records = kFlightCapacity;
  }
  Ring& r = ring();
  std::vector<SlotCopy> copies;
  copies.reserve(kFlightCapacity);
  for (Slot& s : r.slots) {
    const std::uint64_t s1 = s.stamp.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1) != 0) continue;  // never written / mid-write
    // Acquire loads pair with the writer's release stores (see record()):
    // a payload word from a newer write makes its odd stamp visible below.
    SlotCopy c;
    c.kind = s.kind.load(std::memory_order_acquire);
    c.ts_us = s.ts_us.load(std::memory_order_acquire);
    c.dur_us = s.dur_us.load(std::memory_order_acquire);
    c.trace_hi = s.trace_hi.load(std::memory_order_acquire);
    c.trace_lo = s.trace_lo.load(std::memory_order_acquire);
    c.span_id = s.span_id.load(std::memory_order_acquire);
    c.parent_id = s.parent_id.load(std::memory_order_acquire);
    std::uint64_t len = s.name_len.load(std::memory_order_acquire);
    char buf[kFlightNameBytes];
    for (std::size_t w = 0; w < kNameWords; ++w) {
      const std::uint64_t word = s.name[w].load(std::memory_order_acquire);
      std::memcpy(buf + 8 * w, &word, 8);
    }
    if (s.stamp.load(std::memory_order_relaxed) != s1) continue;  // overwritten
    if (len > kFlightNameBytes) len = kFlightNameBytes;           // torn slot
    c.name.assign(buf, static_cast<std::size_t>(len));
    c.seq = (s1 - 2) / 2;
    copies.push_back(std::move(c));
  }
  std::sort(copies.begin(), copies.end(),
            [](const SlotCopy& a, const SlotCopy& b) { return a.seq < b.seq; });
  if (copies.size() > max_records) {
    copies.erase(copies.begin(),
                 copies.end() - static_cast<std::ptrdiff_t>(max_records));
  }

  Json records = Json::array();
  for (const SlotCopy& c : copies) {
    Json rec = Json::object();
    rec.set("seq", static_cast<std::int64_t>(c.seq));
    rec.set("kind", c.kind == 0 ? "span" : "log");
    rec.set("name", c.name);
    rec.set("ts_us", static_cast<std::int64_t>(c.ts_us));
    rec.set("dur_us", static_cast<std::int64_t>(c.dur_us));
    if (c.span_id != 0) {
      rec.set("trace", trace_id_hex(TraceContext{c.trace_hi, c.trace_lo, 0}));
      rec.set("span", span_id_hex(c.span_id));
      if (c.parent_id != 0) rec.set("parent", span_id_hex(c.parent_id));
    }
    records.push_back(std::move(rec));
  }
  Json doc = Json::object();
  doc.set("capacity", static_cast<std::int64_t>(kFlightCapacity));
  doc.set("recorded",
          static_cast<std::int64_t>(r.next.load(std::memory_order_relaxed)));
  doc.set("records", std::move(records));
  return doc;
}

void arm_flight_crash_dump(const std::string& path) {
  crash_dump_path() = path;
  check::set_failure_hook(&crash_dump_hook);
}

}  // namespace qdb::obs
