// Tests for src/common: RNG determinism and statistics, JSON round-trips,
// the durable-record envelope, string helpers, and table rendering.
#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/error.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"

namespace qdb {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 2);
}

TEST(Rng, StringSeedingIsStableAndComponentSensitive) {
  Rng a("4jpy", "dock", 0), a2("4jpy", "dock", 0);
  Rng b("4jpy", "dock", 1), c("4jpy", "vqe", 0), d("3d7z", "dock", 0);
  const auto va = a();
  EXPECT_EQ(va, a2());
  EXPECT_NE(va, b());
  EXPECT_NE(va, c());
  EXPECT_NE(va, d());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatesHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowIsUnbiasedOverSmallRange) {
  Rng rng(13);
  int counts[5] = {0, 0, 0, 0, 0};
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(5)];
  for (int c : counts) EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(19);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(23);
  Rng child = parent.split();
  Rng child2 = parent.split();
  EXPECT_NE(child(), child2());
}

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_double(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-1e-3").as_double(), -1e-3);
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(Json, IntStaysIntThroughDump) {
  Json j = Json::object();
  j.set("qubits", 102);
  j.set("energy", -4.25);
  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back.at("qubits").as_int(), 102);
  EXPECT_DOUBLE_EQ(back.at("energy").as_double(), -4.25);
}

TEST(Json, NestedDocumentRoundTrip) {
  Json doc = Json::object();
  doc.set("id", "4jpy");
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back(2.5);
  arr.push_back("x");
  Json inner = Json::object();
  inner.set("ok", true);
  arr.push_back(std::move(inner));
  doc.set("items", std::move(arr));

  const Json back = Json::parse(doc.dump());
  EXPECT_EQ(back.at("id").as_string(), "4jpy");
  const auto& items = back.at("items").as_array();
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(items[1].as_double(), 2.5);
  EXPECT_EQ(items[2].as_string(), "x");
  EXPECT_TRUE(items[3].at("ok").as_bool());
}

TEST(Json, ObjectKeysKeepInsertionOrder) {
  Json j = Json::object();
  j.set("zebra", 1);
  j.set("apple", 2);
  const std::string s = j.dump(-1);
  EXPECT_LT(s.find("zebra"), s.find("apple"));
}

TEST(Json, SetOverwritesExistingKey) {
  Json j = Json::object();
  j.set("k", 1);
  j.set("k", 2);
  EXPECT_EQ(j.at("k").as_int(), 2);
  EXPECT_EQ(j.as_object().size(), 1u);
}

TEST(Json, ParseErrorsThrow) {
  EXPECT_THROW(Json::parse(""), ParseError);
  EXPECT_THROW(Json::parse("{"), ParseError);
  EXPECT_THROW(Json::parse("[1,]"), ParseError);
  EXPECT_THROW(Json::parse("12 34"), ParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), ParseError);
}

TEST(Json, TypeMismatchThrows) {
  const Json j = Json::parse("{\"a\": 1}");
  EXPECT_THROW(j.as_array(), Error);
  EXPECT_THROW(j.at("missing"), Error);
  EXPECT_THROW(j.at("a").as_string(), Error);
}

TEST(Json, EscapedStringsRoundTrip) {
  Json j = Json::object();
  j.set("s", "a\"b\\c\nd\te");
  EXPECT_EQ(Json::parse(j.dump()).at("s").as_string(), "a\"b\\c\nd\te");
}

TEST(Json, UnicodeEscapeDecodes) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
}

TEST(Json, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/qdb_json_test/doc.json";
  Json j = Json::object();
  j.set("v", 7);
  write_file(path, j.dump());
  EXPECT_EQ(Json::parse(read_file(path)).at("v").as_int(), 7);
}

TEST(Json, NonFiniteDoublesDumpAsNull) {
  const double inf = std::numeric_limits<double>::infinity();
  Json arr = Json::array();
  arr.push_back(inf);
  arr.push_back(-inf);
  arr.push_back(std::numeric_limits<double>::quiet_NaN());
  const std::string text = arr.dump(-1);
  EXPECT_EQ(text, "[null,null,null]");
  const Json back = Json::parse(text);
  for (const Json& v : back.as_array()) EXPECT_TRUE(v.is_null());
}

// --- exact doubles ------------------------------------------------------------

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::vector<double> exact_round_trip_cases() {
  std::vector<double> xs = {0.0, -0.0, 0.1 + 0.2, 1e21, DBL_MAX, -DBL_MAX,
                            DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN, 4.9e-320,
                            1.0 / 3.0, 22590.2071234567, 100.0,
                            -3.141592653589793};
  std::uint64_t state = 0x51c0ffeeULL;
  while (xs.size() < 20000) {
    const std::uint64_t bits = splitmix64(state);
    double x;
    std::memcpy(&x, &bits, sizeof x);
    if (std::isfinite(x)) xs.push_back(x);
  }
  return xs;
}

TEST(JsonExact, DumpParseRoundTripsEveryFiniteDoubleBitForBit) {
  for (const double x : exact_round_trip_cases()) {
    const std::string text = Json(x).dump();
    const Json back = Json::parse(text);
    ASSERT_EQ(back.type(), Json::Type::Double) << text;
    ASSERT_TRUE(same_bits(back.as_double(), x)) << text;
  }
}

TEST(JsonExact, CanonicalTextIsAFixedPoint) {
  for (const double x : exact_round_trip_cases()) {
    const std::string canonical = Json(x).dump();
    ASSERT_EQ(Json::parse(canonical).dump(), canonical);
  }
  // Integral doubles keep a ".0" (or an exponent) so they stay doubles.
  EXPECT_EQ(Json(100.0).dump(), "100.0");
  EXPECT_EQ(Json(-0.0).dump(), "-0.0");
  EXPECT_EQ(Json(1e21).dump(), "1e+21");
  EXPECT_EQ(Json(0.1 + 0.2).dump(), "0.30000000000000004");
}

// --- durable-record envelope ------------------------------------------------

TEST(DurableRecord, HeaderRoundTripsAndMismatchesAreIoErrors) {
  const RecordHeader header{"test-record", 2, 0xfeedfacecafebeefULL};
  Json doc = record_header(header);
  doc.set("payload", 1.5);
  const Json back = Json::parse(doc.dump());
  EXPECT_NO_THROW(check_record_header(back, header, "doc"));
  EXPECT_EQ(back.at("payload").as_double(), 1.5);

  RecordHeader other = header;
  other.kind = "other-record";
  EXPECT_THROW(check_record_header(back, other, "doc"), IoError);
  other = header;
  other.version = 1;
  EXPECT_THROW(check_record_header(back, other, "doc"), IoError);
  other = header;
  other.options_fingerprint += 1;
  EXPECT_THROW(check_record_header(back, other, "doc"), IoError);

  // Missing or mistyped header fields, and non-objects, are IoErrors too.
  EXPECT_THROW(check_record_header(Json::parse("[1]"), header, "doc"), IoError);
  Json numeric_kind = Json::parse(doc.dump());
  numeric_kind.set("kind", 7);
  EXPECT_THROW(check_record_header(numeric_kind, header, "doc"), IoError);
  Json string_version = Json::parse(doc.dump());
  string_version.set("version", "2");
  EXPECT_THROW(check_record_header(string_version, header, "doc"), IoError);
}

TEST(DurableRecord, ReaderReportsAbsentAndRefusesCorruptOrMismatchedFiles) {
  const std::string dir = testing::TempDir() + "/qdb_durable_record";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/record.json";
  const RecordHeader header{"test-record", 2, 42};

  EXPECT_FALSE(read_record(path, header).has_value());

  Json doc = record_header(header);
  doc.set("x", 0.1 + 0.2);
  const std::string text = doc.dump();
  write_file_atomic(path, text);
  const std::optional<Json> back = read_record(path, header);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(), text);

  EXPECT_THROW(read_record(path, RecordHeader{"test-record", 2, 43}), IoError);
  EXPECT_THROW(read_record(path, RecordHeader{"test-record", 3, 42}), IoError);
  write_file(path, text.substr(0, text.size() / 2));  // truncated
  EXPECT_THROW(read_record(path, header), IoError);
  write_file(path, "");
  EXPECT_THROW(read_record(path, header), IoError);
  std::filesystem::remove_all(dir);
}

TEST(Strings, FormatBasics) {
  EXPECT_EQ(format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_upper("4jpy"), "4JPY");
  EXPECT_EQ(to_lower("GLY"), "gly");
  EXPECT_TRUE(starts_with("ATOM  123", "ATOM"));
  EXPECT_FALSE(starts_with("AT", "ATOM"));
}

TEST(Strings, ParseHexU64AcceptsOneToSixteenLowercaseDigits) {
  std::uint64_t v = 7;
  EXPECT_TRUE(parse_hex_u64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_hex_u64("0a", &v));
  EXPECT_EQ(v, 10u);
  EXPECT_TRUE(parse_hex_u64("ffffffffffffffff", &v));
  EXPECT_EQ(v, ~std::uint64_t{0});
  EXPECT_TRUE(parse_hex_u64("0123456789abcdef", &v));
  EXPECT_EQ(v, 0x0123456789abcdefu);
  // Rejections leave the output untouched.
  v = 7;
  EXPECT_FALSE(parse_hex_u64("", &v));
  EXPECT_FALSE(parse_hex_u64("0123456789abcdef0", &v));  // 17 digits
  EXPECT_FALSE(parse_hex_u64("ABCDEF", &v));
  EXPECT_FALSE(parse_hex_u64("0aF", &v));
  EXPECT_FALSE(parse_hex_u64("0x1f", &v));
  EXPECT_FALSE(parse_hex_u64(" 1", &v));
  EXPECT_FALSE(parse_hex_u64("g", &v));
  EXPECT_EQ(v, 7u);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"PDB ID", "Qubits"});
  t.add_row({"4jpy", "102"});
  t.add_row({"3ckz", "12"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("PDB ID"), std::string::npos);
  EXPECT_NE(s.find("4jpy"), std::string::npos);
  EXPECT_NE(s.find("12"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

// --- parallel_for_beside ----------------------------------------------------

TEST(ParallelBeside, SideRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id side_thread;
  parallel_for_beside(
      8, [](std::int64_t) {}, [&] { side_thread = std::this_thread::get_id(); });
  EXPECT_EQ(side_thread, caller);
}

TEST(ParallelBeside, EveryBodyIndexRunsExactlyOnce) {
  for (const std::int64_t n : {0, 1, 3, 6, 64}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    int sides = 0;
    parallel_for_beside(
        n, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)].fetch_add(1); },
        [&] { ++sides; });
    EXPECT_EQ(sides, 1) << n;
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << n;
  }
}

TEST(ParallelBeside, LoopsNestedInTheSideTaskRunSerially) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> nested(32);
  parallel_for_beside(
      4, [](std::int64_t) {},
      [&] {
        parallel_for(32, [&](std::int64_t i) {
          nested[static_cast<std::size_t>(i)] = std::this_thread::get_id();
        });
      });
  for (const std::thread::id& id : nested) EXPECT_EQ(id, caller);
}

TEST(ParallelBeside, SideExceptionIsRethrownAfterTheBodyDrains) {
  constexpr std::int64_t kN = 16;
  std::atomic<int> done{0};
  EXPECT_THROW(parallel_for_beside(
                   kN,
                   [&](std::int64_t) {
                     std::this_thread::sleep_for(std::chrono::milliseconds(1));
                     done.fetch_add(1);
                   },
                   [] { throw std::runtime_error("side failed"); }),
               std::runtime_error);
  EXPECT_EQ(done.load(), kN);
}

TEST(ParallelBeside, InsideAParallelRegionEverythingRunsOnTheEnclosingThread) {
  std::atomic<int> foreign{0};
  std::atomic<int> bodies{0};
  parallel_for_threads(2, 2, [&](std::int64_t) {
    const std::thread::id outer = std::this_thread::get_id();
    parallel_for_beside(
        8,
        [&](std::int64_t) {
          bodies.fetch_add(1);
          if (std::this_thread::get_id() != outer) foreign.fetch_add(1);
        },
        [&] {
          if (std::this_thread::get_id() != outer) foreign.fetch_add(1);
        });
  });
  EXPECT_EQ(bodies.load(), 16);
  EXPECT_EQ(foreign.load(), 0);
}

// --- the thread pool behind the wrappers --------------------------------------

/// The threads other than the caller that ran a 4-index region at 4 threads.
/// Every body waits until all four have started, so each index is on its own
/// thread.
std::set<std::thread::id> workers_of_one_region() {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::vector<std::thread::id> ran(4);
  parallel_for_threads(4, 4, [&](std::int64_t i) {
    ran[static_cast<std::size_t>(i)] = std::this_thread::get_id();
    arrived.fetch_add(1);
    while (arrived.load() < 4) std::this_thread::yield();
  });
  std::set<std::thread::id> workers(ran.begin(), ran.end());
  EXPECT_EQ(workers.size(), 4u);
  workers.erase(caller);
  return workers;
}

TEST(ParallelPool, ConsecutiveRegionsRunOnTheSameWorkers) {
  const std::set<std::thread::id> first = workers_of_one_region();
  EXPECT_EQ(first.size(), 3u);
  EXPECT_EQ(workers_of_one_region(), first);
}

TEST(ParallelPool, ConcurrentCallersEachSeeEveryIndexOnce) {
  constexpr std::int64_t kN = 64;
  constexpr int kRounds = 20;
  std::vector<std::atomic<int>> hits_a(kN), hits_b(kN);
  const auto caller = [&](std::vector<std::atomic<int>>& hits) {
    for (int round = 0; round < kRounds; ++round) {
      parallel_for_threads(kN, 4, [&](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
    }
  };
  std::thread a(caller, std::ref(hits_a));
  std::thread b(caller, std::ref(hits_b));
  a.join();
  b.join();
  for (std::int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits_a[static_cast<std::size_t>(i)].load(), kRounds) << i;
    EXPECT_EQ(hits_b[static_cast<std::size_t>(i)].load(), kRounds) << i;
  }
}

TEST(ParallelPool, ReduceReturnsTheSameBitsOnEveryCall) {
  const auto term = [](std::int64_t i) {
    return std::sin(static_cast<double>(i)) / static_cast<double>(i + 1);
  };
  const double first = parallel_reduce(100003, term);
  for (int call = 0; call < 20; ++call) {
    const double again = parallel_reduce(100003, term);
    EXPECT_EQ(std::memcmp(&again, &first, sizeof first), 0) << call;
  }
}

TEST(ParallelPool, OmpNumThreadsIsAWholeNumberFromOneTo1024) {
  using parallel_detail::parse_thread_count;
  EXPECT_EQ(parse_thread_count("1"), 1);
  EXPECT_EQ(parse_thread_count("4"), 4);
  EXPECT_EQ(parse_thread_count("1024"), 1024);
  EXPECT_EQ(parse_thread_count(nullptr), 0);  // unset: the affinity count
  EXPECT_EQ(parse_thread_count(""), 0);
  for (const char* bad : {"0", "x", "4x", "99999", "1025", "-2", "+4", " 4", "4,2"}) {
    EXPECT_EQ(parse_thread_count(bad), -1) << bad;
  }
}

TEST(ErrorHelpers, RequireThrowsWithMessage) {
  try {
    QDB_REQUIRE(false, "boom");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

}  // namespace
}  // namespace qdb
