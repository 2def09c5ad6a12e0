// Tests for the dataset service (ISSUE 4): HTTP message parsing, the
// socket-free request router (filters, ETag/304, 404/400/405), the /metrics
// latency histogram, live client/server round-trips, and the concurrent-load
// golden test — 8 client threads x 100 mixed requests must produce
// byte-identical bodies to a single-threaded run, with /metrics matching the
// request total and a warm blob cache.
#include <gtest/gtest.h>
#include <unistd.h>  // getpid for per-process scratch directories

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "data/registry.h"
#include "dataset_fixture.h"
#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/http.h"
#include "serve/server.h"
#include "serve/trace_api.h"
#include "store/store.h"

namespace qdb::serve {
namespace {

namespace fs = std::filesystem;

// --- http message layer (no sockets) ----------------------------------------

TEST(HttpParse, RequestHeadRoundTrip) {
  HttpRequest req;
  ASSERT_TRUE(parse_request_head(
      "GET /entries?group=S&min_qubits=50 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "If-None-Match: \"abc\"\r\n"
      "Connection: close",
      &req));
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/entries");
  ASSERT_NE(req.query_param("group"), nullptr);
  EXPECT_EQ(*req.query_param("group"), "S");
  ASSERT_NE(req.query_param("min_qubits"), nullptr);
  EXPECT_EQ(*req.query_param("min_qubits"), "50");
  ASSERT_NE(req.header("if-none-match"), nullptr);  // names lowercased
  EXPECT_EQ(*req.header("if-none-match"), "\"abc\"");
  EXPECT_TRUE(req.wants_close());

  EXPECT_FALSE(parse_request_head("", &req));
  EXPECT_FALSE(parse_request_head("GET\r\n", &req));
}

TEST(HttpParse, ResponseSerializeParseRoundTrip) {
  HttpResponse resp;
  resp.status = 200;
  resp.body = "{\"x\":1}";
  resp.extra_headers.emplace_back("ETag", "\"h\"");
  const std::string wire = serialize_response(resp, /*keep_alive=*/true);
  const std::size_t head_end = wire.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  HttpClientResponse parsed;
  ASSERT_TRUE(parse_response_head(wire.substr(0, head_end), &parsed));
  EXPECT_EQ(parsed.status, 200);
  ASSERT_NE(parsed.header("etag"), nullptr);
  EXPECT_EQ(*parsed.header("etag"), "\"h\"");
  ASSERT_NE(parsed.header("content-length"), nullptr);
  EXPECT_EQ(*parsed.header("content-length"), std::to_string(resp.body.size()));
  EXPECT_EQ(wire.substr(head_end + 4), resp.body);

  // 304 suppresses the body even when one is set.
  resp.status = 304;
  const std::string wire304 = serialize_response(resp, true);
  EXPECT_EQ(wire304.substr(wire304.find("\r\n\r\n") + 4), "");
  EXPECT_NE(wire304.find("Content-Length: 0"), std::string::npos);
}

// --- router (socket-free) ---------------------------------------------------

/// Store + server fixture over the synthetic 55-entry dataset, built once
/// for the whole suite (read-only afterwards).
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = std::make_unique<std::string>(
        (fs::temp_directory_path() /
         ("qdb_serve_suite_" + std::to_string(::getpid())))
            .string());
    fs::remove_all(*dir_);
    qdb::testing::build_synthetic_dataset(*dir_ + "/dataset");
    store_ = std::make_unique<store::Store>(*dir_ + "/store",
                                            /*cache_capacity=*/32);
    store_->ingest_dataset(*dir_ + "/dataset");
  }
  static void TearDownTestSuite() {
    store_.reset();
    fs::remove_all(*dir_);
    dir_.reset();
  }

  static HttpRequest get_request(const std::string& target) {
    HttpRequest req;
    req.method = "GET";
    req.target = target;
    req.version = "HTTP/1.1";
    split_target(target, &req.path, &req.query);
    return req;
  }

  static std::unique_ptr<std::string> dir_;
  static std::unique_ptr<store::Store> store_;
};

std::unique_ptr<std::string> ServeTest::dir_;
std::unique_ptr<store::Store> ServeTest::store_;

TEST_F(ServeTest, RouterStatusMatrix) {
  DatasetServer server(*store_, {});

  HttpRequest post = get_request("/entries");
  post.method = "POST";
  EXPECT_EQ(server.handle(post).status, 405);

  EXPECT_EQ(server.handle(get_request("/healthz")).status, 200);
  EXPECT_EQ(server.handle(get_request("/nope")).status, 404);
  EXPECT_EQ(server.handle(get_request("/entries/zzzz")).status, 404);
  EXPECT_EQ(server.handle(get_request("/entries/1yc4/nope.txt")).status, 404);
  EXPECT_EQ(server.handle(get_request("/entries?frobnicate=1")).status, 400);
  EXPECT_EQ(server.handle(get_request("/entries?min_qubits=banana")).status, 400);
  // A choice matches one '|'-separated value whole: no prefix, no join.
  for (const char* bad : {"/entries?group=X", "/entries?group=SM", "/entries?group=",
                          "/entries?group=S%7CM", "/entries?group=%7CS"}) {
    EXPECT_EQ(server.handle(get_request(bad)).status, 400) << bad;
  }
  for (const char* good : {"/entries?group=S", "/entries?group=M", "/entries?group=L"}) {
    EXPECT_EQ(server.handle(get_request(good)).status, 200) << good;
  }
  EXPECT_EQ(server.handle(get_request("/entries/1yc4?x=1")).status, 400);
  // Lenient spellings the request contract refuses: non-finite, signed,
  // hex and overflowing numbers, repeated keys, and parameters on routes
  // that take none.
  for (const char* bad :
       {"/entries?min_rmsd=nan", "/entries?max_affinity=nan", "/entries?min_rmsd=inf",
        "/entries?min_length=+3", "/entries?min_rmsd=0x1p2", "/entries?min_rmsd=1e999",
        "/entries?min_length=3.0", "/entries?group=S&group=L", "/healthz?x=1",
        "/entries/1yc4/metadata.json?x=1"}) {
    EXPECT_EQ(server.handle(get_request(bad)).status, 400) << bad;
  }
}

TEST_F(ServeTest, MetricsFormatsAndParameterValidation) {
  DatasetServer server(*store_, {});

  // Default (no format) stays JSON and carries the process-wide registry
  // snapshot next to the historical sections.
  const HttpResponse json_resp = server.handle(get_request("/metrics"));
  EXPECT_EQ(json_resp.status, 200);
  EXPECT_EQ(json_resp.content_type, "application/json");
  const Json body = Json::parse(json_resp.body);
  EXPECT_TRUE(body.at("requests").is_object());
  EXPECT_TRUE(body.at("blob_cache").is_object());
  const Json& registry = body.at("registry");
  EXPECT_TRUE(registry.at("counters").is_object());
  EXPECT_TRUE(registry.at("histograms").is_object());
  // ?format=json is the same document shape.
  EXPECT_EQ(server.handle(get_request("/metrics?format=json")).status, 200);

  // Prometheus exposition: text content type, qdb_-prefixed families with
  // TYPE lines, and no duplicated family declarations.
  const HttpResponse prom =
      server.handle(get_request("/metrics?format=prometheus"));
  EXPECT_EQ(prom.status, 200);
  EXPECT_EQ(prom.content_type, "text/plain; version=0.0.4; charset=utf-8");
  std::vector<std::string> type_lines;
  std::size_t pos = 0;
  while (pos < prom.body.size()) {
    std::size_t eol = prom.body.find('\n', pos);
    if (eol == std::string::npos) eol = prom.body.size();
    const std::string line = prom.body.substr(pos, eol - pos);
    if (line.rfind("# TYPE ", 0) == 0) type_lines.push_back(line);
    pos = eol + 1;
  }
  std::vector<std::string> sorted = type_lines;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
      << "duplicate # TYPE family in prometheus exposition";
  for (const std::string& line : type_lines) {
    EXPECT_NE(line.find(" qdb_"), std::string::npos) << line;
  }
  // The server's request families are declared from the first scrape on,
  // before any request has been recorded.
  EXPECT_NE(std::find(type_lines.begin(), type_lines.end(), "# TYPE qdb_serve_requests counter"),
            type_lines.end());

  // Unknown formats and unknown parameters are rejected, not ignored.
  EXPECT_EQ(server.handle(get_request("/metrics?format=xml")).status, 400);
  EXPECT_EQ(server.handle(get_request("/metrics?verbose=1")).status, 400);
}

TEST_F(ServeTest, RouterFiltersMatchRegistry) {
  DatasetServer server(*store_, {});
  const auto count_of = [&](const std::string& target) {
    const HttpResponse resp = server.handle(get_request(target));
    EXPECT_EQ(resp.status, 200) << target;
    return Json::parse(resp.body).at("count").as_int();
  };
  const std::int64_t all = count_of("/entries");
  EXPECT_EQ(all, static_cast<std::int64_t>(qdockbank_entries().size()));
  std::int64_t grouped = 0;
  for (const char* g : {"S", "M", "L"}) {
    grouped += count_of(std::string("/entries?group=") + g);
  }
  EXPECT_EQ(grouped, all);  // groups partition the dataset
  EXPECT_EQ(count_of("/entries?length=13"),
            count_of("/entries?min_length=13&max_length=13"));
  EXPECT_EQ(count_of("/entries?min_qubits=93"),
            count_of("/entries?qubits=102"));  // only 102 exceeds 92
  // Affinity in the synthetic build is -4 - length/8, so S entries (len<=8)
  // are the ones above -5.005.
  EXPECT_EQ(count_of("/entries?min_affinity=-5.005"), count_of("/entries?group=S"));
}

TEST_F(ServeTest, RouterArtifactsCarryETagAnd304) {
  DatasetServer server(*store_, {});
  const store::EntryRecord* rec = store_->find("4tmk");
  ASSERT_NE(rec, nullptr);
  const HttpResponse ok =
      server.handle(get_request("/entries/4tmk/structure.pdb"));
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.content_type, "chemical/x-pdb");
  EXPECT_EQ(ok.body, *store_->read_artifact(*rec, store::Artifact::Structure));
  std::string etag;
  for (const auto& [k, v] : ok.extra_headers) {
    if (k == "ETag") etag = v;
  }
  EXPECT_EQ(etag, "\"" + rec->artifact(store::Artifact::Structure).hash + "\"");

  for (const std::string& inm :
       {etag, etag.substr(1, etag.size() - 2), std::string("*")}) {
    HttpRequest req = get_request("/entries/4tmk/structure.pdb");
    req.headers.emplace_back("if-none-match", inm);
    const HttpResponse not_modified = server.handle(req);
    EXPECT_EQ(not_modified.status, 304) << inm;
    EXPECT_TRUE(not_modified.body.empty());
  }
  HttpRequest stale = get_request("/entries/4tmk/structure.pdb");
  stale.headers.emplace_back("if-none-match", "\"someotherhash\"");
  EXPECT_EQ(server.handle(stale).status, 200);
}

// --- live server ------------------------------------------------------------

ServeOptions ephemeral_options(int threads) {
  ServeOptions opt;
  opt.port = 0;  // ctest runs suites in parallel; never a fixed port
  opt.threads = threads;
  return opt;
}

TEST_F(ServeTest, LiveRoundTripAndKeepAlive) {
  DatasetServer server(*store_, ephemeral_options(2));
  server.start();
  HttpClient client("127.0.0.1", server.port());
  // Multiple requests over one keep-alive connection.
  for (int i = 0; i < 3; ++i) {
    const HttpClientResponse r = client.get("/healthz");
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(Json::parse(r.body).at("status").as_string(), "ok");
  }
  const HttpClientResponse metrics = client.get("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_GE(Json::parse(metrics.body).at("requests").at("requests_total").as_int(), 3);
  server.stop();
  EXPECT_FALSE(server.running());
  // stop() is idempotent.
  server.stop();
}

TEST_F(ServeTest, MetricsLatencyBucketsArePowerOfTwoCumulative) {
  DatasetServer server(*store_, ephemeral_options(2));
  server.start();
  HttpClient client("127.0.0.1", server.port());
  const Json before = Json::parse(client.get("/metrics").body).at("requests");
  for (const char* target : {"/healthz", "/entries/1yc4", "/entries/zzzz"}) client.get(target);
  // One keep-alive connection: each request is recorded before the next one
  // is read, so this scrape counts the first scrape and the three reads.
  const Json requests = Json::parse(client.get("/metrics").body).at("requests");
  server.stop();

  EXPECT_EQ(requests.at("requests_total").as_int(), before.at("requests_total").as_int() + 4);
  const Json& latency = requests.at("latency");
  EXPECT_EQ(latency.at("count").as_int(), requests.at("requests_total").as_int());
  EXPECT_GE(latency.at("total_us").as_int(), before.at("latency").at("total_us").as_int());
  const JsonArray& buckets = latency.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), static_cast<std::size_t>(obs::Histogram::kBuckets) + 1);
  // Bucket b is le 2^b microseconds, then +Inf; counts are cumulative, and
  // the last equals the count.
  std::int64_t prev = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (b + 1 < buckets.size()) {
      EXPECT_EQ(buckets[b].at("le_us").as_int(), std::int64_t{1} << b);
    } else {
      EXPECT_EQ(buckets[b].at("le_us").as_string(), "+Inf");
    }
    EXPECT_GE(buckets[b].at("count").as_int(), prev);
    prev = buckets[b].at("count").as_int();
  }
  EXPECT_EQ(prev, latency.at("count").as_int());
}

TEST_F(ServeTest, RestartServesAgainAndRunningIsRaceFree) {
  // Regression test (ISSUE 8): start() used to clear `stopping_` without
  // holding queue_mu_, unsynchronized against a previous generation's
  // draining workers, and running() read a plain bool that start()/stop()
  // wrote from other threads.  A stop/start cycle with a concurrent
  // running() poller exercises both.
  DatasetServer server(*store_, ephemeral_options(2));
  std::atomic<bool> poll{true};
  std::thread poller([&] {
    while (poll.load(std::memory_order_acquire)) server.running();
  });
  for (int cycle = 0; cycle < 3; ++cycle) {
    server.start();
    EXPECT_TRUE(server.running());
    HttpClient client("127.0.0.1", server.port());
    EXPECT_EQ(client.get("/healthz").status, 200);
    server.stop();
    EXPECT_FALSE(server.running());
  }
  poll.store(false, std::memory_order_release);
  poller.join();
}

TEST_F(ServeTest, LiveClientSurvivesServerSideConnectionClose) {
  ServeOptions opt = ephemeral_options(1);
  DatasetServer server(*store_, opt);
  server.start();
  HttpClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.get("/healthz").status, 200);
  client.close();  // stale connection: next get() reconnects
  EXPECT_EQ(client.get("/healthz").status, 200);
  server.stop();
}

/// The deterministic mixed request list of the concurrent-load golden test:
/// entry summaries, artifacts (all three kinds), filters and health checks.
/// No /metrics — it is the one endpoint whose body legitimately varies.
std::vector<std::string> golden_targets() {
  const std::vector<DatasetEntry>& entries = qdockbank_entries();
  std::vector<std::string> targets;
  targets.reserve(100);
  for (int i = 0; i < 100; ++i) {
    const std::string id = entries[static_cast<std::size_t>(i * 7) % entries.size()].pdb_id;
    switch (i % 5) {
      case 0: targets.push_back("/entries/" + id); break;
      case 1: targets.push_back("/entries/" + id + "/metadata.json"); break;
      case 2: targets.push_back("/entries/" + id + "/structure.pdb"); break;
      case 3: targets.push_back("/entries/" + id + "/docking.json"); break;
      default:
        targets.push_back(i % 2 == 0 ? "/healthz" : "/entries?group=" +
                                                        std::string(group_name(
                                                            entries[static_cast<std::size_t>(i)
                                                                    % entries.size()]
                                                                .group())));
    }
  }
  return targets;
}

TEST_F(ServeTest, ConcurrentLoadGolden) {
  const std::vector<std::string> targets = golden_targets();

  // Golden pass: single worker, single client, sequential.
  std::vector<std::string> golden;
  {
    DatasetServer server(*store_, ephemeral_options(1));
    server.start();
    HttpClient client("127.0.0.1", server.port());
    for (const std::string& t : targets) {
      const HttpClientResponse r = client.get(t);
      EXPECT_EQ(r.status, 200) << t;
      golden.push_back(r.body);
    }
    server.stop();
  }

  // Concurrent pass: fresh server, 8 client threads x 100 mixed requests,
  // each thread its own connection.  The request counts are per process, so
  // the checks below are relative to a scrape taken before the load.
  constexpr int kThreads = 8;
  DatasetServer server(*store_, ephemeral_options(4));
  server.start();
  const Json before = [&] {
    HttpClient client("127.0.0.1", server.port());
    return Json::parse(client.get("/metrics").body).at("requests");
  }();
  std::vector<std::vector<std::string>> bodies(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client("127.0.0.1", server.port());
      bodies[static_cast<std::size_t>(t)].reserve(targets.size());
      for (const std::string& target : targets) {
        bodies[static_cast<std::size_t>(t)].push_back(client.get(target).body);
      }
    });
  }
  for (std::thread& th : clients) th.join();

  // Byte-identical bodies across every thread and the single-threaded run.
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(bodies[static_cast<std::size_t>(t)].size(), golden.size());
    for (std::size_t i = 0; i < golden.size(); ++i) {
      EXPECT_EQ(bodies[static_cast<std::size_t>(t)][i], golden[i])
          << "thread " << t << " target " << targets[i];
    }
  }

  // /metrics must converge on exactly kThreads * targets more counted
  // requests, plus the scrape taken before the load.  Counters are recorded
  // after the response bytes are sent, so poll briefly for the last few
  // records to land — and each poll is itself a request that the *next*
  // scrape will have counted (recording is sequenced before the same
  // keep-alive worker reads the following request), so scrape number
  // `polls` (0-based) must report exactly `expected + polls` more once every
  // client-thread request has landed.
  const std::int64_t expected =
      1 + static_cast<std::int64_t>(kThreads) * static_cast<std::int64_t>(targets.size());
  const auto added = [&before](const Json& now, const char* key, const char* sub = nullptr) {
    const auto at = [&](const Json& j) -> const Json& { return sub ? j.at(key).at(sub) : j.at(key); };
    return at(now).as_int() - at(before).as_int();
  };
  HttpClient scraper("127.0.0.1", server.port());
  Json requests;
  std::int64_t polls = 0;
  for (; polls < 200; ++polls) {
    requests = Json::parse(scraper.get("/metrics").body).at("requests");
    if (added(requests, "requests_total") >= expected + polls) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::int64_t seen = expected + polls;  // client load + every scrape before this one
  EXPECT_EQ(added(requests, "requests_total"), seen);
  EXPECT_EQ(added(requests, "responses", "2xx"), seen);
  EXPECT_EQ(added(requests, "responses", "4xx"), 0);
  EXPECT_EQ(added(requests, "responses", "5xx"), 0);
  EXPECT_EQ(added(requests, "latency", "count"), seen);

  // The artifact working set repeats across threads: the cache must be warm.
  const Json metrics = Json::parse(scraper.get("/metrics").body);
  EXPECT_GT(metrics.at("blob_cache").at("hits").as_int(), 0);
  EXPECT_GT(metrics.at("blob_cache").at("hit_rate").as_double(), 0.0);

  // One metrics store: in this quiescent scrape the "requests" section is
  // the registry's serve.* metrics, value for value.
  const Json& last = metrics.at("requests");
  const Json& counters = metrics.at("registry").at("counters");
  const Json& histogram = metrics.at("registry").at("histograms").at("serve.request_us");
  EXPECT_EQ(last.at("requests_total").as_int(), counters.at("serve.requests").as_int());
  for (const char* klass : {"2xx", "3xx", "4xx", "5xx"}) {
    EXPECT_EQ(last.at("responses").at(klass).as_int(),
              counters.at(std::string("serve.responses_") + klass).as_int())
        << klass;
  }
  EXPECT_EQ(last.at("connections_accepted").as_int(),
            counters.at("serve.connections_accepted").as_int());
  EXPECT_EQ(last.at("bytes_sent").as_int(), counters.at("serve.bytes_sent").as_int());
  EXPECT_EQ(last.at("latency").at("count").as_int(), histogram.at("count").as_int());
  EXPECT_EQ(last.at("latency").at("total_us").as_int(), histogram.at("total").as_int());
  server.stop();
}

TEST_F(ServeTest, StopUnblocksIdleKeepAliveConnections) {
  DatasetServer server(*store_, ephemeral_options(2));
  server.start();
  HttpClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.get("/healthz").status, 200);
  // The connection is now idle inside a worker's recv; stop() must not hang.
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 5);
}

// --- mounted sub-API routes (ISSUE 7) ----------------------------------------

TEST_F(ServeTest, MountedRouteAcceptsBodiesUnmountedPathsReject) {
  ServeOptions opt = ephemeral_options(2);
  opt.max_body_bytes = 1024;  // small enough that an oversized POST still
                              // fits in the socket buffers before the 413
  DatasetServer server(*store_, opt);
  server.set_route("/echo", [](const HttpRequest& request, const std::string& body) {
    Json j = Json::object();
    j.set("method", request.method);
    j.set("body", body);
    HttpResponse resp;
    resp.body = j.dump();
    return resp;
  });
  server.start();
  HttpClient client("127.0.0.1", server.port());

  // A POSTed body reaches the mounted handler verbatim.
  const HttpClientResponse ok = client.post("/echo", "{\"x\": 1}");
  ASSERT_EQ(ok.status, 200);
  EXPECT_EQ(Json::parse(ok.body).at("body").as_string(), "{\"x\": 1}");
  EXPECT_EQ(Json::parse(ok.body).at("method").as_string(), "POST");
  // Prefix routing covers sub-paths too.
  EXPECT_EQ(client.post("/echo/sub/path", "{}").status, 200);

  // Paths without a mounted handler still reject bodies outright.
  EXPECT_EQ(client.post("/healthz", "{}").status, 400);
  // Oversized bodies get a complete 413 even on a mounted route (the server
  // answers and drops the connection without draining the body).
  EXPECT_EQ(client.post("/echo", std::string(2048, 'x')).status, 413);
  server.stop();
}

TEST_F(ServeTest, StopDeliversInFlightResponseCompletely) {
  // The ISSUE 7 shutdown-ordering regression: a response being produced when
  // stop() lands must be delivered in full (never cut mid-body); requests
  // read after stop() began get a clean 503 instead.
  DatasetServer server(*store_, ephemeral_options(2));
  const std::string payload(64 * 1024, 'z');
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  server.set_route("/slow", [&](const HttpRequest&, const std::string&) {
    {
      std::unique_lock<std::mutex> lock(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    HttpResponse resp;
    resp.content_type = "text/plain";
    resp.body = payload;
    return resp;
  });
  server.start();
  const std::uint16_t port = server.port();

  HttpClientResponse got;
  std::string client_error;
  std::thread client_thread([&] {
    try {
      HttpClient client("127.0.0.1", port);
      got = client.post("/slow", "{}");
    } catch (const std::exception& e) {
      client_error = e.what();  // a truncated response surfaces here
    }
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  // stop() begins while the handler holds the request; it must block on the
  // in-flight exchange rather than cut the connection.
  std::thread stopper([&] { server.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  stopper.join();
  client_thread.join();

  EXPECT_EQ(client_error, "");
  EXPECT_EQ(got.status, 200);
  EXPECT_EQ(got.body, payload);
  EXPECT_FALSE(server.running());
}

// --- distributed tracing over the control plane (ISSUE 10) -------------------

TEST_F(ServeTest, TraceContextPropagatesClientToServer) {
  obs::TraceSession session;
  session.start();
  DatasetServer server(*store_, ephemeral_options(2));
  server.start();
  const obs::TraceContext remote{0x7e57000011112222ULL, 0x7e57000033334444ULL,
                                 0x0000000000abcdefULL};
  std::uint64_t client_span = 0;
  {
    const obs::ScopedTraceContext scope(remote, 3);
    obs::Span cli("test.client");
    client_span = cli.context().span_id;
    HttpClient client("127.0.0.1", server.port());
    EXPECT_EQ(client.get("/healthz").status, 200);
  }
  server.stop();
  session.stop();
  // The server handler runs on its own worker thread, but its serve.request
  // span must join the *client's* trace: same trace id, parented to the
  // client-side span whose context rode the traceparent header.
  bool saw_request = false;
  for (const obs::TraceEvent& ev : session.events()) {
    if (ev.name != "serve.request") continue;
    saw_request = true;
    EXPECT_EQ(ev.trace_hi, remote.trace_hi);
    EXPECT_EQ(ev.trace_lo, remote.trace_lo);
    EXPECT_EQ(ev.parent_id, client_span);
    EXPECT_NE(ev.span_id, 0u);
  }
  EXPECT_TRUE(saw_request);
}

TEST_F(ServeTest, ServerSynthesizesRootAndEscapesHostileTraceparent) {
  std::mutex lines_mu;
  std::vector<std::string> lines;
  obs::set_log_sink([&](std::string_view line) {
    const std::lock_guard<std::mutex> lock(lines_mu);
    lines.emplace_back(line);
  });
  obs::set_log_level(obs::LogLevel::Debug);

  obs::TraceSession session;
  session.start();
  ServeOptions opt = ephemeral_options(2);
  opt.trace_seed = 77;
  DatasetServer server(*store_, opt);
  server.start();
  HttpClient client("127.0.0.1", server.port());
  // No traceparent at all, then a hostile one: malformed, with quotes and a
  // tab that must not reach the log stream unescaped.
  EXPECT_EQ(client.get("/healthz").status, 200);
  const std::string hostile = "00-bad\"quote\tchars-0000-01";
  EXPECT_EQ(client
                .get("/healthz", {{std::string(obs::kTraceparentHeader),
                                   hostile}})
                .status,
            200);
  server.stop();
  session.stop();
  obs::set_log_sink(nullptr);
  obs::set_log_level(obs::LogLevel::Warn);

  // Both requests got synthesized roots: valid ids, no parent, and distinct
  // per-request trace ids (the root seed is salted with the request seq).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> trace_ids;
  for (const obs::TraceEvent& ev : session.events()) {
    if (ev.name != "serve.request") continue;
    EXPECT_NE(ev.trace_hi | ev.trace_lo, 0u);
    EXPECT_NE(ev.span_id, 0u);
    EXPECT_EQ(ev.parent_id, 0u);
    trace_ids.emplace_back(ev.trace_hi, ev.trace_lo);
  }
  ASSERT_EQ(trace_ids.size(), 2u);
  EXPECT_NE(trace_ids[0], trace_ids[1]);

  // The rejection is logged at debug with the hostile value escaped: one
  // line, tab rendered as \t, quotes backslashed.
  bool saw_reject = false;
  const std::lock_guard<std::mutex> lock(lines_mu);
  for (const std::string& line : lines) {
    if (line.find("event=serve.request.bad_traceparent") == std::string::npos) {
      continue;
    }
    saw_reject = true;
    EXPECT_EQ(line.find('\t'), std::string::npos) << line;
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
    EXPECT_NE(line.find("\\t"), std::string::npos) << line;
    EXPECT_NE(line.find("\\\""), std::string::npos) << line;
  }
  EXPECT_TRUE(saw_reject);
}

TEST_F(ServeTest, TraceIngestIsContentAddressedAndStrict) {
  DatasetServer server(*store_, ephemeral_options(2));
  attach_trace_api(server, *store_);
  server.start();
  HttpClient client("127.0.0.1", server.port());

  Json dump = Json::object();
  dump.set("traceEvents", Json::array());
  const std::string body = dump.dump();
  const HttpClientResponse first = client.post("/trace", body);
  ASSERT_EQ(first.status, 200) << first.body;
  const Json first_doc = Json::parse(first.body);
  const std::string hash = first_doc.at("hash").as_string();
  EXPECT_FALSE(hash.empty());
  EXPECT_EQ(first_doc.at("events").as_int(), 0);
  // Content-addressed: the identical dump lands on the identical blob.
  const HttpClientResponse second = client.post("/trace", body);
  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(Json::parse(second.body).at("hash").as_string(), hash);

  EXPECT_EQ(client.post("/trace", "not json").status, 400);
  EXPECT_EQ(client.post("/trace", "[]").status, 400);
  EXPECT_EQ(client.post("/trace", "{\"no\": \"events\"}").status, 400);
  EXPECT_EQ(client.get("/trace").status, 405);
  EXPECT_EQ(client.post("/trace?x=1", body).status, 400);
  EXPECT_EQ(client.post("/trace/sub", body).status, 404);

  // A real qdb_cli --trace dump: to_chrome_json with a process name, plus
  // the summary, registry and prometheus keys the CLI adds.
  obs::TraceSession session;
  session.start();
  { obs::Span span("test.trace.dump"); }
  session.stop();
  session.set_process(7, "worker-7");
  Json real = session.to_chrome_json();
  ASSERT_TRUE(real.contains("process"));
  real.set("summary", session.summary_json());
  real.set("registry", obs::MetricRegistry::global().to_json());
  real.set("prometheus", obs::MetricRegistry::global().to_prometheus());
  const HttpClientResponse full = client.post("/trace", real.dump());
  ASSERT_EQ(full.status, 200) << full.body;
  EXPECT_EQ(Json::parse(full.body).at("events").as_int(),
            static_cast<std::int64_t>(session.events().size()));
  server.stop();
}

TEST_F(ServeTest, DebugFlightEndpointIsStrictAndStable) {
  DatasetServer server(*store_, ephemeral_options(2));
  attach_trace_api(server, *store_);
  server.start();
  HttpClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.get("/healthz").status, 200);  // seeds >=1 flight record

  const HttpClientResponse all = client.get("/debug/flight");
  ASSERT_EQ(all.status, 200);
  const Json doc = Json::parse(all.body);
  EXPECT_EQ(doc.at("capacity").as_int(),
            static_cast<std::int64_t>(obs::kFlightCapacity));
  EXPECT_GE(doc.at("recorded").as_int(), 1);
  EXPECT_TRUE(doc.at("records").is_array());

  const HttpClientResponse one = client.get("/debug/flight?n=1");
  ASSERT_EQ(one.status, 200);
  const Json one_doc = Json::parse(one.body);
  EXPECT_EQ(one_doc.at("records").as_array().size(), 1u);

  for (const char* bad :
       {"/debug/flight?n=0", "/debug/flight?n=257", "/debug/flight?n=abc",
        "/debug/flight?n=9999999", "/debug/flight?m=1"}) {
    EXPECT_EQ(client.get(bad).status, 400) << bad;
  }
  EXPECT_EQ(client.post("/debug/flight", "{}").status, 400);  // bodies rejected
  EXPECT_EQ(client.get("/debug/other").status, 404);
  server.stop();
}

TEST_F(ServeTest, ClientRetryCounterCountsStaleConnectionRetries) {
  const std::uint64_t before = obs::counter("serve.client.retry").value();
  ServeOptions opt = ephemeral_options(2);
  DatasetServer server(*store_, opt);
  server.start();
  const std::uint16_t port = server.port();
  HttpClient client("127.0.0.1", port);
  EXPECT_EQ(client.get("/healthz").status, 200);
  server.stop();

  // Rebind the same port (SO_REUSEADDR) and reuse the client: its first
  // request rides the stale keep-alive connection, fails with IoError, and
  // the retry path reconnects — exactly one counted retry.
  ServeOptions opt2 = ephemeral_options(2);
  opt2.port = port;
  DatasetServer server2(*store_, opt2);
  server2.start();
  EXPECT_EQ(client.get("/healthz").status, 200);
  EXPECT_GT(obs::counter("serve.client.retry").value(), before);
  // And the counter is scrapeable from /metrics.
  const HttpClientResponse metrics = client.get("/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_TRUE(Json::parse(metrics.body)
                  .at("registry")
                  .at("counters")
                  .contains("serve.client.retry"));
  server2.stop();
}

}  // namespace
}  // namespace qdb::serve
