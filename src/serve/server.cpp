#include "serve/server.h"

#include <chrono>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/request.h"

namespace qdb::serve {

namespace {

/// The server's request telemetry.  It lives only in the process-wide
/// registry, behind static handles (one name lookup per process), so the
/// /metrics "requests" section, the Prometheus exposition and trace dumps
/// all read the same counts.  The counts are per process, which is per
/// server: every process serves from one DatasetServer (DESIGN.md §9.4).
struct RequestMetrics {
  obs::Counter& requests = obs::counter("serve.requests");
  obs::Counter& responses_2xx = obs::counter("serve.responses_2xx");
  obs::Counter& responses_3xx = obs::counter("serve.responses_3xx");
  obs::Counter& responses_4xx = obs::counter("serve.responses_4xx");
  obs::Counter& responses_5xx = obs::counter("serve.responses_5xx");
  obs::Counter& connections_accepted = obs::counter("serve.connections_accepted");
  obs::Counter& bytes_sent = obs::counter("serve.bytes_sent");
  obs::Histogram& latency = obs::histogram("serve.request_us");

  /// Record one completed request (called after the response is sent).
  void record(int status, std::uint64_t micros, std::uint64_t response_bytes) const {
    requests.add();
    (status >= 500   ? responses_5xx
     : status >= 400 ? responses_4xx
     : status >= 300 ? responses_3xx
                     : responses_2xx)
        .add();
    bytes_sent.add(response_bytes);
    latency.record(micros);
  }

  /// The /metrics "requests" section, in its historical keys and shape;
  /// the latency buckets are cumulative (le semantics).
  Json to_json() const {
    const auto value = [](const obs::Counter& c) { return static_cast<std::int64_t>(c.value()); };
    Json j = Json::object();
    j.set("requests_total", value(requests));
    Json by_class = Json::object();
    by_class.set("2xx", value(responses_2xx));
    by_class.set("3xx", value(responses_3xx));
    by_class.set("4xx", value(responses_4xx));
    by_class.set("5xx", value(responses_5xx));
    j.set("responses", std::move(by_class));
    j.set("connections_accepted", value(connections_accepted));
    j.set("bytes_sent", value(bytes_sent));
    j.set("latency", latency.to_json("le_us", "total_us"));
    return j;
  }
};

const RequestMetrics& request_metrics() {
  static const RequestMetrics metrics;
  return metrics;
}

constexpr Field kMetricsFields[] = {
    {.key = "format", .type = FieldType::OneOf, .choices = "json|prometheus"},
};

/// An /entries filter on an integer column.
constexpr Field int_filter(std::string_view key) {
  return {.key = key, .type = FieldType::Int, .min = -1e9, .max = 1e9};
}

/// The /entries filters.  Unknown or malformed parameters are an error: a
/// typo silently matching everything is worse than a 400.
constexpr Field kEntriesFields[] = {
    {.key = "group", .type = FieldType::OneOf, .choices = "S|M|L"},
    int_filter("length"),   int_filter("min_length"), int_filter("max_length"),
    int_filter("qubits"),   int_filter("min_qubits"), int_filter("max_qubits"),
    {.key = "min_rmsd", .type = FieldType::Number},
    {.key = "max_rmsd", .type = FieldType::Number},
    {.key = "min_affinity", .type = FieldType::Number},
    {.key = "max_affinity", .type = FieldType::Number},
};

/// The column of `e` a numeric /entries filter names; any other name is a bug.
double entry_column(std::string_view column, const store::EntryRecord& e) {
  if (column == "length") return e.length;
  if (column == "qubits") return e.qubits;
  if (column == "rmsd") return e.ca_rmsd;
  QDB_REQUIRE(column == "affinity", "no /entries column named '" << column << "'");
  return e.best_affinity;
}

/// Does `e` pass every filter the request carries?  A min_ or max_ key
/// bounds the column the rest of its name names; a bare key must equal it.
bool entry_matches(const Params& filters, const store::EntryRecord& e) {
  for (const auto& [key, value] : filters.fields.as_object()) {
    if (key == "group") {
      if (e.group != value.as_string().front()) return false;
      continue;
    }
    const bool min = starts_with(key, "min_");
    const bool max = starts_with(key, "max_");
    const std::string_view column = std::string_view(key).substr(min || max ? 4 : 0);
    const double v = entry_column(column, e);
    const double bound = value.as_double();
    if (min ? v < bound : max ? v > bound : v != bound) return false;
  }
  return true;
}

Json entry_summary_json(const store::EntryRecord& e) {
  Json j = Json::object();
  j.set("pdb_id", e.pdb_id);
  j.set("group", std::string(1, e.group));
  j.set("sequence", e.sequence);
  j.set("length", e.length);
  j.set("qubits", e.qubits);
  j.set("best_affinity", e.best_affinity);
  j.set("ca_rmsd", e.ca_rmsd);
  Json artifacts = Json::object();
  for (int i = 0; i < store::kArtifactCount; ++i) {
    const auto a = static_cast<store::Artifact>(i);
    const store::ArtifactRef& ref = e.artifact(a);
    Json art = Json::object();
    art.set("hash", ref.hash);
    art.set("size", static_cast<std::int64_t>(ref.size));
    artifacts.set(store::artifact_filename(a), std::move(art));
  }
  j.set("artifacts", std::move(artifacts));
  return j;
}

const char* artifact_content_type(store::Artifact a) {
  switch (a) {
    case store::Artifact::Structure: return "chemical/x-pdb";
    case store::Artifact::Metadata: return "application/json";
    case store::Artifact::Docking: return "application/json";
  }
  return "application/octet-stream";
}

/// Match an If-None-Match header value against an ETag ('"hash"'), accepting
/// the quoted form, the bare hash, and the '*' wildcard.
bool etag_matches(const std::string& if_none_match, const std::string& hash) {
  if (if_none_match == "*") return true;
  std::string_view v = if_none_match;
  if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
    v = v.substr(1, v.size() - 2);
  }
  return v == hash;
}

const store::EntryRecord& entry_named(const store::Store& store, std::string_view pdb_id) {
  const store::EntryRecord* e = store.find(pdb_id);
  if (e == nullptr) not_found("unknown entry '" + std::string(pdb_id) + "'");
  return *e;
}

}  // namespace

DatasetServer::DatasetServer(const store::Store& store, ServeOptions options)
    : store_(store), options_(std::move(options)) {
  QDB_REQUIRE(options_.threads >= 1,
              "server needs at least 1 worker thread, got " << options_.threads);
}

DatasetServer::~DatasetServer() { stop(); }

void DatasetServer::start() {
  QDB_REQUIRE(!running_, "server already started");
  listener_ = tcp_listen(options_.host, options_.port);
  port_ = local_port(listener_);
  {
    // A previous stop() leaves stopping_ true; reset it under its lock so
    // the write is ordered against any worker from that earlier generation
    // still draining (the restart race -Werror=thread-safety surfaced).
    const MutexLock lock(queue_mu_);
    stopping_ = false;
  }
  running_.store(true, std::memory_order_release);
  workers_.reserve(static_cast<std::size_t>(options_.threads));
  for (int t = 0; t < options_.threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

void DatasetServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    const MutexLock lock(queue_mu_);
    stopping_ = true;
  }
  // Unblock the acceptor, then the workers, then any in-flight reads.
  // Shutdown only — not close — while the acceptor is live: accept() on a
  // shut-down listener returns EINVAL (the cooperative-stop signal in
  // tcp_accept), whereas close() would race on the fd value and let the
  // kernel recycle the fd number under a concurrent accept().  The close
  // happens after the join below.
  shutdown_socket(listener_);
  queue_cv_.notify_all();
  {
    // Read-half close only (ISSUE 7 shutdown-ordering fix): a full
    // SHUT_RDWR here could cut a response mid-body on a long-lived worker
    // connection whose lease exchange is being written right now.  SHUT_RD
    // wakes workers blocked between requests, while an in-flight write
    // completes; the 503-when-stopping check in serve_connection plus
    // keep_alive=false ensure the worker loop exits right after.
    const MutexLock lock(active_mu_);
    for (int fd : active_fds_) shutdown_fd_read(fd);
  }
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    // Connections accepted but never claimed by a worker: close them.
    const MutexLock lock(queue_mu_);
    queue_.clear();
  }
  running_.store(false, std::memory_order_release);
}

void DatasetServer::accept_loop() {
  for (;;) {
    Socket conn = tcp_accept(listener_);
    if (!conn.valid()) return;  // listener shut down
    request_metrics().connections_accepted.add();
    {
      const MutexLock lock(queue_mu_);
      queue_cv_.wait(queue_mu_, [this]() QDB_REQUIRES(queue_mu_) {
        return stopping_ || queue_.size() < options_.max_queued_connections;
      });
      if (stopping_) return;  // conn closes on scope exit
      queue_.push_back(std::move(conn));
    }
    queue_cv_.notify_one();
  }
}

void DatasetServer::worker_loop() {
  for (;;) {
    Socket conn;
    {
      const MutexLock lock(queue_mu_);
      queue_cv_.wait(queue_mu_,
                     [this]() QDB_REQUIRES(queue_mu_) { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      conn = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_cv_.notify_one();  // wake the acceptor if it hit the queue bound
    serve_connection(std::move(conn));
  }
}

void DatasetServer::serve_connection(Socket conn) {
  const int fd = conn.fd();
  {
    const MutexLock lock(active_mu_);
    active_fds_.insert(fd);
  }

  std::string buffer;
  char chunk[4096];
  bool keep_alive = true;
  while (keep_alive) {
    // Accumulate until a full head ("\r\n\r\n") is buffered.
    std::size_t head_end;
    for (;;) {
      head_end = buffer.find("\r\n\r\n");
      if (head_end != std::string::npos) break;
      if (buffer.size() > options_.max_header_bytes) {
        send_all(conn, serialize_response(
                           error_response(431, "request head too large"), false));
        keep_alive = false;
        break;
      }
      std::size_t n = 0;
      try {
        n = recv_some(conn, chunk, sizeof chunk);
      } catch (const IoError&) {
        n = 0;
      }
      if (n == 0) {  // EOF / shutdown
        keep_alive = false;
        break;
      }
      buffer.append(chunk, n);
    }
    if (!keep_alive) break;

    HttpRequest request;
    const bool parsed = parse_request_head(
        std::string_view(buffer).substr(0, head_end), &request);
    buffer.erase(0, head_end + 4);

    HttpResponse response;
    std::uint64_t micros = 0;
    bool dispatch = false;
    std::size_t body_len = 0;
    if (!parsed) {
      response = error_response(400, "malformed request");
      keep_alive = false;
    } else {
      const std::string* len = request.header("content-length");
      if (len != nullptr && !parse_content_length(*len, &body_len)) {
        response = error_response(400, "bad Content-Length '" + *len + "'");
        keep_alive = false;
      } else if (body_len > options_.max_body_bytes) {
        // Draining an oversized body would let a client hold the worker;
        // answer and drop the connection instead.
        response = error_response(413, "request body too large");
        keep_alive = false;
      } else {
        dispatch = true;
      }
    }

    std::string body;
    if (dispatch && body_len > 0) {
      // The pipelined buffer may already hold (part of) the body.
      bool aborted = false;
      while (buffer.size() < body_len && !aborted) {
        std::size_t n = 0;
        try {
          n = recv_some(conn, chunk, sizeof chunk);
        } catch (const IoError&) {
          n = 0;
        }
        if (n == 0) {
          aborted = true;  // peer died (or stop() half-closed us) mid-body
        } else {
          buffer.append(chunk, n);
        }
      }
      if (aborted) break;  // nothing sensible to answer; close quietly
      body = buffer.substr(0, body_len);
      buffer.erase(0, body_len);
    }

    if (dispatch) {
      bool stopping_now = false;
      {
        const MutexLock lock(queue_mu_);
        stopping_now = stopping_;
      }
      if (stopping_now) {
        // Shutdown ordering (ISSUE 7): requests read after stop() began are
        // refused — but refused *properly*, with a complete 503 body, never
        // a mid-stream close.
        response = error_response(503, "server is shutting down");
        keep_alive = false;
      } else {
        // Distributed-trace extraction (ISSUE 10): adopt the client's
        // context when a valid traceparent header arrived, otherwise
        // synthesise a per-request root so the request is traceable either
        // way.  The per-request sequence number salts both paths (branch
        // for adopted contexts, root seed for synthesised ones).
        const std::uint64_t seq =
            trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
        obs::TraceContext rctx;
        const std::string* tp = request.header(obs::kTraceparentHeader);
        if (tp != nullptr && !obs::parse_traceparent(*tp, &rctx)) {
          // The hostile-input log line: the value is attacker-controlled,
          // so it goes through the escaping kv() path, never raw.
          obs::log_debug("serve.request.bad_traceparent").kv("value", *tp);
        }
        if (!rctx.valid()) {
          rctx = obs::derive_root_context(seed_combine(options_.trace_seed, seq));
        }
        const auto t0 = std::chrono::steady_clock::now();
        {
          const obs::ScopedTraceContext trace_scope(rctx, seq);
          obs::Span request_span("serve.request");
          request_span.set_attr("method", request.method);
          request_span.set_attr("path", request.path);
          response = handle(request, body);
        }
        micros = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        if (request.wants_close()) keep_alive = false;
      }
    }

    {
      const MutexLock lock(queue_mu_);
      if (stopping_) keep_alive = false;
    }
    const std::string wire = serialize_response(response, keep_alive);
    try {
      send_all(conn, wire);
    } catch (const IoError&) {
      keep_alive = false;  // peer went away mid-response
    }
    // Recorded after the send so a /metrics body never counts itself.
    request_metrics().record(response.status, micros, wire.size());
  }

  {
    const MutexLock lock(active_mu_);
    active_fds_.erase(fd);
  }
}

void DatasetServer::set_route(std::string prefix, RouteHandler handler) {
  QDB_REQUIRE(!running_, "set_route must be called before start()");
  QDB_REQUIRE(!prefix.empty() && prefix.front() == '/' &&
                  (prefix.size() == 1 || prefix.back() != '/'),
              "route prefix must start with '/' and not end with one, got '"
                  << prefix << "'");
  for (auto& [p, h] : routes_) {
    if (p == prefix) {
      h = std::move(handler);
      return;
    }
  }
  routes_.emplace_back(std::move(prefix), std::move(handler));
}

const RouteHandler* DatasetServer::route_for(std::string_view path) const {
  for (const auto& [prefix, handler] : routes_) {
    if (path == prefix ||
        (path.size() > prefix.size() && starts_with(path, prefix) &&
         path[prefix.size()] == '/')) {
      return &handler;
    }
  }
  return nullptr;
}

HttpResponse DatasetServer::handle(const HttpRequest& request,
                                   const std::string& body) const {
  return respond([&] {
    // Mounted sub-APIs route first and do their own method validation.
    if (const RouteHandler* route = route_for(request.path)) {
      return (*route)(request, body);
    }
    // Only mounted routes take bodies.
    if (!body.empty()) bad_request("request bodies are not accepted");
    if (request.method != "GET") return method_not_allowed("GET");
    const std::string& path = request.path;
    if (path == "/healthz") {
      request_params(request, body, {});
      Json health = Json::object();
      health.set("status", "ok");
      health.set("entries", static_cast<std::int64_t>(store_.entries().size()));
      return json_response(200, health);
    }
    if (path == "/metrics") return handle_metrics(request);
    if (path == "/entries") return handle_entries(request);
    if (starts_with(path, "/entries/")) {
      const std::string_view rest = std::string_view(path).substr(9);
      const std::size_t slash = rest.find('/');
      if (slash == std::string_view::npos) {
        if (rest.empty()) not_found("missing pdb id");
        return handle_entry(request, rest);
      }
      return handle_artifact(request, rest.substr(0, slash), rest.substr(slash + 1));
    }
    not_found("no such resource: " + path);
  });
}

HttpResponse DatasetServer::handle_entries(const HttpRequest& request) const {
  const Params filter = request_params(request, {}, kEntriesFields);
  Json entries = Json::array();
  for (const store::EntryRecord& e : store_.entries()) {
    if (entry_matches(filter, e)) entries.push_back(entry_summary_json(e));
  }
  Json body = Json::object();
  body.set("count", static_cast<std::int64_t>(entries.as_array().size()));
  body.set("entries", std::move(entries));
  return json_response(200, body);
}

HttpResponse DatasetServer::handle_entry(const HttpRequest& request,
                                         std::string_view pdb_id) const {
  request_params(request, {}, {});
  return json_response(200, entry_summary_json(entry_named(store_, pdb_id)));
}

HttpResponse DatasetServer::handle_artifact(const HttpRequest& request,
                                            std::string_view pdb_id,
                                            std::string_view filename) const {
  request_params(request, {}, {});
  const store::EntryRecord& e = entry_named(store_, pdb_id);
  std::optional<store::Artifact> which;
  for (int i = 0; i < store::kArtifactCount; ++i) {
    const auto a = static_cast<store::Artifact>(i);
    if (filename == store::artifact_filename(a)) which = a;
  }
  if (!which) {
    not_found("unknown artifact '" + std::string(filename) +
              "' (try structure.pdb, metadata.json, docking.json)");
  }
  const store::ArtifactRef& ref = e.artifact(*which);
  const std::string etag = "\"" + ref.hash + "\"";

  HttpResponse resp;
  resp.extra_headers.emplace_back("ETag", etag);
  const std::string* inm = request.header("if-none-match");
  if (inm != nullptr && etag_matches(*inm, ref.hash)) {
    resp.status = 304;
    return resp;
  }
  resp.content_type = artifact_content_type(*which);
  resp.body = *store_.read_artifact(e, *which);
  return resp;
}

HttpResponse DatasetServer::handle_metrics(const HttpRequest& request) const {
  const Params params = request_params(request, {}, kMetricsFields);
  // Registers the serve.* families, so both formats carry them from the
  // first scrape on.
  const RequestMetrics& requests = request_metrics();
  if (params.get<std::string>("format") == "prometheus") {
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = obs::MetricRegistry::global().to_prometheus();
    return resp;
  }
  Json body = Json::object();
  body.set("requests", requests.to_json());

  const store::BlobCache& cache = store_.cache();
  Json cache_json = Json::object();
  cache_json.set("capacity", static_cast<std::int64_t>(cache.capacity()));
  cache_json.set("size", static_cast<std::int64_t>(cache.size()));
  cache_json.set("hits", static_cast<std::int64_t>(cache.hits()));
  cache_json.set("misses", static_cast<std::int64_t>(cache.misses()));
  cache_json.set("evictions", static_cast<std::int64_t>(cache.evictions()));
  cache_json.set("hit_rate", cache.hit_rate());
  body.set("blob_cache", std::move(cache_json));

  const store::StoreStats stats = store_.stats();
  Json store_json = Json::object();
  store_json.set("entries", static_cast<std::int64_t>(stats.entries));
  store_json.set("blobs", static_cast<std::int64_t>(stats.blobs));
  store_json.set("blob_bytes", static_cast<std::int64_t>(stats.blob_bytes));
  store_json.set("logical_bytes", static_cast<std::int64_t>(stats.logical_bytes));
  store_json.set("dedup_saved_bytes",
                 static_cast<std::int64_t>(stats.logical_bytes - stats.blob_bytes));
  body.set("store", std::move(store_json));

  // The process-wide registry (ISSUE 5): counters/gauges/histograms from
  // every layer, plus collector-sourced fault/contract counts.  Additive —
  // the historical sections above keep their exact shapes.
  body.set("registry", obs::MetricRegistry::global().to_json());
  return json_response(200, body);
}

}  // namespace qdb::serve
