// The embedded QDockBank dataset query server (ISSUE 4).
//
// A dependency-free, blocking HTTP/1.1 server over a content-addressed
// store (src/store/).  One acceptor thread feeds accepted connections into
// a bounded queue drained by a plain std::thread worker pool — the
// common/parallel.h style of fan-out (explicit threads, no runtime), so the
// whole request path is visible to ThreadSanitizer.
//
// Endpoints (all GET, all bodies built with common/json.h):
//
//   /healthz                          liveness + entry count
//   /metrics                          request counters, power-of-two latency
//                                     histogram, blob-cache hit rate, store
//                                     stats
//   /entries                          entry summaries; filters: group=S|M|L,
//                                     length=, min_length=, max_length=,
//                                     qubits=, min_qubits=, max_qubits=,
//                                     min_rmsd=, max_rmsd=, min_affinity=,
//                                     max_affinity=
//   /entries/{pdb_id}                 one entry summary (404 when unknown)
//   /entries/{pdb_id}/structure.pdb   artifact bytes; ETag = content hash,
//   /entries/{pdb_id}/metadata.json   If-None-Match → 304 (no body)
//   /entries/{pdb_id}/docking.json
//
// Responses are deterministic functions of the store (entries are served in
// index order, blobs verbatim), which is what lets the concurrent-load
// golden test demand byte-identical bodies across thread counts.
//
// Sub-APIs (ISSUE 7): set_route() mounts a prefix handler (the orchestrator
// job API mounts "/jobs") that routes ahead of the built-ins and may accept
// POSTed JSON bodies up to max_body_bytes; paths without a mounted handler
// still reject bodies outright.
//
// Shutdown is cooperative and clean: stop() shuts the listener down, wakes
// the workers, and read-half-closes every in-flight connection — blocked
// reads wake immediately, but a response already being produced or written
// is always delivered in full (never cut mid-body; the ISSUE 7 regression
// test holds a lease exchange across stop() to prove it).  Requests read
// after stop() began get a 503 instead of dispatch.  stop() joins all
// threads, is idempotent, and also runs from the destructor.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/sync.h"
#include "serve/http.h"
#include "serve/net_socket.h"
#include "store/store.h"

namespace qdb::serve {

struct ServeOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned; read back via port()
  int threads = 4;         ///< worker pool size (>= 1)
  std::size_t max_header_bytes = 64 * 1024;  ///< request head cap (431 above)
  std::size_t max_body_bytes = 256 * 1024;   ///< request body cap (413 above)
  std::size_t max_queued_connections = 256;  ///< accept backpressure bound
  /// Seed for the trace roots synthesised for requests that arrive without
  /// a (valid) traceparent header — mixed with a per-request sequence
  /// number, so every un-traced request still roots its own reproducible
  /// trace (ISSUE 10).
  std::uint64_t trace_seed = 0x71db5e71db5e71dbULL;
};

/// A mounted sub-API handler (ISSUE 7): receives the parsed request plus the
/// raw body bytes and produces the full response, including its own method
/// and parameter validation; what it throws is answered by the status rule
/// of serve/request.h.  Must be thread-safe — the worker pool calls it
/// concurrently.
using RouteHandler =
    std::function<HttpResponse(const HttpRequest& request, const std::string& body)>;

class DatasetServer {
 public:
  /// The store must outlive the server and is treated as immutable while
  /// serving (ingest before start()).
  DatasetServer(const store::Store& store, ServeOptions options);
  ~DatasetServer();

  DatasetServer(const DatasetServer&) = delete;
  DatasetServer& operator=(const DatasetServer&) = delete;

  /// Bind, listen, and launch the acceptor + worker threads.  Throws
  /// qdb::IoError (e.g. port in use).
  void start() QDB_EXCLUDES(queue_mu_);

  /// Drain and join everything; idempotent.
  void stop() QDB_EXCLUDES(queue_mu_, active_mu_);

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Actual bound port (after start()).
  std::uint16_t port() const { return port_; }

  /// Mount a handler under `prefix` (e.g. "/jobs"): requests whose path is
  /// the prefix or starts with prefix + "/" route to it, before the built-in
  /// dataset endpoints, and are the only requests allowed to carry bodies.
  /// Call before start(); later registrations of the same prefix replace
  /// earlier ones.
  void set_route(std::string prefix, RouteHandler handler);

  /// Pure request → response routing, mounted sub-APIs and the request body
  /// included; exposed so tests can drive the router without a socket in the
  /// loop.  Thread-safe.  Never throws: respond() (serve/request.h) answers
  /// every exception.
  HttpResponse handle(const HttpRequest& request, const std::string& body = {}) const;

 private:
  const RouteHandler* route_for(std::string_view path) const;
  void accept_loop() QDB_EXCLUDES(queue_mu_);
  void worker_loop() QDB_EXCLUDES(queue_mu_);
  void serve_connection(Socket conn) QDB_EXCLUDES(queue_mu_, active_mu_);

  HttpResponse handle_entries(const HttpRequest& request) const;
  HttpResponse handle_entry(const HttpRequest& request,
                            std::string_view pdb_id) const;
  HttpResponse handle_artifact(const HttpRequest& request, std::string_view pdb_id,
                               std::string_view filename) const;
  HttpResponse handle_metrics(const HttpRequest& request) const;

  const store::Store& store_;
  ServeOptions options_;
  std::vector<std::pair<std::string, RouteHandler>> routes_;

  Socket listener_;
  std::uint16_t port_ = 0;
  // Written by start()/stop() (one controlling thread), read by running()
  // from anywhere — atomic so a monitoring thread's poll is race-free.
  std::atomic<bool> running_{false};

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  // Connection handoff queue (acceptor -> workers).  queue_mu_ guards the
  // queue and the stopping_ flag; queue_cv_ signals both "queue no longer
  // full" (acceptor waits) and "queue non-empty or stopping" (workers wait).
  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<Socket> queue_ QDB_GUARDED_BY(queue_mu_);
  bool stopping_ QDB_GUARDED_BY(queue_mu_) = false;

  // In-flight connection fds, so stop() can unblock blocked reads.
  Mutex active_mu_;
  std::unordered_set<int> active_fds_ QDB_GUARDED_BY(active_mu_);

  // Per-request sequence: the branch salt for extracted trace contexts
  // (two requests carrying the same remote context must not derive
  // colliding child span ids) and the root-seed discriminator for
  // synthesised ones.
  std::atomic<std::uint64_t> trace_seq_{0};
};

}  // namespace qdb::serve
