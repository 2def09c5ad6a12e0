#include "orchestrate/worker.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "common/annotations.h"
#include "common/check.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/sync.h"
#include "data/checkpoint.h"
#include "data/registry.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "orchestrate/api.h"
#include "serve/client.h"

namespace qdb::orchestrate {

namespace {

/// Backoff schedule in ms for the (attempt-1)-th retry, exponential + capped.
std::uint64_t backoff_ms(const WorkerOptions& opts, int retry_index) {
  double wait = static_cast<double>(opts.backoff_initial_ms);
  for (int i = 0; i < retry_index; ++i) {
    wait *= opts.backoff_multiplier;
    if (wait >= static_cast<double>(opts.backoff_max_ms)) {
      return opts.backoff_max_ms;
    }
  }
  return std::min(static_cast<std::uint64_t>(wait), opts.backoff_max_ms);
}

/// POST with bounded retry on transport errors, backing off on the
/// injectable clock.  Throws IoError once the budget is exhausted; protocol
/// errors (non-2xx) are returned to the caller, not retried.
serve::HttpClientResponse post_with_retry(serve::HttpClient& client,
                                          const WorkerOptions& opts,
                                          Clock& clock,
                                          const std::string& target,
                                          const std::string& body) {
  for (int attempt = 1;; ++attempt) {
    try {
      return client.post(target, body);
    } catch (const IoError& ex) {
      if (attempt >= opts.max_request_attempts) throw;
      obs::counter("orchestrate.worker.request_retries").add();
      obs::log_warn("orchestrate.worker.retry")
          .kv("worker", opts.worker_id)
          .kv("target", target)
          .kv("attempt", attempt)
          .kv("error", ex.what());
      clock.sleep_ms(backoff_ms(opts, attempt - 1));
      client.close();
    }
  }
}

/// Background lease keep-alive: POST a heartbeat every interval until
/// stopped.  Uses its own connection (HttpClient is not thread-safe).  A
/// rejected heartbeat (409: the lease expired or was reassigned) stops the
/// pump — the worker finishes anyway and relies on the coordinator's
/// stale-completion acceptance.
class HeartbeatPump {
 public:
  HeartbeatPump(const WorkerOptions& opts, std::string pdb_id,
                std::uint64_t token, std::uint64_t interval_ms,
                obs::TraceContext lease_ctx)
      : opts_(opts), pdb_id_(std::move(pdb_id)), token_(token),
        interval_ms_(interval_ms), lease_ctx_(lease_ctx) {
    thread_ = std::thread([this] { run(); });
  }

  ~HeartbeatPump() { stop(); }

  void stop() QDB_EXCLUDES(mu_) {
    {
      const MutexLock lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void run() {
    // Heartbeats belong to the lease's trace: the context rides along so
    // the server-side handler spans (and this thread's log lines) join it.
    const obs::ScopedTraceContext trace_scope(lease_ctx_);
    static obs::Counter& hb_sent = obs::counter("orchestrate.heartbeat.sent");
    static obs::Counter& hb_failed = obs::counter("orchestrate.heartbeat.failed");
    serve::HttpClient client(opts_.host, opts_.port);
    Json body = Json::object();
    body.set("worker", opts_.worker_id);
    body.set("lease_token", static_cast<std::int64_t>(token_));
    const std::string payload = body.dump();
    for (;;) {
      {
        const MutexLock lock(mu_);
        // Real-time wait (not the injectable clock): the pump's only job is
        // to outpace a real TTL; deterministic tests run without pumps.
        cv_.wait_for_ms(mu_, interval_ms_,
                        [this]() QDB_REQUIRES(mu_) { return stopped_; });
        if (stopped_) return;
      }
      try {
        obs::Span span("orchestrate.heartbeat");
        const serve::HttpClientResponse resp =
            client.post("/jobs/" + pdb_id_ + "/heartbeat", payload);
        if (resp.status != 200) {
          hb_failed.add();
          return;  // lease gone; completion will say so
        }
        hb_sent.add();
        obs::counter("orchestrate.worker.heartbeats_sent").add();
      } catch (const IoError&) {
        hb_failed.add();
        return;  // coordinator unreachable; the main loop handles it
      }
    }
  }

  const WorkerOptions& opts_;
  std::string pdb_id_;
  std::uint64_t token_ = 0;
  std::uint64_t interval_ms_ = 0;
  obs::TraceContext lease_ctx_;
  Mutex mu_;
  CondVar cv_;
  bool stopped_ QDB_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace

WorkerStats run_worker(const WorkerOptions& options) {
  Clock& clock = options.clock != nullptr ? *options.clock : steady_clock();
  serve::HttpClient client(options.host, options.port);
  WorkerStats stats;

  // Eager registration: heartbeat health must be scrapeable from /metrics
  // even before the first heartbeat fires (or when heartbeats are off).
  obs::counter("orchestrate.heartbeat.sent");
  obs::counter("orchestrate.heartbeat.failed");

  const std::uint64_t fingerprint = batch_options_fingerprint(options.batch);

  Json lease_body = Json::object();
  lease_body.set("worker", options.worker_id);
  const std::string lease_payload = lease_body.dump();

  obs::log_info("orchestrate.worker.start")
      .kv("worker", options.worker_id)
      .kv("coordinator", options.host + ":" + std::to_string(options.port));

  for (;;) {
    LeaseGrant grant;
    try {
      const serve::HttpClientResponse resp =
          post_with_retry(client, options, clock, "/jobs/lease", lease_payload);
      if (resp.status == 503) {
        // stop() delivers complete 503 responses to in-flight requests
        // rather than resetting them (and the client's stale-connection
        // retry can reconnect straight into one): a shutting-down control
        // plane is the same terminal condition as an unreachable one.
        throw IoError("coordinator shutting down: HTTP 503");
      }
      if (resp.status != 200) {
        throw Error("lease rejected: HTTP " + std::to_string(resp.status) +
                    " " + resp.body);
      }
      grant = lease_grant_from_json(Json::parse(resp.body));
    } catch (const IoError& ex) {
      obs::log_warn("orchestrate.worker.aborted")
          .kv("worker", options.worker_id)
          .kv("error", ex.what());
      stats.aborted_io = true;
      return stats;
    }

    if (grant.state == LeaseGrant::State::Drained) break;
    if (grant.state == LeaseGrant::State::Wait) {
      clock.sleep_ms(options.poll_interval_ms != 0 ? options.poll_interval_ms
                                                   : grant.retry_after_ms);
      continue;
    }

    ++stats.leases_received;
    if (grant.options_fingerprint != fingerprint) {
      throw Error("worker batch options disagree with the coordinator "
                  "(fingerprint mismatch) — results would not be "
                  "byte-identical; refusing to work");
    }

    // The coordinator's lease span context: everything this lease causes —
    // the job span, heartbeats, the completion POST — runs under it, so the
    // joined multi-process trace parents the worker's spans to the
    // coordinator's lease.  A grant without a (parseable) traceparent leaves
    // the context invalid, and the scopes below install nothing — spans then
    // fall back to the worker's own root.
    obs::TraceContext lease_ctx;
    if (!grant.traceparent.empty() &&
        !obs::parse_traceparent(grant.traceparent, &lease_ctx)) {
      obs::log_warn("orchestrate.worker.bad_traceparent")
          .kv("worker", options.worker_id)
          .kv("value", grant.traceparent);
    }

    // One fault stream per (job, lease attempt): deterministic in the
    // injector seed regardless of which worker thread drew the lease.
    FaultScope fault_scope(grant.pdb_id, grant.attempt);

    try {
      // Models the grant response lost on the wire: the coordinator thinks
      // the job is leased, nobody works on it, and only lease expiry
      // recovers it — the reassignment path the chaos gate must exercise.
      fault_site("orchestrate.lease.drop");
    } catch (const std::exception&) {
      ++stats.leases_dropped;
      obs::counter("orchestrate.worker.leases_dropped").add();
      continue;
    }

    // Throws qdb::Error if the coordinator leased an id outside the dataset
    // registry — a protocol violation, not a retryable condition.
    const DatasetEntry& entry = entry_by_id(grant.pdb_id);

    const std::uint64_t hb_interval =
        options.heartbeat_interval_ms != 0 ? options.heartbeat_interval_ms
                                           : std::max<std::uint64_t>(
                                                 grant.lease_ttl_ms / 3, 1);
    std::unique_ptr<HeartbeatPump> pump;
    if (options.heartbeats) {
      pump = std::make_unique<HeartbeatPump>(options, grant.pdb_id,
                                             grant.lease_token, hb_interval,
                                             lease_ctx);
    }

    BatchJobRecord record;
    try {
      const obs::ScopedTraceContext trace_scope(lease_ctx);
      obs::Span span("orchestrate.job");
      span.set_attr("pdb_id", grant.pdb_id);
      span.set_attr("worker", options.worker_id);
      span.set_attr("lease_attempt", std::to_string(grant.attempt));
      // Worker death, modelled at both edges of the execution: before (the
      // job dies with the worker, nothing to show) and after (the worker
      // dies holding a finished record it never posts).  Either way the
      // lease expires and a replacement re-executes byte-identically.
      fault_site("orchestrate.worker.crash");
      record = run_batch_job(entry, options.batch);
      fault_site("orchestrate.worker.crash");
    } catch (const std::exception& ex) {
      pump.reset();  // stop heartbeating: the "dead" worker must let the lease lapse
      ++stats.crashes;
      obs::counter("orchestrate.worker.crashes").add();
      obs::log_warn("orchestrate.worker.crashed")
          .kv("worker", options.worker_id)
          .kv("job", grant.pdb_id)
          .kv("error", ex.what());
      continue;
    }
    pump.reset();
    ++stats.jobs_executed;
    obs::counter("orchestrate.worker.jobs_executed").add();

    Json complete_body = Json::object();
    complete_body.set("worker", options.worker_id);
    complete_body.set("lease_token", static_cast<std::int64_t>(grant.lease_token));
    complete_body.set("record", batch_job_record_json(record));
    const std::string complete_payload = complete_body.dump();
    const std::string complete_target = "/jobs/" + grant.pdb_id + "/complete";

    bool acked = false;
    // The completion exchange stays inside the lease's trace too, so the
    // coordinator's /jobs/{id}/complete handler span parents to the lease.
    const obs::ScopedTraceContext complete_scope(lease_ctx);
    for (int attempt = 1; attempt <= options.max_request_attempts; ++attempt) {
      try {
        const serve::HttpClientResponse resp =
            post_with_retry(client, options, clock, complete_target,
                            complete_payload);
        if (resp.status >= 500) {
          // A 5xx is the coordinator failing, not a protocol rejection: a
          // shutdown 503, or a 500 that left the job leased.  The IoError
          // handler below backs off and retries; if it keeps failing, the
          // completion is abandoned and the lease expires.
          throw IoError("coordinator failed: HTTP " + std::to_string(resp.status));
        }
        if (resp.status != 200) {
          throw Error("completion rejected: HTTP " +
                      std::to_string(resp.status) + " " + resp.body);
        }
        const CompleteResult result =
            complete_result_from_json(Json::parse(resp.body));
        // The ack lost *after* the server committed the completion: the
        // worker must retry, and the retry exercises the coordinator's
        // duplicate / first-writer-wins path.
        fault_site("orchestrate.complete.io");
        if (result.duplicate) {
          ++stats.duplicate_acks;
        } else {
          ++stats.completions_accepted;
        }
        acked = true;
        break;
      } catch (const IoError&) {
        clock.sleep_ms(backoff_ms(options, attempt - 1));
        client.close();
      } catch (const Error& ex) {
        if (!is_retryable_fault(ex)) throw;
        clock.sleep_ms(backoff_ms(options, attempt - 1));
      }
    }
    if (!acked) {
      // Every ack was lost after a commit (a replacement would be a
      // duplicate), or the coordinator kept failing and the lease expires.
      ++stats.completions_abandoned;
      obs::counter("orchestrate.worker.completions_abandoned").add();
    }
  }

  obs::log_info("orchestrate.worker.done")
      .kv("worker", options.worker_id)
      .kv("leases", stats.leases_received)
      .kv("executed", stats.jobs_executed)
      .kv("accepted", stats.completions_accepted)
      .kv("crashes", stats.crashes);
  return stats;
}

}  // namespace qdb::orchestrate
