// The orchestrator job API over the dataset server (ISSUE 7).
//
// attach_job_api() mounts "/jobs" on a serve::DatasetServer, translating
// HTTP+JSON to Coordinator calls:
//
//   POST /jobs/lease                {"worker": id}
//     200 {"state":"granted", "pdb_id", "lease_token", "attempt",
//          "deadline_ms", "lease_ttl_ms", "options_fingerprint"}
//     200 {"state":"wait", "retry_after_ms", ...}
//     200 {"state":"drained", ...}
//   POST /jobs/{pdb_id}/heartbeat   {"worker": id, "lease_token": t}
//     200 {"ok":true, "deadline_ms"}   409 {"error": reason} on a stale token
//   POST /jobs/{pdb_id}/complete    {"worker": id, "lease_token": t,
//                                    "record": <batch_job_record_json>}
//     200 {"accepted", "duplicate", "stale_lease", "result_hash"}
//   GET  /jobs/status
//     200 <Coordinator::status_json()>
//
// Statuses follow serve/request.h; a failed store write is a 500 that leaves
// the job leased.  The serialization helpers are exposed so the wire format
// round-trips under test without a socket.
#pragma once

#include "common/json.h"
#include "orchestrate/coordinator.h"
#include "serve/server.h"

namespace qdb::orchestrate {

/// Mount the job API under /jobs.  The coordinator must outlive the server.
/// Call before server.start().
void attach_job_api(serve::DatasetServer& server, Coordinator& coordinator);

// --- wire format (symmetric helpers; worker.cpp and tests use both sides) ---

Json lease_grant_json(const LeaseGrant& grant);
LeaseGrant lease_grant_from_json(const Json& doc);

Json heartbeat_result_json(const HeartbeatResult& result);
Json complete_result_json(const CompleteResult& result);
CompleteResult complete_result_from_json(const Json& doc);

}  // namespace qdb::orchestrate
