#include "orchestrate/api.h"

#include <string>
#include <string_view>

#include "common/error.h"
#include "data/checkpoint.h"
#include "obs/trace.h"
#include "serve/request.h"

namespace qdb::orchestrate {

namespace {

const char* lease_state_name(LeaseGrant::State s) {
  switch (s) {
    case LeaseGrant::State::Granted: return "granted";
    case LeaseGrant::State::Wait: return "wait";
    case LeaseGrant::State::Drained: return "drained";
  }
  return "wait";
}

LeaseGrant::State lease_state_from_name(std::string_view name) {
  if (name == "granted") return LeaseGrant::State::Granted;
  if (name == "wait") return LeaseGrant::State::Wait;
  if (name == "drained") return LeaseGrant::State::Drained;
  throw ParseError("unknown lease state '" + std::string(name) + "'");
}

}  // namespace

Json lease_grant_json(const LeaseGrant& grant) {
  Json doc = Json::object();
  doc.set("state", lease_state_name(grant.state));
  doc.set("lease_ttl_ms", static_cast<std::int64_t>(grant.lease_ttl_ms));
  doc.set("options_fingerprint",
          static_cast<std::int64_t>(grant.options_fingerprint));
  switch (grant.state) {
    case LeaseGrant::State::Granted:
      doc.set("pdb_id", grant.pdb_id);
      doc.set("lease_token", static_cast<std::int64_t>(grant.lease_token));
      doc.set("attempt", grant.attempt);
      doc.set("deadline_ms", static_cast<std::int64_t>(grant.deadline_ms));
      // ISSUE 10: the lease span's context rides the grant so remote job
      // spans can parent to it.  Keyed by the canonical header name.
      if (!grant.traceparent.empty()) {
        doc.set(std::string(obs::kTraceparentHeader), grant.traceparent);
      }
      break;
    case LeaseGrant::State::Wait:
      doc.set("retry_after_ms", static_cast<std::int64_t>(grant.retry_after_ms));
      break;
    case LeaseGrant::State::Drained:
      break;
  }
  return doc;
}

LeaseGrant lease_grant_from_json(const Json& doc) {
  LeaseGrant grant;
  grant.state = lease_state_from_name(doc.at("state").as_string());
  grant.lease_ttl_ms = static_cast<std::uint64_t>(doc.at("lease_ttl_ms").as_int());
  grant.options_fingerprint =
      static_cast<std::uint64_t>(doc.at("options_fingerprint").as_int());
  switch (grant.state) {
    case LeaseGrant::State::Granted:
      grant.pdb_id = doc.at("pdb_id").as_string();
      grant.lease_token = static_cast<std::uint64_t>(doc.at("lease_token").as_int());
      grant.attempt = static_cast<int>(doc.at("attempt").as_int());
      grant.deadline_ms = static_cast<std::uint64_t>(doc.at("deadline_ms").as_int());
      if (doc.contains(obs::kTraceparentHeader)) {
        grant.traceparent = doc.at(obs::kTraceparentHeader).as_string();
      }
      break;
    case LeaseGrant::State::Wait:
      grant.retry_after_ms =
          static_cast<std::uint64_t>(doc.at("retry_after_ms").as_int());
      break;
    case LeaseGrant::State::Drained:
      break;
  }
  return grant;
}

Json heartbeat_result_json(const HeartbeatResult& result) {
  Json doc = Json::object();
  doc.set("ok", result.ok);
  if (result.ok) {
    doc.set("deadline_ms", static_cast<std::int64_t>(result.deadline_ms));
  } else {
    doc.set("error", result.reason);
  }
  return doc;
}

Json complete_result_json(const CompleteResult& result) {
  Json doc = Json::object();
  doc.set("accepted", result.accepted);
  doc.set("duplicate", result.duplicate);
  doc.set("stale_lease", result.stale_lease);
  doc.set("result_hash", result.result_hash);
  return doc;
}

CompleteResult complete_result_from_json(const Json& doc) {
  CompleteResult result;
  result.accepted = doc.at("accepted").as_bool();
  result.duplicate = doc.at("duplicate").as_bool();
  result.stale_lease = doc.at("stale_lease").as_bool();
  result.result_hash = doc.at("result_hash").as_string();
  return result;
}

namespace {

using serve::Field;
using serve::FieldType;

/// The /jobs body fields: lease takes the first, heartbeat the first two,
/// complete all three.
constexpr Field kJobFields[] = {
    {.key = "worker", .type = FieldType::String, .required = true},
    {.key = "lease_token", .type = FieldType::Int, .required = true},
    {.key = "record", .type = FieldType::Object, .required = true},
};

serve::HttpResponse route_job(Coordinator& coordinator, const serve::HttpRequest& request,
                              const std::string& body) {
  const std::string_view path = request.path;
  if (path == "/jobs/status") {
    if (request.method != "GET") return serve::method_not_allowed("GET");
    serve::request_params(request, body, {});
    return serve::json_response(200, coordinator.status_json());
  }
  if (path == "/jobs/lease") {
    if (request.method != "POST") return serve::method_not_allowed("POST");
    const serve::Params params =
        serve::request_params(request, body, serve::Fields(kJobFields).first(1));
    return serve::json_response(
        200, lease_grant_json(coordinator.lease(*params.get<std::string>("worker"))));
  }
  // /jobs/{pdb_id}/heartbeat | /jobs/{pdb_id}/complete
  const std::size_t slash = path.find('/', 6);
  const std::string_view action =
      slash == std::string_view::npos ? std::string_view() : path.substr(slash + 1);
  if (slash == 6 || (action != "heartbeat" && action != "complete")) {
    serve::not_found("no such job endpoint: " + std::string(path));
  }
  if (request.method != "POST") return serve::method_not_allowed("POST");
  const std::string pdb_id(path.substr(6, slash - 6));
  if (!coordinator.has_job(pdb_id)) serve::not_found("unknown job '" + pdb_id + "'");
  const bool heartbeat = action == "heartbeat";
  const serve::Params params =
      serve::request_params(request, body, serve::Fields(kJobFields).first(heartbeat ? 2 : 3));
  const auto token = *params.get<std::uint64_t>("lease_token");
  if (heartbeat) {
    const HeartbeatResult result = coordinator.heartbeat(pdb_id, token);
    return serve::json_response(result.ok ? 200 : 409, heartbeat_result_json(result));
  }
  const BatchJobRecord record = serve::decode_request(
      [&] { return batch_job_record_from_json(params.fields.at("record")); });
  if (record.pdb_id != pdb_id) {
    serve::bad_request("record is for '" + record.pdb_id + "', endpoint names '" + pdb_id + "'");
  }
  return serve::json_response(
      200, complete_result_json(coordinator.complete(pdb_id, token, record)));
}

}  // namespace

void attach_job_api(serve::DatasetServer& server, Coordinator& coordinator) {
  server.set_route("/jobs", [&coordinator](const serve::HttpRequest& request,
                                           const std::string& body) {
    return route_job(coordinator, request, body);
  });
}

}  // namespace qdb::orchestrate
