#include "serve/trace_api.h"

#include <string>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/request.h"

namespace qdb::serve {

namespace {

/// A qdb_cli --trace dump: TraceSession::to_chrome_json ("process" only
/// when named) plus the summary, registry and prometheus keys.
constexpr Field kTraceFields[] = {
    {.key = "traceEvents", .type = FieldType::Array, .required = true},
    {.key = "displayTimeUnit", .type = FieldType::String},
    {.key = "process", .type = FieldType::Object},
    {.key = "summary", .type = FieldType::Array},
    {.key = "registry", .type = FieldType::Object},
    {.key = "prometheus", .type = FieldType::String},
};

constexpr Field kFlightFields[] = {
    {.key = "n", .type = FieldType::Int, .min = 1, .max = obs::kFlightCapacity},
};

HttpResponse handle_trace_ingest(const store::Store& store,
                                 const HttpRequest& request,
                                 const std::string& body) {
  if (request.path != "/trace") not_found("no such trace endpoint: " + request.path);
  if (request.method != "POST") return method_not_allowed("POST");
  const Params params = request_params(request, body, kTraceFields);
  // Store the exact bytes, not a re-serialisation: the hash a merge tool
  // fetches must match what the remote process wrote.
  Json resp = Json::object();
  resp.set("hash", store.put_blob(body));
  resp.set("events",
           static_cast<std::int64_t>(params.fields.at("traceEvents").as_array().size()));
  return json_response(200, resp);
}

HttpResponse handle_flight(const HttpRequest& request, const std::string& body) {
  // No /debug route takes a body: refused before routing, as on built-ins.
  if (!body.empty()) bad_request("request bodies are not accepted");
  if (request.path != "/debug/flight") not_found("no such debug endpoint: " + request.path);
  if (request.method != "GET") return method_not_allowed("GET");
  const Params params = request_params(request, body, kFlightFields);
  return json_response(200, obs::flight_snapshot_json(
                                params.get<std::size_t>("n").value_or(obs::kFlightCapacity)));
}

}  // namespace

void attach_trace_api(DatasetServer& server, const store::Store& store) {
  server.set_route("/trace", [&store](const HttpRequest& request,
                                      const std::string& body) {
    static obs::Counter& ingests = obs::counter("serve.trace.ingests");
    static obs::Counter& rejected = obs::counter("serve.trace.rejected");
    QDB_SPAN("serve.trace.ingest");
    const HttpResponse resp =
        respond([&] { return handle_trace_ingest(store, request, body); });
    (resp.status == 200 ? ingests : rejected).add();
    return resp;
  });
  server.set_route("/debug", handle_flight);
}

}  // namespace qdb::serve
