// Trace ingest + flight-recorder endpoints (ISSUE 10).
//
// Mounted on the dataset server by qdb_cli serve / coordinate:
//
//   POST /trace         — ingest one process's Chrome-trace dump into the
//                         content-addressed store.  Body must be a JSON
//                         object with a "traceEvents" array and only the
//                         other keys of a qdb_cli --trace dump besides (see
//                         kTraceFields in trace_api.cpp); stored verbatim
//                         via Store::put_blob, so identical dumps dedup and
//                         the response {"hash", "events"} names the blob a
//                         later qdb_trace_check run can pull.
//   GET /debug/flight   — dump this process's flight-recorder ring as JSON
//                         (see obs/flight.h for the schema).  Accepts only
//                         `n` (1..256, the max records to return); any
//                         other parameter, or a malformed n, is a strict
//                         400 like every other endpoint.
//
// Both endpoints follow the request contract of serve/request.h.
#pragma once

#include "serve/server.h"
#include "store/store.h"

namespace qdb::serve {

/// Mount POST /trace and GET /debug/flight.  The store must outlive the
/// server; call before start().
void attach_trace_api(DatasetServer& server, const store::Store& store);

}  // namespace qdb::serve
