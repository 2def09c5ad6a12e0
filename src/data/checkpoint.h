// Crash-consistent batch checkpoints (ISSUE 2).
//
// After every completed job the batch executor persists the partial
// BatchReport as JSON via write_file_atomic (tmp + fsync + rename), so a
// killed run can resume without repeating paid device time.  Two details
// make resumed reports *byte-identical* to uninterrupted ones:
//
//  * Exact doubles.  The JSON writer emits the shortest decimal that parses
//    back to the same bits, so every double reloads exactly as written.
//
//  * Options fingerprint.  The checkpoint is a durable record (common/json.h):
//    its header carries a fingerprint of every option that influences
//    per-job results (budgets, engine, retry policy, price, and the
//    fault-injector state).  Resuming with a different configuration, or
//    from a checkpoint of another layout version, throws qdb::IoError instead
//    of silently merging incompatible runs.
#pragma once

#include <cstdint>
#include <string>

#include "common/json.h"
#include "data/batch.h"

namespace qdb {

/// Fingerprint of everything that influences per-job outcomes, including
/// the global FaultInjector configuration (so a golden fault-replay run
/// refuses a checkpoint from a different fault schedule).
std::uint64_t batch_options_fingerprint(const BatchOptions& options);

/// Serialise one job record.  This is the unit of result exchange everywhere
/// a record crosses a process boundary: checkpoint files, the orchestrator
/// journal, and the /jobs/{id}/complete wire body (ISSUE 7) all embed exactly
/// this shape, so "byte-identical" means the same thing in all three places.
Json batch_job_record_json(const BatchJobRecord& record);

/// Inverse of batch_job_record_json; throws qdb::IoError (and the Json
/// accessors' qdb::Error) on malformed input.
BatchJobRecord batch_job_record_from_json(const Json& job);

/// Serialise a (partial) report.  queue clocks and totals are included for
/// human inspection but recomputed from per-job fields on load.
Json batch_checkpoint_json(const BatchReport& report, std::uint64_t fingerprint);

/// Parse a checkpoint document; throws qdb::IoError when its header is not a
/// current batch checkpoint with `fingerprint`, and the Json accessors'
/// qdb::Error on a malformed payload.
BatchReport batch_checkpoint_from_json(const Json& doc, std::uint64_t fingerprint);

/// Atomically persist `report` to `path` (tmp + fsync + rename).
void save_batch_checkpoint(const std::string& path, const BatchReport& report,
                           std::uint64_t fingerprint);

/// Load a checkpoint if `path` exists.  Returns false (and leaves *out
/// untouched) when the file is absent; throws qdb::IoError on unreadable or
/// corrupt files and on a kind, version or fingerprint mismatch.
bool load_batch_checkpoint(const std::string& path, std::uint64_t fingerprint,
                           BatchReport* out);

}  // namespace qdb
