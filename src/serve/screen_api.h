// "/screen" endpoint: virtual screening over the dataset server (ISSUE 9).
//
// attach_screen_api() mounts POST /screen on a serve::DatasetServer.  The
// request body selects a receptor entry from the store and the screening
// options; the response is the ranked-hit report of the two-stage funnel
// (screen/funnel.h) as JSON.  The body is checked as serve/request.h
// specifies; an omitted option keeps its default, capped like a sent one.
//
// Receptor grids are the expensive part, so the service memoizes one
// PreparedReceptor per (pdb_id, grid-shaping options) behind an annotated
// mutex and shares it read-only across requests.  Every built grid is also
// ingested into the content-addressed store (byte-stable serialization →
// same grid, same blob, dedup across restarts) and the response carries its
// hash; pass "ingest": true to also ingest the ranked-hit report itself and
// get its blob hash back — the byte-identity CI gate compares that hash
// across thread counts.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/annotations.h"
#include "common/sync.h"
#include "screen/funnel.h"
#include "serve/server.h"
#include "store/store.h"

namespace qdb::serve {

struct ScreenServiceOptions {
  int threads = 0;                      ///< executor width per request (0 = all)
  std::uint64_t max_library_size = 4096; ///< request cap (cost bound)
  int max_top_k = 256;
  int max_poses_per_ligand = 128;
  int max_poses_rescored = 16;
};

class ScreenService {
 public:
  explicit ScreenService(const store::Store& store, ScreenServiceOptions options = {});

  /// Handle one /screen request (thread-safe; the server calls this from
  /// its worker pool).
  HttpResponse handle(const HttpRequest& request, const std::string& body);

 private:
  HttpResponse screen(const HttpRequest& request, const std::string& body);
  std::shared_ptr<const screen::PreparedReceptor> prepared_for(
      const store::EntryRecord& entry, const screen::ScreenOptions& options,
      std::string* grid_hash) QDB_EXCLUDES(mu_);

  const store::Store& store_;
  ScreenServiceOptions options_;

  struct CacheEntry {
    std::shared_ptr<const screen::PreparedReceptor> prepared;
    std::string grid_hash;
  };
  mutable Mutex mu_;
  std::map<std::string, CacheEntry> cache_ QDB_GUARDED_BY(mu_);
};

/// Mount the service on "/screen".  The service must outlive the server.
void attach_screen_api(DatasetServer& server, ScreenService& service);

}  // namespace qdb::serve
