#include "serve/screen_api.h"

#include <algorithm>
#include <string>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/request.h"
#include "structure/pdb.h"

namespace qdb::serve {

ScreenService::ScreenService(const store::Store& store, ScreenServiceOptions options)
    : store_(store), options_(options) {}

std::shared_ptr<const screen::PreparedReceptor> ScreenService::prepared_for(
    const store::EntryRecord& entry, const screen::ScreenOptions& options,
    std::string* grid_hash) {
  static obs::Counter& grids_built = obs::counter("screen.api.grids_built");
  static obs::Counter& cache_hits = obs::counter("screen.api.grid_cache_hits");

  // Cache key: receptor + everything that shapes the grid bytes.
  const std::string key =
      entry.pdb_id + format("|%.17g|%.17g", options.grid_spacing, options.grid_padding);
  {
    const MutexLock lock(mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      cache_hits.add();
      *grid_hash = it->second.grid_hash;
      return it->second.prepared;
    }
  }

  // Build outside the lock: grids take real time and requests for other
  // receptors must not queue behind the build.  A racing duplicate build is
  // harmless — both produce identical bytes and put_blob dedups.
  const std::shared_ptr<const std::string> pdb =
      store_.read_artifact(entry, store::Artifact::Structure);
  const Structure receptor = parse_pdb(*pdb);
  auto prepared = std::make_shared<const screen::PreparedReceptor>(
      screen::prepare_receptor(receptor, options));
  const std::string hash = store_.put_blob(prepared->grid.serialize());
  grids_built.add();

  const MutexLock lock(mu_);
  auto [it, inserted] = cache_.emplace(key, CacheEntry{prepared, hash});
  if (!inserted) {
    // Lost the race: keep the first writer, drop ours (identical anyway).
    prepared = it->second.prepared;
  }
  *grid_hash = it->second.grid_hash;
  return prepared;
}

HttpResponse ScreenService::handle(const HttpRequest& request,
                                   const std::string& body) {
  static obs::Counter& requests = obs::counter("screen.api.requests");
  static obs::Counter& rejected = obs::counter("screen.api.rejected");
  QDB_SPAN("screen.api.request");
  requests.add();
  HttpResponse resp = respond([&] { return screen(request, body); });
  if (resp.status >= 400) rejected.add();
  return resp;
}

HttpResponse ScreenService::screen(const HttpRequest& request, const std::string& body) {
  static obs::Counter& ingests = obs::counter("screen.api.report_ingests");
  if (request.path != "/screen") not_found("no such screen endpoint: " + request.path);
  if (request.method != "POST") return method_not_allowed("POST");
  const auto count = [](std::string_view key, double cap) {
    return Field{.key = key, .type = FieldType::Int, .min = 1, .max = cap};
  };
  const Field fields[] = {
      {.key = "pdb_id", .type = FieldType::String, .required = true},
      {.key = "library_seed", .type = FieldType::Int, .min = 0, .max = 0x1p62},
      count("library_size", static_cast<double>(options_.max_library_size)),
      count("top_k", options_.max_top_k),
      {.key = "stage1_keep", .type = FieldType::Number, .min = 0, .max = 1, .min_open = true},
      count("poses_per_ligand", options_.max_poses_per_ligand),
      count("poses_rescored", options_.max_poses_rescored),
      {.key = "ingest", .type = FieldType::Bool},
  };
  const Params params = request_params(request, body, fields);
  const std::string pdb_id = *params.get<std::string>("pdb_id");
  const store::EntryRecord* entry = store_.find(pdb_id);
  if (entry == nullptr) not_found("no entry '" + pdb_id + "' in the store");

  // An omitted option keeps its ScreenOptions default, capped like a sent one.
  screen::ScreenOptions opt;
  opt.library.seed = params.get<std::uint64_t>("library_seed").value_or(opt.library.seed);
  opt.library.size = params.get<std::uint64_t>("library_size")
                         .value_or(std::min(opt.library.size, options_.max_library_size));
  opt.top_k = params.get<int>("top_k").value_or(std::min(opt.top_k, options_.max_top_k));
  opt.stage1_keep = params.get<double>("stage1_keep").value_or(opt.stage1_keep);
  opt.poses_per_ligand = params.get<int>("poses_per_ligand")
                             .value_or(std::min(opt.poses_per_ligand,
                                                options_.max_poses_per_ligand));
  opt.poses_rescored = params.get<int>("poses_rescored")
                           .value_or(std::min(opt.poses_rescored, options_.max_poses_rescored));
  opt.threads = options_.threads;

  std::string grid_hash;
  const std::shared_ptr<const screen::PreparedReceptor> prepared =
      prepared_for(*entry, opt, &grid_hash);
  const screen::ScreenReport report = run_screen(*prepared, pdb_id, opt);
  const std::string report_bytes = screen::serialize_report(report);

  // The response IS the canonical report (parse of its exact bytes), plus
  // the serving metadata — so what a client sees and what the store dedups
  // are provably the same document.
  Json resp = Json::parse(report_bytes);
  resp.set("grid_hash", grid_hash);
  if (params.get<bool>("ingest").value_or(false)) {
    resp.set("report_hash", store_.put_blob(report_bytes));
    ingests.add();
  }
  return json_response(200, resp);
}

void attach_screen_api(DatasetServer& server, ScreenService& service) {
  server.set_route("/screen", [&service](const HttpRequest& request,
                                         const std::string& body) {
    return service.handle(request, body);
  });
}

}  // namespace qdb::serve
