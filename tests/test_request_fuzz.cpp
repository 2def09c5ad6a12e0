// Seeded mutational fuzz of the request layer.
//
// One DatasetServer with every route mounted (/screen, /trace, /debug,
// /jobs) answers mutations of the valid requests the other suites send:
// byte flips, truncations, splices and duplicated keys, drawn from
// splitmix64 with a fixed seed and a fixed iteration count.  Whatever the
// bytes, handle() must not throw, the status must be one the request
// contract allows for client input (a 500 here would be a server fault a
// client can trigger), and every 4xx body must be {"error": "<string>"}.
// Inputs that once crashed the server run first as fixed regression cases.
#include <gtest/gtest.h>
#include <unistd.h>  // getpid for per-process scratch directories

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/rng.h"
#include "data/batch.h"
#include "data/checkpoint.h"
#include "data/dataset_io.h"
#include "data/registry.h"
#include "dataset_fixture.h"
#include "lattice/lattice.h"
#include "lattice/solver.h"
#include "orchestrate/api.h"
#include "orchestrate/coordinator.h"
#include "serve/http.h"
#include "serve/screen_api.h"
#include "serve/server.h"
#include "serve/trace_api.h"
#include "store/store.h"
#include "structure/pdb.h"
#include "structure/protonate.h"
#include "structure/reconstruct.h"

namespace qdb {
namespace {

namespace fs = std::filesystem;

/// A small folded receptor, so a mutated body that is still valid runs a
/// real (and cheap) screen.
Structure small_receptor() {
  const auto aa = parse_sequence("VKDRS");
  FoldingHamiltonian h(aa, HamiltonianWeights::standard(static_cast<int>(aa.size())));
  const SolveResult ground = ExactSolver().solve(h);
  std::vector<Vec3> trace;
  for (const IVec3& p : walk_positions(ground.turns)) trace.push_back(lattice_to_cartesian(p));
  Structure s = reconstruct_backbone(trace, aa, "fuzz");
  add_polar_hydrogens(s);
  assign_partial_charges(s);
  s.center_on_origin();
  return s;
}

struct Seed {
  std::string method;
  std::string target;
  std::string body;
};

/// The first member of a JSON-object body, as text ("key": value).
std::string first_member(const std::string& body) {
  const Json doc = Json::parse(body);
  Json one = Json::object();
  one.set(doc.as_object().front().first, doc.as_object().front().second);
  const std::string text = one.dump(-1);
  return text.substr(1, text.size() - 2);
}

/// Apply one mutation to `s`, using `other` as splice material.
void mutate(std::string& s, const std::string& other, std::uint64_t& rng) {
  const auto below = [&rng](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(splitmix64(rng) % n);
  };
  static const std::string kBytes = "{}[]\",:&=?/%+-.0123456789eEnatrufl \t\x01\xff";
  switch (below(4)) {
    case 0:  // byte flip
      if (!s.empty()) {
        const std::size_t at = below(s.size());
        s[at] = below(2) == 0 ? static_cast<char>(s[at] ^ (1 << below(8)))
                              : kBytes[below(kBytes.size())];
      }
      break;
    case 1:  // truncation
      s.resize(below(s.size() + 1));
      break;
    case 2: {  // splice a slice of another seed
      const std::size_t from = below(other.size() + 1);
      const std::string slice = other.substr(from, below(other.size() - from + 1));
      s.insert(below(s.size() + 1), slice);
      break;
    }
    default:  // repeat a slice of itself (duplicates keys and parameters)
      if (!s.empty()) {
        const std::size_t from = below(s.size());
        s.insert(below(s.size() + 1), s.substr(from, below(s.size() - from) + 1));
      }
      break;
  }
}

void expect_contract(serve::DatasetServer& server, const Seed& in, const std::string& what) {
  serve::HttpRequest request;
  request.method = in.method;
  request.target = in.target;
  request.version = "HTTP/1.1";
  serve::split_target(in.target, &request.path, &request.query);
  serve::HttpResponse resp;
  ASSERT_NO_THROW(resp = server.handle(request, in.body)) << what;
  const int s = resp.status;
  ASSERT_TRUE(s == 200 || s == 304 || s == 400 || s == 404 || s == 405 || s == 409)
      << s << " for " << what << ": " << resp.body;
  if (s >= 400 && s < 500) {
    Json doc;
    ASSERT_NO_THROW(doc = Json::parse(resp.body)) << what;
    ASSERT_TRUE(doc.is_object() && doc.contains("error") && doc.at("error").is_string())
        << what << ": " << resp.body;
  }
}

TEST(RequestFuzz, MutatedRequestsGetContractStatusesAndErrorBodies) {
  const fs::path dir = fs::temp_directory_path() /
                       ("qdb_request_fuzz_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const std::string dataset = (dir / "dataset").string();
  qdb::testing::build_synthetic_dataset(dataset);
  // Every entry gets the real receptor: a mutated pdb_id that still names
  // an entry must screen, not fail.
  const std::string pdb = to_pdb(small_receptor());
  for (const DatasetEntry& e : qdockbank_entries()) {
    write_file_atomic(entry_directory(dataset, e) + "/structure.pdb", pdb);
  }
  store::Store store((dir / "store").string(), 32);
  store.ingest_dataset(dataset);

  std::vector<const DatasetEntry*> jobs;
  for (const DatasetEntry* e : entries_in_group(Group::S)) {
    if (jobs.size() < 2) jobs.push_back(e);
  }
  ManualClock clock;
  orchestrate::CoordinatorOptions copt;
  copt.batch.run_vqe = false;
  copt.batch.threads = 1;
  copt.clock = &clock;
  copt.results = &store;
  orchestrate::Coordinator coordinator(jobs, copt);

  // Small caps: any body that survives mutation screens at most 8 ligands.
  serve::ScreenService screens(store, {.threads = 1,
                                       .max_library_size = 8,
                                       .max_top_k = 4,
                                       .max_poses_per_ligand = 2,
                                       .max_poses_rescored = 1});
  serve::DatasetServer server(store, {});
  serve::attach_screen_api(server, screens);
  serve::attach_trace_api(server, store);
  orchestrate::attach_job_api(server, coordinator);

  const std::string id = jobs[0]->pdb_id;
  Json record = Json::object();
  record.set("worker", "w1");
  record.set("lease_token", std::int64_t{1});
  record.set("record", batch_job_record_json(run_batch_job(*jobs[0], copt.batch)));
  const std::vector<Seed> seeds = {
      {"GET", "/healthz", ""},
      {"GET", "/metrics?format=json", ""},
      {"GET", "/entries?group=S&min_qubits=10&max_rmsd=2.5&min_affinity=-9", ""},
      {"GET", "/entries/" + id, ""},
      {"GET", "/entries/" + id + "/metadata.json", ""},
      {"GET", "/debug/flight?n=4", ""},
      {"GET", "/jobs/status", ""},
      {"POST", "/screen",
       R"({"pdb_id": ")" + id +
           R"(", "library_seed": 3, "library_size": 4, "top_k": 2, )"
           R"("stage1_keep": 0.5, "poses_per_ligand": 2, "poses_rescored": 1, "ingest": false})"},
      {"POST", "/trace",
       R"({"traceEvents": [{"name": "x", "ph": "X", "ts": 1}], "displayTimeUnit": "ms"})"},
      {"POST", "/jobs/lease", R"({"worker": "w1"})"},
      {"POST", "/jobs/" + id + "/heartbeat", R"({"worker": "w1", "lease_token": 1})"},
      {"POST", "/jobs/" + id + "/complete", record.dump()},
  };

  // Fixed regression inputs.
  const std::string deep(200000, '[');
  for (const Seed& fixed : std::vector<Seed>{
           {"POST", "/jobs/lease", deep},     // past Json's nesting bound
           {"POST", "/screen", "{" + deep},   // the same, one level down
           {"POST", "/trace", R"({"traceEvents": [], "traceEvents": []})"},
           {"GET", "/entries?min_rmsd=nan", ""},
       }) {
    expect_contract(server, fixed, fixed.method + " " + fixed.target);
  }

  std::uint64_t rng = 0x5eed0f0220ULL;
  constexpr int kIterations = 8000;
  for (int i = 0; i < kIterations; ++i) {
    const Seed& base = seeds[splitmix64(rng) % seeds.size()];
    const Seed& other = seeds[splitmix64(rng) % seeds.size()];
    Seed in = base;
    const int mutations = 1 + static_cast<int>(splitmix64(rng) % 3);
    for (int m = 0; m < mutations; ++m) {
      const std::uint64_t where = splitmix64(rng) % 8;
      if (where == 0) {
        in.method = in.method == "GET" ? "POST" : "GET";
      } else if (where <= 3 || in.body.empty()) {
        mutate(in.target, other.target, rng);
      } else if (where == 4 && base.body == in.body) {
        // Structure-aware: repeat the first key of the object body.
        in.body = "{" + first_member(base.body) + "," + base.body.substr(1);
      } else {
        mutate(in.body, other.body, rng);
      }
    }
    expect_contract(server, in,
                    "iteration " + std::to_string(i) + ": " + in.method + " " + in.target +
                        " body " + in.body.substr(0, 200));
    if (HasFatalFailure()) break;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace qdb
