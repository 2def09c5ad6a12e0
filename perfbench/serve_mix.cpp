// serve_mix: the dataset server under a closed loop of 2 keep-alive
// connections.  About 15 reads per screen: /entries filter queries,
// /entries/{id}, and artifact GETs (a quarter of them conditional, so 304),
// weighted 3:1:3 after examples/serve_smoke.cpp (see Catalog::pick);
// screens are POST /screen with 512 ligands on a seeded receptor and
// library seed, and every fourth screen ingests its report, so store writes
// run beside store reads.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "data/dataset_io.h"
#include "obs/trace.h"
#include "screen/funnel.h"
#include "serve/client.h"
#include "serve/http.h"
#include "serve/screen_api.h"
#include "serve/server.h"
#include "store/store.h"
#include "structure/pdb.h"
#include "util.h"

namespace perfbench {

namespace {

using qdb::serve::HttpRequest;
using qdb::serve::HttpResponse;

constexpr int kSetupReps = 7;
constexpr int kConnections = 2;
constexpr std::uint64_t kLibrarySize = 512;
constexpr std::uint64_t kScreenEvery = 16;  // every 16th request: 15 reads per screen
constexpr std::uint64_t kIngestEvery = 4;
constexpr std::size_t kScreenSamples = 8;   // per connection and window
constexpr int kSweepReads = 3000;
constexpr int kSweepScreens = 8;
constexpr int kIngestReps = 3;

/// The §4.2 dataset tree of the evaluated entries.
void write_dataset(const std::string& root, const std::vector<ChainResult>& chain) {
  for (const ChainResult& r : chain) {
    qdb::write_entry_files(root, *r.entry, r.prediction.structure, *r.prediction.vqe,
                           r.docking, r.evaluation.rmsd);
  }
}

HttpRequest screen_request() {
  HttpRequest r;
  r.method = "POST";
  r.target = "/screen";
  r.path = "/screen";
  r.version = "HTTP/1.1";
  return r;
}

std::string screen_body(const std::string& pdb_id, std::uint64_t library_seed,
                        std::uint64_t library_size, bool ingest) {
  qdb::Json j = qdb::Json::object();
  j.set("pdb_id", pdb_id);
  j.set("library_seed", library_seed);
  j.set("library_size", library_size);
  j.set("ingest", ingest);
  return j.dump(-1);
}

/// A served store: members destruct server first, store last.
struct Service {
  std::unique_ptr<qdb::store::Store> store;
  std::unique_ptr<qdb::serve::ScreenService> screens;
  std::unique_ptr<qdb::serve::DatasetServer> server;
};

/// One cold set-up in `dir`: write the dataset tree, ingest it into a fresh
/// store, and build the receptor grid of every entry through the screen
/// service (which memoises them).  The server is not started.
Service build_service(const std::string& dir, const std::vector<ChainResult>& chain) {
  Service s;
  write_dataset(dir + "/dataset", chain);
  s.store = std::make_unique<qdb::store::Store>(dir + "/store");
  s.store->ingest_dataset(dir + "/dataset");
  s.screens = std::make_unique<qdb::serve::ScreenService>(*s.store);
  for (const ChainResult& r : chain) {
    const HttpResponse resp =
        s.screens->handle(screen_request(), screen_body(r.entry->pdb_id, 1, 1, false));
    if (resp.status != 200) {
      throw qdb::Error(std::string("grid build for ") + r.entry->pdb_id + " failed: " + resp.body);
    }
  }
  s.server = std::make_unique<qdb::serve::DatasetServer>(*s.store, qdb::serve::ServeOptions{});
  qdb::serve::attach_screen_api(*s.server, *s.screens);
  return s;
}

/// Every distinct read of the mix, with the in-process response it must get.
struct Catalog {
  struct Read {
    std::string target;
    std::string if_none_match;  ///< empty: unconditional
    HttpRequest request;        ///< parsed form, for in-process handle()
    HttpResponse expected;
  };
  std::vector<Read> reads;
  std::vector<std::size_t> filters, entries, artifacts, conditional;

  std::size_t add(std::string target, std::string if_none_match) {
    Read r;
    r.target = std::move(target);
    r.if_none_match = std::move(if_none_match);
    std::string head = "GET " + r.target + " HTTP/1.1\r\nHost: 127.0.0.1";
    if (!r.if_none_match.empty()) head += "\r\nIf-None-Match: " + r.if_none_match;
    if (!qdb::serve::parse_request_head(head, &r.request)) {
      throw qdb::Error("unparsable benchmark request " + r.target);
    }
    reads.push_back(std::move(r));
    return reads.size() - 1;
  }

  /// The seeded read mix.  No record of real traffic exists, so the kinds
  /// are weighted as examples/serve_smoke.cpp exercises them: 3 filter
  /// queries, 1 entry lookup and 3 artifact GETs (3:1:3).  A quarter of the
  /// artifact GETs revalidate with If-None-Match, as the mix is specified.
  std::size_t pick(qdb::Rng& rng) const {
    const std::uint64_t r = rng.below(7);
    if (r < 3) return filters[rng.below(filters.size())];
    if (r < 4) return entries[rng.below(entries.size())];
    const std::size_t a = rng.below(artifacts.size());
    return rng.below(4) == 0 ? conditional[a] : artifacts[a];
  }
};

Catalog make_catalog(const qdb::serve::DatasetServer& server, const qdb::store::Store& store) {
  Catalog c;
  // The successful /entries queries of examples/serve_smoke.cpp.
  for (const char* q : {"", "?group=S", "?min_qubits=100"}) {
    c.filters.push_back(c.add(std::string("/entries") + q, ""));
  }
  for (const qdb::store::EntryRecord& e : store.entries()) {
    c.entries.push_back(c.add("/entries/" + e.pdb_id, ""));
    for (int i = 0; i < qdb::store::kArtifactCount; ++i) {
      const auto a = static_cast<qdb::store::Artifact>(i);
      const std::string target =
          "/entries/" + e.pdb_id + "/" + qdb::store::artifact_filename(a);
      c.artifacts.push_back(c.add(target, ""));
      c.conditional.push_back(c.add(target, "\"" + e.artifact(a).hash + "\""));
    }
  }
  for (Catalog::Read& r : c.reads) {
    r.expected = server.handle(r.request);
    const int want = r.if_none_match.empty() ? 200 : 304;
    if (r.expected.status != want) {
      throw qdb::Error("in-process " + r.target + " returned " +
                       std::to_string(r.expected.status));
    }
  }
  return c;
}

std::vector<std::pair<std::string, std::string>> headers_of(const Catalog::Read& r) {
  if (r.if_none_match.empty()) return {};
  return {{"If-None-Match", r.if_none_match}};
}

/// One client connection, kept open across windows so the same two server
/// workers (and their OpenMP teams) serve the whole run.  The op schedule is
/// fixed: every kScreenEvery-th request is a screen, receptors cycle in a
/// seeded order, and the seed draws the reads and the library seeds.
struct Connection {
  Connection(std::uint16_t port, std::uint64_t seed, std::size_t receptors)
      : client("127.0.0.1", port), rng(seed), receptor_order(permutation(receptors, seed)) {}

  qdb::serve::HttpClient client;
  qdb::Rng rng;
  std::vector<std::size_t> receptor_order;
  std::uint64_t ops = 0;
  std::uint64_t screens = 0;
};

/// One request: when it completed (seconds into the window), its latency,
/// and whether it was a screen (else a read).
struct Sample {
  double done_s;
  double latency_ms;
  bool screen;
};

/// What one connection did in one window.
struct Tally {
  std::int64_t sent = 0;
  std::int64_t failed = 0;
  std::vector<Sample> samples;
  std::vector<std::pair<std::string, std::string>> screen_samples;  // body, hash
  std::string first_error;

  void fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

/// Closed loop on one keep-alive connection until `deadline`.  Read bodies
/// are compared byte for byte with the in-process response; a sample of
/// screen bodies is kept (as content hashes) for an in-process re-check.
void client_loop(Connection& c, double start, double deadline, const Catalog& catalog,
                 const std::vector<std::string>& receptors, Tally& t) {
  try {
    while (now_s() < deadline) {
      if (++c.ops % kScreenEvery == 0) {
        const std::uint64_t n = c.screens++;
        const std::string body =
            screen_body(receptors[c.receptor_order[n % receptors.size()]], c.rng() >> 2,
                        kLibrarySize, n % kIngestEvery == kIngestEvery - 1);
        const double t0 = now_s();
        const qdb::serve::HttpClientResponse resp = c.client.post("/screen", body);
        const double t1 = now_s();
        t.samples.push_back({t1 - start, (t1 - t0) * 1e3, true});
        ++t.sent;
        if (resp.status != 200) {
          t.fail("POST /screen returned " + std::to_string(resp.status) + ": " + resp.body);
        } else if (n % 4 == 1 && t.screen_samples.size() < kScreenSamples) {
          t.screen_samples.emplace_back(body, qdb::store::content_hash(resp.body).hex());
        }
      } else {
        const Catalog::Read& r = catalog.reads[catalog.pick(c.rng)];
        const double t0 = now_s();
        const qdb::serve::HttpClientResponse resp = c.client.get(r.target, headers_of(r));
        const double t1 = now_s();
        t.samples.push_back({t1 - start, (t1 - t0) * 1e3, false});
        ++t.sent;
        if (resp.status != r.expected.status || resp.body != r.expected.body) {
          t.fail("GET " + r.target + " differs from in-process handle()");
        }
      }
    }
  } catch (const std::exception& ex) {
    t.fail(std::string("client: ") + ex.what());
  }
}

struct Window {
  std::int64_t requests = 0;
  double seconds = 0.0;
  std::vector<Sample> samples;
  std::vector<double> slice_steal;  ///< steal share of each one-second slice
  std::vector<std::pair<std::string, std::string>> screen_samples;

  /// Per-slice statistics over the window's whole one-second slices.  The
  /// medians across clean slices are robust to load from outside the
  /// benchmark that slows some slices.
  struct Slices {
    std::vector<double> rate, read_p50_ms, screen_p90_ms, steal;
    std::vector<double> reads, screens;  ///< latency samples behind each percentile

    /// Median over the clean slices, or the 5 least stolen ones.
    double median_of(const std::vector<double>& v) const { return median(clean(v, steal, 5)); }
  };
  Slices slices() const {
    const std::size_t n = slice_steal.size();
    std::vector<std::vector<Sample>> by_slice(n);
    for (const Sample& s : samples) {
      const auto k = static_cast<std::size_t>(s.done_s);
      if (k < n) by_slice[k].push_back(s);
    }
    Slices out;
    for (std::size_t k = 0; k < n; ++k) {
      const std::vector<Sample>& slice = by_slice[k];
      double first = static_cast<double>(k + 1), last = static_cast<double>(k);
      std::vector<double> read_ms, screen_ms;
      for (const Sample& s : slice) {
        first = std::min(first, s.done_s);
        last = std::max(last, s.done_s);
        (s.screen ? screen_ms : read_ms).push_back(s.latency_ms);
      }
      if (read_ms.empty() || screen_ms.empty() || last <= first) continue;
      out.rate.push_back(static_cast<double>(slice.size() - 1) / (last - first));
      out.read_p50_ms.push_back(median(read_ms));
      out.screen_p90_ms.push_back(quantile(screen_ms, 0.9));
      out.reads.push_back(static_cast<double>(read_ms.size()));
      out.screens.push_back(static_cast<double>(screen_ms.size()));
      out.steal.push_back(slice_steal[k]);
    }
    return out;
  }

  double rate() const {
    const Slices s = slices();
    return s.rate.empty() ? static_cast<double>(requests) / seconds : s.median_of(s.rate);
  }
};

Window measure(std::vector<std::unique_ptr<Connection>>& connections, const Catalog& catalog,
               const std::vector<std::string>& receptors, double seconds, bool traced,
               Outcome& out) {
  std::unique_ptr<qdb::obs::TraceSession> session;
  if (traced) {
    session = std::make_unique<qdb::obs::TraceSession>();
    session->start();
  }
  std::vector<Tally> tallies(connections.size());
  Window w;
  const auto t0 = std::chrono::steady_clock::now();
  const double start = now_s();
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < connections.size(); ++c) {
      clients.emplace_back([&, c] {
        client_loop(*connections[c], start, start + seconds, catalog, receptors, tallies[c]);
      });
    }
    // Steal share of every whole one-second slice, read at slice boundaries.
    CpuTicks ticks = cpu_ticks();
    for (int k = 1; k <= static_cast<int>(seconds); ++k) {
      std::this_thread::sleep_until(t0 + std::chrono::seconds(k));
      const CpuTicks next = cpu_ticks();
      w.slice_steal.push_back(steal_share(ticks, next));
      ticks = next;
    }
    for (std::thread& t : clients) t.join();
  }
  w.seconds = now_s() - start;
  if (session) session->stop();
  for (Tally& t : tallies) {
    w.requests += t.sent;
    out.attempted += t.sent;
    if (t.failed > 0) {
      std::fprintf(stderr, "perfbench: serve_mix: %lld failed requests, first: %s\n",
                   static_cast<long long>(t.failed), t.first_error.c_str());
      out.correct = false;
      out.failed += t.failed;
    }
    w.samples.insert(w.samples.end(), t.samples.begin(), t.samples.end());
    w.screen_samples.insert(w.screen_samples.end(), t.screen_samples.begin(),
                            t.screen_samples.end());
  }
  return w;
}

std::vector<std::string> receptor_ids(const std::vector<ChainResult>& chain) {
  std::vector<std::string> ids;
  for (const ChainResult& r : chain) ids.emplace_back(r.entry->pdb_id);
  return ids;
}

}  // namespace

void run_serve_mix(const Args& args, Outcome& out) {
  // The store's contents: the eval6 entries, predicted and docked once.
  // This is input generation, not set-up; set-up starts from these results.
  const std::vector<const qdb::DatasetEntry*> entries = entries_by_id(eval6_ids());
  cold_tuner_warmup(entries);
  std::vector<ChainResult> chain;
  {
    const qdb::Pipeline pipeline(qdb::PipelineOptions::bench_profile());
    for (const qdb::DatasetEntry* e : entries) chain.push_back(evaluate_by_layers(pipeline, *e));
  }
  const std::vector<std::string> receptors = receptor_ids(chain);

  std::unique_ptr<Service> service;
  int rep = 0;
  const double setup_s = median_setup_s("serve_mix", kSetupReps, [&] {
    const std::string dir = fresh_dir(args.workdir + "/serve_setup" + std::to_string(rep++));
    service.reset();
    return timed([&] { service = std::make_unique<Service>(build_service(dir, chain)); });
  });
  Service& svc = *service;

  svc.server->start();
  const Catalog catalog = make_catalog(*svc.server, *svc.store);
  const std::uint64_t seed = qdb::seed_combine(args.seed, qdb::fnv1a("serve_mix"));
  std::vector<std::unique_ptr<Connection>> connections;
  for (int c = 0; c < kConnections; ++c) {
    connections.push_back(std::make_unique<Connection>(
        svc.server->port(), qdb::seed_combine(seed, static_cast<std::uint64_t>(c)),
        receptors.size()));
  }

  std::vector<Window> windows;
  windows.push_back(measure(connections, catalog, receptors, 0.5, false, out));  // warm-up
  double overhead = 0.0;
  if (args.trace) {
    // One-second untraced and traced windows alternate, so drift in machine
    // load affects both sides alike.
    std::vector<double> plain, traced;
    const double start = now_s();
    do {
      windows.push_back(measure(connections, catalog, receptors, 1.0, false, out));
      plain.push_back(windows.back().rate());
      windows.push_back(measure(connections, catalog, receptors, 1.0, true, out));
      traced.push_back(windows.back().rate());
    } while (now_s() - start < args.seconds);
    overhead = overhead_pct(median(plain), median(traced));
  } else {
    windows.push_back(measure(connections, catalog, receptors, args.seconds, false, out));
  }
  connections.clear();

  // Screen bodies sent over the socket must equal in-process handle().
  std::int64_t sent = 0;
  for (const Window& w : windows) {
    sent += w.requests;
    for (const auto& [body, hash] : w.screen_samples) {
      const HttpResponse resp = svc.server->handle(screen_request(), body);
      if (qdb::store::content_hash(resp.body).hex() != hash) {
        out.mismatch("POST /screen " + body + " differs from in-process handle()");
      }
    }
  }
  // After stop() every served request is recorded; /metrics must count
  // exactly the requests the clients sent.
  svc.server->stop();
  qdb::serve::HttpRequest metrics_request;
  qdb::serve::parse_request_head("GET /metrics HTTP/1.1", &metrics_request);
  const qdb::Json metrics = qdb::Json::parse(svc.server->handle(metrics_request).body);
  const std::int64_t counted = metrics.at("requests").at("requests_total").as_int();
  if (counted != sent) {
    out.mismatch("/metrics counts " + std::to_string(counted) + " requests, clients sent " +
                 std::to_string(sent));
  }

  if (args.trace) {
    out.metrics.set("trace.overhead_pct", overhead, "%");
    return;
  }
  const Window& w = windows.back();
  const Window::Slices slices = w.slices();
  std::printf("serve_mix: %lld requests in %.3f s; %zu one-second slices, %zu clean; "
              "op_ms.p50 = read p50 over about %.0f reads per slice, op_ms.tail = screen p90 "
              "over about %.0f screens per slice\n",
              static_cast<long long>(w.requests), w.seconds, slices.rate.size(),
              clean(slices.rate, slices.steal, 0).size(), median(slices.reads),
              median(slices.screens));
  print_samples("serve_mix", "slice_rps", slices.rate, slices.steal);
  out.metrics.set("setup_s", setup_s, "s");
  out.metrics.set("ops_per_s", slices.median_of(slices.rate), "1/s");
  out.metrics.set("op_ms.p50", slices.median_of(slices.read_p50_ms), "ms");
  out.metrics.set("op_ms.tail", slices.median_of(slices.screen_p90_ms), "ms");
}

void sweep_serve_layers(const Args& args, const std::vector<ChainResult>& chain, Outcome& out) {
  const std::string base = args.workdir + "/serve_sweep";

  // Store ingest alone (the tree is written before the clock starts).
  std::vector<double> ingest_ms;
  std::unique_ptr<qdb::store::Store> store;
  for (int k = 0; k < kIngestReps; ++k) {
    const std::string dir = fresh_dir(base + "/ingest" + std::to_string(k));
    write_dataset(dir + "/dataset", chain);
    store = std::make_unique<qdb::store::Store>(dir + "/store");
    ingest_ms.push_back(1e3 * timed([&] { store->ingest_dataset(dir + "/dataset"); }));
  }

  // Receptor grid build, one per entry, from the stored structures.
  std::vector<std::unique_ptr<const qdb::screen::PreparedReceptor>> prepared;
  double prepare_s = 0.0;
  for (const ChainResult& r : chain) {
    const qdb::store::EntryRecord* rec = store->find(r.entry->pdb_id);
    if (rec == nullptr) throw qdb::Error(std::string("store lost ") + r.entry->pdb_id);
    const qdb::Structure receptor =
        qdb::parse_pdb(*store->read_artifact(*rec, qdb::store::Artifact::Structure));
    prepare_s += timed([&] {
      prepared.push_back(std::make_unique<const qdb::screen::PreparedReceptor>(
          qdb::screen::prepare_receptor(receptor, qdb::screen::ScreenOptions{})));
    });
  }

  // The read mix in-process (handle()) and over one socket.
  qdb::serve::ScreenService screens(*store);
  qdb::serve::DatasetServer server(*store, qdb::serve::ServeOptions{});
  qdb::serve::attach_screen_api(server, screens);
  server.start();
  const Catalog catalog = make_catalog(server, *store);
  qdb::Rng rng(qdb::seed_combine(args.seed, qdb::fnv1a("serve_sweep")));
  std::vector<std::size_t> mix;
  for (int i = 0; i < kSweepReads; ++i) mix.push_back(catalog.pick(rng));

  std::vector<double> handle_us;
  for (std::size_t k : mix) {
    const Catalog::Read& r = catalog.reads[k];
    HttpResponse resp;
    handle_us.push_back(1e6 * timed([&] { resp = server.handle(r.request); }));
    ++out.attempted;
    if (resp.status != r.expected.status || resp.body != r.expected.body) {
      out.mismatch("in-process " + r.target + " is not deterministic");
    }
  }
  const qdb::store::BlobCache& cache = store->cache();
  const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses();
  std::vector<double> socket_us;
  {
    qdb::serve::HttpClient client("127.0.0.1", server.port());
    for (std::size_t k : mix) {
      const Catalog::Read& r = catalog.reads[k];
      qdb::serve::HttpClientResponse resp;
      socket_us.push_back(1e6 * timed([&] { resp = client.get(r.target, headers_of(r)); }));
      ++out.attempted;
      if (resp.status != r.expected.status || resp.body != r.expected.body) {
        out.mismatch("GET " + r.target + " differs from in-process handle()");
      }
    }
  }
  const double hits = static_cast<double>(cache.hits() - hits0);
  const double lookups = hits + static_cast<double>(cache.misses() - misses0);
  server.stop();

  // Artifact reads straight from the store.
  std::vector<double> read_us;
  for (int i = 0; i < kSweepReads; ++i) {
    const qdb::store::EntryRecord& e = store->entries()[rng.below(store->entries().size())];
    const auto a = static_cast<qdb::store::Artifact>(rng.below(qdb::store::kArtifactCount));
    read_us.push_back(1e6 * timed([&] { store->read_artifact(e, a); }));
  }

  // Screens of 512 seeded ligands on prepared receptors, then their report
  // blobs written to the store (distinct bytes, so each is a real write).
  std::vector<double> screen_ms, put_ms;
  std::vector<std::string> reports;
  for (int k = 0; k < kSweepScreens; ++k) {
    const std::size_t i = static_cast<std::size_t>(k) % chain.size();
    qdb::screen::ScreenOptions opt;
    opt.library.seed = rng() >> 2;
    opt.library.size = kLibrarySize;
    qdb::screen::ScreenReport report;
    screen_ms.push_back(1e3 * timed([&] {
      report = qdb::screen::run_screen(*prepared[i], chain[i].entry->pdb_id, opt);
    }));
    ++out.attempted;
    if (report.hits.empty()) out.mismatch("screen returned no hits");
    reports.push_back(qdb::screen::serialize_report(report));
  }
  for (const std::string& bytes : reports) {
    put_ms.push_back(1e3 * timed([&] { store->put_blob(bytes); }));
  }

  const double handle_p50 = median(handle_us);
  out.metrics.set("layer.serve.handle_us.p50", handle_p50, "us");
  out.metrics.set("layer.serve.transport_us.p50", median(socket_us) - handle_p50, "us");
  out.metrics.set("layer.store.read_artifact_us.p50", median(read_us), "us");
  out.metrics.set("ratio.store.cache_hit", lookups > 0 ? hits / lookups : 0.0, "ratio");
  out.metrics.set("count.store.cache_lookups", lookups, "count");
  out.metrics.set("layer.screen.run_ms.p50", median(screen_ms), "ms");
  out.metrics.set("layer.store.put_blob_ms.p50", median(put_ms), "ms");
  out.metrics.set("layer.screen.prepare_ms", prepare_s * 1e3, "ms");
  out.metrics.set("layer.store.ingest_ms", median(ingest_ms), "ms");
}

}  // namespace perfbench
