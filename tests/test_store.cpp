// Tests for the content-addressed artifact store (ISSUE 4): content hashing,
// the binary index round-trip and its corruption detection, ingest + dedup
// idempotence, the LRU blob cache, and fault-injected ingest atomicity.
#include <gtest/gtest.h>
#include <unistd.h>  // getpid for per-process scratch directories

#include <filesystem>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/rng.h"
#include "data/registry.h"
#include "dataset_fixture.h"
#include "store/cache.h"
#include "store/store.h"

namespace qdb::store {
namespace {

namespace fs = std::filesystem;

/// Per-test scratch directory, removed on teardown.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            ("qdb_store_" + std::string(info->name()) + "_" +
             std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::instance().clear();
    fs::remove_all(dir_);
  }

  std::string path(const std::string& leaf) const { return dir_ + "/" + leaf; }

  /// Dataset root with every registry entry, built once per test on demand.
  const std::string& dataset_root() {
    if (dataset_root_.empty()) {
      dataset_root_ = path("dataset");
      qdb::testing::build_synthetic_dataset(dataset_root_);
    }
    return dataset_root_;
  }

  std::string dir_;
  std::string dataset_root_;
};

std::size_t count_blobs(const std::string& store_root) {
  std::size_t n = 0;
  const fs::path blobs = fs::path(store_root) / "blobs";
  if (!fs::exists(blobs)) return 0;
  for (const auto& p : fs::recursive_directory_iterator(blobs)) {
    if (p.is_regular_file()) ++n;
  }
  return n;
}

// --- content hashing --------------------------------------------------------

TEST(ContentHashTest, DeterministicHexAndSensitivity) {
  const ContentHash h = content_hash("hello");
  EXPECT_EQ(h.hex().size(), 32u);
  EXPECT_EQ(h.hex(), content_hash("hello").hex());
  EXPECT_NE(content_hash("hello").hex(), content_hash("hellp").hex());
  EXPECT_NE(content_hash("ab").hex(), content_hash("ba").hex());
  // Length is folded in: a prefix never collides with its extension.
  EXPECT_NE(content_hash("").hex(), content_hash(std::string_view("\0", 1)).hex());
  EXPECT_NE(content_hash("x").hex(), content_hash("xx").hex());
  for (char c : content_hash("qdockbank").hex()) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
}

// --- index round-trip -------------------------------------------------------

std::vector<EntryRecord> sample_records() {
  std::vector<EntryRecord> recs(2);
  recs[0].pdb_id = "1abc";
  recs[0].group = 'S';
  recs[0].sequence = "DGPHGM";
  recs[0].length = 6;
  recs[0].qubits = 23;
  recs[0].best_affinity = -4.75;
  recs[0].ca_rmsd = 0.56;
  recs[1].pdb_id = "2def";
  recs[1].group = 'L';
  recs[1].sequence = "ELISNSSDALDKI";
  recs[1].length = 13;
  recs[1].qubits = 92;
  recs[1].best_affinity = -5.625;
  recs[1].ca_rmsd = 0.63;
  for (auto& r : recs) {
    for (int i = 0; i < kArtifactCount; ++i) {
      r.artifacts[i].hash = content_hash(r.pdb_id + std::to_string(i)).hex();
      r.artifacts[i].size = 100 + static_cast<std::uint64_t>(i);
    }
  }
  return recs;
}

TEST(IndexTest, RoundTripIsExactAndByteStable) {
  const std::vector<EntryRecord> recs = sample_records();
  const std::string bytes = serialize_index(recs);
  const std::vector<EntryRecord> back = parse_index(bytes);
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(back[i].pdb_id, recs[i].pdb_id);
    EXPECT_EQ(back[i].group, recs[i].group);
    EXPECT_EQ(back[i].sequence, recs[i].sequence);
    EXPECT_EQ(back[i].length, recs[i].length);
    EXPECT_EQ(back[i].qubits, recs[i].qubits);
    // double_bits storage: bit-exact, not merely approximate.
    EXPECT_EQ(back[i].best_affinity, recs[i].best_affinity);
    EXPECT_EQ(back[i].ca_rmsd, recs[i].ca_rmsd);
    for (int a = 0; a < kArtifactCount; ++a) {
      EXPECT_EQ(back[i].artifacts[a].hash, recs[i].artifacts[a].hash);
      EXPECT_EQ(back[i].artifacts[a].size, recs[i].artifacts[a].size);
    }
  }
  EXPECT_EQ(serialize_index(back), bytes);
  EXPECT_EQ(serialize_index({}), serialize_index({}));  // empty is valid too
  EXPECT_TRUE(parse_index(serialize_index({})).empty());
}

TEST(IndexTest, CorruptionIsDetected) {
  const std::string bytes = serialize_index(sample_records());
  // Bad magic.
  std::string bad = bytes;
  bad[0] ^= 0x01;
  EXPECT_THROW(parse_index(bad), IoError);
  // Flipped payload byte: fingerprint mismatch.
  bad = bytes;
  bad[bytes.size() / 2] = static_cast<char>(bad[bytes.size() / 2] ^ 0x40);
  EXPECT_THROW(parse_index(bad), IoError);
  // Truncation (torn write).
  EXPECT_THROW(parse_index(std::string_view(bytes).substr(0, bytes.size() - 3)),
               IoError);
  EXPECT_THROW(parse_index(""), IoError);
  // Trailing garbage.
  EXPECT_THROW(parse_index(bytes + "x"), IoError);
}

/// Overwrite the little-endian u64 at `pos` and re-seal the FNV-1a trailer,
/// as a forger would: the fingerprint then vouches for the crafted bytes.
void forge_u64(std::string& bytes, std::size_t pos, std::uint64_t v) {
  const auto put = [&](std::size_t at, std::uint64_t x) {
    for (std::size_t i = 0; i < 8; ++i) bytes[at + i] = static_cast<char>((x >> (8 * i)) & 0xFF);
  };
  put(pos, v);
  put(bytes.size() - 8, fnv1a(std::string_view(bytes).substr(0, bytes.size() - 8)));
}

TEST(IndexTest, RecordCountBeyondTheBytesIsRefused) {
  // Magic (8 bytes) and version (4) precede the u64 record count.
  std::string bytes = serialize_index({});
  forge_u64(bytes, 12, std::uint64_t{1} << 40);
  EXPECT_THROW(parse_index(bytes), IoError);

  // The bound is tight: an index of one smallest possible record (empty
  // pdb_id and sequence) still parses.
  EntryRecord smallest;
  smallest.group = 'S';
  for (ArtifactRef& a : smallest.artifacts) a.hash = std::string(32, '0');
  const std::string one = serialize_index({smallest});
  EXPECT_EQ(one.size(), 8u + 4 + 8 + 165 + 8);
  EXPECT_EQ(parse_index(one).size(), 1u);
  std::string two = one;
  forge_u64(two, 12, 2);
  EXPECT_THROW(parse_index(two), IoError);
}

// --- ingest -----------------------------------------------------------------

TEST_F(StoreTest, IngestBuildsSortedQueryableIndex) {
  Store store(path("store"));
  const IngestStats st = store.ingest_dataset(dataset_root());
  const std::size_t n = qdockbank_entries().size();
  EXPECT_EQ(st.entries_seen, n);
  EXPECT_EQ(st.artifacts_seen, 3 * n);
  EXPECT_EQ(st.blobs_written + st.blobs_deduplicated, 3 * n);
  EXPECT_GT(st.bytes_written, 0u);

  ASSERT_EQ(store.entries().size(), n);
  for (std::size_t i = 1; i < store.entries().size(); ++i) {
    EXPECT_LT(store.entries()[i - 1].pdb_id, store.entries()[i].pdb_id);
  }
  const EntryRecord* e = store.find("1yc4");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->group, 'L');
  EXPECT_EQ(e->sequence, "ELISNSSDALDKI");
  EXPECT_EQ(e->length, 13);
  EXPECT_EQ(e->qubits, 92);
  EXPECT_EQ(store.find("zzzz"), nullptr);

  // Artifact bytes come back verbatim.
  const std::string on_disk =
      read_file(entry_directory(dataset_root(), entry_by_id("1yc4")) +
                "/metadata.json");
  EXPECT_EQ(*store.read_artifact(*e, Artifact::Metadata), on_disk);

  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.entries, n);
  EXPECT_EQ(stats.blobs, count_blobs(path("store")));
  EXPECT_LE(stats.blob_bytes, stats.logical_bytes);
}

TEST_F(StoreTest, ReingestIsIdempotentAndDedups) {
  Store store(path("store"));
  store.ingest_dataset(dataset_root());
  const std::string index_bytes = read_file(store.index_path());
  const std::size_t blobs_before = count_blobs(path("store"));

  // Acceptance criterion: zero new blobs, byte-identical index.
  const IngestStats again = store.ingest_dataset(dataset_root());
  EXPECT_EQ(again.blobs_written, 0u);
  EXPECT_EQ(again.blobs_deduplicated, again.artifacts_seen);
  EXPECT_EQ(again.bytes_written, 0u);
  EXPECT_EQ(count_blobs(path("store")), blobs_before);
  EXPECT_EQ(read_file(store.index_path()), index_bytes);

  // A rebuilt copy of the same dataset root also dedups fully (the builder
  // is deterministic, so content hashes agree file-for-file).
  const std::string root2 = path("dataset_copy");
  qdb::testing::build_synthetic_dataset(root2);
  const IngestStats copy = store.ingest_dataset(root2);
  EXPECT_EQ(copy.blobs_written, 0u);
  EXPECT_EQ(read_file(store.index_path()), index_bytes);
}

TEST_F(StoreTest, ReopenLoadsPersistedIndex) {
  {
    Store store(path("store"));
    store.ingest_dataset(dataset_root());
  }
  Store reopened(path("store"));
  ASSERT_EQ(reopened.entries().size(), qdockbank_entries().size());
  const EntryRecord* e = reopened.find("3eax");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->sequence, "RYRDV");
  EXPECT_FALSE(
      reopened.read_artifact(*e, Artifact::Structure)->empty());
}

TEST_F(StoreTest, MissingEntryFileFailsIngest) {
  const std::string root = path("partial");
  qdb::testing::write_synthetic_entry(root, entry_by_id("3eax"));
  fs::remove(entry_directory(root, entry_by_id("3eax")) + "/docking.json");
  Store store(path("store"));
  EXPECT_THROW(store.ingest_dataset(root), IoError);
}

TEST_F(StoreTest, ReadArtifactUsesCache) {
  Store store(path("store"), /*cache_capacity=*/8);
  store.ingest_dataset(dataset_root());
  const EntryRecord* e = store.find("1yc4");
  ASSERT_NE(e, nullptr);
  const auto first = store.read_artifact(*e, Artifact::Docking);
  const std::size_t misses = store.cache().misses();
  const auto second = store.read_artifact(*e, Artifact::Docking);
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(store.cache().misses(), misses);  // second read was a hit
  EXPECT_GT(store.cache().hits(), 0u);
}

// --- LRU cache --------------------------------------------------------------

TEST(BlobCacheTest, EvictsLeastRecentlyUsedAndCounts) {
  BlobCache cache(2);
  auto val = [](const char* s) {
    return std::make_shared<const std::string>(s);
  };
  cache.put("a", val("A"));
  cache.put("b", val("B"));
  ASSERT_NE(cache.get("a"), nullptr);  // refresh "a": now "b" is LRU
  cache.put("c", val("C"));            // evicts "b"
  EXPECT_EQ(cache.get("b"), nullptr);
  ASSERT_NE(cache.get("a"), nullptr);
  ASSERT_NE(cache.get("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_NEAR(cache.hit_rate(), 3.0 / 4.0, 1e-12);

  // Re-inserting an existing key replaces the value without eviction.
  cache.put("a", val("A2"));
  EXPECT_EQ(*cache.get("a"), "A2");
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(BlobCacheTest, ZeroCapacityDisables) {
  BlobCache cache(0);
  cache.put("a", std::make_shared<const std::string>("A"));
  EXPECT_EQ(cache.get("a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hit_rate(), 0.0);
}

// --- fault-injected ingest --------------------------------------------------

TEST_F(StoreTest, BlobWriteFaultLeavesStoreConsistentAndReingestConverges) {
  FaultInjector& fi = FaultInjector::instance();
  fi.set_seed(7);
  FaultSiteConfig cfg;
  cfg.trigger_on_nth = 10;  // fail on the 10th new blob write
  cfg.kind = FaultKind::Io;
  fi.configure("store.ingest.io", cfg);

  Store store(path("store"));
  {
    FaultScope scope("ingest", 1);
    EXPECT_THROW(store.ingest_dataset(dataset_root()), IoError);
  }
  // The crash left at worst unreferenced blobs — never an index.
  EXPECT_FALSE(fs::exists(store.index_path()));
  EXPECT_EQ(fi.fire_count("store.ingest.io"), 1u);

  // With the fault cleared, re-ingest converges: the survivors dedup and the
  // store ends bit-identical to a clean ingest.
  fi.clear();
  Store retry(path("store"));
  const IngestStats st = retry.ingest_dataset(dataset_root());
  EXPECT_GT(st.blobs_deduplicated, 0u);  // partial first pass left blobs
  EXPECT_EQ(retry.entries().size(), qdockbank_entries().size());

  Store clean(path("clean_store"));
  clean.ingest_dataset(dataset_root());
  EXPECT_EQ(read_file(retry.index_path()), read_file(clean.index_path()));
}

TEST_F(StoreTest, IndexWriteFaultPreservesPreviousIndex) {
  Store store(path("store"));
  // First ingest only the S group's worth of files: build a partial root.
  const std::string partial = path("partial");
  for (const DatasetEntry* e : entries_in_group(Group::S)) {
    qdb::testing::write_synthetic_entry(partial, *e);
  }
  store.ingest_dataset(partial);
  const std::string old_index = read_file(store.index_path());

  FaultInjector& fi = FaultInjector::instance();
  FaultSiteConfig cfg;
  cfg.trigger_on_nth = 1;
  cfg.kind = FaultKind::Io;
  fi.configure("store.index.write", cfg);
  {
    FaultScope scope("ingest", 1);
    EXPECT_THROW(store.ingest_dataset(dataset_root()), IoError);
  }
  // The previous index is untouched (write_file_atomic never tears), so a
  // reopened store still serves the S group.
  EXPECT_EQ(read_file(store.index_path()), old_index);
  Store reopened(path("store"));
  EXPECT_EQ(reopened.entries().size(), entries_in_group(Group::S).size());

  fi.clear();
  const IngestStats st = store.ingest_dataset(dataset_root());
  EXPECT_EQ(st.blobs_written, 0u);  // all blobs landed before the fault
  EXPECT_EQ(Store(path("store")).entries().size(), qdockbank_entries().size());
}

}  // namespace
}  // namespace qdb::store
