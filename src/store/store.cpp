#include "store/store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <unordered_set>

#include "common/check.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/rng.h"
#include "data/dataset_io.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qdb::store {

namespace fs = std::filesystem;

namespace {

constexpr char kIndexMagic[8] = {'Q', 'D', 'B', 'S', 'I', 'D', 'X', '1'};
constexpr std::uint32_t kIndexVersion = 1;
// The smallest encoded index record: empty pdb_id and sequence (two u32
// lengths), the group byte, length and qubits (u32 each), two doubles, and
// three artifacts of a u32-prefixed 32-char hash plus a u64 size.
constexpr std::size_t kMinRecordBytes = 4 + 1 + 4 + 4 + 4 + 8 + 8 + 3 * (4 + 32 + 8);
static_assert(kMinRecordBytes == 165);

// --- binary little-endian serialisation helpers -----------------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double double_from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Bounds-checked little-endian reader; every overrun throws IoError so a
/// truncated index fails loudly instead of yielding garbage records.
class IndexReader {
 public:
  explicit IndexReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint8_t u8() {
    need(1);
    const auto v = static_cast<std::uint8_t>(static_cast<unsigned char>(bytes_[pos_]));
    ++pos_;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ + static_cast<std::size_t>(i)]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::string str() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(bytes_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void need(std::uint64_t n) {
    if (pos_ + n > bytes_.size()) {
      throw IoError("store index: truncated at offset " + std::to_string(pos_));
    }
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

bool valid_group(char g) { return g == 'S' || g == 'M' || g == 'L'; }

}  // namespace

// --- content hashing --------------------------------------------------------

std::string ContentHash::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (std::uint64_t word : {hi, lo}) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(digits[(word >> shift) & 0xfu]);
    }
  }
  return out;
}

ContentHash content_hash(std::string_view bytes) {
  // Two independent FNV-1a streams: the canonical offset basis for `lo`, a
  // perturbed basis and post-mix for `hi`.  Length is folded into both so
  // trailing-zero truncations change the hash.
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t lo = 14695981039346656037ULL;
  std::uint64_t hi = 14695981039346656037ULL ^ 0x9e3779b97f4a7c15ULL;
  for (unsigned char c : bytes) {
    lo = (lo ^ c) * kPrime;
    hi = (hi ^ (c + 0x7fULL)) * kPrime;
  }
  lo = (lo ^ bytes.size()) * kPrime;
  hi = (hi ^ (bytes.size() * 0x100000001b3ULL)) * kPrime;
  // Final avalanche (splitmix64 finaliser) so nearby inputs decorrelate.
  auto mix = [](std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  };
  return ContentHash{mix(hi), mix(lo)};
}

// --- index (de)serialisation ------------------------------------------------

const char* artifact_filename(Artifact a) {
  switch (a) {
    case Artifact::Structure: return "structure.pdb";
    case Artifact::Metadata: return "metadata.json";
    case Artifact::Docking: return "docking.json";
  }
  return "?";
}

std::string serialize_index(const std::vector<EntryRecord>& entries) {
  std::string out;
  out.append(kIndexMagic, sizeof kIndexMagic);
  put_u32(out, kIndexVersion);
  put_u64(out, entries.size());
  for (const EntryRecord& e : entries) {
    QDB_ASSERT(valid_group(e.group), "entry " << e.pdb_id << " group " << e.group);
    put_str(out, e.pdb_id);
    out.push_back(e.group);
    put_str(out, e.sequence);
    put_u32(out, static_cast<std::uint32_t>(e.length));
    put_u32(out, static_cast<std::uint32_t>(e.qubits));
    put_u64(out, double_bits(e.best_affinity));
    put_u64(out, double_bits(e.ca_rmsd));
    for (const ArtifactRef& a : e.artifacts) {
      put_str(out, a.hash);
      put_u64(out, a.size);
    }
  }
  // Trailing fingerprint over everything before it — the checkpoint-style
  // guard against bit rot and torn writes.
  put_u64(out, fnv1a(out));
  return out;
}

std::vector<EntryRecord> parse_index(std::string_view bytes) {
  if (bytes.size() < sizeof kIndexMagic + 4 + 8 + 8) {
    throw IoError("store index: file too short (" + std::to_string(bytes.size()) +
                  " bytes)");
  }
  if (bytes.compare(0, sizeof kIndexMagic,
                    std::string_view(kIndexMagic, sizeof kIndexMagic)) != 0) {
    throw IoError("store index: bad magic (not a QDBSIDX1 file)");
  }
  const std::uint64_t stored_fp = [&] {
    IndexReader tail(bytes.substr(bytes.size() - 8));
    return tail.u64();
  }();
  const std::uint64_t actual_fp = fnv1a(bytes.substr(0, bytes.size() - 8));
  if (stored_fp != actual_fp) {
    throw IoError("store index: fingerprint mismatch (file corrupt or torn)");
  }

  IndexReader reader(bytes.substr(sizeof kIndexMagic, bytes.size() - sizeof kIndexMagic - 8));
  const std::uint32_t version = reader.u32();
  if (version != kIndexVersion) {
    throw IoError("store index: unsupported version " + std::to_string(version));
  }
  const std::uint64_t count = reader.u64();
  // A forged trailer can carry any count: refuse one the bytes left cannot
  // hold before reserving for it.
  if (count > reader.remaining() / kMinRecordBytes) {
    throw IoError("store index: " + std::to_string(count) + " records cannot fit in " +
                  std::to_string(reader.remaining()) + " bytes");
  }
  std::vector<EntryRecord> entries;
  entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    EntryRecord e;
    e.pdb_id = reader.str();
    e.group = static_cast<char>(reader.u8());
    if (!valid_group(e.group)) {
      throw IoError("store index: entry '" + e.pdb_id + "' has bad group byte");
    }
    e.sequence = reader.str();
    e.length = static_cast<int>(reader.u32());
    e.qubits = static_cast<int>(reader.u32());
    e.best_affinity = double_from_bits(reader.u64());
    e.ca_rmsd = double_from_bits(reader.u64());
    for (ArtifactRef& a : e.artifacts) {
      a.hash = reader.str();
      if (a.hash.size() != 32) {
        throw IoError("store index: entry '" + e.pdb_id + "' has malformed hash");
      }
      a.size = reader.u64();
    }
    entries.push_back(std::move(e));
  }
  if (reader.remaining() != 0) {
    throw IoError("store index: trailing bytes after last record");
  }
  return entries;
}

// --- the store --------------------------------------------------------------

Store::Store(std::string root, std::size_t cache_capacity)
    : root_(std::move(root)), cache_(cache_capacity) {
  QDB_REQUIRE(!root_.empty(), "store root path must be non-empty");
  if (fs::exists(index_path())) {
    entries_ = parse_index(read_file(index_path()));
    rebuild_id_map();
  }
}

std::string Store::index_path() const { return root_ + "/index.qdbx"; }

std::string Store::blob_path(const std::string& hash) const {
  QDB_REQUIRE(hash.size() == 32, "content hash must be 32 hex chars, got '" << hash << "'");
  return root_ + "/blobs/" + hash.substr(0, 2) + "/" + hash;
}

void Store::rebuild_id_map() {
  by_id_.clear();
  by_id_.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    by_id_[entries_[i].pdb_id] = i;
  }
}

const EntryRecord* Store::find(std::string_view pdb_id) const {
  const auto it = by_id_.find(std::string(pdb_id));
  return it == by_id_.end() ? nullptr : &entries_[it->second];
}

IngestStats Store::ingest_dataset(const std::string& dataset_root) {
  obs::Span span("store.ingest");
  IngestStats st;
  for (const char* group : {"S", "M", "L"}) {
    const fs::path gdir = fs::path(dataset_root) / group;
    if (!fs::exists(gdir)) continue;
    // Deterministic entry order regardless of directory iteration order.
    std::vector<fs::path> dirs;
    for (const fs::directory_entry& de : fs::directory_iterator(gdir)) {
      if (de.is_directory()) dirs.push_back(de.path());
    }
    std::sort(dirs.begin(), dirs.end());

    for (const fs::path& dir : dirs) {
      EntryRecord rec;
      rec.pdb_id = dir.filename().string();
      rec.group = group[0];
      for (int i = 0; i < kArtifactCount; ++i) {
        const Artifact a = static_cast<Artifact>(i);
        const fs::path file = dir / artifact_filename(a);
        if (!fs::exists(file)) {
          throw IoError("store ingest: entry '" + rec.pdb_id + "' is missing " +
                        artifact_filename(a));
        }
        const std::string bytes = read_file(file.string());
        const std::string hash = content_hash(bytes).hex();
        ++st.artifacts_seen;
        const std::string bp = blob_path(hash);
        if (fs::exists(bp)) {
          ++st.blobs_deduplicated;
        } else {
          // Crash-consistent blob write: tmp + fsync + rename means a kill
          // here leaves either no blob or a complete one — and because blobs
          // are content-addressed, a complete blob is always correct.
          fault_site("store.ingest.io");
          write_file_atomic(bp, bytes);
          ++st.blobs_written;
          st.bytes_written += bytes.size();
        }
        rec.artifacts[i] = ArtifactRef{hash, bytes.size()};

        try {
          if (a == Artifact::Metadata) {
            const PredictionMetadata m = parse_prediction_metadata(Json::parse(bytes));
            rec.sequence = m.sequence;
            rec.length = m.sequence_length;
            rec.qubits = m.measured.qubits;
          } else if (a == Artifact::Docking) {
            const DockingSummary d = parse_docking_results(Json::parse(bytes));
            rec.best_affinity = d.best_affinity;
            rec.ca_rmsd = d.ca_rmsd_vs_reference;
          }
        } catch (const Error& e) {
          throw IoError("store ingest: entry '" + rec.pdb_id + "' has bad " +
                        artifact_filename(a) + ": " + e.what());
        }
      }
      ++st.entries_seen;
      // Upsert: a re-ingest of the same pdb_id replaces the record.
      const auto it = by_id_.find(rec.pdb_id);
      if (it != by_id_.end()) {
        entries_[it->second] = std::move(rec);
      } else {
        entries_.push_back(std::move(rec));
        by_id_[entries_.back().pdb_id] = entries_.size() - 1;
      }
    }
  }

  std::sort(entries_.begin(), entries_.end(),
            [](const EntryRecord& a, const EntryRecord& b) { return a.pdb_id < b.pdb_id; });
  rebuild_id_map();

  const std::string index_bytes = serialize_index(entries_);
  QDB_AUDIT(serialize_index(parse_index(index_bytes)) == index_bytes,
            "index must round-trip byte-identically");
  fault_site("store.index.write");
  write_file_atomic(index_path(), index_bytes);
  obs::counter("store.ingested_entries").add(st.entries_seen);
  obs::counter("store.blobs_written").add(st.blobs_written);
  obs::counter("store.blobs_deduplicated").add(st.blobs_deduplicated);
  obs::log_info("store.ingest")
      .kv("entries", st.entries_seen)
      .kv("blobs_written", st.blobs_written)
      .kv("deduplicated", st.blobs_deduplicated)
      .kv("bytes_written", st.bytes_written);
  return st;
}

std::string Store::put_blob(std::string_view bytes) const {
  const std::string hash = content_hash(bytes).hex();
  const std::string bp = blob_path(hash);
  static obs::Counter& deduplicated = obs::counter("store.blobs_deduplicated");
  static obs::Counter& written = obs::counter("store.blobs_written");
  if (fs::exists(bp)) {
    deduplicated.add();
    return hash;
  }
  // Same crash-consistency argument as ingest_dataset: tmp + fsync + rename
  // leaves either no blob or a complete one, and a complete content-addressed
  // blob is always correct.  Concurrent writers of the same bytes rename onto
  // the same path with identical contents, so last-rename-wins is harmless.
  fault_site("store.ingest.io");
  write_file_atomic(bp, std::string(bytes));
  written.add();
  return hash;
}

bool Store::has_blob(const std::string& hash) const {
  return fs::exists(blob_path(hash));
}

std::shared_ptr<const std::string> Store::read_blob(const std::string& hash) const {
  if (auto cached = cache_.get(hash)) return cached;
  auto blob = std::make_shared<const std::string>(read_file(blob_path(hash)));
  cache_.put(hash, blob);
  return blob;
}

std::shared_ptr<const std::string> Store::read_artifact(const EntryRecord& entry,
                                                        Artifact a) const {
  const ArtifactRef& ref = entry.artifact(a);
  QDB_REQUIRE(!ref.hash.empty(),
              "entry " << entry.pdb_id << " has no " << artifact_filename(a));
  static obs::Counter& cache_hits = obs::counter("store.cache.hits");
  static obs::Counter& cache_misses = obs::counter("store.cache.misses");
  if (auto cached = cache_.get(ref.hash)) {
    cache_hits.add();
    return cached;
  }
  cache_misses.add();
  auto blob = std::make_shared<const std::string>(read_file(blob_path(ref.hash)));
  QDB_ASSERT(blob->size() == ref.size,
             "blob " << ref.hash << " size " << blob->size() << " != indexed "
                     << ref.size);
  cache_.put(ref.hash, blob);
  return blob;
}

StoreStats Store::stats() const {
  StoreStats s;
  s.entries = entries_.size();
  std::unordered_set<std::string> distinct;
  for (const EntryRecord& e : entries_) {
    for (const ArtifactRef& a : e.artifacts) {
      s.logical_bytes += a.size;
      if (distinct.insert(a.hash).second) s.blob_bytes += a.size;
    }
  }
  s.blobs = distinct.size();
  return s;
}

}  // namespace qdb::store
