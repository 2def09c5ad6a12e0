// Minimal JSON document model, writer, and parser.
//
// QDockBank stores per-entry prediction metadata and docking results as JSON
// files (paper §4.2).  This is a small, dependency-free implementation that
// covers the subset of JSON the dataset uses: objects with ordered keys,
// arrays, strings, doubles, integers, booleans and null.
//
// Doubles are written as the shortest decimal that parses back to the same
// bits, so dump -> parse is exact and no record needs a bit-pattern copy of
// its doubles.  Non-finite doubles are written as null.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qdb {

class Json;

using JsonArray = std::vector<Json>;
/// Object keys keep insertion order so emitted files are stable and diffable.
using JsonObject = std::vector<std::pair<std::string, Json>>;

/// A JSON value.  Numbers distinguish integers from doubles so qubit counts
/// round-trip exactly while energies keep full precision.
class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  Json() : type_(Type::Null) {}
  Json(std::nullptr_t) : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(int i) : type_(Type::Int), int_(i) {}
  Json(std::int64_t i) : type_(Type::Int), int_(i) {}
  Json(std::uint64_t i) : type_(Type::Int), int_(static_cast<std::int64_t>(i)) {}
  Json(double d) : type_(Type::Double), double_(d) {}
  Json(const char* s) : type_(Type::String), string_(s) {}
  Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Json(JsonArray a) : type_(Type::Array), array_(std::move(a)) {}
  Json(JsonObject o) : type_(Type::Object), object_(std::move(o)) {}

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_number() const { return type_ == Type::Int || type_ == Type::Double; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  /// Accessors throw qdb::Error on type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;  // accepts Int too
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object field access; throws if not an object or key missing.
  const Json& at(std::string_view key) const;
  /// True if this is an object containing key.
  bool contains(std::string_view key) const;

  /// Append to an array value.
  void push_back(Json v);
  /// Set (or overwrite) an object field, preserving insertion order.
  void set(std::string key, Json v);

  /// Serialise.  indent < 0 means compact single-line output.
  std::string dump(int indent = 2) const;

  /// Parse a complete JSON document; throws qdb::ParseError on bad input,
  /// including a key repeated within one object and nesting deeper than
  /// 512 arrays or objects.
  static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

/// Write text to a file, creating parent directories; throws qdb::IoError.
void write_file(const std::string& path, const std::string& contents);

/// Crash-consistent write: the contents land in `path + ".tmp"`, are fsynced,
/// and are then renamed over `path` (with a best-effort directory fsync).
/// Readers therefore see either the complete old file or the complete new
/// file, never a torn write — the guarantee the batch checkpoint and the
/// dataset entry files rely on.  Throws qdb::IoError on any failure; on
/// failure the destination file is untouched.
void write_file_atomic(const std::string& path, const std::string& contents);

/// Read a whole file; throws qdb::IoError if unreadable.
std::string read_file(const std::string& path);

// --- durable records --------------------------------------------------------
//
// The batch checkpoint, the screen checkpoint and the coordinator journal are
// resume records: a killed run reloads one and must end with the same bytes
// as a run that was never killed.  Each starts with the same header, written
// by record_header and checked by check_record_header; saving is a plain
// write_file_atomic of the dumped document.

/// What a record is, which layout wrote it, and a fingerprint of the options
/// that shaped its contents.  A reader refuses any record whose header
/// differs from the one it would write itself.
struct RecordHeader {
  std::string kind;
  int version = 0;
  std::uint64_t options_fingerprint = 0;
};

/// A new object holding the header fields; the caller appends its payload.
Json record_header(const RecordHeader& header);

/// Throws qdb::IoError unless `doc` is an object carrying exactly `expected`'s
/// kind, version and fingerprint.  `source` names the document in messages.
void check_record_header(const Json& doc, const RecordHeader& expected,
                         std::string_view source);

/// Read the record at `path` and check its header.  Returns std::nullopt when
/// the file does not exist; throws qdb::IoError when it is unreadable, is not
/// JSON, or has a header other than `expected`.
std::optional<Json> read_record(const std::string& path, const RecordHeader& expected);

}  // namespace qdb
