#include "common/json.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/error.h"
#include "common/fault.h"

namespace qdb {

namespace {

[[noreturn]] void type_error(const char* want, Json::Type got) {
  static const char* names[] = {"null", "bool", "int", "double", "string", "array", "object"};
  throw Error(std::string("json: expected ") + want + ", got " +
              names[static_cast<int>(got)]);
}

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

std::int64_t Json::as_int() const {
  if (type_ != Type::Int) type_error("int", type_);
  return int_;
}

double Json::as_double() const {
  if (type_ == Type::Int) return static_cast<double>(int_);
  if (type_ != Type::Double) type_error("double", type_);
  return double_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) type_error("string", type_);
  return string_;
}

const JsonArray& Json::as_array() const {
  if (type_ != Type::Array) type_error("array", type_);
  return array_;
}

const JsonObject& Json::as_object() const {
  if (type_ != Type::Object) type_error("object", type_);
  return object_;
}

const Json& Json::at(std::string_view key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) return v;
  }
  throw Error("json: missing key '" + std::string(key) + "'");
}

bool Json::contains(std::string_view key) const {
  if (type_ != Type::Object) return false;
  for (const auto& [k, v] : object_) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

void Json::push_back(Json v) {
  if (type_ != Type::Array) type_error("array", type_);
  array_.push_back(std::move(v));
}

void Json::set(std::string key, Json v) {
  if (type_ != Type::Object) type_error("object", type_);
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
}

namespace {

void escape_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no NaN or infinity
    return;
  }
  // Shortest text that parses back to the same bits; 32 bytes hold any.
  char buf[32];
  const char* end = std::to_chars(buf, buf + sizeof buf, d).ptr;
  const std::string_view text(buf, static_cast<std::size_t>(end - buf));
  out += text;
  // Ensure a double stays a double on re-parse.
  if (text.find_first_of(".e") == std::string_view::npos) out += ".0";
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::string pad = pretty ? std::string(static_cast<std::size_t>(indent) * (depth + 1), ' ') : "";
  const std::string closepad = pretty ? std::string(static_cast<std::size_t>(indent) * depth, ' ') : "";
  const char* nl = pretty ? "\n" : "";
  const char* kv_sep = pretty ? ": " : ":";

  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Int: out += std::to_string(int_); break;
    case Type::Double: append_double(out, double_); break;
    case Type::String: escape_string(out, string_); break;
    case Type::Array: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < array_.size(); ++i) {
        out += pad;
        array_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < array_.size()) out += ',';
        out += nl;
      }
      out += closepad;
      out += ']';
      break;
    }
    case Type::Object: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < object_.size(); ++i) {
        out += pad;
        escape_string(out, object_[i].first);
        out += kv_sep;
        object_[i].second.dump_to(out, indent, depth + 1);
        if (i + 1 < object_.size()) out += ',';
        out += nl;
      }
      out += closepad;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) {
    throw ParseError("json at offset " + std::to_string(pos_) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // Bounded recursion: nested brackets fail instead of overflowing the stack.
      if (++depth_ > kMaxDepth) fail("nesting deeper than " + std::to_string(kMaxDepth));
      Json v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return Json(parse_string());
    if (consume_word("true")) return Json(true);
    if (consume_word("false")) return Json(false);
    if (consume_word("null")) return Json(nullptr);
    return parse_number();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad hex digit in \\u escape");
            }
            // Encode as UTF-8 (BMP only; dataset files are ASCII anyway).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    bool is_double = false;
    if (consume('.')) {
      is_double = true;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) fail("bad number");
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (!is_double) {
      std::int64_t v = 0;
      auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec == std::errc() && p == tok.data() + tok.size()) return Json(v);
    }
    double d = 0.0;
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc() || p != tok.data() + tok.size()) fail("bad number");
    return Json(d);
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return arr;
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (consume(']')) break;
      expect(',');
    }
    return arr;
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return obj;
    while (true) {
      skip_ws();
      std::string key = parse_string();
      if (obj.contains(key)) fail("duplicate key '" + key + "'");
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (consume('}')) break;
      expect(',');
    }
    return obj;
  }

  static constexpr int kMaxDepth = 512;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

namespace {

void ensure_parent_directories(const std::filesystem::path& p) {
  if (!p.has_parent_path()) return;
  std::error_code ec;
  std::filesystem::create_directories(p.parent_path(), ec);
  if (ec) {
    throw IoError("cannot create directory " + p.parent_path().string() + ": " + ec.message());
  }
}

}  // namespace

void write_file(const std::string& path, const std::string& contents) {
  fault_site("io.write");
  ensure_parent_directories(std::filesystem::path(path));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open for write: " + path);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out) throw IoError("write failed: " + path);
}

void write_file_atomic(const std::string& path, const std::string& contents) {
  fault_site("io.write");
  ensure_parent_directories(std::filesystem::path(path));
  const std::string tmp = path + ".tmp";
#if defined(_WIN32)
  // No fsync portability on Windows; fall back to write + rename.
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("cannot open for write: " + tmp);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) throw IoError("write failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw IoError("rename failed: " + tmp + " -> " + path);
  }
#else
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw IoError("cannot open for write: " + tmp + ": " + std::strerror(errno));
  std::size_t written = 0;
  while (written < contents.size()) {
    const ssize_t n = ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string why = std::strerror(errno);
      ::close(fd);
      ::unlink(tmp.c_str());
      throw IoError("write failed: " + tmp + ": " + why);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    throw IoError("fsync failed: " + tmp + ": " + why);
  }
  if (::close(fd) != 0) {
    const std::string why = std::strerror(errno);
    ::unlink(tmp.c_str());
    throw IoError("close failed: " + tmp + ": " + why);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = std::strerror(errno);
    ::unlink(tmp.c_str());
    throw IoError("rename failed: " + tmp + " -> " + path + ": " + why);
  }
  // Durability of the rename itself: fsync the containing directory
  // (best-effort — some filesystems refuse O_RDONLY directory fds).
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
#endif
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open for read: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Json record_header(const RecordHeader& header) {
  Json doc = Json::object();
  doc.set("kind", header.kind);
  doc.set("version", header.version);
  doc.set("options_fingerprint", static_cast<std::int64_t>(header.options_fingerprint));
  return doc;
}

void check_record_header(const Json& doc, const RecordHeader& expected,
                         std::string_view source) {
  const std::string where = std::string(source) + ": ";
  const auto field = [&](const char* key, Json::Type type) -> const Json& {
    if (!doc.contains(key) || doc.at(key).type() != type) {
      throw IoError(where + "not a " + expected.kind + " record (no " + key + ")");
    }
    return doc.at(key);
  };
  if (field("kind", Json::Type::String).as_string() != expected.kind) {
    throw IoError(where + "not a " + expected.kind + " record (kind '" +
                  doc.at("kind").as_string() + "')");
  }
  const std::int64_t version = field("version", Json::Type::Int).as_int();
  if (version != expected.version) {
    throw IoError(where + expected.kind + " version " + std::to_string(version) +
                  ", this build reads version " + std::to_string(expected.version));
  }
  const auto fingerprint =
      static_cast<std::uint64_t>(field("options_fingerprint", Json::Type::Int).as_int());
  if (fingerprint != expected.options_fingerprint) {
    throw IoError(where +
                  "written with different options (fingerprint mismatch); "
                  "refusing to resume, delete it to start over");
  }
}

std::optional<Json> read_record(const std::string& path, const RecordHeader& expected) {
  if (!std::filesystem::exists(path)) return std::nullopt;
  const std::string text = read_file(path);
  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const ParseError& ex) {
    throw IoError(path + " is corrupt: " + ex.what());
  }
  check_record_header(doc, expected, path);
  return doc;
}

}  // namespace qdb
