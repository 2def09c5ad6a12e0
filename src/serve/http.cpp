#include "serve/http.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"

namespace qdb::serve {

namespace {

const std::string* find_pair(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    std::string_view name) {
  for (const auto& [key, value] : pairs) {
    if (key == name) return &value;
  }
  return nullptr;
}

/// Split "Name: value" lines separated by CRLF (or bare LF, leniently).
bool parse_header_lines(std::string_view text,
                        std::vector<std::pair<std::string, std::string>>* out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    out->emplace_back(to_lower(trim(line.substr(0, colon))),
                      std::string(trim(line.substr(colon + 1))));
  }
  return true;
}

}  // namespace

const std::string* HttpRequest::header(std::string_view name) const {
  return find_pair(headers, name);
}

const std::string* HttpRequest::query_param(std::string_view name) const {
  return find_pair(query, name);
}

bool HttpRequest::wants_close() const {
  const std::string* conn = header("connection");
  return conn != nullptr && to_lower(*conn) == "close";
}

void split_target(std::string_view target, std::string* path,
                  std::vector<std::pair<std::string, std::string>>* query) {
  const std::size_t q = target.find('?');
  *path = std::string(target.substr(0, q));
  query->clear();
  if (q == std::string_view::npos) return;
  for (const std::string& pair : split(target.substr(q + 1), '&')) {
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      query->emplace_back(pair, "");
    } else {
      query->emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    }
  }
}

bool parse_request_head(std::string_view head, HttpRequest* out) {
  *out = HttpRequest{};
  std::size_t eol = head.find('\n');
  std::string_view line = head.substr(0, eol == std::string_view::npos ? head.size() : eol);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

  // "<METHOD> <target> <HTTP/x.y>"
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  out->method = std::string(line.substr(0, sp1));
  out->target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  out->version = std::string(line.substr(sp2 + 1));
  if (out->method.empty() || out->target.empty() || out->target[0] != '/') return false;
  if (!starts_with(out->version, "HTTP/1.")) return false;

  split_target(out->target, &out->path, &out->query);
  if (eol == std::string_view::npos) return true;
  return parse_header_lines(head.substr(eol + 1), &out->headers);
}

bool parse_content_length(std::string_view value, std::size_t* out) {
  if (value.empty() || value.size() > 18) return false;
  std::size_t v = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::size_t>(c - '0');
  }
  *out = v;
  return true;
}

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Content Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string serialize_response(const HttpResponse& resp, bool keep_alive) {
  const bool bodyless = resp.status == 204 || resp.status == 304;
  const std::size_t body_size = bodyless ? 0 : resp.body.size();
  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    status_reason(resp.status) + "\r\n";
  if (!bodyless) {
    out += "Content-Type: " + resp.content_type + "\r\n";
  }
  out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : resp.extra_headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  if (!bodyless) out += resp.body;
  return out;
}

const std::string* HttpClientResponse::header(std::string_view name) const {
  return find_pair(headers, name);
}

bool parse_response_head(std::string_view head, HttpClientResponse* out) {
  *out = HttpClientResponse{};
  std::size_t eol = head.find('\n');
  std::string_view line = head.substr(0, eol == std::string_view::npos ? head.size() : eol);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

  // "HTTP/1.1 <code> <reason>"
  if (!starts_with(line, "HTTP/1.")) return false;
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || sp1 + 4 > line.size()) return false;
  int status = 0;
  for (std::size_t i = sp1 + 1; i < line.size() && line[i] != ' '; ++i) {
    if (std::isdigit(static_cast<unsigned char>(line[i])) == 0) return false;
    status = status * 10 + (line[i] - '0');
  }
  if (status < 100 || status > 599) return false;
  out->status = status;
  if (eol == std::string_view::npos) return true;
  return parse_header_lines(head.substr(eol + 1), &out->headers);
}

}  // namespace qdb::serve
