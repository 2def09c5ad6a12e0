// Dependency-free HTTP/1.1 message parsing and serialisation (ISSUE 4).
//
// Covers exactly the subset the dataset service needs: GET requests with
// headers and query strings, POSTs with fixed Content-Length JSON bodies
// (the ISSUE 7 job API), fixed Content-Length responses, keep-alive.
// No chunked transfer, no continuation lines, no percent-decoding (PDB ids
// and query values are plain ASCII).  Pure functions over byte buffers —
// sockets live in net_socket.*, so every branch here is unit-testable
// without a listener.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qdb::serve {

/// A parsed request head.  Header names are lowercased; insertion order is
/// preserved (first match wins on lookup, like common/json.h objects).
struct HttpRequest {
  std::string method;   ///< e.g. "GET"
  std::string target;   ///< raw request target, e.g. "/entries?group=S"
  std::string path;     ///< target before '?', e.g. "/entries"
  std::string version;  ///< e.g. "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;  ///< lowercased names
  std::vector<std::pair<std::string, std::string>> query;    ///< decoded a=b pairs

  /// First header with this (lowercase) name, or nullptr.
  const std::string* header(std::string_view name) const;
  /// First query parameter with this name, or nullptr.
  const std::string* query_param(std::string_view name) const;
  /// True when the client asked to close after this exchange.
  bool wants_close() const;
};

/// Parse a request head (request line + headers; `head` must not include the
/// terminating blank line or any body bytes).  Returns false on malformed
/// input — the server answers 400 rather than throwing across a connection.
bool parse_request_head(std::string_view head, HttpRequest* out);

/// Split a request target into path + query pairs ("a=b&flag" parses the
/// bare "flag" as {"flag", ""}).
void split_target(std::string_view target, std::string* path,
                  std::vector<std::pair<std::string, std::string>>* query);

/// Strict Content-Length parsing: at most 18 digits and nothing else.
bool parse_content_length(std::string_view value, std::size_t* out);

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::vector<std::pair<std::string, std::string>> extra_headers;
  std::string body;
};

/// Canonical reason phrase for the status codes the service emits.
const char* status_reason(int status);

/// Serialise head + body.  Always emits Content-Length; 204/304 suppress the
/// body per RFC 9110 (Content-Length: 0).  `keep_alive` selects the
/// Connection header.
std::string serialize_response(const HttpResponse& resp, bool keep_alive);

/// A parsed response (client side).
struct HttpClientResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;  ///< lowercased names
  std::string body;

  const std::string* header(std::string_view name) const;
};

/// Parse a response head (status line + headers, no blank line / body).
/// Returns false on malformed input.
bool parse_response_head(std::string_view head, HttpClientResponse* out);

}  // namespace qdb::serve
