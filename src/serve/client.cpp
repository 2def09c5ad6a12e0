#include "serve/client.h"

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qdb::serve {

HttpClient::HttpClient(std::string host, std::uint16_t port)
    : host_(std::move(host)), port_(port) {
  // Eager registration: the retry counter must be scrapeable from /metrics
  // as soon as any client exists, not only after the first stale-connection
  // retry actually fires.
  obs::counter("serve.client.retry");
}

void HttpClient::close() {
  sock_.close();
  buffer_.clear();
}

void HttpClient::ensure_connected() {
  if (!sock_.valid()) {
    sock_ = tcp_connect(host_, port_);
    buffer_.clear();
  }
}

HttpClientResponse HttpClient::get(
    const std::string& target,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  return request("GET", target, "", extra_headers);
}

HttpClientResponse HttpClient::post(
    const std::string& target, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  return request("POST", target, body, extra_headers);
}

HttpClientResponse HttpClient::request(
    const std::string& method, const std::string& target, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  const bool fresh = !sock_.valid();
  try {
    return request_once(method, target, body, extra_headers);
  } catch (const IoError&) {
    if (fresh) throw;  // a brand-new connection failing is a real error
    // A stale keep-alive connection the server has since closed: reconnect
    // once and retry.  GETs are idempotent outright; the POSTing job
    // endpoints are idempotent at the application layer (see post()).
    static obs::Counter& retries = obs::counter("serve.client.retry");
    retries.add();
    close();
    return request_once(method, target, body, extra_headers);
  }
}

HttpClientResponse HttpClient::request_once(
    const std::string& method, const std::string& target, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  ensure_connected();

  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: " + host_ + ":" + std::to_string(port_) + "\r\n";
  request += "Connection: keep-alive\r\n";
  if (!body.empty() || method == "POST") {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    request += "Content-Type: application/json\r\n";
  }
  for (const auto& [name, value] : extra_headers) {
    request += name + ": " + value + "\r\n";
  }
  // Distributed-trace propagation (ISSUE 10): when the calling thread is
  // inside a span, hand its context to the server.  A bare root context
  // (span id 0) is deliberately NOT injected — W3C forbids a zero parent
  // id, and the receiving server synthesising its own root is exactly the
  // right fallback.  An explicit caller-provided header wins.
  const obs::TraceContext ctx = obs::current_trace_context();
  if (ctx.valid() && ctx.span_id != 0) {
    bool caller_provided = false;
    for (const auto& [name, value] : extra_headers) {
      caller_provided = caller_provided || name == obs::kTraceparentHeader;
    }
    if (!caller_provided) {
      request += std::string(obs::kTraceparentHeader) + ": " +
                 obs::format_traceparent(ctx) + "\r\n";
    }
  }
  request += "\r\n";
  request += body;
  send_all(sock_, request);

  // Read until the head is complete.
  char chunk[4096];
  std::size_t head_end;
  for (;;) {
    head_end = buffer_.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    const std::size_t n = recv_some(sock_, chunk, sizeof chunk);
    if (n == 0) throw IoError("connection closed before response head");
    buffer_.append(chunk, n);
  }

  HttpClientResponse response;
  if (!parse_response_head(std::string_view(buffer_).substr(0, head_end), &response)) {
    throw ParseError("malformed HTTP response head");
  }
  buffer_.erase(0, head_end + 4);

  std::size_t body_size = 0;
  if (response.status != 204 && response.status != 304) {
    const std::string* len = response.header("content-length");
    if (len == nullptr) throw ParseError("response lacks Content-Length");
    if (!parse_content_length(*len, &body_size)) {
      throw ParseError("bad Content-Length '" + *len + "'");
    }
  }

  while (buffer_.size() < body_size) {
    const std::size_t n = recv_some(sock_, chunk, sizeof chunk);
    if (n == 0) throw IoError("connection closed mid-body");
    buffer_.append(chunk, n);
  }
  response.body = buffer_.substr(0, body_size);
  buffer_.erase(0, body_size);

  // Honour a server-side close so the next get() reconnects cleanly.
  const std::string* conn = response.header("connection");
  if (conn != nullptr && *conn == "close") {
    sock_.close();
    buffer_.clear();
  }
  return response;
}

}  // namespace qdb::serve
