// The one request contract every HTTP route follows (DESIGN.md §9.4): each
// route declares its parameters once as a list of Field, request_params()
// checks a request against it, and respond() applies the one status rule —
// a RequestError answers with its status (400 malformed, 404 names
// nothing), any other exception with 500, always as {"error": "..."}.
#pragma once

#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/error.h"
#include "common/json.h"
#include "serve/http.h"

namespace qdb::serve {

/// `body`, dumped, as a JSON response with `status`.
HttpResponse json_response(int status, const Json& body);
/// The one error shape: {"error": message}.
HttpResponse error_response(int status, const std::string& message);
/// 405 naming the route's one method in the Allow header.
HttpResponse method_not_allowed(const char* allow);

/// A request a route refuses: 400 (malformed) or 404 (names nothing).
struct RequestError : std::runtime_error {
  RequestError(int code, const std::string& message) : std::runtime_error(message), status(code) {}
  int status;
};

[[noreturn]] void bad_request(const std::string& message);
[[noreturn]] void not_found(const std::string& message);

/// Run one route under the status rule.
template <typename Route>
HttpResponse respond(Route&& route) {
  try {
    return route();
  } catch (const RequestError& e) {
    return error_response(e.status, e.what());
  } catch (const std::exception& e) {
    return error_response(500, e.what());
  }
}

/// Decode bytes the client sent: a qdb::Error from `decode` (bad JSON, a
/// missing or mistyped field) is the client's fault, a 400.
template <typename Decode>
auto decode_request(Decode&& decode) -> decltype(decode()) {
  try {
    return decode();
  } catch (const Error& e) {
    throw RequestError(400, std::string("bad request body: ") + e.what());
  }
}

enum class FieldType { Int, Number, Bool, String, OneOf, Array, Object };

/// One parameter of a route.
struct Field {
  std::string_view key;
  FieldType type = FieldType::String;
  bool required = false;
  /// Int and Number: the allowed range, inclusive; Int bounds are integers.
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;          ///< Number: `min` itself is out of range
  std::string_view choices = {};  ///< OneOf: the allowed values, '|'-separated
};

using Fields = std::span<const Field>;

/// The checked parameters of one request.
struct Params {
  Json fields;  ///< an object: only keys the route declares, each checked

  /// The value of `key` as T, or nullopt when the request left it out.
  template <typename T>
  std::optional<T> get(std::string_view key) const {
    if (!fields.contains(key)) return std::nullopt;
    const Json& v = fields.at(key);
    if constexpr (std::is_same_v<T, bool>) return v.as_bool();
    else if constexpr (std::is_integral_v<T>) return static_cast<T>(v.as_int());
    else if constexpr (std::is_floating_point_v<T>) return v.as_double();
    else return v.as_string();
  }
};

/// The parameters of a request checked against its route's fields: a POST
/// carries them as one JSON object body, any other method in the query
/// string, whose numbers are read with Json's number grammar.  An unknown,
/// repeated, mistyped, out-of-range or missing required key is a 400, and
/// so is a parameter in the other place.
Params request_params(const HttpRequest& request, const std::string& body, Fields fields);

}  // namespace qdb::serve
