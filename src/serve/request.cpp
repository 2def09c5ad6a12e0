#include "serve/request.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/strings.h"

namespace qdb::serve {

HttpResponse json_response(int status, const Json& body) {
  HttpResponse resp;
  resp.status = status;
  resp.body = body.dump();
  return resp;
}

HttpResponse error_response(int status, const std::string& message) {
  Json body = Json::object();
  body.set("error", message);
  return json_response(status, body);
}

HttpResponse method_not_allowed(const char* allow) {
  HttpResponse resp = error_response(405, std::string("use ") + allow);
  resp.extra_headers.emplace_back("Allow", allow);
  return resp;
}

void bad_request(const std::string& message) { throw RequestError(400, message); }

void not_found(const std::string& message) { throw RequestError(404, message); }

namespace {

const Field* find_field(Fields fields, std::string_view key) {
  const auto it =
      std::find_if(fields.begin(), fields.end(), [&](const Field& f) { return f.key == key; });
  return it == fields.end() ? nullptr : &*it;
}

/// Whether `value` is one of the '|'-separated `choices`.
bool one_of(std::string_view choices, std::string_view value) {
  for (std::size_t begin = 0;;) {
    const std::size_t end = choices.find('|', begin);
    if (choices.substr(begin, end - begin) == value) return true;
    if (end == std::string_view::npos) return false;
    begin = end + 1;
  }
}

bool valid(const Field& f, const Json& v) {
  switch (f.type) {
    case FieldType::Int: {
      if (v.type() != Json::Type::Int) return false;
      // Int bounds are whole numbers, so the casts are exact.
      const std::int64_t i = v.as_int();
      return !(std::isfinite(f.min) && i < static_cast<std::int64_t>(f.min)) &&
             !(std::isfinite(f.max) && i > static_cast<std::int64_t>(f.max));
    }
    case FieldType::Number: {
      if (!v.is_number()) return false;
      const double d = v.as_double();
      return (f.min_open ? d > f.min : d >= f.min) && d <= f.max;
    }
    case FieldType::Bool: return v.type() == Json::Type::Bool;
    case FieldType::String: return v.is_string();
    case FieldType::OneOf: return v.is_string() && one_of(f.choices, v.as_string());
    case FieldType::Array: return v.is_array();
    case FieldType::Object: return v.is_object();
  }
  return false;
}

/// What `f` accepts, for the 400 message.
std::string expected(const Field& f) {
  static constexpr const char* kNames[] = {"an integer", "a number", "a boolean", "a string",
                                           "one of ",    "an array", "an object"};
  std::string text = std::string(kNames[static_cast<int>(f.type)]) + std::string(f.choices);
  if (std::isfinite(f.min) || std::isfinite(f.max)) {
    text += format(" in %s%.17g, %.17g]", f.min_open ? "(" : "[", f.min, f.max);
  }
  return text;
}

/// `doc`, an object, checked against the route's fields.
Params checked(Json doc, Fields fields) {
  for (const auto& [key, value] : doc.as_object()) {
    const Field* f = find_field(fields, key);
    if (f == nullptr) bad_request("unknown parameter '" + key + "'");
    if (!valid(*f, value)) bad_request(key + " must be " + expected(*f));
  }
  for (const Field& f : fields) {
    if (f.required && !doc.contains(f.key)) bad_request(std::string(f.key) + " is required");
  }
  return Params{std::move(doc)};
}

/// A query value as JSON: the text for string fields, otherwise the whole
/// value read with Json's grammar, no space allowed.  Text that is not one
/// JSON value stays a string, which the field's check then refuses by name.
Json query_value(const Field& f, const std::string& text) {
  if (f.type == FieldType::String || f.type == FieldType::OneOf ||
      text.find_first_of(" \t\n\r\f\v") != std::string::npos) {
    return Json(text);
  }
  try {
    return Json::parse(text);
  } catch (const ParseError&) {
    return Json(text);
  }
}

}  // namespace

Params request_params(const HttpRequest& request, const std::string& body, Fields fields) {
  if (request.method == "POST") {
    if (!request.query.empty()) bad_request(request.path + " takes a JSON body, not a query");
    Json doc = decode_request([&] { return Json::parse(body); });
    if (!doc.is_object()) bad_request("body must be a JSON object");
    return checked(std::move(doc), fields);
  }
  if (!body.empty()) bad_request("request bodies are not accepted");
  Json doc = Json::object();
  for (const auto& [key, text] : request.query) {
    if (doc.contains(key)) bad_request("duplicate parameter '" + key + "'");
    const Field* f = find_field(fields, key);
    doc.set(key, f == nullptr ? Json(text) : query_value(*f, text));
  }
  return checked(std::move(doc), fields);
}

}  // namespace qdb::serve
