// Small string/format helpers shared by the library, benches and tools.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace qdb {

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Format a double with fixed decimals, e.g. format_fixed(3.14159, 3) == "3.142".
std::string format_fixed(double value, int decimals);

/// Split on a single character, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Uppercase/lowercase ASCII copies.
std::string to_upper(std::string_view s);
std::string to_lower(std::string_view s);

/// True if s begins with prefix.
bool starts_with(std::string_view s, std::string_view prefix);

/// Parse 1-16 lowercase hex digits (trace and span ids) into *out.  Empty
/// input, more than 16 digits and uppercase are rejected and leave *out
/// untouched; callers check their exact field width themselves.
bool parse_hex_u64(std::string_view s, std::uint64_t* out);

/// Append `name=value;` to an options-fingerprint digest (doubles as %.17g,
/// exact to the bit).  The digest text is what a fingerprint hashes, so it
/// must not change: checkpoints written under the old text would stop
/// resuming.
void fingerprint_field(std::string& digest, const char* name, double value);
void fingerprint_field(std::string& digest, const char* name, long long value);

}  // namespace qdb
