// Planted lenient-number violations (4) plus near-misses that must stay
// clean: members, substrings, qualified non-std names, and the strict
// std::from_chars.
#include <charconv>
#include <cstdlib>
#include <string>

struct Parser;

void parse_badly(const std::string& s) {
  (void)std::strtod(s.c_str(), nullptr);  // hit
  (void)strtol(s.c_str(), nullptr, 10);   // hit
  (void)atoi(s.c_str());                  // hit
  (void)std::stoi(s);                     // hit
}

void near_misses(const std::string& s, Parser& p, Parser* q) {
  (void)p.strtod(s.c_str());  // member of another API
  (void)q->atof(s.c_str());   // member through a pointer
  (void)mine::atoi("1");      // qualified non-std name
  int my_atoi = 0;            // substring, not a call
  (void)my_atoi;
  int v = 0;
  (void)std::from_chars(s.data(), s.data() + s.size(), v);
}
