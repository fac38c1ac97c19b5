#include "src/util/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "src/obs/metrics.hpp"

namespace bonn {

namespace {

std::string trimmed(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

std::optional<long long> parse_int(const std::string& text) {
  const std::string t = trimmed(text);
  if (t.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(t.c_str(), &end, 10);
  if (errno == ERANGE || end == t.c_str() || *end != '\0') return std::nullopt;
  return v;
}

std::optional<double> parse_double(const std::string& text) {
  const std::string t = trimmed(text);
  if (t.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (errno == ERANGE || end == t.c_str() || *end != '\0') return std::nullopt;
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

namespace {

/// Shared tail of env_int/env_double: unset → nullopt; a value that fails
/// `parse` or lies outside [min, max] → nullopt plus an "env.parse" error.
template <class T, class Parse>
std::optional<T> env_value(const char* name, T min, T max, const char* what,
                           Parse parse, std::vector<FlowError>& errors) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  const std::optional<T> v = parse(raw);
  if (v && *v >= min && *v <= max) return v;
  append_error(errors, {"env.parse", std::string(name) + "='" + raw +
                                         "': expected " + what + " in [" +
                                         std::to_string(min) + ", " +
                                         std::to_string(max) + "]"});
  return std::nullopt;
}

}  // namespace

std::optional<long long> env_int(const char* name, long long min,
                                 long long max,
                                 std::vector<FlowError>& errors) {
  return env_value<long long>(name, min, max, "an integer", parse_int, errors);
}

std::optional<double> env_double(const char* name, double min, double max,
                                 std::vector<FlowError>& errors) {
  return env_value<double>(name, min, max, "a number", parse_double, errors);
}

std::optional<bool> env_bool(const char* name, std::vector<FlowError>& errors) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  if (const std::optional<bool> v = obs::parse_flag(raw)) return v;
  append_error(errors, {"env.parse", std::string(name) + "='" + raw +
                                         "': expected 1/y/yes/t/true/on or "
                                         "0/n/no/f/false/off"});
  return std::nullopt;
}

}  // namespace bonn
