#include "common/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace pafeat {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result.append(sep);
    result.append(parts[i]);
  }
  return result;
}

std::string Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

std::string FormatDouble(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ParseInt(std::string_view text, int* out) {
  std::string owned = Trim(text);
  if (owned.empty()) return false;
  char* end = nullptr;
  // strtoll saturates past the long long range, so anything it returns
  // outside int range is out of range here.
  const long long value = std::strtoll(owned.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' ||
      value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ParseDouble(std::string_view text, double* out) {
  std::string owned = Trim(text);
  if (owned.empty()) return false;
  char* end = nullptr;
  double value = std::strtod(owned.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool ParseFloat(std::string_view text, float* out) {
  double value = 0.0;
  if (!ParseDouble(text, &value)) return false;
  // A double beyond float range has no float to convert to (undefined
  // behaviour), so it is malformed input here.
  if (std::fabs(value) > std::numeric_limits<float>::max()) return false;
  *out = static_cast<float>(value);
  return true;
}

}  // namespace pafeat
