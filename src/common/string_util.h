#ifndef PAFEAT_COMMON_STRING_UTIL_H_
#define PAFEAT_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace pafeat {

// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Removes leading and trailing whitespace.
std::string Trim(std::string_view text);

// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

// Parses helpers returning false on malformed input instead of throwing.
// ParseInt rejects values outside int range rather than wrapping them;
// ParseDouble rejects non-finite values ("nan", "inf", overflow such as
// "1e400"); ParseFloat also rejects finite values beyond float range.
bool ParseInt(std::string_view text, int* out);
bool ParseDouble(std::string_view text, double* out);
bool ParseFloat(std::string_view text, float* out);

}  // namespace pafeat

#endif  // PAFEAT_COMMON_STRING_UTIL_H_
