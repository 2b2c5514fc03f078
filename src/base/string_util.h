#ifndef CRSAT_BASE_STRING_UTIL_H_
#define CRSAT_BASE_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace crsat {

/// Joins the elements of `parts` with `separator` between consecutive items.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Splits `text` on `separator`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char separator);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// True iff `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Escapes `text` for the inside of a JSON string literal: `"` and `\`,
/// the short forms `\n`, `\r`, `\t`, and `\u00XX` for every other
/// control character (JSON forbids them raw).
std::string JsonEscape(std::string_view text);

}  // namespace crsat

#endif  // CRSAT_BASE_STRING_UTIL_H_
