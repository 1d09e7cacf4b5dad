#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace nofis::util {

/// The repo's one text codec for numbers: `.nofisflow` models, the JSON
/// codec (wire, metrics records) and the CLI flags all cross between doubles
/// and text here, on <charconv>.
///
/// A token is exactly one number or nothing. parse_u64 takes only
/// decimal digits (no sign, no whitespace, no trailing bytes, at most
/// 2^64 - 1). parse_double takes std::from_chars' general syntax — an
/// optional '-', digits with an optional '.', an optional exponent — and
/// only a finite result: a leading '+', hex, "inf"/"nan", overflow and a
/// nonzero literal that rounds to zero are all rejected, while denormals
/// parse. They return std::nullopt instead of throwing so each caller
/// chooses its failure (the flag helpers in bench_common exit 2, the JSON
/// parser throws a positioned parse error, load_stack a "flow
/// serialisation:" error).
std::optional<std::uint64_t> parse_u64(std::string_view s);
std::optional<double> parse_double(std::string_view s);

/// Most chars format_double writes: "-1.2345678901234567e-308".
inline constexpr std::size_t kMaxDoubleChars = 24;

/// Spells `v` as printf's "%.17g" (std::to_chars, general, precision 17):
/// one spelling per double, and parse_double reads it back bit for bit.
/// Writes at most kMaxDoubleChars chars at `out`, no terminator, and
/// returns one past the last. Non-finite values spell "inf", "-inf", "nan"
/// or "-nan"; parse_double rejects those.
char* format_double(double v, char* out) noexcept;

}  // namespace nofis::util
