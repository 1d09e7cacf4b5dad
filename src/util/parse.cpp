#include "util/parse.hpp"

#include <charconv>
#include <cmath>

namespace nofis::util {

std::optional<std::uint64_t> parse_u64(std::string_view s) {
    std::uint64_t v = 0;
    const char* end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return v;
}

std::optional<double> parse_double(std::string_view s) {
    double v = 0.0;
    const char* end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc{} || ptr != end || !std::isfinite(v))
        return std::nullopt;
    return v;
}

char* format_double(double v, char* out) noexcept {
    return std::to_chars(out, out + kMaxDoubleChars, v,
                         std::chars_format::general, 17)
        .ptr;
}

}  // namespace nofis::util
