#pragma once

#include <ios>

namespace nofis::util {

/// RAII guard for a stream's format state. Anything that needs a specific
/// precision or set of flags on a caller-provided stream (diagnostics'
/// setprecision(4)) wraps the write in one of these so the caller's
/// formatting is untouched after the call — previously it leaked into every
/// subsequent << on the stream.
class IosStateGuard {
public:
    explicit IosStateGuard(std::ios_base& stream)
        : stream_(stream),
          flags_(stream.flags()),
          precision_(stream.precision()),
          width_(stream.width()) {}

    ~IosStateGuard() {
        stream_.flags(flags_);
        stream_.precision(precision_);
        stream_.width(width_);
    }

    IosStateGuard(const IosStateGuard&) = delete;
    IosStateGuard& operator=(const IosStateGuard&) = delete;

private:
    std::ios_base& stream_;
    std::ios_base::fmtflags flags_;
    std::streamsize precision_;
    std::streamsize width_;
};

}  // namespace nofis::util
