#pragma once

#include <cstddef>
#include <cstdint>

namespace nofis::util {

/// FNV-1a offset basis: the hash of zero bytes.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over `n` bytes, continuing from `h` (pass the running
/// value to hash a stream in pieces). The one byte hash behind snapshot and
/// cache-log checksums, run fingerprints, evalcache keys and serving routes.
inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                             std::uint64_t h = kFnv1aBasis) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// The splitmix64 increment (2^64 / golden ratio).
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// One splitmix64 output for state `z`: advance by kGoldenGamma, then the
/// avalanche finaliser. rng::Engine seeds from it, and every pure
/// (seed, index) -> bits derivation (fault decisions, retry jitter seeds)
/// goes through it, so none of them needs mutable generator state.
inline std::uint64_t splitmix64(std::uint64_t z) noexcept {
    z += kGoldenGamma;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Uniform double in [0, 1) as a pure hash of (seed, index): the same call
/// number always gets the same draw, however callers interleave. `stream`
/// tags independent decision families sharing one seed.
inline double hash_uniform(std::uint64_t seed, std::uint64_t index,
                           std::uint64_t stream = 0) noexcept {
    const std::uint64_t bits = splitmix64(splitmix64(seed ^ stream) ^ index);
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace nofis::util
