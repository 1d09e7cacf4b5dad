#include "rng/engine.hpp"

#include "util/hash.hpp"

namespace nofis::rng {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Engine::Engine(std::uint64_t seed) {
    // Word i is the (i+1)-th splitmix64 output of a stream started at seed.
    for (std::size_t i = 0; i < s_.size(); ++i)
        s_[i] = util::splitmix64(seed + i * util::kGoldenGamma);
    // Guard against the (astronomically unlikely) all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Engine::result_type Engine::operator()() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double Engine::uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Engine::uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
}

std::uint64_t Engine::uniform_index(std::uint64_t n) noexcept {
    // Rejection-free multiply-shift; bias is negligible for n << 2^64.
    return static_cast<std::uint64_t>(
        static_cast<unsigned __int128>((*this)()) * n >> 64);
}

Engine Engine::split() noexcept {
    return Engine((*this)() ^ 0x2545f4914f6cdd1dULL);
}

Engine substream(std::uint64_t seed, std::uint64_t stream_id) noexcept {
    // Avalanche-mix the seed BEFORE folding in the id: xoring the id into
    // the merely-advanced state would alias the substream families of
    // nearby seeds (seed+gamma differs by 1 between seed 1 and 2, so
    // substream(1, i) would equal substream(2, i^1)). After full mixing,
    // a cross-seed collision needs mix(s1) ^ mix(s2) inside the id range —
    // vanishingly unlikely — and a second round decorrelates nearby ids.
    return Engine(util::splitmix64(util::splitmix64(seed) ^ stream_id));
}

}  // namespace nofis::rng
