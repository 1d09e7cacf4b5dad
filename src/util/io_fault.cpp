#include "util/io_fault.hpp"

namespace nofis::util {

namespace {

/// splitmix64 finaliser — the same mixer testcases::FaultInjector uses, so
/// (seed, op index) yields an i.i.d.-quality uniform without mutable state.
std::uint64_t mix64(std::uint64_t z) noexcept {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double hash_uniform(std::uint64_t seed, std::uint64_t index,
                    std::uint64_t stream) noexcept {
    const std::uint64_t bits = mix64(mix64(seed ^ stream) ^ index);
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

// Distinct stream tags so write-op and read-op decisions never alias.
constexpr std::uint64_t kWriteStream = 0x77ULL;
constexpr std::uint64_t kReadStream = 0x72ULL;

std::atomic<IoFaultInjector*> g_injector{nullptr};

}  // namespace

IoFault IoFaultInjector::next_write_fault() const noexcept {
    const std::size_t index =
        write_ops_.fetch_add(1, std::memory_order_relaxed);
    const double u = hash_uniform(cfg_.seed, index, kWriteStream);
    double edge = cfg_.enospc_rate;
    if (u < edge) {
        enospc_.fetch_add(1, std::memory_order_relaxed);
        return IoFault::kEnospc;
    }
    edge += cfg_.torn_write_rate;
    if (u < edge) {
        torn_.fetch_add(1, std::memory_order_relaxed);
        return IoFault::kTornWrite;
    }
    edge += cfg_.corrupt_rate;
    if (u < edge) {
        corrupt_.fetch_add(1, std::memory_order_relaxed);
        return IoFault::kCorruptBit;
    }
    return IoFault::kNone;
}

IoFault IoFaultInjector::next_read_fault() const noexcept {
    const std::size_t index =
        read_ops_.fetch_add(1, std::memory_order_relaxed);
    const double u = hash_uniform(cfg_.seed, index, kReadStream);
    double edge = cfg_.short_read_rate;
    if (u < edge) {
        short_read_.fetch_add(1, std::memory_order_relaxed);
        return IoFault::kShortRead;
    }
    edge += cfg_.corrupt_rate;
    if (u < edge) {
        corrupt_.fetch_add(1, std::memory_order_relaxed);
        return IoFault::kCorruptBit;
    }
    return IoFault::kNone;
}

IoFaultInjector* io_fault_injector() noexcept {
    return g_injector.load(std::memory_order_relaxed);
}

ScopedIoFaultInjector::ScopedIoFaultInjector(IoFaultInjector* injector)
    : previous_(g_injector.exchange(injector, std::memory_order_relaxed)) {}

ScopedIoFaultInjector::~ScopedIoFaultInjector() {
    g_injector.store(previous_, std::memory_order_relaxed);
}

}  // namespace nofis::util
