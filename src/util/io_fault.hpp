#pragma once

#include <atomic>
#include <cstdint>

namespace nofis::util {

/// Deterministic I/O fault injection for the durable-write paths (checkpoint
/// snapshots, evalcache disk logs, atomic metric/model exports). Mirrors
/// testcases::FaultInjector's contract for g-evaluations: every injection
/// decision is a pure hash of (seed, operation index), so a given write or
/// read number always faults the same way no matter how callers interleave.
///
/// Rates are per-operation probabilities evaluated in a fixed order (at most
/// one fault per operation). Write operations consult enospc / torn-write /
/// corrupt-bit; read operations consult short-read / corrupt-bit.
struct IoFaultConfig {
    double enospc_rate = 0.0;       ///< fail a write with an ENOSPC-style error
    double torn_write_rate = 0.0;   ///< persist only a prefix of the bytes
    double corrupt_rate = 0.0;      ///< flip one bit of the payload
    double short_read_rate = 0.0;   ///< truncate / fail a read back
    std::uint64_t seed = 0x10faa1ULL;

    bool any() const noexcept {
        return enospc_rate > 0.0 || torn_write_rate > 0.0 ||
               corrupt_rate > 0.0 || short_read_rate > 0.0;
    }
};

/// What a single I/O operation should do.
enum class IoFault {
    kNone,
    kEnospc,      ///< write path: throw before any byte reaches the target
    kTornWrite,   ///< write path: only a prefix of the bytes is persisted
    kCorruptBit,  ///< either path: one payload bit is flipped
    kShortRead,   ///< read path: the read comes back truncated / failed
};

/// Thread-safe deterministic injector. Instances keep an exact ledger of
/// what they injected so tests can assert count-for-count against the
/// recovery paths, exactly like FaultInjector's g ledger.
class IoFaultInjector {
public:
    explicit IoFaultInjector(IoFaultConfig cfg) : cfg_(cfg) {}

    /// Decides the fate of the next write operation (atomic-file commit or
    /// disk-log append). Consumes one write-op index.
    IoFault next_write_fault() const noexcept;
    /// Decides the fate of the next read-back operation. Consumes one
    /// read-op index.
    IoFault next_read_fault() const noexcept;

    const IoFaultConfig& config() const noexcept { return cfg_; }

    // --- exact injection ledger ------------------------------------------
    std::size_t write_ops() const noexcept {
        return write_ops_.load(std::memory_order_relaxed);
    }
    std::size_t read_ops() const noexcept {
        return read_ops_.load(std::memory_order_relaxed);
    }
    std::size_t injected_enospc() const noexcept {
        return enospc_.load(std::memory_order_relaxed);
    }
    std::size_t injected_torn_writes() const noexcept {
        return torn_.load(std::memory_order_relaxed);
    }
    std::size_t injected_corrupt() const noexcept {
        return corrupt_.load(std::memory_order_relaxed);
    }
    std::size_t injected_short_reads() const noexcept {
        return short_read_.load(std::memory_order_relaxed);
    }
    std::size_t injected_total() const noexcept {
        return injected_enospc() + injected_torn_writes() +
               injected_corrupt() + injected_short_reads();
    }

private:
    IoFaultConfig cfg_;
    mutable std::atomic<std::size_t> write_ops_{0};
    mutable std::atomic<std::size_t> read_ops_{0};
    mutable std::atomic<std::size_t> enospc_{0};
    mutable std::atomic<std::size_t> torn_{0};
    mutable std::atomic<std::size_t> corrupt_{0};
    mutable std::atomic<std::size_t> short_read_{0};
};

/// Process-global injector consulted by AtomicFile and evalcache::DiskLog.
/// nullptr (the default) is the zero-cost off mode: one relaxed load and no
/// hashing on every durable write. Not owned; the installer keeps it alive.
IoFaultInjector* io_fault_injector() noexcept;

/// RAII installer: swaps the global injector in on construction and restores
/// the previous one on destruction (tests and FaultInjector use this so a
/// throwing test body can never leak faults into later tests).
class ScopedIoFaultInjector {
public:
    explicit ScopedIoFaultInjector(IoFaultInjector* injector);
    ~ScopedIoFaultInjector();
    ScopedIoFaultInjector(const ScopedIoFaultInjector&) = delete;
    ScopedIoFaultInjector& operator=(const ScopedIoFaultInjector&) = delete;

private:
    IoFaultInjector* previous_;
};

}  // namespace nofis::util
