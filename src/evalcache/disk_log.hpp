#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/hash.hpp"

namespace nofis::evalcache {

/// On-disk format of one g-evaluation log (tier 2 of the cache):
///
///   header:  magic "NOFISEVC" | u32 version | u32 reserved
///            u64 dim | u32 key_len | key bytes
///   record:  u32 payload_len (= dim*8 + 8)
///            payload = dim input doubles, raw bits | g value, raw bits
///            u64 FNV-1a checksum of the payload
///
/// Records are append-only and each carries its own length and checksum, so
/// a crash mid-append can corrupt at most the unfinished tail: open() scans
/// forward, keeps every record that passes its length and checksum, and
/// truncates the file at the first torn or corrupt one. Values round-trip
/// as raw 8-byte patterns, so a cached g is returned bit-for-bit.
///
/// Sharing one --cache-dir (concurrent CLI runs, or the scheduler shards of
/// one server, each with its own open of the log): a sidecar
/// `<path>.lck` file is flock(2)ed around open/recovery, every append, and
/// compaction, so concurrent writers interleave whole records. Appends seek
/// to the true end of file under the lock (another process may have grown
/// it); every record in one log has the same size, so an unaligned tail left
/// by a crashed writer is repaired by truncating to the last record
/// boundary. A compaction by another process replaces the inode; append
/// detects that (stat) and transparently reopens, while reads keep using the
/// already-open (old) inode, where this process's offsets stay valid.
/// Duplicate rows appended by different processes are benign: g is pure,
/// and compaction dedups last-write-wins.
///
/// The log stores byte order of the machine that wrote it (cache files are
/// a local acceleration, not an interchange format); the header is enough
/// for `nofis_cli cache-info` to describe a file standalone.

/// FNV-1a over `n` bytes; the per-record checksum.
using util::fnv1a64;

/// Parsed header plus scan results of one log file.
struct LogInfo {
    std::string path;
    std::string case_key;       ///< cache namespace ("<case>#d<dim>")
    std::size_t dim = 0;
    std::size_t records = 0;    ///< records that passed checksum on scan
    std::uint64_t file_bytes = 0;
    std::uint64_t valid_bytes = 0;  ///< header + intact records
    bool tail_truncated = false;    ///< scan found a torn/corrupt tail
};

/// Result of rewriting a log with duplicate keys (last write wins) and any
/// torn tail dropped.
struct CompactResult {
    std::size_t records_before = 0;
    std::size_t records_after = 0;
    std::uint64_t bytes_before = 0;
    std::uint64_t bytes_after = 0;
};

/// One append-only evaluation log. Not internally synchronised: EvalCache
/// serialises access per namespace.
class DiskLog {
public:
    /// Opens (or creates) the log at `path` for namespace `case_key` with
    /// input dimension `dim`. Existing files are scanned; a torn tail is
    /// truncated so appends continue from the last intact record. Throws
    /// std::runtime_error on an unreadable file or a header that does not
    /// match (wrong magic/version/dim/key).
    DiskLog(std::string path, std::string case_key, std::size_t dim);

    /// Best-effort final sync; never throws.
    ~DiskLog();

    /// Invokes `fn(offset, x, value)` for every intact record, in append
    /// order. Offsets are stable (byte position of the record's payload).
    void scan(const std::function<void(std::uint64_t, std::span<const double>,
                                       double)>& fn);

    /// Appends one record and flushes; returns the payload offset. Every
    /// `kSyncEvery` appends the file is additionally fsynced (bounded-loss
    /// durability: a power cut costs at most the unsynced tail, which the
    /// next open truncates at the first torn record). Consults the global
    /// util::IoFaultInjector, so injected ENOSPC / torn-write / bit-flip
    /// faults exercise exactly this path.
    std::uint64_t append(std::span<const double> x, double value);

    /// Flushes stream buffers and fsyncs the log file. Throws
    /// std::runtime_error when the kernel reports the sync failed.
    void sync();

    /// Appends between automatic fsyncs (see append()).
    static constexpr std::size_t kSyncEvery = 64;

    /// Reads the record whose payload starts at `offset` into x_out/value.
    /// Returns false when the offset is out of range or the record fails
    /// its checksum (a compaction raced us, or the caller is confused).
    bool read_at(std::uint64_t offset, std::span<double> x_out,
                 double& value);

    std::size_t records() const noexcept { return records_; }
    std::uint64_t valid_bytes() const noexcept { return end_; }
    const std::string& path() const noexcept { return path_; }
    bool tail_was_truncated() const noexcept { return tail_truncated_; }

    std::size_t record_bytes() const noexcept {
        return 4 + payload_bytes() + 8;
    }
    std::size_t payload_bytes() const noexcept { return dim_ * 8 + 8; }

    /// Header + scan of an arbitrary log file, without opening it for
    /// writing. Returns std::nullopt when the file is not a NOFIS eval log.
    static std::optional<LogInfo> inspect(const std::string& path);

    /// Rewrites `path` keeping the last record per exact input row and
    /// dropping any torn tail; atomic (write temp + rename). Throws
    /// std::runtime_error when the file is not a valid log.
    static CompactResult compact(const std::string& path);

private:
    void open_and_recover();  ///< caller must hold the sidecar lock
    void write_header();
    void reopen_if_replaced();
    void seek_true_end();

    std::string path_;
    std::string case_key_;
    std::size_t dim_ = 0;
    std::fstream file_;
    int lock_fd_ = -1;           ///< sidecar `<path>.lck`, flock'd per append
    std::uint64_t ino_ = 0;      ///< inode backing file_; detects compaction
    std::uint64_t body_begin_ = 0;  ///< offset of the first record
    std::uint64_t end_ = 0;      ///< byte offset just past the last record
    std::size_t records_ = 0;
    std::size_t appends_since_sync_ = 0;
    bool tail_truncated_ = false;
};

}  // namespace nofis::evalcache
