#include "evalcache/disk_log.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "util/atomic_file.hpp"
#include "util/io_fault.hpp"

namespace nofis::evalcache {

namespace {

constexpr char kMagic[8] = {'N', 'O', 'F', 'I', 'S', 'E', 'V', 'C'};
constexpr std::uint32_t kVersion = 1;

/// Opens the sidecar lock file guarding cross-process access to `path`.
/// Returns -1 when it cannot be created; locking then degrades to a no-op,
/// which is the historical single-process behaviour.
int open_lock_file(const std::string& path) {
    return ::open((path + ".lck").c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                  0644);
}

/// RAII flock(LOCK_EX) over a sidecar fd; no-op when fd < 0. flock locks
/// the open file description, so two DiskLog instances exclude each other
/// even inside one process.
class ScopedFlock {
public:
    explicit ScopedFlock(int fd) : fd_(fd) {
        if (fd_ >= 0)
            while (::flock(fd_, LOCK_EX) != 0 && errno == EINTR) {
            }
    }
    ~ScopedFlock() {
        if (fd_ >= 0) ::flock(fd_, LOCK_UN);
    }
    ScopedFlock(const ScopedFlock&) = delete;
    ScopedFlock& operator=(const ScopedFlock&) = delete;

private:
    int fd_ = -1;
};

struct FdCloser {
    int fd = -1;
    ~FdCloser() {
        if (fd >= 0) ::close(fd);
    }
};

std::uint64_t inode_of(const std::string& path) {
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0) return 0;
    return static_cast<std::uint64_t>(st.st_ino);
}

struct RawHeader {
    char magic[8];
    std::uint32_t version;
    std::uint32_t reserved;
    std::uint64_t dim;
    std::uint32_t key_len;
};

template <typename T>
bool read_pod(std::istream& is, T& out) {
    is.read(reinterpret_cast<char*>(&out), sizeof(T));
    return is.gcount() == static_cast<std::streamsize>(sizeof(T));
}

template <typename T>
void write_pod(std::ostream& os, const T& v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Reads the header; returns the (case_key, dim, payload-start offset) or
/// nullopt when the file does not start with a valid header.
struct ParsedHeader {
    std::string case_key;
    std::size_t dim;
    std::uint64_t body_begin;
};

std::optional<ParsedHeader> parse_header(std::istream& is) {
    RawHeader h{};
    is.seekg(0);
    if (!read_pod(is, h)) return std::nullopt;
    if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) return std::nullopt;
    if (h.version != kVersion) return std::nullopt;
    if (h.key_len == 0 || h.key_len > 4096) return std::nullopt;
    std::string key(h.key_len, '\0');
    is.read(key.data(), h.key_len);
    if (is.gcount() != static_cast<std::streamsize>(h.key_len))
        return std::nullopt;
    return ParsedHeader{std::move(key), static_cast<std::size_t>(h.dim),
                        sizeof(RawHeader) + h.key_len};
}

/// Scans records from `begin`; calls fn(payload_offset, payload) for each
/// intact record and returns the offset just past the last one.
std::uint64_t scan_records(
    std::istream& is, std::uint64_t begin, std::size_t dim,
    std::uint64_t file_size, bool& tail_truncated,
    const std::function<void(std::uint64_t, const std::vector<char>&)>& fn) {
    const std::size_t payload_len = dim * 8 + 8;
    std::vector<char> payload(payload_len);
    std::uint64_t pos = begin;
    tail_truncated = false;
    is.clear();
    while (pos + 4 + payload_len + 8 <= file_size) {
        is.seekg(static_cast<std::streamoff>(pos));
        std::uint32_t len = 0;
        std::uint64_t checksum = 0;
        if (!read_pod(is, len) || len != payload_len) break;
        is.read(payload.data(), static_cast<std::streamsize>(payload_len));
        if (is.gcount() != static_cast<std::streamsize>(payload_len)) break;
        if (!read_pod(is, checksum)) break;
        if (checksum != fnv1a64(payload.data(), payload_len)) break;
        fn(pos + 4, payload);
        pos += 4 + payload_len + 8;
    }
    if (pos < file_size) tail_truncated = true;
    is.clear();
    return pos;
}

}  // namespace

DiskLog::DiskLog(std::string path, std::string case_key, std::size_t dim)
    : path_(std::move(path)), case_key_(std::move(case_key)), dim_(dim) {
    if (dim_ == 0) throw std::runtime_error("DiskLog: dim must be positive");
    lock_fd_ = open_lock_file(path_);
    const ScopedFlock guard(lock_fd_);
    open_and_recover();
}

DiskLog::~DiskLog() {
    try {
        if (file_.is_open()) sync();
    } catch (...) {
        // Destructor sync is best-effort; the checksummed format makes an
        // unsynced tail recoverable (truncated) on the next open.
    }
    if (lock_fd_ >= 0) ::close(lock_fd_);
}

void DiskLog::sync() {
    file_.flush();
    util::fsync_path(path_);
    appends_since_sync_ = 0;
}

void DiskLog::write_header() {
    RawHeader h{};
    std::memcpy(h.magic, kMagic, sizeof(kMagic));
    h.version = kVersion;
    h.reserved = 0;
    h.dim = dim_;
    h.key_len = static_cast<std::uint32_t>(case_key_.size());
    write_pod(file_, h);
    file_.write(case_key_.data(),
                static_cast<std::streamsize>(case_key_.size()));
    file_.flush();
    end_ = sizeof(RawHeader) + case_key_.size();
}

void DiskLog::open_and_recover() {
    namespace fs = std::filesystem;
    std::error_code ec;
    const bool exists = fs::exists(path_, ec) && fs::file_size(path_, ec) > 0;

    if (!exists) {
        file_.open(path_, std::ios::out | std::ios::binary | std::ios::trunc);
        if (!file_)
            throw std::runtime_error("DiskLog: cannot create '" + path_ + "'");
        write_header();
        file_.close();
    } else {
        std::ifstream is(path_, std::ios::binary);
        if (!is)
            throw std::runtime_error("DiskLog: cannot open '" + path_ + "'");
        const auto header = parse_header(is);
        if (!header)
            throw std::runtime_error("DiskLog: '" + path_ +
                                     "' is not a NOFIS eval log");
        if (header->dim != dim_ || header->case_key != case_key_)
            throw std::runtime_error(
                "DiskLog: '" + path_ + "' belongs to '" + header->case_key +
                "' (dim " + std::to_string(header->dim) +
                "), expected '" + case_key_ + "' (dim " +
                std::to_string(dim_) + ")");
        const std::uint64_t file_size = fs::file_size(path_);
        records_ = 0;
        end_ = scan_records(is, header->body_begin, dim_, file_size,
                            tail_truncated_,
                            [&](std::uint64_t, const std::vector<char>&) {
                                ++records_;
                            });
        is.close();
        // Drop the torn tail on disk so every later reader (and the append
        // position below) sees only intact records.
        if (end_ < file_size) fs::resize_file(path_, end_, ec);
    }

    file_.open(path_, std::ios::in | std::ios::out | std::ios::binary);
    if (!file_)
        throw std::runtime_error("DiskLog: cannot reopen '" + path_ + "'");
    file_.seekp(static_cast<std::streamoff>(end_));
    body_begin_ = sizeof(RawHeader) + case_key_.size();
    ino_ = inode_of(path_);
}

void DiskLog::reopen_if_replaced() {
    // A compaction in another process replaced the inode (rename over the
    // path). Our reads keep working against the old inode — this process's
    // offsets are only valid there — but appends must land in the live file
    // or they would vanish when the old inode's last fd closes.
    const std::uint64_t ino = inode_of(path_);
    if (ino == ino_ && ino != 0) return;
    file_.close();
    open_and_recover();
}

void DiskLog::seek_true_end() {
    // Another process may have appended since our last look: the true end
    // is the file size, rounded down to a record boundary (every record in
    // one log has the same size). An unaligned tail means a writer died
    // mid-append; truncating it repairs the log for everyone.
    std::error_code ec;
    const std::uint64_t size = std::filesystem::file_size(path_, ec);
    if (ec || size < body_begin_) return;  // keep our view; append verifies
    const std::uint64_t aligned =
        body_begin_ + (size - body_begin_) / record_bytes() * record_bytes();
    if (aligned < size) std::filesystem::resize_file(path_, aligned, ec);
    if (aligned != end_) {
        end_ = aligned;
        records_ =
            static_cast<std::size_t>((end_ - body_begin_) / record_bytes());
    }
}

void DiskLog::scan(const std::function<void(std::uint64_t,
                                            std::span<const double>, double)>&
                       fn) {
    std::vector<double> x(dim_);
    bool torn = false;
    scan_records(
        file_, sizeof(RawHeader) + case_key_.size(), dim_, end_, torn,
        [&](std::uint64_t payload_offset, const std::vector<char>& payload) {
            std::memcpy(x.data(), payload.data(), dim_ * 8);
            double v = 0.0;
            std::memcpy(&v, payload.data() + dim_ * 8, 8);
            fn(payload_offset, x, v);
        });
}

std::uint64_t DiskLog::append(std::span<const double> x, double value) {
    if (x.size() != dim_)
        throw std::invalid_argument("DiskLog::append: dimension mismatch");
    const ScopedFlock guard(lock_fd_);
    reopen_if_replaced();
    seek_true_end();
    std::vector<char> payload(x.size_bytes() + 8);
    std::memcpy(payload.data(), x.data(), x.size_bytes());
    std::memcpy(payload.data() + x.size_bytes(), &value, 8);
    const std::uint64_t payload_offset = end_ + 4;
    // The checksum always covers the TRUE payload; an injected bit-flip
    // below therefore produces a record that fails verification on read —
    // exactly what real silent corruption looks like.
    const std::uint64_t checksum = fnv1a64(payload.data(), payload.size());

    util::IoFault fault = util::IoFault::kNone;
    if (util::IoFaultInjector* inj = util::io_fault_injector())
        fault = inj->next_write_fault();
    if (fault == util::IoFault::kEnospc)
        throw std::runtime_error("DiskLog: injected ENOSPC on '" + path_ +
                                 "'");
    if (fault == util::IoFault::kCorruptBit)
        payload[0] = static_cast<char>(payload[0] ^ 0x01);

    file_.clear();
    file_.seekp(static_cast<std::streamoff>(end_));
    const auto len = static_cast<std::uint32_t>(payload.size());
    write_pod(file_, len);
    if (fault == util::IoFault::kTornWrite) {
        // Half the payload reaches the disk, then the "device" fails. The
        // in-memory end_ stays put, so the next append's record-boundary
        // repair truncates the torn bytes (so does any other process's);
        // if the process dies first, open_and_recover truncates.
        file_.write(payload.data(),
                    static_cast<std::streamsize>(payload.size() / 2));
        file_.flush();
        throw std::runtime_error("DiskLog: injected torn write on '" + path_ +
                                 "'");
    }
    file_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    write_pod(file_, checksum);
    file_.flush();
    if (!file_)
        throw std::runtime_error("DiskLog: append to '" + path_ + "' failed");
    end_ += record_bytes();
    ++records_;
    if (++appends_since_sync_ >= kSyncEvery) sync();
    return payload_offset;
}

bool DiskLog::read_at(std::uint64_t offset, std::span<double> x_out,
                      double& value) {
    if (x_out.size() != dim_ || offset + payload_bytes() + 8 > end_)
        return false;
    if (util::IoFaultInjector* inj = util::io_fault_injector()) {
        const util::IoFault fault = inj->next_read_fault();
        // Short read and read-side corruption both surface as a failed
        // record fetch: the caller treats it as a cache miss and
        // re-evaluates, never as data.
        if (fault != util::IoFault::kNone) return false;
    }
    std::vector<char> payload(payload_bytes());
    file_.clear();
    file_.seekg(static_cast<std::streamoff>(offset));
    file_.read(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (file_.gcount() != static_cast<std::streamsize>(payload.size()))
        return false;
    std::uint64_t checksum = 0;
    if (!read_pod(file_, checksum)) return false;
    if (checksum != fnv1a64(payload.data(), payload.size())) return false;
    std::memcpy(x_out.data(), payload.data(), dim_ * 8);
    std::memcpy(&value, payload.data() + dim_ * 8, 8);
    return true;
}

std::optional<LogInfo> DiskLog::inspect(const std::string& path) {
    namespace fs = std::filesystem;
    std::ifstream is(path, std::ios::binary);
    if (!is) return std::nullopt;
    const auto header = parse_header(is);
    if (!header) return std::nullopt;
    LogInfo info;
    info.path = path;
    info.case_key = header->case_key;
    info.dim = header->dim;
    std::error_code ec;
    info.file_bytes = fs::file_size(path, ec);
    info.valid_bytes = scan_records(
        is, header->body_begin, header->dim, info.file_bytes,
        info.tail_truncated,
        [&](std::uint64_t, const std::vector<char>&) { ++info.records; });
    return info;
}

CompactResult DiskLog::compact(const std::string& path) {
    namespace fs = std::filesystem;
    // Exclude concurrent appenders (other processes sharing the cache dir)
    // for the whole read-rewrite-rename: a record appended mid-compaction
    // would be silently dropped by the rename.
    const FdCloser lock{open_lock_file(path)};
    const ScopedFlock guard(lock.fd);
    const auto info = inspect(path);
    if (!info)
        throw std::runtime_error("compact: '" + path +
                                 "' is not a NOFIS eval log");
    CompactResult result;
    result.records_before = info->records;
    result.bytes_before = info->file_bytes;

    // Last write wins per exact input row; insertion order of the survivors
    // follows their final write so a rewritten log replays identically.
    std::ifstream is(path, std::ios::binary);
    const auto header = parse_header(is);
    std::map<std::vector<char>, std::pair<std::size_t, double>> latest;
    std::size_t order = 0;
    bool torn = false;
    scan_records(is, header->body_begin, header->dim, info->valid_bytes, torn,
                 [&](std::uint64_t, const std::vector<char>& payload) {
                     std::vector<char> key(payload.begin(),
                                           payload.end() - 8);
                     double v = 0.0;
                     std::memcpy(&v, payload.data() + header->dim * 8, 8);
                     latest[std::move(key)] = {order++, v};
                 });
    is.close();

    std::vector<std::pair<std::size_t, const std::vector<char>*>> by_order;
    by_order.reserve(latest.size());
    for (const auto& [key, ov] : latest) by_order.push_back({ov.first, &key});
    std::sort(by_order.begin(), by_order.end());

    const std::string tmp = path + ".compact.tmp";
    std::error_code ec;
    fs::remove(tmp, ec);  // stale temp from an interrupted compaction
    {
        DiskLog out(tmp, header->case_key, header->dim);
        std::vector<double> x(header->dim);
        for (const auto& [ord, key] : by_order) {
            (void)ord;
            std::memcpy(x.data(), key->data(), header->dim * 8);
            out.append(x, latest.at(*key).second);
        }
        result.records_after = out.records();
        result.bytes_after = out.valid_bytes();
        // The replacement must be durable BEFORE it replaces the original:
        // rename-then-sync could publish a file whose bytes never hit the
        // platter, losing every record to a crash.
        out.sync();
    }
    fs::rename(tmp, path);
    util::fsync_parent_dir(path);
    fs::remove(tmp + ".lck", ec);  // sidecar of the temp log
    return result;
}

}  // namespace nofis::evalcache
