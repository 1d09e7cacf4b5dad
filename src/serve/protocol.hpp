#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/json.hpp"

namespace nofis::serve {

/// The wire protocol's document model (util/json.hpp).
using util::Json;

// ---------------------------------------------------------------------------
// Requests / responses
// ---------------------------------------------------------------------------

/// Machine-readable failure category carried in every error response.
/// Stable strings on the wire (see error_code_name).
enum class ErrorCode {
    kBadRequest,        ///< malformed JSON / missing or invalid field
    kUnknownModel,      ///< registry has no such model on disk
    kUnknownCase,       ///< estimate against an unregistered test case
    kDimMismatch,       ///< request dimensionality != model/case dim
    kQueueFull,         ///< scheduler backpressure: bounded queue at capacity
    kDeadlineExceeded,  ///< request expired before its batch executed
    kShuttingDown,      ///< server stopping; request not executed
    kInternal,          ///< unexpected exception during execution
};
std::string_view error_code_name(ErrorCode code) noexcept;

/// Structured serving failure: an ErrorCode plus a human-readable message.
/// Thrown inside the execution layers and converted into an error response
/// at the protocol boundary.
class ServeError : public std::runtime_error {
public:
    ServeError(ErrorCode code, const std::string& message)
        : std::runtime_error(message), code_(code) {}
    ErrorCode code() const noexcept { return code_; }

private:
    ErrorCode code_;
};

/// Most rows one request may ask for: `n` of sample/estimate, the rows of
/// log_prob's `x`. Decode rejects more with bad_request, so no request
/// allocates or simulates beyond it.
inline constexpr std::size_t kMaxRequestRows = std::size_t{1} << 20;

/// Longest request line the server buffers. Once an unterminated line
/// grows past it, the connection gets one bad_request and is read no
/// further.
inline constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;

/// Operations a request can carry.
enum class Op {
    kSample,      ///< n fresh draws z ~ q_MK with exact log q
    kLogProb,     ///< exact log q_MK at caller-supplied points
    kEstimate,    ///< Eq. (2) importance estimate against a test case
    kInfo,        ///< model metadata (flow::StackInfo)
    kListModels,  ///< models on disk + which are resident
    kReload,      ///< re-read a model from disk (atomic swap)
    kEvict,       ///< drop a resident model
    kPing,        ///< liveness / protocol check
    kShutdown,    ///< ack, then stop the server
};
std::string_view op_name(Op op) noexcept;

/// One decoded request line. `seed` is per-request: every stochastic op
/// derives all randomness from it, which is what makes responses
/// independent of batching and scheduling.
struct Request {
    std::uint64_t id = 0;   ///< caller-chosen correlation id, echoed back
    Op op = Op::kPing;
    std::string model;      ///< registry name (sample/log_prob/estimate/...)
    std::uint64_t seed = 0; ///< RNG seed (sample/estimate)
    std::size_t n = 0;      ///< rows to draw (sample) / N_IS (estimate)
    linalg::Matrix x;       ///< query points, row-major (log_prob)
    std::string case_name;  ///< test-case name (estimate)
    std::uint64_t timeout_us = 0;  ///< 0 = no deadline

    /// Decodes one wire line. Throws ServeError(kBadRequest) on anything
    /// malformed, including unknown ops and wrong field types.
    static Request decode(std::string_view line);
    /// Encodes this request as one wire line (no trailing newline).
    std::string encode() const;
};

/// One response line. Exactly one of `result` (ok) or `error_*` (not ok)
/// is meaningful.
struct Response {
    std::uint64_t id = 0;
    Op op = Op::kPing;
    bool ok = false;
    Json result;                             ///< op-specific payload
    ErrorCode error_code = ErrorCode::kInternal;
    std::string error_message;

    static Response success(const Request& req, Json result);
    static Response failure(const Request& req, ErrorCode code,
                            std::string message);
    static Response failure(const Request& req, const ServeError& err);

    /// Encodes as one wire line (no trailing newline). Key order is fixed,
    /// so equal responses are byte-equal.
    std::string encode() const;
    static Response decode(std::string_view line);
};

}  // namespace nofis::serve
