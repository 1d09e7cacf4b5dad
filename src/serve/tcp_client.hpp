#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace nofis::serve {

/// Blocking TCP client for the line-delimited JSON protocol. One instance
/// is one connection; requests sent through it are answered in order.
/// `nofis_cli query` is a thin wrapper around this.
class TcpClient {
public:
    /// Connects immediately; throws std::runtime_error on failure.
    TcpClient(const std::string& host, std::uint16_t port);
    ~TcpClient();
    TcpClient(const TcpClient&) = delete;
    TcpClient& operator=(const TcpClient&) = delete;

    /// One request, one decoded response.
    Response call(const Request& req);

    /// Raw round-trip: sends `line` (newline appended) and returns the
    /// response line without its newline.
    std::string call_raw(const std::string& line);

    /// Pipelines every line, then reads exactly one response per line, in
    /// order. This is how a single client queues several requests into
    /// one micro-batch.
    std::vector<std::string> pipeline_raw(const std::vector<std::string>& lines);

    /// Split halves of call_raw for pipelined use from two threads: one
    /// thread may send_line while another recv_lines — the halves share no
    /// state beyond the socket itself. Neither is safe to call from two
    /// threads at once.
    void send_line(const std::string& line);
    /// Next response line (newline stripped). Throws when the peer closes
    /// before a full line arrives.
    std::string recv_line() { return read_line(); }

private:
    std::string read_line();

    int fd_ = -1;
    std::string buffer_;
};

}  // namespace nofis::serve
