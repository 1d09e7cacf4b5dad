#include "serve/tcp_client.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <stdexcept>

namespace nofis::serve {

TcpClient::TcpClient(const std::string& host, std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("query: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd_);
        fd_ = -1;
        throw std::runtime_error("query: bad host '" + host + "'");
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd_);
        fd_ = -1;
        throw std::runtime_error("query: cannot connect to " + host + ":" +
                                 std::to_string(port));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TcpClient::~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
}

std::string TcpClient::read_line() {
    for (;;) {
        const std::size_t nl = buffer_.find('\n');
        if (nl != std::string::npos) {
            std::string line = buffer_.substr(0, nl);
            buffer_.erase(0, nl + 1);
            return line;
        }
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0)
            throw std::runtime_error(
                "query: connection closed before a response arrived");
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

void TcpClient::send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
        const ssize_t n = ::send(fd_, framed.data() + sent,
                                 framed.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) throw std::runtime_error("query: send failed");
        sent += static_cast<std::size_t>(n);
    }
}

std::string TcpClient::call_raw(const std::string& line) {
    send_line(line);
    return read_line();
}

std::vector<std::string> TcpClient::pipeline_raw(
    const std::vector<std::string>& lines) {
    std::string framed;
    for (const auto& line : lines) {
        framed += line;
        framed += '\n';
    }
    std::size_t sent = 0;
    while (sent < framed.size()) {
        const ssize_t n = ::send(fd_, framed.data() + sent,
                                 framed.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) throw std::runtime_error("query: send failed");
        sent += static_cast<std::size_t>(n);
    }
    std::vector<std::string> responses;
    responses.reserve(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i)
        responses.push_back(read_line());
    return responses;
}

Response TcpClient::call(const Request& req) {
    return Response::decode(call_raw(req.encode()));
}

}  // namespace nofis::serve
