#include "serve/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/hash.hpp"

namespace nofis::serve {

namespace {

constexpr int kListenBacklog = 64;

/// How long teardown lets connection writers flush resolved responses
/// before it cuts them off; bounds shutdown when a peer stops reading.
constexpr auto kFlushGrace = std::chrono::seconds(2);

void send_all(int fd, const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                                 MSG_NOSIGNAL);
        if (n <= 0) throw std::runtime_error("send failed");
        sent += static_cast<std::size_t>(n);
    }
}

}  // namespace

std::size_t route_worker(std::string_view model,
                         std::size_t workers) noexcept {
    if (workers <= 1) return 0;
    return static_cast<std::size_t>(
        util::fnv1a64(model.data(), model.size()) % workers);
}

/// One accepted connection: a reader thread that decodes lines and submits
/// them, and a writer thread that emits responses in request order. The fd
/// is closed in one of two places, both under conn_mutex_ and each dropping
/// the connection from connections_: the accept loop, once the writer has
/// finished (release_finished_connections), or server teardown, which only
/// half-closes until its threads are joined. So teardown never touches a
/// closed or recycled descriptor.
struct Server::Connection {
    int fd = -1;
    std::thread reader;
    std::thread writer;

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::future<Response>> pending;  ///< responses, request order
    bool read_done = false;
    bool write_done = false;  ///< writer flushed everything and exited
    bool broken = false;  ///< write side failed; drain without sending
};

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)), registry_(cfg_.model_dir) {
    const std::size_t shards = std::max<std::size_t>(1, cfg_.workers);
    schedulers_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
        // The telemetry span tree has one owner thread: shard 0's.
        schedulers_.push_back(std::make_unique<BatchScheduler>(
            registry_, cfg_.scheduler, /*owns_span_tree=*/i == 0));
        schedulers_.back()->set_shutdown_handler(
            [this] { request_shutdown(); });
    }

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg_.port);
    if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        throw std::runtime_error("serve: bad host '" + cfg_.host + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        ::close(listen_fd_);
        throw std::runtime_error("serve: cannot bind " + cfg_.host + ":" +
                                 std::to_string(cfg_.port));
    }
    if (::listen(listen_fd_, kListenBacklog) != 0) {
        ::close(listen_fd_);
        throw std::runtime_error("serve: listen() failed");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);

    accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { shutdown(); }

void Server::accept_loop() {
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopped_.load(std::memory_order_relaxed)) return;
            const int err = errno;
            // Transient failures must not kill the listener: EINTR and
            // ECONNABORTED (peer gave up while queued) retry immediately;
            // resource exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) backs off
            // briefly so in-flight connections can close and free
            // descriptors. Only a genuinely dead listener ends the loop.
            if (err == EINTR || err == ECONNABORTED) continue;
            if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
                err == ENOMEM) {
                telemetry::count("serve.accept_backoff");
                {
                    const std::lock_guard<std::mutex> lock(conn_mutex_);
                    release_finished_connections();
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
                continue;
            }
            return;  // EINVAL: listener shut down underneath us
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        telemetry::count("serve.connections");

        const std::lock_guard<std::mutex> lock(conn_mutex_);
        release_finished_connections();
        connections_.push_back(std::make_unique<Connection>());
        Connection& conn = *connections_.back();
        conn.fd = fd;
        serve_connection(conn);
    }
}

void Server::release_finished_connections() {
    // The writer finishes last (after the reader's read_done), so both
    // threads have ended or are about to and the joins do not wait.
    connections_.remove_if([](const std::unique_ptr<Connection>& conn) {
        {
            const std::lock_guard<std::mutex> lock(conn->mutex);
            if (!conn->write_done) return false;
        }
        conn->reader.join();
        conn->writer.join();
        ::close(conn->fd);
        return true;
    });
}

void Server::serve_connection(Connection& conn) {
    conn.reader = std::thread([this, &conn] {
        const auto respond = [&conn](std::future<Response> future) {
            {
                const std::lock_guard<std::mutex> lock(conn.mutex);
                conn.pending.push_back(std::move(future));
            }
            conn.cv.notify_all();
        };
        const auto reject = [&respond](const ServeError& e) {
            std::promise<Response> ready;
            ready.set_value(Response::failure(Request{}, e));
            respond(ready.get_future());
        };
        std::string buffer;  // the unterminated tail: holds no '\n'
        char chunk[4096];
        // Stops at EOF, including the read-half shutdown of teardown; the
        // stopped_ check keeps a peer that never stops sending from holding
        // teardown open.
        while (!stopped_.load(std::memory_order_relaxed)) {
            const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
            if (n <= 0) break;
            std::size_t scan = buffer.size();  // only new bytes can hold '\n'
            buffer.append(chunk, static_cast<std::size_t>(n));
            std::size_t start = 0;
            for (;;) {
                const std::size_t nl = buffer.find('\n', scan);
                if (nl == std::string::npos) break;
                std::string_view line(buffer.data() + start, nl - start);
                start = scan = nl + 1;
                if (line.empty()) continue;
                try {
                    Request req = Request::decode(line);
                    BatchScheduler& shard = *schedulers_[route_worker(
                        req.model, schedulers_.size())];
                    respond(shard.submit(std::move(req)));
                } catch (const ServeError& e) {
                    reject(e);
                }
            }
            buffer.erase(0, start);
            if (buffer.size() > kMaxLineBytes) {
                reject(ServeError(ErrorCode::kBadRequest,
                                  "request line exceeds " +
                                      std::to_string(kMaxLineBytes) +
                                      " bytes"));
                break;
            }
        }
        {
            const std::lock_guard<std::mutex> lock(conn.mutex);
            conn.read_done = true;
        }
        conn.cv.notify_all();
    });

    conn.writer = std::thread([&conn] {
        for (;;) {
            std::future<Response> next;
            {
                std::unique_lock<std::mutex> lock(conn.mutex);
                conn.cv.wait(lock, [&] {
                    return !conn.pending.empty() || conn.read_done;
                });
                if (conn.pending.empty()) break;  // read_done && drained
                next = std::move(conn.pending.front());
                conn.pending.pop_front();
            }
            // Futures always complete (the scheduler resolves or rejects
            // every submission), so this never blocks past shutdown.
            const Response res = next.get();
            if (conn.broken) continue;
            try {
                send_all(conn.fd, res.encode() + "\n");
            } catch (const std::exception&) {
                conn.broken = true;  // keep draining so futures are consumed
            }
        }
        {
            const std::lock_guard<std::mutex> lock(conn.mutex);
            conn.write_done = true;
        }
        conn.cv.notify_all();
    });
}

void Server::wait(const std::atomic<bool>* stop_flag) {
    std::unique_lock<std::mutex> lock(wait_mutex_);
    while (!shutdown_requested_) {
        if (stop_flag != nullptr && stop_flag->load(std::memory_order_relaxed))
            break;
        wait_cv_.wait_for(lock, std::chrono::milliseconds(100));
    }
}

void Server::request_shutdown() {
    {
        const std::lock_guard<std::mutex> lock(wait_mutex_);
        shutdown_requested_ = true;
    }
    wait_cv_.notify_all();
}

void Server::shutdown() {
    if (stopped_.exchange(true)) return;
    request_shutdown();
    // shutdown(2) unblocks accept(); the fd is closed only once the accept
    // thread is joined, so no other thread ever sees it change.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;

    // Drain + stop every scheduler first: every in-flight future resolves,
    // so connection writers cannot block on get() below.
    for (auto& scheduler : schedulers_) scheduler->stop();

    // Close only the read half, so the writer still sends every resolved
    // response — the `shutdown` op's own ack among them — before the fd
    // closes. A writer stuck on a peer that stopped reading is cut off at
    // the flush deadline.
    const auto flush_deadline = std::chrono::steady_clock::now() + kFlushGrace;
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto& conn : connections_) {
        ::shutdown(conn->fd, SHUT_RD);  // unblocks the reader's recv
        if (conn->reader.joinable()) conn->reader.join();
        {
            std::unique_lock<std::mutex> conn_lock(conn->mutex);
            if (!conn->cv.wait_until(conn_lock, flush_deadline,
                                     [&] { return conn->write_done; }))
                ::shutdown(conn->fd, SHUT_RDWR);  // fails the stuck send
        }
        if (conn->writer.joinable()) conn->writer.join();
        ::close(conn->fd);
        conn->fd = -1;
    }
    connections_.clear();
}

}  // namespace nofis::serve
