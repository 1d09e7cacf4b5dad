#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/model_registry.hpp"
#include "serve/scheduler.hpp"

namespace nofis::serve {

struct ServerConfig {
    std::string model_dir = ".";
    std::string host = "127.0.0.1";  ///< loopback only by design
    std::uint16_t port = 0;          ///< 0 = ephemeral; read back via port()
    /// Scheduler shards (`serve --workers N`): each runs its own thread,
    /// queue and evaluation cache over the one registry and the one pool.
    std::size_t workers = 1;
    SchedulerConfig scheduler;  ///< applied to every shard
};

/// Stable model-to-shard routing: FNV-1a of the model name modulo the
/// shard count. A model's traffic always lands on the same scheduler, so
/// one model's batches never split and the bitwise determinism guarantee
/// (DESIGN.md §10.4) holds at any shard count. Requests without a model
/// hash the empty name.
std::size_t route_worker(std::string_view model,
                         std::size_t workers) noexcept;

/// TCP front end of the serving stack: accepts loopback connections
/// speaking the line-delimited JSON protocol (one request per line, one
/// response per line, responses in request order per connection) and feeds
/// each request to its model's scheduler shard (route_worker). Requests
/// from different connections coalesce into the same micro-batches.
///
/// Lifecycle: the constructor binds + listens + starts the accept loop;
/// wait() parks the calling thread until a `shutdown` request arrives (or
/// shutdown()/request_shutdown() is called); shutdown() then stops the
/// listener, drains the schedulers, flushes every resolved response and
/// joins every connection thread. The destructor performs the same
/// teardown if the caller did not.
class Server {
public:
    explicit Server(ServerConfig cfg);
    ~Server();
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Actual bound port (differs from cfg.port when that was 0).
    std::uint16_t port() const noexcept { return port_; }

    ModelRegistry& registry() noexcept { return registry_; }

    /// Blocks until shutdown is requested (protocol `shutdown` op, a
    /// request_shutdown() call, or `stop_flag` turning true — polled so a
    /// signal handler can end the serve loop).
    void wait(const std::atomic<bool>* stop_flag = nullptr);

    /// Signals wait() to return; safe from any thread (the schedulers'
    /// shutdown handler calls this).
    void request_shutdown();

    /// Full teardown: stop accepting, drain + stop every scheduler, flush
    /// and join connection threads. Idempotent.
    void shutdown();

private:
    struct Connection;

    void accept_loop();
    void serve_connection(Connection& conn);
    /// Joins and closes every connection whose writer has finished, so
    /// closed connections do not hold descriptors for the server's life.
    /// Caller holds conn_mutex_.
    void release_finished_connections();

    ServerConfig cfg_;
    ModelRegistry registry_;
    std::vector<std::unique_ptr<BatchScheduler>> schedulers_;

    int listen_fd_ = -1;  ///< written only before the accept thread starts
                          ///< and after it is joined
    std::uint16_t port_ = 0;
    std::thread accept_thread_;

    std::mutex conn_mutex_;
    std::list<std::unique_ptr<Connection>> connections_;

    std::mutex wait_mutex_;
    std::condition_variable wait_cv_;
    bool shutdown_requested_ = false;
    std::atomic<bool> stopped_{false};
};

}  // namespace nofis::serve
