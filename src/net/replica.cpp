#include "net/replica.h"

#include <chrono>
#include <cstdlib>

#include "support/faultinject.h"

namespace paraprox::net {

ReplicaServer::ReplicaServer(serve::ApproxService& service,
                             CalibrationPlane* plane,
                             ReplicaOptions options)
    : service_(service), plane_(plane), options_(std::move(options))
{
}

ReplicaServer::~ReplicaServer()
{
    stop();
}

bool
ReplicaServer::start()
{
    if (started_.exchange(true, std::memory_order_acq_rel))
        return true;
    if (!listener_.listen_unix(options_.socket_path)) {
        started_.store(false, std::memory_order_release);
        return false;
    }
    acceptor_ = std::thread([this] { accept_loop(); });
    return true;
}

void
ReplicaServer::stop()
{
    if (!started_.load(std::memory_order_acquire))
        return;
    stopping_.store(true, std::memory_order_release);
    listener_.close();
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        for (const auto& connection : connections_)
            connection->shutdown_both();
    }
    if (acceptor_.joinable())
        acceptor_.join();
    std::vector<std::thread> handlers;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        handlers.swap(handlers_);
    }
    for (auto& handler : handlers) {
        if (handler.joinable())
            handler.join();
    }
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        connections_.clear();
    }
    started_.store(false, std::memory_order_release);
}

void
ReplicaServer::abort()
{
    aborted_.store(true, std::memory_order_release);
    stopping_.store(true, std::memory_order_release);
    listener_.close();
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& connection : connections_)
        connection->shutdown_both();
}

void
ReplicaServer::accept_loop()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        Socket connection = listener_.accept();
        if (!connection.valid())
            break;
        auto shared = std::make_shared<Socket>(std::move(connection));
        std::lock_guard<std::mutex> lock(connections_mutex_);
        if (stopping_.load(std::memory_order_acquire)) {
            shared->shutdown_both();
            break;
        }
        connections_.push_back(shared);
        handlers_.emplace_back(
            [this, shared] { handle_connection(shared); });
    }
}

void
ReplicaServer::handle_connection(const std::shared_ptr<Socket>& connection)
{
    handle_frames(*connection);
    // Whatever ended the session — clean EOF, garbage framing, or a
    // version-gated health frame — close the socket *now*.  The
    // connections_ registry keeps the Socket object alive until stop(),
    // so without this shutdown a "dropped" peer would block on recv
    // forever instead of seeing the drop.
    connection->shutdown_both();
}

void
ReplicaServer::handle_frames(Socket& connection)
{
    const std::string context = "replica:" + options_.id;
    while (!stopping_.load(std::memory_order_acquire)) {
        const auto frame = recv_frame(connection);
        if (!frame)
            break;
        switch (frame->type) {
            case MsgType::SubmitRequest: {
                // Chaos site: die mid-request, reply unsent — what a
                // segfault or OOM kill produces.  _Exit skips atexit
                // teardown on purpose; only arm this in forked replica
                // processes (tools/paraprox_frontd), never in-process.
                if (fault::fire("replica.crash", options_.id))
                    std::_Exit(42);
                const auto request = SubmitRequest::decode(frame->payload);
                if (!request)
                    return;  // Garbage framing: drop the connection.
                SubmitReply reply;
                reply.replica = options_.id;
                serve::SubmitOptions options;
                if (request->deadline_us > 0) {
                    options = serve::SubmitOptions::within(
                        std::chrono::microseconds(request->deadline_us));
                }
                auto ticket =
                    service_.submit(request->kernel, request->seed(),
                                    options);
                if (!ticket.accepted) {
                    reply.status = WireStatus::Rejected;
                    reply.reject_reason = ticket.reject_reason;
                } else {
                    try {
                        serve::Response response = ticket.response.get();
                        if (response.status == serve::ServeStatus::Ok) {
                            reply.status = WireStatus::Ok;
                            reply.served_by = response.served_by;
                            reply.output = std::move(response.run.output);
                        } else {
                            reply.status = WireStatus::DeadlineExceeded;
                        }
                    } catch (...) {
                        reply.status = WireStatus::Rejected;
                        reply.reject_reason = "serve exception";
                    }
                }
                if (aborted_.load(std::memory_order_acquire))
                    return;  // Killed: the reply is never sent.
                if (!send_frame(connection, MsgType::SubmitReply,
                                reply.encode(), context))
                    return;
                break;
            }
            case MsgType::StatsRequest: {
                if (!send_frame(connection, MsgType::StatsReply,
                                gather_stats().encode(), context))
                    return;
                break;
            }
            case MsgType::DriftRequest: {
                const auto request = DriftRequest::decode(frame->payload);
                DriftReply reply;
                if (request) {
                    try {
                        service_.recalibrate_kernel(request->kernel);
                        reply.accepted = true;
                    } catch (...) {
                        reply.accepted = false;  // Unknown kernel.
                    }
                }
                if (!send_frame(connection, MsgType::DriftReply,
                                reply.encode(), context))
                    return;
                break;
            }
            case MsgType::Ping: {
                const auto ping = Ping::decode(frame->payload);
                // Garbage or a foreign health-protocol version: drop the
                // connection instead of guessing — the prober reads a
                // dead link, which is the honest answer.
                if (!ping || ping->version != kHealthVersion)
                    return;
                Pong pong;
                pong.nonce = ping->nonce;
                pong.replica = options_.id;
                pong.uptime_ms = static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - started_at_)
                        .count());
                if (!send_frame(connection, MsgType::Pong, pong.encode(),
                                context))
                    return;
                break;
            }
            case MsgType::ShutdownRequest: {
                shutdown_requested_.store(true, std::memory_order_release);
                send_frame(connection, MsgType::ShutdownReply, {},
                           context);
                return;
            }
            default:
                return;  // Reply types are never valid requests.
        }
    }
}

ReplicaStats
ReplicaServer::gather_stats() const
{
    ReplicaStats stats;
    stats.replica = options_.id;
    stats.metrics = service_.snapshot().metrics;
    if (plane_ != nullptr)
        stats.plane = plane_->stats();
    return stats;
}

}  // namespace paraprox::net
