#include "net/wire.h"

#include <chrono>
#include <cstring>
#include <thread>

#include "store/format.h"
#include "support/faultinject.h"

namespace paraprox::net {
namespace {

using store::ByteReader;
using store::ByteWriter;

constexpr std::size_t kHeaderBytes = 16;

bool
known_type(std::uint32_t type)
{
    return type >= static_cast<std::uint32_t>(MsgType::SubmitRequest) &&
           type <= static_cast<std::uint32_t>(MsgType::Pong);
}

}  // namespace

bool
send_frame(Socket& socket, MsgType type,
           const std::vector<std::uint8_t>& payload,
           std::string_view context)
{
    if (const double stall_ms = fault::latency_ms("net.latency", context);
        stall_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(stall_ms));
    }
    if (fault::fire("net.drop", context)) {
        // Manufactured packet loss: the peer observes exactly what a
        // killed process produces — a dead connection, not a short or
        // garbled frame.
        socket.shutdown_both();
        return false;
    }
    ByteWriter header;
    header.u32(kWireMagic);
    header.u32(static_cast<std::uint32_t>(type));
    header.u64(payload.size());
    if (!socket.send_all(header.bytes().data(), header.bytes().size()))
        return false;
    return payload.empty() ||
           socket.send_all(payload.data(), payload.size());
}

std::optional<Frame>
recv_frame(Socket& socket)
{
    std::uint8_t header[kHeaderBytes];
    if (!socket.recv_all(header, sizeof header))
        return std::nullopt;
    ByteReader r(header, sizeof header);
    const std::uint32_t magic = r.u32();
    const std::uint32_t type = r.u32();
    const std::uint64_t length = r.u64();
    if (magic != kWireMagic || !known_type(type) ||
        length > kMaxFrameBytes)
        return std::nullopt;
    Frame frame;
    frame.type = static_cast<MsgType>(type);
    frame.payload.resize(static_cast<std::size_t>(length));
    if (length > 0 &&
        !socket.recv_all(frame.payload.data(), frame.payload.size()))
        return std::nullopt;
    return frame;
}

// ---- SubmitRequest ---------------------------------------------------------

std::uint64_t
SubmitRequest::seed() const
{
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < 8 && i < input.size(); ++i)
        out |= static_cast<std::uint64_t>(input[i]) << (8 * i);
    return out;
}

std::vector<std::uint8_t>
SubmitRequest::seed_input(std::uint64_t seed)
{
    std::vector<std::uint8_t> out(8);
    for (std::size_t i = 0; i < 8; ++i)
        out[i] = static_cast<std::uint8_t>(seed >> (8 * i));
    return out;
}

std::vector<std::uint8_t>
SubmitRequest::encode() const
{
    ByteWriter w;
    w.str(kernel);
    w.f64(toq);
    w.u64(deadline_us);
    w.u64(input.size());
    for (const std::uint8_t byte : input)
        w.u8(byte);
    return w.bytes();
}

std::optional<SubmitRequest>
SubmitRequest::decode(const std::vector<std::uint8_t>& payload)
{
    ByteReader r(payload.data(), payload.size());
    SubmitRequest out;
    out.kernel = r.str();
    out.toq = r.f64();
    out.deadline_us = r.u64();
    const std::size_t input_size = r.count(1);
    out.input.resize(input_size);
    for (auto& byte : out.input)
        byte = r.u8();
    if (!r.at_end() || out.kernel.empty())
        return std::nullopt;
    return out;
}

// ---- SubmitReply -----------------------------------------------------------

std::vector<std::uint8_t>
SubmitReply::encode() const
{
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(status));
    w.str(reject_reason);
    w.str(served_by);
    w.str(replica);
    w.u64(output.size());
    for (const float value : output)
        w.f32(value);
    return w.bytes();
}

std::optional<SubmitReply>
SubmitReply::decode(const std::vector<std::uint8_t>& payload)
{
    ByteReader r(payload.data(), payload.size());
    SubmitReply out;
    const std::uint32_t status = r.u32();
    if (status > static_cast<std::uint32_t>(WireStatus::Rejected))
        return std::nullopt;
    out.status = static_cast<WireStatus>(status);
    out.reject_reason = r.str();
    out.served_by = r.str();
    out.replica = r.str();
    const std::size_t output_size = r.count(4);
    out.output.resize(output_size);
    for (auto& value : out.output)
        value = r.f32();
    if (!r.at_end())
        return std::nullopt;
    return out;
}

// ---- DriftRequest / DriftReply ---------------------------------------------

std::vector<std::uint8_t>
DriftRequest::encode() const
{
    ByteWriter w;
    w.str(kernel);
    return w.bytes();
}

std::optional<DriftRequest>
DriftRequest::decode(const std::vector<std::uint8_t>& payload)
{
    ByteReader r(payload.data(), payload.size());
    DriftRequest out;
    out.kernel = r.str();
    if (!r.at_end() || out.kernel.empty())
        return std::nullopt;
    return out;
}

std::vector<std::uint8_t>
DriftReply::encode() const
{
    ByteWriter w;
    w.u8(accepted ? 1 : 0);
    return w.bytes();
}

std::optional<DriftReply>
DriftReply::decode(const std::vector<std::uint8_t>& payload)
{
    ByteReader r(payload.data(), payload.size());
    DriftReply out;
    out.accepted = r.u8() != 0;
    if (!r.at_end())
        return std::nullopt;
    return out;
}

// ---- Ping / Pong -----------------------------------------------------------

std::vector<std::uint8_t>
Ping::encode() const
{
    ByteWriter w;
    w.u32(version);
    w.u64(nonce);
    return w.bytes();
}

std::optional<Ping>
Ping::decode(const std::vector<std::uint8_t>& payload)
{
    ByteReader r(payload.data(), payload.size());
    Ping out;
    out.version = r.u32();
    out.nonce = r.u64();
    if (!r.at_end())
        return std::nullopt;
    return out;
}

std::vector<std::uint8_t>
Pong::encode() const
{
    ByteWriter w;
    w.u32(version);
    w.u64(nonce);
    w.str(replica);
    w.u64(uptime_ms);
    return w.bytes();
}

std::optional<Pong>
Pong::decode(const std::vector<std::uint8_t>& payload)
{
    ByteReader r(payload.data(), payload.size());
    Pong out;
    out.version = r.u32();
    out.nonce = r.u64();
    out.replica = r.str();
    out.uptime_ms = r.u64();
    if (!r.at_end())
        return std::nullopt;
    return out;
}

// ---- ReplicaStats ----------------------------------------------------------

namespace {

void
put(ByteWriter& w, std::uint64_t value)
{
    w.u64(value);
}

void
put(ByteWriter& w, std::int64_t value)
{
    w.i64(value);
}

void
put(ByteWriter& w, double value)
{
    w.f64(value);
}

void
get(ByteReader& r, std::uint64_t& value)
{
    value = r.u64();
}

void
get(ByteReader& r, std::int64_t& value)
{
    value = r.i64();
}

void
get(ByteReader& r, double& value)
{
    value = r.f64();
}

/// Hands every field of @p stats but the replica id to @p io, in wire
/// order: the declared serve lists, the three distributions, then the
/// plane.  The encoder and the decoder share it, so they cannot disagree
/// on order.
template <class Stats, class Io>
void
for_each_field(Stats& stats, Io&& io)
{
#define PARAPROX_FIELD(name, ...) io(stats.metrics.name);
    PARAPROX_SERVE_METRICS(PARAPROX_FIELD)
    PARAPROX_TUNER_TOTALS(PARAPROX_FIELD)
#undef PARAPROX_FIELD
    const auto latency = [&](auto& snapshot) {
        io(snapshot.count);
        io(snapshot.p50);
        io(snapshot.p95);
        io(snapshot.p99);
    };
    auto& batch = stats.metrics.batch;
    latency(stats.metrics.latency);
    io(batch.batches);
    io(batch.coalesced);
    io(batch.coalesced_requests);
    io(batch.max_size);
    io(batch.mean_size);
    latency(stats.metrics.batch_latency);
#define PARAPROX_FIELD(name, help) io(stats.plane.name);
    PARAPROX_PLANE_STATS(PARAPROX_FIELD)
#undef PARAPROX_FIELD
}

}  // namespace

std::vector<std::uint8_t>
ReplicaStats::encode() const
{
    ByteWriter w;
    w.str(replica);
    for_each_field(*this, [&](const auto& field) { put(w, field); });
    return w.bytes();
}

std::optional<ReplicaStats>
ReplicaStats::decode(const std::vector<std::uint8_t>& payload)
{
    ByteReader r(payload.data(), payload.size());
    ReplicaStats out;
    out.replica = r.str();
    for_each_field(out, [&](auto& field) { get(r, field); });
    if (!r.at_end())
        return std::nullopt;
    return out;
}

}  // namespace paraprox::net
