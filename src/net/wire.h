/// @file
/// Length-prefixed binary wire protocol for scale-out serving.
///
/// Every message is one frame: a fixed 16-byte header (magic "PPXN",
/// message type, payload length) followed by the payload, which is
/// encoded with the artifact store's bounds-checked ByteWriter/ByteReader
/// — the same codec discipline as the on-disk records, so garbage on the
/// wire decodes to a rejected frame, never a crash or a huge allocation.
///
/// Message inventory (request/reply pairs share a payload shape level):
///   SubmitRequest / SubmitReply    one serving request through the fleet
///   StatsRequest  / StatsReply     replica + calibration-plane counters
///   DriftRequest  / DriftReply     operator-driven drift event (the
///                                  gated recalibration path)
///   ShutdownRequest / ShutdownReply  graceful replica stop
///   Ping          / Pong           supervisor liveness probe (versioned:
///                                  a replica answers only probes whose
///                                  health-protocol version it speaks)
///
/// Fault sites: `net.drop` (an armed drop makes send_frame shut the
/// socket down instead of writing — the peer observes a dead connection,
/// exactly like a killed process) and `net.latency` (a stall before the
/// frame goes out).  Both receive the caller's @p context label, so chaos
/// specs can target one direction of one link.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/calibration_plane.h"
#include "serve/metrics.h"
#include "support/socket.h"

namespace paraprox::net {

/// "PPXN" little-endian (the store records use "PPXS").
constexpr std::uint32_t kWireMagic = 0x4e585050u;

/// Largest payload recv_frame will allocate for.  Serving payloads are
/// kilobytes; anything bigger is a corrupt or hostile header.
constexpr std::uint64_t kMaxFrameBytes = 64ull << 20;

enum class MsgType : std::uint32_t {
    SubmitRequest = 1,
    SubmitReply = 2,
    StatsRequest = 3,
    StatsReply = 4,
    DriftRequest = 5,
    DriftReply = 6,
    ShutdownRequest = 7,
    ShutdownReply = 8,
    Ping = 9,
    Pong = 10,
};

/// Health-protocol version spoken by this build.  A replica rejects a
/// Ping carrying any other version (no reply; the supervisor treats that
/// link as unhealthy rather than guessing at a foreign protocol).
constexpr std::uint32_t kHealthVersion = 1;

/// How a fleet-routed request resolved, as seen by the client.
enum class WireStatus : std::uint32_t {
    Ok = 0,
    DeadlineExceeded = 1,
    Rejected = 2,
};

/// One decoded frame.
struct Frame {
    MsgType type{};
    std::vector<std::uint8_t> payload;
};

/// Write one frame.  False on IO failure or when an armed `net.drop`
/// fault fires (the socket is shut down so the peer sees the loss).
bool send_frame(Socket& socket, MsgType type,
                const std::vector<std::uint8_t>& payload,
                std::string_view context = {});

/// Read one frame.  nullopt on EOF, IO failure, bad magic, unknown
/// type, or an absurd length.
std::optional<Frame> recv_frame(Socket& socket);

/// One serving request.  The input blob's first 8 bytes are the input
/// seed (little-endian) — the fleet's kernels generate their inputs
/// deterministically from it, and the blob leaves room for future raw
/// tensor payloads without a format change.
struct SubmitRequest {
    std::string kernel;
    double toq = 0.0;  ///< Advisory: the TOQ the client expects.
    /// Remaining deadline budget in microseconds; 0 = no deadline.
    /// Relative, not absolute: replica and front door clocks need not
    /// agree.
    std::uint64_t deadline_us = 0;
    std::vector<std::uint8_t> input;

    std::uint64_t seed() const;
    static std::vector<std::uint8_t> seed_input(std::uint64_t seed);

    std::vector<std::uint8_t> encode() const;
    static std::optional<SubmitRequest>
    decode(const std::vector<std::uint8_t>& payload);
};

struct SubmitReply {
    WireStatus status = WireStatus::Rejected;
    std::string reject_reason;  ///< Set when status == Rejected.
    std::string served_by;      ///< Variant label that produced output.
    std::string replica;        ///< Replica id that served the request.
    std::vector<float> output;

    std::vector<std::uint8_t> encode() const;
    static std::optional<SubmitReply>
    decode(const std::vector<std::uint8_t>& payload);
};

/// DriftRequest payload: which kernel drifted.  The reply reports
/// whether the replica accepted the event (false = unknown kernel).
struct DriftRequest {
    std::string kernel;

    std::vector<std::uint8_t> encode() const;
    static std::optional<DriftRequest>
    decode(const std::vector<std::uint8_t>& payload);
};

struct DriftReply {
    bool accepted = false;

    std::vector<std::uint8_t> encode() const;
    static std::optional<DriftReply>
    decode(const std::vector<std::uint8_t>& payload);
};

/// Supervisor liveness probe.  `nonce` is echoed in the Pong so a prober
/// can match replies to probes across a reused connection.
struct Ping {
    std::uint32_t version = kHealthVersion;
    std::uint64_t nonce = 0;

    std::vector<std::uint8_t> encode() const;
    static std::optional<Ping>
    decode(const std::vector<std::uint8_t>& payload);
};

struct Pong {
    std::uint32_t version = kHealthVersion;
    std::uint64_t nonce = 0;       ///< Echo of the probe's nonce.
    std::string replica;           ///< Who answered.
    std::uint64_t uptime_ms = 0;   ///< Since the replica server started.

    std::vector<std::uint8_t> encode() const;
    static std::optional<Pong>
    decode(const std::vector<std::uint8_t>& payload);
};

/// StatsReply payload: the replica's full serve snapshot (breaker
/// totals included) and its calibration plane's counters.  The codec
/// walks the declared lists, so a new counter rides the frame with no
/// edit here.
struct ReplicaStats {
    std::string replica;
    serve::MetricsSnapshot metrics;
    PlaneStats plane;  ///< All zero on a replica without a plane.

    bool operator==(const ReplicaStats&) const = default;

    std::vector<std::uint8_t> encode() const;
    static std::optional<ReplicaStats>
    decode(const std::vector<std::uint8_t>& payload);
};

}  // namespace paraprox::net
