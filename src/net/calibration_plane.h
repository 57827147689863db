/// @file
/// CalibrationPlane: fleet-wide drift arbitration over the artifact
/// store.
///
/// Every replica runs one plane next to its ApproxService.  When a
/// tracked kernel drifts, the plane's gate races the fleet for the
/// per-key drift lease (an O_EXCL file in the shared store):
///
///   - the winner recalibrates locally, then publishes the fresh
///     calibration — with its quarantine verdicts — as a versioned
///     FleetCalibration record and releases the lease;
///   - losers serve exact and wait; their watch thread polls the record
///     version every few tens of milliseconds and installs the publish
///     through ApproxService::adopt_calibration().  One drift event
///     costs the fleet exactly one re-profiling sweep.
///
/// Failure containment: if the lease winner dies mid-recalibration, its
/// lease expires; any loser still awaiting adoption past the adoption
/// timeout re-drives the drift, steals the expired lease, and finishes
/// the event (counted as a takeover).  If the winner merely lost its
/// lease to a slow sweep, its publish detects the version moved
/// underneath, counts a redundant recalibration, and adopts the peer's
/// record instead of clobbering it.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.h"
#include "store/artifact_store.h"

namespace paraprox::net {

struct PlaneConfig {
    /// This replica's fleet-unique id (lease ownership, reply labels).
    std::string replica_id = "replica";
    /// How long a drift lease stays valid.  Must exceed the worst-case
    /// recalibration sweep by a safe margin; an expired lease is up for
    /// stealing.
    std::chrono::milliseconds lease_ttl{2000};
    /// Version-watch poll period.
    std::chrono::milliseconds watch_interval{20};
    /// How long a replica waits for the lease winner's publish before
    /// re-driving the drift itself (the winner presumably died).
    std::chrono::milliseconds adoption_timeout{3000};
};

/// The plane's counters, declared once as X(name, help): the struct, the
/// Stats frame codec and paraprox_frontd's report all expand this list.
#define PARAPROX_PLANE_STATS(X)                                            \
    X(lease_wins, "drift leases this replica acquired")                    \
    X(lease_losses,                                                        \
      "drift events that found a peer holding the lease")                  \
    X(published, "recalibrations published to the fleet")                 \
    X(redundant,                                                           \
      "local recalibrations that lost the publish race (the lease "        \
      "expired and a peer finished first); zero in a healthy fleet")       \
    X(watch_polls, "version-watch sweeps")                                 \
    X(takeovers, "drift events re-driven after the lease winner went "     \
                 "silent")

struct PlaneStats {
#define PARAPROX_PLANE_FIELD(name, help) std::uint64_t name = 0;
    PARAPROX_PLANE_STATS(PARAPROX_PLANE_FIELD)
#undef PARAPROX_PLANE_FIELD

    bool operator==(const PlaneStats&) const = default;
};

class CalibrationPlane {
  public:
    /// The plane wires itself into @p service as its recalibration gate
    /// and publisher on start().  @p store is the fleet-shared artifact
    /// store (every replica must point at the same directory).
    CalibrationPlane(serve::ApproxService& service,
                     std::shared_ptr<store::ArtifactStore> store,
                     PlaneConfig config = {});
    ~CalibrationPlane();  ///< stop()s if the caller has not.

    CalibrationPlane(const CalibrationPlane&) = delete;
    CalibrationPlane& operator=(const CalibrationPlane&) = delete;

    /// Arbitrate drift for @p kernel under @p key (the kernel's fleet
    /// calibration key; KernelSession::calibration_key() produces the
    /// right shape).  Untracked kernels recalibrate locally, ungated.
    void track(const std::string& kernel, store::StoreKey key);

    /// Install the service hooks and start the watch thread.
    void start();
    void stop();

    /// One watch sweep immediately, synchronously (tests and
    /// shutdown-ordering callers; the background thread does this on a
    /// timer).
    void poll_now();

    PlaneStats stats() const;

  private:
    struct Entry {
        store::StoreKey key;
        /// Latest fleet version this replica has seen (adopted,
        /// published, or pre-existing at track time).
        std::uint64_t seen_version = 0;
        /// Nonzero while this replica holds the drift lease.
        std::uint64_t lease_token = 0;
        /// Fleet version observed when the lease was acquired; the
        /// publish CAS-checks against it.
        std::uint64_t publish_base = 0;
        bool awaiting = false;
        std::chrono::steady_clock::time_point awaiting_since{};
    };

    serve::RecalibrationDecision gate(const std::string& kernel);
    void publish(const std::string& kernel,
                 const runtime::CalibrationState& calibration,
                 const std::vector<std::string>& quarantined);
    void watch_loop();
    /// One sweep over tracked kernels; returns kernels whose drift must
    /// be re-driven (invoked by the caller outside the lock — the gate
    /// re-enters this plane).
    std::vector<std::string> sweep();

    serve::ApproxService& service_;
    const std::shared_ptr<store::ArtifactStore> store_;
    const PlaneConfig config_;

    mutable std::mutex mutex_;
    std::map<std::string, Entry> tracked_;
    PlaneStats stats_;

    std::thread watcher_;
    std::mutex stop_mutex_;
    std::condition_variable stop_cv_;
    bool stopping_ = false;
    bool started_ = false;
};

}  // namespace paraprox::net
