#include "net/calibration_plane.h"

namespace paraprox::net {

CalibrationPlane::CalibrationPlane(
    serve::ApproxService& service,
    std::shared_ptr<store::ArtifactStore> store, PlaneConfig config)
    : service_(service), store_(std::move(store)),
      config_(std::move(config))
{
}

CalibrationPlane::~CalibrationPlane()
{
    stop();
}

void
CalibrationPlane::track(const std::string& kernel, store::StoreKey key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry entry;
    entry.key = std::move(key);
    // Publishes that predate this replica's registration are old news —
    // its registration-time calibration is at least as fresh.  Only a
    // version bump after this point is a drift event to adopt.
    entry.seen_version = store_->fleet_calibration_version(entry.key);
    tracked_[kernel] = std::move(entry);
}

void
CalibrationPlane::start()
{
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        if (started_)
            return;
        started_ = true;
        stopping_ = false;
    }
    service_.set_recalibration_gate(
        [this](const std::string& kernel) { return gate(kernel); });
    service_.set_calibration_publisher(
        [this](const std::string& kernel,
               const runtime::CalibrationState& calibration,
               const std::vector<std::string>& quarantined) {
            publish(kernel, calibration, quarantined);
        });
    watcher_ = std::thread([this] { watch_loop(); });
}

void
CalibrationPlane::stop()
{
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        if (!started_)
            return;
        stopping_ = true;
    }
    stop_cv_.notify_all();
    if (watcher_.joinable())
        watcher_.join();
    // Unhook so a service outliving the plane cannot call back into a
    // dead object.  In-flight recalibrations still hold copies of the
    // old hooks; the service copies them per event, so this only stops
    // *new* events from reaching us — callers stop the service first.
    service_.set_recalibration_gate(nullptr);
    service_.set_calibration_publisher(nullptr);
    std::lock_guard<std::mutex> lock(stop_mutex_);
    started_ = false;
}

PlaneStats
CalibrationPlane::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

serve::RecalibrationDecision
CalibrationPlane::gate(const std::string& kernel)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = tracked_.find(kernel);
    if (it == tracked_.end())
        return serve::RecalibrationDecision::Proceed;
    Entry& entry = it->second;

    // A peer may have already resolved this very drift event: adopt its
    // publish instead of queuing behind its (already released) lease.
    const std::uint64_t current =
        store_->fleet_calibration_version(entry.key);
    if (current > entry.seen_version) {
        const auto artifact = store_->load_fleet_calibration(entry.key);
        if (artifact &&
            service_.adopt_calibration(kernel, artifact->calibration,
                                       artifact->quarantined)) {
            entry.seen_version = artifact->version;
            entry.awaiting = false;
            return serve::RecalibrationDecision::AlreadyResolved;
        }
    }

    const auto token = store_->try_acquire_lease(
        entry.key, config_.replica_id,
        static_cast<std::uint64_t>(config_.lease_ttl.count()));
    if (token) {
        ++stats_.lease_wins;
        entry.lease_token = *token;
        entry.publish_base = current;
        entry.awaiting = false;
        return serve::RecalibrationDecision::Proceed;
    }
    ++stats_.lease_losses;
    entry.awaiting = true;
    entry.awaiting_since = std::chrono::steady_clock::now();
    return serve::RecalibrationDecision::AwaitAdoption;
}

void
CalibrationPlane::publish(const std::string& kernel,
                          const runtime::CalibrationState& calibration,
                          const std::vector<std::string>& quarantined)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = tracked_.find(kernel);
    if (it == tracked_.end())
        return;
    Entry& entry = it->second;

    store::FleetCalibrationArtifact artifact;
    artifact.version = entry.publish_base + 1;
    artifact.calibration = calibration;
    artifact.quarantined = quarantined;
    artifact.toq = entry.key.toq;
    artifact.metric = entry.key.metric;
    if (store_->save_fleet_calibration(entry.key, artifact)) {
        ++stats_.published;
        entry.seen_version = artifact.version;
    } else if (store_->fleet_calibration_version(entry.key) >
               entry.publish_base) {
        // The fleet moved underneath us: our lease expired mid-sweep and
        // a peer (takeover) published this event's version first.  Our
        // sweep was redundant — adopt the fleet's record rather than
        // clobbering a version peers may have already adopted.
        ++stats_.redundant;
        const auto fleet = store_->load_fleet_calibration(entry.key);
        if (fleet &&
            service_.adopt_calibration(kernel, fleet->calibration,
                                       fleet->quarantined))
            entry.seen_version = fleet->version;
    }
    if (entry.lease_token != 0) {
        store_->release_lease(entry.key, config_.replica_id,
                              entry.lease_token);
        entry.lease_token = 0;
    }
    entry.awaiting = false;
}

void
CalibrationPlane::poll_now()
{
    for (const std::string& kernel : sweep()) {
        // Re-drive a drift whose lease winner went silent: the gate runs
        // again, steals the (expired) lease or adopts a late publish.
        // Outside the plane lock — the gate re-enters this plane.
        service_.recalibrate_kernel(kernel);
    }
}

std::vector<std::string>
CalibrationPlane::sweep()
{
    std::vector<std::string> redrive;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.watch_polls;
    const auto now = std::chrono::steady_clock::now();
    for (auto& [kernel, entry] : tracked_) {
        if (entry.lease_token != 0)
            continue;  // We are the recalibrating owner.
        const std::uint64_t current =
            store_->fleet_calibration_version(entry.key);
        if (current > entry.seen_version) {
            const auto artifact =
                store_->load_fleet_calibration(entry.key);
            if (!artifact)
                continue;  // Mid-replacement or corrupt; next poll.
            if (service_.adopt_calibration(kernel, artifact->calibration,
                                           artifact->quarantined))
                entry.awaiting = false;
            // Either way the version is consumed: a record that fails
            // restore validation (module drift) will not get better by
            // re-reading it every poll.
            entry.seen_version = artifact->version;
        } else if (entry.awaiting &&
                   now - entry.awaiting_since > config_.adoption_timeout) {
            entry.awaiting = false;
            ++stats_.takeovers;
            redrive.push_back(kernel);
        }
    }
    return redrive;
}

void
CalibrationPlane::watch_loop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(stop_mutex_);
            stop_cv_.wait_for(lock, config_.watch_interval,
                              [this] { return stopping_; });
            if (stopping_)
                return;
        }
        poll_now();
    }
}

}  // namespace paraprox::net
