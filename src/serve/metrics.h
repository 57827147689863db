/// @file
/// Observability for the serving subsystem: monotonic counters, a
/// queue-depth gauge, and a lock-free log2-bucketed latency histogram
/// with percentile snapshot export.
///
/// Everything here is bumped from worker threads on the request path, so
/// the primitives are plain atomics — no locks, no allocation.  Snapshots
/// are consistent per counter, not across counters; that is the usual
/// contract for serving metrics.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace paraprox::serve {

/// Point-in-time view of the latency distribution, in seconds.
/// Percentiles are bucket upper bounds (conservative: the true quantile
/// is at most the reported value, within one power-of-two bucket).
struct LatencySnapshot {
    std::uint64_t count = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/// Log2-bucketed histogram over [1 ns, ~2^63 ns); record() is wait-free.
class LatencyHistogram {
  public:
    void record(double seconds);
    LatencySnapshot snapshot() const;

  private:
    static constexpr int kBuckets = 64;
    /// buckets_[i] counts samples with bit_width(nanoseconds) == i + 1,
    /// i.e. latencies in [2^i, 2^(i+1)) ns.
    std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// Point-in-time view of the batch-size distribution.
struct BatchSnapshot {
    /// Every Tuner::serve_batch launch a worker made, singletons
    /// included.  A batch is the group left after a pop's expired
    /// members scattered and its detoured members ran exact alone; a pop
    /// that leaves nobody is no batch.
    std::uint64_t batches = 0;
    std::uint64_t coalesced = 0;  ///< Batches of size >= 2.
    /// Requests that rode a coalesced (size >= 2) batch.
    std::uint64_t coalesced_requests = 0;
    std::uint64_t max_size = 0;
    double mean_size = 0.0;       ///< Across all batches.
};

/// Exact-count batch-size distribution; record() is wait-free.  Sizes
/// beyond kMaxSize saturate into the top bucket (max_size still reports
/// the true maximum seen).
class BatchHistogram {
  public:
    void record(std::size_t size);
    BatchSnapshot snapshot() const;

  private:
    static constexpr std::size_t kMaxSize = 64;
    /// by_size_[i] counts batches of exactly i+1 members.
    std::atomic<std::uint64_t> by_size_[kMaxSize] = {};
    std::atomic<std::uint64_t> total_requests_{0};
    std::atomic<std::uint64_t> max_size_{0};
};

/// Plain-struct copy of every counter, for printing and assertions.
struct MetricsSnapshot {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t rejected_unknown = 0;
    std::uint64_t rejected_stopped = 0;
    /// Submits that lost the race with stop(): the stopped pre-check
    /// passed but the queue was already closed.  Surfaced to the client
    /// with the same "service stopped" reason as the pre-check path.
    std::uint64_t rejected_closed_race = 0;
    /// Admissions refused because the request's deadline had already
    /// passed or could not be met behind the current backlog.
    std::uint64_t rejected_deadline = 0;
    std::uint64_t served = 0;
    /// Accepted requests resolved with ServeStatus::DeadlineExceeded at
    /// the worker (expired while queued; not counted in `served`).
    std::uint64_t deadline_expired = 0;
    /// Requests whose approximate run trapped and were re-served exact.
    std::uint64_t trap_fallbacks = 0;
    /// Requests served below the calibrated selection by the
    /// load-shedding degradation ladder.
    std::uint64_t degraded_serves = 0;
    /// Ladder movements: steps toward cheaper variants / back up.
    std::uint64_t degrade_steps = 0;
    std::uint64_t restore_steps = 0;
    /// Current service-wide degradation level (gauge; 0 = full quality).
    std::int64_t degradation_level = 0;
    std::uint64_t shadow_runs = 0;
    std::uint64_t shadow_violations = 0;
    std::uint64_t recalibrations = 0;
    std::uint64_t exact_while_recalibrating = 0;
    /// Drift events this replica ceded to the fleet's calibration plane
    /// (a peer held the drift lease or had already published); the
    /// kernel served exact until adoption instead of recalibrating.
    std::uint64_t suppressed_recalibrations = 0;
    /// Calibrations installed from a peer's publish via
    /// adopt_calibration() (scale-out: recalibrate once, adopt
    /// everywhere).
    std::uint64_t adopted_calibrations = 0;
    /// adopt_calibration() calls whose payload failed restore
    /// validation (arity/label drift across module versions).
    std::uint64_t adoption_rejects = 0;
    /// Kernels registered with a calibration restored from the artifact
    /// store (no profiling sweep at registration).
    std::uint64_t warm_registrations = 0;
    /// Pipelines registered with a joint calibration restored from the
    /// artifact store: zero joint-search probe runs, zero sweeps.
    std::uint64_t warm_pipelines = 0;
    /// Data-tier kernels registered with a precision calibration restored
    /// from the artifact store: zero profiling runs, zero plan search.
    std::uint64_t warm_data_tiers = 0;
    /// Launches stopped mid-flight by a fired deadline token: the
    /// request resolved DeadlineExceeded without finishing its kernel.
    std::uint64_t cancelled_launches = 0;
    /// Launches the hung-launch watchdog cancelled (wall ceiling
    /// exceeded); each charges the variant's breaker like a trap.
    std::uint64_t watchdog_cancels = 0;
    /// Requests re-served by the exact kernel after a watchdog cancel.
    std::uint64_t watchdog_fallbacks = 0;
    /// Work-groups completed across every serve launch (cancelled ones
    /// included: groups that finished before the token fired still
    /// burned CPU).  The cancellation bench reads the delta between a
    /// cancelling and a non-cancelling run as "wasted work saved".
    std::uint64_t launch_groups_completed = 0;
    /// Variant downgrades across all kernels.  Tuners own this count;
    /// ApproxService::snapshot() aggregates it in — it stays 0 in a bare
    /// Metrics::snapshot().  Same for the three breaker counters below.
    std::uint64_t backoffs = 0;
    std::uint64_t quarantines = 0;     ///< Breaker openings (aggregated).
    std::uint64_t reinstatements = 0;  ///< Breakers closed (aggregated).
    std::uint64_t probes = 0;          ///< Half-open probes (aggregated).
    std::int64_t queue_depth = 0;
    /// Sojourn time (admission to resolution) per request.
    LatencySnapshot latency;
    /// Batch-size distribution of worker pops (backlog coalescing).
    BatchSnapshot batch;
    /// Amortized per-request latency inside coalesced batches: the batch
    /// serve wall clock divided by its member count, recorded once per
    /// member.  Compare against `latency` to see what coalescing buys.
    LatencySnapshot batch_latency;
};

/// Human-readable multi-line report, used by tools and bench smoke runs.
std::string format_metrics(const MetricsSnapshot& snapshot);

/// The registry the service, monitor, and tuner report through.  Fields
/// are public atomics: the request path bumps them directly.
class Metrics {
  public:
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected_full{0};
    std::atomic<std::uint64_t> rejected_unknown{0};
    std::atomic<std::uint64_t> rejected_stopped{0};
    std::atomic<std::uint64_t> rejected_closed_race{0};
    std::atomic<std::uint64_t> rejected_deadline{0};
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> deadline_expired{0};
    std::atomic<std::uint64_t> trap_fallbacks{0};
    std::atomic<std::uint64_t> degraded_serves{0};
    std::atomic<std::uint64_t> degrade_steps{0};
    std::atomic<std::uint64_t> restore_steps{0};
    std::atomic<std::int64_t> degradation_level{0};
    std::atomic<std::uint64_t> shadow_runs{0};
    std::atomic<std::uint64_t> shadow_violations{0};
    std::atomic<std::uint64_t> recalibrations{0};
    std::atomic<std::uint64_t> exact_while_recalibrating{0};
    std::atomic<std::uint64_t> suppressed_recalibrations{0};
    std::atomic<std::uint64_t> adopted_calibrations{0};
    std::atomic<std::uint64_t> adoption_rejects{0};
    std::atomic<std::uint64_t> warm_registrations{0};
    std::atomic<std::uint64_t> warm_pipelines{0};
    std::atomic<std::uint64_t> warm_data_tiers{0};
    std::atomic<std::uint64_t> cancelled_launches{0};
    std::atomic<std::uint64_t> watchdog_cancels{0};
    std::atomic<std::uint64_t> watchdog_fallbacks{0};
    std::atomic<std::uint64_t> launch_groups_completed{0};
    std::atomic<std::int64_t> queue_depth{0};
    LatencyHistogram latency;
    BatchHistogram batch;
    LatencyHistogram batch_latency;

    MetricsSnapshot snapshot() const;
};

}  // namespace paraprox::serve
