/// @file
/// Observability for the serving subsystem: one declared list of
/// counters and gauges, a lock-free log2-bucketed latency histogram with
/// percentile snapshot export, and a batch-size summary.
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

    bool operator==(const LatencySnapshot&) const = default;
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

    bool operator==(const BatchSnapshot&) const = default;
};

/// Batch-size summary with no size limit; record() is wait-free.  The
/// four running totals are all the snapshot needs: a coalesced batch is
/// any batch that is not a singleton, and so is a coalesced request.
class BatchHistogram {
  public:
    void record(std::size_t size);
    BatchSnapshot snapshot() const;

  private:
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> singletons_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> max_size_{0};
};

/// Every serve counter and gauge, declared once as X(name, type, help).
/// `std::uint64_t` entries are monotonic counters, `std::int64_t` entries
/// gauges.  The `Metrics` atomics, the `MetricsSnapshot` fields,
/// `Metrics::snapshot()`, `format_metrics` and the net Stats frame all
/// expand this list, so a new counter is one entry here plus its bump
/// site.
#define PARAPROX_SERVE_METRICS(X)                                          \
    X(accepted, std::uint64_t, "requests admitted to a shard queue")       \
    X(served, std::uint64_t, "requests resolved Ok")                       \
    X(rejected_full, std::uint64_t,                                        \
      "submits refused because the kernel's shard was at capacity")        \
    X(rejected_unknown, std::uint64_t,                                     \
      "submits naming no registered kernel")                               \
    X(rejected_stopped, std::uint64_t, "submits after stop()")             \
    X(rejected_closed_race, std::uint64_t,                                 \
      "submits that passed the stopped check but found the queue closed; " \
      "the client sees the same \"service stopped\" reason")               \
    X(rejected_deadline, std::uint64_t,                                    \
      "admissions refused because the deadline had passed or could not "   \
      "be met behind the shard's backlog")                                 \
    X(deadline_expired, std::uint64_t,                                     \
      "accepted requests resolved DeadlineExceeded at the worker; not "    \
      "counted in served")                                                 \
    X(trap_fallbacks, std::uint64_t,                                       \
      "requests whose approximate run trapped and were re-served exact")   \
    X(degraded_serves, std::uint64_t,                                      \
      "requests served below the calibrated selection by the "             \
      "load-shedding degradation ladder")                                  \
    X(degrade_steps, std::uint64_t,                                        \
      "ladder steps toward cheaper variants")                              \
    X(restore_steps, std::uint64_t, "ladder steps back toward quality")    \
    X(degradation_level, std::int64_t,                                     \
      "current service-wide ladder level; 0 is full quality")              \
    X(shadow_runs, std::uint64_t,                                          \
      "shadow audits against the exact kernel")                            \
    X(shadow_violations, std::uint64_t, "shadow audits below the TOQ")     \
    X(recalibrations, std::uint64_t, "drift-triggered recalibrations")     \
    X(exact_while_recalibrating, std::uint64_t,                            \
      "requests served exact while their kernel recalibrated")             \
    X(suppressed_recalibrations, std::uint64_t,                            \
      "drift events ceded to the fleet's calibration plane; the kernel "   \
      "served exact until adoption")                                       \
    X(adopted_calibrations, std::uint64_t,                                 \
      "calibrations installed from a peer's publish")                      \
    X(adoption_rejects, std::uint64_t,                                     \
      "adoptions whose payload failed restore validation")                 \
    X(warm_registrations, std::uint64_t,                                   \
      "kernels registered with a stored calibration: no profiling sweep")  \
    X(warm_pipelines, std::uint64_t,                                       \
      "pipelines registered with a stored joint calibration")              \
    X(warm_data_tiers, std::uint64_t,                                      \
      "data-tier kernels registered with a stored precision calibration")  \
    X(cancelled_launches, std::uint64_t,                                   \
      "launches stopped mid-flight by a fired deadline token")             \
    X(watchdog_cancels, std::uint64_t,                                     \
      "launches the hung-launch watchdog cancelled; each charges the "     \
      "variant's breaker like a trap")                                     \
    X(watchdog_fallbacks, std::uint64_t,                                   \
      "requests re-served exact after a watchdog cancel")                  \
    X(launch_groups_completed, std::uint64_t,                              \
      "work-groups completed across every serve launch, cancelled "        \
      "launches included")                                                 \
    X(queue_depth, std::int64_t, "requests admitted and not yet popped")

/// The breaker totals, declared once as X(name, help).  Tuners own these
/// counts (runtime::TunerStats has a field of each name):
/// ApproxService::snapshot() sums them over every kernel, and a bare
/// Metrics::snapshot() leaves them 0.
#define PARAPROX_TUNER_TOTALS(X)                                           \
    X(backoffs, "variant downgrades across all kernels")                   \
    X(quarantines, "circuit-breaker openings")                             \
    X(reinstatements, "breakers closed after probing")                     \
    X(probes, "half-open probe executions")

/// Plain-struct copy of every counter, for printing and assertions.
struct MetricsSnapshot {
#define PARAPROX_SNAPSHOT_FIELD(name, type, help) type name = 0;
    PARAPROX_SERVE_METRICS(PARAPROX_SNAPSHOT_FIELD)
#undef PARAPROX_SNAPSHOT_FIELD
#define PARAPROX_TOTAL_FIELD(name, help) std::uint64_t name = 0;
    PARAPROX_TUNER_TOTALS(PARAPROX_TOTAL_FIELD)
#undef PARAPROX_TOTAL_FIELD
    /// Sojourn time (admission to resolution) per request.
    LatencySnapshot latency;
    /// Batch-size distribution of worker pops (backlog coalescing).
    BatchSnapshot batch;
    /// Amortized per-request latency inside coalesced batches: the batch
    /// serve wall clock divided by its member count, recorded once per
    /// member.  Compare against `latency` to see what coalescing buys.
    LatencySnapshot batch_latency;

    bool operator==(const MetricsSnapshot&) const = default;
};

/// Human-readable multi-line report, used by tools and bench smoke runs:
/// one row per declared name, then the three distributions.
std::string format_metrics(const MetricsSnapshot& snapshot);

/// The registry the service, monitor, and tuner report through.  Fields
/// are public atomics: the request path bumps them directly.
class Metrics {
  public:
#define PARAPROX_METRIC_ATOMIC(name, type, help) std::atomic<type> name{0};
    PARAPROX_SERVE_METRICS(PARAPROX_METRIC_ATOMIC)
#undef PARAPROX_METRIC_ATOMIC
    LatencyHistogram latency;
    BatchHistogram batch;
    LatencyHistogram batch_latency;

    MetricsSnapshot snapshot() const;
};

}  // namespace paraprox::serve
