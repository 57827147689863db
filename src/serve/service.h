/// @file
/// ApproxService: the concurrent approximation-serving front end.
///
/// A KernelSession (or any variant list) ends at a calibrated
/// runtime::Tuner — a single-caller object.  ApproxService is what turns
/// that into a service: requests enter through per-kernel sharded queues
/// with reject-on-full backpressure, worker threads pop whatever same-
/// kernel backlog is queued (never waiting for more) and serve it on one
/// path — a request is a batch of one: expired members scatter, members
/// with an exact detour (recalibration, an admitted half-open probe)
/// take it, and everyone left runs through one watchdog flight and one
/// Tuner::serve_batch against the kernel's currently selected variant,
/// each member's cancel token armed around that call only.  A per-kernel
/// QualityMonitor shadows a sample of requests with the exact kernel.
/// On sustained TOQ violation the monitor triggers an asynchronous
/// recalibration (on the global ThreadPool) over the seeds that actually
/// drifted; while it runs, the kernel's requests are served by the
/// always-safe exact member, so nothing queued is ever dropped.
///
///     submit -> ShardedQueue[kernel] -> workers -> detours (exact)
///                                         |-> Tuner::serve_batch
///                                         |-> QualityMonitor (per member)
///                                                |-> recalibrate (async)

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/data_tier.h"
#include "runtime/family.h"
#include "runtime/pipeline.h"
#include "runtime/tuner.h"
#include "serve/metrics.h"
#include "serve/monitor.h"
#include "serve/queue.h"
#include "serve/watchdog.h"
#include "store/artifact_store.h"

namespace paraprox::serve {

/// Load-shedding policy: under sustained queue pressure the service
/// steps every kernel's serving point toward cheaper calibrated variants
/// (the paper's quality/speed knob used as a degradation ladder) and
/// steps back up once pressure clears.
struct DegradationConfig {
    bool enabled = true;
    /// Queue fill fraction at/above which pressure accumulates.
    double high_watermark = 0.75;
    /// Queue fill fraction at/below which relief accumulates.
    double low_watermark = 0.25;
    /// Pressure (relief) observations required to step down (up) —
    /// one per dequeued request, so a popped batch of N counts N times.
    /// Hysteresis against bursts.
    int sustain = 32;
    /// Deepest ladder level the service will shed to.
    int max_level = 3;
    /// How often an *idle* worker contributes a relief observation.
    /// Pressure used to be evaluated only when a request was dequeued,
    /// so a service that degraded under a burst and then went quiet
    /// stayed degraded indefinitely and served its first post-idle
    /// requests at reduced quality; the idle tick lets the ladder
    /// restore while no traffic flows.
    std::chrono::steady_clock::duration idle_tick =
        std::chrono::milliseconds(10);
};

/// Same-kernel request coalescing knobs.
struct BatchConfig {
    /// Most requests one worker pop may serve as a single concatenated
    /// launch.  1 disables batching entirely.  A pop takes only what the
    /// kernel's shard already holds and never waits for more, so batches
    /// form from backlog alone.
    std::size_t max_batch = 16;
};

struct ServiceConfig {
    /// Worker threads; 0 resolves like ThreadPool::global() (the
    /// PARAPROX_THREADS override, then hardware_concurrency).
    std::size_t num_workers = 0;
    /// Bounded queue capacity *per kernel shard*; pushes beyond it are
    /// rejected.  Each registered kernel owns a shard, so kernels no
    /// longer compete for one global admission budget.
    std::size_t queue_capacity = 256;
    /// Same-kernel coalescing (max batch).
    BatchConfig batching;
    /// Per-kernel monitoring knobs.
    QualityMonitor::Config monitor;
    /// How workers execute variants.  Serving defaults to the fast VM
    /// loop: calibration (inside register_kernel) always runs
    /// instrumented for the device cost models, but steady-state requests
    /// should not pay for profiling they never read.  Variants without a
    /// run_fast closure are unaffected.
    vm::ExecMode exec_mode = vm::ExecMode::Fast;
    /// Circuit-breaker policy installed on every kernel's tuner.  Unlike
    /// the tuner's own permanent-demotion default, a service expects
    /// transient faults: three failures inside a 64-invocation window
    /// quarantine a variant for 256 invocations (doubling per repeat
    /// offense), after which half-open probes can reinstate it.
    runtime::QuarantineConfig quarantine{
        /*failure_threshold=*/3, /*failure_window=*/64, /*cooldown=*/256,
        /*cooldown_growth=*/2.0, /*max_cooldown=*/1u << 20,
        /*probe_quota=*/1};
    /// Load-adaptive degradation ladder knobs.
    DegradationConfig degradation;
    /// Launch-termination authority: per-member deadline cancellation and
    /// hung-launch detection (see serve::Watchdog).
    WatchdogConfig watchdog;
};

/// How the scale-out calibration plane arbitrates a drift event.  The
/// service consults an installed RecalibrationGate before burning CPU on
/// a recalibration; without a gate every drift proceeds locally.
enum class RecalibrationDecision {
    /// Recalibrate locally (the single-process default).
    Proceed,
    /// A peer owns this drift event (it holds the lease): serve exact
    /// and wait for adopt_calibration() instead of recalibrating.
    AwaitAdoption,
    /// The fleet already resolved this event (the gate adopted the
    /// published calibration inline): clear the drift evidence and keep
    /// serving — no exact detour, no local recalibration.
    AlreadyResolved,
};

/// Fleet arbitration hook, called once per drift event with the kernel
/// name.  Runs on the triggering worker thread; keep it fast.
using RecalibrationGate =
    std::function<RecalibrationDecision(const std::string& kernel)>;

/// Publish hook, called off the request path (on the recalibration task)
/// after a locally won recalibration completes, with the fresh
/// calibration and the quarantine verdicts in force.
using CalibrationPublisher = std::function<void(
    const std::string& kernel, const runtime::CalibrationState& calibration,
    const std::vector<std::string>& quarantined)>;

/// How an accepted request resolved.
enum class ServeStatus {
    Ok,
    DeadlineExceeded,  ///< Expired while queued; run is empty.
};

const char* to_string(ServeStatus status);

/// What one served request produced.
struct Response {
    ServeStatus status = ServeStatus::Ok;
    runtime::VariantRun run;     ///< Empty when status != Ok.
    std::string served_by;       ///< Label of the variant that ran.
    bool shadowed = false;
    double shadow_quality = -1.0;  ///< Valid when shadowed.
    /// Served below the calibrated selection by the degradation ladder.
    bool degraded = false;
    /// The approximate run trapped; the exact kernel re-served it.
    bool trap_fallback = false;
    /// The watchdog cancelled the approximate launch (hang ceiling
    /// exceeded); the exact kernel re-served it and the hang was charged
    /// to the variant's breaker.
    bool watchdog_fallback = false;
};

/// Per-request admission options.
struct SubmitOptions {
    /// Absolute deadline: the request is rejected at admission when it
    /// cannot be met, and resolved with ServeStatus::DeadlineExceeded if
    /// it expires while queued.  No deadline = serve whenever.
    std::optional<std::chrono::steady_clock::time_point> deadline;

    /// Convenience: a deadline @p budget from now.
    static SubmitOptions within(std::chrono::steady_clock::duration budget)
    {
        SubmitOptions options;
        options.deadline = std::chrono::steady_clock::now() + budget;
        return options;
    }
};

/// Outcome of submit(): either a future or a rejection reason.
struct Ticket {
    bool accepted = false;
    std::string reject_reason;  ///< Empty when accepted.
    std::future<Response> response;  ///< Valid when accepted.
};

/// Per-stage attribution for registered pipelines: which stage of the
/// chain trapped.  Breakers quarantine whole joint configs (they are the
/// serving unit); this names the culprit stage inside them.
struct PipelineStageSnapshot {
    std::string stage;
    std::uint64_t traps = 0;
};

/// Per-kernel observability: selection, tuner stats, monitor state.
struct KernelSnapshot {
    std::string kernel;
    std::string selected;
    bool recalibrating = false;
    /// Waiting for a peer's published calibration (scale-out): requests
    /// are served exact until adopt_calibration() lands.
    bool awaiting_adoption = false;
    int degradation_level = 0;
    runtime::TunerStats tuner;
    QualityMonitor::Snapshot monitor;
    std::vector<runtime::BreakerSnapshot> breakers;
    /// Empty unless registered via register_pipeline().
    std::vector<PipelineStageSnapshot> stages;
    /// Requests waiting in this kernel's shard right now.
    std::size_t queue_depth = 0;
};

/// Whole-service observability; metrics.backoffs and the breaker
/// counters (quarantines, reinstatements, probes) are aggregated from
/// the per-kernel tuner stats here.
struct ServiceSnapshot {
    MetricsSnapshot metrics;
    std::vector<KernelSnapshot> kernels;
};

class ApproxService {
  public:
    explicit ApproxService(ServiceConfig config = {});
    ~ApproxService();  ///< stop()s if the caller has not.

    ApproxService(const ApproxService&) = delete;
    ApproxService& operator=(const ApproxService&) = delete;

    /// Register a kernel family under @p name and calibrate its tuner on
    /// @p training_seeds (variants[0] must be the exact kernel).
    /// Registering while serving is safe; re-registering a name is an
    /// error.  With a @p warm_key and a global ArtifactStore, a stored
    /// calibration matching the key skips the profiling sweep (the tuner
    /// re-validates quality on its first audit,
    /// metrics().warm_registrations); a cold calibration is persisted
    /// under the key for the next process.
    /// KernelSession::calibration_key() produces the right key.
    void register_kernel(const std::string& name,
                         std::vector<runtime::Variant> variants,
                         runtime::Metric metric, double toq_percent,
                         const std::vector<std::uint64_t>& training_seeds,
                         std::optional<store::StoreKey> warm_key = {});

    /// Register a whole pipeline under @p name: joint variants from
    /// @p session, calibrated end-to-end against @p toq_percent on the
    /// final stage's output.  Submits against the name ride the exact
    /// same admission/deadline/quarantine/degradation machinery as
    /// single kernels — one deadline covers the whole chain (a request
    /// is one joint execution), breakers quarantine joint configs, and
    /// kernel_snapshot() additionally attributes traps to stages.  With
    /// a global ArtifactStore, session.family() restores a stored joint
    /// plan + calibration without any probe runs
    /// (metrics().warm_pipelines) or persists a cold search +
    /// calibration.  The session may be destroyed after registration;
    /// the closures and stage stats outlive it.
    void register_pipeline(const std::string& name,
                           runtime::PipelineSession& session,
                           runtime::Metric metric, double toq_percent,
                           const std::vector<std::uint64_t>& training_seeds,
                           const runtime::JointSearchOptions& search = {});

    /// Register @p session's exact kernel as a precision-variant family
    /// under @p name: runtime::build_data_tier enumerates per-buffer
    /// storage-codec plans (pruned by the static safety analysis and one
    /// traffic-profiling run), each plan serves as an ordinary variant,
    /// so quarantine breakers and the degradation ladder apply to
    /// precision exactly as to algorithmic approximation.  With a global
    /// ArtifactStore, runtime::data_tier_family() restores stored plans +
    /// calibration with zero profiling or search runs
    /// (metrics().warm_data_tiers) or persists a cold build.  The session
    /// may be destroyed afterwards.
    void register_data_kernel(const std::string& name,
                              const runtime::KernelSession& session,
                              const core::LaunchPlan& plan,
                              runtime::Metric metric, double toq_percent,
                              const std::vector<std::uint64_t>&
                                  training_seeds,
                              const runtime::DataTierOptions& options = {});

    /// Admit one request.  Never blocks: a full queue, an unknown kernel,
    /// a stopped service, or an unmeetable deadline (already expired, or
    /// the head-of-line request has been waiting longer than the
    /// remaining budget) rejects immediately with a reason.
    Ticket submit(const std::string& kernel, std::uint64_t seed,
                  const SubmitOptions& options = {});

    /// Operator hook: asynchronously recalibrate @p kernel over @p seeds
    /// (the registration seeds when empty).  Shadowing cannot observe
    /// recovery while the selection is exact, so re-promotion after a
    /// drift episode ends is a driver decision.  No-op if a
    /// recalibration is already in flight; drain() waits for it.
    void recalibrate_kernel(const std::string& kernel,
                            std::vector<std::uint64_t> seeds = {});

    // ---- Scale-out calibration plane ---------------------------------
    //
    // A net::CalibrationPlane installs a gate (drift arbitration) and a
    // publisher (share the won recalibration) and feeds peer publishes
    // back through adopt_calibration().  Install the hooks before
    // serving traffic; they are copied under a lock per drift event, so
    // replacing them mid-flight is safe but the old hook may still see
    // one in-progress event.

    void set_recalibration_gate(RecalibrationGate gate);
    void set_calibration_publisher(CalibrationPublisher publisher);

    /// Install a peer-published calibration (and its quarantine
    /// verdicts) into @p kernel's tuner, clearing any awaiting-adoption
    /// state and the monitor's drift evidence.  False (and
    /// metrics().adoption_rejects) when the kernel is unknown or the
    /// payload fails restore validation against the live variant list —
    /// an adoption across a module edit degrades to a counted no-op.
    bool adopt_calibration(const std::string& kernel,
                           const runtime::CalibrationState& calibration,
                           const std::vector<std::string>& quarantined);

    /// True while @p kernel serves exact awaiting a peer's publish.
    bool awaiting_adoption(const std::string& kernel) const;

    /// Block until every accepted request has been served and no
    /// recalibration is in flight.
    void drain();

    /// Reject new requests, serve everything already queued, join the
    /// workers, and wait out pending recalibrations.  Idempotent and
    /// safe to race with itself and with submit(): late submits reject
    /// with "queue closed" / "service stopped", and a second stop()
    /// waits for the first to finish the shutdown.
    void stop();

    std::size_t num_workers() const { return workers_.size(); }
    const Metrics& metrics() const { return metrics_; }
    ServiceSnapshot snapshot() const;
    KernelSnapshot kernel_snapshot(const std::string& kernel) const;

  private:
    struct KernelState {
        KernelState(std::string name_,
                    std::unique_ptr<runtime::Tuner> tuner_,
                    runtime::Metric metric_, double toq_,
                    QualityMonitor::Config monitor_config,
                    std::vector<std::uint64_t> seeds)
            : name(std::move(name_)),
              tuner(std::move(tuner_)),
              metric(metric_), toq(toq_),
              monitor(toq_, monitor_config),
              training_seeds(std::move(seeds)) {}

        const std::string name;
        const std::unique_ptr<runtime::Tuner> tuner;
        const runtime::Metric metric;
        const double toq;
        QualityMonitor monitor;
        const std::vector<std::uint64_t> training_seeds;
        std::atomic<bool> recalibrating{false};
        /// Scale-out: a peer owns the current drift event; serve exact
        /// until its publish is adopted.
        std::atomic<bool> awaiting_adoption{false};
        /// Per-stage trap attribution; null for single kernels.
        std::shared_ptr<const runtime::PipelineStats> pipeline_stats;
        /// This kernel's shard in the sharded queue.
        std::size_t shard = 0;
        /// EWMA of recent clean launch wall clocks (seconds); 0 until the
        /// first observation.  The watchdog's hang ceiling is
        /// hang_multiplier x this, floored at hang_floor.
        std::atomic<double> expected_launch_seconds{0.0};
    };

    struct Job {
        KernelState* kernel = nullptr;
        std::uint64_t seed = 0;
        std::optional<std::chrono::steady_clock::time_point> deadline;
        /// Admission time, for sojourn latency (submit -> resolution).
        std::chrono::steady_clock::time_point submitted_at;
        std::promise<Response> promise;
    };

    void worker_loop(std::size_t worker_index);
    /// Serve one popped batch (all jobs share a kernel): scatter expired
    /// members to DeadlineExceeded, take each remaining member's exact
    /// detour (see serve_detour), serve the rest through one
    /// Tuner::serve_batch registered with the watchdog under @p worker's
    /// slot — each member's token armed around that call only — and
    /// resolve every member's future: members needing no exact run
    /// first, then the shadow audits and hung-launch re-serves, in member
    /// order.
    void serve_batch(std::size_t worker, KernelState& state,
                     std::vector<Job>& jobs);
    /// Serve @p job exact, outside any cancel scope, when the kernel is
    /// recalibrating or awaiting adoption, or when a half-open probe is
    /// due and the monitor admits one (the probe rides the job).  Returns
    /// false when the job takes the primary path.
    bool serve_detour(KernelState& state, Job& job);
    /// Run @p seed exact, score @p response against it, and feed the
    /// verdict to the variant's breaker and the kernel's monitor.
    void shadow_audit(KernelState& state, std::uint64_t seed, int index,
                      Response& response);
    /// Resolve one job's future with @p response.  Ok responses record
    /// sojourn latency and the served counter; non-Ok responses (deadline
    /// cancellations) resolve the future and the flight only, keeping
    /// `served` a count of successfully served requests.
    void resolve_job(Job& job, Response response);
    /// Post-launch handling for a run the token stopped mid-flight:
    /// Deadline -> DeadlineExceeded response; Watchdog -> charge the
    /// variant's breaker (once per launch, see @p hang_charged) and
    /// re-serve exact.  Returns the response to resolve with.
    Response finish_cancelled(KernelState& state, std::uint64_t seed,
                              const runtime::ServedRun& served,
                              const vm::CancelToken& cancel,
                              bool& hang_charged);
    /// The hang ceiling for one launch of @p state right now.
    std::chrono::steady_clock::duration hang_ceiling(
        const KernelState& state) const;
    /// Fold a clean launch wall clock into the kernel's EWMA.
    static void observe_launch_wall(KernelState& state, double seconds);
    /// The one registration path behind every register_*: warm-start or
    /// calibrate @p family's tuner (runtime::warm_tuner), apply the
    /// service-level tuner policy, and install the kernel under @p name.
    /// Returns true when the tuner was restored from the store.
    bool register_family(const std::string& name,
                         const runtime::VariantFamily& family,
                         const std::vector<std::uint64_t>& training_seeds,
                         std::shared_ptr<const runtime::PipelineStats>
                             pipeline_stats = nullptr);
    /// Empty @p seeds: use the monitor's recent (drifted) seeds, then the
    /// registration seeds.
    void trigger_recalibration(KernelState& state,
                               std::vector<std::uint64_t> seeds);
    KernelState* find_kernel(const std::string& name) const;
    void finish_one();
    /// Fold @p weight pressure observations of a shard at @p depth into
    /// the degradation ladder (a popped batch of N counts N times; an
    /// idle tick counts once at depth 0); steps the ladder when the
    /// streak crosses the sustain threshold.
    void update_pressure(std::size_t depth, int weight);
    KernelSnapshot snapshot_kernel(const KernelState& state) const;

    const ServiceConfig config_;
    Metrics metrics_;
    ShardedQueue<Job> queue_;
    /// Deadline/hang sweeper over the workers' in-flight launches.
    /// Declared before workers_ so it outlives them on destruction.
    Watchdog watchdog_;

    /// Scale-out hooks (see set_recalibration_gate).
    mutable std::mutex hooks_mutex_;
    RecalibrationGate recalibration_gate_;
    CalibrationPublisher calibration_publisher_;

    mutable std::mutex kernels_mutex_;
    std::map<std::string, std::unique_ptr<KernelState>> kernels_;

    std::vector<std::thread> workers_;
    std::atomic<bool> stopped_{false};
    /// Serializes stop(): a second caller waits out the first's joins
    /// instead of racing them.
    std::mutex stop_mutex_;

    /// Degradation-ladder controller state.
    std::mutex pressure_mutex_;
    int high_streak_ = 0;
    int low_streak_ = 0;
    int degradation_level_ = 0;

    /// In-flight accounting for drain()/stop().
    mutable std::mutex flight_mutex_;
    std::condition_variable flight_cv_;
    std::uint64_t flight_accepted_ = 0;
    std::uint64_t flight_completed_ = 0;
    int pending_recalibrations_ = 0;
};

}  // namespace paraprox::serve
