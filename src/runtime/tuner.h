/// @file
/// The TOQ-driven runtime tuner.
///
/// Paraprox proper emits parameterized approximate kernels and delegates
/// selection to a Green/SAGE-style runtime (paper §2, Fig. 2 and §5); the
/// evaluation nonetheless needs that runtime, so we implement it: profile
/// every variant against the exact kernel on training inputs, pick the
/// fastest one meeting the target output quality, and recheck quality
/// every N invocations at steady state, backing off to a less aggressive
/// variant when the TOQ is violated.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/quality.h"
#include "vm/bytecode.h"

namespace paraprox::runtime {

/// What one execution of a kernel variant produced.
struct VariantRun {
    std::vector<float> output;   ///< Values the quality metric scores.
    double modeled_cycles = 0.0; ///< Device-model cost (0 for fast runs).
    /// Payload bytes the device model priced through the memory
    /// hierarchy (0 for fast runs); packed storage shrinks this even
    /// when cache effects hide the cycle win on small inputs.
    std::uint64_t modeled_bytes = 0;
    double wall_seconds = 0.0;
    std::uint64_t instructions = 0;  ///< Dynamic VM dispatches executed.
    bool trapped = false;        ///< Unsafe execution; variant unusable.
    /// The launch's cancel token fired (deadline or watchdog): the output
    /// is unusable but the variant did nothing wrong — the tuner returns
    /// such runs as-is, with no exact fallback and no breaker charge (the
    /// token's owner decides both).
    bool cancelled = false;
    /// Work-groups completed / total for the launch behind this run
    /// (0/0 when the execution path doesn't track groups).  On a
    /// cancelled run, completed < total measures the work the
    /// cancellation actually saved.
    std::int64_t groups_completed = 0;
    std::int64_t groups_total = 0;
};

/// One launchable configuration (the exact kernel is also expressed as a
/// variant; it must be first and is assumed safe).
struct Variant {
    std::string label;
    /// Monotone knob-aggressiveness rank used for backoff ordering; the
    /// exact kernel is 0.
    int aggressiveness = 0;
    /// Execute on the input identified by @p input_seed.
    std::function<VariantRun(std::uint64_t input_seed)> run;
    /// Optional lean serving closure: identical outputs to `run`, but
    /// executed in vm::ExecMode::Fast with no device pricing (its
    /// modeled_cycles stays 0).  Used by the serving entry points when the
    /// tuner's serving mode is Fast; when empty, `run` serves.
    std::function<VariantRun(std::uint64_t input_seed)> run_fast;
    /// Optional coalesced serving closure: execute every input in one
    /// launch over the concatenated index space (vm::ExecMode::Fast,
    /// unpriced), returning one run per seed in order — lookup tables are
    /// bound once for the whole batch and a trapped member poisons only
    /// its own run.  Used by Tuner::serve_batch for batches of two or
    /// more when the serving mode is Fast; when empty, batches fall back
    /// to per-seed execution.
    std::function<std::vector<VariantRun>(
        const std::vector<std::uint64_t>& input_seeds)>
        run_batch;
};

/// Profile data gathered for one variant during calibration.
struct VariantProfile {
    std::string label;
    double speedup = 1.0;     ///< Exact modeled cycles / variant's.
    double wall_speedup = 1.0;
    double quality = 100.0;   ///< Against the exact output.
    bool meets_toq = false;
    bool trapped = false;
};

/// Runtime statistics the tuner keeps.
struct TunerStats {
    std::uint64_t invocations = 0;
    std::uint64_t quality_checks = 0;
    std::uint64_t violations = 0;  ///< TOQ misses observed at runtime.
    std::uint64_t backoffs = 0;    ///< Variant downgrades performed.
    std::uint64_t recalibrations = 0;  ///< Full re-profiling passes.
    std::uint64_t quarantines = 0;     ///< Circuit-breaker openings.
    std::uint64_t reinstatements = 0;  ///< Breakers closed after probing.
    std::uint64_t probes = 0;          ///< Half-open probe executions.
};

/// Circuit-breaker policy for unhealthy variants.  The default —
/// one failure opens the breaker forever — reproduces the original
/// "demote permanently on first trap" behavior; a serving layer opts
/// into windowed thresholds and cooldown-based reinstatement.
struct QuarantineConfig {
    /// Failures within `failure_window` that open the breaker.
    int failure_threshold = 1;
    /// Window, in tuner invocations, over which failures accumulate.
    std::uint64_t failure_window = 64;
    /// Invocations an opened breaker stays open before half-open
    /// probing may begin.  0 = permanently open (legacy behavior).
    std::uint64_t cooldown = 0;
    /// Repeat offenders wait cooldown * growth^(offenses-1).
    double cooldown_growth = 2.0;
    std::uint64_t max_cooldown = 1u << 20;
    /// Consecutive healthy probes required to close a half-open breaker.
    int probe_quota = 1;
};

/// Quarantine lifecycle of one variant (paper-style backoff hardened
/// into a circuit breaker: Closed -> Open -> HalfOpen -> Closed).
enum class BreakerState {
    Closed,    ///< Healthy; eligible for selection.
    Open,      ///< Quarantined; excluded until the cooldown elapses.
    HalfOpen,  ///< Cooldown elapsed; being probed off the serving path.
};

std::string to_string(BreakerState state);

/// Observer view of one variant's breaker.
struct BreakerSnapshot {
    std::string label;
    BreakerState state = BreakerState::Closed;
    int failures = 0;  ///< Failures currently inside the window.
    int offenses = 0;  ///< Times this breaker has opened.
    std::uint64_t reopen_at = 0;  ///< Invocation when probing may start.
};

/// What Tuner::serve() produced, with the accounting a serving layer
/// needs: which variant actually ran, and why.
struct ServedRun {
    VariantRun run;
    int index = 0;      ///< Variant that produced `run`.
    std::string label;
    bool trap_fallback = false;  ///< Approx trapped; exact re-served.
    bool degraded = false;  ///< Load-shed below the calibrated selection.
};

/// What Tuner::serve_batch() produced: the selection resolved once for
/// the whole batch, plus per-member accounting (a member that trapped is
/// re-served exact and reports itself through its own ServedRun).
struct BatchServed {
    int index = 0;       ///< Selection the batch was launched with.
    std::string label;
    bool degraded = false;
    std::vector<ServedRun> runs;  ///< One per input seed, in order.
};

/// Everything calibrate() decided, as plain data: what the artifact
/// store persists and restore_calibration() re-installs in a later
/// process (skipping the profiling sweep entirely).
struct CalibrationState {
    std::vector<VariantProfile> profiles;
    std::vector<int> fallback_order;
    int selected = 0;
};

/// Calibrate-then-monitor tuner over a fixed variant list.
class Tuner {
  public:
    /// @param variants  variants[0] must be the exact kernel.
    /// @param metric    the application's quality metric (Table 1).
    /// @param toq_percent  target output quality, e.g. 90.
    /// @param check_interval  recheck quality every this many invocations
    ///        (SAGE found 40-50 keeps overhead under ~5%, §5).
    Tuner(std::vector<Variant> variants, Metric metric, double toq_percent,
          int check_interval = 50);

    /// Profile every variant on @p training_seeds and select the fastest
    /// one meeting the TOQ (modeled cycles decide; falls back to exact if
    /// none qualify).  Returns the profiles for inspection.
    ///
    /// By default the variant x seed sweep runs on the global ThreadPool;
    /// selection is unaffected because it is decided by deterministic
    /// modeled cycles, aggregated in a fixed order after all runs finish.
    /// Wall-clock speedups are advisory under concurrency.  Pass
    /// @p parallel = false to force a serial sweep (identical profiles
    /// except for wall times).
    const std::vector<VariantProfile>&
    calibrate(const std::vector<std::uint64_t>& training_seeds,
              bool parallel = true);

    /// Re-run calibration over fresh training inputs, rebuilding the
    /// fallback chain and selection from scratch and bumping
    /// stats().recalibrations.  Unlike the permanent demotion of invoke()
    /// backoff, a recalibration can re-promote a previously dropped
    /// variant once inputs recover.  Safe to call while other threads are
    /// inside run_selected() / run_exact(); they keep serving the old
    /// selection until the new one is installed.
    const std::vector<VariantProfile>&
    recalibrate(const std::vector<std::uint64_t>& training_seeds,
                bool parallel = true);

    /// Execute the current selection on @p input_seed.  Periodically also
    /// runs the exact kernel on the same input to audit quality; on a TOQ
    /// violation, steps down to the next less aggressive variant.
    /// Single-caller: concurrent serving goes through run_selected().
    VariantRun invoke(std::uint64_t input_seed);

    /// Thread-safe serving path: execute the currently selected variant
    /// without invoke()'s periodic quality audit — a serving layer is
    /// expected to own auditing (see serve::QualityMonitor).  A trapped
    /// execution still demotes the variant and re-serves the input with
    /// the exact kernel.  When provided, @p served_label / @p served_index
    /// receive the variant that actually produced the returned run (the
    /// exact kernel after a trap fallback) — unlike a separate
    /// selected_*_snapshot() call, they cannot race with a concurrent
    /// reselection.
    VariantRun run_selected(std::uint64_t input_seed,
                            std::string* served_label = nullptr,
                            int* served_index = nullptr);

    /// Thread-safe serving path with full accounting: serve_batch() of
    /// one seed.  run_selected() is a thin wrapper over this.
    ServedRun serve(std::uint64_t input_seed);

    /// The serving path: resolve the selection (and the ladder) once,
    /// then execute every seed against it — through the variant's
    /// run_batch closure as one concatenated launch when there are
    /// several seeds, the serving mode is Fast and the closure exists,
    /// per-seed otherwise (each seed under its own one-token
    /// exec::CancelScope, taken from the caller's scope when that holds
    /// one token per seed).  Counts seeds.size() invocations.  Each
    /// trapped member reports its failure to the breaker and is
    /// re-served exact outside any cancel scope, without disturbing its
    /// batch-mates; a cancelled member comes back as-is.  The selection
    /// is held fixed across the batch; a breaker opened by a mid-batch
    /// trap moves the *next* batch's selection.
    BatchServed serve_batch(const std::vector<std::uint64_t>& input_seeds);

    /// Thread-safe: execute the exact kernel (variants[0]) on
    /// @p input_seed, bypassing selection and all bookkeeping.
    VariantRun run_exact(std::uint64_t input_seed) const;

    /// Install a circuit-breaker policy (see QuarantineConfig).  Resets
    /// no breaker state; call before serving traffic.
    void set_quarantine(const QuarantineConfig& config);
    QuarantineConfig quarantine_config() const;

    /// Report a health failure (trap or quality-audit miss) against
    /// variant @p index.  Counts it inside the failure window and opens
    /// the breaker — moving the selection off the variant — once the
    /// window holds `failure_threshold` failures.  The exact kernel
    /// (index 0) is exempt.  Returns true when this call opened the
    /// breaker.  Thread-safe; the serving layer calls this on shadow
    /// audit violations, the trap paths call it internally.
    bool record_failure(int index);

    /// Quarantine probing, driven off the serving path: returns the
    /// index of a variant that is due for a half-open probe (moving it
    /// Open -> HalfOpen when its cooldown has elapsed), or -1 when no
    /// breaker is probe-ready.  Only variants on the calibrated fallback
    /// chain are probed; ladder-only variants stay quarantined until the
    /// next recalibration resets breaker state.
    int probe_candidate();

    /// Execute variant @p index for a half-open probe (counted in
    /// stats().probes).  The caller judges health — typically
    /// !trapped && quality >= TOQ against an exact run of the same
    /// input — and reports it through record_probe().
    VariantRun run_probe(int index, std::uint64_t input_seed);

    /// Report a half-open probe outcome.  `probe_quota` healthy probes
    /// close the breaker and re-run selection (the variant may be
    /// re-promoted); one unhealthy probe re-opens it with a grown
    /// cooldown.  Returns true when this call closed the breaker.
    bool record_probe(int index, bool healthy);

    std::vector<BreakerSnapshot> breaker_snapshot() const;

    /// Load-shedding ladder: at level L the serving path steps the
    /// selection L entries toward the fastest calibrated variant —
    /// deliberately trading quality for throughput — skipping
    /// quarantined variants.  Level 0 (default) serves the calibrated
    /// selection.  Thread-safe; takes effect on the next serve().
    void set_degradation_level(int level);
    int degradation_level() const;

    /// How invoke()/run_selected()/run_exact() execute variants.
    /// Calibration always uses the instrumented `run` closures — it needs
    /// the modeled cycles — but steady-state serving can switch to
    /// vm::ExecMode::Fast so requests stop paying for profiling (paper §5:
    /// calibrate once, serve lean).  Thread-safe; takes effect on the next
    /// execution.  No-op for variants without a run_fast closure.
    void set_serving_mode(vm::ExecMode mode);
    vm::ExecMode serving_mode() const;

    /// Capture the post-calibration tuning state for persistence (see
    /// store::ArtifactStore).  Requires a calibrated tuner.
    CalibrationState calibration_state() const;

    /// Warm start: install a previously captured calibration instead of
    /// running calibrate().  The state is validated against the live
    /// variant list (profile labels must match variants_ one-to-one, the
    /// fallback chain must be well-formed and end at the exact kernel);
    /// any mismatch returns false and leaves the tuner untouched.  A
    /// restored tuner re-validates quality on its first invoke() audit
    /// regardless of the check interval.
    bool restore_calibration(const CalibrationState& state);

    /// Labels of variants whose breaker is currently not Closed — the
    /// quarantine verdicts a scale-out replica publishes alongside its
    /// calibration.  Thread-safe.
    std::vector<std::string> quarantined_labels() const;

    /// Adopt a peer's quarantine verdict: open the breaker of the
    /// variant named @p label (selection moves off it if needed).  The
    /// exact kernel is exempt, as everywhere.  Returns false for an
    /// unknown label — adoption across a module edit must degrade to a
    /// no-op, not a crash.  Thread-safe.
    bool adopt_quarantine(const std::string& label);

    /// Locked: selection moves concurrently with the serving path (see
    /// reselect_locked), so even these simple reads must
    /// synchronize.  The returned label reference stays valid — variant
    /// labels are immutable — but may be superseded by the time the
    /// caller reads it; use run_selected's out-parameters to name the
    /// variant that served a specific request.
    int selected_index() const;
    const std::string& selected_label() const;

    const TunerStats& stats() const { return stats_; }
    const std::vector<VariantProfile>& profiles() const { return profiles_; }

    /// Copies taken under the tuner lock, for observers that run
    /// concurrently with serving (the reference accessors above are only
    /// safe once the tuner has quiesced).
    TunerStats stats_snapshot() const;
    std::string selected_label_snapshot() const;
    int selected_index_snapshot() const;

  private:
    /// Per-variant circuit-breaker state (indexed like variants_).
    struct VariantHealth {
        BreakerState state = BreakerState::Closed;
        /// Invocation stamps of recent failures, pruned to the window.
        std::deque<std::uint64_t> failures;
        int offenses = 0;
        std::uint64_t reopen_at = 0;
        int probe_successes = 0;
    };

    /// record_failure() with mutex_ held.
    bool record_failure_locked(int index);

    /// Open variant @p index's breaker: schedule reprobing per the
    /// cooldown policy and move the selection off it if needed.  Caller
    /// holds mutex_.
    void open_breaker_locked(int index);

    /// Move selected_ to the first healthy entry of the fallback chain.
    /// Caller holds mutex_.
    void reselect_locked();

    /// All breakers closed, failure history cleared.  Caller holds
    /// mutex_.
    void reset_health_locked();

    /// Apply the degradation ladder to selected_.  Caller holds mutex_.
    int resolve_serving_index_locked(bool* degraded) const;

    /// Execute variant @p index under the current serving mode.
    VariantRun execute(int index, std::uint64_t input_seed) const;

    std::vector<Variant> variants_;  ///< Immutable after construction.
    Metric metric_;
    double toq_;
    int check_interval_;

    /// Guards all mutable tuning state below.  Variant executions happen
    /// outside the lock; the closures are concurrency-safe by construction
    /// (parallel calibration already runs them from many pool threads).
    mutable std::mutex mutex_;
    int selected_ = 0;
    std::vector<VariantProfile> profiles_;
    /// Variant indices ordered by profiled speed among TOQ-passing ones
    /// (for backoff).
    std::vector<int> fallback_order_;
    /// Every non-trapped variant (exact included, below-TOQ included)
    /// ordered fastest-first: the degradation ladder's rungs.
    std::vector<int> speed_order_;
    QuarantineConfig quarantine_;
    std::vector<VariantHealth> health_;  ///< Indexed like variants_.
    int degradation_level_ = 0;
    TunerStats stats_;
    bool calibrated_ = false;
    /// Set by restore_calibration(): the next invoke() of an approximate
    /// selection audits immediately, re-validating the stored profile
    /// against live inputs before trusting it for a full check interval.
    bool audit_next_ = false;
    std::atomic<vm::ExecMode> serving_mode_{vm::ExecMode::Instrumented};
};

}  // namespace paraprox::runtime
