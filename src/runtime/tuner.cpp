#include "runtime/tuner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exec/launch.h"
#include "support/error.h"
#include "support/parallel.h"

namespace paraprox::runtime {

namespace {

/// reopen_at sentinel: the breaker never leaves Open on its own.
constexpr std::uint64_t kNeverReopen =
    std::numeric_limits<std::uint64_t>::max();

}  // namespace

std::string
to_string(BreakerState state)
{
    switch (state) {
      case BreakerState::Closed: return "closed";
      case BreakerState::Open: return "open";
      case BreakerState::HalfOpen: return "half-open";
    }
    return "<bad-state>";
}

Tuner::Tuner(std::vector<Variant> variants, Metric metric,
             double toq_percent, int check_interval)
    : variants_(std::move(variants)), metric_(metric), toq_(toq_percent),
      check_interval_(check_interval)
{
    PARAPROX_CHECK(!variants_.empty(), "Tuner needs at least one variant");
    PARAPROX_CHECK(variants_[0].aggressiveness == 0,
                   "variants[0] must be the exact kernel");
    PARAPROX_CHECK(check_interval_ > 0, "check interval must be positive");
}

const std::vector<VariantProfile>&
Tuner::calibrate(const std::vector<std::uint64_t>& training_seeds,
                 bool parallel)
{
    PARAPROX_CHECK(!training_seeds.empty(),
                   "calibration needs at least one training input");

    // Materialize every (variant, seed) execution first — in parallel when
    // requested — then aggregate serially in a fixed order.  Selection is
    // decided by modeled cycles, which are deterministic per run, so the
    // parallel sweep picks the same variant as a serial one; wall times are
    // advisory and may be skewed by concurrency.  The sweep runs outside
    // the tuner lock so concurrent run_selected() callers keep serving the
    // previous selection during a recalibration.
    const std::size_t num_seeds = training_seeds.size();
    std::vector<VariantRun> runs(variants_.size() * num_seeds);
    auto run_one = [&](std::size_t job) {
        const std::size_t v = job / num_seeds;
        const std::size_t s = job % num_seeds;
        runs[job] = variants_[v].run(training_seeds[s]);
    };
    if (parallel) {
        ThreadPool::global().parallel_for(runs.size(), run_one);
    } else {
        for (std::size_t job = 0; job < runs.size(); ++job)
            run_one(job);
    }

    std::lock_guard<std::mutex> lock(mutex_);
    profiles_.assign(variants_.size(), {});

    const VariantRun* exact_runs = runs.data();
    double exact_cycles = 0.0;
    double exact_wall = 0.0;
    for (std::size_t s = 0; s < num_seeds; ++s) {
        PARAPROX_CHECK(!exact_runs[s].trapped,
                       "exact kernel trapped during calibration");
        exact_cycles += exact_runs[s].modeled_cycles;
        exact_wall += exact_runs[s].wall_seconds;
    }
    profiles_[0] = {variants_[0].label, 1.0, 1.0, 100.0, true, false};

    for (std::size_t v = 1; v < variants_.size(); ++v) {
        VariantProfile& profile = profiles_[v];
        profile.label = variants_[v].label;
        double cycles = 0.0;
        double wall = 0.0;
        double quality_acc = 0.0;
        bool trapped = false;
        for (std::size_t s = 0; s < num_seeds; ++s) {
            const VariantRun& run = runs[v * num_seeds + s];
            if (run.trapped) {
                trapped = true;
                break;
            }
            cycles += run.modeled_cycles;
            wall += run.wall_seconds;
            quality_acc += quality_percent(metric_, exact_runs[s].output,
                                           run.output);
        }
        if (trapped) {
            profile.trapped = true;
            profile.meets_toq = false;
            continue;
        }
        profile.quality = quality_acc / static_cast<double>(num_seeds);
        profile.speedup = cycles > 0.0 ? exact_cycles / cycles : 1.0;
        profile.wall_speedup = wall > 0.0 ? exact_wall / wall : 1.0;
        profile.meets_toq = profile.quality >= toq_;
    }

    // Candidates: TOQ-passing variants sorted fastest-first; the exact
    // kernel terminates the fallback chain.
    fallback_order_.clear();
    for (std::size_t v = 1; v < variants_.size(); ++v) {
        if (profiles_[v].meets_toq)
            fallback_order_.push_back(static_cast<int>(v));
    }
    std::sort(fallback_order_.begin(), fallback_order_.end(),
              [&](int a, int b) {
                  return profiles_[a].speedup > profiles_[b].speedup;
              });
    fallback_order_.push_back(0);

    // Degradation ladder rungs: every non-trapped variant — exact and
    // below-TOQ ones included — fastest-first.  Under load shedding the
    // serving path walks this list toward cheaper entries.
    speed_order_.clear();
    for (std::size_t v = 0; v < variants_.size(); ++v) {
        if (!profiles_[v].trapped)
            speed_order_.push_back(static_cast<int>(v));
    }
    std::stable_sort(speed_order_.begin(), speed_order_.end(),
                     [&](int a, int b) {
                         return profiles_[a].speedup > profiles_[b].speedup;
                     });

    selected_ = fallback_order_.front();
    calibrated_ = true;
    audit_next_ = false;
    reset_health_locked();
    return profiles_;
}

CalibrationState
Tuner::calibration_state() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    PARAPROX_CHECK(calibrated_,
                   "calibration_state() needs a calibrated tuner");
    return {profiles_, fallback_order_, selected_};
}

bool
Tuner::restore_calibration(const CalibrationState& state)
{
    // Validate against the live variant list before touching anything: a
    // stale or foreign calibration (renamed variants, different variant
    // count, malformed fallback chain) must read as a miss, not install
    // a selection pointing at the wrong kernel.
    if (state.profiles.size() != variants_.size())
        return false;
    for (std::size_t v = 0; v < variants_.size(); ++v) {
        if (state.profiles[v].label != variants_[v].label)
            return false;
    }
    if (state.fallback_order.empty() || state.fallback_order.back() != 0)
        return false;
    std::vector<bool> seen(variants_.size(), false);
    for (const int index : state.fallback_order) {
        if (index < 0 ||
            index >= static_cast<int>(variants_.size()) || seen[index])
            return false;
        seen[index] = true;
        if (index != 0 && (!state.profiles[index].meets_toq ||
                           state.profiles[index].trapped))
            return false;
    }
    if (state.selected != state.fallback_order.front())
        return false;
    // The exact kernel can never have trapped during a real calibration;
    // a record claiming so (stale write from an edited module, hostile
    // bytes that survive the checksum) would silently drop index 0 from
    // the degradation ladder.  Reject it like any other shape mismatch.
    if (state.profiles[0].trapped || !state.profiles[0].meets_toq)
        return false;

    std::lock_guard<std::mutex> lock(mutex_);
    profiles_ = state.profiles;
    fallback_order_ = state.fallback_order;
    selected_ = state.selected;
    speed_order_.clear();
    for (std::size_t v = 0; v < variants_.size(); ++v) {
        if (!profiles_[v].trapped)
            speed_order_.push_back(static_cast<int>(v));
    }
    std::stable_sort(speed_order_.begin(), speed_order_.end(),
                     [&](int a, int b) {
                         return profiles_[a].speedup > profiles_[b].speedup;
                     });
    calibrated_ = true;
    audit_next_ = true;
    reset_health_locked();
    return true;
}

const std::vector<VariantProfile>&
Tuner::recalibrate(const std::vector<std::uint64_t>& training_seeds,
                   bool parallel)
{
    const auto& profiles = calibrate(training_seeds, parallel);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.recalibrations;
    return profiles;
}

void
Tuner::set_serving_mode(vm::ExecMode mode)
{
    serving_mode_.store(mode, std::memory_order_relaxed);
}

vm::ExecMode
Tuner::serving_mode() const
{
    return serving_mode_.load(std::memory_order_relaxed);
}

VariantRun
Tuner::execute(int index, std::uint64_t input_seed) const
{
    const Variant& variant = variants_[index];
    if (serving_mode() == vm::ExecMode::Fast && variant.run_fast)
        return variant.run_fast(input_seed);
    return variant.run(input_seed);
}

VariantRun
Tuner::invoke(std::uint64_t input_seed)
{
    int index;
    std::uint64_t invocation;
    bool audit_now = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        PARAPROX_CHECK(calibrated_, "call calibrate() before invoke()");
        invocation = ++stats_.invocations;
        index = selected_;
        // A restored calibration audits on its first approximate
        // invocation, whatever the check interval says.
        if (audit_next_) {
            audit_now = index != 0;
            audit_next_ = false;
        }
    }

    VariantRun run = execute(index, input_seed);
    if (run.cancelled) {
        // Cancellation is the harness dropping the request, not the
        // variant misbehaving: no exact fallback, no breaker charge, no
        // quality audit on the partial output.  The caller owns the
        // token and decides what a cancelled run means.
        return run;
    }
    if (run.trapped && index != 0) {
        // Unsafe execution: fall back to exact for this input and report
        // the trap to the circuit breaker (which, under the default
        // policy, demotes the variant permanently — §5, safety).
        {
            std::lock_guard<std::mutex> lock(mutex_);
            record_failure_locked(index);
        }
        return execute(0, input_seed);
    }

    const bool audit =
        audit_now || (index != 0 && invocation % check_interval_ == 0);
    if (audit) {
        VariantRun exact = execute(0, input_seed);
        const double quality =
            quality_percent(metric_, exact.output, run.output);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.quality_checks;
        if (quality < toq_) {
            ++stats_.violations;
            record_failure_locked(index);
        }
    }
    return run;
}

ServedRun
Tuner::serve(std::uint64_t input_seed)
{
    return std::move(serve_batch({input_seed}).runs.front());
}

BatchServed
Tuner::serve_batch(const std::vector<std::uint64_t>& input_seeds)
{
    BatchServed batch;
    if (input_seeds.empty())
        return batch;
    bool degraded = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        PARAPROX_CHECK(calibrated_, "call calibrate() before serve_batch()");
        stats_.invocations += input_seeds.size();
        batch.index = resolve_serving_index_locked(&degraded);
    }
    batch.label = variants_[batch.index].label;
    batch.degraded = degraded;

    // One concatenated launch when several members can coalesce; per-seed
    // execution (same selection, no reselect between members) otherwise.
    // A singleton keeps the plain run_fast launch: a batch of one has
    // nothing to amortize.
    std::vector<VariantRun> runs;
    if (input_seeds.size() > 1 && serving_mode() == vm::ExecMode::Fast &&
        variants_[batch.index].run_batch) {
        runs = variants_[batch.index].run_batch(input_seeds);
        PARAPROX_CHECK(runs.size() == input_seeds.size(),
                       "run_batch returned a short batch");
    } else {
        // Each member's launches consult a one-member scope, so arm each
        // member's run with its own token from the caller's scope
        // (aligned with input_seeds; disarmed on a size mismatch).
        exec::CancelTokens tokens = exec::current_cancel_tokens();
        if (tokens.size() != input_seeds.size())
            tokens = {};
        runs.reserve(input_seeds.size());
        for (std::size_t i = 0; i < input_seeds.size(); ++i) {
            exec::CancelScope member(tokens.empty() ? nullptr : tokens[i]);
            runs.push_back(execute(batch.index, input_seeds[i]));
        }
    }

    batch.runs.resize(input_seeds.size());
    bool any_trapped = false;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        batch.runs[i].run = std::move(runs[i]);
        batch.runs[i].index = batch.index;
        batch.runs[i].label = batch.label;
        batch.runs[i].degraded = degraded;
        // Cancelled members are returned as-is: no exact fallback (the
        // request is being dropped or re-driven by the token's owner)
        // and no breaker charge (the serving layer charges watchdog
        // cancellations explicitly via record_failure).  Only genuine
        // traps fall back.
        any_trapped |= batch.runs[i].run.trapped &&
                       !batch.runs[i].run.cancelled && batch.index != 0;
    }
    if (any_trapped) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const ServedRun& served : batch.runs) {
                if (served.run.trapped && !served.run.cancelled)
                    record_failure_locked(batch.index);
            }
        }
        // Exact is the trusted tier: fallbacks run outside any cancel
        // scope, at every batch size, and always finish on the VM's own
        // instruction budget.
        exec::CancelScope unarmed(exec::CancelTokens{});
        for (std::size_t i = 0; i < batch.runs.size(); ++i) {
            ServedRun& served = batch.runs[i];
            if (!served.run.trapped || served.run.cancelled)
                continue;
            served.run = execute(0, input_seeds[i]);
            served.index = 0;
            served.label = variants_[0].label;
            served.trap_fallback = true;
            served.degraded = false;
        }
    }
    return batch;
}

VariantRun
Tuner::run_selected(std::uint64_t input_seed, std::string* served_label,
                    int* served_index)
{
    ServedRun served = serve(input_seed);
    if (served_label)
        *served_label = std::move(served.label);
    if (served_index)
        *served_index = served.index;
    return std::move(served.run);
}

VariantRun
Tuner::run_exact(std::uint64_t input_seed) const
{
    return execute(0, input_seed);
}

void
Tuner::set_quarantine(const QuarantineConfig& config)
{
    PARAPROX_CHECK(config.failure_threshold >= 1,
                   "quarantine failure threshold must be >= 1");
    PARAPROX_CHECK(config.cooldown_growth >= 1.0,
                   "quarantine cooldown growth must be >= 1");
    PARAPROX_CHECK(config.probe_quota >= 1,
                   "quarantine probe quota must be >= 1");
    std::lock_guard<std::mutex> lock(mutex_);
    quarantine_ = config;
}

QuarantineConfig
Tuner::quarantine_config() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantine_;
}

bool
Tuner::record_failure(int index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return record_failure_locked(index);
}

std::vector<std::string>
Tuner::quarantined_labels() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    for (std::size_t v = 0; v < health_.size(); ++v) {
        if (health_[v].state != BreakerState::Closed)
            out.push_back(variants_[v].label);
    }
    return out;
}

bool
Tuner::adopt_quarantine(const std::string& label)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!calibrated_)
        return false;
    for (std::size_t v = 1; v < variants_.size(); ++v) {
        if (variants_[v].label != label)
            continue;
        if (health_[v].state != BreakerState::Open)
            open_breaker_locked(static_cast<int>(v));
        return true;
    }
    return false;
}

bool
Tuner::record_failure_locked(int index)
{
    if (!calibrated_ || index <= 0 ||
        index >= static_cast<int>(variants_.size()))
        return false;
    VariantHealth& health = health_[index];
    if (health.state == BreakerState::Open)
        return false;  // Already quarantined; nothing new to learn.

    // A failing half-open probe path reports through record_probe(); a
    // plain failure on a HalfOpen variant (e.g. a shadow audit racing
    // reinstatement) re-opens it directly.
    const std::uint64_t now = stats_.invocations;
    health.failures.push_back(now);
    while (!health.failures.empty() &&
           now - health.failures.front() > quarantine_.failure_window)
        health.failures.pop_front();
    if (health.state == BreakerState::Closed &&
        static_cast<int>(health.failures.size()) <
            quarantine_.failure_threshold)
        return false;

    open_breaker_locked(index);
    return true;
}

void
Tuner::open_breaker_locked(int index)
{
    VariantHealth& health = health_[index];
    health.state = BreakerState::Open;
    health.failures.clear();
    health.probe_successes = 0;
    ++health.offenses;
    ++stats_.quarantines;
    if (quarantine_.cooldown == 0) {
        // Legacy policy: a quarantined variant never comes back short of
        // a recalibration.
        health.reopen_at = kNeverReopen;
    } else {
        double cooldown =
            static_cast<double>(quarantine_.cooldown) *
            std::pow(quarantine_.cooldown_growth, health.offenses - 1);
        cooldown = std::min(
            cooldown, static_cast<double>(quarantine_.max_cooldown));
        health.reopen_at =
            stats_.invocations + static_cast<std::uint64_t>(cooldown);
    }
    if (selected_ == index) {
        ++stats_.backoffs;
        reselect_locked();
    }
}

void
Tuner::reselect_locked()
{
    // The chain is never mutated after calibration: selection simply
    // lands on its first healthy entry.  Index 0 terminates the chain
    // and is exempt from quarantine, so a winner always exists.
    for (const int index : fallback_order_) {
        if (health_[index].state == BreakerState::Closed) {
            selected_ = index;
            return;
        }
    }
    selected_ = 0;
}

void
Tuner::reset_health_locked()
{
    health_.assign(variants_.size(), {});
}

int
Tuner::resolve_serving_index_locked(bool* degraded) const
{
    *degraded = false;
    const int base = selected_;
    if (degradation_level_ <= 0 || speed_order_.empty())
        return base;
    const auto at = std::find(speed_order_.begin(), speed_order_.end(),
                              base);
    if (at == speed_order_.end())
        return base;
    // Walk toward the fastest rung, one per degradation level, skipping
    // quarantined variants.  The ladder saturates at the fastest healthy
    // entry rather than wrapping.
    int resolved = base;
    int steps = degradation_level_;
    for (auto it = at; it != speed_order_.begin() && steps > 0;) {
        --it;
        if (health_[*it].state != BreakerState::Closed)
            continue;
        resolved = *it;
        --steps;
    }
    *degraded = resolved != base;
    return resolved;
}

int
Tuner::probe_candidate()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!calibrated_)
        return -1;
    for (const int index : fallback_order_) {
        if (index == 0)
            continue;
        VariantHealth& health = health_[index];
        if (health.state == BreakerState::HalfOpen)
            return index;
        if (health.state == BreakerState::Open &&
            health.reopen_at != kNeverReopen &&
            stats_.invocations >= health.reopen_at) {
            health.state = BreakerState::HalfOpen;
            health.probe_successes = 0;
            return index;
        }
    }
    return -1;
}

VariantRun
Tuner::run_probe(int index, std::uint64_t input_seed)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        PARAPROX_CHECK(index > 0 &&
                           index < static_cast<int>(variants_.size()),
                       "run_probe: bad variant index");
        ++stats_.probes;
    }
    return execute(index, input_seed);
}

bool
Tuner::record_probe(int index, bool healthy)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (index <= 0 || index >= static_cast<int>(variants_.size()))
        return false;
    VariantHealth& health = health_[index];
    if (health.state != BreakerState::HalfOpen)
        return false;  // Stale report; breaker moved on.
    if (!healthy) {
        // Still sick: back to Open with a grown cooldown.
        open_breaker_locked(index);
        return false;
    }
    if (++health.probe_successes < quarantine_.probe_quota)
        return false;
    health.state = BreakerState::Closed;
    health.failures.clear();
    health.probe_successes = 0;
    ++stats_.reinstatements;
    reselect_locked();
    return true;
}

std::vector<BreakerSnapshot>
Tuner::breaker_snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<BreakerSnapshot> out;
    out.reserve(variants_.size());
    for (std::size_t v = 0; v < variants_.size(); ++v) {
        BreakerSnapshot snap;
        snap.label = variants_[v].label;
        if (v < health_.size()) {
            snap.state = health_[v].state;
            snap.failures = static_cast<int>(health_[v].failures.size());
            snap.offenses = health_[v].offenses;
            snap.reopen_at = health_[v].reopen_at;
        }
        out.push_back(std::move(snap));
    }
    return out;
}

void
Tuner::set_degradation_level(int level)
{
    std::lock_guard<std::mutex> lock(mutex_);
    degradation_level_ = std::max(0, level);
}

int
Tuner::degradation_level() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return degradation_level_;
}

int
Tuner::selected_index() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return selected_;
}

const std::string&
Tuner::selected_label() const
{
    // Lock even though only an int is read: drop_selected_and_advance()
    // rewrites selected_ from the serving path, and an unsynchronized
    // read is a data race (labels themselves are immutable, so the
    // returned reference is safe to hold).
    std::lock_guard<std::mutex> lock(mutex_);
    return variants_[selected_].label;
}

TunerStats
Tuner::stats_snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::string
Tuner::selected_label_snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return variants_[selected_].label;
}

int
Tuner::selected_index_snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return selected_;
}

}  // namespace paraprox::runtime
