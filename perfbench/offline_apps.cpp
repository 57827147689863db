/// @file
/// offline-apps: one caller, no service.  Cold compile and calibrate all
/// 13 Table 1 applications at scale 1.0, then run each one's selected
/// variant back to back through Tuner::serve in Fast mode on fresh seeds,
/// each paired with the exact kernel on the same seed.
///
/// VM dispatch, exec fan-out, memo lookups and compile/calibration work
/// dominate; the serving and net layers are absent, so a change to them
/// predicts no change here.  This is the paper's own Fig. 11 view, on the
/// wall clock.

#include <cstdio>

#include "device/device_model.h"
#include "vm/program_cache.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace runtime = paraprox::runtime;

constexpr double kScale = 1.0;
constexpr int kSetupReps = 3;
constexpr double kWarmupSeconds = 0.5;
/// Length of one measured cycle (about a dozen rounds over the apps).
constexpr double kCycleSeconds = 2.5;
/// Quality checks per application per cycle (each scores a full output).
constexpr std::size_t kQualityPerApp = 5;

struct AppState {
    std::unique_ptr<paraprox::apps::Application> app;
    std::unique_ptr<runtime::Tuner> tuner;
    runtime::Variant exact;  ///< A copy of the tuner's variants[0].
    runtime::Metric metric{};
    std::string name;
};

double
set_up(std::vector<AppState>& states, Tracer& tracer)
{
    const auto start = Clock::now();
    paraprox::vm::ProgramCache::global().clear();
    const auto device = paraprox::device::DeviceModel::gtx560();
    states.clear();
    for (auto& app : paraprox::apps::make_all_applications()) {
        AppState state;
        state.app = std::move(app);
        state.app->set_scale(kScale);
        state.name = state.app->info().name;
        state.metric = state.app->info().metric;
        std::vector<runtime::Variant> variants;
        timed(tracer, "setup.compile",
              [&] { variants = state.app->variants(device); });
        state.exact = variants.front();
        state.tuner = std::make_unique<runtime::Tuner>(std::move(variants),
                                                       state.metric, kToq);
        timed(tracer, "setup.calibrate",
              [&] { state.tuner->calibrate(kTrainingSeeds); });
        state.tuner->set_serving_mode(paraprox::vm::ExecMode::Fast);
        states.push_back(std::move(state));
    }
    const auto end = Clock::now();
    tracer.record("setup", start, end);
    return seconds_between(start, end);
}

struct PassResult {
    std::vector<std::vector<double>> selected_ms;  ///< Per app.
    std::vector<std::vector<double>> exact_ms;
    std::vector<std::vector<double>> launch_ms;
    std::vector<double> pooled_ms;  ///< Every app's runs, in order.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    QualityTally quality;
};

/// Whole rounds over every app until @p seconds have passed, so each app
/// contributes the same number of runs.
PassResult
run_pass(std::vector<AppState>& states, std::uint64_t seed,
         std::uint64_t& next_id, double seconds, Tracer& tracer)
{
    PassResult pass;
    const std::size_t n = states.size();
    pass.selected_ms.resize(n);
    pass.exact_ms.resize(n);
    pass.launch_ms.resize(n);
    const auto start = Clock::now();
    while (seconds_between(start, Clock::now()) < seconds) {
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t id = next_id++;
            const std::uint64_t input = derive_seed(seed, id);
            auto& tuner = *states[i].tuner;
            const auto t0 = Clock::now();
            const auto served = tuner.serve(input);
            const auto t1 = Clock::now();
            const auto exact = tuner.run_exact(input);
            const auto t2 = Clock::now();

            ++pass.attempted;
            const bool ok = !served.run.trapped && !served.run.cancelled &&
                            !exact.trapped;
            const double ms = ms_between(t0, t1);
            if (!ok) {
                ++pass.failed;
                pass.pooled_ms.push_back(kMiss);
                continue;
            }
            pass.selected_ms[i].push_back(ms);
            pass.exact_ms[i].push_back(ms_between(t1, t2));
            pass.launch_ms[i].push_back(served.run.wall_seconds * 1e3);
            pass.pooled_ms.push_back(ms);
            if (tracer.enabled()) {
                const auto root = tracer.record("request", t0, t1, -1, id);
                const auto wall = std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(served.run.wall_seconds));
                tracer.record("runtime.launch", t1 - wall, t1, root, id);
                tracer.record("runtime.run_exact", t1, t2, -1, id);
            }
            if (pass.selected_ms[i].size() <= kQualityPerApp)
                pass.quality.score(states[i].metric, exact.output,
                                   served.run.output);
        }
    }
    return pass;
}

double
throughput(const PassResult& pass)
{
    std::vector<double> runs_per_second;
    for (const auto& samples : pass.selected_ms)
        runs_per_second.push_back(1e3 / median(samples));
    return geomean(runs_per_second);
}

/// Per-cycle end-to-end figures; a run reports their medians.
struct CycleStats {
    double rps = 0.0;
    double p50 = 0.0;
    std::size_t runs = 0;
};

}  // namespace

int
run_offline_apps(RunContext& context)
{
    Report& report = context.report;
    Tracer& tracer = context.tracer;
    Tracer untraced(false);

    std::vector<AppState> states;
    std::vector<double> setup_seconds;
    for (int rep = 0; rep < kSetupReps; ++rep)
        setup_seconds.push_back(set_up(states, rep == 0 ? tracer : untraced));
    report.set("setup_s", median(setup_seconds), "s", setup_seconds.size(),
               "compile + calibrate 13 apps");

    // A warm-up pass, then short cycles of whole rounds; the timing
    // figures are medians over the cycles the host left quiet
    // (run_cycles).
    std::uint64_t next_id = 1;
    const PassResult warmup = run_pass(states, context.options.seed, next_id,
                                       kWarmupSeconds, untraced);
    report.attempted = warmup.attempted;
    report.failed = warmup.failed;
    PassResult pass;  ///< Every measured cycle, merged.
    std::vector<std::vector<double>> cycle_ms;  ///< pooled_ms per cycle.
    pass.selected_ms.resize(states.size());
    pass.exact_ms.resize(states.size());
    pass.launch_ms.resize(states.size());
    const auto cycles = run_cycles<CycleStats>(
        context.options, tracer, report, kCycleSeconds,
        [&](int, double seconds, Tracer& cycle_tracer) {
            PassResult part = run_pass(states, context.options.seed, next_id,
                                       seconds, cycle_tracer);
            report.attempted += part.attempted;
            report.failed += part.failed;
            const auto append = [](std::vector<double>& to,
                                   const std::vector<double>& from) {
                to.insert(to.end(), from.begin(), from.end());
            };
            for (std::size_t i = 0; i < states.size(); ++i) {
                append(pass.selected_ms[i], part.selected_ms[i]);
                append(pass.exact_ms[i], part.exact_ms[i]);
                append(pass.launch_ms[i], part.launch_ms[i]);
            }
            cycle_ms.push_back(part.pooled_ms);
            pass.quality.checked += part.quality.checked;
            pass.quality.misses += part.quality.misses;
            CycleStats stats;
            stats.rps = throughput(part);
            stats.p50 = percentile(part.pooled_ms, 50.0);
            stats.runs = part.pooled_ms.size();
            return stats;
        });

    const std::size_t n = kept_sum(cycles, &CycleStats::runs);
    const std::string over = ", " + cycles_label(cycles);
    report.set("throughput_rps", kept_median(cycles, &CycleStats::rps),
               "req/s", n, "geomean over apps of runs/s" + over);
    report.set("p50_ms", kept_median(cycles, &CycleStats::p50), "ms", n,
               "per-run latency, all apps pooled" + over);
    std::vector<double> kept_ms;
    for (std::size_t c = 0; c < cycles.size(); ++c) {
        if (cycles[c].kept)
            kept_ms.insert(kept_ms.end(), cycle_ms[c].begin(),
                           cycle_ms[c].end());
    }
    const double tail = supported_tail(kept_ms.size());
    report.set("p99_ms", percentile(kept_ms, tail), "ms", kept_ms.size(),
               tail_label(tail) + ", all apps, kept cycles pooled");
    report.set("p50_ms_light", kept_median(cycles, &CycleStats::p50), "ms", n,
               "one caller: same samples as p50_ms");

    std::vector<double> wall_speedups;
    std::vector<double> modeled_speedups;
    for (std::size_t i = 0; i < states.size(); ++i) {
        const auto& tuner = *states[i].tuner;
        const int selected = tuner.selected_index();
        wall_speedups.push_back(median(pass.exact_ms[i]) /
                                median(pass.selected_ms[i]));
        modeled_speedups.push_back(tuner.profiles()[selected].speedup);
        std::printf("app %-26s selected %-34s runs=%zu median=%.3f ms "
                    "exact=%.3f ms\n",
                    states[i].name.c_str(), tuner.selected_label().c_str(),
                    pass.selected_ms[i].size(), median(pass.selected_ms[i]),
                    median(pass.exact_ms[i]));
    }
    report.set("approx_wall_speedup", geomean(wall_speedups), "x",
               states.size(), "geomean of exact / selected, same seeds");
    report.set("modeled_speedup", geomean(modeled_speedups), "x",
               states.size(), "geomean modeled cycles (Fig. 11)");
    report_quality(report, pass.quality);
    report.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    report_errors(report);

    bool digests_ok = true;
    for (const auto& state : states)
        digests_ok &= check_exact(context, "offline-apps/" + slug(state.name),
                                  state.exact);

    if (tracer.enabled()) {
        report.set("bench.trace_overhead_frac",
                   trace_overhead(cycles, &CycleStats::p50), "fraction", 0,
                   "per-run p50, traced vs untraced cycles");
        // Composition: a request span's self time is the part of
        // Tuner::serve that the launch does not cover.
        report.set("bench.residual_frac",
                   median(tracer.self_us("request")) /
                       median(tracer.duration_us("request")),
                   "fraction", 0,
                   "Tuner::serve minus launch: binding and collection share");
        report.set("bench.gen_lag_ms_p99", 0.0, "ms", 0,
                   "back-to-back caller: no schedule to lag");
        report_absent(
            report,
            {"serve.submit_us", "serve.queue_ms_p50", "serve.queue_ms_p99",
             "serve.launch_ms_p50", "serve.batch_mean",
             "serve.coalesced_frac", "serve.shadow_frac",
             "serve.degraded_frac", "serve.expired", "serve.rejected",
             "serve.cancelled_launches", "net.route_us_p50",
             "net.route_us_p99", "net.overhead_us", "net.codec_us",
             "net.reply_kb", "net.requeues", "net.route_skew",
             "store.warm_register_s", "store.cold_register_s", "store.hits",
             "runtime.pipeline_us", "data.tier_over_exact"},
            {"us", "ms", "ms", "ms", "requests", "fraction", "fraction",
             "fraction", "count", "count", "count", "us", "us", "us", "us",
             "KB", "count", "x", "s", "s", "count", "us", "x"},
            "offline-apps has no service, fleet, pipeline or data tier");
        std::vector<ProbeTarget> targets;
        for (const auto& state : states)
            targets.push_back({state.app.get(), state.tuner->selected_label()});
        probe_layers(context, targets);
    }

    if (!digests_ok)
        report.correct = false;
    return report.correct ? 0 : 1;
}

}  // namespace perfbench
