/// @file
/// serve-small: one small map kernel behind an ApproxService, driven by an
/// open-loop generator through a light phase, a nominal phase and a flood.
///
/// Gamma Correction at 1024 pixels costs a few tens of microseconds per
/// launch, so per-request fixed costs (admission, shard queue, gather
/// window, input binding, launch set-up, shadow audits) dominate, and
/// same-kernel coalescing does most of its work here.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <mutex>
#include <thread>

#include "device/device_model.h"
#include "runtime/quality.h"
#include "serve/service.h"
#include "vm/program_cache.h"
#include "workloads.h"

namespace perfbench {
namespace {

using paraprox::serve::ApproxService;
using paraprox::serve::Response;
using paraprox::serve::ServeStatus;

const std::string kKernel = "gamma";
constexpr double kScale = 1024.0 / 65536.0;  ///< 1024 pixels.
constexpr int kSetupReps = 15;
/// Length of one measured cycle; a run of S seconds measures S / this
/// many cycles and reports medians over them, so a stall on a shared
/// host moves a few cycles, not the run.
constexpr double kCycleSeconds = 1.25;
constexpr double kWarmupSeconds = 1.0;
constexpr std::size_t kWorkers = 4;
/// Open-loop rates, fixed from the capacity this workload measured at
/// its introduction (11-13k req/s with 4 workers on a 4-vCPU VM): about
/// 8% and 20% of it.  At 60% the service tipped into its degradation
/// ladder on some runs and not others, and at 30-40% a quarter of the
/// CPU stolen by the hypervisor still saturated it.
constexpr double kLightRps = 1000.0;
constexpr double kNominalRps = 2500.0;
/// Flood: requests in flight, enough for every worker to pop full
/// batches while staying under the degradation ladder's watermark.
constexpr std::uint64_t kFloodWindow = 64;
/// The run is invalid when the generator's median lag exceeds this: it
/// no longer offered the scheduled load (a stall on a shared host shows
/// in the lag p99, which is reported, not judged).
constexpr double kMaxMedianLagMs = 2.0;
constexpr int kQualityEvery = 8;
/// Longest a completion that finished out of order waits to be seen.
constexpr auto kSweepEvery = std::chrono::microseconds(100);
constexpr std::size_t kQualityCap = 512;

enum Phase { kLight = 0, kNominal = 1, kFlood = 2 };
constexpr double kPhaseShare[] = {0.25, 0.45, 0.30};
const char* const kPhaseName[] = {"light", "nominal", "flood"};

struct Outcome {
    int phase = kLight;
    bool ok = false;
    double latency_ms = kMiss;  ///< From the due time.
    double lag_ms = 0.0;        ///< Due time -> submit call.
    double submit_us = 0.0;
    double queue_ms = 0.0;      ///< Sojourn minus launch wall.
    double launch_ms = 0.0;
    Clock::time_point done;
    std::uint64_t seed = 0;
    std::string served_by;
    std::vector<float> output;  ///< Kept for sampled off-clock checks.
};

struct InFlight {
    Outcome outcome;
    std::uint64_t id = 0;
    Clock::time_point due;
    Clock::time_point sent;
    Clock::time_point sent_end;
    std::future<Response> response;
};

struct PassResult {
    std::vector<Outcome> outcomes;
    Clock::time_point flood_start;
    Clock::time_point flood_end;
    std::uint64_t unresolved = 0;
};

/// Tighter sleeps for the generator and collector threads.
void
fine_timer_slack()
{
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

/// One open-loop pass over the three phases, @p seconds long in total.
PassResult
run_pass(ApproxService& service, std::uint64_t seed, std::uint64_t& next_id,
         double seconds, Tracer& tracer)
{
    PassResult result;
    std::mutex inbox_mutex;
    std::condition_variable inbox_ready;
    std::vector<InFlight> inbox;
    std::atomic<bool> generator_done{false};
    std::atomic<std::uint64_t> completed{0};
    std::vector<Outcome> refused;
    std::uint64_t accepted = 0;
    std::size_t quality_kept = 0;

    // Completions are observed in whatever order they finish: each sweep
    // checks every outstanding future, and between sweeps the collector
    // blocks on the oldest one (woken the moment it resolves, or after
    // kSweepEvery to catch requests that finished out of order).
    std::thread collector([&] {
        fine_timer_slack();
        std::vector<InFlight> live;  ///< Oldest first.
        Clock::time_point give_up = Clock::time_point::max();
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(inbox_mutex);
                if (live.empty() && inbox.empty() &&
                    !generator_done.load(std::memory_order_acquire))
                    inbox_ready.wait_for(lock, std::chrono::milliseconds(1));
                for (auto& item : inbox)
                    live.push_back(std::move(item));
                inbox.clear();
            }
            std::size_t kept = 0;
            for (std::size_t i = 0; i < live.size(); ++i) {
                if (live[i].response.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    if (kept != i)
                        live[kept] = std::move(live[i]);
                    ++kept;
                    continue;
                }
                const auto done = Clock::now();
                InFlight& item = live[i];
                Outcome& outcome = item.outcome;
                outcome.done = done;
                try {
                    Response response = item.response.get();
                    if (response.status == ServeStatus::Ok) {
                        outcome.ok = true;
                        outcome.latency_ms = ms_between(item.due, done);
                        outcome.launch_ms = response.run.wall_seconds * 1e3;
                        outcome.queue_ms = ms_between(item.sent, done) -
                                           outcome.launch_ms;
                        if (outcome.phase != kFlood &&
                            item.id % kQualityEvery == 0 &&
                            quality_kept < kQualityCap) {
                            outcome.output = std::move(response.run.output);
                            outcome.served_by = std::move(response.served_by);
                            ++quality_kept;
                        }
                    }
                } catch (const std::exception&) {
                    outcome.ok = false;
                }
                if (tracer.enabled()) {
                    const auto root =
                        tracer.record(std::string("request.") +
                                          kPhaseName[outcome.phase],
                                      item.due, done, -1, item.id);
                    tracer.record("bench.gen_lag", item.due, item.sent, root,
                                  item.id);
                    tracer.record("serve.submit", item.sent, item.sent_end,
                                  root, item.id);
                    if (outcome.ok) {
                        const auto wall = std::chrono::duration_cast<
                            Clock::duration>(std::chrono::duration<double,
                                             std::milli>(outcome.launch_ms));
                        tracer.record("runtime.launch", done - wall, done,
                                      root, item.id);
                    }
                }
                result.outcomes.push_back(std::move(outcome));
                completed.fetch_add(1, std::memory_order_release);
            }
            live.resize(kept);
            if (generator_done.load(std::memory_order_acquire)) {
                if (give_up == Clock::time_point::max())
                    give_up = Clock::now() + std::chrono::seconds(30);
                if (!live.empty() && Clock::now() > give_up) {
                    result.unresolved = live.size();
                    for (auto& item : live)
                        result.outcomes.push_back(std::move(item.outcome));
                    break;
                }
            }
            if (!live.empty()) {
                live.front().response.wait_for(kSweepEvery);
                continue;
            }
            if (generator_done.load(std::memory_order_acquire)) {
                std::lock_guard<std::mutex> lock(inbox_mutex);
                if (inbox.empty())
                    break;
            }
        }
    });

    fine_timer_slack();
    const auto submit_one = [&](int phase, Clock::time_point due) {
        InFlight item;
        item.id = next_id++;
        item.due = due;
        item.outcome.phase = phase;
        item.outcome.seed = derive_seed(seed, item.id);
        item.sent = Clock::now();
        auto ticket = service.submit(kKernel, item.outcome.seed);
        item.sent_end = Clock::now();
        item.outcome.lag_ms = ms_between(due, item.sent);
        item.outcome.submit_us =
            std::chrono::duration<double, std::micro>(item.sent_end -
                                                      item.sent)
                .count();
        if (!ticket.accepted) {
            item.outcome.done = item.sent_end;
            refused.push_back(std::move(item.outcome));
            return;
        }
        ++accepted;
        item.response = std::move(ticket.response);
        {
            std::lock_guard<std::mutex> lock(inbox_mutex);
            inbox.push_back(std::move(item));
        }
        inbox_ready.notify_one();
    };

    for (int phase = kLight; phase <= kFlood; ++phase) {
        const auto start = Clock::now();
        const auto end =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds *
                                                      kPhaseShare[phase]));
        if (phase == kFlood) {
            result.flood_start = start;
            result.flood_end = end;
            for (auto now = start; now < end; now = Clock::now()) {
                if (accepted - completed.load(std::memory_order_acquire) <
                    kFloodWindow)
                    submit_one(phase, now);
                else
                    std::this_thread::sleep_for(std::chrono::microseconds(10));
            }
            continue;
        }
        const double rate = phase == kLight ? kLightRps : kNominalRps;
        for (std::uint64_t i = 0;; ++i) {
            const auto due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                static_cast<double>(i) / rate));
            if (due >= end)
                break;
            std::this_thread::sleep_until(due);
            submit_one(phase, due);
        }
    }
    generator_done.store(true, std::memory_order_release);
    collector.join();
    for (auto& outcome : refused)
        result.outcomes.push_back(std::move(outcome));
    return result;
}

/// The family every setup repetition builds.
struct Family {
    std::unique_ptr<paraprox::apps::Application> app;
    std::vector<paraprox::runtime::Variant> variants;
    paraprox::runtime::Metric metric{};
};

/// Cold set-up: compile and generate the variant family, start the
/// service, calibrate, and serve a first request.
std::unique_ptr<ApproxService>
set_up(Family& family, Tracer& tracer, double& seconds)
{
    const auto start = Clock::now();
    paraprox::vm::ProgramCache::global().clear();
    const auto device = paraprox::device::DeviceModel::gtx560();
    timed(tracer, "setup.compile", [&] {
        family.app = make_app("Gamma Correction", kScale);
        family.variants = family.app->variants(device);
        family.metric = family.app->info().metric;
    });
    paraprox::serve::ServiceConfig config;
    config.num_workers = kWorkers;
    auto service = std::make_unique<ApproxService>(config);
    timed(tracer, "setup.register", [&] {
        service->register_kernel(kKernel, family.variants, family.metric,
                                 kToq, kTrainingSeeds);
    });
    auto ticket = service->submit(kKernel, kVerificationSeeds.front());
    if (ticket.accepted)
        ticket.response.get();
    const auto end = Clock::now();
    tracer.record("setup", start, end);
    seconds = seconds_between(start, end);
    return service;
}

/// Per-cycle end-to-end figures; a run reports their medians.
struct CycleStats {
    double light_p50 = 0.0;
    double nominal_p50 = 0.0;
    double nominal_tail = 0.0;
    double flood_rps = 0.0;
    std::size_t light_n = 0;
    std::size_t nominal_n = 0;
};

CycleStats
summarize(const PassResult& pass)
{
    std::vector<double> light;
    std::vector<double> nominal;
    std::uint64_t flood_ok = 0;
    for (const auto& outcome : pass.outcomes) {
        if (outcome.phase == kLight)
            light.push_back(outcome.latency_ms);
        else if (outcome.phase == kNominal)
            nominal.push_back(outcome.latency_ms);
        else if (outcome.ok && outcome.done <= pass.flood_end)
            ++flood_ok;
    }
    CycleStats out;
    out.light_p50 = percentile(light, 50.0);
    out.nominal_p50 = percentile(nominal, 50.0);
    out.nominal_tail = percentile(nominal, supported_tail(nominal.size()));
    out.flood_rps = static_cast<double>(flood_ok) /
                    seconds_between(pass.flood_start, pass.flood_end);
    out.light_n = light.size();
    out.nominal_n = nominal.size();
    std::printf("cycle: light p50 %.3f ms, nominal p50 %.3f ms p%.1f %.3f "
                "ms, flood %.0f req/s\n",
                out.light_p50, out.nominal_p50,
                supported_tail(nominal.size()), out.nominal_tail,
                out.flood_rps);
    return out;
}

}  // namespace

int
run_serve_small(RunContext& context)
{
    Report& report = context.report;
    Tracer& tracer = context.tracer;
    Tracer untraced(false);

    std::vector<double> setup_seconds;
    Family family;
    std::unique_ptr<ApproxService> service;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (service)
            service->stop();
        service.reset();
        family = Family{};
        double seconds = 0.0;
        service = set_up(family, rep == 0 ? tracer : untraced, seconds);
        setup_seconds.push_back(seconds);
    }
    report.set("setup_s", median(setup_seconds), "s", setup_seconds.size());

    // A warm-up pass, then cycles of (light, nominal, flood); figures are
    // medians over the cycles the host left quiet (run_cycles).
    std::uint64_t next_id = 1;
    std::uint64_t unresolved = 0;
    const auto account = [&](const PassResult& pass) {
        for (const auto& outcome : pass.outcomes) {
            ++report.attempted;
            if (!outcome.ok)
                ++report.failed;
        }
        unresolved += pass.unresolved;
    };
    account(run_pass(*service, context.options.seed, next_id, kWarmupSeconds,
                     untraced));
    std::vector<PassResult> passes;
    const auto cycles = run_cycles<CycleStats>(
        context.options, tracer, report, kCycleSeconds,
        [&](int, double seconds, Tracer& cycle_tracer) {
            passes.push_back(run_pass(*service, context.options.seed,
                                      next_id, seconds, cycle_tracer));
            account(passes.back());
            const CycleStats stats = summarize(passes.back());
            // The summary holds all the flood's figures; dropping its
            // outcomes keeps the benchmark's own memory from growing with
            // the throughput it measures (peak_rss_mb).
            auto& outcomes = passes.back().outcomes;
            outcomes.erase(std::remove_if(outcomes.begin(), outcomes.end(),
                                          [](const Outcome& outcome) {
                                              return outcome.phase == kFlood;
                                          }),
                           outcomes.end());
            outcomes.shrink_to_fit();
            return stats;
        });
    service->drain();
    const auto kernel = service->kernel_snapshot(kKernel);
    const auto metrics = service->snapshot().metrics;
    service->stop();

    const std::string over = cycles_label(cycles);
    report.set("throughput_rps", kept_median(cycles, &CycleStats::flood_rps),
               "req/s", 0,
               "flood, " + std::to_string(kFloodWindow) + " in flight, " +
                   over);
    report.set("p50_ms", kept_median(cycles, &CycleStats::nominal_p50), "ms",
               kept_sum(cycles, &CycleStats::nominal_n),
               "nominal " + std::to_string(static_cast<int>(kNominalRps)) +
                   " req/s, " + over);
    // The tail is taken over every nominal request of the kept cycles: a
    // per-cycle tail mostly says whether that cycle met a host stall.
    std::vector<double> nominal_ms;
    for (std::size_t c = 0; c < cycles.size(); ++c) {
        for (const auto& outcome : passes[c].outcomes) {
            if (cycles[c].kept && outcome.phase == kNominal)
                nominal_ms.push_back(outcome.latency_ms);
        }
    }
    report.set("p99_ms",
               percentile(nominal_ms, supported_tail(nominal_ms.size())),
               "ms", nominal_ms.size(),
               tail_label(supported_tail(nominal_ms.size())) +
                   " at nominal, kept cycles pooled");
    report.set("p50_ms_light", kept_median(cycles, &CycleStats::light_p50),
               "ms", kept_sum(cycles, &CycleStats::light_n),
               "light " + std::to_string(static_cast<int>(kLightRps)) +
                   " req/s, " + over);

    std::vector<double> lags;
    for (const auto& pass : passes) {
        for (const auto& outcome : pass.outcomes) {
            if (outcome.phase != kFlood)
                lags.push_back(outcome.lag_ms);
        }
    }
    const double lag_p99 = percentile(lags, 99.0);
    report.set("bench.gen_lag_ms_p99", lag_p99, "ms", lags.size());
    if (median(lags) > kMaxMedianLagMs) {
        report.note("invalid run: the generator fell behind its schedule");
        report.correct = false;
    }
    if (unresolved > 0) {
        report.note(std::to_string(unresolved) + " unresolved requests");
        report.correct = false;
    }

    // ---- Off the clock: correctness, quality and speedups. -------------
    const auto& exact = family.variants.front();
    const bool digests_ok = check_exact(context, "serve-small/" + kKernel,
                                        exact);
    QualityTally quality;
    ReplyCheck replies;
    for (const auto& pass : passes) {
        for (const auto& outcome : pass.outcomes) {
            if (outcome.output.empty())
                continue;
            replies.check(family.variants, outcome.served_by, outcome.seed,
                          outcome.output);
            quality.score(family.metric, exact.run_fast(outcome.seed).output,
                          outcome.output);
        }
    }
    replies.report(report);
    report_quality(report, quality);

    const auto* selected = find_variant(family.variants, kernel.selected);
    if (selected == nullptr)
        selected = &exact;
    report.note("selected variant: " + kernel.selected + "; recalibrations " +
                std::to_string(metrics.recalibrations) + ", shadow violations " +
                std::to_string(metrics.shadow_violations) + ", degraded serves " +
                std::to_string(metrics.degraded_serves) + ", exact while recalibrating " +
                std::to_string(metrics.exact_while_recalibrating));
    std::vector<double> exact_wall;
    std::vector<double> selected_wall;
    for (std::uint64_t i = 0; i < 400; ++i) {
        const auto seed = derive_seed(context.options.seed ^ 0x5eedull, i);
        exact_wall.push_back(exact.run_fast(seed).wall_seconds);
        selected_wall.push_back(selected->run_fast(seed).wall_seconds);
    }
    report.set("approx_wall_speedup",
               median(exact_wall) / median(selected_wall), "x",
               exact_wall.size(), "exact / " + selected->label);
    const auto seed = kVerificationSeeds.front();
    report.set("modeled_speedup",
               exact.run(seed).modeled_cycles /
                   selected->run(seed).modeled_cycles,
               "x");
    report.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    report_errors(report);

    if (tracer.enabled()) {
        // Per-layer figures come from the traced cycles' light and
        // nominal requests (odd cycles).
        std::vector<double> submit_us;
        std::vector<double> queue_ms;
        std::vector<double> launch_ms;
        for (std::size_t c = 0; c < cycles.size(); ++c) {
            for (const auto& outcome : passes[c].outcomes) {
                if (!cycles[c].traced || !outcome.ok ||
                    outcome.phase == kFlood)
                    continue;
                submit_us.push_back(outcome.submit_us);
                queue_ms.push_back(outcome.queue_ms);
                launch_ms.push_back(outcome.launch_ms);
            }
        }
        const double served = std::max<double>(1.0, metrics.served);
        report.set("serve.submit_us", median(submit_us), "us",
                   submit_us.size());
        report.set("serve.queue_ms_p50", percentile(queue_ms, 50.0), "ms",
                   queue_ms.size(), "sojourn - launch wall");
        report.set("serve.queue_ms_p99", percentile(queue_ms, 99.0), "ms",
                   queue_ms.size(), "sojourn - launch wall");
        report.set("serve.launch_ms_p50", percentile(launch_ms, 50.0), "ms",
                   launch_ms.size(), "Response.run.wall_seconds");
        report.set("serve.batch_mean", metrics.batch.mean_size, "requests",
                   metrics.batch.batches, "whole run");
        report.set("serve.coalesced_frac",
                   metrics.batch.coalesced_requests / served, "fraction", 0,
                   "whole run");
        report.set("serve.shadow_frac", metrics.shadow_runs / served,
                   "fraction", 0, "whole run");
        report.set("serve.degraded_frac", metrics.degraded_serves / served,
                   "fraction", 0, "whole run");
        report.set("serve.expired",
                   static_cast<double>(metrics.deadline_expired), "count");
        report.set("serve.rejected",
                   static_cast<double>(
                       metrics.rejected_full + metrics.rejected_unknown +
                       metrics.rejected_stopped +
                       metrics.rejected_closed_race +
                       metrics.rejected_deadline),
                   "count");
        report.set("serve.cancelled_launches",
                   static_cast<double>(metrics.cancelled_launches), "count");

        report.set("bench.trace_overhead_frac",
                   trace_overhead(cycles, &CycleStats::nominal_p50),
                   "fraction", 0, "nominal p50, traced vs untraced cycles");

        // Composition: the self time of a nominal request span is the part
        // of its latency that no timed layer on the path (generator lag,
        // submit, launch) covers: the service's queue, gather window and
        // completion, which are not timed from outside.
        report.set("bench.residual_frac",
                   median(tracer.self_us("request.nominal")) /
                       median(tracer.duration_us("request.nominal")),
                   "fraction", 0, "queue + gather + completion share");

        report_absent(report,
                      {"net.route_us_p50", "net.route_us_p99",
                       "net.overhead_us", "net.codec_us", "net.reply_kb",
                       "net.requeues", "net.route_skew",
                       "store.warm_register_s", "store.cold_register_s",
                       "store.hits", "runtime.pipeline_us",
                       "data.tier_over_exact"},
                      {"us", "us", "us", "us", "KB", "count", "x", "s", "s",
                       "count", "us", "x"},
                      "no fleet, pipeline or data tier in serve-small");
        probe_layers(context, {{family.app.get(), selected->label}});
    }

    if (!digests_ok)
        report.correct = false;
    return report.correct ? 0 : 1;
}

}  // namespace perfbench
