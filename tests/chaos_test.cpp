// Chaos tests: deterministic fault injection driven through the serving
// stack.  The harness (support/faultinject.h) must replay an exact fault
// schedule under a fixed seed, and the failure-containment machinery —
// trap fallback, variant quarantine with half-open reinstatement,
// deadlines, the degradation ladder, and store-corruption rejection —
// must resolve every accepted request with correct accounting, never
// dropping a future.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "exec/buffer.h"
#include "exec/launch.h"
#include "parser/parser.h"
#include "runtime/data_tier.h"
#include "runtime/quality.h"
#include "runtime/variant_run.h"
#include "serve/service.h"
#include "store/artifact_store.h"
#include "support/error.h"
#include "support/faultinject.h"
#include "vm/compiler.h"

namespace paraprox::serve {
namespace {

using runtime::BreakerState;
using runtime::Metric;
using runtime::Variant;
using runtime::VariantRun;

/// Every test arms its own schedule and leaves the injector clean; the
/// injector is a process-wide singleton, so hygiene here is isolation.
class ChaosTest : public ::testing::Test {
  protected:
    void SetUp() override { fault::FaultInjector::instance().disarm(); }
    void TearDown() override { fault::FaultInjector::instance().disarm(); }
};

using FaultInjectorTest = ChaosTest;
using ChaosServeTest = ChaosTest;

/// A synthetic variant that visits the vm.trap fault site itself (fake
/// variants are closures, not VM programs, so the GroupRunner hook never
/// sees them): an armed `vm.trap` spec matching @p label turns its run
/// into a trap.
Variant
chaos_variant(const std::string& label, int aggressiveness, float bias,
              double cycles, int sleep_ms = 0)
{
    return {label, aggressiveness,
            [label, bias, cycles, sleep_ms](std::uint64_t seed) {
                if (sleep_ms > 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(sleep_ms));
                VariantRun run;
                if (fault::fire("vm.trap", label)) {
                    run.trapped = true;
                    return run;
                }
                run.output = {static_cast<float>(seed % 100) + 1.0f + bias,
                              10.0f + bias};
                run.modeled_cycles = cycles;
                run.wall_seconds = cycles * 1e-9;
                return run;
            }};
}

// ---- FaultInjector ----------------------------------------------------------

TEST_F(FaultInjectorTest, ParsesTheEnvGrammar)
{
    const auto specs = fault::FaultInjector::parse(
        "vm.trap:match=__,every=5,after=2,limit=4;"
        "serve.latency:prob=0.25,ms=2;store.corrupt");
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].site, "vm.trap");
    EXPECT_EQ(specs[0].match, "__");
    EXPECT_EQ(specs[0].every, 5u);
    EXPECT_EQ(specs[0].after, 2u);
    EXPECT_EQ(specs[0].limit, 4u);
    EXPECT_EQ(specs[1].site, "serve.latency");
    EXPECT_DOUBLE_EQ(specs[1].probability, 0.25);
    EXPECT_DOUBLE_EQ(specs[1].latency_ms, 2.0);
    // A bare site fires on every occurrence.
    EXPECT_EQ(specs[2].site, "store.corrupt");
    EXPECT_EQ(specs[2].every, 1u);

    EXPECT_THROW(fault::FaultInjector::parse("vm.trap:nonsense"),
                 UserError);
    EXPECT_THROW(fault::FaultInjector::parse("vm.trap:prob=1.5"),
                 UserError);
    EXPECT_THROW(fault::FaultInjector::parse(":every=1"), UserError);
}

TEST_F(FaultInjectorTest, EveryAfterLimitScheduleIsExact)
{
    fault::FaultSpec spec;
    spec.site = "t";
    spec.every = 3;
    spec.after = 2;
    spec.limit = 2;
    fault::FaultInjector::instance().arm({spec});

    // (ordinal - after) % every == 0 past the skip window, capped by the
    // limit: exactly occurrences 5 and 8 fire out of 12.
    std::vector<int> fired_at;
    for (int i = 1; i <= 12; ++i) {
        if (fault::fire("t"))
            fired_at.push_back(i);
    }
    EXPECT_EQ(fired_at, (std::vector<int>{5, 8}));

    const auto stats = fault::FaultInjector::instance().stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].occurrences, 12u);
    EXPECT_EQ(stats[0].fires, 2u);
    EXPECT_EQ(fault::FaultInjector::instance().fires("t"), 2u);
}

TEST_F(FaultInjectorTest, SeededProbabilityReplaysExactly)
{
    fault::FaultSpec spec;
    spec.site = "p";
    spec.probability = 0.5;

    const auto sample = [&] {
        fault::FaultInjector::instance().arm({spec}, /*seed=*/42);
        std::vector<bool> pattern;
        for (int i = 0; i < 64; ++i)
            pattern.push_back(fault::fire("p"));
        return pattern;
    };
    const std::vector<bool> first = sample();
    const std::vector<bool> second = sample();
    EXPECT_EQ(first, second);  // Same seed, same occurrence order.

    const auto fires = static_cast<std::size_t>(
        std::count(first.begin(), first.end(), true));
    EXPECT_GT(fires, 0u);
    EXPECT_LT(fires, 64u);
}

TEST_F(FaultInjectorTest, MatchFiltersOnContextSubstring)
{
    fault::FaultSpec spec;
    spec.site = "vm.trap";
    spec.match = "__";
    spec.every = 1;
    fault::FaultInjector::instance().arm({spec});

    // The naming convention: generated variants carry "__", the exact
    // kernels do not — match=__ spares them.
    EXPECT_FALSE(fault::fire("vm.trap", "stencil"));
    EXPECT_TRUE(fault::fire("vm.trap", "stencil__approx_r1"));
    EXPECT_FALSE(fault::fire("vm.nan", "stencil__approx_r1"));
}

TEST_F(FaultInjectorTest, MalformedEnvWarnsAndDisarms)
{
    ::setenv("PARAPROX_FAULTS", "vm.trap:every=0", 1);
    fault::FaultInjector::instance().arm_from_env();
    EXPECT_FALSE(fault::FaultInjector::instance().armed());

    ::setenv("PARAPROX_FAULTS", "vm.trap:every=4,limit=1", 1);
    ::setenv("PARAPROX_FAULT_SEED", "7", 1);
    fault::FaultInjector::instance().arm_from_env();
    EXPECT_TRUE(fault::FaultInjector::instance().armed());

    ::unsetenv("PARAPROX_FAULTS");
    ::unsetenv("PARAPROX_FAULT_SEED");
    fault::FaultInjector::instance().arm_from_env();
    EXPECT_FALSE(fault::FaultInjector::instance().armed());
}

// ---- Serving under injected faults ------------------------------------------

/// Single-worker service with probing-friendly monitoring: shadows (and
/// probes) every 2nd eligible request, never triggers a recalibration —
/// these tests isolate the breaker lifecycle from the drift machinery.
ServiceConfig
chaos_service(std::size_t workers, std::size_t capacity)
{
    ServiceConfig config;
    config.num_workers = workers;
    config.queue_capacity = capacity;
    config.monitor.shadow_interval = 2;
    config.monitor.window = 8;
    config.monitor.min_samples = 4;
    config.monitor.trigger_streak = 1000000;
    config.monitor.seed_memory = 8;
    return config;
}

TEST_F(ChaosServeTest, InjectedTrapsQuarantineThenHalfOpenReinstates)
{
    // Three injected traps, then health: the flaky variant must fall
    // back to exact on each trap, quarantine on the 3rd failure (K=3),
    // sit out the cooldown, pass a half-open probe off the client path,
    // and win back the selection — observed entirely through the
    // service's own metrics and snapshots.
    ServiceConfig config = chaos_service(1, 16);
    config.quarantine = {/*failure_threshold=*/3, /*failure_window=*/64,
                         /*cooldown=*/8, /*cooldown_growth=*/2.0,
                         /*max_cooldown=*/1u << 20, /*probe_quota=*/1};
    ApproxService service(config);
    std::vector<Variant> variants;
    variants.push_back(chaos_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(chaos_variant("flaky__v1", 1, 0.1f, 100.0));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});
    ASSERT_EQ(service.kernel_snapshot("k").selected, "flaky__v1");

    fault::FaultSpec trap;
    trap.site = "vm.trap";
    trap.match = "flaky";
    trap.every = 1;
    trap.limit = 3;
    fault::FaultInjector::instance().arm({trap}, /*seed=*/7);

    // Lockstep: one request in flight at a time makes the fault schedule
    // and the breaker clock exactly reproducible.
    std::uint64_t seed = 0;
    for (int i = 0; i < 3; ++i) {
        Ticket ticket = service.submit("k", seed++);
        ASSERT_TRUE(ticket.accepted);
        const Response response = ticket.response.get();
        EXPECT_TRUE(response.trap_fallback);
        EXPECT_EQ(response.served_by, "exact");
    }
    EXPECT_EQ(fault::FaultInjector::instance().fires("vm.trap"), 3u);

    // Third failure inside the window: quarantined, selection on exact.
    KernelSnapshot mid = service.kernel_snapshot("k");
    EXPECT_EQ(mid.selected, "exact");
    ASSERT_EQ(mid.breakers.size(), 2u);
    EXPECT_EQ(mid.breakers[1].label, "flaky__v1");
    EXPECT_EQ(mid.breakers[1].state, BreakerState::Open);
    EXPECT_EQ(mid.breakers[1].offenses, 1);
    EXPECT_EQ(mid.tuner.quarantines, 1u);
    EXPECT_EQ(mid.tuner.backoffs, 1u);

    // Keep serving: the cooldown elapses on the tuner's invocation
    // clock, a half-open probe (paced off the client path, the client
    // still gets exact) re-tests the now-healthy variant, and the
    // breaker closes.  Bound the loop well above cooldown + probe pace.
    std::string reinstated_by;
    for (int i = 0; i < 40; ++i) {
        Ticket ticket = service.submit("k", seed++);
        ASSERT_TRUE(ticket.accepted);
        const Response response = ticket.response.get();
        EXPECT_FALSE(response.trap_fallback);
        if (response.served_by == "flaky__v1") {
            reinstated_by = response.served_by;
            break;
        }
        EXPECT_EQ(response.served_by, "exact");
    }
    EXPECT_EQ(reinstated_by, "flaky__v1");

    service.drain();
    const ServiceSnapshot snap = service.snapshot();
    EXPECT_EQ(snap.metrics.trap_fallbacks, 3u);
    EXPECT_EQ(snap.metrics.quarantines, 1u);
    EXPECT_EQ(snap.metrics.reinstatements, 1u);
    EXPECT_GE(snap.metrics.probes, 1u);
    EXPECT_EQ(snap.metrics.accepted, snap.metrics.served);
    ASSERT_EQ(snap.kernels.size(), 1u);
    EXPECT_EQ(snap.kernels[0].breakers[1].state, BreakerState::Closed);
    EXPECT_EQ(snap.kernels[0].selected, "flaky__v1");
}

TEST_F(ChaosServeTest, RepeatOffenseGrowsTheCooldown)
{
    ServiceConfig config = chaos_service(1, 16);
    config.quarantine = {/*failure_threshold=*/1, /*failure_window=*/64,
                         /*cooldown=*/4, /*cooldown_growth=*/2.0,
                         /*max_cooldown=*/1u << 20, /*probe_quota=*/1};
    ApproxService service(config);
    std::vector<Variant> variants;
    variants.push_back(chaos_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(chaos_variant("flaky__v1", 1, 0.1f, 100.0));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});

    // Trap the first serve AND the half-open probe after the first
    // cooldown: the probe failure must re-open with a grown cooldown.
    fault::FaultSpec trap;
    trap.site = "vm.trap";
    trap.match = "flaky";
    trap.every = 1;
    trap.limit = 2;
    fault::FaultInjector::instance().arm({trap}, /*seed=*/7);

    std::uint64_t seed = 0;
    Ticket first = service.submit("k", seed++);
    ASSERT_TRUE(first.accepted);
    EXPECT_TRUE(first.response.get().trap_fallback);

    std::uint64_t reopen_at = 0;
    std::uint64_t invocations_at_reopen = 0;
    for (int i = 0; i < 40 && reopen_at == 0; ++i) {
        Ticket ticket = service.submit("k", seed++);
        ASSERT_TRUE(ticket.accepted);
        ticket.response.get();
        const KernelSnapshot snap = service.kernel_snapshot("k");
        if (snap.tuner.quarantines >= 2) {
            reopen_at = snap.breakers[1].reopen_at;
            invocations_at_reopen = snap.tuner.invocations;
        }
    }
    service.drain();

    const KernelSnapshot snap = service.kernel_snapshot("k");
    EXPECT_EQ(snap.tuner.quarantines, 2u);  // Open, probe-fail, re-open.
    EXPECT_EQ(snap.breakers[1].offenses, 2);
    ASSERT_GT(reopen_at, 0u);
    // The second offense waits cooldown * growth = 8 invocations, not
    // the base 4.  The probe request itself does not advance the
    // invocation clock, so the lockstep snapshot sees the exact window.
    EXPECT_EQ(reopen_at - invocations_at_reopen, 8u);
}

TEST_F(ChaosServeTest, DeadlinesRejectAtAdmissionAndExpireInQueue)
{
    ServiceConfig config = chaos_service(1, 8);
    // This test's whole point is requests expiring *in the queue* behind
    // a busy worker; a worker that wakes after the burst is queued would
    // coalesce the doomed request into the blocker's launch and serve it
    // early.
    config.batching.max_batch = 1;
    ApproxService service(config);
    std::vector<Variant> variants;
    variants.push_back(chaos_variant("exact", 0, 0.0f, 1000.0,
                                     /*sleep_ms=*/100));
    service.register_kernel("slow", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1});

    // Already expired: shed at admission, no future minted.
    SubmitOptions expired;
    expired.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1);
    const Ticket dead = service.submit("slow", 1, expired);
    EXPECT_FALSE(dead.accepted);
    EXPECT_NE(dead.reject_reason.find("deadline expired"),
              std::string::npos);

    // Occupy the worker (100 ms) and park one request behind it.
    Ticket busy = service.submit("slow", 2);
    ASSERT_TRUE(busy.accepted);
    Ticket parked = service.submit("slow", 3);
    ASSERT_TRUE(parked.accepted);

    // A tight-deadline request admitted behind the backlog expires in
    // the queue and resolves with a status, never a dropped future.
    Ticket doomed = service.submit(
        "slow", 4,
        SubmitOptions::within(std::chrono::milliseconds(20)));
    ASSERT_TRUE(doomed.accepted);

    // Once the head-of-line job has aged past a new request's whole
    // budget, FIFO arithmetic rejects it up front.
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    const Ticket unmeetable = service.submit(
        "slow", 5, SubmitOptions::within(std::chrono::milliseconds(5)));
    EXPECT_FALSE(unmeetable.accepted);
    EXPECT_NE(unmeetable.reject_reason.find("unmeetable"),
              std::string::npos);

    EXPECT_EQ(busy.response.get().status, ServeStatus::Ok);
    EXPECT_EQ(parked.response.get().status, ServeStatus::Ok);
    const Response expired_response = doomed.response.get();
    EXPECT_EQ(expired_response.status, ServeStatus::DeadlineExceeded);
    EXPECT_TRUE(expired_response.run.output.empty());
    service.drain();

    const MetricsSnapshot metrics = service.metrics().snapshot();
    EXPECT_EQ(metrics.rejected_deadline, 2u);
    EXPECT_EQ(metrics.deadline_expired, 1u);
    EXPECT_EQ(metrics.accepted, 3u);
    EXPECT_EQ(metrics.served, 2u);  // The expired one is not "served".
}

TEST_F(ChaosServeTest, QueuePressureStepsTheLadderDownAndBack)
{
    // Three rungs: the calibrated selection ("mid", passes the TOQ) and
    // a faster below-TOQ rung ("cheap__v1") the ladder may shed to.
    ServiceConfig config = chaos_service(1, 8);
    config.monitor.shadow_interval = 1000000;  // No shadows: ladder only.
    config.degradation.high_watermark = 0.5;
    config.degradation.low_watermark = 0.25;
    config.degradation.sustain = 2;
    config.degradation.max_level = 1;
    ApproxService service(config);
    std::vector<Variant> variants;
    variants.push_back(chaos_variant("exact", 0, 0.0f, 1000.0, 5));
    variants.push_back(chaos_variant("mid", 1, 0.1f, 200.0, 5));
    variants.push_back(chaos_variant("cheap__v1", 2, 40.0f, 50.0, 5));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});
    ASSERT_EQ(service.kernel_snapshot("k").selected, "mid");

    // Burst the queue full against one 5 ms/request worker: sustained
    // high fill must step the service to level 1, where requests serve
    // from the cheaper rung, flagged as degraded.
    std::vector<Ticket> burst;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        Ticket ticket = service.submit("k", seed);
        if (ticket.accepted)
            burst.push_back(std::move(ticket));
    }
    bool saw_degraded = false;
    for (auto& ticket : burst) {
        const Response response = ticket.response.get();
        if (response.degraded) {
            saw_degraded = true;
            EXPECT_EQ(response.served_by, "cheap__v1");
            EXPECT_FALSE(response.shadowed);  // Shedding is not drift.
        }
    }
    EXPECT_TRUE(saw_degraded);

    // Lockstep trickle: the drained queue sustains low fill, the ladder
    // steps back, and serving returns to the calibrated selection.
    Response last;
    for (std::uint64_t seed = 100; seed < 106; ++seed) {
        Ticket ticket = service.submit("k", seed);
        ASSERT_TRUE(ticket.accepted);
        last = ticket.response.get();
    }
    EXPECT_EQ(last.served_by, "mid");
    EXPECT_FALSE(last.degraded);
    service.drain();

    const ServiceSnapshot snap = service.snapshot();
    EXPECT_GE(snap.metrics.degrade_steps, 1u);
    EXPECT_GE(snap.metrics.restore_steps, 1u);
    EXPECT_EQ(snap.metrics.degradation_level, 0);
    EXPECT_GE(snap.metrics.degraded_serves, 1u);
    EXPECT_EQ(snap.kernels[0].degradation_level, 0);
    EXPECT_EQ(snap.metrics.accepted, snap.metrics.served);
}

TEST_F(ChaosServeTest, CorruptedStoreRecordFallsBackToColdCalibration)
{
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() / "paraprox-chaos-store";
    fs::remove_all(dir);
    const auto store = store::ArtifactStore::configure_global(dir);

    store::StoreKey key;
    key.kernel = "k";
    key.device = "synthetic";
    key.toq = 90.0;
    key.metric = "Mean relative error";
    key.detail = "calibration";

    const auto build = [] {
        std::vector<Variant> variants;
        variants.push_back(chaos_variant("exact", 0, 0.0f, 1000.0));
        variants.push_back(chaos_variant("good__v1", 1, 0.1f, 100.0));
        return variants;
    };
    {
        ApproxService cold(chaos_service(1, 8));
        cold.register_kernel("k", build(), Metric::MeanRelativeError,
                             90.0, {1, 2, 3}, key);
        cold.stop();
    }
    ASSERT_TRUE(store->load_calibration(key).has_value());

    // Corrupt every store read: the checksum rejects the record, the
    // warm start reads as a miss, and registration recalibrates cold —
    // the service must never install (or serve from) a mangled record.
    fault::FaultSpec corrupt;
    corrupt.site = "store.corrupt";
    corrupt.every = 1;
    fault::FaultInjector::instance().arm({corrupt});
    const std::uint64_t rejects_before = store->stats().corrupt_rejects;

    ApproxService warm(chaos_service(1, 8));
    warm.register_kernel("k", build(), Metric::MeanRelativeError, 90.0,
                         {1, 2, 3}, key);
    EXPECT_GE(fault::FaultInjector::instance().fires("store.corrupt"), 1u);
    EXPECT_GT(store->stats().corrupt_rejects, rejects_before);
    EXPECT_EQ(warm.metrics().snapshot().warm_registrations, 0u);
    EXPECT_EQ(warm.kernel_snapshot("k").selected, "good__v1");

    fault::FaultInjector::instance().disarm();
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        Ticket ticket = warm.submit("k", seed);
        ASSERT_TRUE(ticket.accepted);
        EXPECT_EQ(ticket.response.get().served_by, "good__v1");
    }
    warm.stop();

    store::ArtifactStore::disable_global();
    fs::remove_all(dir);
}

TEST_F(ChaosServeTest, MixedFaultsResolveEveryFutureWithExactAccounting)
{
    // Traps and latency stalls interleaved across two workers: totals
    // stay deterministic (the injector's ordinal clock is global), every
    // accepted future resolves, and the books balance.
    ServiceConfig config = chaos_service(2, 256);
    config.monitor.trigger_streak = 1000000;
    config.quarantine.failure_threshold = 100;  // Containment off: pure
                                                // fallback accounting.
    ApproxService service(config);
    std::vector<Variant> variants;
    variants.push_back(chaos_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(chaos_variant("flaky__v1", 1, 0.1f, 100.0));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});

    fault::FaultSpec trap;
    trap.site = "vm.trap";
    trap.match = "flaky";
    trap.every = 4;
    trap.limit = 6;
    fault::FaultSpec stall;
    stall.site = "serve.latency";
    stall.every = 7;
    stall.limit = 5;
    stall.latency_ms = 1.0;
    fault::FaultInjector::instance().arm({trap, stall}, /*seed=*/42);

    constexpr std::uint64_t kWave = 32;
    constexpr int kWaves = 4;
    std::uint64_t resolved = 0;
    for (int wave = 0; wave < kWaves; ++wave) {
        std::vector<Ticket> tickets;
        for (std::uint64_t i = 0; i < kWave; ++i) {
            Ticket ticket =
                service.submit("k", wave * kWave + i);
            ASSERT_TRUE(ticket.accepted);
            tickets.push_back(std::move(ticket));
        }
        for (auto& ticket : tickets) {
            const Response response = ticket.response.get();
            EXPECT_EQ(response.status, ServeStatus::Ok);
            EXPECT_FALSE(response.run.output.empty());
            ++resolved;
        }
    }
    service.drain();

    EXPECT_EQ(resolved, kWave * kWaves);
    EXPECT_EQ(fault::FaultInjector::instance().fires("vm.trap"), 6u);
    EXPECT_EQ(fault::FaultInjector::instance().fires("serve.latency"), 5u);

    const MetricsSnapshot metrics = service.metrics().snapshot();
    EXPECT_EQ(metrics.accepted, kWave * kWaves);
    EXPECT_EQ(metrics.served, metrics.accepted);
    EXPECT_EQ(metrics.deadline_expired, 0u);
    EXPECT_EQ(metrics.trap_fallbacks, 6u);  // One fallback per fire.
    EXPECT_EQ(metrics.queue_depth, 0);
}

// ---- data.bitflip -----------------------------------------------------------

constexpr const char* kDataChaosKernel = R"(
__kernel void dscale(__global float* in, __global float* out) {
    int i = get_global_id(0);
    out[i] = in[i] * 2.0f + 1.0f;
}
)";

/// Session + plan over a trivially packable map kernel: both buffers are
/// float payloads with data-independent addressing, so the safety
/// analysis leaves them packable and the data tier emits real plans.
struct DataChaosFixture {
    DataChaosFixture()
        : module(parser::parse_module(kDataChaosKernel)),
          session(module, "dscale", core::CompileOptions{})
    {
        plan.config = exec::LaunchConfig::linear(256, 64);
        plan.output_buffer = "out";
        plan.bind_inputs = [](std::uint64_t seed, exec::ArgPack& args,
                              std::vector<std::unique_ptr<exec::Buffer>>&
                                  holder) {
            std::vector<float> in(256);
            for (std::size_t i = 0; i < in.size(); ++i)
                in[i] = 1.0f +
                        static_cast<float>((seed + i * 37) % 97) / 97.0f;
            holder.push_back(std::make_unique<exec::Buffer>(
                exec::Buffer::from_floats(in)));
            args.buffer("in", *holder.back());
            holder.push_back(std::make_unique<exec::Buffer>(
                exec::Buffer::zeros_f32(256)));
            args.buffer("out", *holder.back());
        };
    }

    ir::Module module;
    runtime::KernelSession session;
    core::LaunchPlan plan;
};

using ChaosDataTest = ChaosTest;

TEST_F(ChaosDataTest, BitflipDegradesPackedQualityWithoutTrapping)
{
    DataChaosFixture fx;
    const runtime::DataTier tier =
        runtime::build_data_tier(fx.session, fx.plan);
    ASSERT_GE(tier.plans.size(), 2u);
    ASSERT_TRUE(tier.plans[0].all_exact());

    // Clean reference runs: exact output and the packed plan's output
    // with nothing armed.
    const VariantRun exact = tier.variants[0].run(7);
    const VariantRun clean = tier.variants[1].run(7);
    ASSERT_FALSE(exact.trapped);
    ASSERT_FALSE(clean.trapped);
    const double clean_quality = runtime::quality_percent(
        Metric::MeanRelativeError, exact.output, clean.output);
    EXPECT_GT(clean_quality, 90.0);

    // Flip bits in every packed buffer the plan carries.  Decoding any
    // bit pattern is defined for every codec, so the damage must surface
    // as degraded output values, never as a trap or a crash.
    fault::FaultSpec spec;
    spec.site = "data.bitflip";
    spec.every = 1;
    fault::FaultInjector::instance().arm({spec}, /*seed=*/1);

    const VariantRun flipped = tier.variants[1].run(7);
    EXPECT_FALSE(flipped.trapped);
    ASSERT_EQ(flipped.output.size(), exact.output.size());
    EXPECT_GT(fault::FaultInjector::instance().fires("data.bitflip"), 0u);
    const double flipped_quality = runtime::quality_percent(
        Metric::MeanRelativeError, exact.output, flipped.output);
    EXPECT_LT(flipped_quality, clean_quality);
    EXPECT_LT(flipped_quality, 90.0);

    // The exact variant binds no packed buffers: the site never fires.
    const std::uint64_t fires_before =
        fault::FaultInjector::instance().fires("data.bitflip");
    const VariantRun exact_again = tier.variants[0].run(7);
    EXPECT_FALSE(exact_again.trapped);
    EXPECT_EQ(fault::FaultInjector::instance().fires("data.bitflip"),
              fires_before);
}

TEST_F(ChaosDataTest, ServiceContainsBitflippedDataTier)
{
    DataChaosFixture fx;
    const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};

    ServiceConfig config;
    config.num_workers = 2;
    config.monitor.shadow_interval = 1;  // Shadow every request.
    ApproxService service(config);
    service.register_data_kernel("dscale", fx.session, fx.plan,
                                 Metric::MeanRelativeError, 90.0, seeds);
    // Calibration ran clean; a packed plan wins on modeled traffic.
    ASSERT_NE(service.kernel_snapshot("dscale").selected, "exact");

    fault::FaultSpec spec;
    spec.site = "data.bitflip";
    spec.every = 1;
    fault::FaultInjector::instance().arm({spec}, /*seed=*/1);

    // Every accepted request must resolve Ok: the flipped storage only
    // degrades values.  The per-request shadow sees the quality floor
    // break and triggers recalibration, which — still under fault —
    // moves the selection off every plan that packs the corrupted input
    // stream (an output-only plan is immune: the kernel's stores
    // overwrite the flipped repack before anything reads it).
    std::vector<Ticket> tickets;
    for (std::uint64_t seed = 0; seed < 48; ++seed)
        tickets.push_back(service.submit("dscale", seed));
    std::size_t resolved = 0;
    for (auto& ticket : tickets) {
        ASSERT_TRUE(ticket.accepted);
        const Response response = ticket.response.get();
        EXPECT_EQ(response.status, ServeStatus::Ok);
        EXPECT_FALSE(response.run.output.empty());
        ++resolved;
    }
    service.drain();
    EXPECT_EQ(resolved, 48u);

    const MetricsSnapshot metrics = service.metrics().snapshot();
    EXPECT_EQ(metrics.served, metrics.accepted);
    EXPECT_GT(metrics.shadow_runs, 0u);
    EXPECT_GE(metrics.shadow_violations, 1u);
    EXPECT_GE(metrics.recalibrations, 1u);
    EXPECT_EQ(metrics.trap_fallbacks, 0u);
    service.stop();
    // Post-recalibration the winner must not read packed input: either
    // exact, or a plan packing only the overwritten output buffer.
    const std::string selected =
        service.kernel_snapshot("dscale").selected;
    EXPECT_TRUE(selected == "exact" ||
                (selected.find("all:") == std::string::npos &&
                 selected.find("in:") == std::string::npos))
        << selected;
}

// ---- Cancellation and the hung-launch watchdog ------------------------------

using ChaosCancelTest = ChaosTest;

/// Two identically-computing kernels under different names, so a fault
/// spec (vm.hang matches on kernel name) can wedge the approximate
/// variant while the exact fallback stays healthy.
constexpr const char* kCancelKernels = R"(
    __kernel void exact_k(__global float* out, int rounds) {
        int i = get_global_id(0);
        float acc = 0.0f;
        for (int j = 0; j < rounds; j++) { acc += sqrtf((float)(j + i)); }
        out[i] = acc;
    }
    __kernel void approx_k(__global float* out, int rounds) {
        int i = get_global_id(0);
        float acc = 0.0f;
        for (int j = 0; j < rounds; j++) { acc += sqrtf((float)(j + i)); }
        out[i] = acc;
    }
)";

/// A VM-backed variant (fake closures never reach the GroupRunner, so
/// only a real launch can observe cancel tokens).  Seeds >= 1000 run a
/// heavy NDRange — long enough for a mid-launch deadline to expire —
/// while calibration seeds stay light.
Variant
vm_variant(std::shared_ptr<vm::Program> program, const std::string& label,
           int aggressiveness, double cycles, int heavy_rounds)
{
    return {label, aggressiveness,
            [program, cycles, heavy_rounds](std::uint64_t seed) {
                constexpr int kItems = 2048;
                exec::Buffer out = exec::Buffer::zeros_f32(kItems);
                exec::ArgPack args;
                const int rounds =
                    seed >= 1000 ? heavy_rounds : 40;
                args.buffer("out", out).scalar("rounds", rounds);
                runtime::VariantRun run = runtime::run_fast_unpriced(
                    *program, args, exec::LaunchConfig::linear(kItems, 32));
                if (!run.trapped && !run.cancelled)
                    runtime::attach_output(run, out);
                run.modeled_cycles = cycles;
                return run;
            }};
}

std::vector<Variant>
vm_variants(int heavy_rounds = 20000)
{
    auto module = parser::parse_module(kCancelKernels);
    auto exact = std::make_shared<vm::Program>(
        vm::compile_kernel(module, "exact_k"));
    auto approx = std::make_shared<vm::Program>(
        vm::compile_kernel(module, "approx_k"));
    std::vector<Variant> variants;
    variants.push_back(vm_variant(exact, "exact", 0, 1000.0, heavy_rounds));
    variants.push_back(
        vm_variant(approx, "approx_k", 1, 100.0, heavy_rounds));
    return variants;
}

TEST_F(ChaosCancelTest, DeadlineExpiringMidLaunchCancelsTheLaunch)
{
    ServiceConfig config = chaos_service(1, 16);
    config.watchdog.tick = std::chrono::milliseconds(1);
    ApproxService service(config);
    service.register_kernel("k", vm_variants(),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});
    ASSERT_EQ(service.kernel_snapshot("k").selected, "approx_k");

    // Heavy seed, 30ms budget: the queue is empty so admission passes,
    // and the deadline dies inside the launch.  The watchdog's sweep
    // must scatter-cancel it, the VM must bail within one group round,
    // and the client must get exactly one DeadlineExceeded — orders of
    // magnitude before the full launch would have finished.
    Ticket doomed = service.submit(
        "k", 1001, SubmitOptions::within(std::chrono::milliseconds(30)));
    ASSERT_TRUE(doomed.accepted);
    const Response response = doomed.response.get();
    EXPECT_EQ(response.status, ServeStatus::DeadlineExceeded);
    EXPECT_TRUE(response.run.output.empty());

    // The service stays healthy for the next (light) request.
    Ticket next = service.submit("k", 5);
    ASSERT_TRUE(next.accepted);
    EXPECT_EQ(next.response.get().status, ServeStatus::Ok);
    service.drain();

    const MetricsSnapshot metrics = service.metrics().snapshot();
    EXPECT_GE(metrics.cancelled_launches, 1u);
    EXPECT_GE(metrics.deadline_expired, 1u);
    EXPECT_EQ(metrics.watchdog_cancels, 0u);
    // The cancelled request resolved but was never "served".
    EXPECT_EQ(metrics.accepted, 2u);
    EXPECT_EQ(metrics.served, 1u);
    // A cancelled launch is harness policy, not kernel misbehaviour: it
    // must not have charged the variant's breaker.
    const auto snapshot = service.kernel_snapshot("k");
    for (const auto& breaker : snapshot.breakers)
        EXPECT_EQ(breaker.state, runtime::BreakerState::Closed);
    service.stop();
}

TEST_F(ChaosCancelTest, HungLaunchIsShotQuarantinedAndServedExact)
{
    ServiceConfig config = chaos_service(1, 16);
    config.watchdog.tick = std::chrono::milliseconds(1);
    config.watchdog.hang_floor = std::chrono::milliseconds(60);
    // One hang is conviction enough, and the cooldown is effectively
    // forever on this test's invocation clock: no half-open probe can
    // reinstate the variant mid-assertion.
    config.quarantine = {/*failure_threshold=*/1, /*failure_window=*/64,
                         /*cooldown=*/1u << 20, /*cooldown_growth=*/2.0,
                         /*max_cooldown=*/1u << 20, /*probe_quota=*/1};
    ApproxService service(config);
    service.register_kernel("k", vm_variants(),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});
    ASSERT_EQ(service.kernel_snapshot("k").selected, "approx_k");

    // The next approx_k launch wedges (a group spins on the vm.hang
    // site until its cancel token fires).  The watchdog must declare a
    // hang at the 60ms floor, cancel the launch, charge the variant's
    // breaker like a trap, and re-serve the request exact.
    fault::FaultSpec hang;
    hang.site = "vm.hang";
    hang.match = "approx_k";
    hang.every = 1;
    hang.limit = 1;
    fault::FaultInjector::instance().arm({hang});

    Ticket ticket = service.submit("k", 7);
    ASSERT_TRUE(ticket.accepted);
    const Response response = ticket.response.get();
    EXPECT_EQ(response.status, ServeStatus::Ok);
    EXPECT_EQ(response.served_by, "exact");
    EXPECT_TRUE(response.watchdog_fallback);
    EXPECT_FALSE(response.run.output.empty());

    // snapshot() (not a bare metrics().snapshot()) so the breaker
    // counters are aggregated in from the tuners.
    const MetricsSnapshot mid = service.snapshot().metrics;
    EXPECT_EQ(mid.watchdog_cancels, 1u);
    EXPECT_EQ(mid.watchdog_fallbacks, 1u);
    EXPECT_GE(mid.quarantines, 1u);

    // The hang opened the breaker: the spinning variant is out of the
    // selection and the kernel serves exact.
    const auto snapshot = service.kernel_snapshot("k");
    EXPECT_EQ(snapshot.selected, "exact");
    bool found = false;
    for (const auto& breaker : snapshot.breakers) {
        if (breaker.label == "approx_k") {
            found = true;
            EXPECT_NE(breaker.state, runtime::BreakerState::Closed);
        }
    }
    EXPECT_TRUE(found);

    Ticket after = service.submit("k", 8);
    ASSERT_TRUE(after.accepted);
    EXPECT_EQ(after.response.get().served_by, "exact");
    service.drain();
    service.stop();
}

/// Park a one-worker service's only worker inside a "plug" kernel until
/// @p release fires, so requests submitted meanwhile pile up as a backlog
/// and pop as one coalesced batch.  Returns the plug's ticket once the
/// worker is inside it.
Ticket
park_worker(ApproxService& service, std::shared_future<void> release)
{
    auto entered = std::make_shared<std::atomic<bool>>(false);
    std::vector<Variant> variants;
    variants.push_back({"exact", 0, [release, entered](std::uint64_t seed) {
                            // Calibration seeds never block.
                            if (seed >= 100) {
                                entered->store(true);
                                release.wait();
                            }
                            VariantRun run;
                            run.output = {1.0f};
                            run.modeled_cycles = 1000.0;
                            return run;
                        }});
    service.register_kernel("plug", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1});
    Ticket plug = service.submit("plug", 100);
    while (plug.accepted && !entered->load())
        std::this_thread::yield();
    return plug;
}

TEST_F(ChaosCancelTest, PerSeedBatchObservesEachMembersDeadline)
{
    // vm_variants() have no run_batch, so a coalesced batch of them runs
    // one launch per seed.  Each of those launches must still observe its
    // own member's token: the heavy member's deadline dies mid-launch and
    // cancels it, while its light batch-mate is served normally.
    ServiceConfig config = chaos_service(1, 16);
    config.watchdog.tick = std::chrono::milliseconds(1);
    ApproxService service(config);
    service.register_kernel("k", vm_variants(),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});
    ASSERT_EQ(service.kernel_snapshot("k").selected, "approx_k");

    std::promise<void> release;
    Ticket plug = park_worker(service, release.get_future().share());
    Ticket doomed = service.submit(
        "k", 1001, SubmitOptions::within(std::chrono::milliseconds(50)));
    Ticket light = service.submit("k", 5);
    release.set_value();
    ASSERT_TRUE(plug.accepted);
    ASSERT_TRUE(doomed.accepted);
    ASSERT_TRUE(light.accepted);

    const Response cancelled = doomed.response.get();
    EXPECT_EQ(cancelled.status, ServeStatus::DeadlineExceeded);
    EXPECT_TRUE(cancelled.run.output.empty());
    const Response served = light.response.get();
    EXPECT_EQ(served.status, ServeStatus::Ok);
    EXPECT_EQ(served.served_by, "approx_k");
    plug.response.get();
    service.drain();

    const MetricsSnapshot metrics = service.metrics().snapshot();
    EXPECT_EQ(metrics.batch.max_size, 2u);
    EXPECT_EQ(metrics.cancelled_launches, 1u);
    EXPECT_EQ(metrics.deadline_expired, 1u);
    EXPECT_EQ(metrics.watchdog_cancels, 0u);
    service.stop();
}

TEST_F(ChaosCancelTest, PerSeedBatchObservesTheWatchdog)
{
    // The same per-seed batch shape, wedged: the first member's launch
    // spins on vm.hang until its token fires.  The watchdog must shoot
    // the whole flight, and both members must come back exact.
    ServiceConfig config = chaos_service(1, 16);
    config.watchdog.tick = std::chrono::milliseconds(1);
    config.watchdog.hang_floor = std::chrono::milliseconds(60);
    config.quarantine = {/*failure_threshold=*/1, /*failure_window=*/64,
                         /*cooldown=*/1u << 20, /*cooldown_growth=*/2.0,
                         /*max_cooldown=*/1u << 20, /*probe_quota=*/1};
    ApproxService service(config);
    service.register_kernel("k", vm_variants(),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});
    ASSERT_EQ(service.kernel_snapshot("k").selected, "approx_k");

    std::promise<void> release;
    Ticket plug = park_worker(service, release.get_future().share());
    fault::FaultSpec hang;
    hang.site = "vm.hang";
    hang.match = "approx_k";
    hang.every = 1;
    hang.limit = 1;
    fault::FaultInjector::instance().arm({hang});
    std::vector<Ticket> tickets;
    tickets.push_back(service.submit("k", 7));
    tickets.push_back(service.submit("k", 8));
    release.set_value();
    ASSERT_TRUE(plug.accepted);

    for (Ticket& ticket : tickets) {
        ASSERT_TRUE(ticket.accepted);
        const Response response = ticket.response.get();
        EXPECT_EQ(response.status, ServeStatus::Ok);
        EXPECT_EQ(response.served_by, "exact");
        EXPECT_TRUE(response.watchdog_fallback);
        EXPECT_FALSE(response.run.output.empty());
    }
    plug.response.get();
    service.drain();

    const MetricsSnapshot metrics = service.snapshot().metrics;
    EXPECT_EQ(metrics.batch.max_size, 2u);
    EXPECT_EQ(metrics.watchdog_fallbacks, 2u);
    EXPECT_GE(metrics.quarantines, 1u);
    EXPECT_EQ(service.kernel_snapshot("k").selected, "exact");
    service.stop();
}

}  // namespace
}  // namespace paraprox::serve
