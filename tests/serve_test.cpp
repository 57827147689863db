// Tests for the serving subsystem: the bounded queue's backpressure, the
// latency histogram, the quality monitor's hysteresis, and ApproxService
// end-to-end — including the forced-drift scenario where the monitor must
// recalibrate back under the TOQ without dropping queued requests.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <thread>

#include "exec/launch.h"
#include "parser/parser.h"
#include "serve/metrics.h"
#include "serve/monitor.h"
#include "serve/queue.h"
#include "serve/service.h"
#include "serve/watchdog.h"
#include "support/error.h"
#include "vm/compiler.h"

namespace paraprox::serve {
namespace {

using runtime::Metric;
using runtime::Variant;
using runtime::VariantRun;

// ---- BoundedQueue -----------------------------------------------------------

TEST(BoundedQueueTest, FifoWithinCapacity)
{
    BoundedQueue<int> queue(4);
    EXPECT_EQ(queue.try_push(1), PushResult::Ok);
    EXPECT_EQ(queue.try_push(2), PushResult::Ok);
    int out = 0;
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, 1);
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out, 2);
}

TEST(BoundedQueueTest, RejectsWhenFull)
{
    BoundedQueue<int> queue(2);
    EXPECT_EQ(queue.try_push(1), PushResult::Ok);
    EXPECT_EQ(queue.try_push(2), PushResult::Ok);
    EXPECT_EQ(queue.try_push(3), PushResult::Full);
    int out = 0;
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(queue.try_push(3), PushResult::Ok);
    EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedQueueTest, CloseDrainsThenStopsConsumers)
{
    BoundedQueue<int> queue(4);
    ASSERT_EQ(queue.try_push(7), PushResult::Ok);
    queue.close();
    EXPECT_EQ(queue.try_push(8), PushResult::Closed);
    int out = 0;
    EXPECT_TRUE(queue.pop(out));  // Queued before close: still served.
    EXPECT_EQ(out, 7);
    EXPECT_FALSE(queue.pop(out));  // Drained: consumer exits.
}

TEST(BoundedQueueTest, PushResultNames)
{
    EXPECT_STREQ(to_string(PushResult::Full), "queue full");
    EXPECT_STREQ(to_string(PushResult::Closed), "queue closed");
}

// ---- ShardedQueue -----------------------------------------------------------

using IntShards = ShardedQueue<int>;

/// One pop of up to @p max queued entries.
IntShards::BatchPop
pop_now(IntShards& queue, std::size_t& cursor, std::size_t max,
        std::chrono::steady_clock::duration idle =
            std::chrono::milliseconds(1))
{
    IntShards::PopOptions options;
    options.max_batch = max;
    options.idle_timeout = idle;
    return queue.pop_batch(cursor, options);
}

TEST(ShardedQueueTest, FifoWithinShardBatchStaysSingleShard)
{
    IntShards queue(8);
    const std::size_t a = queue.add_shard();
    const std::size_t b = queue.add_shard();
    ASSERT_EQ(queue.try_push(a, 1), PushResult::Ok);
    ASSERT_EQ(queue.try_push(b, 10), PushResult::Ok);
    ASSERT_EQ(queue.try_push(a, 2), PushResult::Ok);
    ASSERT_EQ(queue.try_push(a, 3), PushResult::Ok);
    EXPECT_EQ(queue.size(), 4u);
    EXPECT_EQ(queue.shard_size(a), 3u);

    std::size_t cursor = 0;
    auto batch = pop_now(queue, cursor, 16);
    ASSERT_EQ(batch.outcome, IntShards::PopOutcome::Batch);
    // One pop never mixes shards: shard a drains FIFO, b stays queued.
    EXPECT_EQ(batch.shard, a);
    ASSERT_EQ(batch.items.size(), 3u);
    EXPECT_EQ(batch.items[0], 1);
    EXPECT_EQ(batch.items[1], 2);
    EXPECT_EQ(batch.items[2], 3);
    EXPECT_EQ(batch.remaining, 0u);

    batch = pop_now(queue, cursor, 16);
    ASSERT_EQ(batch.outcome, IntShards::PopOutcome::Batch);
    EXPECT_EQ(batch.shard, b);
    ASSERT_EQ(batch.items.size(), 1u);
    EXPECT_EQ(batch.items[0], 10);
    EXPECT_EQ(queue.size(), 0u);
}

TEST(ShardedQueueTest, CapacityIsPerShard)
{
    IntShards queue(2);
    const std::size_t a = queue.add_shard();
    const std::size_t b = queue.add_shard();
    EXPECT_EQ(queue.try_push(a, 1), PushResult::Ok);
    EXPECT_EQ(queue.try_push(a, 2), PushResult::Ok);
    EXPECT_EQ(queue.try_push(a, 3), PushResult::Full);
    // A full neighbour does not consume this shard's budget.
    EXPECT_EQ(queue.try_push(b, 9), PushResult::Ok);
    // The rejected push left no phantom pending entry behind.
    EXPECT_EQ(queue.size(), 3u);
}

TEST(ShardedQueueTest, MaxBatchBoundsThePopAndReportsRemaining)
{
    IntShards queue(8);
    const std::size_t a = queue.add_shard();
    for (int i = 0; i < 5; ++i)
        ASSERT_EQ(queue.try_push(a, i), PushResult::Ok);
    std::size_t cursor = 0;
    const auto batch = pop_now(queue, cursor, 3);
    ASSERT_EQ(batch.outcome, IntShards::PopOutcome::Batch);
    EXPECT_EQ(batch.items.size(), 3u);
    EXPECT_EQ(batch.remaining, 2u);
    EXPECT_EQ(queue.size(), 2u);
}

TEST(ShardedQueueTest, IdleThenCloseOutcomes)
{
    IntShards queue(4);
    const std::size_t a = queue.add_shard();
    std::size_t cursor = 0;
    EXPECT_EQ(pop_now(queue, cursor, 1).outcome,
              IntShards::PopOutcome::Idle);

    ASSERT_EQ(queue.try_push(a, 1), PushResult::Ok);
    queue.close();
    EXPECT_EQ(queue.try_push(a, 2), PushResult::Closed);
    // Queued before close: still drained, then consumers are released.
    auto batch = pop_now(queue, cursor, 4);
    ASSERT_EQ(batch.outcome, IntShards::PopOutcome::Batch);
    EXPECT_EQ(batch.items.size(), 1u);
    EXPECT_EQ(pop_now(queue, cursor, 4).outcome,
              IntShards::PopOutcome::Closed);
}

TEST(ShardedQueueTest, PopTakesWhatIsQueuedWithoutWaitingForMore)
{
    IntShards queue(16);
    const std::size_t a = queue.add_shard();
    ASSERT_EQ(queue.try_push(a, 0), PushResult::Ok);

    // A producer is about to add a second item, but the pop is
    // work-conserving: it claims the one queued item and returns at once
    // instead of holding the shard open for the late arrival.
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        EXPECT_EQ(queue.try_push(a, 1), PushResult::Ok);
        pushed.store(true);
    });
    std::size_t cursor = 0;
    const auto batch = pop_now(queue, cursor, 4, std::chrono::seconds(5));
    const bool raced = pushed.load();
    producer.join();
    ASSERT_EQ(batch.outcome, IntShards::PopOutcome::Batch);
    ASSERT_EQ(batch.items.size(), 1u);
    EXPECT_EQ(batch.items[0], 0);
    EXPECT_FALSE(raced);

    const auto late = pop_now(queue, cursor, 4);
    ASSERT_EQ(late.outcome, IntShards::PopOutcome::Batch);
    ASSERT_EQ(late.items.size(), 1u);
    EXPECT_EQ(late.items[0], 1);
}

TEST(ShardedQueueTest, BacklogPopsAsFullBatchesInFifoOrder)
{
    IntShards queue(32);
    const std::size_t a = queue.add_shard();
    for (int i = 0; i < 20; ++i)
        ASSERT_EQ(queue.try_push(a, i), PushResult::Ok);

    std::size_t cursor = 0;
    const auto first = pop_now(queue, cursor, 16);
    ASSERT_EQ(first.outcome, IntShards::PopOutcome::Batch);
    ASSERT_EQ(first.items.size(), 16u);
    EXPECT_EQ(first.remaining, 4u);
    const auto second = pop_now(queue, cursor, 16);
    ASSERT_EQ(second.outcome, IntShards::PopOutcome::Batch);
    ASSERT_EQ(second.items.size(), 4u);
    EXPECT_EQ(second.remaining, 0u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(first.items[i], i);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(second.items[i], 16 + i);
    EXPECT_EQ(queue.size(), 0u);
}

TEST(ShardedQueueTest, CloseMidBacklogStillDrains)
{
    IntShards queue(32);
    const std::size_t a = queue.add_shard();
    for (int i = 0; i < 20; ++i)
        ASSERT_EQ(queue.try_push(a, i), PushResult::Ok);

    std::size_t cursor = 0;
    ASSERT_EQ(pop_now(queue, cursor, 16).items.size(), 16u);
    queue.close();
    EXPECT_EQ(queue.try_push(a, 99), PushResult::Closed);
    // Admitted before the close: the rest of the backlog still pops, and
    // only then are consumers released.
    const auto rest = pop_now(queue, cursor, 16);
    ASSERT_EQ(rest.outcome, IntShards::PopOutcome::Batch);
    ASSERT_EQ(rest.items.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(rest.items[i], 16 + i);
    EXPECT_EQ(pop_now(queue, cursor, 16).outcome,
              IntShards::PopOutcome::Closed);
}

// ---- LatencyHistogram -------------------------------------------------------

TEST(LatencyHistogramTest, PercentilesAreOrderedAndBracketSamples)
{
    LatencyHistogram histogram;
    for (int i = 0; i < 90; ++i)
        histogram.record(1e-3);  // 1 ms
    for (int i = 0; i < 10; ++i)
        histogram.record(0.1);  // 100 ms
    const LatencySnapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.count, 100u);
    EXPECT_LE(snap.p50, snap.p95);
    EXPECT_LE(snap.p95, snap.p99);
    // Bucket upper bounds: p50 lands in the 1 ms bucket (< 2.1 ms), p99
    // in the 100 ms bucket (>= 100 ms).
    EXPECT_LT(snap.p50, 2.2e-3);
    EXPECT_GE(snap.p99, 0.1);
}

TEST(LatencyHistogramTest, EmptySnapshotIsZero)
{
    LatencyHistogram histogram;
    const LatencySnapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.p99, 0.0);
}

TEST(LatencyHistogramTest, QuantileIsFirstCumulativeCrossingBucket)
{
    // Regression: snapshot() carried a `counts[i] > 0` guard on the
    // cumulative crossing; the quantile is the first bucket where the
    // cumulative count reaches the target, nothing else.
    LatencyHistogram histogram;
    for (int i = 0; i < 10; ++i)
        histogram.record(1.0e-6);  // 1000 ns -> bucket [2^9, 2^10) ns.
    for (int i = 0; i < 10; ++i)
        histogram.record(1.0e-3);  // 1e6 ns -> bucket [2^19, 2^20) ns.
    const LatencySnapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.count, 20u);
    EXPECT_DOUBLE_EQ(snap.p50, std::ldexp(1.0, 10) * 1e-9);
    EXPECT_DOUBLE_EQ(snap.p95, std::ldexp(1.0, 20) * 1e-9);
    EXPECT_DOUBLE_EQ(snap.p99, std::ldexp(1.0, 20) * 1e-9);
}

TEST(LatencyHistogramTest, SingleSampleDefinesEveryPercentile)
{
    LatencyHistogram histogram;
    histogram.record(1.0e-6);
    const LatencySnapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.count, 1u);
    EXPECT_DOUBLE_EQ(snap.p50, std::ldexp(1.0, 10) * 1e-9);
    EXPECT_DOUBLE_EQ(snap.p99, snap.p50);
}

// ---- BatchHistogram ---------------------------------------------------------

TEST(BatchHistogramTest, BatchesAboveSixtyFourCountEveryMember)
{
    // No size limit: a 100-member batch is 100 coalesced requests, not
    // the 64 a saturating top bucket used to report.
    BatchHistogram histogram;
    histogram.record(100);
    histogram.record(1);
    const BatchSnapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.batches, 2u);
    EXPECT_EQ(snap.coalesced, 1u);
    EXPECT_EQ(snap.coalesced_requests, 100u);
    EXPECT_EQ(snap.max_size, 100u);
    EXPECT_DOUBLE_EQ(snap.mean_size, 50.5);
}

// ---- QualityMonitor ---------------------------------------------------------

QualityMonitor::Config
tight_monitor()
{
    QualityMonitor::Config config;
    config.shadow_interval = 3;
    config.window = 4;
    config.min_samples = 2;
    config.trigger_streak = 2;
    config.seed_memory = 8;
    return config;
}

TEST(QualityMonitorTest, AdmitsEveryNthRequestForShadowing)
{
    QualityMonitor monitor(90.0, tight_monitor());
    int shadows = 0;
    for (std::uint64_t seed = 0; seed < 9; ++seed)
        shadows += monitor.admit(seed);
    EXPECT_EQ(shadows, 3);  // every 3rd of 9
}

TEST(QualityMonitorTest, OneBadShadowDoesNotTrigger)
{
    QualityMonitor monitor(90.0, tight_monitor());
    EXPECT_FALSE(monitor.record(50.0));  // streak 1 < 2
    EXPECT_FALSE(monitor.record(99.0));  // recovery resets the streak
    EXPECT_FALSE(monitor.record(50.0));
    EXPECT_EQ(monitor.snapshot().triggers, 0u);
}

TEST(QualityMonitorTest, SustainedViolationTriggersExactlyOnce)
{
    QualityMonitor monitor(90.0, tight_monitor());
    EXPECT_FALSE(monitor.record(50.0));
    EXPECT_TRUE(monitor.record(50.0));   // streak 2, window mean 50
    EXPECT_FALSE(monitor.record(50.0));  // pending: armed only once
    const auto snap = monitor.snapshot();
    EXPECT_EQ(snap.triggers, 1u);
    EXPECT_EQ(snap.violations, 3u);
    EXPECT_TRUE(snap.trigger_pending);
}

TEST(QualityMonitorTest, RecalibrationRearmsAfterFreshEvidence)
{
    QualityMonitor monitor(90.0, tight_monitor());
    monitor.record(50.0);
    EXPECT_TRUE(monitor.record(50.0));
    monitor.on_recalibrated();
    EXPECT_FALSE(monitor.snapshot().trigger_pending);
    // The window was cleared: a fresh sustained violation re-triggers.
    EXPECT_FALSE(monitor.record(50.0));
    EXPECT_TRUE(monitor.record(50.0));
    EXPECT_EQ(monitor.snapshot().triggers, 2u);
}

TEST(QualityMonitorTest, RemembersRecentSeedsBounded)
{
    QualityMonitor monitor(90.0, tight_monitor());
    for (std::uint64_t seed = 0; seed < 20; ++seed)
        monitor.admit(seed);
    const auto seeds = monitor.recent_seeds();
    ASSERT_EQ(seeds.size(), 8u);  // seed_memory
    EXPECT_EQ(seeds.front(), 12u);
    EXPECT_EQ(seeds.back(), 19u);
}

// ---- ApproxService ----------------------------------------------------------

/// A synthetic variant: produces `seed-derived base + bias` at the given
/// modeled cost, optionally sleeping to simulate a slow kernel.
Variant
fake_variant(const std::string& label, int aggressiveness, float bias,
             double cycles, int sleep_ms = 0)
{
    return {label, aggressiveness,
            [bias, cycles, sleep_ms](std::uint64_t seed) {
                if (sleep_ms > 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(sleep_ms));
                VariantRun run;
                // Keep exact elements away from zero so the mean-relative
                // -error denominator never degenerates.
                run.output = {static_cast<float>(seed % 100) + 1.0f + bias,
                              10.0f + bias};
                run.modeled_cycles = cycles;
                run.wall_seconds = cycles * 1e-9;
                return run;
            }};
}

/// Clean for seeds below 100, badly degraded at and above (the forced
/// drift input shift).  Shares the exact variant's output base so only
/// the bias separates them.
Variant
drifting_variant(const std::string& label, double cycles)
{
    return {label, 1, [cycles](std::uint64_t seed) {
                VariantRun run;
                const float bias = seed >= 100 ? 50.0f : 0.01f;
                run.output = {static_cast<float>(seed % 100) + 1.0f + bias,
                              10.0f};
                run.modeled_cycles = cycles;
                return run;
            }};
}

ServiceConfig
small_service(std::size_t workers, std::size_t capacity)
{
    ServiceConfig config;
    config.num_workers = workers;
    config.queue_capacity = capacity;
    config.monitor = tight_monitor();
    return config;
}

TEST(ApproxServiceTest, ServesAllAcceptedRequests)
{
    ApproxService service(small_service(2, 64));
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(fake_variant("good", 1, 0.1f, 100.0));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});

    std::vector<Ticket> tickets;
    for (std::uint64_t seed = 0; seed < 40; ++seed)
        tickets.push_back(service.submit("k", seed));
    for (auto& ticket : tickets) {
        ASSERT_TRUE(ticket.accepted);
        const Response response = ticket.response.get();
        EXPECT_EQ(response.served_by, "good");
        EXPECT_EQ(response.run.output.size(), 2u);
    }
    service.drain();

    const auto metrics = service.metrics().snapshot();
    EXPECT_EQ(metrics.accepted, 40u);
    EXPECT_EQ(metrics.served, 40u);
    EXPECT_EQ(metrics.queue_depth, 0);
    EXPECT_GT(metrics.latency.count, 0u);
    // shadow_interval=3 over 40 requests on an approximate selection.
    EXPECT_GT(metrics.shadow_runs, 0u);
    EXPECT_EQ(metrics.shadow_violations, 0u);
}

TEST(ApproxServiceTest, UnknownKernelRejectedWithReason)
{
    ApproxService service(small_service(1, 8));
    const Ticket ticket = service.submit("nope", 1);
    EXPECT_FALSE(ticket.accepted);
    EXPECT_NE(ticket.reject_reason.find("unknown kernel"),
              std::string::npos);
    EXPECT_EQ(service.metrics().snapshot().rejected_unknown, 1u);
}

TEST(ApproxServiceTest, SubmitDuringRegisterResolvesEveryTicket)
{
    // Submits racing register_kernel must each resolve one way: a
    // stable "unknown kernel" rejection while the kernel has not landed
    // (registration calibrates first, so the window is real), or an
    // accepted request that is actually served — never a hang or a
    // reasonless reject.
    ApproxService service(small_service(2, 64));
    std::atomic<bool> registered{false};
    std::atomic<int> unknown_rejects{0};
    std::atomic<int> served{0};

    std::thread submitter([&] {
        for (std::uint64_t seed = 0; seed < 100000; ++seed) {
            Ticket ticket = service.submit("race", seed);
            if (ticket.accepted) {
                const Response response = ticket.response.get();
                if (response.status == ServeStatus::Ok)
                    served.fetch_add(1);
            } else {
                const bool unknown =
                    ticket.reject_reason.find("unknown kernel") !=
                    std::string::npos;
                const bool full = ticket.reject_reason.find("full") !=
                                  std::string::npos;
                EXPECT_TRUE(unknown || full) << ticket.reject_reason;
                if (unknown)
                    unknown_rejects.fetch_add(1);
            }
            if (registered.load(std::memory_order_acquire) &&
                served.load() > 0)
                break;
        }
    });

    // Register only once the submitter is running: a fixed sleep here
    // lost the race on a loaded host, leaving no pre-registration submit.
    while (unknown_rejects.load() == 0)
        std::this_thread::yield();
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(fake_variant("good", 1, 0.1f, 100.0));
    service.register_kernel("race", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});
    registered.store(true, std::memory_order_release);
    submitter.join();

    // Both phases were exercised: pre-registration rejects and
    // post-registration serves.
    EXPECT_GT(unknown_rejects.load(), 0);
    EXPECT_GT(served.load(), 0);
    EXPECT_GE(service.metrics().snapshot().rejected_unknown,
              static_cast<std::uint64_t>(unknown_rejects.load()));
    service.stop();
}

TEST(ApproxServiceTest, BackpressureRejectsWhenQueueFull)
{
    // One worker stuck on 20 ms kernels and a 4-deep queue: a 32-request
    // burst must shed load with a reason instead of blocking.
    ApproxService service(small_service(1, 4));
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0, 20));
    service.register_kernel("slow", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1});

    int accepted = 0;
    int rejected = 0;
    std::vector<Ticket> tickets;
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        Ticket ticket = service.submit("slow", seed);
        if (ticket.accepted) {
            ++accepted;
            tickets.push_back(std::move(ticket));
        } else {
            ++rejected;
            EXPECT_EQ(ticket.reject_reason, "queue full");
        }
    }
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(accepted + rejected, 32);

    // Every accepted request is still served.
    for (auto& ticket : tickets)
        ticket.response.get();
    service.drain();
    const auto metrics = service.metrics().snapshot();
    EXPECT_EQ(metrics.accepted, static_cast<std::uint64_t>(accepted));
    EXPECT_EQ(metrics.served, static_cast<std::uint64_t>(accepted));
    EXPECT_EQ(metrics.rejected_full,
              static_cast<std::uint64_t>(rejected));
}

TEST(ApproxServiceTest, StopRejectsNewButServesQueued)
{
    ApproxService service(small_service(1, 64));
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0, 2));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1});

    std::vector<Ticket> tickets;
    for (std::uint64_t seed = 0; seed < 8; ++seed)
        tickets.push_back(service.submit("k", seed));
    service.stop();
    for (auto& ticket : tickets) {
        ASSERT_TRUE(ticket.accepted);
        ticket.response.get();  // Queued before stop: never dropped.
    }

    const Ticket late = service.submit("k", 99);
    EXPECT_FALSE(late.accepted);
    EXPECT_EQ(late.reject_reason, "service stopped");
    EXPECT_EQ(service.metrics().snapshot().rejected_stopped, 1u);
}

TEST(ApproxServiceTest, ReRegisteringKernelRejected)
{
    ApproxService service(small_service(1, 8));
    auto make = [] {
        std::vector<Variant> variants;
        variants.push_back(fake_variant("exact", 0, 0.0f, 1.0));
        return variants;
    };
    service.register_kernel("k", make(), Metric::L1Norm, 90.0, {1});
    EXPECT_THROW(
        service.register_kernel("k", make(), Metric::L1Norm, 90.0, {1}),
        UserError);
}

TEST(ApproxServiceTest, DriftTriggersRecalibrationBackUnderToq)
{
    // The forced quality-drift scenario: the approximate variant is clean
    // on the training distribution (seeds < 100) and badly degraded on
    // the drifted one (seeds >= 100).  The monitor's shadow sample must
    // detect the sustained violation, recalibrate on the drifted seeds,
    // and land the selection back on the exact kernel — while every
    // accepted request still gets an answer.
    ApproxService service(small_service(2, 1024));
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(drifting_variant("drifty", 10.0));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});
    EXPECT_EQ(service.kernel_snapshot("k").selected, "drifty");

    // Phase 1: in-distribution traffic is served approximately.
    std::vector<Ticket> tickets;
    for (std::uint64_t seed = 10; seed < 30; ++seed)
        tickets.push_back(service.submit("k", seed));
    service.drain();
    EXPECT_EQ(service.kernel_snapshot("k").selected, "drifty");

    // Phase 2: the input distribution shifts.
    for (std::uint64_t seed = 100; seed < 180; ++seed)
        tickets.push_back(service.submit("k", seed));
    service.drain();

    const KernelSnapshot kernel = service.kernel_snapshot("k");
    EXPECT_EQ(kernel.selected, "exact");  // Recalibrated off the variant.
    EXPECT_GE(kernel.tuner.recalibrations, 1u);
    EXPECT_GE(kernel.monitor.triggers, 1u);
    EXPECT_FALSE(kernel.recalibrating);

    // Phase 3: post-recalibration traffic is exact, hence clean.
    for (std::uint64_t seed = 200; seed < 210; ++seed)
        tickets.push_back(service.submit("k", seed));
    service.drain();

    // No accepted request was dropped anywhere along the way.
    for (auto& ticket : tickets) {
        ASSERT_TRUE(ticket.accepted);
        EXPECT_NO_THROW(ticket.response.get());
    }
    const auto snapshot = service.snapshot();
    EXPECT_EQ(snapshot.metrics.accepted, snapshot.metrics.served);
    EXPECT_EQ(snapshot.metrics.accepted, tickets.size());
    EXPECT_GE(snapshot.metrics.recalibrations, 1u);
    EXPECT_GE(snapshot.metrics.shadow_violations, 1u);
    ASSERT_EQ(snapshot.kernels.size(), 1u);
    EXPECT_EQ(snapshot.kernels[0].kernel, "k");
}

TEST(ApproxServiceTest, RecalibrationCanRepromoteAfterRecovery)
{
    // Drift away and back: after the drifted phase lands on exact, a
    // recalibration over recovered inputs must re-promote the variant —
    // the advantage of recalibrating over invoke()'s permanent demotion.
    ApproxService service(small_service(1, 1024));
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(drifting_variant("drifty", 10.0));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});

    for (std::uint64_t seed = 100; seed < 160; ++seed)
        service.submit("k", seed);
    service.drain();
    ASSERT_EQ(service.kernel_snapshot("k").selected, "exact");

    // Inputs recover; an operator recalibration over them re-selects the
    // variant.  (Shadowing cannot observe recovery while the selection is
    // exact, so re-promotion is a driver decision.)
    service.recalibrate_kernel("k", {1, 2, 3});
    service.drain();
    const auto kernel = service.kernel_snapshot("k");
    EXPECT_EQ(kernel.selected, "drifty");
    EXPECT_GE(kernel.tuner.recalibrations, 2u);
}

TEST(ApproxServiceTest, ConcurrentMixedKernels)
{
    // Two kernels served concurrently from four submitter threads; all
    // responses must arrive and per-kernel accounting must add up.
    ApproxService service(small_service(4, 4096));
    auto make = [](float bias) {
        std::vector<Variant> variants;
        variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
        variants.push_back(fake_variant("approx", 1, bias, 100.0));
        return variants;
    };
    service.register_kernel("a", make(0.1f), Metric::MeanRelativeError,
                            90.0, {1, 2});
    service.register_kernel("b", make(0.2f), Metric::MeanRelativeError,
                            90.0, {1, 2});

    std::atomic<int> accepted{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
        submitters.emplace_back([&service, &accepted, t] {
            for (std::uint64_t i = 0; i < 50; ++i) {
                const char* kernel = (t + i) % 2 == 0 ? "a" : "b";
                Ticket ticket = service.submit(kernel, i);
                if (ticket.accepted) {
                    ticket.response.get();
                    ++accepted;
                }
            }
        });
    }
    for (auto& thread : submitters)
        thread.join();
    service.drain();

    const auto snapshot = service.snapshot();
    EXPECT_EQ(snapshot.metrics.served,
              static_cast<std::uint64_t>(accepted.load()));
    EXPECT_EQ(snapshot.kernels.size(), 2u);
    const std::uint64_t per_kernel_sum =
        snapshot.kernels[0].tuner.invocations +
        snapshot.kernels[1].tuner.invocations;
    EXPECT_EQ(per_kernel_sum, snapshot.metrics.served);
}

TEST(ApproxServiceTest, ExactSelectionDoesNotConsumeMonitorWindow)
{
    // Regression: the serve path used to call monitor.admit() before checking
    // the selection, burning the monitor's sampling slots on requests
    // that can never be audited (exact shadowed by exact says nothing).
    ApproxService service(small_service(2, 64));
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(fake_variant("way-off", 1, 50.0f, 100.0));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});
    ASSERT_EQ(service.kernel_snapshot("k").selected, "exact");

    std::vector<Ticket> tickets;
    for (std::uint64_t seed = 0; seed < 30; ++seed)
        tickets.push_back(service.submit("k", seed));
    for (auto& ticket : tickets) {
        ASSERT_TRUE(ticket.accepted);
        const Response response = ticket.response.get();
        EXPECT_EQ(response.served_by, "exact");
        EXPECT_FALSE(response.shadowed);
    }
    service.drain();

    const auto monitor = service.kernel_snapshot("k").monitor;
    EXPECT_EQ(monitor.requests, 0u);
    EXPECT_EQ(monitor.shadows, 0u);
    EXPECT_EQ(service.metrics().snapshot().shadow_runs, 0u);
}

TEST(ApproxServiceTest, ServedByNamesTheVariantThatRan)
{
    // A trap mid-request falls back to the exact kernel; served_by must
    // name what actually produced the output, not the pre-trap selection.
    Variant unstable{"unstable", 1,
                     [](std::uint64_t seed) {
                         VariantRun run;
                         run.output = {static_cast<float>(seed % 100) +
                                           1.0f,
                                       10.0f};
                         run.modeled_cycles = 100.0;
                         run.trapped = seed >= 100;
                         return run;
                     }};
    ApproxService service(small_service(1, 8));
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(std::move(unstable));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2});
    ASSERT_EQ(service.kernel_snapshot("k").selected, "unstable");

    Ticket ticket = service.submit("k", 100);  // Traps; exact re-serves.
    ASSERT_TRUE(ticket.accepted);
    const Response response = ticket.response.get();
    EXPECT_EQ(response.served_by, "exact");
    EXPECT_FALSE(response.run.trapped);
    service.drain();
}

TEST(ApproxServiceTest, WarmRegistrationRestoresCalibration)
{
    namespace fs = std::filesystem;
    const auto dir =
        fs::temp_directory_path() / "paraprox-serve-warm-registration";
    fs::remove_all(dir);
    const auto store = store::ArtifactStore::configure_global(dir);

    store::StoreKey key;
    key.kernel = "k";
    key.device = "synthetic";
    key.toq = 90.0;
    key.metric = "Mean relative error";
    key.detail = "calibration";

    auto build = [] {
        std::vector<Variant> variants;
        variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
        variants.push_back(fake_variant("good", 1, 0.1f, 100.0));
        return variants;
    };

    std::string cold_selection;
    {
        ApproxService cold(small_service(1, 8));
        cold.register_kernel("k", build(), Metric::MeanRelativeError,
                             90.0, {1, 2, 3}, key);
        EXPECT_EQ(cold.metrics().snapshot().warm_registrations, 0u);
        cold_selection = cold.kernel_snapshot("k").selected;
        cold.stop();
    }
    EXPECT_TRUE(store->load_calibration(key).has_value());

    ApproxService warm(small_service(1, 8));
    warm.register_kernel("k", build(), Metric::MeanRelativeError, 90.0,
                         {1, 2, 3}, key);
    EXPECT_EQ(warm.metrics().snapshot().warm_registrations, 1u);
    EXPECT_EQ(warm.kernel_snapshot("k").selected, cold_selection);
    warm.stop();

    store::ArtifactStore::disable_global();
    fs::remove_all(dir);
}

TEST(ApproxServiceTest, DoubleStopAndSubmitAfterStopAreSafe)
{
    ApproxService service(small_service(2, 32));
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(fake_variant("good", 1, 0.1f, 100.0));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2});

    Ticket before = service.submit("k", 5);
    ASSERT_TRUE(before.accepted);

    service.stop();
    service.stop();  // Second stop: no-op, no double join, no hang.

    // The pre-stop request was served, not dropped.
    EXPECT_EQ(before.response.get().served_by, "good");

    const Ticket after = service.submit("k", 6);
    EXPECT_FALSE(after.accepted);
    EXPECT_FALSE(after.reject_reason.empty());
    EXPECT_GE(service.metrics().snapshot().rejected_stopped, 1u);

    service.stop();  // Still idempotent after a rejected submit.
}

TEST(ApproxServiceTest, StopIsIdempotentAndSafeToRaceWithSubmit)
{
    // Concurrent stop() calls racing a submit() storm: every ticket must
    // either reject with a reason or resolve via its future — never hang,
    // never drop a promise.
    ApproxService service(small_service(2, 16));
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(fake_variant("good", 1, 0.1f, 100.0));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2});

    constexpr int kSubmitters = 4;
    constexpr int kPerThread = 100;
    std::atomic<std::uint64_t> resolved{0};
    std::atomic<std::uint64_t> rejected{0};

    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                Ticket ticket = service.submit(
                    "k", static_cast<std::uint64_t>(t * kPerThread + i));
                if (ticket.accepted) {
                    ticket.response.get();  // Must resolve, even mid-stop.
                    resolved.fetch_add(1, std::memory_order_relaxed);
                } else {
                    EXPECT_FALSE(ticket.reject_reason.empty());
                    rejected.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    std::thread stopper_a([&] { service.stop(); });
    std::thread stopper_b([&] { service.stop(); });

    for (auto& thread : submitters)
        thread.join();
    stopper_a.join();
    stopper_b.join();
    service.stop();  // Third, sequential stop: still a no-op.

    const auto metrics = service.metrics().snapshot();
    EXPECT_EQ(resolved.load() + rejected.load(),
              static_cast<std::uint64_t>(kSubmitters * kPerThread));
    EXPECT_EQ(metrics.accepted, resolved.load());
    EXPECT_EQ(metrics.served, resolved.load());
    EXPECT_EQ(metrics.queue_depth, 0);

    const Ticket late = service.submit("k", 1);
    EXPECT_FALSE(late.accepted);
    EXPECT_FALSE(late.reject_reason.empty());
}

// ---- Batching and the serve-path fixes --------------------------------------

TEST(ApproxServiceTest, BurstBehindABusyWorkerCoalescesIntoOneBatch)
{
    ServiceConfig config = small_service(1, 64);
    config.batching.max_batch = 16;
    ApproxService service(config);
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(fake_variant("good", 1, 0.1f, 100.0));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});

    // Park the only worker on a slow request, queue a burst behind it,
    // and let the freed worker take the whole backlog as one pop.
    std::vector<Variant> blockers;
    blockers.push_back(fake_variant("exact", 0, 0.0f, 1000.0, 40));
    service.register_kernel("blocker", std::move(blockers),
                            Metric::MeanRelativeError, 90.0, {1});
    Ticket plug = service.submit("blocker", 1);
    ASSERT_TRUE(plug.accepted);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    std::vector<Ticket> tickets;
    for (std::uint64_t seed = 0; seed < 12; ++seed)
        tickets.push_back(service.submit("k", seed));
    plug.response.get();
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        ASSERT_TRUE(tickets[seed].accepted);
        const Response response = tickets[seed].response.get();
        EXPECT_EQ(response.status, ServeStatus::Ok);
        // Batched members keep per-request outputs: seed-dependent, in
        // submission order, served by the calibrated selection.
        EXPECT_EQ(response.served_by, "good");
        ASSERT_EQ(response.run.output.size(), 2u);
        EXPECT_FLOAT_EQ(response.run.output[0],
                        static_cast<float>(seed % 100) + 1.0f + 0.1f);
    }
    service.drain();

    const auto metrics = service.metrics().snapshot();
    EXPECT_EQ(metrics.served, 13u);
    EXPECT_GE(metrics.batch.coalesced, 1u);
    EXPECT_GE(metrics.batch.max_size, 2u);
    EXPECT_GE(metrics.batch.coalesced_requests, metrics.batch.max_size);
    EXPECT_GT(metrics.batch_latency.count, 0u);
    // Shadow sampling stays per member inside batches.
    EXPECT_GT(metrics.shadow_runs, 0u);
}

TEST(ApproxServiceTest, LadderRestoresAfterTrafficGoesIdle)
{
    // Regression: pressure was evaluated only when a request was
    // dequeued, so a service that degraded under a burst and then went
    // quiet stayed degraded forever.  The idle tick must walk the ladder
    // back to level 0 with zero traffic flowing.
    ServiceConfig config = small_service(1, 8);
    config.degradation.sustain = 2;
    config.degradation.idle_tick = std::chrono::milliseconds(2);
    ApproxService service(config);
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0, 5));
    variants.push_back(fake_variant("good", 1, 0.1f, 100.0, 5));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2});

    // Plug the worker, then fill the shard so the next pop observes a
    // fill above the high watermark with the whole burst's weight.
    std::vector<Ticket> tickets;
    tickets.push_back(service.submit("k", 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    for (std::uint64_t seed = 2; seed <= 7; ++seed)
        tickets.push_back(service.submit("k", seed));
    for (auto& ticket : tickets) {
        ASSERT_TRUE(ticket.accepted);
        ticket.response.get();
    }
    service.drain();
    ASSERT_GE(service.metrics().snapshot().degrade_steps, 1u);

    // No further submits: only idle ticks can restore from here.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (service.metrics().snapshot().degradation_level != 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const auto metrics = service.metrics().snapshot();
    EXPECT_EQ(metrics.degradation_level, 0);
    EXPECT_GE(metrics.restore_steps, 1u);
}

TEST(ApproxServiceTest, QueueDepthGaugeNeverGoesNegative)
{
    // Regression: the gauge was incremented after try_push, so a worker
    // could pop-and-decrement before the producer's increment landed and
    // a sampler would read -1.  The increment now precedes the push (with
    // an undo on rejection); a concurrent sampler must never see below
    // zero.  Run under TSan in CI.
    ServiceConfig config = small_service(2, 4);
    ApproxService service(config);
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1});

    std::atomic<bool> done{false};
    std::atomic<std::int64_t> lowest{0};
    std::thread sampler([&] {
        while (!done.load(std::memory_order_acquire)) {
            const std::int64_t depth = service.metrics().queue_depth.load(
                std::memory_order_relaxed);
            std::int64_t seen = lowest.load(std::memory_order_relaxed);
            while (depth < seen &&
                   !lowest.compare_exchange_weak(
                       seen, depth, std::memory_order_relaxed)) {
            }
        }
    });

    std::vector<Ticket> tickets;
    for (std::uint64_t seed = 0; seed < 600; ++seed) {
        Ticket ticket = service.submit("k", seed);
        if (ticket.accepted)
            tickets.push_back(std::move(ticket));
    }
    for (auto& ticket : tickets)
        ticket.response.get();
    service.drain();
    done.store(true, std::memory_order_release);
    sampler.join();

    EXPECT_GE(lowest.load(), 0);
    EXPECT_EQ(service.metrics().snapshot().queue_depth, 0);
}

TEST(ApproxServiceTest, StopRaceRejectsWithTheSameReasonAsStopped)
{
    // Regression: a submit that passed the stopped_ pre-check but lost
    // the race with stop() surfaced the internal "queue closed" while the
    // pre-check path said "service stopped".  Both paths must report one
    // reason; the race keeps its own counter.
    for (int round = 0; round < 8; ++round) {
        ApproxService service(small_service(2, 4096));
        std::vector<Variant> variants;
        variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
        service.register_kernel("k", std::move(variants),
                                Metric::MeanRelativeError, 90.0, {1});

        std::atomic<std::uint64_t> rejected{0};
        std::vector<std::thread> submitters;
        for (int t = 0; t < 4; ++t) {
            submitters.emplace_back([&, t] {
                for (int i = 0; i < 50; ++i) {
                    Ticket ticket = service.submit(
                        "k", static_cast<std::uint64_t>(t * 50 + i));
                    if (ticket.accepted) {
                        ticket.response.get();
                    } else {
                        EXPECT_EQ(ticket.reject_reason, "service stopped");
                        rejected.fetch_add(1, std::memory_order_relaxed);
                    }
                }
            });
        }
        service.stop();
        for (auto& thread : submitters)
            thread.join();

        const auto metrics = service.metrics().snapshot();
        EXPECT_EQ(metrics.rejected_stopped + metrics.rejected_closed_race,
                  rejected.load());
        EXPECT_EQ(metrics.rejected_full, 0u);
    }
}

TEST(ApproxServiceTest, DeadlineAdmissionConsultsTheTargetKernelsShard)
{
    // Regression: admission compared the deadline against the *global*
    // head-of-line age, so one slow kernel's backlog rejected every
    // deadline request for every other kernel.
    ServiceConfig config = small_service(1, 8);
    config.batching.max_batch = 1;  // Keep the slow backlog a backlog.
    ApproxService service(config);
    std::vector<Variant> slow;
    slow.push_back(fake_variant("exact", 0, 0.0f, 1000.0, 60));
    service.register_kernel("slow", std::move(slow),
                            Metric::MeanRelativeError, 90.0, {1});
    std::vector<Variant> fast;
    fast.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    service.register_kernel("fast", std::move(fast),
                            Metric::MeanRelativeError, 90.0, {1});

    // Occupy the worker and park a request in the slow shard; let its
    // head-of-line age grow past the budget below.
    Ticket plug = service.submit("slow", 1);
    ASSERT_TRUE(plug.accepted);
    Ticket parked = service.submit("slow", 2);
    ASSERT_TRUE(parked.accepted);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));

    // Same budget, two kernels: the slow shard's backlog is older than
    // the budget (reject), the fast shard is empty (accept).
    const auto budget = std::chrono::milliseconds(20);
    const Ticket doomed =
        service.submit("slow", 3, SubmitOptions::within(budget));
    EXPECT_FALSE(doomed.accepted);
    EXPECT_NE(doomed.reject_reason.find("backlog"), std::string::npos);
    Ticket isolated =
        service.submit("fast", 4, SubmitOptions::within(budget));
    EXPECT_TRUE(isolated.accepted);

    plug.response.get();
    parked.response.get();
    if (isolated.accepted)
        isolated.response.get();
    service.stop();
    EXPECT_EQ(service.metrics().snapshot().rejected_deadline, 1u);
}

/// A one-shot latch a variant can block on until the test opens it.
/// Opens on destruction too, so a failed assertion never leaves a worker
/// parked inside the service being torn down.
class Gate {
  public:
    Gate() : opened_future_(opened_.get_future().share()) {}
    ~Gate() { open(); }

    void open()
    {
        if (!open_.exchange(true))
            opened_.set_value();
    }
    std::shared_future<void> future() const { return opened_future_; }

  private:
    std::promise<void> opened_;
    std::shared_future<void> opened_future_;
    std::atomic<bool> open_{false};
};

TEST(ApproxServiceTest, MixedDeadlineBatchScattersOnlyExpiredMembers)
{
    // Two members of one coalesced batch: one expired while queued, one
    // fresh.  The expired member resolves DeadlineExceeded; its
    // batch-mate is served normally.
    ServiceConfig config = small_service(1, 16);
    config.batching.max_batch = 16;
    std::atomic<bool> plugged{false};
    ApproxService service(config);
    Gate plug_gate;  // Opens before the service stops its workers.
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    const auto serve = variants.back().run;
    variants.back().run = [serve, gate = plug_gate.future(),
                           &plugged](std::uint64_t seed) {
        // Calibration seeds stay below 100 and never block.
        if (seed >= 100) {
            plugged.store(true);
            gate.wait();
        }
        return serve(seed);
    };
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1});

    // Park the only worker on the plug, so both members queue behind it
    // in an empty shard and pop together once the gate opens.
    Ticket plug = service.submit("k", 100);
    ASSERT_TRUE(plug.accepted);
    while (!plugged.load())
        std::this_thread::yield();

    // The 10 ms deadline passes while the worker is parked; the fresh
    // member's 30 s budget survives the wait.
    const auto options =
        SubmitOptions::within(std::chrono::milliseconds(10));
    Ticket expired = service.submit("k", 2, options);
    ASSERT_TRUE(expired.accepted);
    Ticket fresh = service.submit(
        "k", 3, SubmitOptions::within(std::chrono::seconds(30)));
    ASSERT_TRUE(fresh.accepted);
    std::this_thread::sleep_until(*options.deadline +
                                  std::chrono::milliseconds(1));
    plug_gate.open();

    EXPECT_EQ(plug.response.get().status, ServeStatus::Ok);
    EXPECT_EQ(expired.response.get().status,
              ServeStatus::DeadlineExceeded);
    EXPECT_EQ(fresh.response.get().status, ServeStatus::Ok);
    service.drain();

    const auto metrics = service.metrics().snapshot();
    EXPECT_EQ(metrics.deadline_expired, 1u);
    EXPECT_EQ(metrics.served, 2u);
    EXPECT_EQ(metrics.queue_depth, 0);
}

TEST(ApproxServiceTest, UnshadowedBatchMateResolvesBeforeTheAudit)
{
    // One coalesced batch of three: the middle member draws a shadow
    // audit whose exact run blocks until the test opens `audit`.  The
    // last member needs no audit, so it must resolve while the audit is
    // still stuck — audits run after every unshadowed member resolves.
    ServiceConfig config = small_service(1, 16);
    config.monitor.shadow_interval = 2;
    ApproxService service(config);
    Gate plug_gate;
    Gate audit;
    std::atomic<bool> plugged{false};

    const auto gated = [](std::shared_future<void> gate,
                          std::atomic<bool>* entered, float bias,
                          double cycles) {
        return [gate, entered, bias, cycles](std::uint64_t seed) {
            // Calibration seeds stay below 100 and never block.
            if (seed >= 100) {
                if (entered != nullptr)
                    entered->store(true);
                gate.wait();
            }
            VariantRun run;
            run.output = {static_cast<float>(seed % 100) + 1.0f + bias,
                          10.0f + bias};
            run.modeled_cycles = cycles;
            return run;
        };
    };
    std::vector<Variant> variants;
    variants.push_back(
        {"exact", 0, gated(audit.future(), nullptr, 0.0f, 1000.0)});
    variants.push_back(fake_variant("good", 1, 0.1f, 100.0));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});
    std::vector<Variant> plug_variants;
    plug_variants.push_back(
        {"exact", 0, gated(plug_gate.future(), &plugged, 0.0f, 1000.0)});
    service.register_kernel("plug", std::move(plug_variants),
                            Metric::MeanRelativeError, 90.0, {1});

    // Park the only worker so the three requests queue up as a backlog
    // and pop as one batch.
    Ticket plug = service.submit("plug", 100);
    ASSERT_TRUE(plug.accepted);
    while (!plugged.load())
        std::this_thread::yield();
    std::vector<Ticket> tickets;
    for (std::uint64_t seed = 100; seed < 103; ++seed) {
        tickets.push_back(service.submit("k", seed));
        ASSERT_TRUE(tickets.back().accepted);
    }
    plug_gate.open();

    // Monitor admissions 1, 2, 3: only the middle member is shadowed.
    ASSERT_EQ(tickets[2].response.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_EQ(tickets[1].response.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
    const Response last = tickets[2].response.get();
    EXPECT_EQ(last.served_by, "good");
    EXPECT_FALSE(last.shadowed);

    audit.open();
    const Response audited = tickets[1].response.get();
    EXPECT_TRUE(audited.shadowed);
    EXPECT_GE(audited.shadow_quality, 90.0);
    EXPECT_FALSE(tickets[0].response.get().shadowed);
    plug.response.get();
    service.drain();

    const auto metrics = service.metrics().snapshot();
    EXPECT_EQ(metrics.batch.max_size, 3u);
    EXPECT_EQ(metrics.shadow_runs, 1u);
    EXPECT_EQ(metrics.served, 4u);
}

/// @p variant plus a run_batch closure that serves each seed through
/// `run` and records the batch size in @p sizes.
Variant
with_run_batch(Variant variant,
               std::shared_ptr<std::vector<std::size_t>> sizes)
{
    variant.run_batch = [run = variant.run,
                         sizes](const std::vector<std::uint64_t>& seeds) {
        sizes->push_back(seeds.size());
        std::vector<VariantRun> runs;
        for (const std::uint64_t seed : seeds)
            runs.push_back(run(seed));
        return runs;
    };
    return variant;
}

/// Register a "park" kernel whose serving run blocks on @p gate, submit
/// one request to it, and return once that request holds the service's
/// only worker: the next submits queue up and pop as one batch.
Ticket
park_the_worker(ApproxService& service, const Gate& gate)
{
    auto plugged = std::make_shared<std::atomic<bool>>(false);
    std::vector<Variant> variants;
    variants.push_back(
        {"exact", 0, [gate = gate.future(), plugged](std::uint64_t seed) {
             if (seed >= 100) {  // Calibration never blocks.
                 plugged->store(true);
                 gate.wait();
             }
             return VariantRun{};
         }});
    service.register_kernel("park", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1});
    Ticket parked = service.submit("park", 100);
    EXPECT_TRUE(parked.accepted);
    while (parked.accepted && !plugged->load())
        std::this_thread::yield();
    return parked;
}

TEST(ApproxServiceTest, PendingProbeStillCoalescesTheOtherMembers)
{
    // A pop of four while a half-open probe is pending: the member the
    // monitor admits carries the probe (and gets the exact answer); the
    // other three still ride one coalesced launch.
    ServiceConfig config = small_service(1, 64);
    config.quarantine.failure_threshold = 1;
    config.quarantine.cooldown = 1;
    ApproxService service(config);
    auto sizes = std::make_shared<std::vector<std::size_t>>();
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    Variant flaky = fake_variant("flaky", 2, 0.1f, 100.0);
    flaky.run = [inner = flaky.run](std::uint64_t seed) {
        VariantRun run = inner(seed);
        run.trapped = seed == 500;
        return run;
    };
    variants.push_back(with_run_batch(std::move(flaky), sizes));
    variants.push_back(
        with_run_batch(fake_variant("steady", 1, 0.1f, 300.0), sizes));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});
    ASSERT_EQ(service.kernel_snapshot("k").selected, "flaky");

    // One trap opens flaky's breaker with a one-invocation cooldown; one
    // more request lets the cooldown elapse.
    EXPECT_TRUE(service.submit("k", 500).response.get().trap_fallback);
    EXPECT_EQ(service.submit("k", 10).response.get().served_by, "steady");
    ASSERT_TRUE(sizes->empty());

    Gate park;
    Ticket parked = park_the_worker(service, park);
    std::vector<Ticket> tickets;
    for (std::uint64_t seed = 20; seed < 24; ++seed) {
        tickets.push_back(service.submit("k", seed));
        ASSERT_TRUE(tickets.back().accepted);
    }
    park.open();
    for (auto& ticket : tickets)
        EXPECT_EQ(ticket.response.get().status, ServeStatus::Ok);
    parked.response.get();
    service.drain();

    const auto snapshot = service.kernel_snapshot("k");
    EXPECT_EQ(snapshot.tuner.probes, 1u);
    // The three non-probe members were one launch of the selection.
    ASSERT_EQ(sizes->size(), 1u);
    EXPECT_EQ(sizes->front(), 3u);
    const auto metrics = service.metrics().snapshot();
    // Only the launch counts: the probe member ran exact alone.
    EXPECT_EQ(metrics.batch.coalesced_requests, 3u);
    EXPECT_EQ(metrics.batch.coalesced, 1u);
    EXPECT_EQ(metrics.batch_latency.count, 3u);
}

TEST(ApproxServiceTest, PopDuringRecalibrationCountsNoCoalescedRequest)
{
    // A pop of four while the kernel recalibrates: every member takes the
    // exact detour alone, so nothing rode a coalesced launch and the
    // batch metric must not say otherwise.
    ApproxService service(small_service(1, 64));
    Gate sweep;
    auto sweeping = std::make_shared<std::atomic<bool>>(false);
    std::vector<Variant> variants;
    variants.push_back(fake_variant("exact", 0, 0.0f, 1000.0));
    Variant approx = fake_variant("approx", 1, 0.1f, 100.0);
    approx.run = [inner = approx.run, gate = sweep.future(),
                  sweeping](std::uint64_t seed) {
        if (seed == 777) {  // Only the recalibration sweep blocks.
            sweeping->store(true);
            gate.wait();
        }
        return inner(seed);
    };
    variants.push_back(std::move(approx));
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});
    service.recalibrate_kernel("k", {777});
    while (!sweeping->load())
        std::this_thread::yield();
    ASSERT_TRUE(service.kernel_snapshot("k").recalibrating);

    Gate park;
    Ticket parked = park_the_worker(service, park);
    std::vector<Ticket> tickets;
    for (std::uint64_t seed = 20; seed < 24; ++seed) {
        tickets.push_back(service.submit("k", seed));
        ASSERT_TRUE(tickets.back().accepted);
    }
    park.open();
    for (auto& ticket : tickets)
        EXPECT_EQ(ticket.response.get().served_by, "exact");
    parked.response.get();

    const auto metrics = service.metrics().snapshot();
    EXPECT_EQ(metrics.exact_while_recalibrating, 4u);
    EXPECT_EQ(metrics.batch.coalesced, 0u);
    EXPECT_EQ(metrics.batch.coalesced_requests, 0u);
    EXPECT_EQ(metrics.batch_latency.count, 0u);
    sweep.open();
    service.drain();
}

/// An exact variant that really launches, so it observes whatever
/// cancel scope is ambient when it runs.
Variant
launching_exact()
{
    const auto module = parser::parse_module(R"(
        __kernel void fill(__global float* out) {
            out[get_global_id(0)] = 1.0f;
        }
    )");
    auto program = std::make_shared<const vm::Program>(
        vm::compile_kernel(module, "fill"));
    return {"exact", 0, [program](std::uint64_t) {
                exec::Buffer out = exec::Buffer::zeros_f32(64);
                exec::ArgPack args;
                args.buffer("out", out);
                const exec::LaunchResult launched = exec::launch(
                    *program, args, exec::LaunchConfig::linear(64, 32));
                VariantRun run;
                run.output = {out.get_float(0) + 1.0f, 10.0f};
                run.modeled_cycles = 1000.0;
                run.trapped = launched.trapped;
                run.cancelled = launched.cancelled;
                return run;
            }};
}

/// Clean on calibration seeds (< 100); on a serving seed it waits for
/// its ambient cancel token to fire — the deadline passing mid-launch —
/// then traps.
Variant
trap_after_cancel()
{
    return {"trap-late", 1, [](std::uint64_t seed) {
                VariantRun run;
                run.output = {2.0f, 10.0f};
                run.modeled_cycles = 100.0;
                if (seed < 100)
                    return run;
                const exec::CancelTokens tokens =
                    exec::current_cancel_tokens();
                if (tokens.size() == 1 && tokens[0] != nullptr) {
                    const auto give_up = std::chrono::steady_clock::now() +
                                         std::chrono::seconds(10);
                    while (!tokens[0]->cancelled() &&
                           std::chrono::steady_clock::now() < give_up) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                    }
                }
                run.trapped = true;
                return run;
            }};
}

TEST(ApproxServiceTest, TrapFallbackIgnoresAFiredDeadlineAtEveryBatchSize)
{
    // The deadline token is armed around the primary serve only: once
    // the approximate run traps, the exact fallback runs outside any
    // cancel scope and answers the client, for a singleton exactly as
    // for the members of a coalesced batch.
    ServiceConfig config = small_service(1, 16);
    config.quarantine.failure_threshold = 100;
    config.watchdog.hang_floor = std::chrono::hours(1);
    ApproxService service(config);
    std::vector<Variant> variants;
    variants.push_back(launching_exact());
    variants.push_back(trap_after_cancel());
    service.register_kernel("k", std::move(variants),
                            Metric::MeanRelativeError, 90.0, {1, 2, 3});
    ASSERT_EQ(service.kernel_snapshot("k").selected, "trap-late");

    const auto expect_exact_fallback = [](Ticket& ticket) {
        ASSERT_TRUE(ticket.accepted);
        const Response response = ticket.response.get();
        EXPECT_EQ(response.status, ServeStatus::Ok);
        EXPECT_TRUE(response.trap_fallback);
        EXPECT_EQ(response.served_by, "exact");
        EXPECT_FALSE(response.run.cancelled);
        ASSERT_EQ(response.run.output.size(), 2u);
        EXPECT_FLOAT_EQ(response.run.output[0], 2.0f);
    };

    Ticket single = service.submit(
        "k", 100, SubmitOptions::within(std::chrono::milliseconds(50)));
    expect_exact_fallback(single);

    // Two members popped together behind a parked worker.
    Gate park;
    Ticket parked = park_the_worker(service, park);
    std::vector<Ticket> pair;
    for (std::uint64_t seed = 101; seed < 103; ++seed) {
        pair.push_back(service.submit(
            "k", seed,
            SubmitOptions::within(std::chrono::milliseconds(500))));
    }
    park.open();
    for (auto& ticket : pair)
        expect_exact_fallback(ticket);
    parked.response.get();
    service.drain();

    const auto metrics = service.metrics().snapshot();
    EXPECT_EQ(metrics.trap_fallbacks, 3u);
    EXPECT_EQ(metrics.deadline_expired, 0u);
    EXPECT_EQ(metrics.batch.max_size, 2u);
}

// ---- Watchdog ---------------------------------------------------------------

/// A watchdog whose timer thread never interferes with the test's own
/// sweep_now() calls: a one-hour tick means every observed cancel came
/// from the sweep the test invoked.
WatchdogConfig
manual_watchdog()
{
    WatchdogConfig config;
    config.tick = std::chrono::hours(1);
    return config;
}

TEST(WatchdogTest, DeadlineSweepScatterCancelsOnlyExpiredMembers)
{
    Watchdog dog(manual_watchdog());
    dog.start(1);

    const auto now = std::chrono::steady_clock::now();
    WatchdogFlight flight;
    flight.started = now;
    flight.ceiling = {};  // Hang detection off for this flight.
    auto expired = std::make_shared<vm::CancelToken>();
    auto pending = std::make_shared<vm::CancelToken>();
    auto unbounded = std::make_shared<vm::CancelToken>();
    flight.members.push_back(
        {expired, now - std::chrono::milliseconds(1)});
    flight.members.push_back({pending, now + std::chrono::hours(1)});
    flight.members.push_back({unbounded, std::nullopt});
    dog.begin_flight(0, std::move(flight));

    dog.sweep_now();
    EXPECT_TRUE(expired->cancelled());
    EXPECT_EQ(expired->reason(), vm::CancelReason::Deadline);
    EXPECT_FALSE(pending->cancelled());
    EXPECT_FALSE(unbounded->cancelled());
    EXPECT_EQ(dog.deadline_cancels(), 1u);

    // Sweeping again must not double-count the already-fired member.
    dog.sweep_now();
    EXPECT_EQ(dog.deadline_cancels(), 1u);

    dog.end_flight(0);
    dog.stop();
}

TEST(WatchdogTest, HangCeilingFiresEveryMemberExactlyOnce)
{
    Watchdog dog(manual_watchdog());
    dog.start(2);

    WatchdogFlight flight;
    flight.started =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    flight.ceiling = std::chrono::milliseconds(10);
    auto first = std::make_shared<vm::CancelToken>();
    auto second = std::make_shared<vm::CancelToken>();
    flight.members.push_back({first, std::nullopt});
    flight.members.push_back({second, std::nullopt});
    dog.begin_flight(1, std::move(flight));

    dog.sweep_now();
    EXPECT_TRUE(first->cancelled());
    EXPECT_TRUE(second->cancelled());
    EXPECT_EQ(first->reason(), vm::CancelReason::Watchdog);
    EXPECT_EQ(second->reason(), vm::CancelReason::Watchdog);
    // One hang event per launch, however many members it carries.
    EXPECT_EQ(dog.hang_cancels(), 1u);
    dog.sweep_now();
    EXPECT_EQ(dog.hang_cancels(), 1u);

    dog.end_flight(1);
    dog.stop();
}

TEST(WatchdogTest, ZeroCeilingDisablesHangDetection)
{
    Watchdog dog(manual_watchdog());
    dog.start(1);

    WatchdogFlight flight;
    flight.started =
        std::chrono::steady_clock::now() - std::chrono::hours(1);
    flight.ceiling = {};
    auto token = std::make_shared<vm::CancelToken>();
    flight.members.push_back({token, std::nullopt});
    dog.begin_flight(0, std::move(flight));

    dog.sweep_now();
    EXPECT_FALSE(token->cancelled());
    EXPECT_EQ(dog.hang_cancels(), 0u);
    dog.end_flight(0);
    dog.stop();
}

TEST(WatchdogTest, EndedFlightIsNoLongerSwept)
{
    Watchdog dog(manual_watchdog());
    dog.start(1);

    WatchdogFlight flight;
    flight.started =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    flight.ceiling = std::chrono::milliseconds(1);
    auto token = std::make_shared<vm::CancelToken>();
    flight.members.push_back({token, std::nullopt});
    dog.begin_flight(0, std::move(flight));
    dog.end_flight(0);

    dog.sweep_now();
    EXPECT_FALSE(token->cancelled());
    EXPECT_EQ(dog.hang_cancels(), 0u);
    dog.stop();
}

TEST(WatchdogTest, DisabledWatchdogIsInert)
{
    WatchdogConfig config = manual_watchdog();
    config.enabled = false;
    Watchdog dog(config);
    dog.start(1);

    WatchdogFlight flight;
    flight.started =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    flight.ceiling = std::chrono::milliseconds(1);
    auto token = std::make_shared<vm::CancelToken>();
    flight.members.push_back({token, std::nullopt});
    dog.begin_flight(0, std::move(flight));
    dog.sweep_now();
    EXPECT_FALSE(token->cancelled());
    dog.end_flight(0);
    dog.stop();
}

}  // namespace
}  // namespace paraprox::serve
