// Unit tests for buffers and launch plumbing.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "exec/buffer.h"
#include "exec/launch.h"
#include "parser/parser.h"
#include "support/error.h"
#include "support/faultinject.h"
#include "vm/compiler.h"

namespace paraprox {
namespace {

using exec::ArgPack;
using exec::Buffer;
using exec::LaunchConfig;

TEST(BufferTest, FloatRoundTrip)
{
    std::vector<float> values = {1.5f, -2.25f, 0.0f, 3.14159f};
    Buffer buffer = Buffer::from_floats(values);
    EXPECT_EQ(buffer.size(), 4u);
    EXPECT_EQ(buffer.elem_type(), ir::Scalar::F32);
    EXPECT_EQ(buffer.to_floats(), values);
    EXPECT_FLOAT_EQ(buffer.get_float(1), -2.25f);
}

TEST(BufferTest, IntRoundTrip)
{
    std::vector<std::int32_t> values = {-7, 0, 42};
    Buffer buffer = Buffer::from_ints(values);
    EXPECT_EQ(buffer.to_ints(), values);
    buffer.set_int(0, 9);
    EXPECT_EQ(buffer.get_int(0), 9);
}

TEST(BufferTest, ZerosInitialized)
{
    Buffer f = Buffer::zeros_f32(16);
    Buffer i = Buffer::zeros_i32(16);
    for (std::size_t k = 0; k < 16; ++k) {
        EXPECT_EQ(f.get_float(k), 0.0f);
        EXPECT_EQ(i.get_int(k), 0);
    }
}

TEST(BufferTest, FillSizeMismatchRejected)
{
    Buffer buffer = Buffer::zeros_f32(4);
    EXPECT_THROW(buffer.fill_floats({1.0f}), UserError);
}

TEST(BufferTest, OnlyScalarElementTypes)
{
    EXPECT_THROW(Buffer(ir::Scalar::Void, 4), UserError);
    EXPECT_THROW(Buffer(ir::Scalar::Bool, 4), UserError);
}

TEST(ArgPackTest, LookupSemantics)
{
    Buffer buffer = Buffer::zeros_f32(4);
    ArgPack args;
    args.buffer("buf", buffer).scalar("n", 7).scalar("x", 1.5f)
        .shared("tile", 64);
    EXPECT_EQ(args.find_buffer("buf"), &buffer);
    EXPECT_EQ(args.find_buffer("nope"), nullptr);
    EXPECT_EQ(args.find_scalar("n")->i, 7);
    EXPECT_FLOAT_EQ(args.find_scalar("x")->f, 1.5f);
    EXPECT_EQ(args.find_scalar("nope"), nullptr);
    EXPECT_EQ(args.find_shared("tile"), 64);
    EXPECT_EQ(args.find_shared("nope"), 0);
}

TEST(LaunchTest, WallClockPositive)
{
    auto module = parser::parse_module(R"(
        __kernel void k(__global float* out) {
            int i = get_global_id(0);
            float acc = 0.0f;
            for (int j = 0; j < 100; j++) { acc += sqrtf((float)(j)); }
            out[i] = acc;
        }
    )");
    auto program = vm::compile_kernel(module, "k");
    Buffer out = Buffer::zeros_f32(1024);
    ArgPack args;
    args.buffer("out", out);
    auto result = exec::launch(program, args, LaunchConfig::linear(1024, 64));
    EXPECT_GT(result.wall_seconds, 0.0);
    EXPECT_FALSE(result.trapped);
}

TEST(LaunchTest, ManyGroupsRunInParallelConsistently)
{
    // All groups write disjoint slices; result must be deterministic.
    auto module = parser::parse_module(R"(
        __kernel void k(__global int* out) {
            int i = get_global_id(0);
            out[i] = i * 3 + 1;
        }
    )");
    auto program = vm::compile_kernel(module, "k");
    Buffer out = Buffer::zeros_i32(4096);
    ArgPack args;
    args.buffer("out", out);
    exec::launch(program, args, LaunchConfig::linear(4096, 32));
    for (int i = 0; i < 4096; ++i)
        ASSERT_EQ(out.get_int(i), i * 3 + 1);
}

TEST(LaunchTest, MissingSharedSizeRejected)
{
    auto module = parser::parse_module(R"(
        __kernel void k(__shared float* tile, __global float* out) {
            int i = get_global_id(0);
            tile[0] = 1.0f;
            out[i] = tile[0];
        }
    )");
    auto program = vm::compile_kernel(module, "k");
    Buffer out = Buffer::zeros_f32(4);
    ArgPack args;
    args.buffer("out", out);
    EXPECT_THROW(exec::launch(program, args, LaunchConfig::linear(4, 4)),
                 UserError);
}

TEST(LaunchTest, TrapAbortsRemainingGroups)
{
    // Every group counts itself in before group 0 traps with an
    // out-of-bounds store.  The launcher checks its abort flag at group
    // start, so the trap must prevent most of the 4096 queued groups from
    // ever executing — previously all of them ran to completion first.
    auto module = parser::parse_module(R"(
        __kernel void k(__global int* counter, __global int* out) {
            atomic_inc(counter, 0);
            if (get_group_id(0) == 0) { out[100] = 1; }
        }
    )");
    auto program = vm::compile_kernel(module, "k");
    const int total_groups = 4096;
    Buffer counter = Buffer::zeros_i32(1);
    Buffer out = Buffer::zeros_i32(4);
    ArgPack args;
    args.buffer("counter", counter).buffer("out", out);
    auto result = exec::launch(program, args,
                               LaunchConfig::linear(total_groups, 1));
    EXPECT_TRUE(result.trapped);
    EXPECT_NE(result.trap_message.find("out-of-bounds"),
              std::string::npos);
    // Group 0 traps within its first block of work; the only groups that
    // still run are those already in flight on other workers.  Half the
    // NDRange is a generous bound — without the abort check the counter
    // always reads exactly 4096.
    EXPECT_LT(counter.get_int(0), total_groups / 2);
    // Trapped launches must not leak partial accounting: stats come only
    // from groups that completed before the trap landed, never from the
    // trapping group itself.
    EXPECT_LE(
        result.stats.count(vm::Opcode::AtomInc),
        static_cast<std::uint64_t>(counter.get_int(0)));
}

TEST(LaunchTest, SharedMemoryIsPerGroup)
{
    // Each group increments tile[0]; if shared memory leaked between
    // groups, later groups would observe larger values.
    auto module = parser::parse_module(R"(
        __kernel void k(__shared int* tile, __global int* out) {
            int l = get_local_id(0);
            int g = get_global_id(0);
            if (l == 0) { tile[0] = get_group_id(0); }
            barrier();
            out[g] = tile[0];
        }
    )");
    auto program = vm::compile_kernel(module, "k");
    Buffer out = Buffer::zeros_i32(64);
    ArgPack args;
    args.buffer("out", out).shared("tile", 1);
    exec::launch(program, args, LaunchConfig::linear(64, 8));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out.get_int(i), i / 8);
}

TEST(LaunchTest, BatchMatchesIndividualLaunches)
{
    auto module = parser::parse_module(R"(
        __kernel void k(__global int* out, int base) {
            int i = get_global_id(0);
            out[i] = base + i * 3;
        }
    )");
    auto program = vm::compile_kernel(module, "k");

    // Three members with distinct scalars and output buffers, run as one
    // concatenated launch: each member's results must match a solo
    // launch, and each member pays only a share of the batch wall clock.
    std::vector<Buffer> outs;
    std::vector<ArgPack> packs;
    outs.reserve(3);
    packs.reserve(3);
    std::vector<const ArgPack*> members;
    for (int m = 0; m < 3; ++m) {
        outs.push_back(Buffer::zeros_i32(256));
        ArgPack args;
        args.buffer("out", outs.back()).scalar("base", 1000 * m);
        packs.push_back(std::move(args));
        members.push_back(&packs.back());
    }
    const auto results =
        exec::launch_batch(program, members, LaunchConfig::linear(256, 32));
    ASSERT_EQ(results.size(), 3u);
    for (int m = 0; m < 3; ++m) {
        EXPECT_FALSE(results[m].trapped);
        EXPECT_GT(results[m].wall_seconds, 0.0);
        for (int i = 0; i < 256; ++i)
            ASSERT_EQ(outs[m].get_int(i), 1000 * m + i * 3);
    }
}

TEST(LaunchTest, BatchMemberTrapIsIsolated)
{
    // Member 1's out buffer is too small, so its stores trap; members 0
    // and 2 must complete untouched — a trap poisons only its own member.
    auto module = parser::parse_module(R"(
        __kernel void k(__global int* out) {
            int i = get_global_id(0);
            out[i] = i + 7;
        }
    )");
    auto program = vm::compile_kernel(module, "k");

    Buffer ok_a = Buffer::zeros_i32(64);
    Buffer tiny = Buffer::zeros_i32(8);
    Buffer ok_b = Buffer::zeros_i32(64);
    ArgPack pack_a, pack_tiny, pack_b;
    pack_a.buffer("out", ok_a);
    pack_tiny.buffer("out", tiny);
    pack_b.buffer("out", ok_b);
    const std::vector<const ArgPack*> members = {&pack_a, &pack_tiny,
                                                 &pack_b};
    const auto results =
        exec::launch_batch(program, members, LaunchConfig::linear(64, 8));
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].trapped);
    EXPECT_TRUE(results[1].trapped);
    EXPECT_NE(results[1].trap_message.find("out-of-bounds"),
              std::string::npos);
    EXPECT_FALSE(results[2].trapped);
    for (int i = 0; i < 64; ++i) {
        ASSERT_EQ(ok_a.get_int(i), i + 7);
        ASSERT_EQ(ok_b.get_int(i), i + 7);
    }
}

// ---- Cooperative cancellation ----------------------------------------------

/// Cancellation tests arm fault sites; keep the process-wide injector
/// clean around each one.
class CancelTest : public ::testing::Test {
  protected:
    void SetUp() override { fault::FaultInjector::instance().disarm(); }
    void TearDown() override { fault::FaultInjector::instance().disarm(); }
};

vm::Program
counting_program()
{
    auto module = parser::parse_module(R"(
        __kernel void cancel_k(__global int* out) {
            int i = get_global_id(0);
            int acc = 0;
            for (int j = 0; j < 50; j++) { acc += j; }
            out[i] = acc + i;
        }
    )");
    return vm::compile_kernel(module, "cancel_k");
}

TEST_F(CancelTest, PreCancelledTokenSkipsTheWholeLaunch)
{
    auto program = counting_program();
    Buffer out = Buffer::zeros_i32(256);
    ArgPack args;
    args.buffer("out", out);
    vm::CancelToken token;
    ASSERT_TRUE(token.cancel(vm::CancelReason::Deadline));
    exec::CancelScope scope(&token);

    const auto result =
        exec::launch(program, args, LaunchConfig::linear(256, 32));
    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(result.cancel_reason, vm::CancelReason::Deadline);
    EXPECT_FALSE(result.trapped);
    // No group ran and no stats were merged: a cancelled launch must
    // never leak partial accounting into calibration or pricing.
    EXPECT_EQ(result.groups_completed, 0);
    EXPECT_EQ(result.groups_total, 8);
    EXPECT_EQ(result.stats.total_instructions, 0u);
    for (int i = 0; i < 256; ++i)
        ASSERT_EQ(out.get_int(i), 0);
}

TEST_F(CancelTest, FirstCancelReasonWins)
{
    vm::CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_TRUE(token.cancel(vm::CancelReason::Watchdog));
    // A later deadline cancel is a no-op: the original verdict stands.
    EXPECT_FALSE(token.cancel(vm::CancelReason::Deadline));
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), vm::CancelReason::Watchdog);

    // The launch reports the verdict that stood, through the scope.
    auto program = counting_program();
    Buffer out = Buffer::zeros_i32(64);
    ArgPack args;
    args.buffer("out", out);
    exec::CancelScope scope(&token);
    const auto result =
        exec::launch(program, args, LaunchConfig::linear(64, 32));
    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(result.cancel_reason, vm::CancelReason::Watchdog);
}

TEST_F(CancelTest, MidLaunchCancelStopsWithinOneGroupRound)
{
    // One group wedges on the armed vm.hang site (it spins polling its
    // cancel token); the ambient CancelScope token fires from another
    // thread and must bring the launch home cancelled — the hung
    // interpreter is exactly what cooperative cancellation exists for.
    auto program = counting_program();
    Buffer out = Buffer::zeros_i32(4096);
    ArgPack args;
    args.buffer("out", out);

    fault::FaultSpec hang;
    hang.site = "vm.hang";
    hang.match = "cancel_k";
    hang.every = 1;
    hang.limit = 1;
    fault::FaultInjector::instance().arm({hang});

    vm::CancelToken token;
    std::thread canceller([&token] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        token.cancel(vm::CancelReason::Watchdog);
    });
    exec::CancelScope scope(&token);
    const auto result =
        exec::launch(program, args, LaunchConfig::linear(4096, 32));
    canceller.join();

    EXPECT_TRUE(result.cancelled);
    EXPECT_EQ(result.cancel_reason, vm::CancelReason::Watchdog);
    EXPECT_EQ(result.groups_total, 128);
    // The wedged group never completes, so a cancelled launch always
    // comes home short; completed-before-cancel groups may have merged
    // stats, which is fine — the serving layer discards a cancelled
    // run's accounting wholesale.
    EXPECT_LT(result.groups_completed, result.groups_total);
}

TEST_F(CancelTest, ScopesRestoreOnExit)
{
    vm::CancelToken outer_token;
    EXPECT_TRUE(exec::current_cancel_tokens().empty());
    {
        exec::CancelScope outer(&outer_token);
        ASSERT_EQ(exec::current_cancel_tokens().size(), 1u);
        EXPECT_EQ(exec::current_cancel_tokens()[0], &outer_token);
        vm::CancelToken a;
        vm::CancelToken b;
        const std::vector<const vm::CancelToken*> pair = {&a, &b};
        {
            exec::CancelScope inner(pair);
            ASSERT_EQ(exec::current_cancel_tokens().size(), 2u);
            EXPECT_EQ(exec::current_cancel_tokens()[1], &b);
            {
                // An empty scope shadows too: it disarms every launch.
                exec::CancelScope unarmed(exec::CancelTokens{});
                EXPECT_TRUE(exec::current_cancel_tokens().empty());
            }
            EXPECT_EQ(exec::current_cancel_tokens()[0], &a);
        }
        ASSERT_EQ(exec::current_cancel_tokens().size(), 1u);
        EXPECT_EQ(exec::current_cancel_tokens()[0], &outer_token);
    }
    EXPECT_TRUE(exec::current_cancel_tokens().empty());
}

TEST_F(CancelTest, BatchScopeScattersOnlyTheMarkedMember)
{
    auto program = counting_program();
    std::vector<Buffer> outs;
    outs.reserve(3);  // ArgPacks hold Buffer pointers: no reallocation.
    std::vector<ArgPack> packs;
    std::vector<const ArgPack*> members;
    for (int m = 0; m < 3; ++m) {
        outs.push_back(Buffer::zeros_i32(256));
        ArgPack args;
        args.buffer("out", outs.back());
        packs.push_back(std::move(args));
    }
    for (auto& pack : packs)
        members.push_back(&pack);

    vm::CancelToken doomed;
    doomed.cancel(vm::CancelReason::Deadline);
    const std::vector<const vm::CancelToken*> tokens = {nullptr, &doomed,
                                                        nullptr};
    exec::CancelScope scope(tokens);
    const auto results = exec::launch_batch(
        program, members, LaunchConfig::linear(256, 32));

    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].cancelled);
    EXPECT_TRUE(results[1].cancelled);
    EXPECT_EQ(results[1].cancel_reason, vm::CancelReason::Deadline);
    EXPECT_EQ(results[1].groups_completed, 0);
    EXPECT_FALSE(results[2].cancelled);
    // The survivors' outputs are complete; the cancelled member's buffer
    // was never written.
    for (int i = 0; i < 256; ++i) {
        ASSERT_EQ(outs[0].get_int(i), 1225 + i);
        ASSERT_EQ(outs[1].get_int(i), 0);
        ASSERT_EQ(outs[2].get_int(i), 1225 + i);
    }
}

TEST_F(CancelTest, BatchScopeSizeMismatchDisarms)
{
    // Two tokens for a three-member batch: misattributing a token would
    // cancel the wrong client's request, so the scope must disarm
    // entirely instead.
    auto program = counting_program();
    std::vector<Buffer> outs;
    outs.reserve(3);  // ArgPacks hold Buffer pointers: no reallocation.
    std::vector<ArgPack> packs;
    std::vector<const ArgPack*> members;
    for (int m = 0; m < 3; ++m) {
        outs.push_back(Buffer::zeros_i32(64));
        ArgPack args;
        args.buffer("out", outs.back());
        packs.push_back(std::move(args));
    }
    for (auto& pack : packs)
        members.push_back(&pack);

    vm::CancelToken doomed;
    doomed.cancel(vm::CancelReason::Deadline);
    const std::vector<const vm::CancelToken*> tokens = {&doomed, &doomed};
    exec::CancelScope scope(tokens);
    const auto results =
        exec::launch_batch(program, members, LaunchConfig::linear(64, 8));
    ASSERT_EQ(results.size(), 3u);
    for (const auto& result : results) {
        EXPECT_FALSE(result.cancelled);
        EXPECT_EQ(result.groups_completed, result.groups_total);
    }

    // The same rule holds for a single launch, a batch of one: a
    // two-token scope does not arm it.
    const auto single = exec::launch(program, packs[0],
                                     LaunchConfig::linear(64, 8));
    EXPECT_FALSE(single.cancelled);
    EXPECT_EQ(single.groups_completed, single.groups_total);

    // And a one-token scope does not leak into a three-member batch.
    exec::CancelScope one(&doomed);
    for (const auto& result : exec::launch_batch(
             program, members, LaunchConfig::linear(64, 8))) {
        EXPECT_FALSE(result.cancelled);
    }
}

}  // namespace
}  // namespace paraprox
