// Property-based (parameterized) tests for the approximation invariants:
//  - quantization address packing round-trips for arbitrary bit layouts;
//  - memoization quality is monotone in table size across functions;
//  - reduction sampling error scales with the skipping rate across seeds;
//  - stencil reaching distance trades loads for quality monotonically;
//  - the VM agrees with a host-side reference on randomized inputs.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/stencil.h"
#include "apps/common.h"
#include "exec/launch.h"
#include "memo/table.h"
#include "parser/parser.h"
#include "runtime/quality.h"
#include "support/rng.h"
#include "transforms/reduction_tx.h"
#include "transforms/stencil_tx.h"
#include "vm/compiler.h"

namespace paraprox {
namespace {

using exec::ArgPack;
using exec::Buffer;
using exec::LaunchConfig;

// ---- Quantization round trip over random layouts ---------------------------

class QuantLayoutTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantLayoutTest, AddressRoundTripsForRandomLayouts)
{
    Rng rng(1000 + GetParam());
    memo::TableConfig config;
    const int inputs = rng.uniform_int(1, 4);
    int total_bits = 0;
    for (int i = 0; i < inputs; ++i) {
        memo::InputQuant input;
        input.name = "p" + std::to_string(i);
        input.lo = rng.uniform(-10.0f, 0.0f);
        input.hi = input.lo + rng.uniform(1.0f, 20.0f);
        input.bits = rng.uniform_int(0, 5);
        input.is_constant = input.bits == 0;
        input.constant_value = input.lo;
        total_bits += input.bits;
        config.inputs.push_back(input);
    }
    if (total_bits == 0) {
        config.inputs[0].bits = 2;
        config.inputs[0].is_constant = false;
        total_bits = 2;
    }
    ASSERT_EQ(config.address_bits(), total_bits);
    for (std::int64_t addr = 0; addr < config.table_size(); ++addr)
        ASSERT_EQ(config.address(config.inputs_at(addr)), addr);
}

INSTANTIATE_TEST_SUITE_P(Layouts, QuantLayoutTest, ::testing::Range(0, 12));

// ---- Memoization quality is monotone in table size ---------------------------

struct MonotoneCase {
    const char* name;
    const char* body;
    float lo;
    float hi;
};

// Print a case by its name. GoogleTest's default dumps the raw bytes, which
// include the string pointers and so change from one process to the next.
void PrintTo(const MonotoneCase& param, std::ostream* os) { *os << param.name; }

class MemoMonotoneTest : public ::testing::TestWithParam<MonotoneCase> {};

TEST_P(MemoMonotoneTest, QualityGrowsWithBits)
{
    const auto& param = GetParam();
    auto module = parser::parse_module(std::string("float f(float x) { ") +
                                       param.body + " }");
    memo::ScalarEvaluator evaluator(module, "f");
    Rng rng(7);
    std::vector<std::vector<float>> training(300);
    for (auto& sample : training)
        sample = {rng.uniform(param.lo, param.hi)};

    double previous = -1.0;
    for (int bits : {3, 5, 7, 9, 11}) {
        auto tuned = memo::bit_tune(evaluator, training, bits);
        EXPECT_GE(tuned.quality, previous - 0.5)
            << param.name << " at " << bits << " bits";
        previous = tuned.quality;
    }
    EXPECT_GE(previous, 95.0) << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Functions, MemoMonotoneTest,
    ::testing::Values(
        MonotoneCase{"poly", "return x * x * x - 2.0f * x;", -2.0f, 2.0f},
        MonotoneCase{"expdecay", "return expf(-(x * x));", -3.0f, 3.0f},
        MonotoneCase{"logistic",
                     "return 1.0f / (1.0f + expf(-(4.0f * x)));", -2.0f,
                     2.0f},
        MonotoneCase{"sqrtshift", "return sqrtf(x + 5.0f);", 0.0f, 10.0f}),
    [](const ::testing::TestParamInfo<MonotoneCase>& info) {
        return info.param.name;
    });

// ---- Reduction sampling error scales with the skip rate ----------------------

class ReductionSkipTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReductionSkipTest, ErrorOrderedBySkipRate)
{
    auto module = parser::parse_module(R"(
        __kernel void sum(__global float* in, __global float* out, int n) {
            int t = get_global_id(0);
            float acc = 0.0f;
            for (int i = 0; i < n; i++) { acc += in[t * n + i]; }
            out[t] = acc;
        }
    )");
    constexpr int kThreads = 64, kPer = 256;
    Rng rng(GetParam());
    auto data = rng.uniform_vector(kThreads * kPer, 0.0f, 1.0f);

    auto run = [&](const ir::Module& m, const std::string& kernel) {
        Buffer in = Buffer::from_floats(data);
        Buffer out = Buffer::zeros_f32(kThreads);
        ArgPack args;
        args.buffer("in", in).buffer("out", out).scalar("n", kPer);
        exec::launch(vm::compile_kernel(m, kernel), args,
                     LaunchConfig::linear(kThreads, 32));
        return out.to_floats();
    };
    const auto exact = run(module, "sum");

    std::vector<double> qualities;
    for (int skip : {2, 4, 16}) {
        auto variant = transforms::reduction_approx(module, "sum", 0, skip);
        qualities.push_back(runtime::quality_percent(
            runtime::Metric::MeanRelativeError, exact,
            run(variant.module, variant.kernel_name)));
    }
    // Quality at skip=2 must beat skip=16 (allow skip=4 some noise).
    EXPECT_GT(qualities[0], qualities[2]);
    EXPECT_GE(qualities[0], 93.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionSkipTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ---- Stencil reaching distance sweeps ----------------------------------------

class StencilRdTest : public ::testing::TestWithParam<int> {};

TEST_P(StencilRdTest, WiderReachMergesMoreLoads)
{
    auto module = parser::parse_module(R"(
        __kernel void conv(__global float* in, __global float* out,
                           int w) {
            int x = get_global_id(0) + 4;
            int y = get_global_id(1);
            out[y * w + x] = in[y * w + x - 4] + in[y * w + x - 3]
                + in[y * w + x - 2] + in[y * w + x - 1] + in[y * w + x]
                + in[y * w + x + 1] + in[y * w + x + 2]
                + in[y * w + x + 3] + in[y * w + x + 4];
        }
    )");
    auto groups = analysis::detect_stencils(*module.find_function("conv"));
    ASSERT_EQ(groups.size(), 1u);
    ASSERT_EQ(groups[0].tile_width(), 9);

    const int rd = GetParam();
    auto variant = transforms::stencil_approx(
        module, "conv", groups[0], transforms::StencilScheme::Column, rd);
    // Bands of width 2rd+1 over 9 taps.
    const int expected = (9 + 2 * rd) / (2 * rd + 1);
    EXPECT_EQ(variant.loads_after, expected);

    // Execute: quality degrades but stays sane on smooth inputs.
    constexpr int kW = 72, kH = 16;
    auto image = apps::make_correlated_image(kW, kH, 99);
    auto run = [&](const ir::Module& m, const std::string& kernel) {
        Buffer in = Buffer::from_floats(image);
        Buffer out = Buffer::zeros_f32(kW * kH);
        ArgPack args;
        args.buffer("in", in).buffer("out", out).scalar("w", kW);
        exec::launch(vm::compile_kernel(m, kernel), args,
                     LaunchConfig::grid2d(kW - 8, kH, 16, 4));
        return out.to_floats();
    };
    const auto exact = run(module, "conv");
    const auto approx = run(variant.module, variant.kernel_name);
    EXPECT_GE(runtime::quality_percent(runtime::Metric::MeanRelativeError,
                                       exact, approx),
              90.0);
}

INSTANTIATE_TEST_SUITE_P(Reach, StencilRdTest, ::testing::Values(1, 2, 4));

// ---- VM vs. host reference on randomized inputs -------------------------------

class VmReferenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VmReferenceTest, MatchesHostComputation)
{
    auto module = parser::parse_module(R"(
        __kernel void k(__global float* a, __global float* b,
                        __global float* out, float s) {
            int i = get_global_id(0);
            float x = a[i];
            float y = b[i];
            float acc = 0.0f;
            if (x > y) {
                acc = sqrtf(x - y) + s;
            } else {
                acc = expf(y - x) - s;
            }
            for (int j = 0; j < 4; j++) {
                acc = acc * 0.5f + fminf(x, y);
            }
            out[i] = acc;
        }
    )");
    auto program = vm::compile_kernel(module, "k");

    constexpr int n = 512;
    Rng rng(GetParam());
    auto av = rng.uniform_vector(n, 0.0f, 2.0f);
    auto bv = rng.uniform_vector(n, 0.0f, 2.0f);
    const float s = rng.uniform(-1.0f, 1.0f);

    Buffer a = Buffer::from_floats(av);
    Buffer b = Buffer::from_floats(bv);
    Buffer out = Buffer::zeros_f32(n);
    ArgPack args;
    args.buffer("a", a).buffer("b", b).buffer("out", out).scalar("s", s);
    exec::launch(program, args, LaunchConfig::linear(n, 64));

    for (int i = 0; i < n; ++i) {
        float acc = av[i] > bv[i] ? std::sqrt(av[i] - bv[i]) + s
                                  : std::exp(bv[i] - av[i]) - s;
        for (int j = 0; j < 4; ++j)
            acc = acc * 0.5f + std::fmin(av[i], bv[i]);
        ASSERT_NEAR(out.get_float(i), acc, 1e-5f + std::fabs(acc) * 1e-5f)
            << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmReferenceTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace paraprox
