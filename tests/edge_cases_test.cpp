// Edge-case tests: parser corner cases, VM numeric semantics, printer
// idempotence, and geometry/launch boundaries that the main suites do
// not cover.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "exec/launch.h"
#include "ir/printer.h"
#include "parser/parser.h"
#include "support/error.h"
#include "vm/compiler.h"
#include "vm/vm.h"

namespace paraprox {
namespace {

using exec::ArgPack;
using exec::Buffer;
using exec::LaunchConfig;

// ---- Parser corners ---------------------------------------------------------

TEST(ParserEdgeTest, DeeplyNestedExpressions)
{
    std::string expr = "1.0f";
    for (int i = 0; i < 60; ++i)
        expr = "(" + expr + " + 1.0f)";
    auto module = parser::parse_module("float f() { return " + expr +
                                       "; }");
    auto program = vm::compile_scalar_function(module, "f");
    EXPECT_FLOAT_EQ(vm::run_scalar_program(program, {}).f, 61.0f);
}

TEST(ParserEdgeTest, OperatorPrecedenceGolden)
{
    auto module = parser::parse_module(R"(
        int f(int a, int b, int c) {
            return a + b * c - a / (b + 1) % 3 << 1 & 7 | c ^ 2;
        }
    )");
    const auto* fn = module.find_function("f");
    // Round-trip must preserve the tree exactly.
    const std::string once = ir::to_source(*fn);
    auto reparsed = parser::parse_module(once);
    EXPECT_EQ(once, ir::to_source(*reparsed.find_function("f")));
}

TEST(ParserEdgeTest, UnaryChains)
{
    auto module = parser::parse_module(R"(
        int f(int a) { return - -a + !!(a > 0); }
    )");
    (void)module;
}

TEST(ParserEdgeTest, EmptyForHeaderPieces)
{
    // Missing init and step are allowed; missing cond means `true`.
    auto module = parser::parse_module(R"(
        int f(int n) {
            int i = 0;
            int s = 0;
            for (; i < n;) {
                s += i;
                i++;
            }
            return s;
        }
    )");
    (void)module;
}

TEST(ParserEdgeTest, CommentsEverywhere)
{
    auto module = parser::parse_module(R"(
        /* header */ float /*mid*/ f(/*args*/ float x /*trailing*/) {
            // line comment
            return x; /* tail */
        }
    )");
    EXPECT_NE(module.find_function("f"), nullptr);
}

TEST(ParserEdgeTest, LargeIntAndFloatLiterals)
{
    auto module = parser::parse_module(R"(
        int f() { return 2147483647; }
        float g() { return 3.4028e38f; }
        float tiny() { return 1.17549e-38f; }
    )");
    (void)module;
}

// ---- VM numeric semantics ---------------------------------------------------------

float
run_unary_float(const std::string& body, float input)
{
    auto module = parser::parse_module("float f(float x) { return " +
                                       body + "; }");
    auto program = vm::compile_scalar_function(module, "f");
    return vm::run_scalar_program(program, {vm::make_float(input)}).f;
}

TEST(VmNumericsTest, FloatDivisionByZeroIsInf)
{
    EXPECT_TRUE(std::isinf(run_unary_float("1.0f / x", 0.0f)));
    EXPECT_TRUE(std::isnan(run_unary_float("x / x", 0.0f)));
}

TEST(VmNumericsTest, SqrtOfNegativeIsNan)
{
    EXPECT_TRUE(std::isnan(run_unary_float("sqrtf(x)", -1.0f)));
}

TEST(VmNumericsTest, LogOfZeroIsNegInf)
{
    const float v = run_unary_float("logf(x)", 0.0f);
    EXPECT_TRUE(std::isinf(v));
    EXPECT_LT(v, 0.0f);
}

TEST(VmNumericsTest, FminFmaxIgnoreNan)
{
    // std::fmin/fmax semantics: NaN operand yields the other operand.
    EXPECT_FLOAT_EQ(run_unary_float("fminf(sqrtf(x), 3.0f)", -1.0f), 3.0f);
    EXPECT_FLOAT_EQ(run_unary_float("fmaxf(sqrtf(x), 3.0f)", -1.0f), 3.0f);
}

TEST(VmNumericsTest, TruncationTowardZero)
{
    EXPECT_EQ(static_cast<int>(
                  run_unary_float("(float)((int)(x))", 2.9f)),
              2);
    EXPECT_EQ(static_cast<int>(
                  run_unary_float("(float)((int)(x))", -2.9f)),
              -2);
}

TEST(VmNumericsTest, IntegerOverflowWraps)
{
    auto module = parser::parse_module(R"(
        int f(int x) { return x + 1; }
    )");
    auto program = vm::compile_scalar_function(module, "f");
    const auto max_int = std::numeric_limits<std::int32_t>::max();
    EXPECT_EQ(vm::run_scalar_program(program, {vm::make_int(max_int)}).i,
              std::numeric_limits<std::int32_t>::min());
}

TEST(VmNumericsTest, IntMinDividedByMinusOneWraps)
{
    // The one int32 quotient that overflows: defined as two's-complement
    // wrap (INT_MIN / -1 = INT_MIN, INT_MIN % -1 = 0), never a SIGFPE.
    auto module = parser::parse_module(R"(
        int q(int a, int b) { return a / b; }
        int r(int a, int b) { return a % b; }
    )");
    const auto min_int = std::numeric_limits<std::int32_t>::min();
    const std::vector<vm::Value> args = {vm::make_int(min_int),
                                         vm::make_int(-1)};
    EXPECT_EQ(vm::run_scalar_program(
                  vm::compile_scalar_function(module, "q"), args).i,
              min_int);
    EXPECT_EQ(vm::run_scalar_program(
                  vm::compile_scalar_function(module, "r"), args).i,
              0);
}

TEST(VmNumericsTest, IntegerEdgeCasesMatchAcrossExecModes)
{
    // The same overflow and INT_MIN / -1 inputs through a launched kernel
    // (plain and fused integer ops) must give the defined results,
    // bit-identical in Instrumented and Fast mode.
    auto module = parser::parse_module(R"(
        __kernel void k(__global int* a, __global int* b,
                        __global int* q, __global int* r,
                        __global int* s, __global int* m) {
            int i = get_global_id(0);
            q[i] = a[i] / b[i];
            r[i] = a[i] % b[i];
            s[i] = a[i] + b[i];
            m[i] = a[i] * b[i] + a[i];
        }
    )");
    const auto program = vm::compile_kernel(module, "k");
    const auto min_int = std::numeric_limits<std::int32_t>::min();
    const auto max_int = std::numeric_limits<std::int32_t>::max();
    const std::vector<std::int32_t> a = {min_int, min_int, max_int, -7};
    const std::vector<std::int32_t> b = {-1, 1, 2, 3};
    const std::vector<std::vector<std::int32_t>> expected = {
        {min_int, min_int, max_int / 2, -2},  // q
        {0, 0, 1, -1},                        // r
        {max_int, min_int + 1, min_int + 1, -4},
        {0, 0, max_int - 2, -28},             // m: a * b + a, wrapped
    };
    const char* outputs[] = {"q", "r", "s", "m"};

    std::vector<std::vector<std::int32_t>> per_mode[2];
    for (const vm::ExecMode mode :
         {vm::ExecMode::Instrumented, vm::ExecMode::Fast}) {
        Buffer in_a = Buffer::from_ints(a);
        Buffer in_b = Buffer::from_ints(b);
        std::vector<Buffer> outs;
        outs.reserve(4);  // ArgPack holds Buffer pointers.
        ArgPack args;
        args.buffer("a", in_a).buffer("b", in_b);
        for (const char* name : outputs) {
            outs.push_back(Buffer::zeros_i32(a.size()));
            args.buffer(name, outs.back());
        }
        LaunchConfig config = LaunchConfig::linear(4, 2);
        config.mode = mode;
        const auto result = exec::launch(program, args, config);
        ASSERT_FALSE(result.trapped) << result.trap_message;
        auto& got = per_mode[mode == vm::ExecMode::Fast];
        for (std::size_t o = 0; o < outs.size(); ++o) {
            got.emplace_back();
            for (std::size_t i = 0; i < a.size(); ++i)
                got.back().push_back(outs[o].get_int(i));
            EXPECT_EQ(got.back(), expected[o]) << outputs[o];
        }
    }
    EXPECT_EQ(per_mode[0], per_mode[1]);
}

TEST(VmNumericsTest, NegativeModuloFollowsC)
{
    auto module = parser::parse_module("int f(int x) { return x % 3; }");
    auto program = vm::compile_scalar_function(module, "f");
    EXPECT_EQ(vm::run_scalar_program(program, {vm::make_int(-7)}).i, -1);
}

TEST(VmNumericsTest, ShiftAmountMasked)
{
    auto module = parser::parse_module(
        "int f(int x, int s) { return x << s; }");
    auto program = vm::compile_scalar_function(module, "f");
    // Shift by 33 behaves as shift by 1 (masked to 5 bits, like hardware).
    EXPECT_EQ(vm::run_scalar_program(
                  program, {vm::make_int(1), vm::make_int(33)}).i,
              2);
}

// ---- Launch geometry corners ---------------------------------------------------------

TEST(LaunchEdgeTest, SingleItemLaunch)
{
    auto module = parser::parse_module(R"(
        __kernel void k(__global float* out) { out[0] = 42.0f; }
    )");
    Buffer out = Buffer::zeros_f32(1);
    ArgPack args;
    args.buffer("out", out);
    exec::launch(vm::compile_kernel(module, "k"), args,
                 LaunchConfig::linear(1, 1));
    EXPECT_FLOAT_EQ(out.get_float(0), 42.0f);
}

TEST(LaunchEdgeTest, ThreeDimensionalGrid)
{
    auto module = parser::parse_module(R"(
        __kernel void k(__global int* out, int w, int h) {
            int x = get_global_id(0);
            int y = get_global_id(1);
            int z = get_global_id(2);
            out[(z * h + y) * w + x] = z * 100 + y * 10 + x;
        }
    )");
    auto program = vm::compile_kernel(module, "k");
    Buffer out = Buffer::zeros_i32(2 * 3 * 4);
    ArgPack args;
    args.buffer("out", out).scalar("w", 4).scalar("h", 3);
    exec::LaunchConfig config;
    config.global_size = {4, 3, 2};
    config.local_size = {2, 1, 1};
    exec::launch(program, args, config);
    for (int z = 0; z < 2; ++z)
        for (int y = 0; y < 3; ++y)
            for (int x = 0; x < 4; ++x)
                EXPECT_EQ(out.get_int((z * 3 + y) * 4 + x),
                          z * 100 + y * 10 + x);
}

TEST(LaunchEdgeTest, BarrierInSingleItemGroupIsNoop)
{
    auto module = parser::parse_module(R"(
        __kernel void k(__shared float* tile, __global float* out) {
            tile[0] = 7.0f;
            barrier();
            out[get_global_id(0)] = tile[0];
        }
    )");
    Buffer out = Buffer::zeros_f32(4);
    ArgPack args;
    args.buffer("out", out).shared("tile", 1);
    auto result = exec::launch(vm::compile_kernel(module, "k"), args,
                               LaunchConfig::linear(4, 1));
    EXPECT_FALSE(result.trapped);
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(out.get_float(i), 7.0f);
}

TEST(LaunchEdgeTest, DivergentBarrierTraps)
{
    auto module = parser::parse_module(R"(
        __kernel void k(__shared float* tile, __global float* out) {
            int l = get_local_id(0);
            if (l < 2) { barrier(); tile[l] = 1.0f; }
            out[get_global_id(0)] = 1.0f;
        }
    )");
    Buffer out = Buffer::zeros_f32(4);
    ArgPack args;
    args.buffer("out", out).shared("tile", 4);
    auto result = exec::launch(vm::compile_kernel(module, "k"), args,
                               LaunchConfig::linear(4, 4));
    EXPECT_TRUE(result.trapped);
    EXPECT_NE(result.trap_message.find("divergent"), std::string::npos);
}

// ---- Printer idempotence ------------------------------------------------------------

TEST(PrinterEdgeTest, PrintParsePrintIsStable)
{
    const char* sources[] = {
        "float f(float x) { return x < 0.0f ? -x : x; }",
        "int g(int a, int b) { return (a & b) | (a ^ b) << 2; }",
        R"(__kernel void k(__global float* o) {
               for (int i = 0; i < 4; i++) { o[i] = (float)(i); }
           })",
        R"(float h(float x) {
               if (x > 1.0f) { return 1.0f; }
               else if (x < -1.0f) { return -1.0f; }
               return x;
           })",
    };
    for (const char* source : sources) {
        auto once = ir::to_source(parser::parse_module(source));
        auto twice = ir::to_source(parser::parse_module(once));
        EXPECT_EQ(once, twice) << source;
    }
}

}  // namespace
}  // namespace paraprox
