/// @file
/// Helpers shared by the workloads, and the traced run's layer probes:
/// each per-layer metric is measured from outside, by timing calls into
/// that layer's public functions on the workload's own kernels.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/paraprox.h"
#include "device/device_model.h"
#include "exec/launch.h"
#include "ir/printer.h"
#include "memo/table.h"
#include "parser/parser.h"
#include "runtime/quality.h"
#include "vm/compiler.h"
#include "vm/program_cache.h"
#include "workloads.h"

namespace perfbench {

namespace apps = paraprox::apps;
namespace runtime = paraprox::runtime;
namespace exec = paraprox::exec;

std::unique_ptr<apps::Application>
make_app(const std::string& name, double scale)
{
    for (auto& app : apps::make_all_applications()) {
        if (app->info().name == name) {
            app->set_scale(scale);
            return std::move(app);
        }
    }
    std::fprintf(stderr, "perfbench: no application named %s\n",
                 name.c_str());
    std::exit(2);
}

std::string
slug(const std::string& name)
{
    std::string out = name;
    std::replace(out.begin(), out.end(), ' ', '_');
    return out;
}

void
report_absent(Report& report, const std::vector<std::string>& names,
              const std::vector<std::string>& units, const std::string& why)
{
    for (std::size_t i = 0; i < names.size(); ++i)
        report.set(names[i], 0.0, units[i], 0, "not on the path: " + why);
}

const runtime::Variant*
find_variant(const std::vector<runtime::Variant>& variants,
             const std::string& label)
{
    if (label == "exact" && !variants.empty())
        return &variants.front();
    for (const auto& variant : variants) {
        if (variant.label == label)
            return &variant;
    }
    return nullptr;
}

bool
check_exact(RunContext& context, const std::string& key_prefix,
            const runtime::Variant& exact)
{
    bool ok = true;
    for (const auto seed : kVerificationSeeds) {
        const auto instrumented = exact.run(seed).output;
        ok &= context.digests.check(key_prefix + "/" + std::to_string(seed),
                                    instrumented,
                                    context.options.write_digests);
        if (exact.run_fast(seed).output != instrumented) {
            std::printf("fast/instrumented mismatch: %s seed %llu\n",
                        key_prefix.c_str(),
                        static_cast<unsigned long long>(seed));
            ok = false;
        }
    }
    return ok;
}

void
ReplyCheck::check(const std::vector<runtime::Variant>& variants,
                  const std::string& served_by, std::uint64_t seed,
                  const std::vector<float>& output)
{
    ++checked;
    const runtime::Variant* variant = find_variant(variants, served_by);
    if (variant == nullptr) {
        std::printf("reply served by unknown variant \"%s\"\n",
                    served_by.c_str());
        ++mismatches;
    } else if ((variant->run_fast ? variant->run_fast(seed)
                                  : variant->run(seed))
                   .output != output) {
        std::printf("reply differs from a local run of %s, seed %llu\n",
                    served_by.c_str(), static_cast<unsigned long long>(seed));
        ++mismatches;
    }
}

bool
ReplyCheck::report(Report& report) const
{
    report.note(std::to_string(checked) +
                " served outputs checked bit for bit against a local run of "
                "their variant, " +
                std::to_string(mismatches) + " mismatches");
    if (checked > 0 && mismatches == 0)
        return true;
    if (checked == 0)
        report.note("no served output was checked");
    report.correct = false;
    return false;
}

void
QualityTally::score(runtime::Metric metric, const std::vector<float>& exact,
                    const std::vector<float>& approx)
{
    ++checked;
    if (runtime::quality_percent(metric, exact, approx) < kToq)
        ++misses;
}

void
report_quality(Report& report, const QualityTally& tally)
{
    const double checked = std::max<double>(1.0, tally.checked);
    report.set("toq_met_frac", 1.0 - tally.misses / checked, "fraction",
               tally.checked, "quality-checked responses at or above TOQ");
    report.set("bench.toq_miss_frac", tally.misses / checked, "fraction",
               tally.checked);
}

void
report_errors(Report& report)
{
    const double attempted = std::max<double>(1.0, report.attempted);
    report.set("ok_frac", 1.0 - report.failed / attempted, "fraction",
               report.attempted, "Ok responses / requests attempted");
    report.set("bench.error_rate", report.failed / attempted, "fraction",
               report.attempted);
}

namespace {

/// Time @p body repeatedly: at least @p min_reps times and until
/// @p budget_s has passed, at most @p max_reps times.  Each call is a
/// span named @p name; returns the per-call durations in microseconds.
template <typename Body>
std::vector<double>
sample(Tracer& tracer, const std::string& name, double budget_s,
       int min_reps, int max_reps, Body&& body)
{
    std::vector<double> out;
    const auto start = Clock::now();
    for (int rep = 0; rep < max_reps; ++rep) {
        if (rep >= min_reps &&
            seconds_between(start, Clock::now()) > budget_s)
            break;
        out.push_back(timed(tracer, name, [&] { body(rep); }) * 1e6);
    }
    return out;
}

/// The exec probes' kernel: one store per work-item.
constexpr const char* kStoreKernel = R"(
__kernel void store_one(__global float* out) {
    int i = get_global_id(0);
    out[i] = 1.0f;
}
)";

void
probe_exec(Report& report, Tracer& tracer)
{
    const auto module = paraprox::parser::parse_module(kStoreKernel);
    const auto program = paraprox::vm::compile_kernel(module, "store_one");
    constexpr int kGroup = 64;
    constexpr int kItems = 16384;
    constexpr int kBatch = 16;

    auto small = exec::Buffer::zeros_f32(kGroup);
    auto large = exec::Buffer::zeros_f32(kItems);
    exec::ArgPack small_args;
    small_args.buffer("out", small);
    exec::ArgPack large_args;
    large_args.buffer("out", large);
    auto config = exec::LaunchConfig::linear(kGroup, kGroup);
    config.mode = paraprox::vm::ExecMode::Fast;
    auto large_config = exec::LaunchConfig::linear(kItems, kGroup);
    large_config.mode = paraprox::vm::ExecMode::Fast;

    std::vector<exec::Buffer> members;
    for (int i = 0; i < kBatch; ++i)
        members.push_back(exec::Buffer::zeros_f32(kGroup));
    std::vector<exec::ArgPack> member_args(kBatch);
    std::vector<const exec::ArgPack*> batch;
    for (int i = 0; i < kBatch; ++i) {
        member_args[i].buffer("out", members[i]);
        batch.push_back(&member_args[i]);
    }

    const auto fixed = sample(tracer, "probe.exec.launch_one_group", 0.2,
                              200, 5000, [&](int) {
                                  exec::launch(program, small_args, config);
                              });
    const auto big = sample(tracer, "probe.exec.launch_16k", 0.2, 20, 2000,
                            [&](int) {
                                exec::launch(program, large_args,
                                             large_config);
                            });
    const auto batched = sample(tracer, "probe.exec.launch_batch16", 0.2, 50,
                                2000, [&](int) {
                                    exec::launch_batch(program, batch, config);
                                });
    report.set("exec.launch_fixed_us", median(fixed), "us", fixed.size(),
               "one 64-item work-group, args bound");
    report.set("exec.launch_us_per_item",
               (median(big) - median(fixed)) / (kItems - kGroup), "us",
               big.size(), "16k-item one-store kernel");
    report.set("exec.batch_amortized_us", median(batched) / kBatch, "us",
               batched.size(), "launch_batch of 16 one-group members / 16");
}

}  // namespace

void
probe_layers(RunContext& context, const std::vector<ProbeTarget>& targets)
{
    Report& report = context.report;
    Tracer& tracer = context.tracer;
    const auto device = paraprox::device::DeviceModel::gtx560();
    const std::uint64_t seed = context.options.seed;
    // Offline probes many kernels; keep each one's share small.
    const double budget = targets.size() > 2 ? 0.04 : 0.25;

    double parse_ms = 0.0;
    double compile_s = 0.0;
    double lower_s = 0.0;
    double calibrate_s = 0.0;
    double variants = 0.0;
    double instructions = 0.0;
    std::uint64_t searches = 0;
    std::vector<double> dispatch_gps;
    std::vector<double> priced_over_fast;
    std::vector<double> bind_us;
    std::vector<double> serve_us;
    std::vector<double> batch_us;
    std::vector<double> exact_us;
    std::size_t probed = 0;

    for (const auto& target : targets) {
        const auto setup = target.app->setup(device);
        if (!setup)
            continue;  // Multi-kernel apps have no single launch plan.
        ++probed;
        const auto& session = *setup->session;

        const std::string source = paraprox::ir::to_source(target.app->module());
        parse_ms += median(sample(tracer, "probe.parser.parse", budget, 3, 50,
                                  [&](int) {
                                      paraprox::parser::parse_module(source);
                                  })) /
                    1e3;

        const auto searches_before = paraprox::memo::table_search_invocations();
        paraprox::core::KernelCompileResult result;
        compile_s += timed(tracer, "probe.core.compile_kernel", [&] {
            result = paraprox::core::compile_kernel(
                target.app->module(), session.kernel(), session.options());
        });
        searches += paraprox::memo::table_search_invocations() - searches_before;
        variants += static_cast<double>(result.generated.size() + 1);

        lower_s += timed(tracer, "probe.vm.compile_kernel", [&] {
            paraprox::vm::compile_kernel(target.app->module(), session.kernel());
            for (const auto& generated : result.generated)
                paraprox::vm::compile_kernel(generated.module,
                                             generated.kernel_name);
        });

        auto family = session.variants(setup->plan);
        runtime::Tuner tuner(family, target.app->info().metric, kToq);
        calibrate_s += timed(tracer, "probe.runtime.calibrate",
                             [&] { tuner.calibrate(kTrainingSeeds); });
        tuner.set_serving_mode(paraprox::vm::ExecMode::Fast);
        const auto& exact = family.front();
        const auto* selected = find_variant(family, target.selected);
        if (selected == nullptr)
            selected = &family.front();
        instructions += static_cast<double>(
            selected->run_fast(kVerificationSeeds.front()).instructions);

        std::vector<double> gps;
        std::vector<double> priced;
        std::vector<double> fast;
        sample(tracer, "probe.device.run_priced", budget, 3, 50, [&](int rep) {
            const auto s = derive_seed(seed, 7000 + rep);
            const auto t0 = Clock::now();
            exact.run(s);
            const auto t1 = Clock::now();
            const auto run = exact.run_fast(s);
            const auto t2 = Clock::now();
            priced.push_back(seconds_between(t0, t1));
            fast.push_back(seconds_between(t1, t2));
            gps.push_back(static_cast<double>(run.instructions) /
                          run.wall_seconds / 1e9);
        });
        dispatch_gps.push_back(median(gps));
        priced_over_fast.push_back(median(priced) / median(fast));

        bind_us.push_back(median(sample(
            tracer, "probe.runtime.bind_inputs", budget, 5, 2000, [&](int rep) {
                exec::ArgPack args;
                std::vector<std::unique_ptr<exec::Buffer>> storage;
                setup->plan.bind_inputs(derive_seed(seed, 8000 + rep), args,
                                        storage);
            })));
        serve_us.push_back(median(sample(
            tracer, "probe.runtime.serve", budget, 5, 2000, [&](int rep) {
                tuner.serve(derive_seed(seed, 9000 + rep));
            })));
        exact_us.push_back(median(sample(
            tracer, "probe.runtime.run_exact", budget, 5, 2000, [&](int rep) {
                tuner.run_exact(derive_seed(seed, 9000 + rep));
            })));
        std::vector<std::uint64_t> seeds(16);
        batch_us.push_back(
            median(sample(tracer, "probe.runtime.serve_batch", budget, 2, 500,
                          [&](int rep) {
                              for (std::size_t i = 0; i < seeds.size(); ++i)
                                  seeds[i] =
                                      derive_seed(seed, 10000 + rep * 16 + i);
                              tuner.serve_batch(seeds);
                          })) /
            16.0);
    }

    const std::string over = std::to_string(probed) + " kernel(s)";
    report.set("parser.parse_ms", parse_ms, "ms", probed, "sum over " + over);
    report.set("core.compile_s", compile_s, "s", probed, "sum over " + over);
    report.set("core.variants", variants, "count", 0, "sum over " + over);
    report.set("memo.table_searches", static_cast<double>(searches), "count",
               0, "during core.compile_s");
    report.set("vm.lower_s", lower_s, "s", probed, "sum over " + over);
    const auto cache = paraprox::vm::ProgramCache::global().stats();
    report.set("vm.cache_hit_frac",
               static_cast<double>(cache.hits) /
                   std::max<double>(1.0, cache.hits + cache.misses),
               "fraction", cache.hits + cache.misses, "whole run");
    report.set("vm.dispatch_gps", geomean(dispatch_gps), "G/s", probed,
               "exact kernel, fast mode, geomean");
    report.set("vm.instructions_per_run", instructions, "count", 0,
               "selected variant(s), verification seed");
    report.set("device.priced_over_fast", geomean(priced_over_fast), "x",
               probed, "exact kernel, geomean");
    report.set("runtime.calibrate_s", calibrate_s, "s", probed,
               "sum over " + over);
    report.set("runtime.bind_us", geomean(bind_us), "us", probed, "geomean");
    report.set("runtime.serve_us", geomean(serve_us), "us", probed,
               "Tuner::serve, fast, geomean");
    report.set("runtime.serve_batch_us_per_member", geomean(batch_us), "us",
               probed, "Tuner::serve_batch of 16 / 16, geomean");
    report.set("runtime.exact_us", geomean(exact_us), "us", probed,
               "Tuner::run_exact, geomean");
    probe_exec(report, tracer);
}

}  // namespace perfbench
