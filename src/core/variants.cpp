#include "core/variants.h"

#include "device/memory_model.h"
#include "runtime/variant_run.h"
#include "support/error.h"
#include "vm/program_cache.h"

namespace paraprox::core {

void
bind_tables(const std::vector<TableBinding>& tables, exec::ArgPack& args,
            std::vector<std::unique_ptr<exec::Buffer>>& storage)
{
    for (const auto& binding : tables) {
        storage.push_back(std::make_unique<exec::Buffer>(
            exec::Buffer::from_floats(binding.table.values)));
        args.buffer(binding.buffer_param, *storage.back());
        if (!binding.shared_param.empty()) {
            args.shared(binding.shared_param,
                        static_cast<std::int64_t>(
                            binding.table.values.size()));
        }
    }
}

runtime::VariantRun
run_one(const vm::Program& program, const std::vector<TableBinding>& tables,
        const LaunchPlan& plan, const device::DeviceModel& device,
        std::uint64_t seed, vm::ExecMode mode)
{
    PARAPROX_CHECK(plan.bind_inputs != nullptr,
                   "LaunchPlan needs a bind_inputs callback");
    exec::ArgPack args;
    std::vector<std::unique_ptr<exec::Buffer>> storage;
    plan.bind_inputs(seed, args, storage);
    bind_tables(tables, args, storage);

    runtime::VariantRun run =
        mode == vm::ExecMode::Fast
            ? runtime::run_fast_unpriced(program, args, plan.config)
            : runtime::run_priced(program, args, plan.config, device);
    const exec::Buffer* output = args.find_buffer(plan.output_buffer);
    PARAPROX_CHECK(output, "LaunchPlan output buffer `" +
                               plan.output_buffer + "` was not bound");
    runtime::attach_output(run, *output);
    return run;
}

std::vector<runtime::VariantRun>
run_many(const vm::Program& program, const std::vector<TableBinding>& tables,
         const LaunchPlan& plan, const std::vector<std::uint64_t>& seeds)
{
    PARAPROX_CHECK(plan.bind_inputs != nullptr,
                   "LaunchPlan needs a bind_inputs callback");
    // The per-request fixed costs a batch amortizes: the lookup tables
    // are copied into Buffers once (bind_tables per request is the
    // dominant bind cost for memoized kernels), and one concatenated
    // launch replaces seeds.size() pool dispatches.  Only the per-seed
    // inputs are bound per member, on a copy of the shared base pack.
    exec::ArgPack base;
    std::vector<std::unique_ptr<exec::Buffer>> storage;
    bind_tables(tables, base, storage);

    std::vector<exec::ArgPack> packs;
    packs.reserve(seeds.size());
    std::vector<const exec::ArgPack*> members;
    members.reserve(seeds.size());
    for (const std::uint64_t seed : seeds) {
        packs.push_back(base);
        plan.bind_inputs(seed, packs.back(), storage);
        members.push_back(&packs.back());
    }

    std::vector<runtime::VariantRun> runs =
        runtime::run_batch_unpriced(program, members, plan.config);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const exec::Buffer* output = packs[i].find_buffer(plan.output_buffer);
        PARAPROX_CHECK(output, "LaunchPlan output buffer `" +
                                   plan.output_buffer + "` was not bound");
        runtime::attach_output(runs[i], *output);
    }
    return runs;
}

namespace {

/// Shared immutable state captured by every variant closure.
struct VariantContext {
    device::DeviceModel device;
    LaunchPlan plan;
};

}  // namespace

std::vector<runtime::Variant>
make_variants(const ir::Module& module, const std::string& kernel,
              const std::vector<GeneratedKernel>& generated,
              const LaunchPlan& plan, const device::DeviceModel& device)
{
    PARAPROX_CHECK(plan.bind_inputs != nullptr,
                   "LaunchPlan needs a bind_inputs callback");
    auto context = std::make_shared<VariantContext>();
    context->device = device;
    context->plan = plan;

    // All programs come from the process-wide cache, so rebuilding the
    // variant list (or a KernelSession over the same module) compiles
    // nothing twice.
    // Every variant carries two closures over the same program and
    // bindings: `run` prices the launch under the device model (what
    // calibration needs) and `run_fast` serves in vm::ExecMode::Fast.
    auto make_variant = [&context](std::string label, int aggressiveness,
                                   std::shared_ptr<const vm::Program> program,
                                   std::shared_ptr<std::vector<TableBinding>>
                                       tables) {
        runtime::Variant variant;
        variant.label = std::move(label);
        variant.aggressiveness = aggressiveness;
        variant.run = [program, tables, context](std::uint64_t seed) {
            return run_one(*program, *tables, context->plan,
                           context->device, seed,
                           vm::ExecMode::Instrumented);
        };
        variant.run_fast = [program, tables, context](std::uint64_t seed) {
            return run_one(*program, *tables, context->plan,
                           context->device, seed, vm::ExecMode::Fast);
        };
        variant.run_batch =
            [program, tables, context](
                const std::vector<std::uint64_t>& seeds) {
                return run_many(*program, *tables, context->plan, seeds);
            };
        return variant;
    };

    auto& cache = vm::ProgramCache::global();
    std::vector<runtime::Variant> variants;
    variants.push_back(
        make_variant("exact", 0, cache.get_or_compile(module, kernel),
                     std::make_shared<std::vector<TableBinding>>()));

    for (const auto& kernel_variant : generated) {
        variants.push_back(make_variant(
            kernel_variant.label, kernel_variant.aggressiveness,
            cache.get_or_compile(kernel_variant.module,
                                 kernel_variant.kernel_name),
            std::make_shared<std::vector<TableBinding>>(
                kernel_variant.tables)));
    }
    return variants;
}

std::vector<runtime::Variant>
make_variants(const ir::Module& module, const std::string& kernel,
              const CompileOptions& options, const LaunchPlan& plan)
{
    auto compiled = compile_kernel(module, kernel, options);
    return make_variants(module, kernel, compiled.generated, plan,
                         options.device);
}

}  // namespace paraprox::core
