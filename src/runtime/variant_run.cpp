#include "runtime/variant_run.h"

namespace paraprox::runtime {

namespace {

/// The launch facts every VariantRun carries.
VariantRun
from_launch(const exec::LaunchResult& launched)
{
    VariantRun run;
    run.wall_seconds = launched.wall_seconds;
    run.instructions = launched.stats.total_instructions;
    run.trapped = launched.trapped;
    run.cancelled = launched.cancelled;
    run.groups_completed = launched.groups_completed;
    run.groups_total = launched.groups_total;
    return run;
}

}  // namespace

VariantRun
run_priced(const vm::Program& program, const exec::ArgPack& args,
           const exec::LaunchConfig& config,
           const device::DeviceModel& device,
           std::vector<float> output_placeholder)
{
    device::ModeledResult modeled =
        device::run_modeled(program, args, config, device);
    VariantRun run = from_launch(modeled.launch);
    run.output = std::move(output_placeholder);
    run.modeled_cycles = modeled.cycles;
    run.modeled_bytes = modeled.cost.payload_bytes;
    return run;
}

VariantRun
run_fast_unpriced(const vm::Program& program, const exec::ArgPack& args,
                  exec::LaunchConfig config,
                  std::vector<float> output_placeholder)
{
    config.mode = vm::ExecMode::Fast;
    VariantRun run = from_launch(exec::launch(program, args, config));
    run.output = std::move(output_placeholder);
    return run;
}

std::vector<VariantRun>
run_batch_unpriced(const vm::Program& program,
                   const std::vector<const exec::ArgPack*>& batch,
                   exec::LaunchConfig config)
{
    config.mode = vm::ExecMode::Fast;
    std::vector<VariantRun> runs;
    for (const exec::LaunchResult& launched :
         exec::launch_batch(program, batch, config))
        runs.push_back(from_launch(launched));
    return runs;
}

void
attach_output(VariantRun& run, const exec::Buffer& out)
{
    if (out.elem_type() == ir::Scalar::F32) {
        run.output = out.to_floats();
        return;
    }
    // Integer outputs (e.g. histogram counts) are scored as numeric
    // values, not reinterpreted bit patterns.
    run.output.clear();
    run.output.reserve(out.size());
    for (std::int32_t v : out.to_ints())
        run.output.push_back(static_cast<float>(v));
}

}  // namespace paraprox::runtime
