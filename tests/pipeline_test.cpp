// Pipeline composition tests: buffer wiring, joint-search determinism and
// pruning invariants, config round-trips, the persisted joint plan
// (round-trip, warm start), and serve integration.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/pipelines.h"
#include "exec/launch.h"
#include "parser/parser.h"
#include "runtime/pipeline.h"
#include "runtime/tuner.h"
#include "serve/service.h"
#include "store/artifact_store.h"
#include "store/format.h"
#include "vm/program_cache.h"

namespace paraprox::runtime {
namespace {

// Tests can run concurrently (gtest_discover_tests registers one ctest
// entry per TEST) — give every store-using test its own directory.
std::filesystem::path
fresh_dir(const std::string& name)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("paraprox-pipeline-test-" + name);
    std::filesystem::remove_all(dir);
    return dir;
}

/// The shared image pipeline at test scale (34x34 grid).
PipelineSession
make_image_session()
{
    apps::ImagePipelineOptions options;
    options.scale = 0.25;
    return PipelineSession(apps::make_image_pipeline(options).pipeline);
}

constexpr std::uint64_t kSeedA = 1;
constexpr std::uint64_t kSeedB = 2;

// -------------------------------------------------------------------------
// Wiring: a two-stage chain with exactly predictable math.

constexpr const char* kShiftSource = R"(
__kernel void shift(__global float* in, __global float* out) {
    int i = get_global_id(0);
    out[i] = in[i] + 1.0f;
}
)";

constexpr const char* kDoubleSource = R"(
__kernel void dbl(__global float* a, __global float* out) {
    int i = get_global_id(0);
    out[i] = a[i] * 2.0f;
}
)";

constexpr int kLinearN = 32;

Pipeline
make_linear_pipeline()
{
    core::CompileOptions options;
    options.toq = 90.0;
    options.training = [](const std::string&)
        -> std::optional<std::vector<std::vector<float>>> {
        return std::nullopt;
    };

    PipelineStage shift;
    shift.name = "shift";
    shift.module = std::make_shared<const ir::Module>(
        parser::parse_module(kShiftSource));
    shift.kernel = "shift";
    shift.options = options;
    shift.config = exec::LaunchConfig::linear(kLinearN, 8);
    shift.output_buffer = "out";
    shift.bind_inputs = [](std::uint64_t seed, exec::ArgPack& args,
                           std::vector<std::unique_ptr<exec::Buffer>>&
                               holder) {
        std::vector<float> input(kLinearN);
        for (int i = 0; i < kLinearN; ++i)
            input[static_cast<std::size_t>(i)] =
                static_cast<float>(i) + static_cast<float>(seed);
        holder.push_back(std::make_unique<exec::Buffer>(
            exec::Buffer::from_floats(input)));
        args.buffer("in", *holder.back());
        holder.push_back(std::make_unique<exec::Buffer>(
            exec::Buffer::from_floats(std::vector<float>(kLinearN, 0.0f))));
        args.buffer("out", *holder.back());
    };

    PipelineStage dbl;
    dbl.name = "double";
    dbl.module = std::make_shared<const ir::Module>(
        parser::parse_module(kDoubleSource));
    dbl.kernel = "dbl";
    dbl.options = options;
    dbl.config = exec::LaunchConfig::linear(kLinearN, 8);
    dbl.input_param = "a";
    dbl.output_buffer = "out";
    dbl.bind_inputs = [](std::uint64_t, exec::ArgPack& args,
                         std::vector<std::unique_ptr<exec::Buffer>>&
                             holder) {
        holder.push_back(std::make_unique<exec::Buffer>(
            exec::Buffer::from_floats(std::vector<float>(kLinearN, 0.0f))));
        args.buffer("out", *holder.back());
    };

    Pipeline pipeline;
    pipeline.name = "linear_chain";
    pipeline.stages = {std::move(shift), std::move(dbl)};
    return pipeline;
}

TEST(PipelineWiringTest, StageOutputFeedsNextInputParam)
{
    PipelineSession session(make_linear_pipeline());
    ASSERT_EQ(session.num_stages(), 2u);

    const std::uint64_t seed = 3;
    std::vector<std::vector<float>> stage_outputs;
    const auto run = session.run_config({0, 0}, seed,
                                        vm::ExecMode::Instrumented,
                                        &stage_outputs);
    ASSERT_FALSE(run.trapped);
    ASSERT_EQ(stage_outputs.size(), 2u);
    ASSERT_EQ(stage_outputs[0].size(), static_cast<std::size_t>(kLinearN));
    ASSERT_EQ(run.output.size(), static_cast<std::size_t>(kLinearN));

    for (int i = 0; i < kLinearN; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        const float shifted =
            static_cast<float>(i) + static_cast<float>(seed) + 1.0f;
        EXPECT_EQ(stage_outputs[0][idx], shifted) << "index " << i;
        EXPECT_EQ(stage_outputs[1][idx], shifted * 2.0f) << "index " << i;
    }
    // The pipeline output IS the final stage's output buffer.
    EXPECT_EQ(run.output, stage_outputs[1]);
    // Stage costs accumulate across the chain.
    EXPECT_GT(run.modeled_cycles, 0.0);
}

TEST(PipelineWiringTest, FastModeMatchesInstrumented)
{
    PipelineSession session(make_linear_pipeline());
    const auto instrumented =
        session.run_config({0, 0}, 7, vm::ExecMode::Instrumented);
    const auto fast = session.run_config({0, 0}, 7, vm::ExecMode::Fast);
    ASSERT_FALSE(instrumented.trapped);
    ASSERT_FALSE(fast.trapped);
    EXPECT_EQ(instrumented.output, fast.output);
}

// -------------------------------------------------------------------------
// Joint search: determinism and pruning invariants.

TEST(JointSearchTest, SearchIsDeterministicAcrossSessions)
{
    PipelineSession a = make_image_session();
    PipelineSession b = make_image_session();
    const auto configs_a = a.search();
    const auto configs_b = b.search();

    ASSERT_EQ(configs_a.size(), configs_b.size());
    for (std::size_t i = 0; i < configs_a.size(); ++i) {
        EXPECT_EQ(configs_a[i].members, configs_b[i].members) << i;
        EXPECT_EQ(configs_a[i].labels, configs_b[i].labels) << i;
        EXPECT_DOUBLE_EQ(configs_a[i].predicted_cycles,
                         configs_b[i].predicted_cycles)
            << i;
        EXPECT_EQ(configs_a[i].aggressiveness, configs_b[i].aggressiveness)
            << i;
    }
    EXPECT_EQ(a.search_info().kept, b.search_info().kept);
    EXPECT_EQ(a.search_info().dominated, b.search_info().dominated);

    // Repeating the search on the same session is also stable.
    const auto again = a.search();
    ASSERT_EQ(again.size(), configs_a.size());
    for (std::size_t i = 0; i < again.size(); ++i)
        EXPECT_EQ(again[i].members, configs_a[i].members) << i;
}

TEST(JointSearchTest, ExactConfigFirstAndOrderedByPredictedCycles)
{
    PipelineSession session = make_image_session();
    const auto configs = session.search();
    ASSERT_FALSE(configs.empty());

    // configs[0] is the mandatory all-exact config.
    EXPECT_EQ(configs[0].aggressiveness, 0);
    for (std::size_t s = 0; s < session.num_stages(); ++s) {
        EXPECT_EQ(configs[0].members[s], 0) << "stage " << s;
        EXPECT_EQ(configs[0].labels[s], "exact") << "stage " << s;
    }
    // Survivors after it are fastest-predicted-first.
    for (std::size_t i = 2; i < configs.size(); ++i)
        EXPECT_LE(configs[i - 1].predicted_cycles,
                  configs[i].predicted_cycles)
            << i;
}

TEST(JointSearchTest, SearchInfoAccountsForEveryCombination)
{
    PipelineSession session = make_image_session();
    JointSearchOptions options;
    options.max_configs = 8;
    const auto configs = session.search(options);
    const auto& info = session.search_info();

    std::size_t product = 1;
    for (std::size_t s = 0; s < session.num_stages(); ++s)
        product *= session.stage_session(s).members().size();

    EXPECT_EQ(info.total_combinations, product);
    EXPECT_EQ(info.kept, configs.size());
    EXPECT_LE(info.kept, static_cast<std::size_t>(options.max_configs));
    EXPECT_EQ(info.kept + info.dominated + info.capped,
              info.total_combinations);
    EXPECT_GT(info.probe_runs, 0u);
}

TEST(JointSearchTest, ConfigsForRoundTripsSearchResults)
{
    PipelineSession session = make_image_session();
    const auto configs = session.search();

    std::vector<std::vector<std::string>> labels;
    for (const auto& config : configs)
        labels.push_back(config.labels);

    const auto rebuilt = session.configs_for(labels);
    ASSERT_TRUE(rebuilt.has_value());
    ASSERT_EQ(rebuilt->size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ((*rebuilt)[i].members, configs[i].members) << i;
        EXPECT_EQ((*rebuilt)[i].labels, configs[i].labels) << i;
    }

    // variants_from is index-aligned and labelled with the joint label.
    const auto variants = session.variants_from(*rebuilt);
    ASSERT_EQ(variants.size(), configs.size());
    const auto names = session.stage_names();
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(variants[i].label, configs[i].label(names)) << i;
        EXPECT_EQ(variants[i].aggressiveness, configs[i].aggressiveness)
            << i;
    }

    // A label that no longer names a member invalidates the whole plan.
    labels[0][0] = "stencil row rd=99";
    EXPECT_FALSE(session.configs_for(labels).has_value());
}

// -------------------------------------------------------------------------
// Joint calibration: parallel/serial parity and repeatability.

TEST(JointCalibrationTest, ParallelMatchesSerialAndRepeats)
{
    const std::vector<std::uint64_t> seeds = {kSeedA, kSeedB};

    PipelineSession parallel_session = make_image_session();
    Tuner parallel_tuner(parallel_session.joint_variants(), Metric::L1Norm,
                         90.0, 10);
    parallel_tuner.calibrate(seeds, /*parallel=*/true);

    PipelineSession serial_session = make_image_session();
    Tuner serial_tuner(serial_session.joint_variants(), Metric::L1Norm,
                       90.0, 10);
    serial_tuner.calibrate(seeds, /*parallel=*/false);

    EXPECT_EQ(parallel_tuner.selected_label(),
              serial_tuner.selected_label());
    const auto& parallel_profiles = parallel_tuner.profiles();
    const auto& serial_profiles = serial_tuner.profiles();
    ASSERT_EQ(parallel_profiles.size(), serial_profiles.size());
    for (std::size_t i = 0; i < parallel_profiles.size(); ++i) {
        EXPECT_EQ(parallel_profiles[i].label, serial_profiles[i].label);
        EXPECT_DOUBLE_EQ(parallel_profiles[i].speedup,
                         serial_profiles[i].speedup);
        EXPECT_DOUBLE_EQ(parallel_profiles[i].quality,
                         serial_profiles[i].quality);
        EXPECT_EQ(parallel_profiles[i].meets_toq,
                  serial_profiles[i].meets_toq);
        EXPECT_EQ(parallel_profiles[i].trapped, serial_profiles[i].trapped);
    }

    // Same pipeline, same seeds, a third time: identical selection.
    PipelineSession repeat_session = make_image_session();
    Tuner repeat_tuner(repeat_session.joint_variants(), Metric::L1Norm,
                       90.0, 10);
    repeat_tuner.calibrate(seeds, /*parallel=*/true);
    EXPECT_EQ(repeat_tuner.selected_label(),
              parallel_tuner.selected_label());
}

// -------------------------------------------------------------------------
// Persisted joint calibrations: round-trip, warm start.

TEST(PipelineStoreTest, CalibrationRoundTripAndCorruptionMiss)
{
    // The joint plan rides the calibration record as its plan bytes.
    // Corruption of those records (bit flips, truncation, hostile plans)
    // is covered for every family kind by store_test's
    // FamilyCorruptionTest.
    const auto dir = fresh_dir("roundtrip");
    store::ArtifactStore::configure_global(dir);
    vm::ProgramCache::global().clear();

    PipelineSession cold = make_image_session();
    auto warm = runtime::warm_tuner(cold.family(Metric::L1Norm, 90.0),
                                    {kSeedA, kSeedB}, 10);
    ASSERT_TRUE(warm.tuner != nullptr);
    EXPECT_FALSE(warm.warm);

    const auto key = cold.calibration_key(Metric::L1Norm, 90.0);
    const auto store = store::ArtifactStore::global();
    ASSERT_TRUE(store != nullptr);
    const auto loaded = store->load_calibration(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_DOUBLE_EQ(loaded->toq, 90.0);
    EXPECT_EQ(loaded->metric, to_string(Metric::L1Norm));
    store::ByteReader reader(loaded->plan.data(), loaded->plan.size());
    const auto plan = decode_joint_plan(reader);
    ASSERT_TRUE(plan.has_value());
    EXPECT_TRUE(reader.at_end());
    EXPECT_EQ(plan->stage_names, cold.stage_names());
    ASSERT_EQ(plan->configs.size(), cold.configs().size());
    ASSERT_EQ(plan->configs.size(), loaded->calibration.profiles.size());
    for (std::size_t i = 0; i < plan->configs.size(); ++i)
        EXPECT_EQ(plan->configs[i], cold.configs()[i].labels) << i;
    // configs[0] is the all-exact config even through the store.
    for (const auto& label : plan->configs[0])
        EXPECT_EQ(label, "exact");

    // A config without one label per stage does not decode.
    JointPlan ragged = *plan;
    ragged.configs.back().pop_back();
    store::ByteWriter writer;
    encode_joint_plan(writer, ragged);
    store::ByteReader ragged_reader(writer.bytes().data(),
                                    writer.bytes().size());
    EXPECT_FALSE(decode_joint_plan(ragged_reader).has_value());

    store::ArtifactStore::disable_global();
    vm::ProgramCache::global().clear();
}

TEST(PipelineStoreTest, WarmStartSkipsJointSearch)
{
    store::ArtifactStore::configure_global(fresh_dir("warm-start"));
    vm::ProgramCache::global().clear();
    const std::vector<std::uint64_t> seeds = {kSeedA, kSeedB};

    PipelineSession cold = make_image_session();
    const auto probes_before_cold = joint_search_measurements();
    auto cold_result =
        runtime::warm_tuner(cold.family(Metric::L1Norm, 90.0), seeds, 10);
    EXPECT_FALSE(cold_result.warm);
    EXPECT_GT(joint_search_measurements(), probes_before_cold);
    const std::string cold_selection = cold_result.tuner->selected_label();

    // "Process restart": drop cached programs so the warm path really
    // rebuilds everything except the joint search.
    vm::ProgramCache::global().clear();

    PipelineSession warm = make_image_session();
    const auto probes_before_warm = joint_search_measurements();
    auto warm_result =
        runtime::warm_tuner(warm.family(Metric::L1Norm, 90.0), seeds, 10);
    EXPECT_TRUE(warm_result.warm);
    EXPECT_EQ(joint_search_measurements(), probes_before_warm)
        << "warm start must run zero joint-search probes";
    EXPECT_EQ(warm_result.tuner->selected_label(), cold_selection);

    // configs() is aligned with the restored tuner's variants.
    ASSERT_FALSE(warm.configs().empty());
    EXPECT_EQ(warm.configs().size(), cold.configs().size());

    // The restored selection serves identical outputs.
    const auto from_cold = cold_result.tuner->run_selected(kSeedA);
    const auto from_warm = warm_result.tuner->run_selected(kSeedA);
    EXPECT_EQ(from_cold.output, from_warm.output);

    store::ArtifactStore::disable_global();
    vm::ProgramCache::global().clear();
}

// -------------------------------------------------------------------------
// Serve integration: registered pipelines ride the service machinery.

TEST(PipelineServeTest, RegisterPipelineServesAndAttributesStages)
{
    serve::ServiceConfig config;
    config.num_workers = 2;
    serve::ApproxService service(config);

    PipelineSession session = make_image_session();
    service.register_pipeline("edges", session, Metric::L1Norm, 90.0,
                              {kSeedA, kSeedB});

    std::vector<std::future<serve::Response>> responses;
    for (int i = 0; i < 8; ++i) {
        auto ticket = service.submit("edges", 100 + i);
        ASSERT_TRUE(ticket.accepted) << i;
        responses.push_back(std::move(ticket.response));
    }
    for (auto& response : responses) {
        const auto r = response.get();
        EXPECT_EQ(r.status, serve::ServeStatus::Ok);
        EXPECT_FALSE(r.run.output.empty());
    }
    service.drain();

    const auto kernel = service.kernel_snapshot("edges");
    EXPECT_FALSE(kernel.selected.empty());
    ASSERT_EQ(kernel.stages.size(), session.num_stages());
    const auto names = session.stage_names();
    for (std::size_t s = 0; s < kernel.stages.size(); ++s) {
        EXPECT_EQ(kernel.stages[s].stage, names[s]);
        EXPECT_EQ(kernel.stages[s].traps, 0u);
    }
    // No store configured: the registration cannot have been warm.
    EXPECT_EQ(service.snapshot().metrics.warm_pipelines, 0u);
    service.stop();
}

TEST(PipelineServeTest, SecondRegistrationIsWarm)
{
    store::ArtifactStore::configure_global(fresh_dir("serve-warm"));
    vm::ProgramCache::global().clear();

    const auto register_once = [](const std::string& name) {
        serve::ServiceConfig config;
        config.num_workers = 2;
        serve::ApproxService service(config);
        PipelineSession session = make_image_session();
        service.register_pipeline(name, session, Metric::L1Norm, 90.0,
                                  {kSeedA, kSeedB});
        auto ticket = service.submit(name, 500);
        EXPECT_TRUE(ticket.accepted);
        if (ticket.accepted)
            ticket.response.get();
        service.drain();
        const auto warm = service.snapshot().metrics.warm_pipelines;
        service.stop();
        return warm;
    };

    EXPECT_EQ(register_once("edges"), 0u);
    vm::ProgramCache::global().clear();
    const auto probes_before = joint_search_measurements();
    EXPECT_EQ(register_once("edges"), 1u);
    EXPECT_EQ(joint_search_measurements(), probes_before)
        << "warm registration must not probe the joint space";

    store::ArtifactStore::disable_global();
    vm::ProgramCache::global().clear();
}

}  // namespace
}  // namespace paraprox::runtime
