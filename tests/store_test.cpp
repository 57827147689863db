// Tests for the on-disk artifact store: byte-exact round trips for every
// artifact kind, corruption (truncation, bit flips, version bumps,
// key-echo mismatches) degrading to a plain miss without crashing, the
// warm-start path selecting the same variant a cold calibration does
// while skipping compilation, table search, and the profiling sweep, and
// one corruption matrix run against every variant-family kind (plain
// kernel, pipeline, data tier).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "device/memory_model.h"
#include "memo/table.h"
#include "parser/parser.h"
#include "apps/pipelines.h"
#include "runtime/data_tier.h"
#include "runtime/family.h"
#include "runtime/pipeline.h"
#include "runtime/session.h"
#include "serve/service.h"
#include "store/artifact_store.h"
#include "store/format.h"
#include "support/rng.h"
#include "vm/program_cache.h"

namespace paraprox::store {
namespace {

// Each TEST runs as its own ctest process (gtest_discover_tests), but
// tests can still run concurrently — give every test its own directory.
std::filesystem::path
fresh_dir(const std::string& name)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("paraprox-store-test-" + name);
    std::filesystem::remove_all(dir);
    return dir;
}

StoreKey
test_key(const std::string& detail)
{
    StoreKey key;
    key.module_fingerprint = 0x0123456789abcdefull;
    key.kernel = "apply";
    key.device = "GTX560";
    key.toq = 90.0;
    key.detail = detail;
    return key;
}

vm::Program
sample_program()
{
    vm::Program program;
    program.kernel_name = "apply";
    program.num_regs = 8;
    program.has_barrier = true;
    program.code = {
        {vm::Opcode::Gid, 0, 0, 0, 0, vm::make_int(0)},
        {vm::Opcode::Ld, 1, 0, 0, 0, vm::make_int(0)},
        {vm::Opcode::AddF, 2, 1, 1, 0, vm::make_float(0.0f)},
        {vm::Opcode::LdImm, 3, 0, 0, 0, vm::make_float(1.5f)},
        {vm::Opcode::St, 0, 2, 0, 0, vm::make_int(1)},
        {vm::Opcode::Halt, 0, 0, 0, 0, vm::make_int(0)},
    };
    program.fast_code = {
        {vm::Opcode::Gid, 0, 0, 0, 0, vm::make_int(0)},
        {vm::Opcode::LdAddF, 2, 0, 1, 1, vm::make_int(0)},
        {vm::Opcode::Halt, 0, 0, 0, 0, vm::make_int(0)},
    };
    program.buffers = {{"in", ir::Scalar::F32, ir::AddrSpace::Global},
                       {"out", ir::Scalar::F32, ir::AddrSpace::Global},
                       {"lut", ir::Scalar::F32, ir::AddrSpace::Constant}};
    program.scalars = {{"n", ir::Scalar::I32, 3},
                       {"scale", ir::Scalar::F32, 4}};
    return program;
}

void
expect_instr_eq(const vm::Instr& a, const vm::Instr& b)
{
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
    EXPECT_EQ(a.c, b.c);
    EXPECT_EQ(a.d, b.d);
    EXPECT_EQ(a.imm.i, b.imm.i);  // Bit compare via the int view.
}

void
expect_program_eq(const vm::Program& a, const vm::Program& b)
{
    EXPECT_EQ(a.kernel_name, b.kernel_name);
    EXPECT_EQ(a.num_regs, b.num_regs);
    EXPECT_EQ(a.has_barrier, b.has_barrier);
    ASSERT_EQ(a.code.size(), b.code.size());
    for (std::size_t i = 0; i < a.code.size(); ++i)
        expect_instr_eq(a.code[i], b.code[i]);
    ASSERT_EQ(a.fast_code.size(), b.fast_code.size());
    for (std::size_t i = 0; i < a.fast_code.size(); ++i)
        expect_instr_eq(a.fast_code[i], b.fast_code[i]);
    ASSERT_EQ(a.buffers.size(), b.buffers.size());
    for (std::size_t i = 0; i < a.buffers.size(); ++i) {
        EXPECT_EQ(a.buffers[i].name, b.buffers[i].name);
        EXPECT_EQ(a.buffers[i].elem, b.buffers[i].elem);
        EXPECT_EQ(a.buffers[i].space, b.buffers[i].space);
    }
    ASSERT_EQ(a.scalars.size(), b.scalars.size());
    for (std::size_t i = 0; i < a.scalars.size(); ++i) {
        EXPECT_EQ(a.scalars[i].name, b.scalars[i].name);
        EXPECT_EQ(a.scalars[i].scalar, b.scalars[i].scalar);
        EXPECT_EQ(a.scalars[i].reg, b.scalars[i].reg);
    }
}

memo::LookupTable
sample_table()
{
    memo::LookupTable table;
    memo::InputQuant x;
    x.name = "x";
    x.lo = -4.0f;
    x.hi = 4.0f;
    x.bits = 3;
    memo::InputQuant r;
    r.name = "r";
    r.is_constant = true;
    r.constant_value = 0.25f;
    table.config.inputs = {x, r};
    table.tuned_quality = 97.5;
    table.values.resize(static_cast<std::size_t>(table.config.table_size()));
    for (std::size_t i = 0; i < table.values.size(); ++i)
        table.values[i] = static_cast<float>(i) * 0.5f - 1.0f;
    return table;
}

CalibrationArtifact
sample_calibration()
{
    CalibrationArtifact artifact;
    artifact.calibration.profiles = {
        {"exact", 1.0, 1.0, 100.0, true, false},
        {"memo8", 3.5, 2.1, 96.25, true, false},
        {"memo4", 7.25, 4.0, 81.0, false, false},
        {"memo2", 0.0, 0.0, 0.0, false, true},
    };
    artifact.calibration.fallback_order = {1, 0};
    artifact.calibration.selected = 1;
    artifact.toq = 90.0;
    artifact.metric = "Mean relative error";
    return artifact;
}

std::vector<data::PrecisionPlan>
sample_precision_plans()
{
    // Index-aligned with sample_calibration()'s profiles, all-exact first
    // (the decoder rejects anything else).
    data::PrecisionPlan exact;
    exact.label = "exact";
    data::PrecisionPlan uniform;
    uniform.label = "data[all:bf16]";
    uniform.assignments.push_back({"in", data::Codec::Bf16, {}});
    uniform.assignments.push_back({"out", data::Codec::Bf16, {}});
    data::PrecisionPlan quantized;
    quantized.label = "data[in:int8]";
    quantized.assignments.push_back(
        {"in", data::Codec::Int8, {0.25f, -3.0f}});
    data::PrecisionPlan narrow;
    narrow.label = "data[out:fp24]";
    narrow.assignments.push_back({"out", data::Codec::Fp24, {}});
    return {exact, uniform, quantized, narrow};
}

void
rewrite_file(const std::filesystem::path& path,
             const std::vector<std::uint8_t>& bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
}

// ---- Round trips ------------------------------------------------------------

TEST(StoreTest, ProgramRoundTrip)
{
    const ArtifactStore store(fresh_dir("program-roundtrip"));
    const StoreKey key = program_key(42, "apply");
    const vm::Program original = sample_program();
    ASSERT_TRUE(store.save_program(key, original));

    const auto loaded = store.load_program(key);
    ASSERT_TRUE(loaded.has_value());
    expect_program_eq(original, *loaded);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().misses, 0u);
}

TEST(StoreTest, TableRoundTrip)
{
    const ArtifactStore store(fresh_dir("table-roundtrip"));
    const StoreKey key = test_key("memo:f#0");
    const memo::LookupTable original = sample_table();
    ASSERT_TRUE(store.save_table(key, original));

    const auto loaded = store.load_table(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->values, original.values);
    EXPECT_DOUBLE_EQ(loaded->tuned_quality, original.tuned_quality);
    ASSERT_EQ(loaded->config.inputs.size(), original.config.inputs.size());
    for (std::size_t i = 0; i < original.config.inputs.size(); ++i) {
        const auto& want = original.config.inputs[i];
        const auto& got = loaded->config.inputs[i];
        EXPECT_EQ(got.name, want.name);
        EXPECT_EQ(got.lo, want.lo);
        EXPECT_EQ(got.hi, want.hi);
        EXPECT_EQ(got.bits, want.bits);
        EXPECT_EQ(got.is_constant, want.is_constant);
        EXPECT_EQ(got.constant_value, want.constant_value);
    }
    EXPECT_EQ(loaded->config.address_bits(),
              original.config.address_bits());
}

TEST(StoreTest, CalibrationRoundTrip)
{
    const ArtifactStore store(fresh_dir("calibration-roundtrip"));
    StoreKey key = test_key("calibration");
    key.metric = "Mean relative error";
    CalibrationArtifact original = sample_calibration();
    // The plan is opaque to the store: arbitrary bytes, zeros included.
    original.plan = {0x00, 0x01, 0xfe, 0x00, 0x7f};
    ASSERT_TRUE(store.save_calibration(key, original));

    const auto loaded = store.load_calibration(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->plan, original.plan);
    EXPECT_DOUBLE_EQ(loaded->toq, original.toq);
    EXPECT_EQ(loaded->metric, original.metric);
    const auto& want_state = original.calibration;
    const auto& got_state = loaded->calibration;
    EXPECT_EQ(got_state.fallback_order, want_state.fallback_order);
    EXPECT_EQ(got_state.selected, want_state.selected);
    ASSERT_EQ(got_state.profiles.size(), want_state.profiles.size());
    for (std::size_t i = 0; i < want_state.profiles.size(); ++i) {
        const auto& want = want_state.profiles[i];
        const auto& got = got_state.profiles[i];
        EXPECT_EQ(got.label, want.label);
        EXPECT_DOUBLE_EQ(got.speedup, want.speedup);
        EXPECT_DOUBLE_EQ(got.wall_speedup, want.wall_speedup);
        EXPECT_DOUBLE_EQ(got.quality, want.quality);
        EXPECT_EQ(got.meets_toq, want.meets_toq);
        EXPECT_EQ(got.trapped, want.trapped);
    }

    // The unkeyed decode (the inspect tool's path) sees the same record
    // and reports the embedded key.
    const auto file =
        read_file_bytes(store.path_for(key, ArtifactKind::Calibration));
    ASSERT_TRUE(file.has_value());
    const auto payload = decode_record(*file, ArtifactKind::Calibration);
    ASSERT_TRUE(payload.has_value());
    std::string embedded;
    const auto inspected = inspect_calibration(*payload, &embedded);
    ASSERT_TRUE(inspected.has_value());
    EXPECT_EQ(embedded, key.canonical());
    EXPECT_EQ(inspected->plan, original.plan);
}

TEST(StoreTest, PrecisionCalibrationRoundTrip)
{
    // A data tier's precision plans ride the calibration record as its
    // plan bytes and come back byte-exact, quant parameters included.
    const ArtifactStore store(fresh_dir("precision-roundtrip"));
    StoreKey key = test_key("data-tier");
    key.metric = "Mean relative error";
    const std::vector<data::PrecisionPlan> original = sample_precision_plans();
    ByteWriter w;
    runtime::encode_precision_plans(w, original);
    CalibrationArtifact artifact = sample_calibration();
    artifact.plan = w.bytes();
    ASSERT_TRUE(store.save_calibration(key, artifact));

    const auto loaded = store.load_calibration(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->calibration.selected, artifact.calibration.selected);
    ByteReader r(loaded->plan.data(), loaded->plan.size());
    const auto plans = runtime::decode_precision_plans(r);
    ASSERT_TRUE(plans.has_value());
    EXPECT_TRUE(r.at_end());
    ASSERT_EQ(plans->size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        const auto& want = original[i];
        const auto& got = (*plans)[i];
        EXPECT_EQ(got.label, want.label);
        ASSERT_EQ(got.assignments.size(), want.assignments.size());
        for (std::size_t a = 0; a < want.assignments.size(); ++a) {
            EXPECT_EQ(got.assignments[a].buffer, want.assignments[a].buffer);
            EXPECT_EQ(got.assignments[a].codec, want.assignments[a].codec);
            EXPECT_FLOAT_EQ(got.assignments[a].quant.scale,
                            want.assignments[a].quant.scale);
            EXPECT_FLOAT_EQ(got.assignments[a].quant.zero,
                            want.assignments[a].quant.zero);
        }
    }
    EXPECT_TRUE(plans->front().all_exact());
}

// ---- Corruption degrades to a miss ------------------------------------------

TEST(StoreTest, MissingFileIsMiss)
{
    const ArtifactStore store(fresh_dir("missing"));
    EXPECT_FALSE(store.load_table(test_key("memo:f#0")).has_value());
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().corrupt_rejects, 0u);
}

TEST(StoreTest, TruncatedFileIsMiss)
{
    const ArtifactStore store(fresh_dir("truncated"));
    const StoreKey key = test_key("memo:f#0");
    ASSERT_TRUE(store.save_table(key, sample_table()));
    const auto path = store.path_for(key, ArtifactKind::Table);
    const auto full_size = std::filesystem::file_size(path);

    // Every truncation point — mid-header, mid-payload, one byte short —
    // must read as a miss, never a crash or a partial decode.
    for (const std::uintmax_t keep :
         {std::uintmax_t{0}, std::uintmax_t{5}, std::uintmax_t{31},
          full_size / 2, full_size - 1}) {
        std::filesystem::resize_file(path, keep);
        EXPECT_FALSE(store.load_table(key).has_value())
            << "truncated to " << keep << " bytes";
    }
    EXPECT_GT(store.stats().corrupt_rejects, 0u);
}

TEST(StoreTest, BitFlippedFileIsMiss)
{
    const ArtifactStore store(fresh_dir("bitflip"));
    const StoreKey key = test_key("memo:f#0");
    ASSERT_TRUE(store.save_table(key, sample_table()));
    const auto path = store.path_for(key, ArtifactKind::Table);
    const auto pristine = read_file_bytes(path);
    ASSERT_TRUE(pristine.has_value());

    // Flip one bit at a spread of offsets (magic, kind, size, checksum,
    // payload): each corrupted copy must be rejected.
    for (const std::size_t offset :
         {std::size_t{0}, std::size_t{9}, std::size_t{17}, std::size_t{25},
          pristine->size() / 2, pristine->size() - 1}) {
        auto corrupted = *pristine;
        corrupted[offset] ^= 0x40;
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            .write(reinterpret_cast<const char*>(corrupted.data()),
                   static_cast<std::streamsize>(corrupted.size()));
        EXPECT_FALSE(store.load_table(key).has_value())
            << "bit flip at offset " << offset;
    }
}

TEST(StoreTest, VersionBumpIsMiss)
{
    const ArtifactStore store(fresh_dir("version-bump"));
    const StoreKey key = test_key("memo:f#0");
    ASSERT_TRUE(store.save_table(key, sample_table()));
    const auto path = store.path_for(key, ArtifactKind::Table);
    auto bytes = read_file_bytes(path);
    ASSERT_TRUE(bytes.has_value());

    // The format version is the second little-endian u32 of the header.
    (*bytes)[4] = static_cast<std::uint8_t>(kFormatVersion + 1);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(bytes->data()),
               static_cast<std::streamsize>(bytes->size()));
    EXPECT_FALSE(store.load_table(key).has_value());
    EXPECT_EQ(store.stats().corrupt_rejects, 1u);
}

TEST(StoreTest, KindConfusionIsMiss)
{
    // A valid *calibration* record copied over a table's path must not
    // decode as a table.
    const ArtifactStore store(fresh_dir("kind-confusion"));
    StoreKey calib_key = test_key("calibration");
    calib_key.metric = "L1";
    ASSERT_TRUE(store.save_calibration(calib_key, sample_calibration()));

    const StoreKey table_key = test_key("memo:f#0");
    std::filesystem::copy_file(
        store.path_for(calib_key, ArtifactKind::Calibration),
        store.path_for(table_key, ArtifactKind::Table));
    EXPECT_FALSE(store.load_table(table_key).has_value());
}

TEST(StoreTest, KeyEchoMismatchIsMiss)
{
    // A record filed under the wrong name (filename-hash collision or a
    // hand-renamed file) carries the wrong canonical key in its payload
    // and must read as a miss under the other key.
    const ArtifactStore store(fresh_dir("key-echo"));
    const StoreKey key_a = test_key("memo:f#0");
    StoreKey key_b = test_key("memo:g#0");
    ASSERT_TRUE(store.save_table(key_a, sample_table()));

    std::filesystem::copy_file(store.path_for(key_a, ArtifactKind::Table),
                               store.path_for(key_b, ArtifactKind::Table));
    EXPECT_FALSE(store.load_table(key_b).has_value());
    EXPECT_EQ(store.stats().corrupt_rejects, 1u);
    // The original stays readable.
    EXPECT_TRUE(store.load_table(key_a).has_value());
}

TEST(StoreTest, GarbageFilesNeverCrash)
{
    const ArtifactStore store(fresh_dir("garbage"));
    const StoreKey key = test_key("memo:f#0");
    const auto path = store.path_for(key, ArtifactKind::Table);

    Rng rng(7);
    for (const std::size_t size :
         {std::size_t{1}, std::size_t{8}, std::size_t{32}, std::size_t{33},
          std::size_t{200}, std::size_t{4096}}) {
        std::vector<char> junk(size);
        for (char& byte : junk)
            byte = static_cast<char>(rng.uniform_int(0, 255));
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            .write(junk.data(), static_cast<std::streamsize>(junk.size()));
        EXPECT_FALSE(store.load_table(key).has_value())
            << size << " bytes of garbage";
        EXPECT_FALSE(store.load_program(key).has_value());
    }
}

TEST(StoreTest, ListAndPruneSeparateValidFromInvalid)
{
    const auto dir = fresh_dir("list-prune");
    const ArtifactStore store(dir);
    ASSERT_TRUE(store.save_table(test_key("memo:f#0"), sample_table()));
    std::ofstream(dir / "junk.ppx") << "not a record";
    std::ofstream(dir / "stray.ppx.tmp123") << "dead writer";

    const auto entries = store.list();
    ASSERT_EQ(entries.size(), 2u);  // .tmp files are not records.
    std::size_t valid = 0;
    for (const auto& entry : entries)
        valid += entry.valid ? 1 : 0;
    EXPECT_EQ(valid, 1u);

    // Prune removes the invalid record and the stray temp file only.
    EXPECT_EQ(store.prune(), 2u);
    ASSERT_EQ(store.list().size(), 1u);
    EXPECT_TRUE(store.list()[0].valid);
    EXPECT_TRUE(store.load_table(test_key("memo:f#0")).has_value());

    EXPECT_EQ(store.prune(/*everything=*/true), 1u);
    EXPECT_TRUE(store.list().empty());
}

// ---- Warm start end-to-end --------------------------------------------------

const char* kSource = R"(
float curve(float x) {
    float s = 1.0f / (1.0f + expf(-x));
    return s * sqrtf(1.0f + x * x) + logf(1.0f + expf(x));
}

__kernel void apply(__global float* in, __global float* out) {
    int i = get_global_id(0);
    out[i] = curve(in[i]);
}
)";

constexpr int kN = 256;

core::CompileOptions
session_options()
{
    core::CompileOptions options;
    options.toq = 90.0;
    options.device = device::DeviceModel::gtx560();
    options.training = core::uniform_training(-4.0f, 4.0f);
    return options;
}

core::LaunchPlan
session_plan()
{
    core::LaunchPlan plan;
    plan.config = exec::LaunchConfig::linear(kN, 64);
    plan.output_buffer = "out";
    plan.bind_inputs =
        [](std::uint64_t seed, exec::ArgPack& args,
           std::vector<std::unique_ptr<exec::Buffer>>& storage) {
            Rng rng(seed);
            storage.push_back(
                std::make_unique<exec::Buffer>(exec::Buffer::from_floats(
                    rng.uniform_vector(kN, -4.0f, 4.0f))));
            args.buffer("in", *storage.back());
            storage.push_back(std::make_unique<exec::Buffer>(
                exec::Buffer::zeros_f32(kN)));
            args.buffer("out", *storage.back());
        };
    return plan;
}

TEST(StoreWarmStartTest, WarmSessionSkipsSearchAndMatchesColdSelection)
{
    const auto store =
        ArtifactStore::configure_global(fresh_dir("warm-start"));
    vm::ProgramCache::global().clear();
    const std::vector<std::uint64_t> seeds = {1, 2, 3};

    // Cold: compiles, runs the table-size search, calibrates — and
    // persists all three artifact kinds.
    auto module = parser::parse_module(kSource);
    const std::uint64_t searches_before = memo::table_search_invocations();
    runtime::KernelSession cold(module, "apply", session_options());
    const auto cold_tuner = runtime::warm_tuner(
        cold.family(session_plan(), runtime::Metric::MeanRelativeError),
        seeds);
    EXPECT_FALSE(cold_tuner.warm);
    EXPECT_GT(memo::table_search_invocations(), searches_before);
    EXPECT_GT(store->stats().writes, 0u);

    // Simulate a fresh process: drop the in-memory bytecode tier.  The
    // warm session must not search table sizes or calibrate, and must
    // serve the identical selection.
    vm::ProgramCache::global().clear();
    const auto cache_before = vm::ProgramCache::global().stats();
    const std::uint64_t searches_cold = memo::table_search_invocations();
    runtime::KernelSession warm(module, "apply", session_options());
    const auto warm_tuner = runtime::warm_tuner(
        warm.family(session_plan(), runtime::Metric::MeanRelativeError),
        seeds);
    EXPECT_TRUE(warm_tuner.warm);
    EXPECT_EQ(memo::table_search_invocations(), searches_cold);
    EXPECT_EQ(warm_tuner.tuner->selected_label(),
              cold_tuner.tuner->selected_label());

    // Bytecode came from the disk tier, not recompilation.
    const auto cache_after = vm::ProgramCache::global().stats();
    EXPECT_GT(cache_after.disk_hits, cache_before.disk_hits);
    EXPECT_EQ(cache_after.misses, cache_before.misses);

    // Identical members and outputs either way.
    ASSERT_EQ(warm.members().size(), cold.members().size());
    const auto plan = session_plan();
    for (std::size_t m = 0; m < warm.members().size(); ++m) {
        EXPECT_EQ(warm.members()[m].label, cold.members()[m].label);
        const auto a = cold.run_member(cold.members()[m], plan, 99);
        const auto b = warm.run_member(warm.members()[m], plan, 99);
        EXPECT_EQ(a.output, b.output);
    }

    // The restored tuner audits its first approximate invocation.
    warm_tuner.tuner->invoke(7);
    EXPECT_EQ(warm_tuner.tuner->stats_snapshot().quality_checks,
              warm_tuner.tuner->selected_index() != 0 ? 1u : 0u);

    ArtifactStore::disable_global();
    vm::ProgramCache::global().clear();
}

TEST(StoreWarmStartTest, StaleCalibrationIsRejectedNotInstalled)
{
    const auto store =
        ArtifactStore::configure_global(fresh_dir("stale-calibration"));
    vm::ProgramCache::global().clear();

    auto module = parser::parse_module(kSource);
    runtime::KernelSession session(module, "apply", session_options());
    const auto key =
        session.calibration_key(runtime::Metric::MeanRelativeError);

    // A calibration whose labels don't match the live variant list (a
    // different build wrote it) must be ignored and recalibrated over.
    CalibrationArtifact stale;
    stale.calibration.profiles = {
        {"exact", 1.0, 1.0, 100.0, true, false},
        {"renamed-variant", 2.0, 2.0, 95.0, true, false}};
    stale.calibration.fallback_order = {1, 0};
    stale.calibration.selected = 1;
    ASSERT_TRUE(store->save_calibration(key, stale));

    const auto tuner = runtime::warm_tuner(
        session.family(session_plan(), runtime::Metric::MeanRelativeError),
        {1, 2});
    EXPECT_FALSE(tuner.warm);  // Fell back to a live calibration.
    EXPECT_GE(tuner.tuner->profiles().size(), 2u);

    ArtifactStore::disable_global();
    vm::ProgramCache::global().clear();
}

TEST(StoreWarmStartTest, RestoreRejectsArityAndHostileCalibrations)
{
    // Tuner::restore_calibration is the last line of defense between a
    // stored record and the serving path; every structurally plausible
    // but wrong shape must be rejected without touching the tuner.
    const auto variant = [](const std::string& label, int aggr, float bias,
                            double cycles) {
        return runtime::Variant{label, aggr,
                                [bias, cycles](std::uint64_t seed) {
                                    runtime::VariantRun run;
                                    run.output = {
                                        static_cast<float>(seed % 100) +
                                            1.0f + bias,
                                        10.0f + bias};
                                    run.modeled_cycles = cycles;
                                    return run;
                                }};
    };
    std::vector<runtime::Variant> variants;
    variants.push_back(variant("exact", 0, 0.0f, 1000.0));
    variants.push_back(variant("good", 1, 0.1f, 100.0));
    runtime::Tuner tuner(std::move(variants),
                         runtime::Metric::MeanRelativeError, 90.0);
    tuner.calibrate({1, 2, 3});
    const auto good = tuner.calibration_state();
    const std::string cold_selected = tuner.selected_label();

    // Arity drift: a build added or removed a variant since the record
    // was written.
    auto drifted = good;
    drifted.profiles.pop_back();
    EXPECT_FALSE(tuner.restore_calibration(drifted));
    drifted = good;
    drifted.profiles.push_back(drifted.profiles.back());
    EXPECT_FALSE(tuner.restore_calibration(drifted));

    // Label drift: same arity, different inventory.
    drifted = good;
    drifted.profiles[1].label = "renamed";
    EXPECT_FALSE(tuner.restore_calibration(drifted));

    // Hostile fallback chains: empty, not ending at the exact kernel,
    // duplicated entries, out-of-range index.
    drifted = good;
    drifted.fallback_order.clear();
    EXPECT_FALSE(tuner.restore_calibration(drifted));
    drifted = good;
    drifted.fallback_order = {1};
    EXPECT_FALSE(tuner.restore_calibration(drifted));
    drifted = good;
    drifted.fallback_order = {0, 0};
    EXPECT_FALSE(tuner.restore_calibration(drifted));
    drifted = good;
    drifted.fallback_order = {7, 0};
    EXPECT_FALSE(tuner.restore_calibration(drifted));

    // A chain member that trapped or missed the TOQ cannot serve.
    ASSERT_NE(good.fallback_order.front(), 0);
    drifted = good;
    drifted.profiles[drifted.fallback_order.front()].trapped = true;
    EXPECT_FALSE(tuner.restore_calibration(drifted));
    drifted = good;
    drifted.profiles[drifted.fallback_order.front()].meets_toq = false;
    EXPECT_FALSE(tuner.restore_calibration(drifted));

    // A record claiming the exact kernel trapped or missed its own TOQ
    // is hostile by definition (it would drop index 0 from the ladder).
    drifted = good;
    drifted.profiles[0].trapped = true;
    EXPECT_FALSE(tuner.restore_calibration(drifted));
    drifted = good;
    drifted.profiles[0].meets_toq = false;
    EXPECT_FALSE(tuner.restore_calibration(drifted));

    // The selection must be the chain head.
    drifted = good;
    drifted.selected = 0;
    EXPECT_FALSE(tuner.restore_calibration(drifted));

    // None of the rejects touched the live selection, and the genuine
    // record still installs.
    EXPECT_EQ(tuner.selected_label(), cold_selected);
    EXPECT_TRUE(tuner.restore_calibration(good));
    EXPECT_EQ(tuner.selected_label(), cold_selected);
}

// ---- One corruption matrix for every variant-family kind -------------------

enum class FamilyKind { Plain, Pipeline, DataTier };

const char*
kind_label(FamilyKind kind)
{
    switch (kind) {
        case FamilyKind::Plain:
            return "plain";
        case FamilyKind::Pipeline:
            return "pipeline";
        case FamilyKind::DataTier:
            return "data_tier";
    }
    return "?";
}

// Stable test names: the parameter prints as its label.
void
PrintTo(FamilyKind kind, std::ostream* os)
{
    *os << kind_label(kind);
}

const std::vector<std::uint64_t> kFamilySeeds = {1, 2, 3};

/// Planted into every hostile record's profiles: a tuner carrying it was
/// installed from the record instead of calibrated cold.
constexpr double kPlanted = 4242.0;

/// @p genuine re-pointed at the exact kernel with kPlanted speedups: if
/// a record built from it is ever installed, the caller can tell.
CalibrationArtifact
planted(const CalibrationArtifact& genuine)
{
    CalibrationArtifact record = genuine;
    for (auto& profile : record.calibration.profiles)
        profile.speedup = kPlanted;
    record.calibration.selected = 0;
    record.calibration.fallback_order = {0};
    return record;
}

/// A live family of each kind, small enough to recalibrate cold once per
/// corruption case: the memo kernel's generated variants (empty plan),
/// the image pipeline at test scale (joint plan), and the memo kernel's
/// precision tier (precision plans).
struct FamilyFixture {
    explicit FamilyFixture(FamilyKind kind_)
        : kind(kind_), module(parser::parse_module(kSource))
    {
        if (kind == FamilyKind::Pipeline) {
            apps::ImagePipelineOptions options;
            options.scale = 0.25;
            pipeline = std::make_unique<runtime::PipelineSession>(
                apps::make_image_pipeline(options).pipeline);
        } else {
            session = std::make_unique<runtime::KernelSession>(
                module, "apply", session_options());
        }
    }

    runtime::Metric
    metric() const
    {
        return kind == FamilyKind::Pipeline
                   ? runtime::Metric::L1Norm
                   : runtime::Metric::MeanRelativeError;
    }

    runtime::VariantFamily
    family()
    {
        switch (kind) {
            case FamilyKind::Plain:
                return session->family(session_plan(), metric(), 90.0);
            case FamilyKind::Pipeline:
                return pipeline->family(metric(), 90.0);
            case FamilyKind::DataTier:
                return runtime::data_tier_family(*session, session_plan(),
                                                 metric(), 90.0);
        }
        return {};
    }

    StoreKey key() { return *family().key; }

    /// Register this kind through its ApproxService entry point.
    void
    register_in(serve::ApproxService& service, const std::string& name)
    {
        switch (kind) {
            case FamilyKind::Plain:
                service.register_kernel(
                    name, session->variants(session_plan()), metric(), 90.0,
                    kFamilySeeds, key());
                return;
            case FamilyKind::Pipeline:
                service.register_pipeline(name, *pipeline, metric(), 90.0,
                                          kFamilySeeds);
                return;
            case FamilyKind::DataTier:
                service.register_data_kernel(name, *session, session_plan(),
                                             metric(), 90.0, kFamilySeeds);
                return;
        }
    }

    std::uint64_t
    warm_count(const serve::MetricsSnapshot& metrics) const
    {
        switch (kind) {
            case FamilyKind::Plain:
                return metrics.warm_registrations;
            case FamilyKind::Pipeline:
                return metrics.warm_pipelines;
            case FamilyKind::DataTier:
                return metrics.warm_data_tiers;
        }
        return 0;
    }

    /// Well-framed records built from the @p genuine cold record whose
    /// plan (or profile count) each break exactly one rebuild rule; all
    /// are planted().
    std::vector<std::pair<std::string, CalibrationArtifact>>
    hostile_records(const CalibrationArtifact& genuine) const
    {
        const CalibrationArtifact base = planted(genuine);

        std::vector<std::pair<std::string, CalibrationArtifact>> out;
        const auto with_plan = [&](const std::string& what,
                                   const ByteWriter& w) {
            CalibrationArtifact record = base;
            record.plan = w.bytes();
            out.emplace_back(what, std::move(record));
        };
        // Every kind: one profile fewer than the plan's variants.
        CalibrationArtifact short_profiles = base;
        short_profiles.calibration.profiles.pop_back();
        out.emplace_back("plan/profile count mismatch",
                         std::move(short_profiles));

        ByteReader r(genuine.plan.data(), genuine.plan.size());
        switch (kind) {
            case FamilyKind::Plain: {
                CalibrationArtifact stray = base;
                stray.plan = {0x00};
                out.emplace_back("plain plan not empty", std::move(stray));
                break;
            }
            case FamilyKind::Pipeline: {
                const auto plan = runtime::decode_joint_plan(r);
                EXPECT_TRUE(plan.has_value());
                if (!plan)
                    break;
                EXPECT_GE(plan->configs.size(), 2u);
                if (plan->configs.size() < 2)
                    break;
                ByteWriter w;
                auto edited = *plan;
                std::swap(edited.configs[0], edited.configs[1]);
                runtime::encode_joint_plan(w, edited);
                with_plan("configs[0] not all-exact", w);
                // A config with one label fewer than there are stages.  The
                // writer keeps whatever arity it is handed.
                w = {};
                edited = *plan;
                edited.configs[1].pop_back();
                runtime::encode_joint_plan(w, edited);
                with_plan("config/stage arity mismatch", w);
                w = {};
                edited = *plan;
                edited.configs.pop_back();
                runtime::encode_joint_plan(w, edited);
                with_plan("config count != profile count", w);
                w = {};
                edited = *plan;
                edited.stage_names[0] = "renamed-stage";
                runtime::encode_joint_plan(w, edited);
                with_plan("stage names from another pipeline", w);
                w = {};
                edited = *plan;
                edited.configs[1][0] = "no-such-member";
                runtime::encode_joint_plan(w, edited);
                with_plan("label names no member", w);
                break;
            }
            case FamilyKind::DataTier: {
                const auto plans = runtime::decode_precision_plans(r);
                EXPECT_TRUE(plans.has_value());
                if (!plans)
                    break;
                EXPECT_GE(plans->size(), 2u);
                if (plans->size() < 2 || (*plans)[1].assignments.empty())
                    break;
                const auto edit =
                    [&](const std::string& what,
                        const std::function<void(
                            std::vector<data::PrecisionPlan>&)>& change) {
                        auto edited = *plans;
                        change(edited);
                        ByteWriter w;
                        runtime::encode_precision_plans(w, edited);
                        with_plan(what, w);
                    };
                edit("plans[0] not all-exact",
                     [](auto& p) { std::swap(p[0], p[1]); });
                edit("int8 scale 0", [](auto& p) {
                    p[1].assignments[0].codec = data::Codec::Int8;
                    p[1].assignments[0].quant = {0.0f, 0.0f};
                });
                edit("int8 scale not finite", [](auto& p) {
                    p[1].assignments[0].codec = data::Codec::Int8;
                    p[1].assignments[0].quant = {
                        std::numeric_limits<float>::infinity(), 0.0f};
                });
                edit("int8 zero point not finite", [](auto& p) {
                    p[1].assignments[0].codec = data::Codec::Int8;
                    p[1].assignments[0].quant = {
                        1.0f, std::numeric_limits<float>::quiet_NaN()};
                });
                edit("codec byte out of range", [](auto& p) {
                    p[1].assignments[0].codec =
                        static_cast<data::Codec>(data::kNumCodecs);
                });
                edit("plan count != profile count",
                     [](auto& p) { p.pop_back(); });
                edit("plan packs a buffer the live safety analysis pins",
                     [](auto& p) { p[1].assignments[0].buffer = "ghost"; });
                break;
            }
        }
        return out;
    }

    FamilyKind kind;
    ir::Module module;
    std::unique_ptr<runtime::KernelSession> session;
    std::unique_ptr<runtime::PipelineSession> pipeline;
};

TEST(StoreWarmStartTest, HostileCalibrationNeverServesFromALiveService)
{
    // The serving-path version of the two rejection tests above: a stale
    // record (labels from another build) and a corrupted record (bytes
    // flipped on disk) restored into a *live* ApproxService must both
    // fall back to cold calibration — and every request served from that
    // service must come from the cold selection, never from whatever the
    // hostile record pointed at.
    const auto store =
        ArtifactStore::configure_global(fresh_dir("hostile-live-serve"));

    StoreKey key;
    key.kernel = "k";
    key.device = "synthetic";
    key.toq = 90.0;
    key.metric = "Mean relative error";
    key.detail = "calibration";

    const auto build = [] {
        const auto variant = [](const std::string& label, int aggr,
                                float bias, double cycles) {
            return runtime::Variant{
                label, aggr, [bias, cycles](std::uint64_t seed) {
                    runtime::VariantRun run;
                    run.output = {static_cast<float>(seed % 100) + 1.0f +
                                      bias,
                                  10.0f + bias};
                    run.modeled_cycles = cycles;
                    return run;
                }};
        };
        std::vector<runtime::Variant> variants;
        variants.push_back(variant("exact", 0, 0.0f, 1000.0));
        variants.push_back(variant("good", 1, 0.1f, 100.0));
        return variants;
    };
    const auto serve_and_check = [](serve::ApproxService& service) {
        for (std::uint64_t seed = 0; seed < 8; ++seed) {
            serve::Ticket ticket = service.submit("k", seed);
            ASSERT_TRUE(ticket.accepted);
            const serve::Response response = ticket.response.get();
            EXPECT_EQ(response.served_by, "good");
            EXPECT_EQ(response.run.output.size(), 2u);
        }
    };

    // Stale: a record naming a variant this build does not have.
    CalibrationArtifact stale;
    stale.calibration.profiles = {
        {"exact", 1.0, 1.0, 100.0, true, false},
        {"renamed-variant", 9.0, 9.0, 99.0, true, false}};
    stale.calibration.fallback_order = {1, 0};
    stale.calibration.selected = 1;
    ASSERT_TRUE(store->save_calibration(key, stale));
    {
        serve::ApproxService service{[] {
            serve::ServiceConfig config;
            config.num_workers = 1;
            config.queue_capacity = 16;
            return config;
        }()};
        service.register_kernel("k", build(),
                                runtime::Metric::MeanRelativeError, 90.0,
                                {1, 2, 3}, key);
        EXPECT_EQ(service.metrics().snapshot().warm_registrations, 0u);
        EXPECT_EQ(service.kernel_snapshot("k").selected, "good");
        serve_and_check(service);
        service.stop();
    }
    // Registration overwrote the stale record with the cold result; the
    // key now round-trips to the live labels.
    {
        const auto reloaded = store->load_calibration(key);
        ASSERT_TRUE(reloaded.has_value());
        EXPECT_EQ(reloaded->calibration.profiles[1].label, "good");
    }

    // Corrupted: flip one payload byte of the (now valid) record.  The
    // checksum rejects it, the warm start reads as a miss, and the
    // service calibrates cold again.
    const auto path = store->path_for(key, ArtifactKind::Calibration);
    auto bytes = read_file_bytes(path);
    ASSERT_TRUE(bytes.has_value());
    (*bytes)[bytes->size() / 2] ^= 0x40;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(bytes->data()),
               static_cast<std::streamsize>(bytes->size()));
    const std::uint64_t rejects_before = store->stats().corrupt_rejects;
    {
        serve::ApproxService service{[] {
            serve::ServiceConfig config;
            config.num_workers = 1;
            config.queue_capacity = 16;
            return config;
        }()};
        service.register_kernel("k", build(),
                                runtime::Metric::MeanRelativeError, 90.0,
                                {1, 2, 3}, key);
        EXPECT_GT(store->stats().corrupt_rejects, rejects_before);
        EXPECT_EQ(service.metrics().snapshot().warm_registrations, 0u);
        EXPECT_EQ(service.kernel_snapshot("k").selected, "good");
        serve_and_check(service);
        service.stop();
    }

    // The same guarantee for the pipeline and data-tier entry points,
    // which restore a plan as well as a calibration: a stale record, each
    // hostile plan, and a corrupted record all calibrate cold, and every
    // request serves the cold selection — never the exact kernel the
    // hostile records select.
    for (const FamilyKind kind :
         {FamilyKind::Pipeline, FamilyKind::DataTier}) {
        SCOPED_TRACE(kind_label(kind));
        FamilyFixture fx(kind);
        const StoreKey family_key = fx.key();
        const auto make_service = [] {
            serve::ServiceConfig config;
            config.num_workers = 1;
            config.queue_capacity = 16;
            return std::make_unique<serve::ApproxService>(config);
        };
        std::string cold_selection;
        {
            auto service = make_service();
            fx.register_in(*service, "f");
            EXPECT_EQ(fx.warm_count(service->metrics().snapshot()), 0u);
            cold_selection = service->kernel_snapshot("f").selected;
            service->stop();
        }
        ASSERT_NE(cold_selection, "exact");
        const auto genuine = store->load_calibration(family_key);
        ASSERT_TRUE(genuine.has_value());

        const auto register_and_check = [&](const std::string& what) {
            SCOPED_TRACE(what);
            auto service = make_service();
            fx.register_in(*service, "f");
            EXPECT_EQ(fx.warm_count(service->metrics().snapshot()), 0u);
            EXPECT_EQ(service->kernel_snapshot("f").selected,
                      cold_selection);
            for (std::uint64_t seed = 0; seed < 8; ++seed) {
                serve::Ticket ticket = service->submit("f", seed);
                ASSERT_TRUE(ticket.accepted);
                const serve::Response response = ticket.response.get();
                EXPECT_EQ(response.served_by, cold_selection);
                EXPECT_FALSE(response.run.output.empty());
            }
            service->stop();
        };

        // Stale: the genuine plan, but a profile label from another build.
        CalibrationArtifact stale_record = planted(*genuine);
        stale_record.calibration.profiles.back().label = "renamed-variant";
        ASSERT_TRUE(store->save_calibration(family_key, stale_record));
        register_and_check("stale labels");
        for (const auto& [what, record] : fx.hostile_records(*genuine)) {
            ASSERT_TRUE(store->save_calibration(family_key, record));
            register_and_check(what);
        }
        const auto family_path =
            store->path_for(family_key, ArtifactKind::Calibration);
        auto flipped = read_file_bytes(family_path);
        ASSERT_TRUE(flipped.has_value());
        (*flipped)[flipped->size() / 2] ^= 0x40;
        rewrite_file(family_path, *flipped);
        const std::uint64_t family_rejects = store->stats().corrupt_rejects;
        register_and_check("corrupted bytes");
        EXPECT_GT(store->stats().corrupt_rejects, family_rejects);

        // The record the last cold registration saved restores.
        auto service = make_service();
        fx.register_in(*service, "f");
        EXPECT_EQ(fx.warm_count(service->metrics().snapshot()), 1u);
        EXPECT_EQ(service->kernel_snapshot("f").selected, cold_selection);
        service->stop();
    }

    ArtifactStore::disable_global();
}

/// Run the family's warm start against whatever record is on disk and
/// check it went cold: never warm, a tuner calibrated from scratch (no
/// planted profile), and a fresh record saved for the next process.
/// @p loads says whether the record decodes (the family's rebuild or the
/// tuner's restore must reject it) or is a store miss.
void
expect_cold_recalibration(FamilyFixture& fx, bool loads,
                          const std::string& what)
{
    SCOPED_TRACE(what);
    const auto store = ArtifactStore::global();
    const StoreStats before = store->stats();
    const runtime::WarmTuner result =
        runtime::warm_tuner(fx.family(), kFamilySeeds);
    const StoreStats after = store->stats();

    EXPECT_FALSE(result.warm);
    ASSERT_NE(result.tuner, nullptr);
    ASSERT_FALSE(result.tuner->profiles().empty());
    for (const auto& profile : result.tuner->profiles())
        EXPECT_NE(profile.speedup, kPlanted) << profile.label;
    if (loads) {
        EXPECT_GT(after.hits, before.hits);
    } else {
        EXPECT_EQ(after.hits, before.hits);
        EXPECT_GT(after.misses + after.corrupt_rejects,
                  before.misses + before.corrupt_rejects);
    }
    EXPECT_GT(after.writes, before.writes);
    EXPECT_TRUE(store->load_calibration(fx.key()).has_value());
}

class FamilyCorruptionTest : public ::testing::TestWithParam<FamilyKind> {};

TEST_P(FamilyCorruptionTest, EveryCorruptRecordEndsInAColdRecalibration)
{
    const auto store = ArtifactStore::configure_global(
        fresh_dir(std::string("family-corrupt-") + kind_label(GetParam())));
    vm::ProgramCache::global().clear();
    FamilyFixture fx(GetParam());

    // Cold, then warm: the fixture's genuine record does restore, so every
    // cold outcome below is a rejection, not a fixture that never warms.
    ASSERT_FALSE(runtime::warm_tuner(fx.family(), kFamilySeeds).warm);
    ASSERT_TRUE(runtime::warm_tuner(fx.family(), kFamilySeeds).warm);

    const StoreKey key = fx.key();
    const auto path = store->path_for(key, ArtifactKind::Calibration);
    const auto pristine = read_file_bytes(path);
    ASSERT_TRUE(pristine.has_value());
    const auto genuine = store->load_calibration(key);
    ASSERT_TRUE(genuine.has_value());

    // Record strata: 32-byte header, then the key string (u64 length +
    // bytes), the plan bytes (u64 length + bytes), the calibration state,
    // TOQ and metric.
    const std::size_t key_at = 32;
    const std::size_t plan_at = key_at + 8 + key.canonical().size();
    const std::size_t state_at = plan_at + 8 + genuine->plan.size();
    const std::size_t size = pristine->size();
    ASSERT_LT(state_at, size);

    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{7}, std::size_t{31}, key_at,
          key_at + 4, plan_at - 3, plan_at + 4, plan_at + 8,
          (plan_at + 8 + state_at) / 2, state_at, state_at + 12, size / 2,
          size - 9, size - 1}) {
        auto truncated = *pristine;
        truncated.resize(keep);
        rewrite_file(path, truncated);
        expect_cold_recalibration(fx, false,
                                  "truncated to " + std::to_string(keep));
    }
    for (const std::size_t offset :
         {std::size_t{0}, std::size_t{4}, std::size_t{9}, std::size_t{17},
          std::size_t{25}, key_at + 2, plan_at - 1, plan_at + 1,
          (plan_at + 8 + state_at) / 2, state_at + 3, size / 2,
          size - 1}) {
        auto corrupted = *pristine;
        corrupted[offset] ^= 0x20;
        rewrite_file(path, corrupted);
        expect_cold_recalibration(fx, false,
                                  "bit flip at " + std::to_string(offset));
    }
    Rng rng(23);
    for (const std::size_t junk_size :
         {std::size_t{1}, std::size_t{33}, std::size_t{512}}) {
        std::vector<std::uint8_t> junk(junk_size);
        for (auto& byte : junk)
            byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        rewrite_file(path, junk);
        expect_cold_recalibration(
            fx, false, std::to_string(junk_size) + " bytes of garbage");
    }
    // A record written by format version 1 (the version is the header's
    // second little-endian u32; the payload checksum still matches).
    {
        auto v1 = *pristine;
        v1[4] = 1;
        v1[5] = v1[6] = v1[7] = 0;
        rewrite_file(path, v1);
        const StoreStats before = store->stats();
        EXPECT_FALSE(store->load_calibration(key).has_value());
        EXPECT_EQ(store->stats().corrupt_rejects,
                  before.corrupt_rejects + 1);
        expect_cold_recalibration(fx, false, "format v1 record");
    }

    const auto hostile = fx.hostile_records(*genuine);
    EXPECT_GE(hostile.size(), 2u);
    for (const auto& [what, record] : hostile) {
        ASSERT_TRUE(store->save_calibration(key, record));
        expect_cold_recalibration(fx, true, what);
    }

    ArtifactStore::disable_global();
    vm::ProgramCache::global().clear();
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilyCorruptionTest,
    ::testing::Values(FamilyKind::Plain, FamilyKind::Pipeline,
                      FamilyKind::DataTier),
    [](const ::testing::TestParamInfo<FamilyKind>& info) {
        return std::string(kind_label(info.param));
    });

}  // namespace
}  // namespace paraprox::store
