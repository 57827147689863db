/// @file
/// The approximate data tier: precision-partitioned storage as a tuner
/// axis.
///
/// build_data_tier() turns a KernelSession's *exact* kernel into a
/// variant family along a new knob: per-buffer storage precision.  The
/// pipeline is
///
///   1. data::analyze_storage_safety pins every buffer whose bits feed
///      addresses, atomics, accumulators, or tables;
///   2. one instrumented exact run profiles per-buffer traffic (pruning
///      plans that pack cold buffers) and records post-run buffer values
///      (fitting int8 affine parameters);
///   3. transforms::enumerate_precision_plans emits the bounded plan set;
///   4. each plan becomes an ordinary runtime::Variant whose closure
///      repacks the plan's buffers into data::PackedBuffers after the
///      application's bind_inputs and launches the *same exact bytecode*
///      — the VM transcodes on Ld/St, and the device model prices the
///      shrunken traffic.
///
/// Because precision plans are plain Variants, the whole Tuner stack —
/// TOQ calibration, audits, backoff, quarantine breakers, degradation
/// ladder — applies to them unchanged, and data_tier_family() persists
/// the searched plans as the plan of an ordinary calibration record so a
/// restart re-serves without a single profiling or calibration run.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "data/precision_plan.h"
#include "runtime/family.h"
#include "runtime/session.h"
#include "runtime/tuner.h"
#include "transforms/precision_tx.h"

namespace paraprox::runtime {

struct DataTierOptions {
    transforms::PrecisionTxOptions tx;
    /// Seed of the instrumented exact run used for traffic profiling and
    /// int8 range fitting.
    std::uint64_t profile_seed = 1;
};

/// A precision variant family over one kernel + launch plan.
struct DataTier {
    /// variants[0] is the exact kernel; variants[i] applies plans[i].
    std::vector<Variant> variants;
    /// plans[0] is the all-exact plan (no assignments), index-aligned
    /// with `variants`.
    std::vector<data::PrecisionPlan> plans;
};

/// Enumerate, profile, and wrap precision plans for @p session's exact
/// kernel over @p plan.  Runs one instrumented exact launch (the traffic
/// profile / quant-fitting run).
DataTier build_data_tier(const KernelSession& session,
                         const core::LaunchPlan& plan,
                         const DataTierOptions& options = {});

/// Rebuild a DataTier's variant closures from previously searched plans
/// (a warm restart) — no profiling launch.  Plans that pack a buffer the
/// live safety analysis pins are rejected (returns an empty variant
/// list): stored data can never override the static safety proof.
DataTier rebuild_data_tier(const KernelSession& session,
                           const core::LaunchPlan& plan,
                           const std::vector<data::PrecisionPlan>& plans);

void encode_precision_plans(store::ByteWriter& w,
                            const std::vector<data::PrecisionPlan>& plans);

/// Decode encode_precision_plans's bytes, rejecting (nullopt) a codec
/// byte out of range, an int8 scale that is not finite and positive or
/// a non-finite zero point — corrupt quant params must never reach live
/// packing — and a list whose plans[0] is not the all-exact plan.
std::optional<std::vector<data::PrecisionPlan>>
decode_precision_plans(store::ByteReader& r);

/// @p session's precision tier over @p plan as a VariantFamily, persisted
/// under the session's calibration key with detail "data-tier".  build()
/// runs build_data_tier and writes its plans; rebuild() decodes stored
/// plans and re-runs the live safety analysis (rebuild_data_tier), so a
/// stale or tampered record that packs a pinned buffer is rejected.  The
/// session must outlive the family's use.
VariantFamily data_tier_family(const KernelSession& session,
                               const core::LaunchPlan& plan, Metric metric,
                               double toq_percent = -1.0,
                               const DataTierOptions& options = {});

}  // namespace paraprox::runtime
