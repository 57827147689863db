/// @file
/// VariantFamily: any tuner variant list, with one way to persist and
/// warm-start it.
///
/// In Paraprox every approximation is just a variant the runtime
/// profiles and selects under the TOQ; the tuner does not care how the
/// list was generated.  A family is that list seen from the store: a
/// cold build() that searches and writes the plan it found, and a warm
/// rebuild() that reproduces the list from those plan bytes without
/// searching.  A kernel's generated variants have an empty plan
/// (KernelSession::family), a pipeline's plan is its joint configs
/// (PipelineSession::family), a data tier's plan is its precision plans
/// (data_tier_family).  warm_tuner() owns the only warm-or-cold
/// sequence:
///
///     load -> rebuild -> restore_calibration     (warm)
///     else build -> calibrate -> save            (cold)

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/tuner.h"
#include "store/artifact_store.h"
#include "store/format.h"

namespace paraprox::runtime {

struct VariantFamily {
    /// Where the calibration persists.  Without a key (or without a
    /// global ArtifactStore) every start is cold and nothing is saved.
    std::optional<store::StoreKey> key;
    Metric metric{};
    double toq = 0.0;
    /// Cold: search, return the variant list (variants[0] exact), and
    /// write into @p plan whatever rebuild() needs to reproduce it.
    std::function<std::vector<Variant>(store::ByteWriter& plan)> build;
    /// Warm: reproduce the list from stored plan bytes, validating every
    /// field; nullopt rejects the record.  Must not search or profile.
    std::function<std::optional<std::vector<Variant>>(
        store::ByteReader& plan)>
        rebuild;
};

struct WarmTuner {
    std::unique_ptr<Tuner> tuner;
    bool warm = false;  ///< True when restored from the store.
};

/// A tuner over @p family: restored from the stored calibration under
/// family.key when one exists, rebuilds, consumes its plan exactly and
/// passes Tuner::restore_calibration (quality is re-validated on the
/// first audit); otherwise built, calibrated on @p training_seeds, and
/// saved for the next process.  A corrupt, stale or hostile record is a
/// cold start, never an installed tuner.
WarmTuner warm_tuner(const VariantFamily& family,
                     const std::vector<std::uint64_t>& training_seeds,
                     int check_interval = 50);

/// A family over a fixed variant list: the plan is empty, so a warm
/// start only restores the calibration.
VariantFamily fixed_family(std::vector<Variant> variants, Metric metric,
                           double toq_percent,
                           std::optional<store::StoreKey> key = {});

}  // namespace paraprox::runtime
