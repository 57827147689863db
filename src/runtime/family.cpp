#include "runtime/family.h"

#include <utility>

namespace paraprox::runtime {

WarmTuner
warm_tuner(const VariantFamily& family,
           const std::vector<std::uint64_t>& training_seeds,
           int check_interval)
{
    WarmTuner out;
    const auto store =
        family.key ? store::ArtifactStore::global() : nullptr;
    if (store) {
        if (const auto stored = store->load_calibration(*family.key)) {
            store::ByteReader plan(stored->plan.data(), stored->plan.size());
            auto variants = family.rebuild(plan);
            // The plan must be consumed exactly; restore_calibration
            // checks the profiles against the rebuilt variants.
            if (variants && plan.at_end()) {
                out.tuner = std::make_unique<Tuner>(
                    std::move(*variants), family.metric, family.toq,
                    check_interval);
                out.warm =
                    out.tuner->restore_calibration(stored->calibration);
            }
        }
    }
    if (!out.warm) {
        store::ByteWriter plan;
        out.tuner = std::make_unique<Tuner>(family.build(plan),
                                            family.metric, family.toq,
                                            check_interval);
        out.tuner->calibrate(training_seeds);
        if (store) {
            store::CalibrationArtifact artifact;
            artifact.plan = plan.bytes();
            artifact.calibration = out.tuner->calibration_state();
            artifact.toq = family.toq;
            artifact.metric = to_string(family.metric);
            store->save_calibration(*family.key, artifact);
        }
    }
    return out;
}

VariantFamily
fixed_family(std::vector<Variant> variants, Metric metric,
             double toq_percent, std::optional<store::StoreKey> key)
{
    auto list =
        std::make_shared<const std::vector<Variant>>(std::move(variants));
    VariantFamily family;
    family.key = std::move(key);
    family.metric = metric;
    family.toq = toq_percent;
    family.build = [list](store::ByteWriter&) { return *list; };
    family.rebuild = [list](store::ByteReader&)
        -> std::optional<std::vector<Variant>> { return *list; };
    return family;
}

}  // namespace paraprox::runtime
