/// @file
/// PrecisionPlan: one per-buffer storage-precision assignment — the unit
/// the data tier enumerates (transforms/precision_tx), calibrates
/// (runtime/data_tier), persists (as the plan of the data tier's
/// calibration record) and serves.  Buffers not named by a plan stay
/// exact, so the empty plan is the mandatory all-fp32 fallback.

#pragma once

#include <string>
#include <vector>

#include "data/codec.h"

namespace paraprox::data {

/// One buffer's storage codec within a plan.  Quantization parameters are
/// only meaningful for Codec::Int8 (identity defaults otherwise); they are
/// fitted during calibration and persisted so a warm start needs no
/// re-fitting run.
struct PrecisionAssignment {
    std::string buffer;  ///< Kernel parameter name.
    Codec codec = Codec::Exact;
    QuantParams quant;
};

/// A complete precision assignment for one kernel launch.
struct PrecisionPlan {
    std::string label;  ///< e.g. "data[all:bf16]" or "data[in:int8]".
    std::vector<PrecisionAssignment> assignments;

    bool
    all_exact() const
    {
        return assignments.empty();
    }

    /// Monotone aggressiveness for tuner backoff ordering: total codec
    /// rank across assignments (all-exact is 0).
    int
    aggressiveness() const
    {
        int rank = 0;
        for (const auto& a : assignments)
            rank += codec_rank(a.codec);
        return rank;
    }
};

/// Canonical label for a uniform plan ("data[all:bf16]") or a
/// single-buffer plan ("data[in:int8]").
inline std::string
plan_label(const std::string& scope, Codec codec)
{
    return "data[" + scope + ":" + to_string(codec) + "]";
}

}  // namespace paraprox::data
