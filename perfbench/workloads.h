/// @file
/// The benchmark's workloads and the traced run's layer probes.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/app.h"
#include "harness.h"
#include "runtime/tuner.h"

namespace perfbench {

/// What every workload reads and writes.
struct RunContext {
    const Options& options;
    Report& report;
    Tracer& tracer;
    Digests& digests;
};

/// Each returns 0, or non-zero after an exact-output mismatch or an
/// unresolved request (also recorded as report.correct = false).
int run_serve_small(RunContext& context);
int run_offline_apps(RunContext& context);
int run_fleet_mixed(RunContext& context);

/// Replica process entry (argv after the `--replica` flag).
int run_replica(int argc, char** argv);

/// The Table 1 application named @p name at @p scale.
std::unique_ptr<paraprox::apps::Application>
make_app(const std::string& name, double scale);

/// @p name with spaces replaced, for digest keys and labels.
std::string slug(const std::string& name);

/// Time @p body, record it as a span named @p name, return seconds.
template <typename Body>
double
timed(Tracer& tracer, const std::string& name, Body&& body,
      std::int64_t parent = -1, std::uint64_t request = 0)
{
    const auto start = Clock::now();
    body();
    const auto end = Clock::now();
    tracer.record(name, start, end, parent, request);
    return seconds_between(start, end);
}

/// One kernel family the traced run probes layer by layer.
struct ProbeTarget {
    const paraprox::apps::Application* app = nullptr;
    /// Label of the variant the workload selected ("exact" if none).
    std::string selected;
};

/// Traced run only: time calls into the parser, core, memo, vm, device,
/// exec and runtime layers on the workload's own kernels, and report the
/// per-layer metrics.  Probe inputs derive from the run's seed.
void probe_layers(RunContext& context,
                  const std::vector<ProbeTarget>& targets);

/// Report every per-layer metric of a layer that is not on this
/// workload's request path as 0, with a note saying so.
void report_absent(Report& report, const std::vector<std::string>& names,
                   const std::vector<std::string>& units,
                   const std::string& why);

/// The member of @p variants labelled @p label, where "exact" names the
/// exact kernel (the front); nullptr when no member is.
const paraprox::runtime::Variant*
find_variant(const std::vector<paraprox::runtime::Variant>& variants,
             const std::string& label);

/// Run the exact kernel @p exact on the verification seeds: its
/// Instrumented outputs must match the checked-in digests under
/// `<key_prefix>/<seed>`, and its Fast outputs must match those bit for
/// bit.  Prints each mismatch; false on any.
bool check_exact(RunContext& context, const std::string& key_prefix,
                 const paraprox::runtime::Variant& exact);

/// Off-clock bit-for-bit check of served outputs: each is compared with
/// a local Fast run, on the same seed, of the variant that served it.
struct ReplyCheck {
    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;
    void check(const std::vector<paraprox::runtime::Variant>& variants,
               const std::string& served_by, std::uint64_t seed,
               const std::vector<float>& output);
    /// Note the tally; false (and report.correct = false) when an output
    /// differed or none was checked.
    bool report(Report& report) const;
};

/// Off-clock quality score of one approximate output against the exact
/// output of the same seed; counts a miss when below the TOQ.
struct QualityTally {
    std::uint64_t checked = 0;
    std::uint64_t misses = 0;
    void score(paraprox::runtime::Metric metric,
               const std::vector<float>& exact,
               const std::vector<float>& approx);
};

/// Set the end-to-end quality metrics (toq_met_frac and the per-layer
/// bench.toq_miss_frac) from @p tally.
void report_quality(Report& report, const QualityTally& tally);

/// Set ok_frac and bench.error_rate from the report's accounting.
void report_errors(Report& report);

}  // namespace perfbench
