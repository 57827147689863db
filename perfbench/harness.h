/// @file
/// Shared plumbing of the wall-clock benchmark: options, sample
/// statistics, the span recorder behind the traced run, the metric
/// report, and output-correctness digests.

#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
ms_between(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double
seconds_between(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/// Latency sample of a request that failed, was refused or expired: it
/// misses every latency limit.
constexpr double kMiss = std::numeric_limits<double>::infinity();

/// One invocation's settings.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    /// Directory (relative to the checkout root) for results, spans and
    /// the run's scratch store and sockets.
    std::string out_dir = "perfbench/out";
    /// Write the exact-output digests instead of checking them.
    bool write_digests = false;
};

/// Independent per-index seed derived from the workload seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// Nearest-rank percentile (@p p in [0, 100]) of @p values; +inf entries
/// sort last.  0 for an empty set.
double percentile(std::vector<double> values, double p);
double median(const std::vector<double>& values);
/// Geometric mean of positive values; 0 for an empty set.
double geomean(const std::vector<double>& values);

/// How many measured cycles of about @p cycle_seconds fit a run of
/// @p seconds (at least two).
int cycle_count(double seconds, double cycle_seconds);

/// The tail percentile a sample set supports: the highest percentile,
/// capped at 99, with at least ten samples beyond it.
double supported_tail(std::size_t samples);

/// "p99.0" for @p percent: how a reported tail percentile is labelled.
std::string tail_label(double percent);

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();

/// Share of the CPU time this machine's busy vCPUs asked for that the
/// hypervisor gave to other guests instead (the steal column of
/// /proc/stat over busy + steal time) since construction; 0 where the
/// kernel does not report it.  A CPU-bound thread runs 1 / (1 - this)
/// times slower, whatever the number of vCPUs in use, so wall-clock
/// figures on a shared host move with it and every run reports it.
class HostSteal {
  public:
    HostSteal() : start_(sample()) {}
    double fraction() const;

  private:
    struct Sample {
        std::uint64_t steal = 0;
        std::uint64_t wanted = 0;  ///< Busy + steal.
    };
    static Sample sample();
    const Sample start_;
};

/// FNV-1a over the float bit patterns: bit-identical outputs, and only
/// those, share a digest.
std::uint64_t digest(const std::vector<float>& values);

/// One span: a timed benchmark call into a layer.
struct Span {
    std::string name;
    double start_us = 0.0;  ///< Since the tracer's origin.
    double end_us = 0.0;
    std::int64_t parent = -1;  ///< Index of the parent span; -1 = root.
    std::uint64_t request = 0;
};

/// In-memory span recorder for the traced run.  Disabled tracers record
/// nothing and cost one branch per call.
class Tracer {
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /// Record a finished span; returns its id (-1 when disabled).
    std::int64_t record(const std::string& name, Clock::time_point start,
                        Clock::time_point end, std::int64_t parent = -1,
                        std::uint64_t request = 0);

    /// Self time of every span named @p name, in microseconds: duration
    /// minus the part of it that its child spans cover.
    std::vector<double> self_us(const std::string& name) const;
    std::vector<double> duration_us(const std::string& name) const;

    /// Write every span as one JSON object per line.
    bool write(const std::string& path) const;
    std::size_t size() const;

  private:
    const bool enabled_;
    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// Metrics of one run plus its request accounting.
class Report {
  public:
    /// @p samples is the number of measurements behind the value (0 when
    /// it is a count or a deterministic quantity).
    void set(const std::string& name, double value, const std::string& unit,
             std::size_t samples = 0, const std::string& note = "");
    void note(const std::string& line);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;

    /// Human-readable table on stdout.
    void print() const;
    /// The result object: every metric set, in insertion order.
    std::string json() const;

  private:
    struct Entry {
        std::string name;
        double value = 0.0;
        std::string unit;
        std::size_t samples = 0;
        std::string note;
    };
    std::vector<Entry> entries_;
    std::vector<std::string> notes_;
};

/// A measured cycle during which the hypervisor gave other guests more
/// than this share of the CPU time the benchmark asked for (HostSteal)
/// is left out of the run's medians: on a shared host such a cycle
/// measures the neighbours.
constexpr double kMaxCycleSteal = 0.08;

/// One measured cycle: its figures, the host steal during it, whether it
/// was traced, and whether the run's medians use it.
template <typename Stats>
struct Cycle {
    Stats stats;
    double steal = 0.0;
    bool traced = false;
    bool kept = true;
};

/// Which cycles a run's medians use, given each one's host steal: those
/// at or below kMaxCycleSteal, or, when fewer than a third of them (at
/// least two) are that quiet, the quietest third.  Reports
/// bench.steal_dropped_cycles and notes the steal of every cycle.
std::vector<bool> keep_quiet(const std::vector<double>& steal,
                             Report& report);

/// Measure a run of @p options.seconds as cycles of about
/// @p cycle_seconds: @p body(index, seconds, tracer) measures one cycle
/// and returns its figures.  The traced run alternates untraced and
/// traced cycles; the medians leave out cycles with high host steal.
template <typename Stats, typename Body>
std::vector<Cycle<Stats>>
run_cycles(const Options& options, Tracer& tracer, Report& report,
           double cycle_seconds, Body&& body)
{
    Tracer untraced(false);
    const int count = cycle_count(options.seconds, cycle_seconds);
    std::vector<Cycle<Stats>> cycles;
    std::vector<double> steal;
    for (int index = 0; index < count; ++index) {
        Cycle<Stats> cycle;
        cycle.traced = tracer.enabled() && index % 2 == 1;
        const HostSteal host;
        cycle.stats = body(index, options.seconds / double(count),
                           cycle.traced ? tracer : untraced);
        cycle.steal = host.fraction();
        steal.push_back(cycle.steal);
        cycles.push_back(std::move(cycle));
    }
    const auto keep = keep_quiet(steal, report);
    for (std::size_t i = 0; i < cycles.size(); ++i)
        cycles[i].kept = keep[i];
    return cycles;
}

/// Median of @p field over the kept cycles.
template <typename Stats, typename Field>
double
kept_median(const std::vector<Cycle<Stats>>& cycles, Field Stats::*field)
{
    std::vector<double> values;
    for (const auto& cycle : cycles) {
        if (cycle.kept)
            values.push_back(cycle.stats.*field);
    }
    return median(values);
}

/// Sum of @p field over the kept cycles (sample counts).
template <typename Stats>
std::size_t
kept_sum(const std::vector<Cycle<Stats>>& cycles, std::size_t Stats::*field)
{
    std::size_t sum = 0;
    for (const auto& cycle : cycles) {
        if (cycle.kept)
            sum += cycle.stats.*field;
    }
    return sum;
}

/// "median of K of N cycles": how a cycle median is labelled.
template <typename Stats>
std::string
cycles_label(const std::vector<Cycle<Stats>>& cycles)
{
    std::size_t kept = 0;
    for (const auto& cycle : cycles)
        kept += cycle.kept ? 1 : 0;
    return "median of " + std::to_string(kept) + " of " +
           std::to_string(cycles.size()) + " cycles";
}

/// Tracing overhead of a latency @p field: its median over the traced
/// cycles over its median over the untraced ones, minus 1.  Both sides
/// use the kept cycles where each has one.
template <typename Stats>
double
trace_overhead(const std::vector<Cycle<Stats>>& cycles, double Stats::*field)
{
    double medians[2] = {0.0, 0.0};
    for (const bool traced : {false, true}) {
        std::vector<double> kept;
        std::vector<double> all;
        for (const auto& cycle : cycles) {
            if (cycle.traced != traced)
                continue;
            all.push_back(cycle.stats.*field);
            if (cycle.kept)
                kept.push_back(cycle.stats.*field);
        }
        medians[traced] = median(kept.empty() ? all : kept);
    }
    return medians[1] / medians[0] - 1.0;
}

/// Checked-in exact-output digests (perfbench/digests.txt): one
/// `<key> <hex digest>` line per kernel and verification seed.
class Digests {
  public:
    /// Load @p path; a missing file leaves the table empty.
    explicit Digests(std::string path);

    /// Compare (or, in write mode, record) the digest of @p output under
    /// @p key.  Returns false on a mismatch or an unknown key.
    bool check(const std::string& key, const std::vector<float>& output,
               bool write_mode);
    /// Rewrite the file with every recorded digest.
    bool save() const;

    std::size_t checked() const { return checked_; }
    std::size_t mismatches() const { return mismatches_; }

  private:
    std::string path_;
    std::map<std::string, std::uint64_t> table_;
    std::size_t checked_ = 0;
    std::size_t mismatches_ = 0;
};

/// Fixed inputs whose exact outputs are pinned by digests.
inline const std::vector<std::uint64_t> kVerificationSeeds = {11, 12};

/// Fixed calibration inputs shared by every workload.
inline const std::vector<std::uint64_t> kTrainingSeeds = {101, 202};

/// Target output quality of every workload, percent.
constexpr double kToq = 90.0;

}  // namespace perfbench
