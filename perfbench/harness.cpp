#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

std::uint64_t
derive_seed(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : std::min(values.size() - 1,
                                  static_cast<std::size_t>(rank) - 1);
    return values[index];
}

double
median(const std::vector<double>& values)
{
    return percentile(values, 50.0);
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double value : values)
        log_sum += std::log(value);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

int
cycle_count(double seconds, double cycle_seconds)
{
    return std::max(2, static_cast<int>(std::lround(seconds / cycle_seconds)));
}

double
supported_tail(std::size_t samples)
{
    if (samples <= 10)
        return 0.0;
    const double tail =
        100.0 * (1.0 - 10.0 / static_cast<double>(samples));
    return std::min(99.0, std::floor(tail * 10.0) / 10.0);
}

std::string
tail_label(double percent)
{
    char text[32];
    std::snprintf(text, sizeof text, "p%.1f", percent);
    return text;
}

double
self_peak_rss_mb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MB
}

HostSteal::Sample
HostSteal::sample()
{
    // "cpu  user nice system idle iowait irq softirq steal ..."
    std::ifstream stat("/proc/stat");
    std::string label;
    Sample out;
    if (!(stat >> label) || label != "cpu")
        return out;
    // Idle (3) and iowait (4) are time no vCPU asked for.
    std::uint64_t value = 0;
    for (int field = 0; field < 8 && stat >> value; ++field) {
        if (field != 3 && field != 4)
            out.wanted += value;
        if (field == 7)
            out.steal = value;
    }
    return out;
}

double
HostSteal::fraction() const
{
    const Sample end = sample();
    if (end.wanted <= start_.wanted)
        return 0.0;
    return static_cast<double>(end.steal - start_.steal) /
           static_cast<double>(end.wanted - start_.wanted);
}

std::vector<bool>
keep_quiet(const std::vector<double>& steal, Report& report)
{
    const std::size_t n = steal.size();
    const std::size_t floor =
        std::min<std::size_t>(n, std::max<std::size_t>(2, (n + 2) / 3));
    std::vector<bool> keep(n);
    std::size_t quiet = 0;
    for (std::size_t i = 0; i < n; ++i) {
        keep[i] = steal[i] <= kMaxCycleSteal;
        quiet += keep[i] ? 1 : 0;
    }
    char text[64];
    std::snprintf(text, sizeof text, "host steal above %.2f", kMaxCycleSteal);
    std::string why = text;
    if (quiet < floor) {
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return steal[a] < steal[b];
                         });
        std::fill(keep.begin(), keep.end(), false);
        for (std::size_t i = 0; i < floor; ++i)
            keep[order[i]] = true;
        why = "too few quiet cycles, kept the quietest " +
              std::to_string(floor);
        report.note("host steal: only " + std::to_string(quiet) + " of " +
                    std::to_string(n) +
                    " cycles quiet; the medians still carry host "
                    "interference");
    }
    std::string line = "cycle host steal (* = left out):";
    for (std::size_t i = 0; i < n; ++i) {
        std::snprintf(text, sizeof text, " %.3f%s", steal[i],
                      keep[i] ? "" : "*");
        line += text;
    }
    report.note(line);
    report.set("bench.steal_dropped_cycles",
               static_cast<double>(std::count(keep.begin(), keep.end(), false)),
               "count", n, why);
    return keep;
}

std::uint64_t
digest(const std::vector<float>& values)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const float value : values) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        for (int byte = 0; byte < 4; ++byte) {
            hash ^= (bits >> (8 * byte)) & 0xffu;
            hash *= 0x100000001b3ull;
        }
    }
    return hash ^ values.size();
}

// ---- Tracer ------------------------------------------------------------

std::int64_t
Tracer::record(const std::string& name, Clock::time_point start,
               Clock::time_point end, std::int64_t parent,
               std::uint64_t request)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.start_us =
        std::chrono::duration<double, std::micro>(start - origin_).count();
    span.end_us =
        std::chrono::duration<double, std::micro>(end - origin_).count();
    span.parent = parent;
    span.request = request;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<double>
Tracer::duration_us(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const auto& span : spans_) {
        if (span.name == name)
            out.push_back(span.end_us - span.start_us);
    }
    return out;
}

std::vector<double>
Tracer::self_us(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Children of each span, as intervals clipped to the parent.
    std::map<std::int64_t, std::vector<std::pair<double, double>>> children;
    for (const auto& span : spans_) {
        if (span.parent >= 0)
            children[span.parent].emplace_back(span.start_us, span.end_us);
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        if (span.name != name)
            continue;
        double covered = 0.0;
        auto it = children.find(static_cast<std::int64_t>(i));
        if (it != children.end()) {
            auto intervals = it->second;
            std::sort(intervals.begin(), intervals.end());
            double reach = span.start_us;
            for (auto [lo, hi] : intervals) {
                lo = std::max(lo, reach);
                hi = std::min(hi, span.end_us);
                if (hi > lo) {
                    covered += hi - lo;
                    reach = hi;
                }
            }
        }
        out.push_back(span.end_us - span.start_us - covered);
    }
    return out;
}

bool
Tracer::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        std::fprintf(file,
                     "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                     "\"end_us\": %.3f, \"parent\": %" PRId64
                     ", \"request\": %" PRIu64 "}\n",
                     i, span.name.c_str(), span.start_us, span.end_us,
                     span.parent, span.request);
    }
    return std::fclose(file) == 0;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

// ---- Report ------------------------------------------------------------

void
Report::set(const std::string& name, double value, const std::string& unit,
            std::size_t samples, const std::string& note)
{
    for (auto& entry : entries_) {
        if (entry.name == name) {
            entry = {name, value, unit, samples, note};
            return;
        }
    }
    entries_.push_back({name, value, unit, samples, note});
}

void
Report::note(const std::string& line)
{
    notes_.push_back(line);
}

void
Report::print() const
{
    for (const auto& line : notes_)
        std::printf("note: %s\n", line.c_str());
    for (const auto& entry : entries_) {
        std::printf("%-34s %14.6g %-9s", entry.name.c_str(), entry.value,
                    entry.unit.c_str());
        if (entry.samples > 0)
            std::printf(" n=%zu", entry.samples);
        if (!entry.note.empty())
            std::printf("  (%s)", entry.note.c_str());
        std::printf("\n");
    }
    std::printf("attempted=%" PRIu64 " failed=%" PRIu64 " correct=%s\n",
                attempted, failed, correct ? "true" : "false");
}

std::string
Report::json() const
{
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    bool first = true;
    for (const auto& entry : entries_) {
        if (!first)
            out << ", ";
        first = false;
        out << "\"" << entry.name << "\": {\"value\": ";
        if (std::isfinite(entry.value))
            out << entry.value;
        else
            out << "null";
        out << ", \"unit\": \"" << entry.unit << "\", \"samples\": "
            << entry.samples << "}";
    }
    out << "}}";
    return out.str();
}

// ---- Digests -----------------------------------------------------------

Digests::Digests(std::string path) : path_(std::move(path))
{
    std::ifstream in(path_);
    std::string key;
    std::string hex;
    while (in >> key >> hex)
        table_[key] = std::strtoull(hex.c_str(), nullptr, 16);
}

bool
Digests::check(const std::string& key, const std::vector<float>& output,
               bool write_mode)
{
    const std::uint64_t value = digest(output);
    ++checked_;
    if (write_mode) {
        table_[key] = value;
        return true;
    }
    const auto it = table_.find(key);
    if (it == table_.end() || it->second != value) {
        ++mismatches_;
        std::printf("digest mismatch: %s (%s)\n", key.c_str(),
                    it == table_.end() ? "no checked-in digest"
                                       : "output differs");
        return false;
    }
    return true;
}

bool
Digests::save() const
{
    std::FILE* file = std::fopen(path_.c_str(), "w");
    if (file == nullptr)
        return false;
    for (const auto& [key, value] : table_)
        std::fprintf(file, "%s %016" PRIx64 "\n", key.c_str(), value);
    return std::fclose(file) == 0;
}

}  // namespace perfbench
