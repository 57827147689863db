#include "serve/metrics.h"

#include <bit>
#include <cmath>
#include <cstdio>

namespace paraprox::serve {

void
LatencyHistogram::record(double seconds)
{
    if (!(seconds > 0.0))
        seconds = 0.0;
    const double ns = seconds * 1e9;
    std::uint64_t ticks = 1;
    if (ns >= 1.0) {
        // Anything beyond the top bucket saturates there.
        ticks = ns >= 9.2e18 ? ~std::uint64_t{0}
                             : static_cast<std::uint64_t>(ns);
    }
    const int bucket = std::bit_width(ticks) - 1;
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

LatencySnapshot
LatencyHistogram::snapshot() const
{
    std::uint64_t counts[kBuckets];
    std::uint64_t total = 0;
    for (int i = 0; i < kBuckets; ++i) {
        counts[i] = buckets_[i].load(std::memory_order_relaxed);
        total += counts[i];
    }

    LatencySnapshot out;
    out.count = total;
    if (total == 0)
        return out;

    const auto quantile = [&](double q) {
        const std::uint64_t target = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(total)));
        std::uint64_t cumulative = 0;
        for (int i = 0; i < kBuckets; ++i) {
            cumulative += counts[i];
            // First bucket where the cumulative count reaches the target;
            // no emptiness guard — the crossing bucket is the answer even
            // when later buckets are empty.
            if (cumulative >= target)
                return std::ldexp(1.0, i + 1) * 1e-9;  // bucket upper bound
        }
        return std::ldexp(1.0, kBuckets) * 1e-9;
    };
    out.p50 = quantile(0.50);
    out.p95 = quantile(0.95);
    out.p99 = quantile(0.99);
    return out;
}

void
BatchHistogram::record(std::size_t size)
{
    if (size == 0)
        return;
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (size == 1)
        singletons_.fetch_add(1, std::memory_order_relaxed);
    requests_.fetch_add(size, std::memory_order_relaxed);
    std::uint64_t seen = max_size_.load(std::memory_order_relaxed);
    while (seen < size &&
           !max_size_.compare_exchange_weak(seen, size,
                                            std::memory_order_relaxed)) {
    }
}

BatchSnapshot
BatchHistogram::snapshot() const
{
    // The totals are read one at a time while records land, so one may
    // include a batch another misses: clamp the differences at zero.
    const std::uint64_t singletons =
        singletons_.load(std::memory_order_relaxed);
    BatchSnapshot out;
    out.batches = batches_.load(std::memory_order_relaxed);
    const std::uint64_t requests = requests_.load(std::memory_order_relaxed);
    out.coalesced = out.batches > singletons ? out.batches - singletons : 0;
    out.coalesced_requests = requests > singletons ? requests - singletons : 0;
    out.max_size = max_size_.load(std::memory_order_relaxed);
    out.mean_size = out.batches > 0
                        ? static_cast<double>(requests) /
                              static_cast<double>(out.batches)
                        : 0.0;
    return out;
}

MetricsSnapshot
Metrics::snapshot() const
{
    MetricsSnapshot out;
#define PARAPROX_LOAD(name, type, help)                                    \
    out.name = name.load(std::memory_order_relaxed);
    PARAPROX_SERVE_METRICS(PARAPROX_LOAD)
#undef PARAPROX_LOAD
    out.latency = latency.snapshot();
    out.batch = batch.snapshot();
    out.batch_latency = batch_latency.snapshot();
    return out;
}

std::string
format_metrics(const MetricsSnapshot& snapshot)
{
    char line[160];
    std::string out;
    const auto row = [&](const char* name, auto value) {
        std::snprintf(line, sizeof line, "  %-26s %s\n", name,
                      std::to_string(value).c_str());
        out += line;
    };
    const auto distribution = [&](const char* name,
                                  const LatencySnapshot& latency) {
        std::snprintf(line, sizeof line,
                      "  %-26s p50 %.3gms  p95 %.3gms  p99 %.3gms  "
                      "(n=%llu)\n",
                      name, latency.p50 * 1e3, latency.p95 * 1e3,
                      latency.p99 * 1e3,
                      static_cast<unsigned long long>(latency.count));
        out += line;
    };
#define PARAPROX_ROW(name, ...) row(#name, snapshot.name);
    PARAPROX_SERVE_METRICS(PARAPROX_ROW)
    PARAPROX_TUNER_TOTALS(PARAPROX_ROW)
#undef PARAPROX_ROW
    distribution("latency", snapshot.latency);
    std::snprintf(line, sizeof line,
                  "  %-26s total %llu  coalesced %llu  mean %.2f  max %llu\n",
                  "batch",
                  static_cast<unsigned long long>(snapshot.batch.batches),
                  static_cast<unsigned long long>(snapshot.batch.coalesced),
                  snapshot.batch.mean_size,
                  static_cast<unsigned long long>(snapshot.batch.max_size));
    out += line;
    distribution("batch_latency", snapshot.batch_latency);
    return out;
}

}  // namespace paraprox::serve
