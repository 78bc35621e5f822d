/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * fixed-bucket latency histograms with lock-free per-thread shards.
 *
 * Design constraints, in order:
 *
 *  1. Recording must never perturb pipeline results. Metric cells are
 *     relaxed atomics in per-thread shards; recording takes no locks,
 *     allocates nothing after the first touch per thread, and is a
 *     no-op when the registry is disabled (one relaxed load).
 *  2. Snapshots must be deterministic for deterministic workloads.
 *     Every cell is an unsigned 64-bit value folded with wrapping
 *     addition — a commutative, associative fold — so the snapshot is
 *     independent of which thread recorded what and of fold order.
 *     Metric names are kept sorted, so the rendered JSON is
 *     byte-stable whenever the recorded values are.
 *  3. Thread churn must not leak. Worker threads are created per
 *     parallel region (one TaskScheduler each); when a thread exits,
 *     its shards are folded into a per-registry retired accumulator
 *     and freed.
 *
 * Histograms use fixed 1-2-5 decade bucket bounds (1ns .. 1e11ns
 * ~100s, plus overflow) so two histograms are always mergeable and
 * percentiles (p50/p90/p99, linearly interpolated within a bucket)
 * need no per-sample storage.
 *
 * The JSON export (`metrics.lpo.json`) renders through
 * core::JsonWriter. External subsystems that keep their own atomic
 * counters (e.g. the failpoint registry) can contribute snapshot-time
 * values via addCollector().
 */
#ifndef LPO_SUPPORT_TELEMETRY_H
#define LPO_SUPPORT_TELEMETRY_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lpo::telemetry {

/** Upper bucket bounds (inclusive), 1-2-5 series; last is +inf. */
inline constexpr size_t kHistogramBuckets = 35;
const std::array<uint64_t, kHistogramBuckets - 1> &histogramBounds();

class MetricsRegistry;

/** Monotonic nanoseconds (steady clock). */
uint64_t nowNanos();

/**
 * Cheap copyable handle to a counter slot. Default-constructed
 * handles are inert no-ops.
 */
class Counter
{
  public:
    Counter() = default;
    void add(uint64_t delta) const;
    void inc() const { add(1); }

  private:
    friend class MetricsRegistry;
    Counter(MetricsRegistry *registry, uint32_t slot)
        : registry_(registry), slot_(slot)
    {}
    MetricsRegistry *registry_ = nullptr;
    uint32_t slot_ = 0;
};

/** Last-write-wins signed value (no sharding; set is rare). */
class Gauge
{
  public:
    Gauge() = default;
    void set(int64_t value) const;

  private:
    friend class MetricsRegistry;
    Gauge(MetricsRegistry *registry, uint32_t slot)
        : registry_(registry), slot_(slot)
    {}
    MetricsRegistry *registry_ = nullptr;
    uint32_t slot_ = 0;
};

/** Handle to a histogram (buckets + sum + max slots). */
class Histogram
{
  public:
    Histogram() = default;
    void record(uint64_t value) const;
    /** True when bound to a registry that is currently enabled. */
    bool active() const;

  private:
    friend class MetricsRegistry;
    Histogram(MetricsRegistry *registry, uint32_t slot)
        : registry_(registry), slot_(slot)
    {}
    MetricsRegistry *registry_ = nullptr;
    uint32_t slot_ = 0; ///< first of kHistogramBuckets + 2 slots
};

struct HistogramSnapshot
{
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    std::array<uint64_t, kHistogramBuckets> buckets{};

    /**
     * Quantile in [0, 1], linearly interpolated within the owning
     * bucket (overflow bucket interpolates toward the observed max)
     * and clamped to [0, max], so no percentile exceeds a recorded
     * sample. Deterministic given deterministic counts. 0 when empty.
     */
    double percentile(double q) const;
    double p50() const { return percentile(0.50); }
    double p90() const { return percentile(0.90); }
    double p99() const { return percentile(0.99); }
};

struct MetricsSnapshot
{
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<HistogramSnapshot> histograms;

    /** Counter value by exact name; 0 when absent. */
    uint64_t counter(std::string_view name) const;
    /** Histogram by exact name; nullptr when absent. */
    const HistogramSnapshot *histogram(std::string_view name) const;

    /** Collector-side append; snapshot() re-sorts afterwards. */
    void addCounter(std::string name, uint64_t value);

    /** Render as the metrics.lpo.json document. */
    std::string toJson() const;
};

class MetricsRegistry
{
  public:
    /** The process-wide registry (leaked: safe from TLS destructors). */
    static MetricsRegistry &instance();

    MetricsRegistry();
    ~MetricsRegistry();
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Find-or-create by name. Handles stay valid for the registry's
     * lifetime; re-registering a name returns the same slot. Cache
     * the handle (e.g. in a function-local static) on hot paths.
     */
    Counter counter(std::string_view name);
    Gauge gauge(std::string_view name);
    Histogram histogram(std::string_view name);

    /**
     * Master switch. Disabled recording is one relaxed load per op.
     * Flipping it never discards already-recorded values.
     */
    void setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Register a snapshot-time contributor (runs on the snapshotting
     * thread, after the shard fold). Must only append values derived
     * from its own state — it may not touch the registry.
     */
    void addCollector(std::function<void(MetricsSnapshot &)> fn);

    /** Deterministic fold of all shards + retired accumulator. */
    MetricsSnapshot snapshot() const;

    /** Zero every cell (tests; not safe concurrently with recording). */
    void reset();

  private:
    friend class Counter;
    friend class Gauge;
    friend class Histogram;
    struct Shard;
    struct ThreadShardCache;

    enum class Kind { Counter, Gauge, Histogram };
    struct MetricInfo
    {
        Kind kind;
        uint32_t slot;
    };

    Shard &localShard();
    void retireShard(Shard *shard); // caller holds liveness lock
    uint32_t allocateSlots(std::string_view name, Kind kind,
                           uint32_t width);

    std::atomic<bool> enabled_{true};
    mutable std::mutex mutex_;
    std::map<std::string, MetricInfo, std::less<>> metrics_;
    uint32_t next_slot_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::unique_ptr<Shard> retired_;
    std::vector<std::unique_ptr<std::atomic<int64_t>>> gauges_;
    std::vector<std::function<void(MetricsSnapshot &)>> collectors_;
};

inline bool
Histogram::active() const
{
    return registry_ != nullptr && registry_->enabled();
}

/** Shorthand accessors against the process-wide registry. */
inline Counter counter(std::string_view name)
{
    return MetricsRegistry::instance().counter(name);
}
inline Gauge gauge(std::string_view name)
{
    return MetricsRegistry::instance().gauge(name);
}
inline Histogram histogram(std::string_view name)
{
    return MetricsRegistry::instance().histogram(name);
}

/**
 * RAII timer recording elapsed nanoseconds into a histogram at
 * destruction (or at stopNanos(), whichever comes first). Inert when
 * telemetry was disabled at construction — stopNanos() then returns 0
 * so callers accumulating StageTimings stay zero-cost too.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram hist);
    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;
    ~ScopedTimer();

    /** Record now; returns elapsed ns (0 if inert). Idempotent. */
    uint64_t stopNanos();

  private:
    Histogram hist_;
    uint64_t start_ = 0; ///< 0 = inert / already stopped
};

} // namespace lpo::telemetry

#endif // LPO_SUPPORT_TELEMETRY_H
