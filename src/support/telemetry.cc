#include "support/telemetry.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>

#include "core/json_writer.h"

namespace lpo::telemetry {

namespace {

/**
 * Registry liveness set: thread-exit shard retirement must not touch
 * a registry that was already destroyed (tests create short-lived
 * instances). Both structures are leaked so they outlive every
 * thread-local destructor, including main's.
 */
std::mutex &
livenessMutex()
{
    static std::mutex *m = new std::mutex;
    return *m;
}

std::set<const void *> &
liveRegistries()
{
    static auto *s = new std::set<const void *>;
    return *s;
}

} // namespace

const std::array<uint64_t, kHistogramBuckets - 1> &
histogramBounds()
{
    // 1-2-5 series: 1, 2, 5, 10, ..., 5e10, 1e11 (ns: 1ns .. 100s).
    static const auto bounds = [] {
        std::array<uint64_t, kHistogramBuckets - 1> b{};
        uint64_t decade = 1;
        size_t i = 0;
        while (i + 2 < b.size()) {
            b[i++] = decade;
            b[i++] = 2 * decade;
            b[i++] = 5 * decade;
            decade *= 10;
        }
        b[i] = decade; // 1e11
        return b;
    }();
    return bounds;
}

uint64_t
nowNanos()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Fixed-capacity block of relaxed-atomic cells, one per thread. */
struct MetricsRegistry::Shard
{
    static constexpr uint32_t kCapacity = 4096;
    std::array<std::atomic<uint64_t>, kCapacity> cells{};
};

struct MetricsRegistry::ThreadShardCache
{
    struct Entry
    {
        MetricsRegistry *registry;
        Shard *shard;
    };
    std::vector<Entry> entries;

    ~ThreadShardCache()
    {
        std::lock_guard<std::mutex> live(livenessMutex());
        for (const Entry &entry : entries)
            if (liveRegistries().count(entry.registry))
                entry.registry->retireShard(entry.shard);
    }
};

MetricsRegistry &
MetricsRegistry::instance()
{
    // Leaked: shard retirement from thread-local destructors (main's
    // included) must never race static destruction.
    static MetricsRegistry *registry = new MetricsRegistry;
    return *registry;
}

MetricsRegistry::MetricsRegistry() : retired_(std::make_unique<Shard>())
{
    std::lock_guard<std::mutex> live(livenessMutex());
    liveRegistries().insert(this);
}

MetricsRegistry::~MetricsRegistry()
{
    std::lock_guard<std::mutex> live(livenessMutex());
    liveRegistries().erase(this);
}

MetricsRegistry::Shard &
MetricsRegistry::localShard()
{
    thread_local ThreadShardCache cache;
    for (const ThreadShardCache::Entry &entry : cache.entries)
        if (entry.registry == this)
            return *entry.shard;
    auto owned = std::make_unique<Shard>();
    Shard *shard = owned.get();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shards_.push_back(std::move(owned));
    }
    cache.entries.push_back({this, shard});
    return *shard;
}

void
MetricsRegistry::retireShard(Shard *shard)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Histogram max slots fold by max, everything else by wrapping
    // sum — mirroring the snapshot fold, so a shard retired at thread
    // exit is indistinguishable from one still live.
    std::vector<bool> is_max_slot(next_slot_, false);
    for (const auto &[name, info] : metrics_)
        if (info.kind == Kind::Histogram)
            is_max_slot[info.slot + kHistogramBuckets + 1] = true;
    for (uint32_t i = 0; i < next_slot_; ++i) {
        uint64_t v = shard->cells[i].load(std::memory_order_relaxed);
        if (!v)
            continue;
        if (is_max_slot[i]) {
            std::atomic<uint64_t> &cell = retired_->cells[i];
            uint64_t seen = cell.load(std::memory_order_relaxed);
            while (v > seen &&
                   !cell.compare_exchange_weak(
                       seen, v, std::memory_order_relaxed))
                ;
        } else {
            retired_->cells[i].fetch_add(v, std::memory_order_relaxed);
        }
    }
    auto it = std::find_if(
        shards_.begin(), shards_.end(),
        [shard](const std::unique_ptr<Shard> &s) { return s.get() == shard; });
    if (it != shards_.end())
        shards_.erase(it);
}

uint32_t
MetricsRegistry::allocateSlots(std::string_view name, Kind kind,
                               uint32_t width)
{
    // Caller holds mutex_.
    if (next_slot_ + width > Shard::kCapacity)
        throw std::runtime_error("telemetry: metric slot space exhausted");
    uint32_t slot = next_slot_;
    next_slot_ += width;
    metrics_.emplace(std::string(name), MetricInfo{kind, slot});
    return slot;
}

Counter
MetricsRegistry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = metrics_.find(name);
    if (it != metrics_.end()) {
        assert(it->second.kind == Kind::Counter);
        return Counter(this, it->second.slot);
    }
    return Counter(this, allocateSlots(name, Kind::Counter, 1));
}

Gauge
MetricsRegistry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = metrics_.find(name);
    if (it != metrics_.end()) {
        assert(it->second.kind == Kind::Gauge);
        return Gauge(this, it->second.slot);
    }
    uint32_t slot = static_cast<uint32_t>(gauges_.size());
    gauges_.push_back(std::make_unique<std::atomic<int64_t>>(0));
    metrics_.emplace(std::string(name), MetricInfo{Kind::Gauge, slot});
    return Gauge(this, slot);
}

Histogram
MetricsRegistry::histogram(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = metrics_.find(name);
    if (it != metrics_.end()) {
        assert(it->second.kind == Kind::Histogram);
        return Histogram(this, it->second.slot);
    }
    return Histogram(this, allocateSlots(name, Kind::Histogram,
                                         kHistogramBuckets + 2));
}

void
MetricsRegistry::addCollector(std::function<void(MetricsSnapshot &)> fn)
{
    std::lock_guard<std::mutex> lock(mutex_);
    collectors_.push_back(std::move(fn));
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    std::vector<std::function<void(MetricsSnapshot &)>> collectors;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Wrapping uint64 sums commute, so the result is independent
        // of shard count and fold order: 1 thread and 8 threads
        // recording the same work produce the same snapshot.
        std::vector<uint64_t> totals(next_slot_, 0);
        auto fold = [&](const Shard &shard) {
            for (uint32_t i = 0; i < next_slot_; ++i)
                totals[i] +=
                    shard.cells[i].load(std::memory_order_relaxed);
        };
        fold(*retired_);
        for (const auto &shard : shards_)
            fold(*shard);
        // Exception: max slots fold by max, not sum; redo them below.
        for (const auto &[name, info] : metrics_) {
            switch (info.kind) {
            case Kind::Counter:
                snap.counters.emplace_back(name, totals[info.slot]);
                break;
            case Kind::Gauge:
                snap.gauges.emplace_back(
                    name, gauges_[info.slot]->load(
                              std::memory_order_relaxed));
                break;
            case Kind::Histogram: {
                HistogramSnapshot h;
                h.name = name;
                for (size_t i = 0; i < kHistogramBuckets; ++i) {
                    h.buckets[i] = totals[info.slot + i];
                    h.count += h.buckets[i];
                }
                h.sum = totals[info.slot + kHistogramBuckets];
                uint32_t max_slot = info.slot + kHistogramBuckets + 1;
                uint64_t max = retired_->cells[max_slot].load(
                    std::memory_order_relaxed);
                for (const auto &shard : shards_)
                    max = std::max(max,
                                   shard->cells[max_slot].load(
                                       std::memory_order_relaxed));
                h.max = max;
                snap.histograms.push_back(std::move(h));
                break;
            }
            }
        }
        collectors = collectors_;
    }
    for (const auto &fn : collectors)
        fn(snap);
    std::sort(snap.counters.begin(), snap.counters.end());
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto zero = [&](Shard &shard) {
        for (uint32_t i = 0; i < next_slot_; ++i)
            shard.cells[i].store(0, std::memory_order_relaxed);
    };
    zero(*retired_);
    for (const auto &shard : shards_)
        zero(*shard);
    for (const auto &g : gauges_)
        g->store(0, std::memory_order_relaxed);
}

void
Counter::add(uint64_t delta) const
{
    if (registry_ == nullptr || !registry_->enabled())
        return;
    registry_->localShard().cells[slot_].fetch_add(
        delta, std::memory_order_relaxed);
}

void
Gauge::set(int64_t value) const
{
    if (registry_ == nullptr || !registry_->enabled())
        return;
    registry_->gauges_[slot_]->store(value, std::memory_order_relaxed);
}

void
Histogram::record(uint64_t value) const
{
    if (registry_ == nullptr || !registry_->enabled())
        return;
    const auto &bounds = histogramBounds();
    size_t bucket = static_cast<size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), value) -
        bounds.begin());
    auto &cells = registry_->localShard().cells;
    cells[slot_ + bucket].fetch_add(1, std::memory_order_relaxed);
    cells[slot_ + kHistogramBuckets].fetch_add(
        value, std::memory_order_relaxed);
    std::atomic<uint64_t> &max_cell =
        cells[slot_ + kHistogramBuckets + 1];
    uint64_t seen = max_cell.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_cell.compare_exchange_weak(seen, value,
                                           std::memory_order_relaxed))
        ;
}

double
HistogramSnapshot::percentile(double q) const
{
    if (count == 0)
        return 0.0;
    const auto &bounds = histogramBounds();
    double rank = q * static_cast<double>(count);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
        if (buckets[i] == 0)
            continue;
        uint64_t next = cumulative + buckets[i];
        if (static_cast<double>(next) >= rank) {
            double lo =
                i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
            double hi = i < kHistogramBuckets - 1
                            ? static_cast<double>(bounds[i])
                            : std::max(static_cast<double>(max), lo);
            double frac = (rank - static_cast<double>(cumulative)) /
                          static_cast<double>(buckets[i]);
            if (frac < 0)
                frac = 0;
            // Interpolating inside a wide bucket can overshoot every
            // recorded sample; no percentile may exceed the max.
            return std::min(lo + (hi - lo) * frac,
                            static_cast<double>(max));
        }
        cumulative = next;
    }
    return static_cast<double>(max);
}

uint64_t
MetricsSnapshot::counter(std::string_view name) const
{
    for (const auto &[n, v] : counters)
        if (n == name)
            return v;
    return 0;
}

const HistogramSnapshot *
MetricsSnapshot::histogram(std::string_view name) const
{
    for (const HistogramSnapshot &h : histograms)
        if (h.name == name)
            return &h;
    return nullptr;
}

void
MetricsSnapshot::addCounter(std::string name, uint64_t value)
{
    counters.emplace_back(std::move(name), value);
}

std::string
MetricsSnapshot::toJson() const
{
    core::JsonWriter w;
    w.beginObject();
    w.key("counters").beginObject();
    for (const auto &[name, value] : counters)
        w.field(name, value);
    w.endObject();
    w.key("gauges").beginObject();
    for (const auto &[name, value] : gauges)
        w.field(name, value);
    w.endObject();
    w.key("histograms").beginObject();
    const auto &bounds = histogramBounds();
    for (const HistogramSnapshot &h : histograms) {
        w.key(h.name).beginObject();
        w.field("count", h.count);
        w.field("sum", h.sum);
        w.field("max", h.max);
        w.field("p50", h.p50(), 1);
        w.field("p90", h.p90(), 1);
        w.field("p99", h.p99(), 1);
        w.key("buckets").beginArray();
        for (size_t i = 0; i < kHistogramBuckets; ++i) {
            if (h.buckets[i] == 0)
                continue;
            w.beginObject(core::JsonWriter::Layout::Inline);
            if (i < kHistogramBuckets - 1)
                w.field("le", bounds[i]);
            else
                w.field("le", "+Inf");
            w.field("count", h.buckets[i]);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

ScopedTimer::ScopedTimer(Histogram hist) : hist_(hist)
{
    if (hist_.active())
        start_ = nowNanos();
}

ScopedTimer::~ScopedTimer()
{
    stopNanos();
}

uint64_t
ScopedTimer::stopNanos()
{
    if (start_ == 0)
        return 0;
    uint64_t elapsed = nowNanos() - start_;
    start_ = 0;
    hist_.record(elapsed);
    return elapsed;
}

} // namespace lpo::telemetry
