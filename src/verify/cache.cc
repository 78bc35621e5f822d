#include "verify/cache.h"

#include "support/failpoint.h"
#include "support/string_utils.h"
#include "support/telemetry.h"

namespace lpo::verify {

namespace {

// Registry mirrors of the cache's own atomics, so cache behavior
// shows up in metrics.lpo.json without threading a registry handle
// through every cache instance. Process-wide totals across all
// caches, unlike the per-instance Stats counters.
telemetry::Counter
hitCounter()
{
    static const telemetry::Counter c =
        telemetry::counter("verify_cache.hits");
    return c;
}

telemetry::Counter
missCounter()
{
    static const telemetry::Counter c =
        telemetry::counter("verify_cache.misses");
    return c;
}

telemetry::Counter
evictionCounter()
{
    static const telemetry::Counter c =
        telemetry::counter("verify_cache.evictions");
    return c;
}

/** Latency of rebuilding a RefinementResult from a cached verdict. */
telemetry::Histogram
rederiveHistogram()
{
    static const telemetry::Histogram h =
        telemetry::histogram("verify_cache.rederive_ns");
    return h;
}

} // namespace

VerifyCache::VerifyCache(unsigned shard_count, size_t max_entries)
    : shard_count_(shard_count ? shard_count : 1),
      max_entries_(max_entries),
      shard_cap_(max_entries
                     ? (max_entries + shard_count_ - 1) / shard_count_
                     : 0),
      shards_(std::make_unique<Shard[]>(shard_count ? shard_count : 1))
{
}

VerifyCache::Shard &
VerifyCache::shardOf(const std::string &key)
{
    return shards_[fnv1a64(key) % shard_count_];
}

/**
 * Enforce the per-shard entry bound (shard lock held by the caller).
 * Evicts the oldest ready entries first; an entry still being computed
 * is never evicted — its owner holds a shared_ptr and waiters are
 * parked on it — so the bound is soft while computations are in
 * flight. Stale order-queue keys (abandoned computes) are dropped
 * without counting as evictions.
 */
void
VerifyCache::evictOverCap(Shard &shard)
{
    if (!shard_cap_)
        return;
    while (shard.map.size() > shard_cap_ && !shard.order.empty()) {
        const std::string &victim = shard.order.front();
        auto it = shard.map.find(victim);
        if (it == shard.map.end()) {
            shard.order.pop_front();
            continue;
        }
        if (!it->second->ready.load(std::memory_order_acquire))
            break;
        shard.map.erase(it);
        shard.order.pop_front();
        evictions_.fetch_add(1, std::memory_order_relaxed);
        evictionCounter().inc();
    }
}

void
VerifyCache::publish(const std::string &key, const CachedVerdict &value)
{
    std::function<void(const std::string &, const CachedVerdict &)> hook;
    {
        std::lock_guard<std::mutex> lock(hook_mutex_);
        hook = publish_hook_;
    }
    if (hook)
        hook(key, value);
}

void
VerifyCache::setPublishHook(
    std::function<void(const std::string &, const CachedVerdict &)> hook)
{
    std::lock_guard<std::mutex> lock(hook_mutex_);
    publish_hook_ = std::move(hook);
}

RefinementResult
VerifyCache::lookupOrCompute(
    const std::string &key, const std::function<Computed()> &compute,
    const std::function<RefinementResult(const CachedVerdict &)> &rederive)
{
    // Chaos-test injection: a lookup failure degrades to computing
    // uncached — results must be byte-identical, only the hit/miss
    // accounting may differ.
    if (LPO_FAILPOINT("verify.cache.lookup")) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        missCounter().inc();
        return compute().result;
    }

    Shard &shard = shardOf(key);
    std::shared_ptr<Entry> entry;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        if (it == shard.map.end()) {
            entry = std::make_shared<Entry>();
            shard.map.emplace(key, entry);
            shard.order.push_back(key);
            owner = true;
            evictOverCap(shard);
        } else {
            entry = it->second;
        }
    }

    if (owner) {
        // Compute outside every lock; only the publication is locked.
        Computed computed;
        try {
            computed = compute();
        } catch (...) {
            // Abandon the entry: erase it so future queries recompute,
            // and wake any waiter into its uncached fallback. Without
            // this, one bad_alloc would park every later query for
            // this key on ready_cv forever.
            {
                std::lock_guard<std::mutex> lock(shard.mutex);
                shard.map.erase(key);
            }
            {
                std::lock_guard<std::mutex> lock(entry->mutex);
                entry->failed = true;
                entry->ready.store(true, std::memory_order_release);
            }
            entry->ready_cv.notify_all();
            throw;
        }
        // Chaos-test injection: publication fails after a successful
        // compute. Reuse the owner-threw teardown — the entry is
        // erased and waiters recompute uncached — but hand the caller
        // its (perfectly good) result. An uncacheable answer takes
        // the same path.
        if (LPO_FAILPOINT("verify.cache.store") || !computed.cacheable) {
            {
                std::lock_guard<std::mutex> lock(shard.mutex);
                shard.map.erase(key);
            }
            {
                std::lock_guard<std::mutex> lock(entry->mutex);
                entry->failed = true;
                entry->ready.store(true, std::memory_order_release);
            }
            entry->ready_cv.notify_all();
            misses_.fetch_add(1, std::memory_order_relaxed);
            missCounter().inc();
            return std::move(computed.result);
        }
        {
            std::lock_guard<std::mutex> lock(entry->mutex);
            entry->value = computed.cached;
            entry->ready.store(true, std::memory_order_release);
        }
        entry->ready_cv.notify_all();
        misses_.fetch_add(1, std::memory_order_relaxed);
        missCounter().inc();
        // Now that the entry is ready it is eviction-eligible; apply
        // the bound again in case in-flight entries blocked it above.
        if (shard_cap_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            evictOverCap(shard);
        }
        publish(key, computed.cached);
        return std::move(computed.result);
    }

    bool failed;
    {
        std::unique_lock<std::mutex> lock(entry->mutex);
        entry->ready_cv.wait(lock, [&] {
            return entry->ready.load(std::memory_order_acquire);
        });
        failed = entry->failed;
    }
    if (failed) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        missCounter().inc();
        return compute().result;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    hitCounter().inc();
    telemetry::ScopedTimer timer(rederiveHistogram());
    return rederive(entry->value);
}

bool
VerifyCache::seed(const std::string &key, CachedVerdict verdict)
{
    Shard &shard = shardOf(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end())
        return false;
    auto entry = std::make_shared<Entry>();
    entry->value = std::move(verdict);
    entry->ready.store(true, std::memory_order_release);
    shard.map.emplace(key, std::move(entry));
    shard.order.push_back(key);
    evictOverCap(shard);
    return true;
}

void
VerifyCache::forEach(
    const std::function<void(const std::string &, const CachedVerdict &)>
        &visit) const
{
    for (unsigned i = 0; i < shard_count_; ++i) {
        std::lock_guard<std::mutex> lock(shards_[i].mutex);
        for (const auto &[key, entry] : shards_[i].map) {
            if (!entry->ready.load(std::memory_order_acquire) ||
                entry->failed)
                continue;
            visit(key, entry->value);
        }
    }
}

size_t
VerifyCache::size() const
{
    size_t total = 0;
    for (unsigned i = 0; i < shard_count_; ++i) {
        std::lock_guard<std::mutex> lock(shards_[i].mutex);
        total += shards_[i].map.size();
    }
    return total;
}

void
VerifyCache::clear()
{
    for (unsigned i = 0; i < shard_count_; ++i) {
        std::lock_guard<std::mutex> lock(shards_[i].mutex);
        shards_[i].map.clear();
        shards_[i].order.clear();
    }
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
}

} // namespace lpo::verify
