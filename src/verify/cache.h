/**
 * @file
 * Cross-query verification result cache.
 *
 * The rewrite library and the extraction loop repeatedly produce
 * structurally identical (src, tgt) pairs — the same candidate
 * proposed for many sites, the same site re-verified across rounds —
 * and re-proving each pair from scratch dominates the SAT path's
 * cost. This cache memoizes checkRefinement verdicts keyed on the
 * canonical alpha-renamed print of the pair plus every option that
 * can affect the verdict (see refine.cc's cacheKey), so renamed
 * copies of a proved pair hit.
 *
 * The map is sharded for concurrency (PipelineConfig::num_threads
 * workers share one cache) and is compute-once per key: the first
 * thread to ask for a key computes it while later askers block on the
 * entry, which keeps hit/miss counts — and therefore the stats the
 * pipeline reports — bit-identical at any thread count (exactly one
 * miss per distinct key, ever).
 *
 * Counterexample *inputs* are deliberately not stored: they are bulky
 * (sampled inputs carry whole memory objects) and fully re-derivable
 * — the concrete backends re-decode the violating sweep index, the
 * SAT backend re-builds the input from the recorded model words — so
 * a hit re-renders the counterexample against the caller's own
 * functions, which also keeps argument names correct when the hit
 * comes from an alpha-renamed variant of the cached pair.
 *
 * Persistence hooks (see verify/persist.h): seed() pre-populates
 * entries loaded from a store file before any worker runs, forEach()
 * walks the ready entries for flush/compaction, and a publish hook
 * observes every freshly computed verdict so the persistent layer can
 * journal it. The cache itself stays oblivious to the on-disk format.
 */
#ifndef LPO_VERIFY_CACHE_H
#define LPO_VERIFY_CACHE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "verify/refine.h"

namespace lpo::verify {

/** A cached verdict: RefinementResult sans counterexample input. */
struct CachedVerdict
{
    Verdict verdict = Verdict::Unsupported;
    std::string backend;
    /** Human-readable explanation (counterexample-free results). */
    std::string detail;

    /** How to re-derive the counterexample input on a hit. */
    enum class Replay {
        None,         ///< no counterexample (Correct/Timeout/...)
        TestingIndex, ///< re-decode sweep index @ref index
        SatArgs,      ///< rebuild args from @ref arg_lane_words
    };
    Replay replay = Replay::None;
    uint64_t index = 0;                   ///< TestingIndex payload
    std::vector<uint64_t> arg_lane_words; ///< SatArgs payload, lane-major
};

/** Sharded, compute-once map from query key to CachedVerdict. */
class VerifyCache
{
  public:
    /**
     * @param shard_count lock striping for concurrent callers.
     * @param max_entries bound on stored keys (0 = unbounded). The
     *        bound is split evenly across shards and enforced by
     *        evicting each shard's oldest *ready* entries in insertion
     *        order, so a long-running process cannot grow without
     *        limit. Verdicts are never affected — an evicted key is
     *        simply recomputed (a fresh miss) if it comes back — but a
     *        capped cache's hit/miss split depends on arrival order,
     *        so it is scheduling-independent only in serial runs.
     */
    explicit VerifyCache(unsigned shard_count = 16,
                         size_t max_entries = 0);

    VerifyCache(const VerifyCache &) = delete;
    VerifyCache &operator=(const VerifyCache &) = delete;

    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;

        double hitRate() const
        {
            uint64_t total = hits + misses;
            return total ? static_cast<double>(hits) / total : 0.0;
        }
    };

    /** A computed result plus its cacheable form. */
    struct Computed
    {
        RefinementResult result;
        CachedVerdict cached;
        /** False for an answer that must not be remembered (a solve
         *  cut short by the caller's interrupt): it is returned but
         *  neither stored nor published, and waiters recompute. */
        bool cacheable = true;
    };

    /**
     * Return the result for @p key, computing it at most once.
     *
     * On the first request for a key, @p compute runs (outside the
     * shard lock) and its full result — counterexample included — is
     * returned while the stripped CachedVerdict is published; later
     * requests block until the value is ready and return
     * @p rederive(cached). If the owner's compute throws, the entry
     * is abandoned (marked failed, erased from the shard) and any
     * blocked waiter falls back to computing uncached, so a failure
     * can never deadlock later queries. @p compute must not re-enter
     * the cache.
     */
    RefinementResult
    lookupOrCompute(const std::string &key,
                    const std::function<Computed()> &compute,
                    const std::function<RefinementResult(
                        const CachedVerdict &)> &rederive);

    /**
     * Pre-populate @p key with a ready verdict (load-from-store path;
     * call before workers run). A later lookupOrCompute for the key
     * counts a hit and rederives, exactly as if another thread had
     * computed it. Existing keys are left untouched (first seed wins);
     * returns whether the entry was inserted. Seeding respects the
     * entry cap — over it, the oldest ready entries are evicted.
     */
    bool seed(const std::string &key, CachedVerdict verdict);

    /**
     * Visit every ready entry (flush/compaction path). Entries still
     * being computed are skipped. @p visit must not re-enter the
     * cache; iteration order is unspecified — callers wanting a
     * deterministic flush order sort by key themselves.
     */
    void forEach(const std::function<void(const std::string &key,
                                          const CachedVerdict &)> &visit)
        const;

    /**
     * Observe every verdict the cache newly publishes (owner computes
     * that succeed; seeds and hits are not reported). Called outside
     * all cache locks, possibly from several worker threads at once —
     * the hook synchronizes itself. Set before workers run; pass
     * nullptr to detach.
     */
    void setPublishHook(
        std::function<void(const std::string &key, const CachedVerdict &)>
            hook);

    Stats stats() const
    {
        return Stats{hits_.load(std::memory_order_relaxed),
                     misses_.load(std::memory_order_relaxed),
                     evictions_.load(std::memory_order_relaxed)};
    }

    /** Number of cached keys (counts in-flight computations too). */
    size_t size() const;

    /** Drop all entries and reset the counters. */
    void clear();

  private:
    struct Entry
    {
        std::mutex mutex;
        std::condition_variable ready_cv;
        std::atomic<bool> ready{false};
        bool failed = false; ///< owner's compute threw; do not reuse
        CachedVerdict value;
    };
    struct Shard
    {
        std::mutex mutex;
        std::unordered_map<std::string, std::shared_ptr<Entry>> map;
        /** Keys in insertion order; may hold stale keys for entries
         *  already erased (abandoned computes) — eviction skips them. */
        std::deque<std::string> order;
    };

    Shard &shardOf(const std::string &key);
    void evictOverCap(Shard &shard);
    void publish(const std::string &key, const CachedVerdict &value);

    unsigned shard_count_;
    size_t max_entries_;
    size_t shard_cap_; ///< per-shard bound derived from max_entries
    std::unique_ptr<Shard[]> shards_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> evictions_{0};

    mutable std::mutex hook_mutex_;
    std::function<void(const std::string &, const CachedVerdict &)>
        publish_hook_;
};

} // namespace lpo::verify

#endif // LPO_VERIFY_CACHE_H
