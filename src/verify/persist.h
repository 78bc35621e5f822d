/**
 * @file
 * Persistent verify store: the two durable clients layered on
 * support/kvstore.h (see DESIGN.md, "Persistent verify store").
 *
 * A store is a directory holding two independent KvStore files:
 *
 *  - `verify.lpo` — the verification cache, mapping refine.cc's
 *    opaque cache keys (canonical pair print + every verdict-
 *    affecting option) to serialized CachedVerdicts. Loaded entries
 *    are seeded into the in-memory VerifyCache before workers run;
 *    fresh verdicts are collected through the cache's publish hook
 *    and journaled on flush. Because the key already embeds the
 *    option fingerprint, a run with different verification options
 *    simply misses — stale entries can never change a verdict.
 *
 *  - `catalog.lpo` — the learned rewrite catalog, mapping the
 *    canonical print of a source sequence to a normalized, parseable
 *    rendering of a candidate that once verified against it. The
 *    catalog powers core::CatalogProposer, the zero-SAT-cost first
 *    leg of hybrid mode. Contract: a catalog candidate is a HINT,
 *    never a proof — it re-enters the pipeline as ordinary proposal
 *    text and passes through opt, the interestingness gate, and full
 *    verification (which hits the seeded verify cache when options
 *    match, making the replay cheap; when they don't, it re-proves).
 *    The catalog can therefore never introduce an unproved rewrite.
 *
 *    The same file holds a second record kind, the remembered miss:
 *    a case's final no-find outcome, keyed by missKey() on everything
 *    that decided it (see core::Pipeline). A miss replays its status
 *    with no proposer and no verifier call. It can only withhold an
 *    optimization, never patch one, so it adds nothing to the trust
 *    root. Miss keys open with kMissKeyTag, a byte no canonical print
 *    starts with, so a pre-miss catalog file opens unchanged and
 *    lookup() never sees a miss.
 *
 * Determinism: proposers must be deterministic in their inputs, so
 * catalog lookups (rewrites and misses alike) only ever see the state
 * loaded at open time; records made mid-run go to a pending set that
 * becomes visible on the NEXT open. Flush order is sorted by key, so
 * the file bytes are reproducible regardless of worker scheduling.
 *
 * Failure policy: persistence is strictly best-effort — any open,
 * append, or fsync failure degrades to in-memory operation (counted
 * in StoreStats, warned once by the CLI) and never aborts or changes
 * the result of a run.
 */
#ifndef LPO_VERIFY_PERSIST_H
#define LPO_VERIFY_PERSIST_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "support/kvstore.h"
#include "verify/cache.h"

namespace lpo::ir {
class Function;
}

namespace lpo::verify {

/** File names and identity constants (shared with `lpo store`). */
constexpr const char *kVerifyStoreFile = "verify.lpo";
constexpr const char *kCatalogStoreFile = "catalog.lpo";
KvOpenOptions verifyStoreFileOptions(bool read_only = false);
KvOpenOptions catalogStoreFileOptions(bool read_only = false);

/**
 * First byte of every miss key in catalog.lpo. Canonical prints start
 * with "define", so no rewrite key can begin with it. A change to the
 * miss key or payload layout takes a new tag byte; records under the
 * old one then simply never match.
 */
constexpr char kMissKeyTag = '\x01';

/** A miss record's key: the tag, @p fingerprint (everything besides
 *  the sequence that decides the case's outcome), then the sequence's
 *  canonical print. */
std::string missKey(const std::string &fingerprint,
                    const std::string &src_canonical);

inline bool
isMissKey(const std::string &key)
{
    return !key.empty() && key[0] == kMissKeyTag;
}

/** Serialize a CachedVerdict for the verify.lpo record payload. */
std::string encodeVerdict(const CachedVerdict &verdict);
/** Decode; false (no partial output) on any malformed payload. */
bool decodeVerdict(const std::string &payload, CachedVerdict *out);

/**
 * Render @p text (a verified candidate function) in normalized,
 * parseable form: function renamed to @t, arguments to %a0, %a1, ...,
 * instruction results to %v0, %v1, ... — so alpha-renamed duplicates
 * of one rewrite share one catalog record. Unlike
 * printFunctionCanonical this output re-parses (block labels are kept,
 * and skipped entirely when renaming could collide with one). Returns
 * @p text unchanged if it does not parse.
 */
std::string normalizeCandidateText(const std::string &text);

/** Persistence counters, all monotone over the store's lifetime. */
struct StoreStats
{
    uint64_t cache_loaded = 0;    ///< verdicts seeded from verify.lpo
    uint64_t catalog_loaded = 0;  ///< rewrites loaded from catalog.lpo
    uint64_t misses_loaded = 0;   ///< misses loaded from catalog.lpo
    uint64_t cache_flushed = 0;   ///< verdict records appended
    uint64_t catalog_flushed = 0; ///< rewrite records appended
    uint64_t misses_flushed = 0;  ///< miss records appended
    uint64_t flushes = 0;         ///< flush() calls that ran
    uint64_t flush_failures = 0;  ///< append/fsync failures (records
                                  ///< are retained and retried)
    uint64_t recoveries = 0;      ///< files needing truncate/rewrite
    uint64_t quarantined = 0;     ///< corrupt records sidelined
    uint64_t torn_bytes = 0;      ///< torn-tail bytes truncated
    uint64_t rejected_files = 0;  ///< files refused for version/option
                                  ///< skew (left untouched)
    uint64_t decode_skipped = 0;  ///< records whose payload failed to
                                  ///< decode (skipped, not trusted)
};

/**
 * The learned rewrite catalog and the remembered misses. Lookups are
 * lock-free reads of the open-time snapshot (immutable once workers
 * run); record()/recordMiss() collect into one pending set flushed
 * with the store. Thread-safe.
 */
class RewriteCatalog
{
  public:
    /**
     * A candidate once verified for the sequence whose canonical
     * print is @p src_canonical, or nullopt. Only open-time entries
     * are visible (determinism: within one run every worker sees the
     * same catalog regardless of scheduling).
     */
    const std::string *lookup(const std::string &src_canonical) const;

    /**
     * Remember that @p candidate_text verified against the sequence
     * printing canonically as @p src_canonical. The text is
     * normalized; first recording wins. Returns whether a new pending
     * record was created.
     */
    bool record(const std::string &src_canonical,
                const std::string &candidate_text);

    /** The outcome remembered under @p miss_key (see missKey), or
     *  null. Open-time entries only, like lookup(). */
    const std::string *lookupMiss(const std::string &miss_key) const;

    /** Remember @p outcome under @p miss_key; first recording wins.
     *  Returns whether a new pending record was created. */
    bool recordMiss(const std::string &miss_key, std::string outcome);

    /** Load-time population (before workers run; not thread-safe).
     *  Routes miss keys to the miss map. */
    void addLoaded(std::string key, std::string value);

    size_t pendingSize() const;

    /** Drain the pending records of both kinds, sorted by key (flush
     *  path); the drained entries stay remembered for dedup and
     *  compaction. */
    std::map<std::string, std::string> takePending();

    /** Return records whose append failed to the pending set (and
     *  un-remember them as flushed) so the next flush retries them —
     *  the transient-fault contract lpo_serve's backoff ladder needs. */
    void requeuePending(const std::map<std::string, std::string> &failed);

    /** Drop the pending records without remembering them (fault
     *  quarantine: see PersistentStore::discardPending). */
    void discardPending();

    /** Every known record of both kinds — loaded, flushed, and
     *  pending — merged (first recording wins), for compaction
     *  snapshots. */
    std::map<std::string, std::string> snapshotAll() const;

  private:
    bool addPending(const std::string &key, std::string value);

    std::map<std::string, std::string> loaded_;
    std::map<std::string, std::string> loaded_misses_;
    mutable std::mutex pending_mutex_;
    std::map<std::string, std::string> pending_;
    std::map<std::string, std::string> flushed_; ///< drained batches
};

/**
 * One open store directory: verify.lpo wired to a VerifyCache (seed
 * on open, journal via publish hook, flush on close) plus the
 * rewrite catalog. Create via open(); a null return means "run
 * memory-only" and carries a one-line warning for the caller to
 * surface.
 */
class PersistentStore
{
  public:
    /**
     * Open (creating the directory and files as needed) and seed
     * @p cache. Skewed or corrupt-beyond-recovery files are left
     * untouched and reported through stats().rejected_files — the
     * matching client then runs memory-only while the other may still
     * persist. Returns nullptr (with @p warning set) only when the
     * directory itself cannot be used. Detaches from @p cache (and
     * flushes) on destruction; @p cache must outlive the store.
     */
    static std::unique_ptr<PersistentStore>
    open(const std::string &dir, VerifyCache *cache,
         std::string *warning = nullptr);

    ~PersistentStore();

    PersistentStore(const PersistentStore &) = delete;
    PersistentStore &operator=(const PersistentStore &) = delete;

    RewriteCatalog &catalog() { return catalog_; }
    const RewriteCatalog &catalog() const { return catalog_; }

    /**
     * Append every pending verdict, rewrite and miss (sorted by key)
     * and fsync both files. Safe to call repeatedly; a record that
     * fails to append is counted in flush_failures and kept pending,
     * so a later flush retries it (transient faults lose nothing; see
     * lpo_serve's retry-with-backoff ladder). A failed flush never
     * corrupts existing records. discardPending() drops the retained
     * records when a caller decides they are not trustworthy.
     */
    bool flush();

    /**
     * Rewrite both files as deduplicated snapshots of current
     * in-memory state (cache contents + catalog rewrites and misses),
     * dropping dead
     * journal growth. Implies flush of pending state. Fails (with
     * @p error) on a read-only store.
     */
    bool compact(std::string *error = nullptr);

    /**
     * Drop every pending (not yet journaled) verdict, rewrite and
     * miss. Fault quarantine for callers that detect an injected or
     * contained fault mid-run (lpo_serve's replay path): anything
     * recorded during the faulty window is distrusted and discarded
     * before it can reach disk; already-journaled state is untouched.
     */
    void discardPending();

    StoreStats stats() const;

    const std::string &dir() const { return dir_; }
    /** True if the verify cache file accepted our header. */
    bool cacheFileUsable() const { return cache_kv_.isOpen(); }
    bool catalogFileUsable() const { return catalog_kv_.isOpen(); }

    /**
     * True when another process holds the store's advisory lock
     * (`<dir>/.lock`, flock-based): this opener loaded whatever state
     * was on disk but will never write — flush() discards pending
     * records, compact() fails. The lock is per open file description,
     * so a second open in the same process degrades the same way.
     */
    bool readOnly() const { return read_only_; }

  private:
    PersistentStore(std::string dir, VerifyCache *cache);

    std::string dir_;
    VerifyCache *cache_;
    int lock_fd_ = -1;       ///< holds the flock while open
    bool read_only_ = false; ///< lost the lock race; never writes
    KvStore cache_kv_;
    KvStore catalog_kv_;
    RewriteCatalog catalog_;

    mutable std::mutex mutex_; ///< guards pending_verdicts_ + stats_
    std::map<std::string, std::string> pending_verdicts_;
    StoreStats stats_;
};

} // namespace lpo::verify

#endif // LPO_VERIFY_PERSIST_H
