/**
 * @file
 * Crash-safe append-only key/value store (the durability primitive
 * under the persistent verify cache and the learned rewrite catalog;
 * see verify/persist.h for the clients and DESIGN.md, "Persistent
 * verify store", for the invariants).
 *
 * One store is one file: a checksummed, versioned header followed by
 * length-prefixed records, each carrying two CRC32s — one over its
 * frame (the length fields) and one over its payload. Writes are
 * append-only journal appends (a record is written with a single
 * write(2) call); rewrites (compaction, corruption repair) go through
 * the atomic snapshot path: write everything to `<path>.tmp`, fsync,
 * rename over the original. A reader therefore always sees either the
 * old file or the new one, never a mix.
 *
 * Recovery-on-open never crashes and never yields a corrupt record:
 *  - a record that extends past EOF (a torn append — the process was
 *    killed mid-write) truncates the file at the record's start;
 *  - a record whose frame CRC holds but whose payload CRC does not
 *    (bit rot, a partially synced page) is copied verbatim to the
 *    `<path>.quarantine` sidecar and skipped; the file is then
 *    rewritten without it via the snapshot path;
 *  - a record whose frame CRC fails leaves no trustworthy way to find
 *    the next record, so the remainder of the file is quarantined and
 *    truncated.
 *
 * Version and option skew is rejected, never reinterpreted: a header
 * whose magic, format version, client tag, or options key differs
 * from what the caller expects fails open() with a Rejected status
 * and leaves the file byte-untouched — the caller runs memory-only
 * rather than guessing at another format's bytes (see DESIGN.md for
 * why migration is a non-goal).
 *
 * Failpoints (chaos-testable end to end, see support/failpoint.h):
 * `store.write.fail` (append drops its record), `store.fsync.fail`
 * (sync reports failure), `store.load.corrupt` (a loaded record is
 * treated as payload-corrupt and quarantined).
 */
#ifndef LPO_SUPPORT_KVSTORE_H
#define LPO_SUPPORT_KVSTORE_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace lpo {

/** CRC-32 (IEEE 802.3 polynomial, the zlib convention), computed
 *  slicing-by-8. */
uint32_t crc32(const void *data, size_t size, uint32_t seed = 0);

/** Identity a store file is opened against; any mismatch rejects. */
struct KvOpenOptions
{
    /** Client identity (e.g. "lpo-verify-cache"); a catalog file can
     *  never be misread as a cache file. */
    std::string client_tag;
    /** On-disk format version of the client's record payloads. */
    uint32_t format_version = 1;
    /** Fingerprint of everything else that must match for records to
     *  be meaningful (e.g. the cache-key schema version). */
    std::string options_key;
    /** Open for inspection only: no header creation, no repair. */
    bool read_only = false;
};

/** Outcome of KvStore::open. Only Fresh and Loaded are usable. */
enum class KvOpen {
    Fresh,           ///< no prior data; header written (unless read-only)
    Loaded,          ///< records streamed to the callback (repairs done)
    RejectedFormat,  ///< magic missing or header unreadably corrupt
    RejectedVersion, ///< header format_version != expected
    RejectedTag,     ///< header client_tag != expected
    RejectedOptions, ///< header options_key != expected
    IoError,         ///< file unopenable/unreadable (permissions, ...)
};

const char *kvOpenName(KvOpen status);
inline bool
kvOpenUsable(KvOpen status)
{
    return status == KvOpen::Fresh || status == KvOpen::Loaded;
}

/** What recovery-on-open found and did. */
struct KvLoadStats
{
    uint64_t records = 0;     ///< valid records streamed out
    uint64_t quarantined = 0; ///< corrupt records moved to the sidecar
    uint64_t torn_bytes = 0;  ///< tail bytes truncated (torn append)
    bool recovered = false;   ///< any truncation or quarantine happened
};

class KvStore
{
  public:
    /** Called once per valid record during open, in file order. */
    using RecordFn =
        std::function<void(std::string &&key, std::string &&value)>;

    KvStore() = default;
    ~KvStore();

    KvStore(const KvStore &) = delete;
    KvStore &operator=(const KvStore &) = delete;

    /**
     * Open @p path, validate its header against @p options, recover,
     * and stream every valid record into @p on_record. On a Rejected
     * status the file is left untouched and the store is unusable
     * (isOpen() false); the caller decides whether to proceed
     * memory-only. @p error receives a human-readable reason for
     * anything other than Fresh/Loaded.
     */
    KvOpen open(const std::string &path, const KvOpenOptions &options,
                const RecordFn &on_record, std::string *error = nullptr);

    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }
    const KvLoadStats &loadStats() const { return load_stats_; }

    /**
     * Append one record to the journal (a single write call, so a
     * crash leaves at most one torn record for recovery to truncate).
     * Returns false — dropping the record, run unaffected — when the
     * store is not open, the write failed, or `store.write.fail`
     * fired. A real write error additionally poisons the store
     * (healthy() false): later appends fail fast.
     */
    bool append(const std::string &key, const std::string &value);

    /** fsync the journal; false on failure or `store.fsync.fail`. */
    bool sync();

    /**
     * Atomically replace the file's contents with header + @p records
     * (write `<path>.tmp`, fsync, rename). Used by compaction and by
     * recovery's corrupt-record repair.
     */
    bool snapshot(
        const std::vector<std::pair<std::string, std::string>> &records,
        std::string *error = nullptr);

    /** True until a real (non-injected) I/O error poisons the store. */
    bool healthy() const { return healthy_; }

    uint64_t appends() const { return appends_; }
    uint64_t appendFailures() const { return append_failures_; }

    void close();

    /**
     * Read-only scan for `lpo store info|verify`: header check plus a
     * full CRC walk, no repairs, no side effects. @p on_record may be
     * null when only the stats are wanted.
     */
    static KvOpen inspect(const std::string &path,
                          const KvOpenOptions &options,
                          const RecordFn &on_record, KvLoadStats *stats,
                          std::string *error = nullptr);

    /** Default `.quarantine` sidecar cap (see setQuarantineCap). */
    static constexpr size_t kDefaultQuarantineCap = 1u << 20;

    /**
     * Cap the `.quarantine` sidecar's size, process-wide. When an
     * append would grow it past the cap, the oldest bytes are dropped
     * first (rotation): a persistently faulty disk keeps its newest
     * corruption for diagnosis without unbounded growth. 0 disables
     * the cap.
     */
    static void setQuarantineCap(size_t bytes);
    static size_t quarantineCap();

    /** Size in bytes of @p path's `.quarantine` sidecar (0 if none). */
    static uint64_t quarantineSize(const std::string &path);

    /**
     * Crash-test seam: after @p bytes more bytes have been written
     * through this process's KvStore appends/snapshots, the write in
     * flight is cut short at exactly that offset and the process is
     * SIGKILLed — a real torn write at a chosen offset, for the
     * fork-based recovery harness in tests/test_persist.cc. Negative
     * disarms (the default).
     */
    static void testKillAfterBytes(int64_t bytes);

  private:
    int fd_ = -1;
    std::string path_;
    KvOpenOptions options_;
    KvLoadStats load_stats_;
    bool healthy_ = true;
    uint64_t appends_ = 0;
    uint64_t append_failures_ = 0;
};

} // namespace lpo

#endif // LPO_SUPPORT_KVSTORE_H
