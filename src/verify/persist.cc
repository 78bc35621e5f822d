#include "verify/persist.h"

#include <cctype>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "ir/function.h"
#include "ir/parser.h"
#include "ir/printer.h"

namespace lpo::verify {

namespace {

// Bump when the encodeVerdict payload layout changes; decodeVerdict
// refuses other versions (the record is skipped, never reinterpreted).
constexpr uint8_t kVerdictPayloadVersion = 1;

void
putU32(std::string *out, uint32_t v)
{
    out->push_back(static_cast<char>(v & 0xFF));
    out->push_back(static_cast<char>((v >> 8) & 0xFF));
    out->push_back(static_cast<char>((v >> 16) & 0xFF));
    out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

void
putU64(std::string *out, uint64_t v)
{
    putU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
    putU32(out, static_cast<uint32_t>(v >> 32));
}

/** Bounds-checked little-endian reader over a string payload. */
struct Reader
{
    const std::string &data;
    size_t pos = 0;
    bool ok = true;

    uint8_t u8()
    {
        if (pos + 1 > data.size()) {
            ok = false;
            return 0;
        }
        return static_cast<uint8_t>(data[pos++]);
    }
    uint32_t u32()
    {
        if (pos + 4 > data.size()) {
            ok = false;
            return 0;
        }
        const unsigned char *p =
            reinterpret_cast<const unsigned char *>(data.data() + pos);
        pos += 4;
        return static_cast<uint32_t>(p[0]) |
               static_cast<uint32_t>(p[1]) << 8 |
               static_cast<uint32_t>(p[2]) << 16 |
               static_cast<uint32_t>(p[3]) << 24;
    }
    uint64_t u64()
    {
        uint64_t lo = u32();
        uint64_t hi = u32();
        return lo | hi << 32;
    }
    std::string blob()
    {
        uint32_t len = u32();
        if (!ok || pos + len > data.size()) {
            ok = false;
            return {};
        }
        std::string out = data.substr(pos, len);
        pos += len;
        return out;
    }
};

} // namespace

KvOpenOptions
verifyStoreFileOptions(bool read_only)
{
    KvOpenOptions options;
    options.client_tag = "lpo-verify-cache";
    options.format_version = 1;
    // Pins refine.cc's cacheKey schema ("v1" prefix) plus the verdict
    // payload layout: either changing bumps this string, and older
    // files are rejected rather than misread.
    options.options_key = "cachekey-v1;verdict-v1";
    options.read_only = read_only;
    return options;
}

KvOpenOptions
catalogStoreFileOptions(bool read_only)
{
    KvOpenOptions options;
    options.client_tag = "lpo-rewrite-catalog";
    options.format_version = 1;
    // Pins printFunctionCanonical (the key) and normalizeCandidateText
    // (the value rendering).
    options.options_key = "canonical-v1;normtext-v1";
    options.read_only = read_only;
    return options;
}

std::string
encodeVerdict(const CachedVerdict &verdict)
{
    std::string out;
    out.push_back(static_cast<char>(kVerdictPayloadVersion));
    out.push_back(static_cast<char>(verdict.verdict));
    out.push_back(static_cast<char>(verdict.replay));
    putU64(&out, verdict.index);
    putU32(&out, static_cast<uint32_t>(verdict.backend.size()));
    out += verdict.backend;
    putU32(&out, static_cast<uint32_t>(verdict.detail.size()));
    out += verdict.detail;
    putU32(&out, static_cast<uint32_t>(verdict.arg_lane_words.size()));
    for (uint64_t word : verdict.arg_lane_words)
        putU64(&out, word);
    return out;
}

bool
decodeVerdict(const std::string &payload, CachedVerdict *out)
{
    Reader r{payload};
    if (r.u8() != kVerdictPayloadVersion)
        return false;
    uint8_t verdict = r.u8();
    uint8_t replay = r.u8();
    if (!r.ok || verdict > static_cast<uint8_t>(Verdict::Degraded) ||
        replay > static_cast<uint8_t>(CachedVerdict::Replay::SatArgs))
        return false;
    CachedVerdict decoded;
    decoded.verdict = static_cast<Verdict>(verdict);
    decoded.replay = static_cast<CachedVerdict::Replay>(replay);
    decoded.index = r.u64();
    decoded.backend = r.blob();
    decoded.detail = r.blob();
    uint32_t nwords = r.u32();
    if (!r.ok || payload.size() - r.pos < size_t(nwords) * 8)
        return false;
    decoded.arg_lane_words.reserve(nwords);
    for (uint32_t i = 0; i < nwords; ++i)
        decoded.arg_lane_words.push_back(r.u64());
    if (!r.ok || r.pos != payload.size())
        return false;
    *out = std::move(decoded);
    return true;
}

std::string
normalizeCandidateText(const std::string &text)
{
    ir::Context context;
    auto parsed = ir::parseFunction(context, text);
    if (!parsed.ok())
        return text;
    ir::Function &fn = **parsed;

    // Block labels share the printer's %-namespace with value names;
    // a label that already looks like a normalized value name could
    // collide with the renames below, so such functions are stored as
    // plain reprints (stable, just not cross-name deduplicated).
    auto looksNormalized = [](const std::string &name) {
        if (name.size() < 2 || (name[0] != 'a' && name[0] != 'v'))
            return false;
        for (size_t i = 1; i < name.size(); ++i)
            if (!std::isdigit(static_cast<unsigned char>(name[i])))
                return false;
        return true;
    };
    fn.setName("t");
    for (const auto &block : fn.blocks())
        if (looksNormalized(block->label()))
            return ir::printFunction(fn);

    unsigned next_arg = 0;
    for (const auto &arg : fn.args())
        arg->setName("a" + std::to_string(next_arg++));
    unsigned next_value = 0;
    for (const auto &block : fn.blocks())
        for (const auto &inst : block->instructions())
            if (!inst->type()->isVoid())
                inst->setName("v" + std::to_string(next_value++));
    return ir::printFunction(fn);
}

std::string
missKey(const std::string &fingerprint, const std::string &src_canonical)
{
    std::string key(1, kMissKeyTag);
    key += fingerprint;
    key += src_canonical;
    return key;
}

// --- RewriteCatalog --------------------------------------------------

const std::string *
RewriteCatalog::lookup(const std::string &src_canonical) const
{
    auto it = loaded_.find(src_canonical);
    return it == loaded_.end() ? nullptr : &it->second;
}

bool
RewriteCatalog::record(const std::string &src_canonical,
                       const std::string &candidate_text)
{
    if (loaded_.count(src_canonical))
        return false;
    return addPending(src_canonical, normalizeCandidateText(candidate_text));
}

const std::string *
RewriteCatalog::lookupMiss(const std::string &miss_key) const
{
    auto it = loaded_misses_.find(miss_key);
    return it == loaded_misses_.end() ? nullptr : &it->second;
}

bool
RewriteCatalog::recordMiss(const std::string &miss_key, std::string outcome)
{
    if (loaded_misses_.count(miss_key))
        return false;
    return addPending(miss_key, std::move(outcome));
}

bool
RewriteCatalog::addPending(const std::string &key, std::string value)
{
    std::lock_guard<std::mutex> lock(pending_mutex_);
    if (flushed_.count(key))
        return false;
    return pending_.emplace(key, std::move(value)).second;
}

void
RewriteCatalog::addLoaded(std::string key, std::string value)
{
    (isMissKey(key) ? loaded_misses_ : loaded_)
        .emplace(std::move(key), std::move(value));
}

size_t
RewriteCatalog::pendingSize() const
{
    std::lock_guard<std::mutex> lock(pending_mutex_);
    return pending_.size();
}

void
RewriteCatalog::discardPending()
{
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_.clear();
}

void
RewriteCatalog::requeuePending(
    const std::map<std::string, std::string> &failed)
{
    std::lock_guard<std::mutex> lock(pending_mutex_);
    for (const auto &[key, value] : failed) {
        flushed_.erase(key);
        pending_.emplace(key, value);
    }
}

std::map<std::string, std::string>
RewriteCatalog::takePending()
{
    std::lock_guard<std::mutex> lock(pending_mutex_);
    std::map<std::string, std::string> drained = std::move(pending_);
    pending_.clear();
    // Remember what went to disk so record() keeps deduplicating and
    // compaction can rebuild the full contents.
    for (const auto &[key, value] : drained)
        flushed_.emplace(key, value);
    return drained;
}

std::map<std::string, std::string>
RewriteCatalog::snapshotAll() const
{
    std::map<std::string, std::string> all = loaded_;
    all.insert(loaded_misses_.begin(), loaded_misses_.end());
    std::lock_guard<std::mutex> lock(pending_mutex_);
    for (const auto &[key, value] : flushed_)
        all.emplace(key, value);
    for (const auto &[key, value] : pending_)
        all.emplace(key, value);
    return all;
}

// --- PersistentStore -------------------------------------------------

PersistentStore::PersistentStore(std::string dir, VerifyCache *cache)
    : dir_(std::move(dir)), cache_(cache)
{
}

std::unique_ptr<PersistentStore>
PersistentStore::open(const std::string &dir, VerifyCache *cache,
                      std::string *warning)
{
    if (warning)
        warning->clear();
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
        if (warning)
            *warning = "store '" + dir + "' unusable (" +
                       std::strerror(errno) +
                       "); continuing without persistence";
        return nullptr;
    }
    struct stat st;
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
        if (warning)
            *warning = "store '" + dir +
                       "' is not a directory; continuing without "
                       "persistence";
        return nullptr;
    }

    std::unique_ptr<PersistentStore> store(
        new PersistentStore(dir, cache));

    // Advisory single-writer lock on the directory. flock is per open
    // file description, so a second opener — another process, or a
    // second store in this one — loses the race and degrades to
    // read-only: it loads whatever is on disk but never appends,
    // syncs, or compacts, so two writers can never interleave journal
    // appends or race a snapshot rename.
    store->lock_fd_ =
        ::open((dir + "/.lock").c_str(), O_RDWR | O_CREAT, 0644);
    if (store->lock_fd_ < 0 ||
        ::flock(store->lock_fd_, LOCK_EX | LOCK_NB) != 0) {
        if (store->lock_fd_ >= 0) {
            ::close(store->lock_fd_);
            store->lock_fd_ = -1;
        }
        store->read_only_ = true;
    }
    const bool read_only = store->read_only_;
    std::string problems;

    std::string error;
    KvOpen status = store->cache_kv_.open(
        dir + "/" + kVerifyStoreFile, verifyStoreFileOptions(read_only),
        [&](std::string &&key, std::string &&value) {
            CachedVerdict verdict;
            if (!decodeVerdict(value, &verdict)) {
                store->stats_.decode_skipped += 1;
                return;
            }
            if (cache && cache->seed(key, std::move(verdict)))
                store->stats_.cache_loaded += 1;
        },
        &error);
    {
        const KvLoadStats &load = store->cache_kv_.loadStats();
        store->stats_.quarantined += load.quarantined;
        store->stats_.torn_bytes += load.torn_bytes;
        store->stats_.recoveries += load.recovered ? 1 : 0;
    }
    if (!kvOpenUsable(status)) {
        // A read-only opener of a store the writer has not created
        // yet simply has nothing to load — not a rejection.
        if (!(read_only && status == KvOpen::IoError)) {
            store->stats_.rejected_files += 1;
            problems = error;
        }
    }

    status = store->catalog_kv_.open(
        dir + "/" + kCatalogStoreFile, catalogStoreFileOptions(read_only),
        [&](std::string &&key, std::string &&value) {
            (isMissKey(key) ? store->stats_.misses_loaded
                            : store->stats_.catalog_loaded) += 1;
            store->catalog_.addLoaded(std::move(key), std::move(value));
        },
        &error);
    {
        const KvLoadStats &load = store->catalog_kv_.loadStats();
        store->stats_.quarantined += load.quarantined;
        store->stats_.torn_bytes += load.torn_bytes;
        store->stats_.recoveries += load.recovered ? 1 : 0;
    }
    if (!kvOpenUsable(status)) {
        if (!(read_only && status == KvOpen::IoError)) {
            store->stats_.rejected_files += 1;
            if (!problems.empty())
                problems += "; ";
            problems += error;
        }
    }

    if (!problems.empty() && warning)
        // Skewed/unreadable files degrade that client to memory-only;
        // the run itself continues either way.
        *warning = "store '" + dir + "': " + problems +
                   " (affected data kept on disk untouched; running "
                   "without it)";
    if (read_only && warning) {
        if (!warning->empty())
            *warning += "; ";
        *warning += "store '" + dir +
                    "' is locked by another writer; running read-only "
                    "(loaded state served, nothing will be persisted)";
    }

    if (cache)
        cache->setPublishHook(
            [raw = store.get()](const std::string &key,
                                const CachedVerdict &value) {
                std::lock_guard<std::mutex> lock(raw->mutex_);
                raw->pending_verdicts_[key] = encodeVerdict(value);
            });
    return store;
}

PersistentStore::~PersistentStore()
{
    if (cache_)
        cache_->setPublishHook(nullptr);
    flush();
    if (lock_fd_ >= 0) {
        // Closing releases the flock; the .lock file itself stays
        // (unlinking would race a concurrent opener's flock).
        ::close(lock_fd_);
        lock_fd_ = -1;
    }
}

bool
PersistentStore::flush()
{
    if (read_only_) {
        // Locked out: drop what would have been journaled so a
        // long-lived read-only opener cannot grow pending state
        // without bound. Succeeds — there is nothing it should do.
        discardPending();
        return true;
    }
    std::map<std::string, std::string> verdicts;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        verdicts = std::move(pending_verdicts_);
        pending_verdicts_.clear();
        stats_.flushes += 1;
    }
    uint64_t flushed_cache = 0, flushed_catalog = 0, flushed_misses = 0;
    uint64_t failures = 0;
    bool ok = true;
    // Failed appends are kept for the next flush (re-queued below):
    // a transient write fault delays durability, it does not silently
    // lose the record. Callers that distrust the records instead call
    // discardPending().
    std::map<std::string, std::string> failed_verdicts;
    if (cache_kv_.isOpen()) {
        for (const auto &[key, payload] : verdicts) {
            if (cache_kv_.append(key, payload)) {
                ++flushed_cache;
            } else {
                ++failures;
                failed_verdicts.emplace(key, payload);
            }
        }
        if (!verdicts.empty() && !cache_kv_.sync())
            ok = false;
    }
    std::map<std::string, std::string> records = catalog_.takePending();
    if (catalog_kv_.isOpen()) {
        std::map<std::string, std::string> failed_records;
        for (const auto &[key, value] : records) {
            if (catalog_kv_.append(key, value)) {
                ++(isMissKey(key) ? flushed_misses : flushed_catalog);
            } else {
                ++failures;
                failed_records.emplace(key, value);
            }
        }
        if (!records.empty() && !catalog_kv_.sync())
            ok = false;
        if (!failed_records.empty())
            catalog_.requeuePending(failed_records);
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.cache_flushed += flushed_cache;
        stats_.catalog_flushed += flushed_catalog;
        stats_.misses_flushed += flushed_misses;
        stats_.flush_failures += failures;
        for (auto &[key, payload] : failed_verdicts)
            pending_verdicts_.emplace(key, std::move(payload));
    }
    return ok && failures == 0;
}

bool
PersistentStore::compact(std::string *error)
{
    if (read_only_) {
        if (error)
            *error = "store '" + dir_ +
                     "' is locked by another writer (read-only)";
        return false;
    }
    flush();
    bool ok = true;
    if (cache_kv_.isOpen() && cache_) {
        // Deduplicated, key-sorted image of the live cache. Entries
        // evicted from memory are dropped from disk too — compaction
        // shrinks the store to what the process still considers hot.
        std::map<std::string, std::string> records;
        cache_->forEach(
            [&](const std::string &key, const CachedVerdict &value) {
                records.emplace(key, encodeVerdict(value));
            });
        std::vector<std::pair<std::string, std::string>> flat(
            records.begin(), records.end());
        ok = cache_kv_.snapshot(flat, error) && ok;
    }
    if (catalog_kv_.isOpen()) {
        std::map<std::string, std::string> all = catalog_.snapshotAll();
        std::vector<std::pair<std::string, std::string>> flat(
            all.begin(), all.end());
        ok = catalog_kv_.snapshot(flat, error) && ok;
    }
    return ok;
}

void
PersistentStore::discardPending()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_verdicts_.clear();
    }
    catalog_.discardPending();
}

StoreStats
PersistentStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace lpo::verify
