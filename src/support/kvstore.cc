#include "support/kvstore.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "support/failpoint.h"
#include "support/telemetry.h"

namespace lpo {

namespace {

// File layout:
//   magic (8 bytes) | u32 meta_len | u32 meta_crc | meta bytes
//   then zero or more records:
//   u32 klen | u32 vlen | u32 hcrc | u32 pcrc | key bytes | value bytes
// where hcrc covers the 8 length bytes (so a torn or garbled frame is
// detected before klen/vlen are trusted) and pcrc covers key||value.
// meta = u32 format_version | u32 tag_len | tag | u32 opt_len | opt.
// All integers are little-endian (encoded explicitly, so the file is
// portable across hosts).
constexpr char kMagic[8] = {'L', 'P', 'O', 'K', 'V', 'S', '1', '\n'};
constexpr size_t kRecordHeaderSize = 16;
// Sanity bound on any single length field; a frame that passes its CRC
// but claims a larger payload is treated as corrupt rather than
// triggering a multi-gigabyte allocation.
constexpr uint32_t kMaxFieldSize = 1u << 28;

// Slicing-by-8 CRC32 tables (IEEE 802.3 reflected polynomial), built
// once: t[0] is the classic bytewise table, and t[k][i] is the CRC of
// byte i followed by k zero bytes, so eight input bytes fold in with
// eight independent lookups.
struct CrcTables
{
    uint32_t t[8][256];

    CrcTables()
    {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (uint32_t i = 0; i < 256; ++i)
            for (int k = 1; k < 8; ++k)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
};

const CrcTables &
crcTables()
{
    static const CrcTables tables;
    return tables;
}

void
putU32(std::string *out, uint32_t v)
{
    out->push_back(static_cast<char>(v & 0xFF));
    out->push_back(static_cast<char>((v >> 8) & 0xFF));
    out->push_back(static_cast<char>((v >> 16) & 0xFF));
    out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

uint32_t
getU32(const char *p)
{
    const unsigned char *u = reinterpret_cast<const unsigned char *>(p);
    return static_cast<uint32_t>(u[0]) | static_cast<uint32_t>(u[1]) << 8 |
           static_cast<uint32_t>(u[2]) << 16 |
           static_cast<uint32_t>(u[3]) << 24;
}

std::string
encodeHeader(const KvOpenOptions &options)
{
    std::string meta;
    putU32(&meta, options.format_version);
    putU32(&meta, static_cast<uint32_t>(options.client_tag.size()));
    meta += options.client_tag;
    putU32(&meta, static_cast<uint32_t>(options.options_key.size()));
    meta += options.options_key;

    std::string header(kMagic, sizeof(kMagic));
    putU32(&header, static_cast<uint32_t>(meta.size()));
    putU32(&header, crc32(meta.data(), meta.size()));
    header += meta;
    return header;
}

std::string
encodeRecord(const std::string &key, const std::string &value)
{
    std::string lengths;
    putU32(&lengths, static_cast<uint32_t>(key.size()));
    putU32(&lengths, static_cast<uint32_t>(value.size()));

    std::string record = lengths;
    putU32(&record, crc32(lengths.data(), lengths.size()));
    uint32_t pcrc = crc32(key.data(), key.size());
    pcrc = crc32(value.data(), value.size(), pcrc);
    putU32(&record, pcrc);
    record += key;
    record += value;
    return record;
}

// --- Crash-test seam -------------------------------------------------
//
// When armed, every byte written through writeAll (appends, headers,
// snapshot bodies) counts against the budget; the write that would
// cross it is truncated at exactly the budget boundary and the process
// SIGKILLs itself, producing a genuine torn write at a caller-chosen
// offset. Plain int64_t (not atomic): the seam is armed in a freshly
// forked single-threaded child.
int64_t g_kill_after_bytes = -1;

/** write(2) the whole buffer, honoring the crash-test seam. */
bool
writeAll(int fd, const char *data, size_t size)
{
    if (g_kill_after_bytes >= 0) {
        if (static_cast<int64_t>(size) > g_kill_after_bytes) {
            size_t partial = static_cast<size_t>(g_kill_after_bytes);
            size_t done = 0;
            while (done < partial) {
                ssize_t n = ::write(fd, data + done, partial - done);
                if (n <= 0)
                    break;
                done += static_cast<size_t>(n);
            }
            ::fsync(fd);
            ::kill(::getpid(), SIGKILL);
            // Unreachable, but keep the compiler honest.
            return false;
        }
        g_kill_after_bytes -= static_cast<int64_t>(size);
    }
    size_t done = 0;
    while (done < size) {
        ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(n);
    }
    return true;
}

/** Read @p fd to EOF. The buffer is sized from fstat, so a file that
 *  does not grow meanwhile arrives in one read (the next returns 0). */
bool
readAll(int fd, std::string *out)
{
    struct stat st;
    size_t size = ::fstat(fd, &st) == 0 && st.st_size > 0
                      ? static_cast<size_t>(st.st_size)
                      : 0;
    out->resize(size + 1);
    size_t done = 0;
    for (;;) {
        if (done == out->size())
            out->resize(2 * out->size());
        ssize_t n = ::read(fd, out->data() + done, out->size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0) {
            out->resize(done);
            return true;
        }
        done += static_cast<size_t>(n);
    }
}

void
setError(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
}

// Cap on the `.quarantine` sidecar (see KvStore::setQuarantineCap):
// a persistently faulty disk quarantines on every recovery, and an
// unbounded diagnostic file on an already-failing disk is its own
// fault. Oldest bytes are dropped first — the newest corruption is
// the one an operator is debugging.
size_t g_quarantine_cap = KvStore::kDefaultQuarantineCap;

/** Append @p bytes to `<path>.quarantine` (best effort), rotating
 *  oldest-first so the sidecar never exceeds the cap. */
void
quarantineBytes(const std::string &path, const char *bytes, size_t size)
{
    if (!size)
        return;
    const std::string sidecar = path + ".quarantine";
    const size_t cap = g_quarantine_cap;
    if (cap && size > cap) {
        // Even alone the new region overflows: keep its newest tail.
        bytes += size - cap;
        size = cap;
    }
    if (cap) {
        struct stat st;
        size_t existing =
            ::stat(sidecar.c_str(), &st) == 0 && st.st_size > 0
                ? static_cast<size_t>(st.st_size)
                : 0;
        if (existing + size > cap) {
            // Rotate: rewrite the sidecar as the newest tail of its
            // current contents, leaving room for the incoming bytes.
            size_t keep = cap - size;
            std::string old;
            int rd = ::open(sidecar.c_str(), O_RDONLY);
            if (rd >= 0) {
                readAll(rd, &old);
                ::close(rd);
            }
            if (old.size() > keep)
                old.erase(0, old.size() - keep);
            int wr = ::open(sidecar.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (wr < 0)
                return;
            writeAll(wr, old.data(), old.size());
            ::close(wr);
        }
    }
    int fd = ::open(sidecar.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        return;
    writeAll(fd, bytes, size);
    ::close(fd);
}

/**
 * Shared header+record walk for open() and inspect(). Streams valid
 * records to @p on_record; corrupt/torn regions are described through
 * @p stats, and (in repair mode) quarantined + flagged for rewrite.
 *
 * @p repair  when true, corrupt bytes go to the sidecar and the
 *            caller is told (via @p needs_rewrite / @p truncate_at)
 *            how to make the file clean again.
 * @p valid_offsets  when non-null, receives the file offset of every
 *            valid record (the repair snapshot is rebuilt from these).
 * Returns a usable status iff the header matched @p options.
 */
KvOpen
scanFile(const std::string &path, const std::string &contents,
         const KvOpenOptions &options, const KvStore::RecordFn &on_record,
         KvLoadStats *stats, bool repair, bool *needs_rewrite,
         size_t *truncate_at, std::vector<size_t> *valid_offsets,
         std::string *error)
{
    *needs_rewrite = false;
    *truncate_at = contents.size();

    // --- Header ---
    if (contents.size() < sizeof(kMagic) + 8) {
        // Shorter than a complete header. If what is there is a prefix
        // of a valid header the process died during file creation (no
        // records could exist yet); treat as fresh rather than foreign.
        std::string expect = encodeHeader(options);
        if (contents.empty() ||
            expect.compare(0, contents.size(), contents) == 0) {
            stats->recovered = !contents.empty();
            stats->torn_bytes += contents.size();
            *truncate_at = 0;
            *needs_rewrite = !contents.empty();
            return KvOpen::Fresh;
        }
        setError(error, path + ": not an lpo kv store (no magic)");
        return KvOpen::RejectedFormat;
    }
    if (std::memcmp(contents.data(), kMagic, sizeof(kMagic)) != 0) {
        setError(error, path + ": not an lpo kv store (bad magic)");
        return KvOpen::RejectedFormat;
    }
    uint32_t meta_len = getU32(contents.data() + sizeof(kMagic));
    uint32_t meta_crc = getU32(contents.data() + sizeof(kMagic) + 4);
    size_t meta_off = sizeof(kMagic) + 8;
    if (meta_len > kMaxFieldSize ||
        meta_off + meta_len > contents.size()) {
        // Magic is intact but the meta block is torn: died mid-header.
        std::string expect = encodeHeader(options);
        if (expect.compare(0, contents.size(), contents) == 0) {
            stats->recovered = true;
            stats->torn_bytes += contents.size();
            *truncate_at = 0;
            *needs_rewrite = true;
            return KvOpen::Fresh;
        }
        setError(error, path + ": header truncated");
        return KvOpen::RejectedFormat;
    }
    const char *meta = contents.data() + meta_off;
    if (crc32(meta, meta_len) != meta_crc) {
        setError(error, path + ": header checksum mismatch");
        return KvOpen::RejectedFormat;
    }
    // Decode meta: version, tag, options key.
    if (meta_len < 4) {
        setError(error, path + ": header meta too short");
        return KvOpen::RejectedFormat;
    }
    uint32_t version = getU32(meta);
    size_t pos = 4;
    auto readBlob = [&](std::string *out) {
        if (pos + 4 > meta_len)
            return false;
        uint32_t len = getU32(meta + pos);
        pos += 4;
        if (len > meta_len || pos + len > meta_len)
            return false;
        out->assign(meta + pos, len);
        pos += len;
        return true;
    };
    std::string tag, opt;
    if (!readBlob(&tag) || !readBlob(&opt)) {
        setError(error, path + ": header meta malformed");
        return KvOpen::RejectedFormat;
    }
    if (version != options.format_version) {
        setError(error, path + ": format version " +
                            std::to_string(version) + " != expected " +
                            std::to_string(options.format_version));
        return KvOpen::RejectedVersion;
    }
    if (tag != options.client_tag) {
        setError(error,
                 path + ": client tag '" + tag + "' != expected '" +
                     options.client_tag + "'");
        return KvOpen::RejectedTag;
    }
    if (opt != options.options_key) {
        setError(error, path + ": options key mismatch ('" + opt +
                            "' != '" + options.options_key + "')");
        return KvOpen::RejectedOptions;
    }

    // --- Records ---
    size_t off = meta_off + meta_len;
    while (off < contents.size()) {
        size_t remaining = contents.size() - off;
        if (remaining < kRecordHeaderSize) {
            // Torn frame: the append died before the 16 header bytes
            // landed. Nothing after this offset is trustworthy either
            // way, and nothing complete is lost — truncate.
            stats->torn_bytes += remaining;
            stats->recovered = true;
            *truncate_at = off;
            break;
        }
        const char *frame = contents.data() + off;
        uint32_t klen = getU32(frame);
        uint32_t vlen = getU32(frame + 4);
        uint32_t hcrc = getU32(frame + 8);
        uint32_t pcrc = getU32(frame + 12);
        bool frame_ok = crc32(frame, 8) == hcrc &&
                        klen <= kMaxFieldSize && vlen <= kMaxFieldSize;
        if (!frame_ok) {
            // The lengths themselves are unreliable, so there is no
            // way to find the next record boundary: quarantine the
            // rest of the file and truncate here.
            if (repair)
                quarantineBytes(path, frame, remaining);
            stats->quarantined += 1;
            stats->recovered = true;
            *truncate_at = off;
            *needs_rewrite = repair;
            break;
        }
        size_t payload = static_cast<size_t>(klen) + vlen;
        if (remaining < kRecordHeaderSize + payload) {
            // Frame landed, payload didn't: torn append, truncate.
            stats->torn_bytes += remaining;
            stats->recovered = true;
            *truncate_at = off;
            break;
        }
        const char *body = frame + kRecordHeaderSize;
        uint32_t crc = crc32(body, klen);
        crc = crc32(body + klen, vlen, crc);
        bool corrupt_injected = repair && LPO_FAILPOINT("store.load.corrupt");
        if (crc != pcrc || corrupt_injected) {
            // Payload corrupt but the frame is sound, so the next
            // record boundary is known: quarantine just this record
            // and keep going.
            if (repair)
                quarantineBytes(path, frame, kRecordHeaderSize + payload);
            stats->quarantined += 1;
            stats->recovered = true;
            *needs_rewrite = repair;
            off += kRecordHeaderSize + payload;
            continue;
        }
        if (on_record)
            on_record(std::string(body, klen),
                      std::string(body + klen, vlen));
        if (valid_offsets)
            valid_offsets->push_back(off);
        stats->records += 1;
        off += kRecordHeaderSize + payload;
    }
    return KvOpen::Loaded;
}

} // namespace

uint32_t
crc32(const void *data, size_t size, uint32_t seed)
{
    const auto &t = crcTables().t;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; size >= 8; p += 8, size -= 8) {
        uint32_t lo = c ^ (static_cast<uint32_t>(p[0]) |
                           static_cast<uint32_t>(p[1]) << 8 |
                           static_cast<uint32_t>(p[2]) << 16 |
                           static_cast<uint32_t>(p[3]) << 24);
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; size; ++p, --size)
        c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

const char *
kvOpenName(KvOpen status)
{
    switch (status) {
      case KvOpen::Fresh: return "fresh";
      case KvOpen::Loaded: return "loaded";
      case KvOpen::RejectedFormat: return "rejected-format";
      case KvOpen::RejectedVersion: return "rejected-version";
      case KvOpen::RejectedTag: return "rejected-tag";
      case KvOpen::RejectedOptions: return "rejected-options";
      case KvOpen::IoError: return "io-error";
    }
    return "unknown";
}

KvStore::~KvStore() { close(); }

void
KvStore::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

KvOpen
KvStore::open(const std::string &path, const KvOpenOptions &options,
              const RecordFn &on_record, std::string *error)
{
    static const telemetry::Histogram open_hist =
        telemetry::histogram("kvstore.open_ns");
    telemetry::ScopedTimer timer(open_hist);
    close();
    path_ = path;
    options_ = options;
    load_stats_ = KvLoadStats{};
    healthy_ = true;

    int flags = options.read_only ? O_RDONLY : O_RDWR | O_CREAT;
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
        setError(error, path + ": " + std::strerror(errno));
        return KvOpen::IoError;
    }
    std::string contents;
    if (!readAll(fd, &contents)) {
        setError(error, path + ": read: " + std::strerror(errno));
        ::close(fd);
        return KvOpen::IoError;
    }

    bool empty = contents.empty();
    bool needs_rewrite = false;
    size_t truncate_at = contents.size();
    // Corruption later in the file flips needs_rewrite retroactively,
    // and the repair snapshot must carry the records seen before it:
    // remember where each valid record starts, and copy them out only
    // if a rewrite is actually needed.
    std::vector<size_t> valid_offsets;
    const bool repair = !options.read_only;
    KvOpen status = scanFile(path, contents, options, on_record,
                             &load_stats_, repair, &needs_rewrite,
                             &truncate_at, repair ? &valid_offsets : nullptr,
                             error);

    if (!kvOpenUsable(status)) {
        ::close(fd);
        return status;
    }
    if (options.read_only) {
        fd_ = fd;
        return empty ? KvOpen::Fresh : status;
    }

    fd_ = fd;
    if (needs_rewrite && status == KvOpen::Loaded) {
        // Some record was quarantined mid-file: rewrite a clean copy
        // atomically so the corruption can never be re-read.
        std::vector<std::pair<std::string, std::string>> kept;
        kept.reserve(valid_offsets.size());
        for (size_t off : valid_offsets) {
            const char *frame = contents.data() + off;
            uint32_t klen = getU32(frame);
            uint32_t vlen = getU32(frame + 4);
            const char *body = frame + kRecordHeaderSize;
            kept.emplace_back(std::string(body, klen),
                              std::string(body + klen, vlen));
        }
        std::string snap_error;
        if (!snapshot(kept, &snap_error)) {
            // Keep running on the truncated original; quarantined
            // bytes were already copied out, and truncation below
            // still removes any trailing garbage.
            if (::ftruncate(fd_, static_cast<off_t>(truncate_at)) != 0)
                healthy_ = false;
            if (::lseek(fd_, 0, SEEK_END) < 0)
                healthy_ = false;
        }
        return KvOpen::Loaded;
    }
    if (truncate_at < contents.size() || (needs_rewrite && empty)) {
        if (::ftruncate(fd_, static_cast<off_t>(truncate_at)) != 0) {
            setError(error, path + ": ftruncate: " + std::strerror(errno));
            healthy_ = false;
        }
    }
    if (empty || status == KvOpen::Fresh) {
        // Brand-new (or torn-creation) file: write the header.
        std::string header = encodeHeader(options);
        if (::lseek(fd_, 0, SEEK_END) < 0 ||
            !writeAll(fd_, header.data(), header.size())) {
            setError(error, path + ": header write: " +
                                std::strerror(errno));
            healthy_ = false;
            return KvOpen::IoError;
        }
        return KvOpen::Fresh;
    }
    if (::lseek(fd_, 0, SEEK_END) < 0)
        healthy_ = false;
    return KvOpen::Loaded;
}

bool
KvStore::append(const std::string &key, const std::string &value)
{
    static const telemetry::Histogram append_hist =
        telemetry::histogram("kvstore.append_ns");
    telemetry::ScopedTimer timer(append_hist);
    if (fd_ < 0 || !healthy_)
        return false;
    if (LPO_FAILPOINT("store.write.fail")) {
        append_failures_ += 1;
        return false;
    }
    std::string record = encodeRecord(key, value);
    if (!writeAll(fd_, record.data(), record.size())) {
        healthy_ = false;
        append_failures_ += 1;
        return false;
    }
    appends_ += 1;
    static const telemetry::Counter appends_counter =
        telemetry::counter("kvstore.appends");
    appends_counter.inc();
    return true;
}

bool
KvStore::sync()
{
    static const telemetry::Histogram sync_hist =
        telemetry::histogram("kvstore.sync_ns");
    telemetry::ScopedTimer timer(sync_hist);
    if (fd_ < 0 || !healthy_)
        return false;
    if (LPO_FAILPOINT("store.fsync.fail"))
        return false;
    if (::fsync(fd_) != 0) {
        healthy_ = false;
        return false;
    }
    return true;
}

bool
KvStore::snapshot(
    const std::vector<std::pair<std::string, std::string>> &records,
    std::string *error)
{
    static const telemetry::Histogram snapshot_hist =
        telemetry::histogram("kvstore.snapshot_ns");
    telemetry::ScopedTimer timer(snapshot_hist);
    if (fd_ < 0)
        return false;
    if (LPO_FAILPOINT("store.write.fail"))
        return false;
    std::string tmp_path = path_ + ".tmp";
    int tmp = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (tmp < 0) {
        setError(error, tmp_path + ": " + std::strerror(errno));
        return false;
    }
    std::string body = encodeHeader(options_);
    for (const auto &[key, value] : records)
        body += encodeRecord(key, value);
    // The injectable fsync failure sits between write and rename —
    // exactly where a real sync fault would strike mid-compaction.
    // Either failure unlinks the tmp file and leaves the original
    // journal byte-untouched: no litter, no partial snapshot.
    bool ok = writeAll(tmp, body.data(), body.size()) &&
              !LPO_FAILPOINT("store.fsync.fail") && ::fsync(tmp) == 0;
    ::close(tmp);
    if (!ok) {
        setError(error, tmp_path + ": write/sync failed");
        ::unlink(tmp_path.c_str());
        return false;
    }
    if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
        setError(error, path_ + ": rename: " + std::strerror(errno));
        ::unlink(tmp_path.c_str());
        return false;
    }
    // The old fd now points at the unlinked inode; reopen the new file
    // so later appends land in it.
    int fd = ::open(path_.c_str(), O_RDWR | O_APPEND, 0644);
    if (fd < 0) {
        setError(error, path_ + ": reopen: " + std::strerror(errno));
        healthy_ = false;
        return false;
    }
    ::close(fd_);
    fd_ = fd;
    healthy_ = true;
    return true;
}

KvOpen
KvStore::inspect(const std::string &path, const KvOpenOptions &options,
                 const RecordFn &on_record, KvLoadStats *stats,
                 std::string *error)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        setError(error, path + ": " + std::strerror(errno));
        return KvOpen::IoError;
    }
    std::string contents;
    bool ok = readAll(fd, &contents);
    ::close(fd);
    if (!ok) {
        setError(error, path + ": read: " + std::strerror(errno));
        return KvOpen::IoError;
    }
    KvLoadStats local;
    bool needs_rewrite = false;
    size_t truncate_at = 0;
    KvOpen status =
        scanFile(path, contents, options, on_record, &local,
                 /*repair=*/false, &needs_rewrite, &truncate_at,
                 /*valid_offsets=*/nullptr, error);
    if (status == KvOpen::Fresh && !contents.empty())
        // Read-only view of a torn-creation file: report it as
        // recovery-pending rather than pretending it is pristine.
        local.recovered = true;
    if (stats)
        *stats = local;
    return status;
}

void
KvStore::testKillAfterBytes(int64_t bytes)
{
    g_kill_after_bytes = bytes;
}

void
KvStore::setQuarantineCap(size_t bytes)
{
    g_quarantine_cap = bytes;
}

size_t
KvStore::quarantineCap()
{
    return g_quarantine_cap;
}

uint64_t
KvStore::quarantineSize(const std::string &path)
{
    struct stat st;
    if (::stat((path + ".quarantine").c_str(), &st) != 0 ||
        st.st_size < 0)
        return 0;
    return static_cast<uint64_t>(st.st_size);
}

} // namespace lpo
