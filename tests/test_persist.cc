// Crash-safe persistent verify store: KvStore recovery semantics
// (torn tails, corrupt records, version/option skew), the fork+SIGKILL
// crash harness driving real torn writes at chosen offsets, and the
// PersistentStore round trip (verdicts byte-identical to a
// never-persisted run, catalog replay, failpoint injection).

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "ir/parser.h"
#include "ir/printer.h"
#include "support/failpoint.h"
#include "support/kvstore.h"
#include "verify/cache.h"
#include "verify/persist.h"
#include "verify/refine.h"

using namespace lpo;
using namespace lpo::verify;

namespace {

/** Fresh per-test scratch directory (remade empty every call). */
std::string
scratchDir(const char *name)
{
    std::string dir = ::testing::TempDir() + "lpo_persist_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

KvOpenOptions
testOptions()
{
    KvOpenOptions options;
    options.client_tag = "lpo-test";
    options.format_version = 1;
    options.options_key = "opts-v1";
    return options;
}

/** Open @p path and collect every streamed record. */
KvOpen
openCollect(KvStore *store, const std::string &path,
            const KvOpenOptions &options,
            std::vector<std::pair<std::string, std::string>> *records,
            std::string *error = nullptr)
{
    records->clear();
    return store->open(
        path, options,
        [&](std::string &&key, std::string &&value) {
            records->emplace_back(std::move(key), std::move(value));
        },
        error);
}

RefinementResult
checkCached(ir::Context &ctx, const std::string &src_text,
            const std::string &tgt_text, VerifyCache *cache)
{
    auto src = ir::parseFunction(ctx, src_text);
    auto tgt = ir::parseFunction(ctx, tgt_text);
    EXPECT_TRUE(src.ok() && tgt.ok());
    RefineOptions options;
    options.cache = cache;
    options.seed = 0xA11CE;
    options.num_threads = 1;
    return checkRefinement(**src, **tgt, options);
}

void
expectSameResult(const RefinementResult &a, const RefinementResult &b)
{
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.detail, b.detail);
    ASSERT_EQ(a.counterexample.has_value(), b.counterexample.has_value());
    if (!a.counterexample)
        return;
    EXPECT_EQ(a.counterexample->source_value,
              b.counterexample->source_value);
    EXPECT_EQ(a.counterexample->target_value,
              b.counterexample->target_value);
    const auto &ia = a.counterexample->input;
    const auto &ib = b.counterexample->input;
    ASSERT_EQ(ia.args.size(), ib.args.size());
    for (size_t arg = 0; arg < ia.args.size(); ++arg) {
        ASSERT_EQ(ia.args[arg].lanes.size(), ib.args[arg].lanes.size());
        for (size_t lane = 0; lane < ia.args[arg].lanes.size(); ++lane) {
            const auto &la = ia.args[arg].lanes[lane];
            const auto &lb = ib.args[arg].lanes[lane];
            EXPECT_EQ(la.poison, lb.poison);
            if (!la.is_fp)
                EXPECT_EQ(la.bits.zext(), lb.bits.zext());
        }
    }
}

// Incorrect SAT-backend pair (counterexample rebuilt from model words).
const char *kSatSrc =
    "define i8 @src(i8 %x) {\n  %r = add i8 %x, 1\n  ret i8 %r\n}\n";
const char *kSatTgt =
    "define i8 @tgt(i8 %x) {\n  %r = add i8 %x, 2\n  ret i8 %r\n}\n";

// Incorrect exhaustive-backend pair (counterexample from sweep index).
const char *kBranchySrc =
    "define i8 @src(i8 %x) {\n"
    "entry:\n"
    "  %c = icmp slt i8 %x, 0\n"
    "  br i1 %c, label %neg, label %pos\n"
    "neg:\n"
    "  %n = sub i8 0, %x\n"
    "  br label %join\n"
    "pos:\n"
    "  br label %join\n"
    "join:\n"
    "  %r = phi i8 [ %n, %neg ], [ %x, %pos ]\n"
    "  ret i8 %r\n}\n";
const char *kBranchyTgt =
    "define i8 @tgt(i8 %x) {\nentry:\n  ret i8 %x\n}\n";

// Correct pair (no counterexample to replay).
const char *kCorrectSrc =
    "define i8 @src(i8 %x) {\n  %r = add i8 %x, -128\n  ret i8 %r\n}\n";
const char *kCorrectTgt =
    "define i8 @tgt(i8 %x) {\n  %r = xor i8 %x, -128\n  ret i8 %r\n}\n";

} // namespace

// ---------------------------------------------------------------------
// KvStore: format, recovery, skew
// ---------------------------------------------------------------------

TEST(KvStoreTest, RoundTripAcrossReopen)
{
    std::string dir = scratchDir("roundtrip");
    std::string path = dir + "/store.lpo";
    std::vector<std::pair<std::string, std::string>> records;
    {
        KvStore store;
        ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
                  KvOpen::Fresh);
        EXPECT_TRUE(records.empty());
        EXPECT_TRUE(store.append("alpha", "1"));
        EXPECT_TRUE(store.append("beta", std::string(1000, 'b')));
        EXPECT_TRUE(store.append("", "empty key is legal"));
        EXPECT_TRUE(store.sync());
        EXPECT_EQ(store.appends(), 3u);
    }
    KvStore reopened;
    ASSERT_EQ(openCollect(&reopened, path, testOptions(), &records),
              KvOpen::Loaded);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].first, "alpha");
    EXPECT_EQ(records[0].second, "1");
    EXPECT_EQ(records[1].second, std::string(1000, 'b'));
    EXPECT_EQ(records[2].first, "");
    EXPECT_FALSE(reopened.loadStats().recovered);

    // Appends after a reopen extend the same journal.
    EXPECT_TRUE(reopened.append("gamma", "3"));
    reopened.close();
    KvStore third;
    ASSERT_EQ(openCollect(&third, path, testOptions(), &records),
              KvOpen::Loaded);
    EXPECT_EQ(records.size(), 4u);
}

TEST(KvStoreTest, TornTailTruncatedOnReopen)
{
    std::string dir = scratchDir("torn");
    std::string path = dir + "/store.lpo";
    std::vector<std::pair<std::string, std::string>> records;
    {
        KvStore store;
        ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
                  KvOpen::Fresh);
        store.append("keep1", "v1");
        store.append("keep2", "v2");
        store.append("torn", "this record will be cut short");
    }
    std::string bytes = slurp(path);
    // Cut into the last record's payload: a torn append.
    spit(path, bytes.substr(0, bytes.size() - 5));

    KvStore store;
    ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
              KvOpen::Loaded);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[1].first, "keep2");
    EXPECT_TRUE(store.loadStats().recovered);
    EXPECT_GT(store.loadStats().torn_bytes, 0u);
    // Recovery truncated the tail; appends land on a clean boundary.
    EXPECT_TRUE(store.append("after", "recovery"));
    store.close();

    KvStore clean;
    ASSERT_EQ(openCollect(&clean, path, testOptions(), &records),
              KvOpen::Loaded);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[2].first, "after");
    EXPECT_FALSE(clean.loadStats().recovered);
}

TEST(KvStoreTest, CorruptPayloadQuarantinedNotTrusted)
{
    std::string dir = scratchDir("corrupt");
    std::string path = dir + "/store.lpo";
    std::vector<std::pair<std::string, std::string>> records;
    {
        KvStore store;
        ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
                  KvOpen::Fresh);
        store.append("first", "intact");
        store.append("victim", "this payload gets a flipped bit");
        store.append("last", "also intact");
    }
    std::string bytes = slurp(path);
    size_t victim = bytes.find("flipped");
    ASSERT_NE(victim, std::string::npos);
    bytes[victim] ^= 0x40;
    spit(path, bytes);

    KvStore store;
    ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
              KvOpen::Loaded);
    // The corrupt record is skipped — never streamed with bad bytes —
    // while both neighbors survive (its frame was sound, so the next
    // record boundary was known).
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].first, "first");
    EXPECT_EQ(records[1].first, "last");
    EXPECT_EQ(store.loadStats().quarantined, 1u);
    EXPECT_TRUE(store.loadStats().recovered);
    EXPECT_TRUE(fileExists(path + ".quarantine"));
    store.close();

    // Recovery rewrote a clean file: the next open sees no damage.
    KvStore clean;
    ASSERT_EQ(openCollect(&clean, path, testOptions(), &records),
              KvOpen::Loaded);
    EXPECT_EQ(records.size(), 2u);
    EXPECT_FALSE(clean.loadStats().recovered);
}

TEST(KvStoreTest, SkewRejectsWithoutTouchingTheFile)
{
    std::string dir = scratchDir("skew");
    std::string path = dir + "/store.lpo";
    std::vector<std::pair<std::string, std::string>> records;
    {
        KvStore store;
        ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
                  KvOpen::Fresh);
        store.append("key", "value");
    }
    std::string before = slurp(path);

    struct Case
    {
        const char *name;
        KvOpenOptions options;
        KvOpen expected;
    };
    KvOpenOptions wrong_tag = testOptions();
    wrong_tag.client_tag = "other-client";
    KvOpenOptions wrong_version = testOptions();
    wrong_version.format_version = 2;
    KvOpenOptions wrong_options = testOptions();
    wrong_options.options_key = "opts-v2";
    for (const Case &c :
         {Case{"tag", wrong_tag, KvOpen::RejectedTag},
          Case{"version", wrong_version, KvOpen::RejectedVersion},
          Case{"options", wrong_options, KvOpen::RejectedOptions}}) {
        KvStore store;
        std::string error;
        EXPECT_EQ(openCollect(&store, path, c.options, &records, &error),
                  c.expected)
            << c.name;
        EXPECT_FALSE(store.isOpen()) << c.name;
        EXPECT_FALSE(error.empty()) << c.name;
        EXPECT_TRUE(records.empty()) << c.name;
        // Skew must never "repair" someone else's data.
        EXPECT_EQ(slurp(path), before) << c.name;
    }

    // Garbage that never was a store file.
    std::string garbage = dir + "/garbage.lpo";
    spit(garbage, "not a kv store at all\n");
    KvStore store;
    EXPECT_EQ(openCollect(&store, garbage, testOptions(), &records),
              KvOpen::RejectedFormat);
    EXPECT_EQ(slurp(garbage), "not a kv store at all\n");

    // The matching options still load the original untouched file.
    KvStore match;
    EXPECT_EQ(openCollect(&match, path, testOptions(), &records),
              KvOpen::Loaded);
    EXPECT_EQ(records.size(), 1u);
}

TEST(KvStoreTest, SnapshotAtomicallyReplacesContents)
{
    std::string dir = scratchDir("snapshot");
    std::string path = dir + "/store.lpo";
    std::vector<std::pair<std::string, std::string>> records;
    KvStore store;
    ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
              KvOpen::Fresh);
    store.append("a", "1");
    store.append("a", "1-superseded");
    store.append("b", "2");
    ASSERT_TRUE(store.snapshot({{"a", "1-final"}, {"b", "2"}}));
    EXPECT_TRUE(store.append("c", "3")); // journal continues after
    store.close();
    EXPECT_FALSE(fileExists(path + ".tmp"));

    KvStore reopened;
    ASSERT_EQ(openCollect(&reopened, path, testOptions(), &records),
              KvOpen::Loaded);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].second, "1-final");
    EXPECT_EQ(records[2].first, "c");
}

TEST(KvStoreTest, WriteFailpointDropsRecordRunContinues)
{
    std::string dir = scratchDir("failpoint");
    std::string path = dir + "/store.lpo";
    std::vector<std::pair<std::string, std::string>> records;
    KvStore store;
    ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
              KvOpen::Fresh);
    ASSERT_TRUE(store.append("before", "ok"));
    ASSERT_TRUE(FailPoints::instance().configure("store.write.fail=always"));
    EXPECT_FALSE(store.append("dropped", "never lands"));
    EXPECT_EQ(store.appendFailures(), 1u);
    EXPECT_TRUE(store.healthy()); // injected, not a real I/O error
    ASSERT_TRUE(FailPoints::instance().configure("store.fsync.fail=always"));
    EXPECT_FALSE(store.sync());
    FailPoints::instance().clear();
    EXPECT_TRUE(store.append("after", "ok"));
    store.close();

    KvStore reopened;
    ASSERT_EQ(openCollect(&reopened, path, testOptions(), &records),
              KvOpen::Loaded);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].first, "before");
    EXPECT_EQ(records[1].first, "after");
    EXPECT_FALSE(reopened.loadStats().recovered);
}

TEST(KvStoreTest, InspectIsSideEffectFree)
{
    std::string dir = scratchDir("inspect");
    std::string path = dir + "/store.lpo";
    std::vector<std::pair<std::string, std::string>> records;
    {
        KvStore store;
        ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
                  KvOpen::Fresh);
        store.append("one", "1");
        store.append("two", "2");
    }
    // Tear the tail (too short for even a record header); inspect
    // must report it without repairing.
    std::string bytes = slurp(path);
    spit(path, bytes + "junk");

    std::string damaged = slurp(path);
    KvLoadStats stats;
    std::string error;
    EXPECT_EQ(KvStore::inspect(path, testOptions(), nullptr, &stats,
                               &error),
              KvOpen::Loaded);
    EXPECT_EQ(stats.records, 2u);
    EXPECT_TRUE(stats.recovered);
    EXPECT_GT(stats.torn_bytes, 0u);
    EXPECT_EQ(slurp(path), damaged); // untouched
    EXPECT_FALSE(fileExists(path + ".quarantine"));
}

// ---------------------------------------------------------------------
// Crash consistency: fork a child, SIGKILL it mid-write at a chosen
// byte offset, reopen in the parent and assert recovery.
// ---------------------------------------------------------------------

namespace {

/** Run @p child in a forked process; returns true iff it was killed by
 *  SIGKILL (the crash seam fired) rather than exiting. */
bool
forkAndKill(const std::function<void()> &child)
{
    ::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid == 0) {
        child();
        ::_exit(0); // seam never fired: report a clean exit
    }
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    if (WIFSIGNALED(status)) {
        EXPECT_EQ(WTERMSIG(status), SIGKILL);
        return true;
    }
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    return false;
}

} // namespace

TEST(KvStoreCrashTest, SigkillMidAppendLeavesRecoverablePrefix)
{
    // Sweep the kill offset across the first appended record so the
    // torn write lands in every region: length field, CRC, key bytes,
    // payload bytes, and exactly-at-the-boundary.
    for (int64_t offset : {0, 1, 4, 9, 15, 16, 21, 40, 64, 200}) {
        std::string dir = scratchDir("sigkill");
        std::string path = dir + "/store.lpo";
        bool killed = forkAndKill([&] {
            KvStore store;
            if (store.open(path, testOptions(), nullptr) != KvOpen::Fresh)
                ::_exit(2);
            store.append("stable-1", "committed before the crash");
            store.append("stable-2", "also committed");
            store.sync();
            KvStore::testKillAfterBytes(offset);
            // One of these writes crosses the armed offset and the
            // process dies mid-write — a real torn append.
            store.append("doomed-1", std::string(100, 'x'));
            store.append("doomed-2", std::string(100, 'y'));
            store.append("doomed-3", std::string(100, 'z'));
        });
        ASSERT_TRUE(killed) << "offset " << offset;

        std::vector<std::pair<std::string, std::string>> records;
        KvStore store;
        ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
                  KvOpen::Loaded)
            << "offset " << offset;
        // Everything synced before the seam must survive; whatever the
        // torn write left behind is truncated, never misread.
        ASSERT_GE(records.size(), 2u) << "offset " << offset;
        EXPECT_EQ(records[0].first, "stable-1");
        EXPECT_EQ(records[0].second, "committed before the crash");
        EXPECT_EQ(records[1].first, "stable-2");
        for (size_t i = 2; i < records.size(); ++i) {
            EXPECT_EQ(records[i].first.substr(0, 7), "doomed-");
            EXPECT_EQ(records[i].second.size(), 100u);
        }
        // The reopened store is immediately writable again.
        EXPECT_TRUE(store.append("resumed", "after recovery"));
    }
}

TEST(KvStoreCrashTest, SigkillMidSnapshotKeepsOldOrNewNeverMixed)
{
    for (int64_t offset : {0, 8, 30, 120, 400}) {
        std::string dir = scratchDir("sigkill_snap");
        std::string path = dir + "/store.lpo";
        {
            KvStore store;
            ASSERT_EQ(store.open(path, testOptions(), nullptr),
                      KvOpen::Fresh);
            store.append("old-1", "original");
            store.append("old-2", "original");
            store.sync();
        }
        forkAndKill([&] {
            std::vector<std::pair<std::string, std::string>> loaded;
            KvStore store;
            if (store.open(path, testOptions(),
                           [&](std::string &&k, std::string &&v) {
                               loaded.emplace_back(std::move(k),
                                                   std::move(v));
                           }) != KvOpen::Loaded)
                ::_exit(2);
            KvStore::testKillAfterBytes(offset);
            store.snapshot({{"new-1", "compacted"}, {"new-2", "compacted"}});
        });
        // Whether or not the seam fired before the rename, the visible
        // file is a complete old state or a complete new state.
        std::vector<std::pair<std::string, std::string>> records;
        KvStore store;
        ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
                  KvOpen::Loaded)
            << "offset " << offset;
        ASSERT_EQ(records.size(), 2u) << "offset " << offset;
        bool all_old = records[0].first == "old-1" &&
                       records[1].first == "old-2";
        bool all_new = records[0].first == "new-1" &&
                       records[1].first == "new-2";
        EXPECT_TRUE(all_old || all_new)
            << "offset " << offset << ": mixed snapshot state";
        EXPECT_FALSE(store.loadStats().recovered) << "offset " << offset;
    }
}

// ---------------------------------------------------------------------
// Verdict payload codec + candidate normalization
// ---------------------------------------------------------------------

TEST(PersistCodecTest, VerdictRoundTripsAndRejectsMalformed)
{
    CachedVerdict verdict;
    verdict.verdict = Verdict::Incorrect;
    verdict.backend = "sat";
    verdict.detail = "counterexample found";
    verdict.replay = CachedVerdict::Replay::SatArgs;
    verdict.index = 42;
    verdict.arg_lane_words = {0xDEADBEEF, 0, ~uint64_t(0)};

    std::string payload = encodeVerdict(verdict);
    CachedVerdict decoded;
    ASSERT_TRUE(decodeVerdict(payload, &decoded));
    EXPECT_EQ(decoded.verdict, verdict.verdict);
    EXPECT_EQ(decoded.backend, verdict.backend);
    EXPECT_EQ(decoded.detail, verdict.detail);
    EXPECT_EQ(decoded.replay, verdict.replay);
    EXPECT_EQ(decoded.index, verdict.index);
    EXPECT_EQ(decoded.arg_lane_words, verdict.arg_lane_words);

    // Truncations and trailing junk are rejected, never misread.
    for (size_t cut = 0; cut < payload.size(); ++cut) {
        CachedVerdict out;
        EXPECT_FALSE(decodeVerdict(payload.substr(0, cut), &out))
            << "cut " << cut;
    }
    CachedVerdict out;
    EXPECT_FALSE(decodeVerdict(payload + "x", &out));
    std::string bad_version = payload;
    bad_version[0] = 99;
    EXPECT_FALSE(decodeVerdict(bad_version, &out));
}

TEST(PersistCodecTest, NormalizeCandidateTextCanonicalizesNames)
{
    std::string a = normalizeCandidateText(
        "define i8 @candidate(i8 %value) {\n"
        "  %flip = xor i8 %value, -128\n  ret i8 %flip\n}\n");
    std::string b = normalizeCandidateText(
        "define i8 @other(i8 %x) {\n"
        "  %r = xor i8 %x, -128\n  ret i8 %r\n}\n");
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("@t"), std::string::npos);
    EXPECT_NE(a.find("%a0"), std::string::npos);
    EXPECT_NE(a.find("%v0"), std::string::npos);
    // Normalized text must re-parse (the catalog replays it as a
    // candidate through the full parse -> verify path).
    ir::Context ctx;
    EXPECT_TRUE(ir::parseFunction(ctx, a).ok());
    // Unparseable text passes through unchanged.
    EXPECT_EQ(normalizeCandidateText("not ir"), "not ir");
}

// ---------------------------------------------------------------------
// PersistentStore: the full verdict + catalog round trip
// ---------------------------------------------------------------------

TEST(PersistentStoreTest, VerdictsSurviveReopenByteIdentical)
{
    std::string dir = scratchDir("store_roundtrip");
    ir::Context ctx;

    // Ground truth: never-persisted results.
    std::vector<RefinementResult> plain;
    plain.push_back(checkCached(ctx, kSatSrc, kSatTgt, nullptr));
    plain.push_back(checkCached(ctx, kBranchySrc, kBranchyTgt, nullptr));
    plain.push_back(checkCached(ctx, kCorrectSrc, kCorrectTgt, nullptr));

    {
        VerifyCache cache;
        std::string warning;
        auto store = PersistentStore::open(dir, &cache, &warning);
        ASSERT_NE(store, nullptr) << warning;
        EXPECT_TRUE(warning.empty()) << warning;
        checkCached(ctx, kSatSrc, kSatTgt, &cache);
        checkCached(ctx, kBranchySrc, kBranchyTgt, &cache);
        checkCached(ctx, kCorrectSrc, kCorrectTgt, &cache);
        EXPECT_EQ(cache.stats().misses, 3u);
        // Destruction flushes and detaches.
    }

    VerifyCache warm;
    std::string warning;
    auto store = PersistentStore::open(dir, &warm, &warning);
    ASSERT_NE(store, nullptr) << warning;
    EXPECT_EQ(store->stats().cache_loaded, 3u);
    std::vector<RefinementResult> replayed;
    replayed.push_back(checkCached(ctx, kSatSrc, kSatTgt, &warm));
    replayed.push_back(checkCached(ctx, kBranchySrc, kBranchyTgt, &warm));
    replayed.push_back(checkCached(ctx, kCorrectSrc, kCorrectTgt, &warm));
    EXPECT_EQ(warm.stats().hits, 3u);
    EXPECT_EQ(warm.stats().misses, 0u);
    for (size_t i = 0; i < plain.size(); ++i)
        expectSameResult(plain[i], replayed[i]);
}

TEST(PersistentStoreTest, CatalogRoundTripAndNormalizedDedup)
{
    std::string dir = scratchDir("catalog");
    const std::string src_key = "src-canonical-print";
    {
        VerifyCache cache;
        auto store = PersistentStore::open(dir, &cache);
        ASSERT_NE(store, nullptr);
        EXPECT_TRUE(store->catalog().record(
            src_key,
            "define i8 @candidate(i8 %value) {\n"
            "  %flip = xor i8 %value, -128\n  ret i8 %flip\n}\n"));
        // An alpha-renamed duplicate of the same rewrite dedups away.
        EXPECT_FALSE(store->catalog().record(
            src_key,
            "define i8 @other(i8 %x) {\n"
            "  %r = xor i8 %x, -128\n  ret i8 %r\n}\n"));
        // Same-run recordings are invisible to lookups (determinism).
        EXPECT_EQ(store->catalog().lookup(src_key), nullptr);
        EXPECT_TRUE(store->flush());
    }
    VerifyCache cache;
    auto store = PersistentStore::open(dir, &cache);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->stats().catalog_loaded, 1u);
    const std::string *hit = store->catalog().lookup(src_key);
    ASSERT_NE(hit, nullptr);
    EXPECT_NE(hit->find("@t"), std::string::npos);
    EXPECT_EQ(store->catalog().lookup("unknown"), nullptr);
}

TEST(PersistentStoreTest, CompactDropsDeadJournalGrowth)
{
    std::string dir = scratchDir("compact");
    {
        VerifyCache cache;
        auto store = PersistentStore::open(dir, &cache);
        ASSERT_NE(store, nullptr);
        ir::Context ctx;
        checkCached(ctx, kSatSrc, kSatTgt, &cache);
        store->catalog().record("key", kCorrectTgt);
        ASSERT_TRUE(store->flush());
        // Repeated flushes append nothing new.
        uint64_t flushed = store->stats().cache_flushed;
        ASSERT_TRUE(store->flush());
        EXPECT_EQ(store->stats().cache_flushed, flushed);
        std::string error;
        EXPECT_TRUE(store->compact(&error)) << error;
    }
    VerifyCache cache;
    auto store = PersistentStore::open(dir, &cache);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->stats().cache_loaded, 1u);
    EXPECT_EQ(store->stats().catalog_loaded, 1u);
    EXPECT_EQ(store->stats().recoveries, 0u);
}

TEST(PersistentStoreTest, LoadCorruptFailpointQuarantinesGracefully)
{
    std::string dir = scratchDir("loadfp");
    {
        VerifyCache cache;
        auto store = PersistentStore::open(dir, &cache);
        ASSERT_NE(store, nullptr);
        ir::Context ctx;
        checkCached(ctx, kSatSrc, kSatTgt, &cache);
        checkCached(ctx, kCorrectSrc, kCorrectTgt, &cache);
    }
    ASSERT_TRUE(
        FailPoints::instance().configure("store.load.corrupt=once"));
    VerifyCache cache;
    std::string warning;
    auto store = PersistentStore::open(dir, &cache, &warning);
    FailPoints::instance().clear();
    ASSERT_NE(store, nullptr) << warning;
    // One record was treated as corrupt: quarantined, not loaded, and
    // the open survived with the rest intact.
    EXPECT_EQ(store->stats().quarantined, 1u);
    EXPECT_EQ(store->stats().cache_loaded, 1u);
    EXPECT_GE(store->stats().recoveries, 1u);
}

TEST(PersistentStoreTest, SkewedFileRunsMemoryOnlyOthersStillPersist)
{
    std::string dir = scratchDir("skewfile");
    {
        VerifyCache cache;
        auto store = PersistentStore::open(dir, &cache);
        ASSERT_NE(store, nullptr);
        ir::Context ctx;
        checkCached(ctx, kSatSrc, kSatTgt, &cache);
        store->catalog().record("key", kCorrectTgt);
    }
    // Overwrite verify.lpo with a foreign (different-version) store.
    {
        KvOpenOptions foreign = verifyStoreFileOptions();
        foreign.format_version += 1;
        std::string path = dir + "/" + kVerifyStoreFile;
        ::unlink(path.c_str());
        KvStore kv;
        ASSERT_EQ(kv.open(path, foreign, nullptr), KvOpen::Fresh);
        kv.append("foreign", "data");
    }
    std::string before =
        slurp(dir + "/" + std::string(kVerifyStoreFile));

    VerifyCache cache;
    std::string warning;
    auto store = PersistentStore::open(dir, &cache, &warning);
    ASSERT_NE(store, nullptr);
    EXPECT_FALSE(warning.empty());
    EXPECT_EQ(store->stats().rejected_files, 1u);
    EXPECT_FALSE(store->cacheFileUsable());
    EXPECT_TRUE(store->catalogFileUsable());
    EXPECT_EQ(store->stats().cache_loaded, 0u);
    EXPECT_EQ(store->stats().catalog_loaded, 1u);
    // The skewed file is never reinterpreted or "migrated".
    store->flush();
    EXPECT_EQ(slurp(dir + "/" + std::string(kVerifyStoreFile)), before);
}

// ---------------------------------------------------------------------
// Snapshot write faults, advisory locking, quarantine bounds
// ---------------------------------------------------------------------

TEST(KvStoreTest, SnapshotWriteFaultLeavesJournalIntact)
{
    std::string dir = scratchDir("snapwfault");
    std::string path = dir + "/store.lpo";
    std::vector<std::pair<std::string, std::string>> records;
    KvStore store;
    ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
              KvOpen::Fresh);
    ASSERT_TRUE(store.append("keep1", "v1"));
    ASSERT_TRUE(store.append("keep2", "v2"));
    ASSERT_TRUE(store.sync());
    std::string before = slurp(path);

    ASSERT_TRUE(
        FailPoints::instance().configure("store.write.fail=always"));
    EXPECT_FALSE(store.snapshot({{"only", "one"}}));
    FailPoints::instance().clear();
    // The failed snapshot left no tmp litter and never touched the
    // journal: mid-compaction faults are invisible to the next open.
    EXPECT_FALSE(fileExists(path + ".tmp"));
    EXPECT_EQ(slurp(path), before);

    // Once the fault clears the same snapshot goes through.
    EXPECT_TRUE(store.snapshot({{"only", "one"}}));
    store.close();
    KvStore reopened;
    ASSERT_EQ(openCollect(&reopened, path, testOptions(), &records),
              KvOpen::Loaded);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].first, "only");
    EXPECT_FALSE(reopened.loadStats().recovered);
}

TEST(KvStoreTest, SnapshotFsyncFaultUnlinksTmpKeepsOriginal)
{
    std::string dir = scratchDir("snapsfault");
    std::string path = dir + "/store.lpo";
    std::vector<std::pair<std::string, std::string>> records;
    KvStore store;
    ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
              KvOpen::Fresh);
    ASSERT_TRUE(store.append("keep", "v"));
    ASSERT_TRUE(store.sync());
    std::string before = slurp(path);

    // Unlike store.write.fail (which fails snapshot at entry), the
    // fsync fault strikes after the tmp body is fully written — the
    // unlink-on-failure path must clean it up.
    ASSERT_TRUE(
        FailPoints::instance().configure("store.fsync.fail=always"));
    std::string error;
    EXPECT_FALSE(store.snapshot({{"only", "one"}}, &error));
    FailPoints::instance().clear();
    EXPECT_NE(error.find("write/sync"), std::string::npos) << error;
    EXPECT_FALSE(fileExists(path + ".tmp"));
    EXPECT_EQ(slurp(path), before);

    // A snapshot fsync failure does not poison the journal fd.
    EXPECT_TRUE(store.append("after", "fault"));
    EXPECT_TRUE(store.healthy());
    store.close();
    KvStore reopened;
    ASSERT_EQ(openCollect(&reopened, path, testOptions(), &records),
              KvOpen::Loaded);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[1].first, "after");
}

TEST(PersistentStoreTest, CompactionFaultsKeepJournalNoTmpLitter)
{
    std::string dir = scratchDir("compactfault");
    {
        VerifyCache cache;
        auto store = PersistentStore::open(dir, &cache);
        ASSERT_NE(store, nullptr);
        ir::Context ctx;
        checkCached(ctx, kSatSrc, kSatTgt, &cache);
        store->catalog().record("key", kCorrectTgt);
        ASSERT_TRUE(store->flush());
    }
    std::string verify_path = dir + "/" + std::string(kVerifyStoreFile);
    std::string catalog_path =
        dir + "/" + std::string(kCatalogStoreFile);
    std::string verify_before = slurp(verify_path);
    std::string catalog_before = slurp(catalog_path);

    VerifyCache cache;
    auto store = PersistentStore::open(dir, &cache);
    ASSERT_NE(store, nullptr);
    ASSERT_EQ(store->stats().cache_loaded, 1u);
    for (const char *spec :
         {"store.write.fail=always", "store.fsync.fail=always"}) {
        ASSERT_TRUE(FailPoints::instance().configure(spec));
        std::string error;
        EXPECT_FALSE(store->compact(&error)) << spec;
        FailPoints::instance().clear();
        EXPECT_FALSE(fileExists(verify_path + ".tmp")) << spec;
        EXPECT_FALSE(fileExists(catalog_path + ".tmp")) << spec;
        EXPECT_EQ(slurp(verify_path), verify_before) << spec;
        EXPECT_EQ(slurp(catalog_path), catalog_before) << spec;
    }

    // Faults cleared: the identical compaction succeeds, and the
    // compacted store reloads complete.
    std::string error;
    EXPECT_TRUE(store->compact(&error)) << error;
    store.reset();
    VerifyCache cache2;
    auto reopened = PersistentStore::open(dir, &cache2);
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->stats().cache_loaded, 1u);
    EXPECT_EQ(reopened->stats().catalog_loaded, 1u);
    EXPECT_EQ(reopened->stats().recoveries, 0u);
}

TEST(PersistentStoreTest, SecondOpenerDegradesToReadOnly)
{
    std::string dir = scratchDir("flock");
    VerifyCache cache1;
    auto writer = PersistentStore::open(dir, &cache1);
    ASSERT_NE(writer, nullptr);
    ASSERT_FALSE(writer->readOnly());
    ir::Context ctx;
    checkCached(ctx, kSatSrc, kSatTgt, &cache1);
    ASSERT_TRUE(writer->flush());

    // flock is per open file description, so a second open in this
    // process loses the same race a second process would.
    VerifyCache cache2;
    std::string warning;
    auto reader = PersistentStore::open(dir, &cache2, &warning);
    ASSERT_NE(reader, nullptr);
    EXPECT_TRUE(reader->readOnly());
    EXPECT_NE(warning.find("locked"), std::string::npos) << warning;
    EXPECT_NE(warning.find("read-only"), std::string::npos) << warning;
    // The reader serves the state the writer had journaled...
    EXPECT_EQ(reader->stats().cache_loaded, 1u);

    // ...but never writes: new verdicts and rewrites recorded through
    // it change no bytes, and flush() discards them (bounded memory
    // while locked out) while still reporting success.
    std::string verify_path = dir + "/" + std::string(kVerifyStoreFile);
    std::string before = slurp(verify_path);
    checkCached(ctx, kCorrectSrc, kCorrectTgt, &cache2);
    reader->catalog().record("key", kCorrectTgt);
    EXPECT_TRUE(reader->flush());
    EXPECT_EQ(slurp(verify_path), before);
    EXPECT_EQ(reader->stats().cache_flushed, 0u);
    EXPECT_EQ(reader->stats().catalog_flushed, 0u);
    EXPECT_EQ(reader->catalog().pendingSize(), 0u);
    std::string error;
    EXPECT_FALSE(reader->compact(&error));
    EXPECT_NE(error.find("read-only"), std::string::npos) << error;

    // The writer is unaffected and still persists.
    checkCached(ctx, kBranchySrc, kBranchyTgt, &cache1);
    EXPECT_TRUE(writer->flush());
    EXPECT_EQ(writer->stats().cache_flushed, 2u);

    // Closing both releases the advisory lock: the next opener is a
    // full writer again and sees everything the real writer journaled.
    reader.reset();
    writer.reset();
    VerifyCache cache3;
    warning.clear();
    auto next = PersistentStore::open(dir, &cache3, &warning);
    ASSERT_NE(next, nullptr);
    EXPECT_FALSE(next->readOnly());
    EXPECT_TRUE(warning.empty()) << warning;
    EXPECT_EQ(next->stats().cache_loaded, 2u);
}

TEST(KvStoreTest, QuarantineSidecarRotatesOldestFirstUnderCap)
{
    std::string dir = scratchDir("quarcap");
    std::string path = dir + "/store.lpo";
    std::vector<std::pair<std::string, std::string>> records;

    KvStore::setQuarantineCap(256);
    ASSERT_EQ(KvStore::quarantineCap(), 256u);

    // Flip a byte a little past @p needle (inside the filler run) so
    // the marker itself stays intact in the quarantined bytes.
    auto corruptAfter = [&](const char *needle) {
        std::string bytes = slurp(path);
        size_t at = bytes.find(needle);
        ASSERT_NE(at, std::string::npos) << needle;
        bytes[at + std::strlen(needle) + 10] ^= 0x40;
        spit(path, bytes);
    };

    {
        KvStore store;
        ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
                  KvOpen::Fresh);
        ASSERT_TRUE(
            store.append("old", "OLDBYTES-" + std::string(200, 'A')));
        ASSERT_TRUE(store.append("keeper", "fine"));
    }
    corruptAfter("OLDBYTES");
    {
        KvStore store;
        ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
                  KvOpen::Loaded);
        EXPECT_EQ(store.loadStats().quarantined, 1u);
        ASSERT_TRUE(
            store.append("new", "NEWBYTES-" + std::string(200, 'B')));
    }
    EXPECT_LE(KvStore::quarantineSize(path), 256u);
    EXPECT_NE(slurp(path + ".quarantine").find("OLDBYTES"),
              std::string::npos);

    corruptAfter("NEWBYTES");
    {
        KvStore store;
        ASSERT_EQ(openCollect(&store, path, testOptions(), &records),
                  KvOpen::Loaded);
        EXPECT_EQ(store.loadStats().quarantined, 1u);
        // The healthy record survived both repairs.
        ASSERT_EQ(records.size(), 1u);
        EXPECT_EQ(records[0].first, "keeper");
    }
    // The second quarantined record would overflow the cap, so the
    // oldest bytes rotated out; the newest corruption — the one an
    // operator would be diagnosing — is what remains.
    EXPECT_LE(KvStore::quarantineSize(path), 256u);
    std::string sidecar = slurp(path + ".quarantine");
    EXPECT_EQ(sidecar.find("OLDBYTES"), std::string::npos);
    EXPECT_NE(sidecar.find("NEWBYTES"), std::string::npos);

    KvStore::setQuarantineCap(KvStore::kDefaultQuarantineCap);
}

// ---------------------------------------------------------------------
// CRC32: the sliced implementation against a bitwise reference
// ---------------------------------------------------------------------

namespace {

/** The textbook bit-at-a-time CRC-32 (reflected 0xEDB88320). */
uint32_t
bitwiseCrc32(const unsigned char *data, size_t size, uint32_t seed)
{
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (size_t i = 0; i < size; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

} // namespace

TEST(Crc32Test, KnownAnswer)
{
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
    // Chaining through the seed equals one pass over the whole input.
    EXPECT_EQ(crc32("56789", 5, crc32("1234", 4)), 0xCBF43926u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment)
{
    unsigned char buffer[64 + 8];
    uint64_t state = 0x9E3779B97F4A7C15ull;
    auto next = [&] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (unsigned char &byte : buffer)
        byte = static_cast<unsigned char>(next());
    for (size_t align = 0; align < 8; ++align) {
        for (size_t len = 0; len <= 64; ++len) {
            const uint32_t seed = static_cast<uint32_t>(next());
            const unsigned char *p = buffer + align;
            EXPECT_EQ(crc32(p, len, seed), bitwiseCrc32(p, len, seed))
                << "len " << len << " align " << align;
            EXPECT_EQ(crc32(p, len), bitwiseCrc32(p, len, 0))
                << "len " << len << " align " << align;
        }
    }
}

// ---------------------------------------------------------------------
// Remembered misses: the second catalog.lpo record kind
// ---------------------------------------------------------------------

TEST(PersistentStoreTest, MissRecordsRoundTripBesideRewrites)
{
    std::string dir = scratchDir("misses");
    const std::string src_key = "define i8 @0(i8 %0) {...}";
    const std::string miss = missKey("0123456789abcdef", src_key);
    ASSERT_TRUE(isMissKey(miss));
    ASSERT_FALSE(isMissKey(src_key));
    {
        VerifyCache cache;
        auto store = PersistentStore::open(dir, &cache);
        ASSERT_NE(store, nullptr);
        EXPECT_TRUE(store->catalog().record(src_key, kCorrectTgt));
        EXPECT_TRUE(store->catalog().recordMiss(miss, "no-candidate llm"));
        EXPECT_FALSE(store->catalog().recordMiss(miss, "incorrect llm"));
        // Same-run records are invisible to lookups (determinism).
        EXPECT_EQ(store->catalog().lookupMiss(miss), nullptr);
        EXPECT_TRUE(store->flush());
        EXPECT_EQ(store->stats().catalog_flushed, 1u);
        EXPECT_EQ(store->stats().misses_flushed, 1u);
    }
    {
        VerifyCache cache;
        auto store = PersistentStore::open(dir, &cache);
        ASSERT_NE(store, nullptr);
        // catalog_loaded stays a count of rewrites.
        EXPECT_EQ(store->stats().catalog_loaded, 1u);
        EXPECT_EQ(store->stats().misses_loaded, 1u);
        const std::string *hit = store->catalog().lookupMiss(miss);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(*hit, "no-candidate llm");
        // Neither kind answers the other's lookup.
        EXPECT_EQ(store->catalog().lookup(miss), nullptr);
        EXPECT_EQ(store->catalog().lookupMiss(src_key), nullptr);
        EXPECT_NE(store->catalog().lookup(src_key), nullptr);
        // A loaded miss is not recorded again.
        EXPECT_FALSE(store->catalog().recordMiss(miss, "no-candidate llm"));
        // Pending misses die with discardPending...
        const std::string other = missKey("fedcba9876543210", src_key);
        EXPECT_TRUE(store->catalog().recordMiss(other, "incorrect egraph"));
        store->discardPending();
        EXPECT_EQ(store->catalog().pendingSize(), 0u);
        // ...and compaction keeps both kinds.
        std::string error;
        EXPECT_TRUE(store->compact(&error)) << error;
    }
    VerifyCache cache;
    auto store = PersistentStore::open(dir, &cache);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->stats().catalog_loaded, 1u);
    EXPECT_EQ(store->stats().misses_loaded, 1u);
    EXPECT_EQ(store->stats().recoveries, 0u);
}

// A store written before miss records existed, by the bytewise-CRC
// build (tests/fixtures/pre_miss_store: three rewrites and three
// verdicts from `lpo_cli gen-module 5 3 1` optimized hybrid with a
// store) still verifies under the sliced CRC, opens Loaded with the
// same counts, and is left byte-untouched.
TEST(PersistentStoreTest, StoreWrittenBeforeMissRecordsOpensUnchanged)
{
    const std::string fixture =
        std::string(LPO_FIXTURE_DIR) + "/pre_miss_store";
    for (const auto &[name, options] :
         {std::make_pair(kVerifyStoreFile, verifyStoreFileOptions(true)),
          std::make_pair(kCatalogStoreFile, catalogStoreFileOptions(true))}) {
        KvLoadStats stats;
        std::string error;
        EXPECT_EQ(KvStore::inspect(fixture + "/" + name, options, nullptr,
                                   &stats, &error),
                  KvOpen::Loaded)
            << name << ": " << error;
        EXPECT_EQ(stats.records, 3u) << name;
        EXPECT_EQ(stats.quarantined, 0u) << name;
        EXPECT_EQ(stats.torn_bytes, 0u) << name;
        EXPECT_FALSE(stats.recovered) << name;
    }

    // Open a copy for write: nothing to repair, nothing rewritten.
    std::string dir = scratchDir("pre_miss_store");
    for (const char *name : {kVerifyStoreFile, kCatalogStoreFile})
        spit(dir + "/" + name, slurp(fixture + "/" + name));
    {
        VerifyCache cache;
        std::string warning;
        auto store = PersistentStore::open(dir, &cache, &warning);
        ASSERT_NE(store, nullptr);
        EXPECT_TRUE(warning.empty()) << warning;
        EXPECT_EQ(store->stats().cache_loaded, 3u);
        EXPECT_EQ(store->stats().catalog_loaded, 3u);
        EXPECT_EQ(store->stats().misses_loaded, 0u);
        EXPECT_EQ(store->stats().recoveries, 0u);
        EXPECT_EQ(store->stats().decode_skipped, 0u);
    }
    for (const char *name : {kVerifyStoreFile, kCatalogStoreFile})
        EXPECT_EQ(slurp(dir + "/" + name), slurp(fixture + "/" + name))
            << name;
}
