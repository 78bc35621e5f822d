// Verification result cache tests: alpha-renamed hits, counterexample
// re-derivation equality across every backend, option-sensitive keys,
// and compute-once concurrency.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "ir/parser.h"
#include "ir/printer.h"
#include "verify/cache.h"
#include "verify/refine.h"

using namespace lpo;
using namespace lpo::verify;

namespace {

RefinementResult
checkCached(ir::Context &ctx, const std::string &src_text,
            const std::string &tgt_text, VerifyCache *cache,
            uint64_t seed = 0xA11CE)
{
    auto src = ir::parseFunction(ctx, src_text);
    auto tgt = ir::parseFunction(ctx, tgt_text);
    EXPECT_TRUE(src.ok() && tgt.ok());
    RefineOptions options;
    options.cache = cache;
    options.seed = seed;
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
            if (la.is_fp) {
                uint64_t wa, wb;
                std::memcpy(&wa, &la.fp, 8);
                std::memcpy(&wb, &lb.fp, 8);
                EXPECT_EQ(wa, wb);
            } else {
                EXPECT_EQ(la.bits.zext(), lb.bits.zext());
            }
        }
    }
    ASSERT_EQ(ia.memory.size(), ib.memory.size());
    for (size_t m = 0; m < ia.memory.size(); ++m)
        EXPECT_EQ(ia.memory[m].bytes, ib.memory[m].bytes);
}

// SAT-backend pair, incorrect (wrong constant).
const char *kSatSrc =
    "define i8 @src(i8 %x) {\n  %r = add i8 %x, 1\n  ret i8 %r\n}\n";
const char *kSatTgt =
    "define i8 @tgt(i8 %x) {\n  %r = add i8 %x, 2\n  ret i8 %r\n}\n";

// Branchy (exhaustive-backend) pair, incorrect for negative inputs.
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

// FP (sampled-backend) pair, incorrect (rounding/inf/NaN).
const char *kFpSrc =
    "define double @src(double %x) {\n"
    "  %a = fadd double %x, 1.000000e+00\n"
    "  %r = fsub double %a, 1.000000e+00\n"
    "  ret double %r\n}\n";
const char *kFpTgt =
    "define double @tgt(double %x) {\n  ret double %x\n}\n";

} // namespace

TEST(VerifyCacheTest, SecondQueryHitsAndMatches)
{
    ir::Context ctx;
    VerifyCache cache;
    auto first = checkCached(ctx, kSatSrc, kSatTgt, &cache);
    auto second = checkCached(ctx, kSatSrc, kSatTgt, &cache);
    auto uncached = checkCached(ctx, kSatSrc, kSatTgt, nullptr);

    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    ASSERT_EQ(first.verdict, Verdict::Incorrect);
    expectSameResult(first, second);
    expectSameResult(first, uncached);
}

TEST(VerifyCacheTest, AlphaRenamedVariantHits)
{
    // Same structure, different function/value names: one proof.
    ir::Context ctx;
    VerifyCache cache;
    auto a = checkCached(
        ctx,
        "define i8 @src(i8 %x) {\n  %r = add i8 %x, -128\n"
        "  ret i8 %r\n}\n",
        "define i8 @tgt(i8 %x) {\n  %r = xor i8 %x, -128\n"
        "  ret i8 %r\n}\n",
        &cache);
    auto b = checkCached(
        ctx,
        "define i8 @other(i8 %value) {\n  %sum = add i8 %value, -128\n"
        "  ret i8 %sum\n}\n",
        "define i8 @candidate(i8 %value) {\n"
        "  %flip = xor i8 %value, -128\n  ret i8 %flip\n}\n",
        &cache);
    EXPECT_EQ(a.verdict, Verdict::Correct);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    expectSameResult(a, b);
}

TEST(VerifyCacheTest, DifferentStructureMisses)
{
    ir::Context ctx;
    VerifyCache cache;
    checkCached(ctx, kSatSrc, kSatTgt, &cache);
    // Different constant => different canonical print => new key.
    checkCached(ctx, kSatSrc,
                "define i8 @tgt(i8 %x) {\n  %r = add i8 %x, 3\n"
                "  ret i8 %r\n}\n",
                &cache);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(VerifyCacheTest, VerdictAffectingOptionsChangeKey)
{
    // The sampled backend's seed is part of the key: a different seed
    // legitimately produces different sample sets.
    ir::Context ctx;
    VerifyCache cache;
    checkCached(ctx, kFpSrc, kFpTgt, &cache, /*seed=*/1);
    checkCached(ctx, kFpSrc, kFpTgt, &cache, /*seed=*/2);
    EXPECT_EQ(cache.stats().misses, 2u);
    checkCached(ctx, kFpSrc, kFpTgt, &cache, /*seed=*/1);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(VerifyCacheTest, ExhaustiveCounterexampleRederived)
{
    ir::Context ctx;
    VerifyCache cache;
    auto first = checkCached(ctx, kBranchySrc, kBranchyTgt, &cache);
    auto hit = checkCached(ctx, kBranchySrc, kBranchyTgt, &cache);
    ASSERT_EQ(first.verdict, Verdict::Incorrect);
    EXPECT_EQ(first.backend, "exhaustive");
    ASSERT_TRUE(hit.counterexample.has_value());
    // Lowest violating index (x = 129) survives the cache round-trip.
    EXPECT_EQ(hit.counterexample->input.args[0].lanes[0].bits.zext(),
              129u);
    expectSameResult(first, hit);
}

TEST(VerifyCacheTest, SampledCounterexampleRederived)
{
    ir::Context ctx;
    VerifyCache cache;
    auto first = checkCached(ctx, kFpSrc, kFpTgt, &cache);
    auto hit = checkCached(ctx, kFpSrc, kFpTgt, &cache);
    ASSERT_EQ(first.verdict, Verdict::Incorrect);
    EXPECT_EQ(first.backend, "sampled");
    expectSameResult(first, hit);
}

TEST(VerifyCacheTest, ClearResetsEverything)
{
    ir::Context ctx;
    VerifyCache cache;
    checkCached(ctx, kSatSrc, kSatTgt, &cache);
    EXPECT_EQ(cache.size(), 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
    checkCached(ctx, kSatSrc, kSatTgt, &cache);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(VerifyCacheTest, EntryCapEvictsOldestWithoutChangingVerdicts)
{
    // A cap of 2 on a single shard with 4 distinct queries: the two
    // oldest keys are evicted in insertion order, verdicts match the
    // uncached run throughout, and the survivors keep hitting.
    ir::Context ctx;
    VerifyCache cache(/*shard_count=*/1, /*max_entries=*/2);
    auto tgtFor = [](int constant) {
        return "define i8 @tgt(i8 %x) {\n  %r = add i8 %x, " +
               std::to_string(constant) + "\n  ret i8 %r\n}\n";
    };
    for (int constant = 1; constant <= 4; ++constant) {
        auto cached = checkCached(ctx, kSatSrc, tgtFor(constant), &cache);
        auto plain = checkCached(ctx, kSatSrc, tgtFor(constant), nullptr);
        expectSameResult(cached, plain);
    }
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.stats().evictions, 2u);
    // Constant 1 was evicted first: re-querying it is a fresh miss
    // (and evicts constant 3, the oldest survivor).
    auto again = checkCached(ctx, kSatSrc, tgtFor(1), &cache);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 5u);
    EXPECT_EQ(cache.stats().evictions, 3u);
    EXPECT_EQ(again.verdict, Verdict::Correct);
    // Constants 4 and 1 survive and hit.
    checkCached(ctx, kSatSrc, tgtFor(4), &cache);
    checkCached(ctx, kSatSrc, tgtFor(1), &cache);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(VerifyCacheTest, SeedAndForEachRoundTrip)
{
    // seed() pre-populates an entry exactly as a prior compute would
    // have: the next query is a hit with a byte-identical result, and
    // forEach sees the seeded verdict again.
    ir::Context ctx;
    VerifyCache warm;
    auto first = checkCached(ctx, kBranchySrc, kBranchyTgt, &warm);
    ASSERT_EQ(first.verdict, Verdict::Incorrect);

    std::vector<std::pair<std::string, CachedVerdict>> dumped;
    warm.forEach([&](const std::string &key, const CachedVerdict &value) {
        dumped.emplace_back(key, value);
    });
    ASSERT_EQ(dumped.size(), 1u);

    VerifyCache cold;
    EXPECT_TRUE(cold.seed(dumped[0].first, dumped[0].second));
    EXPECT_FALSE(cold.seed(dumped[0].first, dumped[0].second));
    auto replayed = checkCached(ctx, kBranchySrc, kBranchyTgt, &cold);
    EXPECT_EQ(cold.stats().hits, 1u);
    EXPECT_EQ(cold.stats().misses, 0u);
    expectSameResult(first, replayed);
}

TEST(VerifyCacheTest, PublishHookSeesFreshVerdictsOnly)
{
    ir::Context ctx;
    VerifyCache cache;
    std::vector<std::string> published;
    cache.setPublishHook(
        [&](const std::string &key, const CachedVerdict &) {
            published.push_back(key);
        });
    checkCached(ctx, kSatSrc, kSatTgt, &cache);  // compute: published
    checkCached(ctx, kSatSrc, kSatTgt, &cache);  // hit: not published
    EXPECT_EQ(published.size(), 1u);
    cache.setPublishHook(nullptr);
    checkCached(ctx, kBranchySrc, kBranchyTgt, &cache);
    EXPECT_EQ(published.size(), 1u);
}

// Pins the exact key bytes: persisted verify stores are indexed by
// them, so any change (including to the literal slots that replaced
// retired options) silently turns every stored verdict into a miss.
TEST(VerifyCacheTest, KeyBytesArePinned)
{
    ir::Context ctx;
    auto src = ir::parseFunction(ctx, kSatSrc);
    auto tgt = ir::parseFunction(ctx, kSatTgt);
    ASSERT_TRUE(src.ok() && tgt.ok());
    auto keyFor = [&](RefineOptions options) {
        VerifyCache cache;
        std::string key;
        cache.setPublishHook(
            [&](const std::string &k, const CachedVerdict &) { key = k; });
        options.cache = &cache;
        checkRefinement(**src, **tgt, options);
        return key;
    };
    const std::string pair =
        "v1\x01"
        "define i8 @f(i8 %0) {\n  %1 = add i8 %0, 1\n  ret i8 %1\n}\n"
        "\x02"
        "define i8 @f(i8 %0) {\n  %1 = add i8 %0, 2\n  ret i8 %1\n}\n"
        "\x03";

    EXPECT_EQ(keyFor(RefineOptions{}), pair + "2000000,16,20000,64,659918,1");

    // The module pipeline's ladder (core::ModuleOptOptions).
    RefineOptions ladder;
    ladder.conflict_budget = 200'000;
    ladder.budget_tiers = {50'000, 200'000, 2'000'000};
    EXPECT_EQ(keyFor(ladder), pair + "200000,16,20000,64,659918,1"
                                     ",t50000,t200000,t2000000");
}

TEST(VerifyCacheTest, ComputeOncePerKeyUnderConcurrency)
{
    // All threads race on ONE key: exactly one computes (miss), the
    // rest block and re-derive (hits) — which keeps hit/miss counts
    // thread-count-invariant by construction.
    const unsigned kThreads = 8;
    VerifyCache cache;
    std::vector<RefinementResult> results(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Per-thread context: ir::Context is not thread-safe.
            ir::Context ctx;
            results[t] = checkCached(ctx, kBranchySrc, kBranchyTgt, &cache);
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, kThreads - 1);
    for (unsigned t = 1; t < kThreads; ++t)
        expectSameResult(results[0], results[t]);
}

TEST(SpecialPatternsTest, WellDefinedAndDeduplicatedAtEveryWidth)
{
    for (unsigned width : {1u, 2u, 3u, 4u, 8u, 13u, 32u, 64u}) {
        auto patterns = specialPatterns(width);
        uint64_t mask = width == 64 ? ~uint64_t(0)
                                    : (uint64_t(1) << width) - 1;
        for (size_t i = 0; i < patterns.size(); ++i) {
            EXPECT_EQ(patterns[i] & mask, patterns[i])
                << "width " << width << " entry " << i << " out of range";
            for (size_t j = i + 1; j < patterns.size(); ++j)
                EXPECT_NE(patterns[i], patterns[j])
                    << "width " << width << " duplicate entry";
        }
    }
    // The degenerate width collapses to exactly {0, 1}.
    EXPECT_EQ(specialPatterns(1), (std::vector<uint64_t>{0, 1}));
    // Wider lists still carry the classic boundary patterns.
    auto w8 = specialPatterns(8);
    for (uint64_t expected : {0ull, 1ull, 255ull, 254ull, 128ull, 127ull})
        EXPECT_NE(std::find(w8.begin(), w8.end(), expected), w8.end());
}
