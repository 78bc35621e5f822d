// Tests for the RNG, string utilities, and Result type.

#include <gtest/gtest.h>

#include <set>

#include "support/error.h"
#include "support/rng.h"
#include "support/string_utils.h"

using namespace lpo;

TEST(RngTest, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(RngTest, ForkIsIndependentAndStable)
{
    Rng base(7);
    Rng f1 = base.fork("alpha");
    Rng f2 = base.fork("alpha");
    Rng f3 = base.fork("beta");
    EXPECT_EQ(f1.next(), f2.next());
    Rng f4 = Rng(7).fork("beta");
    EXPECT_EQ(f3.next(), f4.next());
}

TEST(RngTest, NextBelowInRangeAndCoversValues)
{
    Rng rng(3);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.nextBelow(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NextRangeInclusive)
{
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(9);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(StringUtilsTest, Trim)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(trim("\t\n"), "");
    EXPECT_EQ(trim("abc"), "abc");
}

TEST(StringUtilsTest, StartsWithAndJoin)
{
    EXPECT_TRUE(startsWith("define i32", "define"));
    EXPECT_FALSE(startsWith("def", "define"));
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtilsTest, HashingStableAndSensitive)
{
    EXPECT_EQ(fnv1a64("hello"), fnv1a64("hello"));
    EXPECT_NE(fnv1a64("hello"), fnv1a64("hellp"));
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(StringUtilsTest, FormatFixed)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatFixed(2.0, 1), "2.0");
}

TEST(ResultTest, ValueAndError)
{
    Result<int> ok(7);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(*ok, 7);

    Result<int> bad(Error{"boom", 3, 0});
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().toString(), "line 3: boom");

    Result<int> no_loc(Error{"plain"});
    EXPECT_EQ(no_loc.error().toString(), "plain");
}

// ---------------------------------------------------------------------
// Failpoint registry (support/failpoint.h). These tests configure the
// process-wide registry, so each one clears it on the way out.
// ---------------------------------------------------------------------

#include <algorithm>

#include "support/failpoint.h"

namespace {

struct FailPointGuard
{
    ~FailPointGuard() { lpo::FailPoints::instance().clear(); }
};

} // namespace

TEST(FailPointTest, OffByDefaultAndListsSites)
{
    FailPointGuard guard;
    auto &fp = lpo::FailPoints::instance();
    fp.clear();
    EXPECT_FALSE(lpo::FailPoints::anyArmed());
    auto names = fp.siteNames();
    ASSERT_FALSE(names.empty());
    // The chaos CI sweeps this list; the core sites must be present.
    auto has = [&](const char *name) {
        return std::find(names.begin(), names.end(), name) != names.end();
    };
    EXPECT_TRUE(has("sat.exhaust"));
    EXPECT_TRUE(has("bitblast.throw"));
    EXPECT_TRUE(has("parser.fail"));
    EXPECT_TRUE(has("patchback.fail"));
    EXPECT_FALSE(LPO_FAILPOINT("sat.exhaust"));
}

TEST(FailPointTest, AlwaysOnceNthModes)
{
    FailPointGuard guard;
    auto &fp = lpo::FailPoints::instance();
    ASSERT_TRUE(fp.configure("sat.exhaust=always"));
    EXPECT_TRUE(lpo::FailPoints::anyArmed());
    EXPECT_TRUE(LPO_FAILPOINT("sat.exhaust"));
    EXPECT_TRUE(LPO_FAILPOINT("sat.exhaust"));
    EXPECT_EQ(fp.hits("sat.exhaust"), 2u);
    EXPECT_EQ(fp.fires("sat.exhaust"), 2u);

    ASSERT_TRUE(fp.configure("sat.exhaust=once"));
    EXPECT_EQ(fp.hits("sat.exhaust"), 0u); // configure resets counters
    EXPECT_TRUE(LPO_FAILPOINT("sat.exhaust"));
    EXPECT_FALSE(LPO_FAILPOINT("sat.exhaust"));
    EXPECT_EQ(fp.fires("sat.exhaust"), 1u);

    ASSERT_TRUE(fp.configure("sat.exhaust=nth:3"));
    EXPECT_FALSE(LPO_FAILPOINT("sat.exhaust"));
    EXPECT_FALSE(LPO_FAILPOINT("sat.exhaust"));
    EXPECT_TRUE(LPO_FAILPOINT("sat.exhaust"));
    EXPECT_FALSE(LPO_FAILPOINT("sat.exhaust"));
}

TEST(FailPointTest, ProbModeIsSeededAndBounded)
{
    FailPointGuard guard;
    auto &fp = lpo::FailPoints::instance();
    ASSERT_TRUE(fp.configure("parser.fail=prob:0.5:7"));
    int fires_a = 0;
    for (int i = 0; i < 200; ++i)
        fires_a += LPO_FAILPOINT("parser.fail") ? 1 : 0;
    // Re-configuring with the same seed replays the same stream.
    ASSERT_TRUE(fp.configure("parser.fail=prob:0.5:7"));
    int fires_b = 0;
    for (int i = 0; i < 200; ++i)
        fires_b += LPO_FAILPOINT("parser.fail") ? 1 : 0;
    EXPECT_EQ(fires_a, fires_b);
    EXPECT_GT(fires_a, 0);
    EXPECT_LT(fires_a, 200);
}

TEST(FailPointTest, RejectsBadSpecsAtomically)
{
    FailPointGuard guard;
    auto &fp = lpo::FailPoints::instance();
    ASSERT_TRUE(fp.configure("sat.exhaust=always"));
    std::string error;
    // Unknown site: rejected, existing configuration untouched.
    EXPECT_FALSE(fp.configure("no.such.site=always", &error));
    EXPECT_NE(error.find("no.such.site"), std::string::npos);
    EXPECT_TRUE(LPO_FAILPOINT("sat.exhaust"));
    // Malformed mode, malformed clause: same.
    EXPECT_FALSE(fp.configure("sat.exhaust=sometimes", &error));
    EXPECT_FALSE(fp.configure("sat.exhaust", &error));
    EXPECT_FALSE(fp.configure("sat.exhaust=nth:0", &error));
    EXPECT_FALSE(fp.configure("sat.exhaust=prob:1.5", &error));
    EXPECT_TRUE(LPO_FAILPOINT("sat.exhaust"));
    // Multi-clause specs use ';' or ','.
    ASSERT_TRUE(fp.configure("sat.exhaust=always;parser.fail=once"));
    EXPECT_TRUE(LPO_FAILPOINT("sat.exhaust"));
    EXPECT_TRUE(LPO_FAILPOINT("parser.fail"));
    EXPECT_FALSE(LPO_FAILPOINT("parser.fail"));
    // clear() disarms everything.
    fp.clear();
    EXPECT_FALSE(lpo::FailPoints::anyArmed());
    EXPECT_FALSE(LPO_FAILPOINT("sat.exhaust"));
}
