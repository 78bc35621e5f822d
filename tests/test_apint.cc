// Unit and property tests for the APInt arbitrary-width integer.

#include <gtest/gtest.h>

#include "support/apint.h"
#include "support/rng.h"

using lpo::APInt;
using lpo::Rng;

TEST(APIntTest, ConstructionTruncates)
{
    APInt v(8, 0x1ff);
    EXPECT_EQ(v.zext(), 0xffu);
    EXPECT_EQ(v.width(), 8u);
}

TEST(APIntTest, SignExtension)
{
    EXPECT_EQ(APInt(8, 0x80).sext(), -128);
    EXPECT_EQ(APInt(8, 0x7f).sext(), 127);
    EXPECT_EQ(APInt(1, 1).sext(), -1);
    EXPECT_EQ(APInt(64, ~uint64_t(0)).sext(), -1);
}

TEST(APIntTest, NamedConstants)
{
    EXPECT_TRUE(APInt::zero(13).isZero());
    EXPECT_TRUE(APInt::one(13).isOne());
    EXPECT_TRUE(APInt::allOnes(13).isAllOnes());
    EXPECT_TRUE(APInt::signedMin(13).isSignedMin());
    EXPECT_EQ(APInt::signedMax(13).sext(), (1 << 12) - 1);
    EXPECT_EQ(APInt::signedMin(13).sext(), -(1 << 12));
}

TEST(APIntTest, ModularArithmetic)
{
    APInt a(8, 200), b(8, 100);
    EXPECT_EQ(a.add(b).zext(), (200 + 100) % 256u);
    EXPECT_EQ(b.sub(a).zext(), (256 + 100 - 200) % 256u);
    EXPECT_EQ(a.mul(b).zext(), (200 * 100) % 256u);
}

TEST(APIntTest, DivisionSemantics)
{
    EXPECT_EQ(APInt(8, 7).udiv(APInt(8, 2)).zext(), 3u);
    EXPECT_EQ(APInt::fromSigned(8, -7).sdiv(APInt(8, 2)).sext(), -3);
    EXPECT_EQ(APInt::fromSigned(8, -7).srem(APInt(8, 2)).sext(), -1);
    EXPECT_EQ(APInt(8, 7).urem(APInt(8, 3)).zext(), 1u);
}

TEST(APIntTest, Shifts)
{
    APInt v(8, 0x81);
    EXPECT_EQ(v.shl(1).zext(), 0x02u);
    EXPECT_EQ(v.lshr(1).zext(), 0x40u);
    EXPECT_EQ(v.ashr(1).zext(), 0xc0u);
    EXPECT_EQ(v.shl(8).zext(), 0u);
    EXPECT_EQ(v.lshr(9).zext(), 0u);
}

TEST(APIntTest, BitCounting)
{
    EXPECT_EQ(APInt(16, 0).countLeadingZeros(), 16u);
    EXPECT_EQ(APInt(16, 1).countLeadingZeros(), 15u);
    EXPECT_EQ(APInt(16, 0).countTrailingZeros(), 16u);
    EXPECT_EQ(APInt(16, 8).countTrailingZeros(), 3u);
    EXPECT_EQ(APInt(16, 0xf0f).popCount(), 8u);
    EXPECT_TRUE(APInt(16, 0x400).isPowerOf2());
    EXPECT_FALSE(APInt(16, 0x401).isPowerOf2());
    EXPECT_FALSE(APInt(16, 0).isPowerOf2());
}

TEST(APIntTest, OverflowPredicatesUnsigned)
{
    APInt max = APInt::allOnes(8);
    EXPECT_TRUE(max.addOverflowsUnsigned(APInt(8, 1)));
    EXPECT_FALSE(APInt(8, 100).addOverflowsUnsigned(APInt(8, 100)));
    EXPECT_TRUE(APInt(8, 1).subOverflowsUnsigned(APInt(8, 2)));
    EXPECT_FALSE(APInt(8, 2).subOverflowsUnsigned(APInt(8, 2)));
    EXPECT_TRUE(APInt(8, 16).mulOverflowsUnsigned(APInt(8, 16)));
    EXPECT_FALSE(APInt(8, 15).mulOverflowsUnsigned(APInt(8, 17)));
}

TEST(APIntTest, OverflowPredicatesSigned)
{
    EXPECT_TRUE(APInt::signedMax(8).addOverflowsSigned(APInt(8, 1)));
    EXPECT_FALSE(APInt(8, 1).addOverflowsSigned(APInt(8, 1)));
    EXPECT_TRUE(APInt::signedMin(8).subOverflowsSigned(APInt(8, 1)));
    EXPECT_TRUE(
        APInt::signedMin(8).mulOverflowsSigned(APInt::allOnes(8)));
    EXPECT_FALSE(APInt(8, 11).mulOverflowsSigned(APInt(8, 11)));
}

TEST(APIntTest, OverflowPredicatesSignedAtWidth64)
{
    // At i64 the exact sum of two operands leaves int64_t's range, so
    // the predicates must not compute it in 64 bits.
    APInt max = APInt::signedMax(64);
    APInt min = APInt::signedMin(64);
    APInt one(64, 1);
    APInt minus_one = APInt::allOnes(64);
    EXPECT_TRUE(max.addOverflowsSigned(one));
    EXPECT_TRUE(min.addOverflowsSigned(minus_one));
    EXPECT_TRUE(min.addOverflowsSigned(min));
    EXPECT_TRUE(max.addOverflowsSigned(max));
    EXPECT_FALSE(max.addOverflowsSigned(minus_one));
    EXPECT_FALSE(min.addOverflowsSigned(max));
    EXPECT_TRUE(min.subOverflowsSigned(one));
    EXPECT_TRUE(max.subOverflowsSigned(minus_one));
    EXPECT_TRUE(APInt(64, 0).subOverflowsSigned(min));
    EXPECT_FALSE(minus_one.subOverflowsSigned(min));
    EXPECT_FALSE(min.subOverflowsSigned(minus_one));
}

TEST(APIntTest, ShlOverflow)
{
    EXPECT_TRUE(APInt(8, 0x80).shlOverflowsUnsigned(1));
    EXPECT_FALSE(APInt(8, 0x40).shlOverflowsUnsigned(1));
    // Signed: 0x40 << 1 = 0x80 changes sign.
    EXPECT_TRUE(APInt(8, 0x40).shlOverflowsSigned(1));
    EXPECT_FALSE(APInt(8, 0x20).shlOverflowsSigned(1));
}

TEST(APIntTest, MinMaxHelpers)
{
    APInt a = APInt::fromSigned(8, -1); // 255 unsigned
    APInt b(8, 5);
    EXPECT_EQ(a.umin(b).zext(), 5u);
    EXPECT_EQ(a.umax(b).zext(), 255u);
    EXPECT_EQ(a.smin(b).sext(), -1);
    EXPECT_EQ(a.smax(b).sext(), 5);
}

TEST(APIntTest, ToString)
{
    EXPECT_EQ(APInt(8, 255).toString(), "-1");
    EXPECT_EQ(APInt(8, 127).toString(), "127");
    EXPECT_EQ(APInt(1, 1).toString(), "1");
    EXPECT_EQ(APInt(32, 42).toString(), "42");
}

// Property sweep: random values at every width agree with 64-bit
// reference arithmetic reduced mod 2^w.
class APIntWidthProperty : public testing::TestWithParam<unsigned>
{
};

TEST_P(APIntWidthProperty, ArithmeticMatchesReference)
{
    unsigned width = GetParam();
    Rng rng(width * 7919 + 1);
    uint64_t mask =
        width == 64 ? ~uint64_t(0) : ((uint64_t(1) << width) - 1);
    for (int i = 0; i < 300; ++i) {
        uint64_t ra = rng.next(), rb = rng.next();
        APInt a(width, ra), b(width, rb);
        EXPECT_EQ(a.add(b).zext(), (ra + rb) & mask);
        EXPECT_EQ(a.sub(b).zext(), (ra - rb) & mask);
        EXPECT_EQ(a.mul(b).zext(), (ra * rb) & mask);
        EXPECT_EQ(a.andOp(b).zext(), (ra & rb) & mask);
        EXPECT_EQ(a.orOp(b).zext(), (ra | rb) & mask);
        EXPECT_EQ(a.xorOp(b).zext(), (ra ^ rb) & mask);
        EXPECT_EQ(a.notOp().zext(), ~ra & mask);
        EXPECT_EQ(a.neg().zext(), (0 - ra) & mask);
        EXPECT_EQ(a.ult(b), (ra & mask) < (rb & mask));
        // Round trips.
        if (width < 64) {
            EXPECT_EQ(a.zextTo(width + 1).truncTo(width), a);
            EXPECT_EQ(a.sextTo(64).sext(), a.sext());
        }
    }
}

TEST_P(APIntWidthProperty, OverflowPredicatesConsistent)
{
    unsigned width = GetParam();
    Rng rng(width * 104729 + 7);
    for (int i = 0; i < 300; ++i) {
        APInt a(width, rng.next()), b(width, rng.next());
        // 128-bit reference arithmetic is exact at every width.
        __int128 sa = a.sext(), sb = b.sext();
        __int128 lo = APInt::signedMin(width).sext();
        __int128 hi = APInt::signedMax(width).sext();
        EXPECT_EQ(a.addOverflowsSigned(b),
                  sa + sb < lo || sa + sb > hi);
        EXPECT_EQ(a.subOverflowsSigned(b),
                  sa - sb < lo || sa - sb > hi);
        EXPECT_EQ(a.mulOverflowsSigned(b),
                  sa * sb < lo || sa * sb > hi);
        EXPECT_EQ(a.addOverflowsUnsigned(b),
                  static_cast<unsigned __int128>(a.zext()) + b.zext() >
                      APInt::allOnes(width).zext());
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, APIntWidthProperty,
                         testing::Values(1u, 3u, 8u, 13u, 16u, 32u, 47u,
                                         63u, 64u));
