// Bit-blasting tests: constant folding of circuits, and a property
// sweep checking variable circuits against APInt reference semantics
// by solving for forced inputs.

#include <gtest/gtest.h>

#include "smt/bitblast.h"
#include "support/rng.h"

using namespace lpo::smt;
using lpo::APInt;
using lpo::Rng;

namespace {

/** Force a fresh bit-vector to a concrete value via unit clauses. */
void
force(CircuitBuilder &cb, const BitVec &bv, const APInt &value)
{
    for (size_t i = 0; i < bv.size(); ++i)
        cb.require(((value.zext() >> i) & 1) ? bv[i] : -bv[i]);
}

} // namespace

TEST(BitblastTest, ConstantsFoldWithoutClauses)
{
    SatSolver sat;
    CircuitBuilder cb(sat);
    BitVec a = CircuitBuilder::constBV(APInt(8, 200));
    BitVec b = CircuitBuilder::constBV(APInt(8, 100));
    BitVec sum = cb.bvAdd(a, b);
    EXPECT_EQ(cb.numNodes(), 0) << "constant circuit allocated vars";
    // Read the folded value directly from the literals.
    uint64_t value = 0;
    for (size_t i = 0; i < sum.size(); ++i)
        if (sum[i] == CircuitBuilder::kTrue)
            value |= uint64_t(1) << i;
    EXPECT_EQ(value, (200 + 100) % 256u);
}

TEST(BitblastTest, GateIdentities)
{
    SatSolver sat;
    CircuitBuilder cb(sat);
    CLit x = cb.freshLit();
    EXPECT_EQ(cb.andGate(x, CircuitBuilder::kTrue), x);
    EXPECT_EQ(cb.andGate(x, CircuitBuilder::kFalse),
              CircuitBuilder::kFalse);
    EXPECT_EQ(cb.andGate(x, x), x);
    EXPECT_EQ(cb.andGate(x, -x), CircuitBuilder::kFalse);
    EXPECT_EQ(cb.xorGate(x, x), CircuitBuilder::kFalse);
    EXPECT_EQ(cb.xorGate(x, -x), CircuitBuilder::kTrue);
    EXPECT_EQ(cb.muxGate(CircuitBuilder::kTrue, x, -x), x);
    // Constant folding allocates no variables at all.
    EXPECT_EQ(cb.numNodes(), 1);
}

TEST(BitblastTest, HashConsingReturnsIdenticalLiterals)
{
    SatSolver sat;
    CircuitBuilder cb(sat);
    CLit a = cb.freshLit();
    CLit b = cb.freshLit();

    // Commuted operands hash to the same node.
    CLit ab = cb.andGate(a, b);
    EXPECT_EQ(cb.andGate(b, a), ab);
    EXPECT_EQ(cb.orGate(-a, -b), -ab); // De Morgan shares the AND node

    // XOR negation normalization: the phase lives outside the node.
    CLit x = cb.xorGate(a, b);
    EXPECT_EQ(cb.xorGate(b, a), x);
    EXPECT_EQ(cb.xorGate(-a, b), -x);
    EXPECT_EQ(cb.xorGate(a, -b), -x);
    EXPECT_EQ(cb.xorGate(-a, -b), x);
    EXPECT_EQ(cb.iffGate(a, b), -x);

    // MUX selector normalization: mux(-s, t, f) == mux(s, f, t).
    CLit s = cb.freshLit();
    CLit m = cb.muxGate(s, a, b);
    EXPECT_EQ(cb.muxGate(s, a, b), m);
    EXPECT_EQ(cb.muxGate(-s, b, a), m);

    EXPECT_GT(cb.uniqueTableHits(), 0u);
}

TEST(BitblastTest, RepeatedSubcircuitAddsNoVarsOrClauses)
{
    // Encoding the same subcircuit twice must not grow the formula:
    // the unique table answers every gate of the second encoding.
    SatSolver sat;
    CircuitBuilder cb(sat);
    BitVec a = cb.freshBV(8);
    BitVec b = cb.freshBV(8);

    BitVec first = cb.bvMul(a, b);
    cb.emit();
    int vars_after_first = sat.numVars();
    uint64_t clauses_after_first = sat.clausesAdded();
    EXPECT_EQ(vars_after_first, cb.numNodes());

    BitVec second = cb.bvMul(a, b);
    cb.emit();
    EXPECT_EQ(sat.numVars(), vars_after_first);
    EXPECT_EQ(sat.clausesAdded(), clauses_after_first);
    EXPECT_EQ(first, second); // literal-for-literal identical

    // A third structure mixing shared pieces still reuses them.
    BitVec sum = cb.bvAdd(a, b);
    int vars_after_sum = cb.numNodes();
    cb.bvAdd(b, a); // xor/and cons through commuted operands
    EXPECT_EQ(cb.numNodes(), vars_after_sum);
}

class BitblastOpProperty : public testing::TestWithParam<unsigned>
{
};

TEST_P(BitblastOpProperty, CircuitsMatchAPIntReference)
{
    unsigned width = GetParam();
    Rng rng(width * 31337 + 5);
    for (int iter = 0; iter < 25; ++iter) {
        APInt xa(width, rng.next());
        APInt xb(width, rng.next());

        SatSolver sat;
        CircuitBuilder cb(sat);
        BitVec a = cb.freshBV(width);
        BitVec b = cb.freshBV(width);
        force(cb, a, xa);
        force(cb, b, xb);

        BitVec sum = cb.bvAdd(a, b);
        BitVec diff = cb.bvSub(a, b);
        BitVec prod = cb.bvMul(a, b);
        BitVec conj = cb.bvAnd(a, b);
        BitVec shl = cb.bvShl(a, b);
        BitVec lshr = cb.bvLShr(a, b);
        BitVec ashr = cb.bvAShr(a, b);
        CLit ult = cb.bvULt(a, b);
        CLit slt = cb.bvSLt(a, b);
        CLit eq = cb.bvEq(a, b);
        CLit add_ovf_u = cb.addOverflowsU(a, b);
        CLit add_ovf_s = cb.addOverflowsS(a, b);
        CLit mul_ovf_u = cb.mulOverflowsU(a, b);
        CLit mul_ovf_s = cb.mulOverflowsS(a, b);

        // No constraint mentions the outputs: emit their definitions.
        cb.emit();
        ASSERT_EQ(sat.solve(), SatResult::Sat);
        EXPECT_EQ(cb.modelBV(sum).zext(), xa.add(xb).zext());
        EXPECT_EQ(cb.modelBV(diff).zext(), xa.sub(xb).zext());
        EXPECT_EQ(cb.modelBV(prod).zext(), xa.mul(xb).zext());
        EXPECT_EQ(cb.modelBV(conj).zext(), xa.andOp(xb).zext());
        unsigned amount = static_cast<unsigned>(
            std::min<uint64_t>(xb.zext(), width));
        EXPECT_EQ(cb.modelBV(shl).zext(), xa.shl(amount).zext());
        EXPECT_EQ(cb.modelBV(lshr).zext(), xa.lshr(amount).zext());
        EXPECT_EQ(cb.modelBV(ashr).zext(),
                  xb.zext() >= width
                      ? (xa.isSignBitSet()
                             ? APInt::allOnes(width).zext()
                             : 0)
                      : xa.ashr(amount).zext());
        EXPECT_EQ(cb.modelLit(ult), xa.ult(xb));
        EXPECT_EQ(cb.modelLit(slt), xa.slt(xb));
        EXPECT_EQ(cb.modelLit(eq), xa.eq(xb));
        EXPECT_EQ(cb.modelLit(add_ovf_u), xa.addOverflowsUnsigned(xb));
        EXPECT_EQ(cb.modelLit(add_ovf_s), xa.addOverflowsSigned(xb));
        EXPECT_EQ(cb.modelLit(mul_ovf_u), xa.mulOverflowsUnsigned(xb));
        EXPECT_EQ(cb.modelLit(mul_ovf_s), xa.mulOverflowsSigned(xb));
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitblastOpProperty,
                         testing::Values(1u, 4u, 8u, 13u));

TEST(BitblastTest, DivisionConstraints)
{
    Rng rng(99);
    for (int iter = 0; iter < 20; ++iter) {
        unsigned width = 8;
        APInt xa(width, rng.next());
        APInt xb(width, rng.next());
        if (xb.isZero())
            xb = APInt(width, 3);

        SatSolver sat;
        CircuitBuilder cb(sat);
        BitVec a = cb.freshBV(width);
        BitVec b = cb.freshBV(width);
        force(cb, a, xa);
        force(cb, b, xb);
        BitVec q, r;
        cb.bvUDivRem(a, b, CircuitBuilder::kTrue, &q, &r);
        BitVec sq, sr;
        // Guard signed division away from INT_MIN/-1.
        bool overflow = xa.isSignedMin() && xb.isAllOnes();
        cb.bvSDivRem(a, b, overflow ? CircuitBuilder::kFalse
                                    : CircuitBuilder::kTrue, &sq, &sr);
        cb.emit();
        ASSERT_EQ(sat.solve(), SatResult::Sat);
        EXPECT_EQ(cb.modelBV(q).zext(), xa.udiv(xb).zext());
        EXPECT_EQ(cb.modelBV(r).zext(), xa.urem(xb).zext());
        if (!overflow) {
            EXPECT_EQ(cb.modelBV(sq).sext(), xa.sdiv(xb).sext());
            EXPECT_EQ(cb.modelBV(sr).sext(), xa.srem(xb).sext());
        }
    }
}

TEST(BitblastTest, EmitsGatesInCreationOrderBeforeEachConstraint)
{
    // Gates add nothing to the solver until a constraint needs them;
    // each constraint first emits every pending variable and gate, so
    // the solver always holds a prefix of the builder's circuit.
    SatSolver sat;
    CircuitBuilder cb(sat);
    BitVec x = cb.freshBV(6);
    CLit g1 = cb.andGate(x[0], x[1]);
    CLit g2 = cb.xorGate(x[2], x[3]);
    EXPECT_EQ(sat.numVars(), 0);
    EXPECT_EQ(sat.clausesAdded(), 0u);
    ASSERT_EQ(cb.numNodes(), 8);

    cb.requireImplies(g1, g2);
    EXPECT_EQ(sat.numVars(), 8);
    EXPECT_EQ(cb.numEmitted(), 8);
    EXPECT_EQ(sat.clausesAdded(), 3u + 4u + 1u);

    CLit g3 = cb.andGate(g2, x[4]);
    CLit g4 = cb.xorGate(g3, x[5]);
    ASSERT_EQ(cb.numNodes(), 10);
    EXPECT_EQ(sat.numVars(), 8);
    cb.require(g4);
    EXPECT_EQ(sat.numVars(), cb.numNodes());
    EXPECT_EQ(sat.clausesAdded(), 3u * 2 + 4u * 2 + 2);

    // The emitted clauses define every gate: g4 holds, so g2 = x2^x3,
    // g3 = g2 & x4 and x5 = !g3, and g1 = x0 & x1 implies g2.
    ASSERT_EQ(sat.solve(), SatResult::Sat);
    bool v[6] = {};
    for (int i = 0; i < 6; ++i)
        v[i] = cb.modelLit(x[i]);
    EXPECT_EQ(cb.modelLit(g1), v[0] && v[1]);
    EXPECT_EQ(cb.modelLit(g2), v[2] != v[3]);
    EXPECT_EQ(cb.modelLit(g3), (v[2] != v[3]) && v[4]);
    EXPECT_TRUE(cb.modelLit(g4));
    EXPECT_NE(cb.modelLit(g3), v[5]);
    EXPECT_TRUE(!cb.modelLit(g1) || cb.modelLit(g2));
}
