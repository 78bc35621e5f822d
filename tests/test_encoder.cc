// Encoder tests: fragment boundaries, and agreement between the SAT
// encoding and the interpreter on random inputs (the two semantics
// must coincide on the shared fragment).

#include <gtest/gtest.h>

#include "interp/interp.h"
#include "ir/parser.h"
#include "support/rng.h"
#include "verify/encoder.h"

using namespace lpo;
using namespace lpo::verify;

namespace {

std::unique_ptr<ir::Function>
parse(ir::Context &ctx, const std::string &text)
{
    auto r = ir::parseFunction(ctx, text);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().toString());
    return r.take();
}

} // namespace

TEST(EncoderTest, FragmentBoundaries)
{
    ir::Context ctx;
    EXPECT_TRUE(canEncode(*parse(ctx,
        "define i8 @f(i8 %x) {\n  %r = add i8 %x, 1\n"
        "  ret i8 %r\n}\n")));
    EXPECT_TRUE(canEncode(*parse(ctx,
        "define <4 x i8> @f(<4 x i8> %x) {\n"
        "  %r = call <4 x i8> @llvm.umin.v4i8(<4 x i8> %x, "
        "<4 x i8> splat (i8 9))\n  ret <4 x i8> %r\n}\n")));
    EXPECT_FALSE(canEncode(*parse(ctx,
        "define i1 @f(double %x) {\n"
        "  %r = fcmp oeq double %x, 1.000000e+00\n"
        "  ret i1 %r\n}\n")));
    EXPECT_FALSE(canEncode(*parse(ctx,
        "define i32 @f(ptr %p) {\n"
        "  %r = load i32, ptr %p, align 4\n  ret i32 %r\n}\n")));
}

// Property: for random concrete inputs, forcing the encoder's argument
// variables to those inputs yields exactly the interpreter's value and
// poison verdict.
class EncoderAgreement : public testing::TestWithParam<const char *>
{
};

TEST_P(EncoderAgreement, MatchesInterpreter)
{
    ir::Context ctx;
    auto fn = parse(ctx, GetParam());
    ASSERT_TRUE(canEncode(*fn));
    Rng rng(4242);

    for (int iter = 0; iter < 40; ++iter) {
        smt::SatSolver sat;
        smt::CircuitBuilder cb(sat);

        interp::ExecutionInput input;
        std::vector<ValueEnc> args;
        for (unsigned i = 0; i < fn->numArgs(); ++i) {
            const ir::Type *type = fn->arg(i)->type();
            unsigned lanes = type->isVector() ? type->lanes() : 1;
            unsigned width = type->scalarType()->intWidth();
            interp::RtValue rt;
            ValueEnc enc;
            for (unsigned lane = 0; lane < lanes; ++lane) {
                APInt value(width, rng.next());
                rt.lanes.push_back(interp::LaneValue::ofInt(value));
                enc.push_back(LaneEnc{
                    smt::CircuitBuilder::constBV(value),
                    smt::CircuitBuilder::kFalse});
            }
            input.args.push_back(rt);
            args.push_back(enc);
        }

        auto encoded = encodeFunction(cb, *fn, &args);
        ASSERT_TRUE(encoded.has_value());
        interp::ExecutionResult run = interp::execute(*fn, input);

        // With constant inputs the circuit folds: solve() is trivial.
        // What does not fold (division's quotient and remainder) is
        // read back from the model, so emit it first.
        cb.emit();
        ASSERT_NE(sat.solve(), smt::SatResult::Unsat);
        EXPECT_EQ(cb.modelLit(encoded->ub), run.ub);
        if (run.ub)
            continue;
        for (size_t lane = 0; lane < encoded->ret.size(); ++lane) {
            bool enc_poison = cb.modelLit(encoded->ret[lane].poison);
            EXPECT_EQ(enc_poison, run.ret->lanes[lane].poison)
                << "lane " << lane;
            if (!run.ret->lanes[lane].poison) {
                EXPECT_EQ(cb.modelBV(encoded->ret[lane].bits).zext(),
                          run.ret->lanes[lane].bits.zext())
                    << "lane " << lane;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Functions, EncoderAgreement, testing::Values(
    // Flags and poison.
    "define i8 @f(i8 %x, i8 %y) {\n"
    "  %a = add nsw i8 %x, %y\n"
    "  %b = sub nuw i8 %a, %y\n"
    "  %c = mul nsw i8 %b, 3\n"
    "  ret i8 %c\n}\n",
    // Shifts and exactness.
    "define i8 @f(i8 %x, i8 %s) {\n"
    "  %a = shl nuw i8 %x, %s\n"
    "  %b = lshr exact i8 %a, 1\n"
    "  ret i8 %b\n}\n",
    // Division (UB on zero divisors).
    "define i8 @f(i8 %x, i8 %y) {\n"
    "  %d = sdiv i8 %x, %y\n"
    "  %m = urem i8 %x, 7\n"
    "  %r = xor i8 %d, %m\n"
    "  ret i8 %r\n}\n",
    // Comparisons, select, casts.
    "define i16 @f(i8 %x, i8 %y) {\n"
    "  %c = icmp slt i8 %x, %y\n"
    "  %s = select i1 %c, i8 %x, i8 %y\n"
    "  %z = sext i8 %s to i16\n"
    "  ret i16 %z\n}\n",
    // Intrinsics.
    "define i8 @f(i8 %x, i8 %y) {\n"
    "  %a = call i8 @llvm.umin.i8(i8 %x, i8 %y)\n"
    "  %b = call i8 @llvm.smax.i8(i8 %a, i8 3)\n"
    "  %c = call i8 @llvm.ctpop.i8(i8 %b)\n"
    "  %d = call i8 @llvm.ctlz.i8(i8 %c, i1 false)\n"
    "  %e = call i8 @llvm.uadd.sat.i8(i8 %d, i8 %y)\n"
    "  ret i8 %e\n}\n",
    // Vectors (lane-wise).
    "define <2 x i8> @f(<2 x i8> %x) {\n"
    "  %a = add nuw <2 x i8> %x, splat (i8 1)\n"
    "  %m = call <2 x i8> @llvm.umin.v2i8(<2 x i8> %a, "
    "<2 x i8> splat (i8 100))\n"
    "  ret <2 x i8> %m\n}\n",
    // Freeze pins poison to zero.
    "define i8 @f(i8 %x) {\n"
    "  %p = add nsw i8 %x, 1\n"
    "  %z = freeze i8 %p\n"
    "  ret i8 %z\n}\n"));
