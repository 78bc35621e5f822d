// Structural verifier tests.

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/ir_verifier.h"
#include "ir/parser.h"

using namespace lpo::ir;

TEST(IrVerifierTest, AcceptsValidFunction)
{
    Context ctx;
    auto fn = parseFunction(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %r = add i8 %x, 1\n"
        "  ret i8 %r\n}\n");
    ASSERT_TRUE(fn.ok());
    EXPECT_TRUE(isValid(**fn));
}

TEST(IrVerifierTest, RejectsSelfReference)
{
    Context ctx;
    Function fn(ctx, "f", ctx.types().intTy(8));
    Argument *x = fn.addArg(ctx.types().intTy(8), "x");
    BasicBlock *bb = fn.addBlock("entry");
    Builder b(fn, bb);
    Instruction *a = b.add(x, x);
    Instruction *c = b.add(a, x);
    b.ret(c);
    EXPECT_TRUE(verifyFunction(fn).empty());
    c->setOperand(0, c); // self-reference: use before definition
    EXPECT_FALSE(verifyFunction(fn).empty());
}

TEST(IrVerifierTest, RejectsTypeMismatch)
{
    Context ctx;
    Function fn(ctx, "f", ctx.types().intTy(8));
    Argument *x = fn.addArg(ctx.types().intTy(8), "x");
    Argument *y = fn.addArg(ctx.types().intTy(16), "y");
    BasicBlock *bb = fn.addBlock("entry");
    auto bad = std::make_unique<Instruction>(
        Opcode::Add, ctx.types().intTy(8),
        std::vector<Value *>{x, y});
    bad->setName("r");
    Instruction *placed = bb->append(std::move(bad));
    Builder b(fn, bb);
    b.ret(placed);
    auto issues = verifyFunction(fn);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].message.find("malformed"), std::string::npos);
}

TEST(IrVerifierTest, RejectsMissingTerminator)
{
    Context ctx;
    Function fn(ctx, "f", ctx.types().intTy(8));
    Argument *x = fn.addArg(ctx.types().intTy(8), "x");
    BasicBlock *bb = fn.addBlock("entry");
    Builder b(fn, bb);
    b.add(x, x);
    (void)bb;
    EXPECT_FALSE(verifyFunction(fn).empty());
}

TEST(IrVerifierTest, RejectsReturnTypeMismatch)
{
    Context ctx;
    Function fn(ctx, "f", ctx.types().intTy(16));
    Argument *x = fn.addArg(ctx.types().intTy(8), "x");
    BasicBlock *bb = fn.addBlock("entry");
    Builder b(fn, bb);
    b.ret(x); // returns i8 from an i16 function
    auto issues = verifyFunction(fn);
    ASSERT_FALSE(issues.empty());
}

TEST(IrVerifierTest, RejectsEmptyFunction)
{
    Context ctx;
    Function fn(ctx, "f", ctx.types().voidTy());
    EXPECT_FALSE(verifyFunction(fn).empty());
}

TEST(IrVerifierTest, RejectsForwardUseInStraightLineCode)
{
    // The parser accepts forward references (phis need them), so a
    // straight-line use before the definition reaches the verifier.
    Context ctx;
    auto fn = parseFunction(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %y = add i8 %z, 1\n"
        "  %z = add i8 %x, 1\n"
        "  ret i8 %y\n}\n");
    ASSERT_TRUE(fn.ok());
    auto issues = verifyFunction(**fn);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].message, "use of value '%z' before definition");
}

TEST(IrVerifierTest, RejectsUnknownBranchAndPhiLabels)
{
    Context ctx;
    auto br = parseFunction(ctx,
        "define i8 @f(i8 %x, i1 %c) {\n"
        "entry:\n"
        "  br i1 %c, label %a, label %nowhere\n"
        "a:\n"
        "  ret i8 %x\n}\n");
    ASSERT_TRUE(br.ok());
    auto issues = verifyFunction(**br);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].message, "unknown label '%nowhere'");

    auto phi = parseFunction(ctx,
        "define i8 @f(i8 %x, i1 %c) {\n"
        "entry:\n"
        "  br i1 %c, label %a, label %b\n"
        "a:\n"
        "  br label %b\n"
        "b:\n"
        "  %p = phi i8 [ %x, %entry ], [ 0, %elsewhere ]\n"
        "  ret i8 %p\n}\n");
    ASSERT_TRUE(phi.ok());
    issues = verifyFunction(**phi);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].message, "unknown label '%elsewhere'");
}
