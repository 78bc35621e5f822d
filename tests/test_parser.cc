// Parser tests: the paper's example functions, error messages, and a
// print/parse round-trip property.

#include <gtest/gtest.h>

#include <set>

#include "ir/ir_verifier.h"
#include "ir/parser.h"
#include "ir/pattern.h"
#include "ir/printer.h"
#include "ir_text_corpus.h"
#include "llm/mock_model.h"
#include "support/rng.h"

using namespace lpo::ir;

namespace {

std::unique_ptr<Function>
parseOk(Context &ctx, const std::string &text)
{
    auto result = parseFunction(ctx, text);
    EXPECT_TRUE(result.ok()) << (result.ok() ? ""
                                             : result.error().toString());
    return result.ok() ? result.take() : nullptr;
}

} // namespace

TEST(ParserTest, PaperFigure1bSrc)
{
    Context ctx;
    auto fn = parseOk(ctx,
        "define i8 @src(i32 %0) {\n"
        "  %2 = icmp slt i32 %0, 0\n"
        "  %3 = tail call i32 @llvm.umin.i32(i32 %0, i32 255)\n"
        "  %4 = trunc nuw i32 %3 to i8\n"
        "  %5 = select i1 %2, i8 0, i8 %4\n"
        "  ret i8 %5\n"
        "}\n");
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->name(), "src");
    EXPECT_EQ(fn->numArgs(), 1u);
    EXPECT_EQ(fn->instructionCount(), 4u);
    const Instruction *call = fn->entry()->at(1);
    EXPECT_EQ(call->op(), Opcode::Call);
    EXPECT_EQ(call->intrinsic(), Intrinsic::UMin);
    EXPECT_TRUE(call->flags().tail);
    EXPECT_TRUE(fn->entry()->at(2)->flags().nuw);
}

TEST(ParserTest, PaperFigure4aLoadMerge)
{
    Context ctx;
    auto fn = parseOk(ctx,
        "define i32 @src(ptr %0) {\n"
        "  %2 = load i16, ptr %0, align 2\n"
        "  %3 = getelementptr i8, ptr %0, i64 2\n"
        "  %4 = load i16, ptr %3, align 1\n"
        "  %5 = zext i16 %4 to i32\n"
        "  %6 = shl nuw i32 %5, 16\n"
        "  %7 = zext i16 %2 to i32\n"
        "  %8 = or disjoint i32 %6, %7\n"
        "  ret i32 %8\n"
        "}\n");
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->entry()->at(0)->op(), Opcode::Load);
    EXPECT_EQ(fn->entry()->at(0)->align(), 2u);
    EXPECT_EQ(fn->entry()->at(1)->op(), Opcode::Gep);
    EXPECT_TRUE(fn->entry()->at(6)->flags().disjoint);
}

TEST(ParserTest, VectorTypesSplatAndZeroinitializer)
{
    Context ctx;
    auto fn = parseOk(ctx,
        "define <4 x i8> @src(<4 x i32> %x) {\n"
        "  %c = icmp slt <4 x i32> %x, zeroinitializer\n"
        "  %m = tail call <4 x i32> @llvm.umin.v4i32(<4 x i32> %x, "
        "<4 x i32> splat (i32 255))\n"
        "  %t = trunc nuw <4 x i32> %m to <4 x i8>\n"
        "  %r = select <4 x i1> %c, <4 x i8> zeroinitializer, "
        "<4 x i8> %t\n"
        "  ret <4 x i8> %r\n"
        "}\n");
    ASSERT_NE(fn, nullptr);
    EXPECT_TRUE(fn->returnType()->isVector());
    lpo::APInt splat;
    EXPECT_TRUE(matchConstInt(fn->entry()->at(1)->operand(1), &splat));
    EXPECT_EQ(splat.zext(), 255u);
}

TEST(ParserTest, FloatingPoint)
{
    Context ctx;
    auto fn = parseOk(ctx,
        "define i1 @src(double %0) {\n"
        "  %2 = fcmp ord double %0, 0.000000e+00\n"
        "  %3 = select i1 %2, double %0, double 0.000000e+00\n"
        "  %4 = fcmp oeq double %3, 1.000000e+00\n"
        "  ret i1 %4\n"
        "}\n");
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->entry()->at(0)->fcmpPred(), FCmpPred::ORD);
    EXPECT_EQ(fn->entry()->at(2)->fcmpPred(), FCmpPred::OEQ);
}

TEST(ParserTest, ModuleWithLoopPhiBr)
{
    Context ctx;
    auto module = parseModule(ctx,
        "define i32 @loop(i64 %n, i32 %seed) {\n"
        "entry:\n"
        "  br label %body\n"
        "body:\n"
        "  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]\n"
        "  %acc = phi i32 [ %seed, %entry ], [ %acc.next, %body ]\n"
        "  %acc.next = xor i32 %acc, 2654435761\n"
        "  %i.next = add nuw i64 %i, 1\n"
        "  %done = icmp uge i64 %i.next, %n\n"
        "  br i1 %done, label %exit, label %body\n"
        "exit:\n"
        "  ret i32 %acc\n"
        "}\n");
    ASSERT_TRUE(module.ok()) << module.error().toString();
    Function *fn = (*module)->findFunction("loop");
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->blocks().size(), 3u);
    // The phi's back-edge forward reference resolved.
    const Instruction *phi = fn->findBlock("body")->at(0);
    ASSERT_EQ(phi->op(), Opcode::Phi);
    EXPECT_EQ(phi->operand(1)->name(), "i.next");
}

TEST(ParserTest, NegativeAndBooleanConstants)
{
    Context ctx;
    auto fn = parseOk(ctx,
        "define i8 @f(i8 %x, i1 %c) {\n"
        "  %a = add i8 %x, -128\n"
        "  %b = select i1 %c, i8 %a, i8 %x\n"
        "  %d = select i1 true, i8 %b, i8 poison\n"
        "  ret i8 %d\n"
        "}\n");
    ASSERT_NE(fn, nullptr);
    lpo::APInt c;
    ASSERT_TRUE(matchConstInt(fn->entry()->at(0)->operand(1), &c));
    EXPECT_TRUE(c.isSignedMin());
}

TEST(ParserTest, ExpectedInstructionOpcodeError)
{
    // Figure 3b/3c: the invalid bare `smax` opcode must yield the
    // LLVM-style "expected instruction opcode" message used as
    // feedback.
    Context ctx;
    auto fn = parseFunction(ctx,
        "define i8 @src(i8 %x) {\n"
        "  %m = smax i8 %x, 0\n"
        "  ret i8 %m\n"
        "}\n");
    ASSERT_FALSE(fn.ok());
    EXPECT_NE(fn.error().message.find("expected instruction opcode"),
              std::string::npos);
    EXPECT_EQ(fn.error().line, 2);
}

TEST(ParserTest, UndefinedValueError)
{
    Context ctx;
    auto fn = parseFunction(ctx,
        "define i8 @src(i8 %x) {\n"
        "  %r = add i8 %x, %nope\n"
        "  ret i8 %r\n"
        "}\n");
    ASSERT_FALSE(fn.ok());
    EXPECT_NE(fn.error().message.find("use of undefined value"),
              std::string::npos);
}

TEST(ParserTest, TypeErrors)
{
    Context ctx;
    EXPECT_FALSE(parseFunction(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %r = add i8 %x, 1.5\n"
        "  ret i8 %r\n}\n").ok());
    EXPECT_FALSE(parseFunction(ctx,
        "define i8 @f(double %x) {\n"
        "  %r = add double %x, 0.0\n"
        "  ret i8 %r\n}\n").ok());
    EXPECT_FALSE(parseFunction(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %r = trunc i8 %x to i16\n"
        "  ret i16 %r\n}\n").ok());
    EXPECT_FALSE(parseFunction(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %r = add i8 %x, 1\n"
        "}\n").ok()); // missing terminator
}

TEST(ParserTest, DuplicateDefinitionRejected)
{
    Context ctx;
    auto fn = parseFunction(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %r = add i8 %x, 1\n"
        "  %r = add i8 %x, 2\n"
        "  ret i8 %r\n}\n");
    ASSERT_FALSE(fn.ok());
    EXPECT_NE(fn.error().message.find("multiple definition"),
              std::string::npos);
}

TEST(ParserTest, IgnoresCommentsAndSurroundingProse)
{
    Context ctx;
    auto fn = parseOk(ctx,
        "Here is the optimized function:\n"
        "; a comment line\n"
        "define i8 @f(i8 %x) { ; trailing comment\n"
        "  %r = add i8 %x, 1 ; note\n"
        "  ret i8 %r\n"
        "}\n"
        "That should be optimal.\n");
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->instructionCount(), 1u);
}

TEST(ParserTest, RoundTripStability)
{
    // print(parse(text)) must be a fixpoint of parse∘print.
    Context ctx;
    const char *samples[] = {
        "define i8 @a(i32 %x) {\n"
        "  %c = icmp slt i32 %x, 0\n"
        "  %m = tail call i32 @llvm.umin.i32(i32 %x, i32 255)\n"
        "  %t = trunc nuw i32 %m to i8\n"
        "  %r = select i1 %c, i8 0, i8 %t\n"
        "  ret i8 %r\n}\n",
        "define i32 @b(ptr %p) {\n"
        "  %l = load i32, ptr %p, align 4\n"
        "  %g = getelementptr inbounds nuw i32, ptr %p, i64 1\n"
        "  %m = load i32, ptr %g, align 4\n"
        "  %r = add nsw i32 %l, %m\n"
        "  ret i32 %r\n}\n",
        "define <4 x i8> @c(<4 x i8> %x) {\n"
        "  %r = call <4 x i8> @llvm.abs.v4i8(<4 x i8> %x, i1 true)\n"
        "  ret <4 x i8> %r\n}\n",
        "define i16 @d(i16 %x) {\n"
        "  %f = freeze i16 %x\n"
        "  %r = call i16 @llvm.ctlz.i16(i16 %f, i1 false)\n"
        "  ret i16 %r\n}\n",
    };
    for (const char *text : samples) {
        auto first = parseOk(ctx, text);
        ASSERT_NE(first, nullptr);
        std::string printed = printFunction(*first);
        auto second = parseOk(ctx, printed);
        ASSERT_NE(second, nullptr);
        EXPECT_EQ(printed, printFunction(*second));
        EXPECT_TRUE(structurallyEqual(*first, *second));
    }
}

// ---------------------------------------------------------------------
// The text layer pinned at the rewrite's parent: round trips over the
// pinned set, every reachable error message, and the outcome of 10,000
// mutated inputs. The error messages are the LLM's syntax feedback, so
// they are part of the format.
// ---------------------------------------------------------------------

TEST(ParserPinTest, RoundTripsOverThePinnedSet)
{
    Context ctx;
    lpo::text_corpus::Corpus corpus = lpo::text_corpus::build(ctx);
    ASSERT_EQ(corpus.groups.size(), 6u);
    size_t checked = 0;
    for (const auto &group : corpus.groups) {
        for (const Function *fn : group.functions) {
            std::string printed = printFunction(*fn);
            auto again = parseFunction(ctx, printed);
            ASSERT_TRUE(again.ok()) << group.name << ": "
                                    << again.error().toString() << "\n"
                                    << printed;
            EXPECT_EQ(printFunction(**again), printed) << group.name;
            EXPECT_EQ(printFunctionCanonical(**again),
                      printFunctionCanonical(*fn))
                << group.name;
            ++checked;
        }
    }
    EXPECT_GT(checked, 800u);
}

namespace {

/** One malformed input and the exact error it must produce. */
struct Malformed
{
    std::string text;
    std::string message; ///< empty: the input must parse
    int line;
};

/** A function whose arguments cover every operand type the table
 *  needs, with @p body between the header and a closing ret. */
std::string
wrapBody(const std::string &body)
{
    return "define i8 @f(i8 %x, i1 %c, ptr %p, double %d, <4 x i8> %v) {\n" +
           body + "\n  ret i8 %x\n}\n";
}

std::vector<Malformed>
malformedTable()
{
    std::vector<Malformed> table = {
        // Types.
        {wrapBody("  %r = add <4 i8> %v, %v"),
         "expected 'x' in vector type", 2},
        {wrapBody("  %r = add <x x i8> %v, %v"),
         "expected vector lane count", 2},
        {wrapBody("  %r = add <-4 x i8> %v, %v"),
         "expected vector lane count", 2},
        {wrapBody("  %r = add <4 x i8 %v, %v"),
         "expected '>' to close vector type", 2},
        {wrapBody("  %r = add <1 x i8> %v, %v"),
         "unsupported vector lane count", 2},
        {wrapBody("  %r = add <65 x i8> %v, %v"),
         "unsupported vector lane count", 2},
        {wrapBody("  %r = add <4 x ptr> %v, %v"),
         "invalid vector element type", 2},
        {wrapBody("  %r = add i65 %x, 1"),
         "unsupported integer width 'i65'", 2},
        {wrapBody("  %r = add i0 %x, 1"),
         "unsupported integer width 'i0'", 2},
        {wrapBody("  %r = add j8 %x, 1"), "expected type, found 'j8'", 2},
        {wrapBody("  %r = add , %x"), "expected type, found ''", 2},
        // Values.
        {wrapBody("  %r = add i16 %x, 1"),
         "'%x' defined with type 'i8' but expected 'i16'", 2},
        {wrapBody("  %r = add i8 <i8 1, i8 2>, %x"),
         "vector constant for non-vector type", 2},
        {wrapBody("  %r = add <4 x i8> %v, <i8 1 i8 2, i8 3, i8 4>"),
         "expected ',' in vector constant", 2},
        {wrapBody("  %r = add <4 x i8> %v, <i8 1, i16 2, i8 3, i8 4>"),
         "vector element type mismatch", 2},
        {wrapBody("  %r = add <4 x i8> %v, <i8 1, i8 2, i8 3, i8 4, i8 5>"),
         "expected '>' to close vector constant", 2},
        {wrapBody("  %r = add i8 %x, zeroinitializer"),
         "zeroinitializer requires a vector type", 2},
        {wrapBody("  %r = add i8 %x, splat (i8 1)"),
         "splat requires a vector type", 2},
        {wrapBody("  %r = add <4 x i8> %v, splat i8 1"),
         "expected '(' after splat", 2},
        {wrapBody("  %r = add <4 x i8> %v, splat (i16 1)"),
         "splat element type mismatch", 2},
        {wrapBody("  %r = add <4 x i8> %v, splat (i8 1"),
         "expected ')' after splat value", 2},
        {wrapBody("  %r = add i8 %x, true"),
         "boolean constant for non-i1 type", 2},
        {wrapBody("  %r = fadd double %d, 1"),
         "integer constant for non-integer type 'double'", 2},
        {wrapBody("  %r = fadd <4 x double> zeroinitializer, 1"),
         "integer constant for non-integer type '<4 x double>'", 2},
        {wrapBody("  %r = add i8 %x, 1.5"),
         "floating-point constant for non-float type", 2},
        {wrapBody("  %r = add i8 %x, 1e3"),
         "floating-point constant for non-float type", 2},
        {wrapBody("  %r = add i8 %x, "), "expected value", 2},
        {wrapBody("  %r = add i8 %x, foo"), "expected value, found 'foo'", 2},
        {wrapBody("  %r = fadd double %d, 1.5e"),
         "expected value, found '1.5e'", 2},
        {wrapBody("  %r = add i8 %x, -"), "expected value, found '-'", 2},
        // Instructions.
        {wrapBody("  %r = store i8 %x, ptr %p"),
         "cannot name a void instruction", 2},
        {wrapBody("  add i8 %x, 1"), "instruction result must be named", 2},
        {wrapBody("  %r = add i8 %x, 1\n  %r = add i8 %x, 2"),
         "multiple definition of local value '%r'", 3},
        {wrapBody("  %x = add i8 %x, 1"),
         "multiple definition of local value '%x'", 2},
        {wrapBody("  %r = add i8 %x 1"), "expected ',' after first operand", 2},
        {wrapBody("  %r = fadd i8 %x, %x"),
         "floating-point operation on non-float type", 2},
        {wrapBody("  %r = add double %d, %d"),
         "integer operation on non-integer type", 2},
        {wrapBody("  %r = icmp foo i8 %x, 1"),
         "invalid icmp predicate 'foo'", 2},
        {wrapBody("  %r = icmp oeq i8 %x, 1"),
         "invalid icmp predicate 'oeq'", 2},
        {wrapBody("  %r = icmp eq double %d, %d"),
         "icmp requires integer operands", 2},
        {wrapBody("  %r = icmp eq i8 %x %x"),
         "expected ',' after first operand", 2},
        {wrapBody("  %r = fcmp foo double %d, %d"),
         "invalid fcmp predicate 'foo'", 2},
        {wrapBody("  %r = fcmp oeq i8 %x, %x"),
         "fcmp requires floating-point operands", 2},
        {wrapBody("  %r = select i1 %c i8 %x, i8 %x"),
         "expected ',' after select condition", 2},
        {wrapBody("  %r = select i1 %c, i8 %x i8 %x"),
         "expected ',' after select true value", 2},
        {wrapBody("  %r = select i1 %c, i8 %x, i16 0"),
         "select operand types differ", 2},
        {wrapBody("  %r = select i8 %x, i8 %x, i8 %x"),
         "select condition must be i1 or matching <N x i1>", 2},
        {wrapBody("  %r = zext i8 %x i16"), "expected 'to' in cast", 2},
        {wrapBody("  %r = zext double %d to i64"),
         "cast requires integer types", 2},
        {wrapBody("  %r = zext <4 x i8> %v to i64"),
         "cast lane count mismatch", 2},
        {wrapBody("  %r = zext <4 x i8> %v to <2 x i16>"),
         "cast lane count mismatch", 2},
        {wrapBody("  %r = trunc i8 %x to i16"), "trunc must narrow the type", 2},
        {wrapBody("  %r = sext i8 %x to i8"),
         "extension must widen the type", 2},
        {wrapBody("  %r = zext nuw i8 %x to i16"),
         "expected type, found 'nuw'", 2},
        {wrapBody("  %r = tail i8 @llvm.umin.i8(i8 %x, i8 1)"),
         "expected 'call' after 'tail'", 2},
        {wrapBody("  %r = call i8 llvm.umin.i8(i8 %x, i8 1)"),
         "expected callee name", 2},
        {wrapBody("  %r = call i8 @foo(i8 %x)"),
         "unknown or unsupported callee '@foo'", 2},
        {wrapBody("  %r = call i8 @llvm.umin.i8 i8 %x"),
         "expected '(' in call", 2},
        {wrapBody("  %r = call i8 @llvm.umin.i8(i8 %x i8 1)"),
         "expected ',' or ')' in call", 2},
        {wrapBody("  %r = call i8 @llvm.umin.i8(i8 %x)"),
         "invalid signature for '@llvm.umin.i8'", 2},
        {wrapBody("  %r = call i8 @llvm.umin.i8()"),
         "invalid signature for '@llvm.umin.i8'", 2},
        {wrapBody("  %r = call i8 @llvm.abs.i8(i8 %x, i8 1)"),
         "invalid signature for '@llvm.abs.i8'", 2},
        {wrapBody("  %r = call i8 @llvm.ctpop.i8(i8 %x, i8 %x)"),
         "invalid signature for '@llvm.ctpop.i8'", 2},
        {wrapBody("  %r = call i8 @llvm.fabs.f64(i8 %x)"),
         "invalid signature for '@llvm.fabs.f64'", 2},
        {wrapBody("  %r = load i8 ptr %p"), "expected ',' after load type", 2},
        {wrapBody("  %r = load i8, i8 %x"),
         "load pointer operand must have type 'ptr'", 2},
        {wrapBody("  store i8 %x ptr %p"), "expected ',' after store value", 2},
        {wrapBody("  store i8 %x, i8 %x"),
         "store pointer operand must have type 'ptr'", 2},
        {wrapBody("  %r = getelementptr i8, i8 %x, i64 1"),
         "getelementptr requires a pointer base", 2},
        {wrapBody("  %r = getelementptr i8"),
         "getelementptr requires a pointer base", 2},
        {wrapBody("  %r = getelementptr i8, ptr %p"),
         "only single-index getelementptr supported", 2},
        {wrapBody("  %r = phi i8 %x, %entry"), "expected '[' in phi", 2},
        {wrapBody("  %r = phi i8 [ %x %entry ]"),
         "expected ',' in phi incoming pair", 2},
        {wrapBody("  %r = phi i8 [ %x, entry ]"),
         "expected predecessor label in phi", 2},
        {wrapBody("  %r = phi i8 [ %x, %entry"), "expected ']' in phi", 2},
        {wrapBody("  br label entry"), "expected label in br", 2},
        {wrapBody("  br i8 %x, label %a, label %b"),
         "br condition must be i1", 2},
        {wrapBody("  br i1 %c label %a, label %b"), "expected ',' in br", 2},
        {wrapBody("  br i1 %c, %a, label %b"), "expected 'label' in br", 2},
        {wrapBody("  br i1 %c, label a, label %b"), "expected label in br", 2},
        {wrapBody("  %r = smax i8 %x, 0"), "expected instruction opcode\nsmax",
         2},
        {wrapBody("  %r = "), "expected instruction opcode\n", 2},
        {wrapBody("  }}"), "expected instruction opcode\n", 2},
        {wrapBody("  %r = add i8 %x, %nope"), "use of undefined value '%nope'",
         2},
        // Function headers and bodies.
        {"definex i8 @f() {\n  ret i8 0\n}\n", "expected 'define'", 1},
        {"define i8 f() {\n  ret i8 0\n}\n", "expected function name", 1},
        {"define i8 @f {\n  ret i8 0\n}\n", "expected '(' in function header",
         1},
        {"define i8 @f(i8 %x, i8 %x) {\n  ret i8 0\n}\n",
         "duplicate argument name '%x'", 1},
        {"define i8 @f(i8 %x i8 %y) {\n  ret i8 0\n}\n",
         "expected ',' or ')' in argument list", 1},
        {"define i8 @f(i8 %x)\n{\n  ret i8 0\n}\n",
         "expected '{' to begin function body", 1},
        {"define i8 @f(j8 %x) {\n  ret i8 0\n}\n",
         "expected type, found 'j8'", 1},
        {"define i8 @f() {\nentry:\n}\n", "empty function body", 3},
        {"define i8 @f() {\n}\n", "function has no basic blocks", 2},
        {"define i8 @f(i1 %c) {\n  br i1 %c, label %a, label %b\na:\n"
         "  ret i8 0\nb:\n  %y = add i8 0, 0\n}\n",
         "block 'b' lacks a terminator", 7},
        {"define i8 @f() {\n  ret i8 0\n", "expected '}' to close function body",
         2},
        {"no define here\n", "no function definition found", 0},
        {"", "no function definition found", 0},
        // Accepted oddities the format keeps: a comment, trailing text
        // after an instruction, the rest of the header line, CRLF.
        {"define i8 @f(i8 %x) { ignored\n  ret i8 %x extra ; note\n}\n", "",
         0},
        {"define i8 @f(i8 %x) {\r\n  ret i8 %x\r\n}\r\n", "", 0},
        {"define internal dso_local i8 @f(i8 noundef %x, ptr nonnull "
         "readonly %p) {\n  ret i8 %x\n}\n",
         "", 0},
    };
    // The three shapes the mock model's hallucinations take: an
    // intrinsic call turned into a bare opcode, a misspelled opcode,
    // and a stray line after the function, which parseFunction ignores.
    table.push_back({lpo::llm::injectSyntaxError(
                         "define i8 @src(i8 %x) {\n"
                         "  %m = tail call i8 @llvm.umin.i8(i8 %x, i8 7)\n"
                         "  ret i8 %m\n}\n"),
                     "expected instruction opcode\numin", 2});
    table.push_back({lpo::llm::injectSyntaxError(
                         "define i8 @src(i8 %x) {\n"
                         "  %r = add i8 %x, 1\n"
                         "  ret i8 %r\n}\n"),
                     "expected instruction opcode\nvadd", 2});
    table.push_back({lpo::llm::injectSyntaxError(
                         "define void @src() {\n  ret void\n}\n"),
                     "", 0});
    return table;
}

} // namespace

TEST(ParserPinTest, MalformedInputsKeepTheirExactErrors)
{
    for (const Malformed &entry : malformedTable()) {
        Context ctx;
        auto fn = parseFunction(ctx, entry.text);
        if (entry.message.empty()) {
            EXPECT_TRUE(fn.ok()) << entry.text << "\n"
                                 << fn.error().toString();
            continue;
        }
        ASSERT_FALSE(fn.ok()) << entry.text;
        EXPECT_EQ(fn.error().message, entry.message) << entry.text;
        EXPECT_EQ(fn.error().line, entry.line) << entry.text;
        EXPECT_EQ(fn.error().column, 0) << entry.text;
    }
    Context ctx;
    auto module = parseModule(ctx, "; nothing here\n");
    ASSERT_FALSE(module.ok());
    EXPECT_EQ(module.error().message, "no function definitions found");
    EXPECT_EQ(module.error().line, 0);
}

namespace {

bool
isWordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
           c == '_' || c == '-' || c == '+';
}

/** One mutation of @p text: a truncation, a byte replaced by any of
 *  the 256 values, or one token (a word or a single other byte)
 *  deleted. */
std::string
mutate(const std::string &text, lpo::Rng &rng)
{
    if (text.empty())
        return text;
    size_t at = rng.nextBelow(text.size());
    switch (rng.nextBelow(3)) {
      case 0:
        return text.substr(0, at);
      case 1: {
        std::string out = text;
        out[at] = static_cast<char>(rng.nextBelow(256));
        return out;
      }
      default: {
        size_t end = at + 1;
        if (isWordChar(text[at])) {
            while (at > 0 && isWordChar(text[at - 1]))
                --at;
            while (end < text.size() && isWordChar(text[end]))
                ++end;
        }
        return text.substr(0, at) + text.substr(end);
    }
    }
}

/** True when no two values share a name, no two blocks a label, and
 *  the IR verifier finds every br/phi label naming a block: what
 *  printFunction needs to re-parse and printFunctionCanonical needs to
 *  rename labels. */
bool
printable(const Function &fn)
{
    std::set<std::string> values, labels;
    for (const auto &arg : fn.args())
        if (!values.insert(arg->name()).second)
            return false;
    for (const auto &bb : fn.blocks()) {
        if (!labels.insert(bb->label()).second)
            return false;
        for (const auto &inst : bb->instructions())
            if (!inst->name().empty() && !values.insert(inst->name()).second)
                return false;
    }
    for (const VerifierIssue &issue : verifyFunction(fn))
        if (issue.message.rfind("unknown label", 0) == 0)
            return false;
    return true;
}

} // namespace

TEST(ParserRobustnessTest, MutatedCorpusTextsParseOrFailCleanly)
{
    // 10,000 mutants of the pinned set's texts. Each must give an
    // Error or a function whose print re-parses to the same print
    // (when its names and labels resolve); the digest of every outcome (the
    // error with its line, or the printed function) pins acceptance
    // and every message to the rewrite's parent.
    Context corpus_ctx;
    lpo::text_corpus::Corpus corpus = lpo::text_corpus::build(corpus_ctx);
    ASSERT_EQ(corpus.groups.size(), 6u);
    std::vector<std::string> texts = corpus.raw_texts;
    for (const auto &group : corpus.groups)
        for (const Function *fn : group.functions)
            texts.push_back(printFunction(*fn));

    lpo::Rng rng(20261020);
    uint64_t digest = lpo::text_corpus::kFnvBasis;
    unsigned accepted = 0, rejected = 0;
    for (unsigned i = 0; i < 10000; ++i) {
        std::string input = mutate(texts[rng.nextBelow(texts.size())], rng);
        Context ctx;
        auto fn = parseFunction(ctx, input);
        if (!fn.ok()) {
            ++rejected;
            digest = lpo::text_corpus::fnvFold(digest,
                                               fn.error().toString() + "\n");
            continue;
        }
        ++accepted;
        std::string printed = printFunction(**fn);
        digest = lpo::text_corpus::fnvFold(digest, printed);
        if (!printable(**fn))
            continue;
        digest = lpo::text_corpus::fnvFold(digest,
                                           printFunctionCanonical(**fn));
        auto again = parseFunction(ctx, printed);
        ASSERT_TRUE(again.ok()) << "mutant " << i << ":\n" << input
                                << "\nprinted:\n" << printed << "\n"
                                << again.error().toString();
        EXPECT_EQ(printFunction(**again), printed) << "mutant " << i;
    }
    std::printf("mutants: %u accepted, %u rejected, digest %016llx\n",
                accepted, rejected, static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, 0x349a9b1ea20b43b8ull);
}
