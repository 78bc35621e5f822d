// Printer tests: exact textual forms for every instruction class.

#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir_text_corpus.h"

using namespace lpo::ir;
using lpo::APInt;

TEST(PrinterTest, ValueRefs)
{
    Context ctx;
    EXPECT_EQ(printValueRef(ctx.getInt(32, 42)), "42");
    EXPECT_EQ(printValueRef(ctx.getInt(8, 255)), "-1");
    EXPECT_EQ(printValueRef(ctx.getBool(true)), "true");
    EXPECT_EQ(printValueRef(ctx.getBool(false)), "false");
    EXPECT_EQ(printValueRef(ctx.getPoison(ctx.types().intTy(8))),
              "poison");
    EXPECT_EQ(printValueRef(ctx.getFP(1.0)), "1.000000e+00");

    const Type *vec = ctx.types().vectorTy(ctx.types().intTy(32), 4);
    EXPECT_EQ(printValueRef(ctx.getNullValue(vec)), "zeroinitializer");
    EXPECT_EQ(printValueRef(ctx.getSplat(vec, ctx.getInt(32, 255))),
              "splat (i32 255)");
}

TEST(PrinterTest, InstructionForms)
{
    Context ctx;
    Function fn(ctx, "f", ctx.types().intTy(32));
    Argument *x = fn.addArg(ctx.types().intTy(32), "x");
    BasicBlock *bb = fn.addBlock("entry");
    Builder b(fn, bb);

    InstFlags wrap;
    wrap.nuw = true;
    wrap.nsw = true;
    Instruction *add = b.binary(Opcode::Add, x, ctx.getInt(32, 1), wrap);
    add->setName("a");
    EXPECT_EQ(printInstruction(add), "%a = add nuw nsw i32 %x, 1");

    Instruction *cmp = b.icmp(ICmpPred::SLT, x, ctx.getInt(32, 0));
    cmp->setName("c");
    EXPECT_EQ(printInstruction(cmp), "%c = icmp slt i32 %x, 0");

    Instruction *sel = b.select(cmp, x, add);
    sel->setName("s");
    EXPECT_EQ(printInstruction(sel),
              "%s = select i1 %c, i32 %x, i32 %a");

    Instruction *mm = b.umin(x, ctx.getInt(32, 7));
    mm->setName("m");
    EXPECT_EQ(printInstruction(mm),
              "%m = call i32 @llvm.umin.i32(i32 %x, i32 7)");

    Instruction *tr = b.trunc(x, ctx.types().intTy(8));
    tr->setName("t");
    EXPECT_EQ(printInstruction(tr), "%t = trunc i32 %x to i8");

    InstFlags disjoint;
    disjoint.disjoint = true;
    Instruction *orr = b.binary(Opcode::Or, x, add, disjoint);
    orr->setName("o");
    EXPECT_EQ(printInstruction(orr), "%o = or disjoint i32 %x, %a");

    Instruction *fr = b.freeze(x);
    fr->setName("z");
    EXPECT_EQ(printInstruction(fr), "%z = freeze i32 %x");

    Instruction *ret = b.ret(sel);
    EXPECT_EQ(printInstruction(ret), "ret i32 %s");
}

TEST(PrinterTest, MemoryForms)
{
    Context ctx;
    Function fn(ctx, "f", ctx.types().intTy(32));
    Argument *p = fn.addArg(ctx.types().ptrTy(), "p");
    BasicBlock *bb = fn.addBlock("entry");
    Builder b(fn, bb);

    Instruction *load = b.load(ctx.types().intTy(32), p, 4);
    load->setName("l");
    EXPECT_EQ(printInstruction(load), "%l = load i32, ptr %p, align 4");

    InstFlags flags;
    flags.inbounds = true;
    flags.nuw = true;
    Instruction *gep = b.gep(ctx.types().intTy(32), p,
                             ctx.getInt(64, 2), flags);
    gep->setName("g");
    EXPECT_EQ(printInstruction(gep),
              "%g = getelementptr inbounds nuw i32, ptr %p, i64 2");

    Instruction *store = b.store(load, gep, 4);
    EXPECT_EQ(printInstruction(store),
              "store i32 %l, ptr %g, align 4");
}

TEST(PrinterTest, ModuleHeader)
{
    Context ctx;
    Module module(ctx, "demo.ll");
    Function *fn = module.createFunction("f", ctx.types().voidTy());
    BasicBlock *bb = fn->addBlock("entry");
    Builder b(*fn, bb);
    b.retVoid();
    std::string text = printModule(module);
    EXPECT_NE(text.find("; ModuleID = 'demo.ll'"), std::string::npos);
    EXPECT_NE(text.find("define void @f()"), std::string::npos);
    EXPECT_NE(text.find("ret void"), std::string::npos);
}

TEST(PrinterTest, CanonicalAlphaRenaming)
{
    Context ctx;
    // Structurally identical functions under different names print to
    // byte-identical canonical text...
    auto a = parseFunction(ctx,
        "define i8 @first(i8 %x, i8 %y) {\n"
        "  %sum = add nsw i8 %x, %y\n"
        "  %r = xor i8 %sum, %x\n"
        "  ret i8 %r\n}\n");
    auto b = parseFunction(ctx,
        "define i8 @second(i8 %p, i8 %q) {\n"
        "  %a = add nsw i8 %p, %q\n"
        "  %b = xor i8 %a, %p\n"
        "  ret i8 %b\n}\n");
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(printFunctionCanonical(**a), printFunctionCanonical(**b));
    EXPECT_NE(printFunction(**a), printFunction(**b));

    // ...while any structural difference (flags included) shows up.
    auto c = parseFunction(ctx,
        "define i8 @third(i8 %p, i8 %q) {\n"
        "  %a = add i8 %p, %q\n"
        "  %b = xor i8 %a, %p\n"
        "  ret i8 %b\n}\n");
    ASSERT_TRUE(c.ok());
    EXPECT_NE(printFunctionCanonical(**a), printFunctionCanonical(**c));

    // Dataflow differences survive renaming: xor by the SECOND arg.
    auto d = parseFunction(ctx,
        "define i8 @fourth(i8 %p, i8 %q) {\n"
        "  %a = add nsw i8 %p, %q\n"
        "  %b = xor i8 %a, %q\n"
        "  ret i8 %b\n}\n");
    ASSERT_TRUE(d.ok());
    EXPECT_NE(printFunctionCanonical(**a), printFunctionCanonical(**d));

    // Labels rename too, so control flow canonicalizes.
    auto e = parseFunction(ctx,
        "define i8 @branchy(i8 %x) {\n"
        "start:\n"
        "  %c = icmp slt i8 %x, 0\n"
        "  br i1 %c, label %low, label %high\n"
        "low:\n"
        "  br label %out\n"
        "high:\n"
        "  br label %out\n"
        "out:\n"
        "  %r = phi i8 [ 1, %low ], [ 2, %high ]\n"
        "  ret i8 %r\n}\n");
    auto f = parseFunction(ctx,
        "define i8 @branchy2(i8 %v) {\n"
        "begin:\n"
        "  %cond = icmp slt i8 %v, 0\n"
        "  br i1 %cond, label %a, label %b\n"
        "a:\n"
        "  br label %done\n"
        "b:\n"
        "  br label %done\n"
        "done:\n"
        "  %res = phi i8 [ 1, %a ], [ 2, %b ]\n"
        "  ret i8 %res\n}\n");
    ASSERT_TRUE(e.ok() && f.ok());
    EXPECT_EQ(printFunctionCanonical(**e), printFunctionCanonical(**f));
}

TEST(PrinterPinTest, DigestsOfThePinnedSet)
{
    // FNV-1a over every printFunction and printFunctionCanonical text
    // of each group, taken at the rewrite's parent. Both prints are
    // persisted keys and values (verify store, catalog), the serve
    // response and the LLM's prompt, so they must not change by a
    // byte.
    struct Pinned
    {
        const char *group;
        size_t functions;
        uint64_t print;
        uint64_t canonical;
    };
    const Pinned table[] = {
        {"rq_src", 87, 0xcefd8c2bf4beee31ull, 0x1b7ed8c113d1c7faull},
        {"rq_tgt", 87, 0xd402abc17e659b53ull, 0xe7f7891bd1cb6758ull},
        {"module", 200, 0xa6a2e44321eef947ull, 0xcbe30f3e8b3ae009ull},
        {"sequences", 311, 0x90b39890190461e6ull, 0x5ebfabf98afb2552ull},
        {"rewrite_library", 163, 0x193716edec822a5bull, 0xa755ba9f500f4b3aull},
        // The algebraic rules fire on none of these inputs (opt has
        // already folded their shapes); the empty group pins that.
        {"algebraic_rules", 0, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull},
    };
    Context ctx;
    lpo::text_corpus::Corpus corpus = lpo::text_corpus::build(ctx);
    ASSERT_EQ(corpus.groups.size(), std::size(table));
    for (size_t i = 0; i < std::size(table); ++i) {
        const auto &group = corpus.groups[i];
        uint64_t print = lpo::text_corpus::kFnvBasis;
        uint64_t canonical = lpo::text_corpus::kFnvBasis;
        for (const Function *fn : group.functions) {
            print = lpo::text_corpus::fnvFold(print, printFunction(*fn));
            canonical = lpo::text_corpus::fnvFold(canonical,
                                                  printFunctionCanonical(*fn));
        }
        EXPECT_EQ(group.name, table[i].group);
        EXPECT_EQ(group.functions.size(), table[i].functions) << group.name;
        EXPECT_EQ(print, table[i].print) << group.name;
        EXPECT_EQ(canonical, table[i].canonical) << group.name;
    }
}
