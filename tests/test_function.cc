// Function / BasicBlock / Module API tests.

#include <gtest/gtest.h>

#include <functional>

#include "corpus/benchmarks.h"
#include "corpus/generator.h"
#include "extract/extractor.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "ir/pattern.h"
#include "ir/printer.h"

using namespace lpo::ir;

namespace {

std::unique_ptr<Function>
parse(Context &ctx, const std::string &text)
{
    return parseFunction(ctx, text).take();
}

using Functions = std::vector<std::unique_ptr<Function>>;

/** @p type's interned counterpart in @p types (an oracle written
 *  independently of the clone's own mapping). */
const Type *
internedIn(TypeContext &types, const Type *type)
{
    if (type->isInt())
        return types.intTy(type->intWidth());
    if (type->isVector())
        return types.vectorTy(internedIn(types, type->scalarType()),
                              type->lanes());
    if (type->isFloat())
        return types.floatTy();
    if (type->isPtr())
        return types.ptrTy();
    return types.voidTy();
}

/** True if constant @p c is the one @p ctx interns for its value. */
bool
isInternedIn(Context &ctx, const Value *c)
{
    if (internedIn(ctx.types(), c->type()) != c->type())
        return false;
    switch (c->kind()) {
      case Value::Kind::ConstInt:
        return ctx.getInt(c->type(),
                          static_cast<const ConstantInt *>(c)->value()) == c;
      case Value::Kind::ConstFP:
        return ctx.getFP(static_cast<const ConstantFP *>(c)->value()) == c;
      case Value::Kind::ConstVector: {
        const auto &elements =
            static_cast<const ConstantVector *>(c)->elements();
        for (const Value *element : elements)
            if (!isInternedIn(ctx, element))
                return false;
        return ctx.getVector(c->type(), elements) == c;
      }
      case Value::Kind::Poison:
        return ctx.getPoison(c->type()) == c;
      default:
        return false;
    }
}

/** Every type and constant @p fn refers to is @p ctx's own. */
void
expectOwnedBy(Context &ctx, const Function &fn)
{
    EXPECT_EQ(&fn.context(), &ctx) << fn.name();
    TypeContext &types = ctx.types();
    EXPECT_EQ(fn.returnType(), internedIn(types, fn.returnType()))
        << fn.name();
    for (const auto &arg : fn.args())
        EXPECT_EQ(arg->type(), internedIn(types, arg->type())) << fn.name();
    for (const auto &bb : fn.blocks()) {
        for (const auto &inst : bb->instructions()) {
            EXPECT_EQ(inst->type(), internedIn(types, inst->type()))
                << fn.name();
            if (inst->accessType()) {
                EXPECT_EQ(inst->accessType(),
                          internedIn(types, inst->accessType()))
                    << fn.name();
            }
            for (const Value *operand : inst->operands()) {
                if (operand->isConstant()) {
                    EXPECT_TRUE(isInternedIn(ctx, operand))
                        << fn.name() << ": " << printInstruction(inst.get());
                }
            }
        }
    }
}

/**
 * Build functions with @p build into a scratch Context, clone each
 * into a fresh one, destroy the scratch Context, and check that every
 * clone prints as its source did and refers only to the destination's
 * interned types and constants. Returns the number of clones.
 */
size_t
expectClonesOutliveTheirSource(
    const std::function<Functions(Context &)> &build)
{
    Context dst;
    std::vector<std::string> expected;
    Functions clones;
    {
        auto src = std::make_unique<Context>();
        Functions fns = build(*src);
        for (const auto &fn : fns) {
            expected.push_back(printFunction(*fn));
            clones.push_back(fn->clone(fn->name(), &dst));
        }
    } // the sources die first, then their Context
    for (size_t i = 0; i < clones.size(); ++i) {
        EXPECT_EQ(printFunction(*clones[i]), expected[i]);
        expectOwnedBy(dst, *clones[i]);
    }
    return clones.size();
}

} // namespace

TEST(FunctionTest, InstructionCountExcludesTerminators)
{
    Context ctx;
    auto fn = parse(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %a = add i8 %x, 1\n"
        "  %b = mul i8 %a, 3\n"
        "  ret i8 %b\n}\n");
    EXPECT_EQ(fn->instructionCount(), 2u);
}

TEST(FunctionTest, UseCountsAndHasOneUse)
{
    Context ctx;
    auto fn = parse(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %a = add i8 %x, 1\n"
        "  %b = mul i8 %a, %a\n"
        "  ret i8 %b\n}\n");
    const Instruction *a = fn->entry()->at(0);
    const Instruction *b = fn->entry()->at(1);
    auto counts = fn->computeUseCounts();
    EXPECT_EQ(counts[a], 2u); // both mul operands
    EXPECT_EQ(counts[b], 1u); // the ret
    EXPECT_FALSE(fn->hasOneUse(a));
    EXPECT_TRUE(fn->hasOneUse(b));
}

TEST(FunctionTest, ReplaceAllUses)
{
    Context ctx;
    auto fn = parse(ctx,
        "define i8 @f(i8 %x, i8 %y) {\n"
        "  %a = add i8 %x, 1\n"
        "  %b = mul i8 %a, %a\n"
        "  ret i8 %b\n}\n");
    Instruction *a = fn->entry()->at(0);
    fn->replaceAllUses(a, fn->arg(1));
    const Instruction *b = fn->entry()->at(1);
    EXPECT_EQ(b->operand(0), fn->arg(1));
    EXPECT_EQ(b->operand(1), fn->arg(1));
}

TEST(FunctionTest, CloneIsDeepAndEquivalent)
{
    Context ctx;
    auto fn = parse(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %a = add nuw i8 %x, 1\n"
        "  %b = call i8 @llvm.umin.i8(i8 %a, i8 9)\n"
        "  ret i8 %b\n}\n");
    auto copy = fn->clone("g");
    EXPECT_TRUE(structurallyEqual(*fn, *copy));
    EXPECT_EQ(copy->name(), "g");
    // Mutating the clone leaves the original alone.
    copy->entry()->erase(size_t(0));
    EXPECT_EQ(fn->instructionCount(), 2u);
    EXPECT_EQ(copy->instructionCount(), 1u);
}

TEST(FunctionTest, CloneMapsPhiOperands)
{
    Context ctx;
    auto module = parseModule(ctx,
        "define i32 @f(i32 %n) {\n"
        "entry:\n"
        "  br label %loop\n"
        "loop:\n"
        "  %i = phi i32 [ 0, %entry ], [ %i2, %loop ]\n"
        "  %i2 = add i32 %i, 1\n"
        "  %c = icmp uge i32 %i2, %n\n"
        "  br i1 %c, label %exit, label %loop\n"
        "exit:\n"
        "  ret i32 %i2\n}\n").take();
    Function *fn = module->functions()[0].get();
    auto copy = fn->clone("g");
    EXPECT_TRUE(structurallyEqual(*fn, *copy));
    // The cloned phi's back-edge operand points at the cloned add.
    const Instruction *phi = copy->findBlock("loop")->at(0);
    EXPECT_EQ(phi->operand(1), copy->findBlock("loop")->at(1));
}

TEST(FunctionTest, CloneIntoAnotherContextCoversEveryKind)
{
    // A vector constant, a splat, poison, a float constant, load/store
    // access types and a phi, all in one function.
    size_t n = expectClonesOutliveTheirSource([](Context &ctx) {
        Functions fns;
        fns.push_back(parse(ctx,
            "define <4 x i8> @f(<4 x i8> %x, ptr %p, i1 %c, double %d) {\n"
            "entry:\n"
            "  %a = add <4 x i8> %x, <i8 1, i8 2, i8 3, i8 poison>\n"
            "  %s = shl <4 x i8> %a, splat (i8 1)\n"
            "  store <4 x i8> %s, ptr %p, align 4\n"
            "  %l = load <4 x i8>, ptr %p, align 4\n"
            "  %e = fadd double %d, 1.5\n"
            "  br i1 %c, label %t, label %j\n"
            "t:\n"
            "  br label %j\n"
            "j:\n"
            "  %m = phi <4 x i8> [ %l, %entry ], [ poison, %t ]\n"
            "  ret <4 x i8> %m\n}\n"));
        EXPECT_NE(fns.back(), nullptr);
        return fns;
    });
    EXPECT_EQ(n, 1u);
}

TEST(FunctionTest, CloneIntoAnotherContextCoversTheCorpus)
{
    size_t n = expectClonesOutliveTheirSource([](Context &ctx) {
        Functions fns;
        for (const auto *catalog :
             {&lpo::corpus::rq1Benchmarks(), &lpo::corpus::rq2Benchmarks()})
            for (const auto &bench : *catalog)
                fns.push_back(parse(ctx, bench.src_text));
        return fns;
    });
    EXPECT_EQ(n, lpo::corpus::rq1Benchmarks().size() +
                     lpo::corpus::rq2Benchmarks().size());

    // Every sequence the module pipeline would hand its case tasks.
    n = expectClonesOutliveTheirSource([](Context &ctx) {
        lpo::corpus::CorpusGenerator generator(ctx);
        auto module = generator.largeModule(7, 200, 3);
        lpo::extract::Extractor extractor;
        return extractor.extractFromModule(*module);
    });
    EXPECT_EQ(n, 311u);
}

TEST(ValueMapTest, GrowsPastItsInlineSlots)
{
    // 32 keys fit inline; inserting 300 rehashes three times, and a
    // map sized up front starts on the heap. Every binding must
    // survive both, and an overwrite must not add a key.
    Context ctx;
    Function fn(ctx, "f", ctx.types().intTy(8));
    for (unsigned i = 0; i < 300; ++i)
        fn.addArg(ctx.types().intTy(8), "a" + std::to_string(i));
    ValueMap<unsigned> grown;
    ValueMap<unsigned> sized(300);
    for (unsigned i = 0; i < 300; ++i) {
        grown.insert(fn.arg(i), i);
        sized.insert(fn.arg(i), i);
    }
    grown.insert(fn.arg(7), 1000);
    for (unsigned i = 0; i < 300; ++i) {
        ASSERT_NE(grown.find(fn.arg(i)), nullptr);
        ASSERT_NE(sized.find(fn.arg(i)), nullptr);
        EXPECT_EQ(*grown.find(fn.arg(i)), i == 7 ? 1000u : i);
        EXPECT_EQ(*sized.find(fn.arg(i)), i);
    }
    EXPECT_EQ(grown.find(ctx.getInt(8, 1)), nullptr);
    EXPECT_EQ(sized.find(ctx.getInt(8, 1)), nullptr);
}

TEST(BasicBlockTest, InsertEraseTerminator)
{
    Context ctx;
    auto fn = parse(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %a = add i8 %x, 1\n"
        "  ret i8 %a\n}\n");
    BasicBlock *bb = fn->entry();
    EXPECT_NE(bb->terminator(), nullptr);
    auto extra = std::make_unique<Instruction>(
        Opcode::Xor, ctx.types().intTy(8),
        std::vector<Value *>{fn->arg(0), fn->arg(0)});
    extra->setName("z");
    bb->insert(1, std::move(extra));
    EXPECT_EQ(bb->size(), 3u);
    EXPECT_EQ(bb->at(1)->name(), "z");
    bb->erase(bb->at(1));
    EXPECT_EQ(bb->size(), 2u);
}

TEST(ModuleTest, FindAndCount)
{
    Context ctx;
    Module module(ctx, "m");
    Function *f = module.createFunction("f", ctx.types().intTy(8));
    f->addArg(ctx.types().intTy(8), "x");
    BasicBlock *bb = f->addBlock("entry");
    auto ret = std::make_unique<Instruction>(
        Opcode::Ret, ctx.types().voidTy(),
        std::vector<Value *>{f->arg(0)});
    bb->append(std::move(ret));
    EXPECT_EQ(module.findFunction("f"), f);
    EXPECT_EQ(module.findFunction("g"), nullptr);
    EXPECT_EQ(module.instructionCount(), 0u); // only the terminator
}

TEST(FunctionTest, NumberValuesIsLLVMStyle)
{
    Context ctx;
    Function fn(ctx, "f", ctx.types().intTy(8));
    fn.addArg(ctx.types().intTy(8), ""); // unnamed
    BasicBlock *bb = fn.addBlock("entry");
    auto inst = std::make_unique<Instruction>(
        Opcode::Add, ctx.types().intTy(8),
        std::vector<Value *>{fn.arg(0), ctx.getInt(8, 1)});
    Instruction *placed = bb->append(std::move(inst));
    auto ret = std::make_unique<Instruction>(
        Opcode::Ret, ctx.types().voidTy(),
        std::vector<Value *>{placed});
    bb->append(std::move(ret));
    fn.numberValues();
    EXPECT_EQ(fn.arg(0)->name(), "0");
    EXPECT_EQ(placed->name(), "1");
}
