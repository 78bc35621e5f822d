// Dead code elimination (opt/dce.cc): one linear pass removes what the
// fixpoint of whole-function sweeps removed, and nothing else.

#include <gtest/gtest.h>

#include <string>

#include "corpus/benchmarks.h"
#include "corpus/generator.h"
#include "ir/module.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "opt/dce.h"

using namespace lpo;

namespace {

std::unique_ptr<ir::Function>
parse(ir::Context &ctx, const std::string &text)
{
    auto r = ir::parseFunction(ctx, text);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().toString()) << "\n"
                        << text;
    return r.ok() ? r.take() : nullptr;
}

/** The sweep DCE replaced: recount every use after each block that
 *  changed, until nothing does. The reference for the linear pass. */
unsigned
sweepToFixpoint(ir::Function &fn)
{
    unsigned removed = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        auto uses = fn.computeUseCounts();
        for (const auto &bb : fn.blocks()) {
            for (size_t i = bb->size(); i > 0; --i) {
                ir::Instruction *inst = bb->at(i - 1);
                if (inst->hasSideEffects() || inst->type()->isVoid())
                    continue;
                if (uses[inst] == 0) {
                    bb->erase(i - 1);
                    ++removed;
                    changed = true;
                }
            }
            if (changed)
                break;
        }
    }
    return removed;
}

/** Both passes on copies of @p text: same count, same function. */
void
expectSameAsSweep(const std::string &text)
{
    ir::Context ctx;
    auto linear = parse(ctx, text);
    auto sweep = parse(ctx, text);
    ASSERT_TRUE(linear && sweep);
    EXPECT_EQ(opt::removeDeadInstructions(*linear), sweepToFixpoint(*sweep))
        << text;
    EXPECT_EQ(ir::printFunction(*linear), ir::printFunction(*sweep));
}

TEST(DeadCode, LongDeadChainGoesInOneCall)
{
    std::string text = "define i32 @f(i32 %x) {\n";
    std::string prev = "%x";
    for (int i = 0; i < 50; ++i) {
        text += "  %v" + std::to_string(i) + " = add i32 " + prev + ", 1\n";
        prev = "%v" + std::to_string(i);
    }
    text += "  ret i32 %x\n}\n";
    ir::Context ctx;
    auto fn = parse(ctx, text);
    ASSERT_TRUE(fn);
    EXPECT_EQ(opt::removeDeadInstructions(*fn), 50u);
    EXPECT_EQ(fn->entry()->size(), 1u); // the ret
    EXPECT_EQ(opt::removeDeadInstructions(*fn), 0u);
}

TEST(DeadCode, SideEffectsAndVoidStay)
{
    ir::Context ctx;
    auto fn = parse(ctx, "define void @g(ptr %p, i32 %x) {\n"
                         "  %a = add i32 %x, 1\n"
                         "  %b = mul i32 %a, 3\n"
                         "  %c = xor i32 %b, %a\n"
                         "  store i32 %a, ptr %p, align 4\n"
                         "  ret void\n"
                         "}\n");
    ASSERT_TRUE(fn);
    EXPECT_EQ(opt::removeDeadInstructions(*fn), 2u);
    EXPECT_EQ(ir::printFunction(*fn), "define void @g(ptr %p, i32 %x) {\n"
                                      "  %a = add i32 %x, 1\n"
                                      "  store i32 %a, ptr %p, align 4\n"
                                      "  ret void\n"
                                      "}\n");
}

TEST(DeadCode, DeadAcrossBlocksAndLiveLoopsMatchSweep)
{
    // A dead value used only in a later block, and a phi cycle that
    // keeps its uses (use counting never removes it).
    expectSameAsSweep("define i32 @h(i32 %x, i1 %c) {\n"
                      "entry:\n"
                      "  %a = add i32 %x, 1\n"
                      "  %d = mul i32 %x, %x\n"
                      "  br label %loop\n"
                      "loop:\n"
                      "  %i = phi i32 [ %a, %entry ], [ %n, %loop ]\n"
                      "  %n = add i32 %i, 1\n"
                      "  %e = add i32 %d, %d\n"
                      "  br i1 %c, label %loop, label %exit\n"
                      "exit:\n"
                      "  ret i32 %x\n"
                      "}\n");
}

TEST(DeadCode, MatchesSweepOnTheRQCorpus)
{
    std::vector<corpus::MissedOptBenchmark> catalog = corpus::rq1Benchmarks();
    for (const auto &bench : corpus::rq2Benchmarks())
        catalog.push_back(bench);
    for (const auto &bench : catalog) {
        expectSameAsSweep(bench.src_text);
        expectSameAsSweep(bench.tgt_text);
    }
}

TEST(DeadCode, MatchesSweepOnPatchedLargeModule)
{
    // Patch-back redirects a sequence's uses to its rewrite and leaves
    // the original dead; do the same to every third integer value
    // (redirected to the function's first argument of its type).
    ir::Context ctx;
    corpus::CorpusGenerator generator(ctx);
    auto module = generator.largeModule(7, 200, 3);
    unsigned patched = 0;
    for (const auto &fn : module->functions()) {
        unsigned n = 0;
        for (const auto &bb : fn->blocks()) {
            for (size_t i = 0; i < bb->size(); ++i) {
                ir::Instruction *inst = bb->at(i);
                if (inst->type()->isVoid() || ++n % 3 != 0)
                    continue;
                for (const auto &arg : fn->args()) {
                    if (arg->type() == inst->type()) {
                        fn->replaceAllUses(inst, arg.get());
                        ++patched;
                        break;
                    }
                }
            }
        }
        expectSameAsSweep(ir::printFunction(*fn));
    }
    EXPECT_GT(patched, 100u);
}

} // namespace
