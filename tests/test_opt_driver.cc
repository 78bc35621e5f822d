// opt driver tests: syntax checking, error messages, canonicalization.

#include <gtest/gtest.h>

#include "corpus/benchmarks.h"
#include "corpus/generator.h"
#include "ir/parser.h"
#include "opt/dce.h"
#include "opt/opt_driver.h"

using namespace lpo;

TEST(OptDriverTest, AcceptsAndOptimizes)
{
    ir::Context ctx;
    auto result = opt::runOpt(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %a = add i8 %x, 0\n"
        "  ret i8 %a\n}\n");
    ASSERT_FALSE(result.failed);
    EXPECT_TRUE(result.changed);
    EXPECT_EQ(result.function->instructionCount(), 0u);
}

TEST(OptDriverTest, SyntaxErrorMessage)
{
    // Figure 3c: "error: expected instruction opcode".
    ir::Context ctx;
    auto result = opt::runOpt(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %a = smax i8 %x, 0\n"
        "  ret i8 %a\n}\n");
    ASSERT_TRUE(result.failed);
    EXPECT_NE(result.error_message.find(
                  "error: line 2: expected instruction opcode"),
              std::string::npos);
}

TEST(OptDriverTest, AlreadyOptimalUnchanged)
{
    ir::Context ctx;
    auto result = opt::runOpt(ctx,
        "define i8 @f(i8 %x, i8 %y) {\n"
        "  %a = call i8 @llvm.umin.i8(i8 %x, i8 %y)\n"
        "  ret i8 %a\n}\n");
    ASSERT_FALSE(result.failed);
    EXPECT_FALSE(result.changed);
}

TEST(OptDriverTest, AcceptsMarkdownWrappedOutput)
{
    // LLM replies often wrap the IR in prose; the driver must cope.
    ir::Context ctx;
    auto result = opt::runOpt(ctx,
        "Sure! Here is the optimized function:\n"
        "define i8 @f(i8 %x) {\n"
        "  %a = add i8 %x, 1\n"
        "  ret i8 %a\n}\n"
        "This is optimal.\n");
    EXPECT_FALSE(result.failed);
}

TEST(OptDriverTest, OptimizeFunctionClones)
{
    ir::Context ctx;
    auto result = opt::runOpt(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %a = add i8 %x, 0\n"
        "  ret i8 %a\n}\n");
    // The original parsed function was mutated in place by runOpt;
    // optimizeFunction must not mutate its input.
    auto copy = opt::optimizeFunction(*result.function);
    EXPECT_EQ(result.function->instructionCount(),
              copy->instructionCount());
}

TEST(OptDriverTest, PipelineLeavesNoDeadCode)
{
    // The standard pipeline has no dce pass of its own: instcombine
    // sweeps dead code after every round. A sweep after the pipeline
    // must find nothing, on a function with a dead chain, on every
    // RQ source and target, and on every function of the profile
    // module.
    ir::Context ctx;
    std::vector<std::unique_ptr<ir::Function>> fns;
    auto parse = [&](const std::string &text) {
        auto fn = ir::parseFunction(ctx, text);
        ASSERT_TRUE(fn.ok()) << text;
        fns.push_back(fn.take());
    };
    parse("define i8 @f(i8 %x, i8 %y) {\n"
          "  %d = mul i8 %y, 3\n"
          "  %e = add i8 %d, 1\n"
          "  %a = add i8 %x, 0\n"
          "  %b = or i8 %a, 0\n"
          "  ret i8 %b\n}\n");
    for (const auto *catalog :
         {&corpus::rq1Benchmarks(), &corpus::rq2Benchmarks()})
        for (const auto &bench : *catalog) {
            parse(bench.src_text);
            parse(bench.tgt_text);
        }
    corpus::CorpusGenerator generator(ctx);
    auto module = generator.largeModule(7, 200, 3);
    for (const auto &fn : module->functions())
        fns.push_back(fn->clone(fn->name()));
    for (const auto &fn : fns) {
        EXPECT_EQ(opt::removeDeadInstructions(*opt::optimizeFunction(*fn)),
                  0u)
            << fn->name();
    }
    EXPECT_TRUE(opt::runStandardPipeline(*fns.front()));
    EXPECT_EQ(fns.front()->instructionCount(), 0u);
}
