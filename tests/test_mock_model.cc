// Mock LLM tests: determinism, hallucination injection, capability
// scaling, and feedback-driven repair.

#include <gtest/gtest.h>

#include "corpus/benchmarks.h"
#include "ir/parser.h"
#include "llm/mock_model.h"
#include "llm/prompt.h"
#include "opt/opt_driver.h"

using namespace lpo;
using llm::LlmRequest;
using llm::MockModel;
using llm::ModelProfile;

namespace {

LlmRequest
requestFor(const std::string &text, uint64_t seed = 0,
           const std::string &feedback = "")
{
    LlmRequest req;
    req.function_text = text;
    req.feedback = feedback;
    req.seed = seed;
    return req;
}

} // namespace

TEST(MockModelTest, DeterministicPerSeed)
{
    const auto &bench = corpus::rq1Benchmarks()[0];
    MockModel a(llm::modelByName("Llama3.3"), 5);
    MockModel b(llm::modelByName("Llama3.3"), 5);
    auto ra = a.complete(requestFor(bench.src_text, 3));
    auto rb = b.complete(requestFor(bench.src_text, 3));
    EXPECT_EQ(ra.text, rb.text);
}

TEST(MockModelTest, StrongModelSolvesEasyBenchmark)
{
    // add_signbit has difficulty 0.30; Gemini2.0T (skill .78) finds
    // it in nearly every round.
    const auto &bench = *corpus::findBenchmark("108451");
    ir::Context ctx;
    auto src = ir::parseFunction(ctx, bench.src_text).take();
    ModelProfile profile = llm::modelByName("Gemini2.0T");
    profile.syntax_error_rate = 0;
    profile.semantic_error_rate = 0;
    unsigned hits = 0;
    for (uint64_t round = 0; round < 20; ++round) {
        MockModel model(profile, round);
        auto resp = model.complete(requestFor(bench.src_text, round));
        auto opted = opt::runOpt(ctx, resp.text);
        if (!opted.failed &&
            opted.function->instructionCount() == 1 &&
            resp.text.find("xor") != std::string::npos)
            ++hits;
    }
    EXPECT_GE(hits, 17u);
}

TEST(MockModelTest, WeakModelRarelySolvesHardBenchmark)
{
    const auto &bench = *corpus::findBenchmark("104875"); // load_merge
    ModelProfile profile = llm::modelByName("Gemma3");
    unsigned hits = 0;
    for (uint64_t round = 0; round < 20; ++round) {
        MockModel model(profile, round);
        auto resp = model.complete(requestFor(bench.src_text, round));
        if (resp.text.find("load i32") != std::string::npos)
            ++hits;
    }
    EXPECT_LE(hits, 2u);
}

TEST(MockModelTest, SyntaxErrorInjectionMatchesFigure3b)
{
    std::string text =
        "define i8 @f(i8 %x) {\n"
        "  %m = call i8 @llvm.smax.i8(i8 %x, i8 0)\n"
        "  ret i8 %m\n}\n";
    std::string broken = llm::injectSyntaxError(text);
    // The intrinsic call became a bare pseudo-opcode...
    EXPECT_NE(broken.find("%m = smax"), std::string::npos);
    // ...which the parser rejects with the Fig. 3c message.
    ir::Context ctx;
    auto result = opt::runOpt(ctx, broken);
    ASSERT_TRUE(result.failed);
    EXPECT_NE(result.error_message.find("expected instruction opcode"),
              std::string::npos);
}

TEST(MockModelTest, SemanticErrorInjectionStillParses)
{
    std::string text =
        "define i8 @f(i8 %x) {\n"
        "  %m = and i8 %x, 15\n"
        "  ret i8 %m\n}\n";
    std::string wrong = llm::injectSemanticError(text);
    EXPECT_NE(wrong, text);
    ir::Context ctx;
    auto result = opt::runOpt(ctx, wrong);
    EXPECT_FALSE(result.failed) << result.error_message;
}

TEST(MockModelTest, SemanticErrorInjectionPerturbsInRangeConstantByOne)
{
    std::string text =
        "define i8 @f(i8 %x) {\n"
        "  %m = add i8 %x, -5\n"
        "  %n = and i8 %m, 15\n"
        "  ret i8 %n\n}\n";
    EXPECT_EQ(llm::injectSemanticError(text),
              "define i8 @f(i8 %x) {\n"
              "  %m = add i8 %x, -5\n"
              "  %n = and i8 %m, 16\n"
              "  ret i8 %n\n}\n");
}

TEST(MockModelTest, SemanticErrorInjectionHandlesI64SignBitConstant)
{
    // The digits of INT64_MIN do not fit a long; the constant is
    // perturbed by one in magnitude instead, and still parses.
    std::string text =
        "define i64 @f(i64 %x) {\n"
        "  %m = xor i64 %x, -9223372036854775808\n"
        "  ret i64 %m\n}\n";
    std::string wrong = llm::injectSemanticError(text);
    EXPECT_EQ(wrong,
              "define i64 @f(i64 %x) {\n"
              "  %m = xor i64 %x, -9223372036854775807\n"
              "  ret i64 %m\n}\n");
    ir::Context ctx;
    auto result = opt::runOpt(ctx, wrong);
    EXPECT_FALSE(result.failed) << result.error_message;
    // INT64_MAX itself cannot take +1 either.
    EXPECT_NE(llm::injectSemanticError(
                  "define i64 @f(i64 %x) {\n"
                  "  %m = xor i64 %x, 9223372036854775807\n"
                  "  ret i64 %m\n}\n")
                  .find(", 9223372036854775806\n"),
              std::string::npos);
}

TEST(MockModelTest, FeedbackEnablesRepair)
{
    const auto &bench = *corpus::findBenchmark("122235"); // clamp
    ModelProfile profile = llm::modelByName("Gemini2.0T");
    profile.skill = 1.5;             // always finds the idea
    profile.syntax_error_rate = 1.0; // always corrupts first
    profile.repair_skill = 1.0;      // always repairs with feedback

    MockModel model(profile, 9);
    auto first = model.complete(requestFor(bench.src_text, 1));
    ir::Context ctx;
    auto first_opt = opt::runOpt(ctx, first.text);
    ASSERT_TRUE(first_opt.failed);

    auto second = model.complete(
        requestFor(bench.src_text, 1, first_opt.error_message));
    auto second_opt = opt::runOpt(ctx, second.text);
    EXPECT_FALSE(second_opt.failed) << second_opt.error_message;
    EXPECT_NE(second.text.find("llvm.smax"), std::string::npos);
}

TEST(MockModelTest, EchoesWhenNothingMatches)
{
    MockModel model(llm::modelByName("o4-mini"), 2);
    std::string plain =
        "define i8 @f(i8 %x, i8 %y) {\n"
        "  %a = add i8 %x, %y\n"
        "  %b = xor i8 %a, 29\n"
        "  ret i8 %b\n}\n";
    auto resp = model.complete(requestFor(plain, 1));
    ir::Context ctx;
    auto echoed = ir::parseFunction(ctx, resp.text);
    ASSERT_TRUE(echoed.ok());
    EXPECT_EQ((*echoed)->instructionCount(), 2u);
}

TEST(MockModelTest, AccountsLatencyAndCost)
{
    const auto &bench = corpus::rq1Benchmarks()[0];
    MockModel api(llm::modelByName("Gemini2.5"), 1);
    auto r = api.complete(requestFor(bench.src_text, 1));
    EXPECT_GT(r.latency_seconds, 1.0);
    EXPECT_GT(r.cost_usd, 0.0);
    EXPECT_GT(r.prompt_tokens, 0u);

    MockModel local(llm::modelByName("Llama3.3"), 1);
    auto l = local.complete(requestFor(bench.src_text, 1));
    EXPECT_EQ(l.cost_usd, 0.0);
    EXPECT_GT(l.latency_seconds, 10.0);
}

TEST(MockModelTest, PromptConstruction)
{
    std::string prompt = llm::buildUserPrompt("define ...", "ERROR: x");
    EXPECT_NE(prompt.find("define ..."), std::string::npos);
    EXPECT_NE(prompt.find("ERROR: x"), std::string::npos);
    EXPECT_NE(llm::systemPrompt().find("suboptimal"),
              std::string::npos);
}
