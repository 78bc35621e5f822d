// LPO pipeline (Algorithm 1) tests: success paths, feedback paths,
// the LPO- ablation, statistics, and processSequences' in-order
// commits at 1/2/8 threads.

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/pipeline.h"
#include "corpus/benchmarks.h"
#include "ir/parser.h"
#include "llm/mock_model.h"

using namespace lpo;
using core::CaseStatus;
using core::Pipeline;
using core::PipelineConfig;
using llm::MockModel;
using llm::ModelProfile;

namespace {

std::unique_ptr<ir::Function>
parseBench(ir::Context &ctx, const std::string &issue)
{
    return ir::parseFunction(ctx,
        corpus::findBenchmark(issue)->src_text).take();
}

ModelProfile
perfectModel()
{
    ModelProfile p = llm::modelByName("Gemini2.0T");
    p.skill = 2.5; // above every difficulty, including the 2.0 tier
    p.syntax_error_rate = 0;
    p.semantic_error_rate = 0;
    return p;
}

} // namespace

TEST(PipelineTest, FindsVerifiedOptimization)
{
    ir::Context ctx;
    auto src = parseBench(ctx, "115466"); // add_and_or
    MockModel model(perfectModel(), 1);
    Pipeline pipeline(model);
    auto outcome = pipeline.optimizeSequence(*src, 1);
    EXPECT_EQ(outcome.status, CaseStatus::Found);
    EXPECT_EQ(outcome.attempts, 1u);
    EXPECT_NE(outcome.candidate_text.find("add"), std::string::npos);
    EXPECT_EQ(pipeline.stats().found, 1u);
}

TEST(PipelineTest, SyntaxErrorFeedbackPath)
{
    ir::Context ctx;
    auto src = parseBench(ctx, "122235"); // clamp_umin
    ModelProfile profile = perfectModel();
    profile.syntax_error_rate = 1.0;
    profile.repair_skill = 1.0;
    MockModel model(profile, 3);
    Pipeline pipeline(model);
    auto outcome = pipeline.optimizeSequence(*src, 1);
    EXPECT_EQ(outcome.status, CaseStatus::Found);
    EXPECT_EQ(outcome.attempts, 2u);
    EXPECT_EQ(pipeline.stats().syntax_errors, 1u);
}

TEST(PipelineTest, LpoMinusStopsAfterFirstFailure)
{
    ir::Context ctx;
    auto src = parseBench(ctx, "122235");
    ModelProfile profile = perfectModel();
    profile.syntax_error_rate = 1.0; // always corrupt; never repairs
    MockModel model(profile, 3);
    PipelineConfig config;
    config.enable_feedback = false;
    Pipeline pipeline(model, config);
    auto outcome = pipeline.optimizeSequence(*src, 1);
    EXPECT_EQ(outcome.status, CaseStatus::SyntaxError);
    EXPECT_EQ(outcome.attempts, 1u);
}

TEST(PipelineTest, CounterexampleFeedbackPath)
{
    ir::Context ctx;
    auto src = parseBench(ctx, "108451"); // add_signbit
    ModelProfile profile = perfectModel();
    profile.semantic_error_rate = 1.0; // wrong constant first
    profile.repair_skill = 1.0;
    MockModel model(profile, 4);
    Pipeline pipeline(model);
    auto outcome = pipeline.optimizeSequence(*src, 1);
    // First candidate is wrong; the Alive2-style counterexample
    // drives the corrected second attempt.
    EXPECT_EQ(outcome.status, CaseStatus::Found);
    EXPECT_EQ(outcome.attempts, 2u);
    EXPECT_EQ(pipeline.stats().incorrect_candidates, 1u);
}

TEST(PipelineTest, EchoedInputIsNoCandidate)
{
    ir::Context ctx;
    auto src = ir::parseFunction(ctx,
        "define i8 @f(i8 %x, i8 %y) {\n"
        "  %a = add i8 %x, %y\n"
        "  %b = xor i8 %a, 29\n"
        "  ret i8 %b\n}\n").take();
    MockModel model(perfectModel(), 1);
    Pipeline pipeline(model);
    auto outcome = pipeline.optimizeSequence(*src, 1);
    EXPECT_EQ(outcome.status, CaseStatus::NoCandidate);
}

TEST(PipelineTest, AttemptLimitRespected)
{
    ir::Context ctx;
    auto src = parseBench(ctx, "108451");
    ModelProfile profile = perfectModel();
    profile.semantic_error_rate = 1.0;
    profile.repair_skill = 0.0; // never repairs
    MockModel model(profile, 6);
    PipelineConfig config;
    config.attempt_limit = 3;
    Pipeline pipeline(model, config);
    auto outcome = pipeline.optimizeSequence(*src, 1);
    EXPECT_NE(outcome.status, CaseStatus::Found);
    EXPECT_EQ(outcome.attempts, 3u);
}

TEST(PipelineTest, TracksSimulatedTimeAndCost)
{
    ir::Context ctx;
    auto src = parseBench(ctx, "115466");
    MockModel model(perfectModel(), 1);
    Pipeline pipeline(model);
    auto outcome = pipeline.optimizeSequence(*src, 1);
    EXPECT_GT(outcome.llm_seconds, 0.0);
    EXPECT_GT(outcome.total_seconds, outcome.llm_seconds);
    EXPECT_GT(outcome.cost_usd, 0.0); // Gemini profile is API-priced
}

TEST(PipelineTest, FeedbackImprovesDetectionStatistically)
{
    // Over all 25 RQ1 benchmarks, LPO must find at least as many as
    // LPO- with the same model and seeds, and strictly more in total.
    ir::Context ctx;
    ModelProfile profile = llm::modelByName("Gemini2.0T");
    unsigned lpo = 0, lpo_minus = 0;
    for (const auto &bench : corpus::rq1Benchmarks()) {
        auto src = ir::parseFunction(ctx, bench.src_text).take();
        for (uint64_t round = 0; round < 3; ++round) {
            {
                MockModel model(profile, 100 + round);
                Pipeline p(model);
                lpo += p.optimizeSequence(*src, round).found();
            }
            {
                MockModel model(profile, 100 + round);
                PipelineConfig config;
                config.enable_feedback = false;
                Pipeline p(model, config);
                lpo_minus += p.optimizeSequence(*src, round).found();
            }
        }
    }
    EXPECT_GT(lpo, lpo_minus);
}

namespace {

/** The RQ1 benchmark sources, parsed into @p ctx. */
std::vector<std::unique_ptr<ir::Function>>
parseRq1(ir::Context &ctx)
{
    std::vector<std::unique_ptr<ir::Function>> fns;
    for (const auto &bench : corpus::rq1Benchmarks())
        fns.push_back(ir::parseFunction(ctx, bench.src_text).take());
    return fns;
}

std::vector<const ir::Function *>
pointers(const std::vector<std::unique_ptr<ir::Function>> &fns)
{
    std::vector<const ir::Function *> ptrs;
    for (const auto &fn : fns)
        ptrs.push_back(fn.get());
    return ptrs;
}

/** What one on_commit call saw. */
struct Commit
{
    size_t index;
    CaseStatus status;
    std::string candidate_text;
    std::string last_feedback;
    uint64_t cases_folded; ///< pipeline stats().cases at the commit
};

void
expectCommitsMatch(const std::vector<Commit> &commits,
                   const std::vector<core::CaseOutcome> &outcomes,
                   uint64_t cases_before, unsigned threads)
{
    ASSERT_EQ(commits.size(), outcomes.size()) << "threads " << threads;
    for (size_t i = 0; i < commits.size(); ++i) {
        EXPECT_EQ(commits[i].index, i)
            << "commit out of order, threads " << threads;
        EXPECT_EQ(commits[i].status, outcomes[i].status) << "case " << i;
        EXPECT_EQ(commits[i].candidate_text, outcomes[i].candidate_text)
            << "case " << i;
        EXPECT_EQ(commits[i].last_feedback, outcomes[i].last_feedback)
            << "case " << i;
        // The case's stats were folded before its commit, and no
        // later case's were.
        EXPECT_EQ(commits[i].cases_folded, cases_before + i + 1)
            << "case " << i << " threads " << threads;
    }
}

} // namespace

// processSequences commits every case exactly once, in index order,
// after folding its stats, at any thread count; on_commit sees the
// outcome that is later returned. (The callback reads stats() only to
// pin the fold order; commits run one at a time, so the read is safe.)
TEST(PipelineOrderedCommit, CommitsEveryIndexInOrder)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        ir::Context ctx;
        auto fns = parseRq1(ctx);
        MockModel model(llm::modelByName("Gemini2.0T"), 11);
        PipelineConfig config;
        config.num_threads = threads;
        Pipeline pipeline(model, config);
        std::vector<Commit> commits;
        auto outcomes = pipeline.processSequences(
            pointers(fns), 5,
            [&](size_t i, const core::CaseOutcome &outcome) {
                commits.push_back({i, outcome.status,
                                   outcome.candidate_text,
                                   outcome.last_feedback,
                                   pipeline.stats().cases});
            });
        ASSERT_EQ(outcomes.size(), fns.size());
        expectCommitsMatch(commits, outcomes, 0, threads);
        EXPECT_EQ(pipeline.stats().cases, fns.size());
    }
}

// A throw out of on_commit at index k cancels the run: it propagates
// out of processSequences, nothing above k is committed, and the same
// Pipeline runs the next batch normally, with the outcomes of a run
// that never failed.
TEST(PipelineOrderedCommit, ThrowingCommitStopsTheDrain)
{
    std::vector<core::CaseOutcome> reference;
    {
        ir::Context ctx;
        auto fns = parseRq1(ctx);
        MockModel model(llm::modelByName("Gemini2.0T"), 11);
        PipelineConfig config;
        config.num_threads = 1;
        Pipeline pipeline(model, config);
        reference = pipeline.processSequences(pointers(fns), 5);
    }
    constexpr size_t kFailAt = 5;
    for (unsigned threads : {1u, 2u, 8u}) {
        ir::Context ctx;
        auto fns = parseRq1(ctx);
        ASSERT_GT(fns.size(), kFailAt + 1);
        MockModel model(llm::modelByName("Gemini2.0T"), 11);
        PipelineConfig config;
        config.num_threads = threads;
        Pipeline pipeline(model, config);

        std::vector<size_t> committed;
        EXPECT_THROW(pipeline.processSequences(
                         pointers(fns), 5,
                         [&](size_t i, const core::CaseOutcome &) {
                             committed.push_back(i);
                             if (i == kFailAt)
                                 throw std::runtime_error("commit fails");
                         }),
                     std::runtime_error)
            << "threads " << threads;
        ASSERT_EQ(committed.size(), kFailAt + 1) << "threads " << threads;
        for (size_t i = 0; i < committed.size(); ++i)
            EXPECT_EQ(committed[i], i) << "threads " << threads;

        const uint64_t cases_before = pipeline.stats().cases;
        std::vector<Commit> commits;
        auto outcomes = pipeline.processSequences(
            pointers(fns), 5,
            [&](size_t i, const core::CaseOutcome &outcome) {
                commits.push_back({i, outcome.status,
                                   outcome.candidate_text,
                                   outcome.last_feedback,
                                   pipeline.stats().cases});
            });
        expectCommitsMatch(commits, outcomes, cases_before, threads);
        ASSERT_EQ(outcomes.size(), reference.size());
        for (size_t i = 0; i < outcomes.size(); ++i) {
            EXPECT_EQ(outcomes[i].status, reference[i].status)
                << "case " << i << " threads " << threads;
            EXPECT_EQ(outcomes[i].candidate_text,
                      reference[i].candidate_text)
                << "case " << i << " threads " << threads;
        }
    }
}
