// LPO pipeline (Algorithm 1) tests: success paths, feedback paths,
// the LPO- ablation, statistics, processSequences' in-order commits at
// 1/2/8 threads (optimizeSequence included, as a one-element batch),
// and remembered misses.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "core/module_opt.h"
#include "core/pipeline.h"
#include "corpus/benchmarks.h"
#include "corpus/generator.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "llm/mock_model.h"
#include "support/failpoint.h"

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

/** Every deterministic PipelineStats field (all but timings and the
 *  scheduler's telemetry) is equal in @p a and @p b. */
void
expectSameDeterministicStats(const core::PipelineStats &a,
                             const core::PipelineStats &b)
{
    using S = core::PipelineStats;
    for (uint64_t S::*field :
         {&S::cases, &S::found, &S::llm_calls, &S::verifier_calls,
          &S::syntax_errors, &S::incorrect_candidates, &S::not_interesting,
          &S::verify_cache_hits, &S::verify_cache_misses,
          &S::verify_cache_evictions, &S::sat_solves, &S::sat_decisions,
          &S::sat_conflicts, &S::sat_propagations, &S::sat_restarts,
          &S::circuit_nodes, &S::circuit_emitted, &S::session_reuses,
          &S::egraph_consults, &S::egraph_proposals, &S::found_by_llm,
          &S::found_by_egraph, &S::hybrid_fallbacks, &S::catalog_consults,
          &S::catalog_proposals, &S::found_by_catalog, &S::miss_replays,
          &S::store_cache_loaded, &S::store_catalog_loaded,
          &S::store_misses_loaded, &S::store_cache_flushed,
          &S::store_catalog_flushed, &S::store_misses_flushed,
          &S::store_flush_failures, &S::store_recoveries,
          &S::store_quarantined, &S::store_rejected_files,
          &S::store_decode_skipped, &S::sat_escalations,
          &S::concrete_fallbacks, &S::exhaustive_rescues,
          &S::degraded_verdicts, &S::contained_exceptions})
        EXPECT_EQ(a.*field, b.*field);
    EXPECT_EQ(a.total_seconds, b.total_seconds);
    EXPECT_EQ(a.total_cost_usd, b.total_cost_usd);
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
        // One task per case at every thread count: one thread runs
        // the same task path as eight.
        EXPECT_EQ(pipeline.stats().scheduler.tasks_run, fns.size())
            << "threads " << threads;
    }
}

// optimizeSequence is a one-element processSequences batch: the same
// outcome and the same deterministic stats, case after case.
TEST(PipelineOrderedCommit, OptimizeSequenceIsAOneElementBatch)
{
    ir::Context ctx;
    auto fns = parseRq1(ctx);
    MockModel single_model(llm::modelByName("Gemini2.0T"), 11);
    MockModel batch_model(llm::modelByName("Gemini2.0T"), 11);
    PipelineConfig config;
    config.proposer = core::ProposerKind::Hybrid;
    Pipeline single(single_model, config);
    Pipeline batch(batch_model, config);
    for (size_t i = 0; i < fns.size(); ++i) {
        core::CaseOutcome a = single.optimizeSequence(*fns[i], 5);
        core::CaseOutcome b = batch.processSequences({fns[i].get()}, 5)[0];
        EXPECT_EQ(a.status, b.status) << "case " << i;
        EXPECT_EQ(a.attempts, b.attempts) << "case " << i;
        EXPECT_EQ(a.candidate_text, b.candidate_text) << "case " << i;
        EXPECT_EQ(a.last_feedback, b.last_feedback) << "case " << i;
        EXPECT_EQ(a.llm_seconds, b.llm_seconds) << "case " << i;
        EXPECT_EQ(a.total_seconds, b.total_seconds) << "case " << i;
        EXPECT_EQ(a.cost_usd, b.cost_usd) << "case " << i;
        EXPECT_EQ(a.verifier_backend, b.verifier_backend) << "case " << i;
        EXPECT_EQ(a.proposer, b.proposer) << "case " << i;
        EXPECT_EQ(a.step_cost, b.step_cost) << "case " << i;
        EXPECT_EQ(a.miss_replay, b.miss_replay) << "case " << i;
        SCOPED_TRACE("after case " + std::to_string(i));
        expectSameDeterministicStats(single.stats(), batch.stats());
    }
    EXPECT_GT(single.stats().found, 0u);
    EXPECT_GT(single.stats().hybrid_fallbacks, 0u);
    EXPECT_EQ(single.stats().scheduler.tasks_run, fns.size());
}

// A caller's interrupt holds at every thread count: a wider fan-out
// adds its scope's cancel flag next to it rather than replacing it, so
// a raised interrupt cuts the same proofs short at 1 and 8 threads.
TEST(PipelineOrderedCommit, CallerInterruptHoldsAtEveryThreadCount)
{
    std::atomic<bool> interrupt{true};
    auto run = [&](unsigned threads, std::vector<core::CaseOutcome> *out) {
        ir::Context ctx;
        auto fns = parseRq1(ctx);
        MockModel model(llm::modelByName("Gemini2.0T"), 11);
        PipelineConfig config;
        config.num_threads = threads;
        config.refine.interrupt = &interrupt;
        Pipeline pipeline(model, config);
        *out = pipeline.processSequences(pointers(fns), 5);
        return pipeline.stats();
    };
    std::vector<core::CaseOutcome> serial, wide;
    const core::PipelineStats serial_stats = run(1, &serial);
    expectSameDeterministicStats(serial_stats, run(8, &wide));
    ASSERT_EQ(serial.size(), wide.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].status, wide[i].status) << "case " << i;
        EXPECT_EQ(serial[i].attempts, wide[i].attempts) << "case " << i;
        EXPECT_EQ(serial[i].last_feedback, wide[i].last_feedback)
            << "case " << i;
        EXPECT_EQ(serial[i].step_cost, wide[i].step_cost) << "case " << i;
    }
    // The interrupt did decide something: uninterrupted, more is found.
    interrupt = false;
    EXPECT_LT(serial_stats.found, run(8, &wide).found);
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

// ---------------------------------------------------------------------
// Remembered misses (final no-find outcomes persisted in catalog.lpo)
// ---------------------------------------------------------------------

namespace {

/** Fresh per-test store directory (removed first). */
std::string
freshStoreDir(const char *name)
{
    std::string dir = ::testing::TempDir() + "lpo_pipeline_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
    return dir;
}

// Nothing in the model's library or the e-graph's rules applies: every
// leg ends NoCandidate.
const char *kNoFindSeq = "define i32 @seq(i32 %x, i32 %y) {\n"
                         "  %r = add i32 %x, %y\n"
                         "  ret i32 %r\n}\n";

struct MissRun
{
    core::CaseOutcome outcome;
    core::PipelineStats stats;
};

/** One optimizeSequence of @p text in a fresh pipeline over @p dir. */
MissRun
runOnce(llm::LlmClient &model, PipelineConfig config, const std::string &dir,
        const std::string &text = kNoFindSeq, uint64_t round_seed = 3)
{
    config.store_path = dir;
    config.num_threads = 1;
    ir::Context ctx;
    auto seq = ir::parseFunction(ctx, text).take();
    Pipeline pipeline(model, config);
    MissRun run;
    run.outcome = pipeline.optimizeSequence(*seq, round_seed);
    pipeline.flushStore();
    run.stats = pipeline.stats();
    return run;
}

PipelineConfig
hybridConfig()
{
    PipelineConfig config;
    config.proposer = core::ProposerKind::Hybrid;
    return config;
}

/** An LLM whose every completion throws (a contained provider fault,
 *  not an injected one). */
class ThrowingClient : public llm::LlmClient
{
  public:
    const std::string &name() const override { return name_; }
    llm::LlmResponse complete(const llm::LlmRequest &) override
    {
        throw std::runtime_error("provider down");
    }

  private:
    std::string name_ = "throwing";
};

/** An LLM that always proposes @p text. */
class FixedClient : public llm::LlmClient
{
  public:
    explicit FixedClient(std::string text) : text_(std::move(text)) {}
    const std::string &name() const override { return name_; }
    llm::LlmResponse complete(const llm::LlmRequest &) override
    {
        llm::LlmResponse response;
        response.text = text_;
        return response;
    }

  private:
    std::string name_ = "fixed";
    std::string text_;
};

} // namespace

// A no-find case is remembered; the next run over the same store
// replays it with no proposer and no verifier call, and reports the
// recorded status and leg.
TEST(PipelineMissTest, WarmRunReplaysRememberedMiss)
{
    std::string dir = freshStoreDir("miss_replay");
    MockModel model(llm::modelByName("Gemini2.0T"), 1);
    MissRun cold = runOnce(model, hybridConfig(), dir);
    EXPECT_EQ(cold.outcome.status, CaseStatus::NoCandidate);
    EXPECT_EQ(cold.outcome.proposer, "llm");
    EXPECT_GT(cold.stats.llm_calls, 0u);
    EXPECT_EQ(cold.stats.store_misses_flushed, 1u);
    EXPECT_EQ(cold.stats.store_catalog_flushed, 0u);

    MissRun warm = runOnce(model, hybridConfig(), dir);
    EXPECT_EQ(warm.stats.store_misses_loaded, 1u);
    EXPECT_EQ(warm.stats.store_catalog_loaded, 0u);
    EXPECT_EQ(warm.stats.miss_replays, 1u);
    EXPECT_EQ(warm.stats.llm_calls, 0u);
    EXPECT_EQ(warm.stats.egraph_consults, 0u);
    EXPECT_EQ(warm.stats.verifier_calls, 0u);
    EXPECT_EQ(warm.stats.store_misses_flushed, 0u);
    EXPECT_TRUE(warm.outcome.miss_replay);
    EXPECT_EQ(warm.outcome.status, CaseStatus::NoCandidate);
    EXPECT_EQ(warm.outcome.proposer, "llm");
    EXPECT_EQ(warm.outcome.attempts, 0u);
    EXPECT_EQ(warm.outcome.step_cost, 0u);
}

// Each part of the outcome fingerprint, changed alone, asks again.
TEST(PipelineMissTest, AnyFingerprintChangeAsksAgain)
{
    std::string dir = freshStoreDir("miss_fingerprint");
    MockModel model(llm::modelByName("Gemini2.0T"), 1);
    ASSERT_GT(runOnce(model, hybridConfig(), dir).stats.llm_calls, 0u);
    ASSERT_EQ(runOnce(model, hybridConfig(), dir).stats.llm_calls, 0u);

    auto expectAsked = [&](const MissRun &run, const char *what) {
        EXPECT_EQ(run.stats.miss_replays, 0u) << what;
        EXPECT_GT(run.stats.llm_calls, 0u) << what;
    };
    expectAsked(runOnce(model, hybridConfig(), dir, kNoFindSeq, 4),
                "round seed");
    ModelProfile recalibrated = llm::modelByName("Gemini2.0T");
    recalibrated.skill += 0.01; // same name, different model
    MockModel other_model(recalibrated, 1);
    expectAsked(runOnce(other_model, hybridConfig(), dir), "model identity");
    MockModel other_session(llm::modelByName("Gemini2.0T"), 2);
    expectAsked(runOnce(other_session, hybridConfig(), dir), "session seed");
    PipelineConfig attempts = hybridConfig();
    attempts.attempt_limit = 3;
    expectAsked(runOnce(model, attempts, dir), "attempt_limit");
    PipelineConfig no_feedback = hybridConfig();
    no_feedback.enable_feedback = false;
    expectAsked(runOnce(model, no_feedback, dir), "feedback flag");
    PipelineConfig tiers = hybridConfig();
    tiers.refine.budget_tiers = {1000, 100000};
    expectAsked(runOnce(model, tiers, dir), "budget_tiers");
    PipelineConfig llm_only = hybridConfig();
    llm_only.proposer = core::ProposerKind::Llm;
    expectAsked(runOnce(model, llm_only, dir), "proposer kind");
}

// Outcomes something outside the fingerprint may have shaped are
// never remembered: contained errors, degraded verdicts, interrupted
// cases, and any case run while a failpoint is armed. Pending misses
// die with discardPending.
TEST(PipelineMissTest, NonFinalOutcomesAreNeverRemembered)
{
    {
        std::string dir = freshStoreDir("miss_error");
        ThrowingClient client;
        PipelineConfig config;
        MissRun run = runOnce(client, config, dir);
        EXPECT_EQ(run.outcome.status, CaseStatus::Error);
        EXPECT_EQ(run.stats.store_misses_flushed, 0u);
    }
    {
        // A correct i64 rewrite under a one-conflict ladder: the SAT
        // tiers run out and sampled testing cannot conclude. It holds
        // only without signed overflow, so no circuit rewrite proves it
        // and the solver must search.
        std::string dir = freshStoreDir("miss_degraded");
        const std::string src = "define i1 @seq(i64 %a, i64 %b) {\n"
                                "  %s = sub nsw i64 %a, %b\n"
                                "  %t = add nsw i64 %a, %b\n"
                                "  %c = icmp sgt i64 %s, %t\n"
                                "  ret i1 %c\n}\n";
        const std::string tgt = "define i1 @seq(i64 %a, i64 %b) {\n"
                                "  %c = icmp slt i64 %b, 0\n"
                                "  ret i1 %c\n}\n";
        ir::Context ctx;
        verify::RefinementResult unbudgeted = verify::checkRefinement(
            *ir::parseFunction(ctx, src).take(),
            *ir::parseFunction(ctx, tgt).take());
        ASSERT_EQ(unbudgeted.verdict, verify::Verdict::Correct);
        ASSERT_GE(unbudgeted.work.conflicts, 2u)
            << "the fixture must need more than the one-conflict ladder";
        FixedClient client(tgt);
        PipelineConfig config;
        config.refine.budget_tiers = {1};
        MissRun run = runOnce(client, config, dir, src);
        EXPECT_EQ(run.outcome.status, CaseStatus::Degraded);
        EXPECT_EQ(run.stats.store_misses_flushed, 0u);
    }
    {
        std::string dir = freshStoreDir("miss_interrupted");
        MockModel model(llm::modelByName("Gemini2.0T"), 1);
        std::atomic<bool> interrupt{true};
        PipelineConfig config = hybridConfig();
        config.refine.interrupt = &interrupt;
        MissRun run = runOnce(model, config, dir);
        EXPECT_EQ(run.outcome.status, CaseStatus::NoCandidate);
        EXPECT_EQ(run.stats.store_misses_flushed, 0u);
    }
    {
        // An injected proposer.llm.none looks exactly like a model
        // with nothing to say; persisting it would replay a fake
        // NoCandidate into clean runs.
        std::string dir = freshStoreDir("miss_failpoint");
        MockModel model(llm::modelByName("Gemini2.0T"), 1);
        ASSERT_TRUE(
            FailPoints::instance().configure("proposer.llm.none=always"));
        MissRun faulty = runOnce(model, hybridConfig(), dir);
        FailPoints::instance().clear();
        EXPECT_EQ(faulty.outcome.status, CaseStatus::NoCandidate);
        EXPECT_EQ(faulty.stats.llm_calls, 0u);
        EXPECT_EQ(faulty.stats.store_misses_flushed, 0u);
        MissRun clean = runOnce(model, hybridConfig(), dir);
        EXPECT_EQ(clean.stats.miss_replays, 0u);
        EXPECT_GT(clean.stats.llm_calls, 0u);
    }
    {
        std::string dir = freshStoreDir("miss_discard");
        MockModel model(llm::modelByName("Gemini2.0T"), 1);
        PipelineConfig config = hybridConfig();
        config.store_path = dir;
        config.num_threads = 1;
        {
            ir::Context ctx;
            auto seq = ir::parseFunction(ctx, kNoFindSeq).take();
            Pipeline pipeline(model, config);
            pipeline.optimizeSequence(*seq, 3);
            ASSERT_EQ(pipeline.store()->catalog().pendingSize(), 1u);
            pipeline.discardPendingStore();
        }
        MissRun warm = runOnce(model, hybridConfig(), dir);
        EXPECT_EQ(warm.stats.store_misses_loaded, 0u);
        EXPECT_EQ(warm.stats.miss_replays, 0u);
    }
}

// The module-scale contract: a warm hybrid run over the store of a
// cold one asks neither the LLM nor the e-graph, and every emitted
// module is byte-identical to a store-less run, at 1 and 8 threads.
TEST(PipelineMissTest, WarmModuleRunAsksNoProposerByteIdentical)
{
    auto optimize = [](unsigned threads, const std::string &store,
                       core::PipelineStats *stats) {
        ir::Context ctx;
        corpus::CorpusGenerator generator(ctx);
        auto module = generator.largeModule(7, 24, 2);
        MockModel model(llm::modelByName("Gemini2.0T"), 1);
        core::ModuleOptOptions options;
        options.pipeline.proposer = core::ProposerKind::Hybrid;
        options.pipeline.num_threads = threads;
        options.pipeline.store_path = store;
        core::ModuleOptimizer optimizer(model, options);
        *stats = optimizer.optimize(*module, 1).pipeline;
        return ir::printModule(*module);
    };
    core::PipelineStats reference_stats;
    const std::string reference = optimize(1, "", &reference_stats);
    for (unsigned threads : {1u, 8u}) {
        std::string dir = freshStoreDir("miss_module");
        core::PipelineStats cold, warm;
        EXPECT_EQ(optimize(threads, dir, &cold), reference) << threads;
        EXPECT_EQ(optimize(threads, dir, &warm), reference) << threads;
        EXPECT_GT(cold.store_misses_flushed, 0u) << threads;
        EXPECT_EQ(warm.store_misses_loaded, cold.store_misses_flushed);
        EXPECT_EQ(warm.miss_replays, cold.store_misses_flushed);
        EXPECT_EQ(warm.llm_calls, 0u) << threads;
        EXPECT_EQ(warm.egraph_consults, 0u) << threads;
        EXPECT_EQ(warm.found, reference_stats.found) << threads;
    }
}
