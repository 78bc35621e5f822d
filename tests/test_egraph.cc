// E-graph tests: hash-consing, congruence closure, constant folding,
// saturation rewrites, budget semantics, extraction determinism, and
// the never-propose-invalid-IR guarantee over the full corpus.

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/proposer.h"
#include "corpus/benchmarks.h"
#include "corpus/generator.h"
#include "egraph/egraph.h"
#include "egraph/extract.h"
#include "egraph/rules.h"
#include "ir/ir_verifier.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "llm/mock_model.h"
#include "verify/refine.h"

using namespace lpo;
using egraph::ClassId;
using egraph::EGraph;
using egraph::ENode;

namespace {

std::unique_ptr<ir::Function>
parse(ir::Context &ctx, const std::string &text)
{
    auto r = ir::parseFunction(ctx, text);
    EXPECT_TRUE(r.ok()) << text;
    return r.take();
}

ENode
binNode(ir::Opcode op, const ir::Type *type, ClassId a, ClassId b)
{
    ENode node;
    node.tag = ENode::Tag::Inst;
    node.op = op;
    node.type = type;
    node.children = {a, b};
    return node;
}

std::vector<corpus::MissedOptBenchmark>
fullCorpus()
{
    std::vector<corpus::MissedOptBenchmark> catalog =
        corpus::rq1Benchmarks();
    for (const auto &bench : corpus::rq2Benchmarks())
        catalog.push_back(bench);
    return catalog;
}

} // namespace

TEST(EGraphTest, HashConsingSharesCommutedNodes)
{
    ir::Context ctx;
    auto fn = parse(ctx,
        "define i8 @f(i8 %x, i8 %y) {\n"
        "  %a = add i8 %x, %y\n"
        "  %b = add i8 %y, %x\n"
        "  %c = xor i8 %a, %b\n"
        "  ret i8 %c\n}\n");
    EGraph graph(ctx);
    auto root = graph.addFunction(*fn);
    ASSERT_TRUE(root.has_value());
    // %a and %b canonicalize to one node (commutative operand order),
    // so: 2 args + 1 add + 1 xor. The second add is a table hit.
    EXPECT_EQ(graph.numNodes(), 4u);
    EXPECT_GE(graph.uniqueTableHits(), 1u);
}

TEST(EGraphTest, CongruenceClosureAfterMerge)
{
    ir::Context ctx;
    const ir::Type *i8 = ctx.types().intTy(8);
    EGraph graph(ctx);
    ClassId x = graph.addArg(0, i8);
    ClassId y = graph.addArg(1, i8);
    ClassId one = graph.addConstant(ctx.getInt(8, 1));
    ClassId xp = graph.add(binNode(ir::Opcode::Add, i8, x, one));
    ClassId yp = graph.add(binNode(ir::Opcode::Add, i8, y, one));
    EXPECT_NE(graph.find(xp), graph.find(yp));
    graph.merge(x, y);
    graph.rebuild();
    // x = y forces add(x,1) = add(y,1) by congruence.
    EXPECT_EQ(graph.find(xp), graph.find(yp));
}

TEST(EGraphTest, ConstantFoldingCollapsesToConstant)
{
    ir::Context ctx;
    const ir::Type *i8 = ctx.types().intTy(8);
    EGraph graph(ctx);
    ClassId two = graph.addConstant(ctx.getInt(8, 2));
    ClassId three = graph.addConstant(ctx.getInt(8, 3));
    ClassId sum = graph.add(binNode(ir::Opcode::Add, i8, two, three));
    const ir::Value *constant = graph.constantOf(sum);
    ASSERT_NE(constant, nullptr);
    const ir::ConstantInt *ci = ir::asConstIntOrSplat(constant);
    ASSERT_NE(ci, nullptr);
    EXPECT_EQ(ci->value().zext(), 5u);
    // No operator node was created for the folded add.
    EXPECT_EQ(graph.numNodes(), 3u);
}

TEST(EGraphTest, SaturationRewritesMulToShl)
{
    ir::Context ctx;
    auto fn = parse(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %r = mul i8 %x, 8\n"
        "  ret i8 %r\n}\n");
    core::EGraphProposer proposer;
    auto proposal = proposer.propose(*fn, "", "", 0);
    ASSERT_TRUE(proposal.has_value());
    EXPECT_NE(proposal->text.find("shl"), std::string::npos)
        << proposal->text;
}

TEST(EGraphTest, SaturationCancelsSubAdd)
{
    ir::Context ctx;
    auto fn = parse(ctx,
        "define i8 @f(i8 %x, i8 %y) {\n"
        "  %a = sub i8 %x, %y\n"
        "  %b = add i8 %a, %y\n"
        "  ret i8 %b\n}\n");
    core::EGraphProposer proposer;
    auto proposal = proposer.propose(*fn, "", "", 0);
    ASSERT_TRUE(proposal.has_value());
    EXPECT_NE(proposal->text.find("ret i8 %x"), std::string::npos)
        << proposal->text;
    EXPECT_EQ(proposal->text.find("add"), std::string::npos)
        << proposal->text;
}

TEST(EGraphTest, SaturationReassociatesConstants)
{
    // (x + 3) + 5 saturates to x + 8 via associativity + folding.
    ir::Context ctx;
    auto fn = parse(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %a = add i8 %x, 3\n"
        "  %b = add i8 %a, 5\n"
        "  ret i8 %b\n}\n");
    core::EGraphProposer proposer;
    auto proposal = proposer.propose(*fn, "", "", 0);
    ASSERT_TRUE(proposal.has_value());
    EXPECT_NE(proposal->text.find("add i8 %x, 8"), std::string::npos)
        << proposal->text;
}

TEST(EGraphTest, MulSignedMinKeepsRefinement)
{
    // mul nsw x, INT_MIN is defined at x = 1, but shl nsw x, w-1 is
    // poison there — the mul-to-shl rule must drop nsw for the
    // signed-min power of two. Regression: the proposal (if any) must
    // never be refuted.
    ir::Context ctx;
    auto fn = parse(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %r = mul nsw i8 %x, -128\n"
        "  ret i8 %r\n}\n");
    core::EGraphProposer proposer;
    auto proposal = proposer.propose(*fn, "", "", 0);
    ASSERT_TRUE(proposal.has_value());
    EXPECT_EQ(proposal->text.find("nsw"), std::string::npos)
        << proposal->text;
    auto parsed = ir::parseFunction(ctx, proposal->text);
    ASSERT_TRUE(parsed.ok());
    verify::RefineOptions options;
    options.num_threads = 1;
    auto verdict = verify::checkRefinement(*fn, **parsed, options);
    EXPECT_TRUE(verdict.correct()) << verdict.detail;
}

TEST(EGraphTest, NodeBudgetRespected)
{
    ir::Context ctx;
    const corpus::MissedOptBenchmark *bench =
        corpus::findBenchmark("122235"); // clamp_umin: rich rewrites
    ASSERT_NE(bench, nullptr);
    auto fn = parse(ctx, bench->src_text);

    EGraph graph(ctx);
    auto root = graph.addFunction(*fn);
    ASSERT_TRUE(root.has_value());
    size_t seed_nodes = graph.numNodes();

    egraph::SaturationLimits limits;
    limits.max_nodes = seed_nodes + 6; // room for almost nothing
    auto stats = egraph::saturate(graph, *root, *fn, limits);
    EXPECT_TRUE(stats.node_budget_hit);
    // Hard contract: rewrites that would exceed the budget are
    // skipped, so the node count never passes max_nodes.
    EXPECT_LE(graph.numNodes(), limits.max_nodes);
    // A budget-clipped graph still extracts a valid function.
    auto best = egraph::extractFunction(graph, *root, *fn);
    ASSERT_NE(best, nullptr);
    EXPECT_TRUE(ir::isValid(*best));
}

TEST(EGraphTest, SaturatesToFixpointWithDefaultBudget)
{
    ir::Context ctx;
    auto fn = parse(ctx,
        "define i8 @f(i8 %x, i8 %y) {\n"
        "  %a = add i8 %x, %y\n"
        "  ret i8 %a\n}\n");
    EGraph graph(ctx);
    auto root = graph.addFunction(*fn);
    ASSERT_TRUE(root.has_value());
    auto stats = egraph::saturate(graph, *root, *fn);
    EXPECT_TRUE(stats.saturated);
    EXPECT_FALSE(stats.node_budget_hit);
}

TEST(EGraphTest, FixpointConsultExtractsOncePerIteration)
{
    // At a fixpoint the graph is the one the last in-loop extraction
    // read, so the best a consult returns is that extraction's: one
    // extraction per iteration, none after the loop.
    unsigned fixpoints = 0;
    for (const auto &bench : fullCorpus()) {
        ir::Context ctx;
        auto fn = parse(ctx, bench.src_text);
        egraph::SaturationStats stats;
        egraph::bestEquivalent(*fn, {}, &stats);
        if (!stats.saturated)
            continue;
        ++fixpoints;
        EXPECT_EQ(stats.extractions, stats.iterations) << bench.issue_id;
    }
    EXPECT_GT(fixpoints, fullCorpus().size() / 2);
}

TEST(EGraphTest, BestEqualToTheReplayedFunctionIsNotReplayed)
{
    // Nothing rewrites a lone add: the first extraction is the input
    // itself, already replayed on pass 0, so it is not replayed again
    // and there is no cheaper function to return.
    ir::Context ctx;
    auto fn = parse(ctx,
        "define i8 @f(i8 %x, i8 %y) {\n"
        "  %a = add i8 %x, %y\n"
        "  ret i8 %a\n}\n");
    EGraph graph(ctx);
    auto root = graph.addFunction(*fn);
    ASSERT_TRUE(root.has_value());
    std::unique_ptr<ir::Function> best;
    auto stats = egraph::saturate(graph, *root, *fn, {}, &best);
    EXPECT_TRUE(stats.saturated);
    EXPECT_EQ(stats.iterations, 1u);
    EXPECT_EQ(stats.extractions, 1u);
    EXPECT_EQ(stats.replays, 1u);
    EXPECT_EQ(best, nullptr);
}

TEST(EGraphTest, SkippedReplayKeepsItsBudgetCheck)
{
    // A directed rule fires on pass 0 and fits the budget, the first
    // extraction is the input again, and replaying it a second time
    // would no longer fit: the skipped replay must still report the
    // budget hit (a full replay sets it in its insertion check).
    ir::Context ctx;
    auto fn = parse(ctx,
        "define i8 @src(i8 %x) {\n"
        "  %r = add i8 %x, -128\n"
        "  ret i8 %r\n}\n");
    EGraph graph(ctx);
    auto root = graph.addFunction(*fn);
    ASSERT_TRUE(root.has_value());
    egraph::SaturationLimits limits;
    limits.max_nodes = graph.numNodes() + 6;
    auto stats = egraph::saturate(graph, *root, *fn, limits);
    EXPECT_EQ(stats.iterations, 1u);
    EXPECT_EQ(stats.replays, 1u);
    EXPECT_TRUE(stats.node_budget_hit);
    EXPECT_FALSE(stats.saturated);
    EXPECT_LE(graph.numNodes(), limits.max_nodes);
}

TEST(EGraphTest, EqualCostTieFollowsDecimalKeyOrder)
{
    // freeze(%a9) and freeze(%a10) cost the same; the node-order key
    // renders child ids in decimal and compares strings, so ",10"
    // sorts before ",9" and the freeze of argument 10 wins.
    ir::Context ctx;
    std::string text = "define i8 @f(";
    for (int i = 0; i <= 10; ++i)
        text += (i ? ", i8 %a" : "i8 %a") + std::to_string(i);
    text += ") {\n  ret i8 %a0\n}\n";
    auto signature = parse(ctx, text);
    const ir::Type *i8 = ctx.types().intTy(8);
    EGraph graph(ctx);
    for (unsigned i = 0; i <= 10; ++i)
        ASSERT_EQ(graph.addArg(i, i8), i);
    auto freezeOf = [&](ClassId arg) {
        ENode node;
        node.tag = ENode::Tag::Inst;
        node.op = ir::Opcode::Freeze;
        node.type = i8;
        node.children = {arg};
        return graph.add(std::move(node));
    };
    ClassId root = graph.merge(freezeOf(9), freezeOf(10));
    graph.rebuild();
    auto best = egraph::extractFunction(graph, root, *signature);
    ASSERT_NE(best, nullptr);
    EXPECT_NE(ir::printFunction(*best).find("freeze i8 %a10"),
              std::string::npos)
        << ir::printFunction(*best);
}

TEST(EGraphTest, ReusedWorkspaceMatchesFreshGraphs)
{
    // bestEquivalent reuses one graph and one set of buffers per
    // thread. Back-to-back consults over different Contexts (each
    // gone before the next) must answer exactly what a fresh graph
    // does; the reused pass runs in reverse order so every consult
    // follows a different one than in the fresh pass.
    const auto corpus = fullCorpus();
    std::vector<std::string> reused(corpus.size()), fresh(corpus.size());
    auto text = [](const std::unique_ptr<ir::Function> &fn) {
        return fn ? ir::printFunction(*fn) : std::string("-");
    };
    for (size_t i = corpus.size(); i-- > 0;) {
        ir::Context ctx;
        auto fn = parse(ctx, corpus[i].src_text);
        reused[i] = text(egraph::bestEquivalent(*fn, {}));
    }
    for (size_t i = 0; i < corpus.size(); ++i) {
        ir::Context ctx;
        auto fn = parse(ctx, corpus[i].src_text);
        EGraph graph(ctx);
        auto root = graph.addFunction(*fn);
        std::unique_ptr<ir::Function> best;
        if (root)
            egraph::saturate(graph, *root, *fn, {}, &best);
        fresh[i] = text(best);
    }
    for (size_t i = 0; i < corpus.size(); ++i)
        EXPECT_EQ(reused[i], fresh[i]) << corpus[i].issue_id;
}

TEST(EGraphTest, ProposerDeterministicAcrossRepeatedRuns)
{
    for (const auto &bench : fullCorpus()) {
        std::optional<std::string> first;
        for (int run = 0; run < 2; ++run) {
            ir::Context ctx;
            auto fn = parse(ctx, bench.src_text);
            core::EGraphProposer proposer;
            auto proposal = proposer.propose(*fn, "", "", 0);
            std::optional<std::string> text;
            if (proposal)
                text = proposal->text;
            if (run == 0)
                first = text;
            else
                EXPECT_EQ(first, text) << bench.issue_id;
        }
    }
}

TEST(EGraphTest, NeverProposesInvalidOrWrongCandidates)
{
    // Acceptance: every proposal parses, passes the IR verifier, and
    // is never refuted by the refinement checker.
    verify::RefineOptions options;
    options.num_threads = 1;
    unsigned proposals = 0;
    for (const auto &bench : fullCorpus()) {
        ir::Context ctx;
        auto fn = parse(ctx, bench.src_text);
        core::EGraphProposer proposer;
        auto proposal = proposer.propose(*fn, "", "", 0);
        if (!proposal)
            continue;
        ++proposals;
        auto parsed = ir::parseFunction(ctx, proposal->text);
        ASSERT_TRUE(parsed.ok()) << bench.issue_id << "\n"
                                 << proposal->text;
        EXPECT_TRUE(ir::isValid(**parsed)) << bench.issue_id;
        auto verdict = verify::checkRefinement(*fn, **parsed, options);
        EXPECT_NE(verdict.verdict, verify::Verdict::Incorrect)
            << bench.issue_id << "\n" << proposal->text << "\n"
            << verdict.detail;
    }
    // The corpus is built from library families; the e-graph must
    // crack a substantial share of it.
    EXPECT_GT(proposals, fullCorpus().size() / 2);
}

namespace {

struct PipelineRun
{
    core::PipelineStats stats;
    std::vector<core::CaseOutcome> outcomes;
};

PipelineRun
runHybridPipelineWithThreads(unsigned num_threads)
{
    ir::Context ctx;
    corpus::CorpusOptions opts;
    opts.files_per_project = 1;
    opts.functions_per_file = 4;
    opts.pattern_density = 0.6;
    corpus::CorpusGenerator generator(ctx, opts);
    auto module =
        generator.generateFile(corpus::paperProjects().front(), 0);

    llm::MockModel model(llm::modelByName("Gemini2.0T"), 77);
    core::PipelineConfig config;
    config.num_threads = num_threads;
    config.proposer = core::ProposerKind::Hybrid;
    core::Pipeline pipeline(model, config);
    extract::Extractor extractor;

    PipelineRun run;
    run.outcomes = pipeline.processModule(*module, extractor, 3);
    run.stats = pipeline.stats();
    return run;
}

} // namespace

TEST(EGraphTest, HybridPipelineThreadCountInvariant)
{
    // The deterministic-parallelism contract extends to the e-graph
    // backend: outcomes and stats are bit-identical at any thread
    // count (saturation + extraction are deterministic, and workers
    // run in isolated contexts).
    PipelineRun serial = runHybridPipelineWithThreads(1);
    PipelineRun parallel = runHybridPipelineWithThreads(8);

    ASSERT_GT(serial.outcomes.size(), 1u);
    ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
    for (size_t i = 0; i < serial.outcomes.size(); ++i) {
        const core::CaseOutcome &a = serial.outcomes[i];
        const core::CaseOutcome &b = parallel.outcomes[i];
        EXPECT_EQ(a.status, b.status) << "case " << i;
        EXPECT_EQ(a.attempts, b.attempts) << "case " << i;
        EXPECT_EQ(a.candidate_text, b.candidate_text) << "case " << i;
        EXPECT_EQ(a.proposer, b.proposer) << "case " << i;
        EXPECT_EQ(a.total_seconds, b.total_seconds) << "case " << i;
    }
    EXPECT_EQ(serial.stats.found, parallel.stats.found);
    EXPECT_EQ(serial.stats.found_by_llm, parallel.stats.found_by_llm);
    EXPECT_EQ(serial.stats.found_by_egraph,
              parallel.stats.found_by_egraph);
    EXPECT_EQ(serial.stats.egraph_consults, parallel.stats.egraph_consults);
    EXPECT_EQ(serial.stats.egraph_proposals,
              parallel.stats.egraph_proposals);
    EXPECT_EQ(serial.stats.hybrid_fallbacks,
              parallel.stats.hybrid_fallbacks);
    EXPECT_EQ(serial.stats.total_seconds, parallel.stats.total_seconds);
}
