// The verifier's per-thread SAT workspace: a solver, circuit builder
// and term DAG reused across queries must answer every query exactly
// as newly constructed ones do, whatever state the previous query left
// them in.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "corpus/benchmarks.h"
#include "interp/interp.h"
#include "ir/parser.h"
#include "smt/bitblast.h"
#include "smt/sat.h"
#include "support/failpoint.h"
#include "support/rng.h"
#include "verify/refine.h"

using namespace lpo;
using namespace lpo::smt;
using namespace lpo::verify;

namespace {

const char *kMulSrc8 =
    "define i8 @src(i8 %x, i8 %y) {\n  %m = mul i8 %x, 7\n"
    "  %r = xor i8 %m, %y\n"
    "  ret i8 %r\n}\n";
const char *kMulTgt8 =
    "define i8 @tgt(i8 %x, i8 %y) {\n  %s = shl i8 %x, 3\n"
    "  %m = sub i8 %s, %x\n"
    "  %r = xor i8 %m, %y\n"
    "  ret i8 %r\n}\n";
const char *kWrongMulTgt32 =
    "define i32 @tgt(i32 %x, i32 %y) {\n  %m = shl i32 %x, 3\n"
    "  %r = xor i32 %m, %y\n"
    "  ret i32 %r\n}\n";
const char *kMulSrc32 =
    "define i32 @src(i32 %x, i32 %y) {\n  %m = mul i32 %x, 7\n"
    "  %r = xor i32 %m, %y\n"
    "  ret i32 %r\n}\n";

/** One checkRefinement call: a pair and the options it runs under. */
struct Query
{
    std::string name;
    const ir::Function *src = nullptr;
    const ir::Function *tgt = nullptr;
    RefineOptions options;
};

/** Everything of a result that must not depend on solver reuse. */
std::string
fingerprint(const Query &query, const RefinementResult &r)
{
    const VerifyWork &w = r.work;
    std::string out = query.name + " verdict=" +
                      std::to_string(static_cast<int>(r.verdict)) +
                      " backend=" + r.backend + " detail=" + r.detail;
    for (uint64_t counter :
         {w.solves, w.decisions, w.conflicts, w.propagations, w.restarts,
          w.escalations, w.concrete_fallbacks, w.exhaustive_rescues,
          w.degraded, w.circuit_nodes, w.circuit_emitted, w.sat_queries,
          w.term_decided})
        out += " " + std::to_string(counter);
    if (r.counterexample) {
        out += " input=" + interp::describeInput(*query.src,
                                                 r.counterexample->input);
        out += " src=" + r.counterexample->source_value;
        out += " tgt=" + r.counterexample->target_value;
    }
    return out;
}

/** @p query answered on a thread of its own: a never-used workspace. */
std::string
freshAnswer(const Query &query)
{
    std::string out;
    std::thread([&] {
        out = fingerprint(query,
                          checkRefinement(*query.src, *query.tgt,
                                          query.options));
    }).join();
    return out;
}

class WorkspaceSequence : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        std::vector<corpus::MissedOptBenchmark> pairs =
            corpus::rq1Benchmarks();
        for (const auto &bench : corpus::rq2Benchmarks())
            pairs.push_back(bench);
        for (const auto &bench : pairs) {
            const ir::Function *src = parse(bench.src_text);
            const ir::Function *tgt = parse(bench.tgt_text);
            if (usesSatBackend(*src, *tgt))
                add("corpus/" + bench.issue_id, src, tgt, {});
        }
        ASSERT_GT(queries_.size(), 20u);

        const ir::Function *mul8 = parse(kMulSrc8);
        const ir::Function *mul8_tgt = parse(kMulTgt8);
        const ir::Function *mul32 = parse(kMulSrc32);
        // Incorrect, with a counterexample read from the model.
        add("incorrect", mul32, parse(kWrongMulTgt32), {});
        // Tier one exhausts, tier two resumes and proves.
        RefineOptions ladder;
        ladder.budget_tiers = {1, 0};
        add("ladder", mul8, mul8_tgt, ladder);
        // Unknown after an exhausted single-shot budget.
        RefineOptions exhausted;
        exhausted.conflict_budget = 1;
        add("exhausted", mul8, mul8_tgt, exhausted);
        // Unknown after a raised interrupt.
        RefineOptions interrupted;
        interrupted.interrupt = &raised_;
        add("interrupted", mul8, mul8_tgt, interrupted);
    }

    const ir::Function *parse(const std::string &text)
    {
        auto fn = ir::parseFunction(context_, text);
        EXPECT_TRUE(fn.ok()) << text;
        functions_.push_back(std::move(*fn));
        return functions_.back().get();
    }

    void add(std::string name, const ir::Function *src,
             const ir::Function *tgt, RefineOptions options)
    {
        options.num_threads = 1;
        queries_.push_back(Query{std::move(name), src, tgt, options});
    }

    std::vector<std::string> freshAnswers() const
    {
        std::vector<std::string> out;
        for (const Query &query : queries_)
            out.push_back(freshAnswer(query));
        return out;
    }

    ir::Context context_;
    std::vector<std::unique_ptr<ir::Function>> functions_;
    std::vector<Query> queries_;
    std::atomic<bool> raised_{true};
};

} // namespace

TEST_F(WorkspaceSequence, ReusedWorkspaceMatchesFreshRunsInAnyOrder)
{
    const std::vector<std::string> fresh = freshAnswers();
    std::vector<size_t> order(queries_.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::mt19937 shuffle_rng(7);
    for (int pass = 0; pass < 3; ++pass) {
        if (pass > 0) // in order first, then shuffled twice
            std::shuffle(order.begin(), order.end(), shuffle_rng);
        for (size_t i : order) {
            const Query &query = queries_[i];
            EXPECT_EQ(fingerprint(query, checkRefinement(*query.src,
                                                         *query.tgt,
                                                         query.options)),
                      fresh[i]);
        }
    }
}

TEST_F(WorkspaceSequence, ConcurrentThreadsKeepSeparateWorkspaces)
{
    const std::vector<std::string> fresh = freshAnswers();
    std::vector<std::thread> threads;
    std::vector<std::vector<std::string>> answers(4);
    for (size_t t = 0; t < answers.size(); ++t)
        threads.emplace_back([&, t] {
            // Each thread walks the list from a different start.
            for (size_t k = 0; k < queries_.size(); ++k) {
                size_t i = (k + t * 7) % queries_.size();
                const Query &query = queries_[i];
                answers[t].push_back(fingerprint(
                    query, checkRefinement(*query.src, *query.tgt,
                                           query.options)));
            }
        });
    for (std::thread &thread : threads)
        thread.join();
    for (size_t t = 0; t < answers.size(); ++t)
        for (size_t k = 0; k < queries_.size(); ++k)
            EXPECT_EQ(answers[t][k], fresh[(k + t * 7) % queries_.size()]);
}

TEST_F(WorkspaceSequence, MixesTermDecidedAndBlastedQueries)
{
    // The sequences above exercise both ends of a query: answered in
    // the reused term DAG alone, and bit-blasted through the reused
    // builder and solver.
    unsigned decided = 0, blasted = 0;
    for (const Query &query : queries_) {
        const RefinementResult r =
            checkRefinement(*query.src, *query.tgt, query.options);
        decided += r.work.term_decided;
        blasted += r.work.sat_queries && !r.work.term_decided;
    }
    EXPECT_GE(decided, 20u);
    EXPECT_GE(blasted, 5u);
}

TEST_F(WorkspaceSequence, FailpointMidQueryLeavesNoTrace)
{
    // The encoder throws with the workspace held, after the solver and
    // builder were reset and the source's terms built in the reused
    // term DAG. The claim is released on the way out (a leaked claim
    // asserts on the next query in Debug builds), and the next queries,
    // in order and shuffled, answer as on a fresh workspace. One victim
    // would be decided by terms, the other blasted.
    const std::vector<std::string> fresh = freshAnswers();
    std::vector<size_t> victims;
    for (size_t i = 0; i < queries_.size() && victims.size() < 2; ++i) {
        const Query &query = queries_[i];
        const bool decided =
            checkRefinement(*query.src, *query.tgt, query.options)
                .work.term_decided;
        if (decided == victims.empty())
            victims.push_back(i);
    }
    ASSERT_EQ(victims.size(), 2u);
    std::vector<size_t> order(queries_.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::mt19937 shuffle_rng(11);
    for (size_t v : victims) {
        ASSERT_TRUE(
            FailPoints::instance().configure("bitblast.throw=nth:2"));
        const Query &victim = queries_[v];
        EXPECT_THROW(checkRefinement(*victim.src, *victim.tgt,
                                     victim.options),
                     FailPointError)
            << victim.name;
        FailPoints::instance().clear();
        for (size_t i : order) {
            const Query &query = queries_[i];
            EXPECT_EQ(fingerprint(query, checkRefinement(*query.src,
                                                         *query.tgt,
                                                         query.options)),
                      fresh[i]);
        }
        std::shuffle(order.begin(), order.end(), shuffle_rng);
    }
}

namespace {

/** A random 3-CNF over @p vars variables, added to @p solver. */
void
addRandomFormula(SatSolver &solver, uint64_t seed, int vars, int clauses)
{
    Rng rng(seed);
    for (int v = 0; v < vars; ++v)
        solver.newVar();
    for (int c = 0; c < clauses; ++c) {
        Lit lits[3];
        for (Lit &lit : lits) {
            lit = static_cast<Lit>(rng.nextBelow(vars)) + 1;
            if (rng.chance(0.5))
                lit = -lit;
        }
        solver.addTernary(lits[0], lits[1], lits[2]);
    }
}

/** Pigeonhole PHP(n+1, n): unsat, and hard enough to learn a lot. */
void
addPigeonhole(SatSolver &solver, int holes)
{
    const int pigeons = holes + 1;
    std::vector<std::vector<int>> var(pigeons, std::vector<int>(holes));
    for (auto &row : var)
        for (int &v : row)
            v = solver.newVar();
    for (const auto &row : var)
        solver.addClause(row);
    for (int h = 0; h < holes; ++h)
        for (int i = 0; i < pigeons; ++i)
            for (int j = i + 1; j < pigeons; ++j)
                solver.addBinary(-var[i][h], -var[j][h]);
}

/** The full observable outcome of solving @p solver. */
std::string
solveTrace(SatSolver &solver, uint64_t budget = 0)
{
    SatResult result = solver.solve(budget);
    std::string out = std::to_string(static_cast<int>(result));
    for (uint64_t counter :
         {solver.decisions(), solver.conflicts(), solver.propagations(),
          solver.restarts(), solver.clausesAdded(),
          solver.learntsRemoved()})
        out += " " + std::to_string(counter);
    if (result == SatResult::Sat) {
        out += " model=";
        for (int v = 1; v <= solver.numVars(); ++v)
            out += solver.modelValue(v) ? '1' : '0';
    }
    return out;
}

std::string
freshRandomTrace(uint64_t seed)
{
    SatSolver fresh;
    addRandomFormula(fresh, seed, 60, 255);
    return solveTrace(fresh);
}

} // namespace

TEST(SatReset, FromEveryEndStateAnswersAsFresh)
{
    std::atomic<bool> raised{true};
    // Each setup leaves the solver in one state a query can end in.
    const std::vector<std::pair<const char *, void (*)(SatSolver &)>>
        setups = {
            {"latched unsat",
             [](SatSolver &s) {
                 int a = s.newVar();
                 s.addUnit(a);
                 s.addUnit(-a);
                 EXPECT_EQ(s.solve(), SatResult::Unsat);
             }},
            {"empty clause",
             [](SatSolver &s) {
                 s.addEmptyClause();
                 EXPECT_EQ(s.solve(), SatResult::Unsat);
             }},
            {"exhausted budget",
             [](SatSolver &s) {
                 addPigeonhole(s, 6);
                 EXPECT_EQ(s.solve(5), SatResult::Unknown);
             }},
            {"sat with model",
             [](SatSolver &s) {
                 addRandomFormula(s, 3, 40, 100);
                 EXPECT_EQ(s.solve(), SatResult::Sat);
             }},
            {"reduced learnts",
             [](SatSolver &s) {
                 s.setReduceLimit(10);
                 s.setRestartUnit(4);
                 addPigeonhole(s, 6);
                 EXPECT_EQ(s.solve(), SatResult::Unsat);
                 EXPECT_GT(s.learntsRemoved(), 0u);
             }},
        };
    for (const auto &[name, setup] : setups) {
        for (uint64_t seed : {11u, 12u, 13u}) {
            SatSolver reused;
            setup(reused);
            reused.reset();
            addRandomFormula(reused, seed, 60, 255);
            EXPECT_EQ(solveTrace(reused), freshRandomTrace(seed))
                << "after: " << name << ", seed " << seed;
        }
    }

    // A raised interrupt is forgotten too: the reused solver runs to
    // completion like a fresh one.
    SatSolver interrupted;
    interrupted.setInterrupt(&raised);
    addPigeonhole(interrupted, 6);
    EXPECT_EQ(interrupted.solve(), SatResult::Unknown);
    interrupted.reset();
    addRandomFormula(interrupted, 11, 60, 255);
    EXPECT_EQ(solveTrace(interrupted), freshRandomTrace(11));

    // Settings return to their defaults: a solver reset after
    // setReduceLimit/setRestartUnit searches a hard instance exactly
    // as a fresh one does.
    SatSolver tuned;
    tuned.setReduceLimit(10);
    tuned.setRestartUnit(4);
    tuned.reset();
    addPigeonhole(tuned, 6);
    SatSolver fresh;
    addPigeonhole(fresh, 6);
    EXPECT_EQ(solveTrace(tuned), solveTrace(fresh));
}

TEST(SatReset, ReducedSolverReplaysItsOwnSearch)
{
    // Reset after a search that reduced its learnt database, then the
    // same instance under the same settings: the same trajectory.
    SatSolver solver;
    solver.setReduceLimit(10);
    solver.setRestartUnit(4);
    addPigeonhole(solver, 6);
    const std::string first = solveTrace(solver);
    EXPECT_GT(solver.learntsRemoved(), 0u);
    solver.reset();
    solver.setReduceLimit(10);
    solver.setRestartUnit(4);
    addPigeonhole(solver, 6);
    EXPECT_EQ(solveTrace(solver), first);
}

TEST(CircuitReset, BuilderAndSolverResetBuildTheFreshCircuit)
{
    // The same circuit on a reused pair and on a fresh pair: the same
    // nodes, table counters, CNF and model.
    auto build = [](CircuitBuilder &builder, unsigned width) {
        // x * y == 12 with x < y: satisfiable, with a model to compare.
        BitVec x = builder.freshBV(width);
        BitVec y = builder.freshBV(width);
        BitVec twelve = CircuitBuilder::constBV(APInt(width, 12));
        builder.require(builder.bvEq(builder.bvMul(x, y), twelve));
        builder.require(builder.bvULt(x, y));
    };
    auto describe = [](CircuitBuilder &builder) {
        SatSolver &solver = builder.solver();
        std::string out = std::to_string(builder.numNodes());
        for (uint64_t counter :
             {builder.uniqueTableHits(), builder.uniqueTableSize(),
              solver.clausesAdded()})
            out += " " + std::to_string(counter);
        return out + " " + solveTrace(solver);
    };

    SatSolver solver;
    CircuitBuilder builder(solver);
    build(builder, 12); // a larger circuit first, so tables have grown
    describe(builder);
    for (unsigned width : {5u, 6u}) {
        solver.reset();
        builder.reset();
        build(builder, width);
        SatSolver fresh_solver;
        CircuitBuilder fresh(fresh_solver);
        build(fresh, width);
        EXPECT_EQ(describe(builder), describe(fresh)) << "width " << width;
    }
}
