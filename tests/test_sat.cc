// CDCL SAT solver tests: unit cases plus a randomized property sweep
// against brute-force enumeration.

#include <gtest/gtest.h>

#include <cstdlib>

#include "smt/sat.h"
#include "support/rng.h"

using namespace lpo::smt;
using lpo::Rng;

TEST(SatTest, TrivialSatAndUnsat)
{
    SatSolver sat;
    int a = sat.newVar();
    EXPECT_TRUE(sat.addUnit(a));
    EXPECT_EQ(sat.solve(), SatResult::Sat);
    EXPECT_TRUE(sat.modelValue(a));

    SatSolver unsat;
    int b = unsat.newVar();
    unsat.addUnit(b);
    EXPECT_FALSE(unsat.addUnit(-b));
    EXPECT_EQ(unsat.solve(), SatResult::Unsat);
}

TEST(SatTest, PropagationChain)
{
    SatSolver s;
    int a = s.newVar(), b = s.newVar(), c = s.newVar();
    s.addUnit(a);
    s.addBinary(-a, b);  // a -> b
    s.addBinary(-b, c);  // b -> c
    EXPECT_EQ(s.solve(), SatResult::Sat);
    EXPECT_TRUE(s.modelValue(b));
    EXPECT_TRUE(s.modelValue(c));
}

TEST(SatTest, RequiresConflictAnalysis)
{
    // Pigeonhole PHP(3,2): 3 pigeons, 2 holes — unsat, needs learning.
    SatSolver s;
    int var[3][2];
    for (auto &row : var)
        for (int &v : row)
            v = s.newVar();
    for (auto &row : var)
        s.addBinary(row[0], row[1]); // each pigeon in some hole
    for (int hole = 0; hole < 2; ++hole)
        for (int i = 0; i < 3; ++i)
            for (int j = i + 1; j < 3; ++j)
                s.addBinary(-var[i][hole], -var[j][hole]);
    EXPECT_EQ(s.solve(), SatResult::Unsat);
    EXPECT_GT(s.conflicts(), 0u);
}

TEST(SatTest, ConflictBudgetGivesUnknown)
{
    // PHP(7,6) is hard enough to exceed a 5-conflict budget.
    SatSolver s;
    const int pigeons = 7, holes = 6;
    std::vector<std::vector<int>> var(pigeons, std::vector<int>(holes));
    for (auto &row : var)
        for (int &v : row)
            v = s.newVar();
    for (auto &row : var) {
        std::vector<Lit> clause(row.begin(), row.end());
        s.addClause(clause);
    }
    for (int hole = 0; hole < holes; ++hole)
        for (int i = 0; i < pigeons; ++i)
            for (int j = i + 1; j < pigeons; ++j)
                s.addBinary(-var[i][hole], -var[j][hole]);
    EXPECT_EQ(s.solve(5), SatResult::Unknown);
}

TEST(SatTest, DuplicateAndTautologyClauses)
{
    SatSolver s;
    int a = s.newVar(), b = s.newVar();
    EXPECT_TRUE(s.addClause({a, a, b}));   // duplicate literal
    EXPECT_TRUE(s.addClause({a, -a}));     // tautology
    EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(SatTest, SolverStaysUsableAfterSatAnswers)
{
    // Model snapshots survive the return to level 0, and clauses can
    // keep arriving between solves.
    SatSolver s;
    int x = s.newVar(), y = s.newVar();
    ASSERT_TRUE(s.addBinary(x, y));
    ASSERT_EQ(s.solve(), SatResult::Sat);
    EXPECT_TRUE(s.modelValue(x) || s.modelValue(y));
    ASSERT_TRUE(s.addUnit(-x));
    ASSERT_EQ(s.solve(), SatResult::Sat);
    EXPECT_FALSE(s.modelValue(x));
    EXPECT_TRUE(s.modelValue(y));
}

TEST(SatTest, FormulaUnsatLatches)
{
    SatSolver s;
    int x = s.newVar(), y = s.newVar();
    ASSERT_TRUE(s.addUnit(x));
    ASSERT_TRUE(s.addBinary(-y, x)); // redundant
    EXPECT_FALSE(s.inconsistent());
    EXPECT_FALSE(s.addUnit(-x));
    EXPECT_TRUE(s.inconsistent());
    EXPECT_EQ(s.solve(), SatResult::Unsat);
    // Latched: later clauses are refused and every later solve
    // answers Unsat without searching.
    EXPECT_FALSE(s.addUnit(y));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
    EXPECT_TRUE(s.inconsistent());
}

TEST(SatTest, LearntDatabaseReductionKeepsAnswersCorrect)
{
    // PHP(7,6) is unsat and conflict-heavy enough to restart several
    // times; forcing a tiny reduce limit makes every restart shed
    // learnt clauses, and the final answer must not change.
    SatSolver s;
    s.setReduceLimit(8);
    const int pigeons = 7, holes = 6;
    std::vector<std::vector<int>> var(pigeons, std::vector<int>(holes));
    for (auto &row : var)
        for (int &v : row)
            v = s.newVar();
    for (auto &row : var)
        s.addClause(std::vector<Lit>(row.begin(), row.end()));
    for (int hole = 0; hole < holes; ++hole)
        for (int i = 0; i < pigeons; ++i)
            for (int j = i + 1; j < pigeons; ++j)
                s.addBinary(-var[i][hole], -var[j][hole]);
    EXPECT_EQ(s.solve(), SatResult::Unsat);
    EXPECT_GT(s.learntsRemoved(), 0u)
        << "reduction never triggered; the test lost its purpose";
}

TEST(SatTest, ReductionOnSatisfiableInstanceKeepsModelValid)
{
    // Random-ish structured SAT instance solved under aggressive
    // reduction: the model must still satisfy every original clause.
    Rng rng(0xBEEF);
    SatSolver s;
    s.setReduceLimit(4);
    const int nv = 60;
    for (int v = 0; v < nv; ++v)
        s.newVar();
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < 220; ++c) {
        std::vector<Lit> clause;
        for (int l = 0; l < 3; ++l) {
            int v = 1 + static_cast<int>(rng.nextBelow(nv));
            clause.push_back(rng.chance(0.5) ? v : -v);
        }
        // Make the instance satisfiable by construction: force each
        // clause to contain at least one literal true under the
        // all-true assignment.
        clause[0] = std::abs(clause[0]);
        clauses.push_back(clause);
        s.addClause(clause);
    }
    ASSERT_EQ(s.solve(), SatResult::Sat);
    for (const auto &clause : clauses) {
        bool hit = false;
        for (Lit lit : clause)
            hit |= (lit > 0) == s.modelValue(std::abs(lit));
        EXPECT_TRUE(hit) << "model violates an original clause";
    }
}

TEST(SatTest, LubyRestartsAreCountedAndDeterministic)
{
    // PHP(7,6) generates far more than restart_unit conflicts, so a
    // tiny unit forces many Luby restarts; the answer must not change
    // and two identical solvers must take the identical path.
    auto build = [](SatSolver &s) {
        const int pigeons = 7, holes = 6;
        std::vector<std::vector<int>> var(pigeons,
                                          std::vector<int>(holes));
        for (auto &row : var)
            for (int &v : row)
                v = s.newVar();
        for (auto &row : var)
            s.addClause(std::vector<Lit>(row.begin(), row.end()));
        for (int hole = 0; hole < holes; ++hole)
            for (int i = 0; i < pigeons; ++i)
                for (int j = i + 1; j < pigeons; ++j)
                    s.addBinary(-var[i][hole], -var[j][hole]);
    };
    SatSolver a, b;
    a.setRestartUnit(4);
    b.setRestartUnit(4);
    build(a);
    build(b);
    EXPECT_EQ(a.solve(), SatResult::Unsat);
    EXPECT_GT(a.restarts(), 2u) << "Luby schedule never fired";
    EXPECT_EQ(b.solve(), SatResult::Unsat);
    EXPECT_EQ(a.restarts(), b.restarts());
    EXPECT_EQ(a.conflicts(), b.conflicts());
    EXPECT_EQ(a.decisions(), b.decisions());
    EXPECT_EQ(a.propagations(), b.propagations());
}

class SatFuzzProperty : public testing::TestWithParam<int>
{
};

TEST_P(SatFuzzProperty, AgreesWithBruteForce)
{
    Rng rng(GetParam() * 7919 + 13);
    for (int iter = 0; iter < 400; ++iter) {
        int nv = 3 + rng.nextBelow(8);
        int nc = 3 + rng.nextBelow(26);
        std::vector<std::vector<Lit>> clauses;
        for (int c = 0; c < nc; ++c) {
            int len = 1 + rng.nextBelow(3);
            std::vector<Lit> clause;
            for (int l = 0; l < len; ++l) {
                int v = 1 + rng.nextBelow(nv);
                clause.push_back(rng.chance(0.5) ? v : -v);
            }
            clauses.push_back(clause);
        }
        bool brute_sat = false;
        for (uint32_t m = 0; m < (1u << nv) && !brute_sat; ++m) {
            bool ok = true;
            for (const auto &clause : clauses) {
                bool hit = false;
                for (Lit lit : clause) {
                    bool val = (m >> (std::abs(lit) - 1)) & 1;
                    if ((lit > 0) == val) {
                        hit = true;
                        break;
                    }
                }
                if (!hit) {
                    ok = false;
                    break;
                }
            }
            brute_sat = ok;
        }
        SatSolver solver;
        for (int v = 0; v < nv; ++v)
            solver.newVar();
        bool consistent = true;
        for (const auto &clause : clauses)
            consistent = consistent && solver.addClause(clause);
        SatResult result =
            consistent ? solver.solve() : SatResult::Unsat;
        ASSERT_EQ(result == SatResult::Sat, brute_sat)
            << "iteration " << iter;
        if (result == SatResult::Sat) {
            for (const auto &clause : clauses) {
                bool hit = false;
                for (Lit lit : clause)
                    hit |= (lit > 0) == solver.modelValue(std::abs(lit));
                ASSERT_TRUE(hit) << "model violates clause";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatFuzzProperty,
                         testing::Values(1, 2, 3, 4, 5));
