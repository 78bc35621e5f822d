// Hashing in the circuit builder (smt/bitblast.cc) and the encoder's
// demanded width (verify/encoder.cc).
//
//  - Soundness: seeded random and/or/xor/mux circuits over at most 12
//    inputs, rich in repeated gates the unique table answers and in
//    equalities of different structure it leaves apart. Every
//    literal the builder returns must agree, on every input, with a
//    plain recursive evaluator of the expression it was built from.
//  - Firing: shapes that would need SAT search or a full multiplier
//    prove with zero conflicts, a miter that folds while it is built
//    emits nothing, and a query reports the builder's work in
//    VerifyWork.
//
// The demanded-width rules are checked exhaustively against ExecPlan
// with the other encoder rules in tests/test_word_rules.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ir/parser.h"
#include "smt/bitblast.h"
#include "smt/sat.h"
#include "support/rng.h"
#include "verify/encoder.h"
#include "verify/refine.h"

using namespace lpo;
using smt::CircuitBuilder;
using smt::CLit;

namespace {

/** One node of a random expression DAG; operands index earlier nodes. */
struct Expr
{
    enum Kind { Input, Not, And, Or, Xor, Mux } kind;
    int a = 0, b = 0, c = 0;
};

/** The value of every node under @p assignment (bit i = input i). */
std::vector<bool>
evaluate(const std::vector<Expr> &exprs, uint64_t assignment)
{
    std::vector<bool> v(exprs.size());
    for (size_t i = 0, input = 0; i < exprs.size(); ++i) {
        const Expr &e = exprs[i];
        switch (e.kind) {
          case Expr::Input: v[i] = (assignment >> input++) & 1; break;
          case Expr::Not: v[i] = !v[e.a]; break;
          case Expr::And: v[i] = v[e.a] && v[e.b]; break;
          case Expr::Or: v[i] = v[e.a] || v[e.b]; break;
          case Expr::Xor: v[i] = v[e.a] != v[e.b]; break;
          case Expr::Mux: v[i] = v[e.a] ? v[e.b] : v[e.c]; break;
        }
    }
    return v;
}

/**
 * A random DAG over @p inputs inputs. Besides random gates it builds
 * identities in roundabout forms ((x & y) | (x & !y) = x,
 * (x | y) ^ (x & y) = x ^ y, ...) over random operands, after or
 * before their plain forms, and near misses of them, so that the
 * builder meets repeated gates, gates its canonical forms fold, and
 * equal functions of different structure.
 */
std::vector<Expr>
randomCircuit(Rng &rng, unsigned inputs, unsigned gates)
{
    std::vector<Expr> exprs;
    for (unsigned i = 0; i < inputs; ++i)
        exprs.push_back({Expr::Input});
    auto pick = [&] {
        // Favour recent nodes so that cones grow deep.
        size_t n = exprs.size();
        size_t recent = std::min<size_t>(n, 8);
        return static_cast<int>(rng.nextBelow(2)
                                    ? n - 1 - rng.nextBelow(recent)
                                    : rng.nextBelow(n));
    };
    auto add = [&](Expr e) {
        exprs.push_back(e);
        return static_cast<int>(exprs.size() - 1);
    };
    while (exprs.size() < inputs + gates) {
        int x = pick(), y = pick(), z = pick();
        switch (rng.nextBelow(10)) {
          case 0: add({Expr::Not, x}); break;
          case 1: add({Expr::And, x, y}); break;
          case 2: add({Expr::Or, x, y}); break;
          case 3: add({Expr::Xor, x, y}); break;
          case 4: add({Expr::Mux, x, y, z}); break;
          case 5: { // (x & y) | (x & !y) = x
            int ny = add({Expr::Not, y});
            add({Expr::Or, add({Expr::And, x, y}), add({Expr::And, x, ny})});
            break;
          }
          case 6: // (x | y) ^ (x & y) = x ^ y
            if (rng.nextBelow(2))
                add({Expr::Xor, x, y});
            add({Expr::Xor, add({Expr::Or, x, y}), add({Expr::And, x, y})});
            break;
          case 7: // (x ^ y) ^ (y ^ z) = x ^ z; near miss: ^ (z ^ y ^ x)
            if (rng.nextBelow(2))
                add({Expr::Xor, x, z});
            add({Expr::Xor, add({Expr::Xor, x, y}), add({Expr::Xor, y, z})});
            add({Expr::Xor, add({Expr::Xor, x, y}),
                 add({Expr::Xor, add({Expr::Xor, z, y}), x})});
            break;
          case 8: // x & !(x & y) & y = false; the near miss drops !
            add({Expr::And, add({Expr::And, x, add({Expr::Not,
                                                  add({Expr::And, x, y})})}),
                 y});
            add({Expr::And, add({Expr::And, x, add({Expr::And, x, y})}), z});
            break;
          case 9: // mux(s, x & s, x) = x; near miss: mux(s, x & z, x)
            add({Expr::Mux, z, add({Expr::And, x, z}), x});
            add({Expr::Mux, z, add({Expr::And, x, y}), x});
            break;
        }
    }
    return exprs;
}

TEST(CircuitHashing, RandomCircuitsMatchReferenceEvaluator)
{
    uint64_t hits = 0;
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed * 7919);
        const unsigned inputs = 3 + seed % 10; // 3..12
        std::vector<Expr> exprs = randomCircuit(rng, inputs, 160);

        smt::SatSolver sat;
        CircuitBuilder cb(sat);
        std::vector<CLit> lits;
        for (const Expr &e : exprs) {
            switch (e.kind) {
              case Expr::Input: lits.push_back(cb.freshLit()); break;
              case Expr::Not: lits.push_back(-lits[e.a]); break;
              case Expr::And:
                lits.push_back(cb.andGate(lits[e.a], lits[e.b]));
                break;
              case Expr::Or:
                lits.push_back(cb.orGate(lits[e.a], lits[e.b]));
                break;
              case Expr::Xor:
                lits.push_back(cb.xorGate(lits[e.a], lits[e.b]));
                break;
              case Expr::Mux:
                lits.push_back(cb.muxGate(lits[e.a], lits[e.b], lits[e.c]));
                break;
            }
        }
        hits += cb.uniqueTableHits();

        // Fix the inputs by unit clauses and read every node back from
        // the model: the clauses define each literal's function.
        cb.emit();
        smt::SatSolver fixed;
        size_t mismatches = 0;
        for (uint64_t assignment = 0; assignment < (uint64_t(1) << inputs);
             ++assignment) {
            fixed = sat;
            for (unsigned i = 0; i < inputs; ++i)
                fixed.addUnit(((assignment >> i) & 1) ? lits[i] : -lits[i]);
            ASSERT_EQ(fixed.solve(), smt::SatResult::Sat);
            CircuitBuilder model(fixed);
            std::vector<bool> want = evaluate(exprs, assignment);
            for (size_t i = 0; i < exprs.size() && mismatches < 4; ++i) {
                if (model.modelLit(lits[i]) == want[i])
                    continue;
                ++mismatches;
                ADD_FAILURE() << "seed " << seed << ", node " << i
                              << ", assignment " << assignment
                              << ": builder " << int(!want[i])
                              << ", reference " << int(want[i]);
            }
        }
    }
    // The generator must exercise the unique table.
    EXPECT_GT(hits, 0u);
}

std::string
atWidth(const std::string &shape, unsigned width)
{
    std::string out;
    for (char ch : shape)
        out += ch == 'T' ? "i" + std::to_string(width) : std::string(1, ch);
    return out;
}

struct Query
{
    uint64_t conflicts;
    int nodes; ///< circuit builder variables
    smt::SatResult result;
};

Query
solveQuery(const std::string &src, const std::string &tgt)
{
    ir::Context ctx;
    auto s = ir::parseFunction(ctx, src);
    auto t = ir::parseFunction(ctx, tgt);
    EXPECT_TRUE(s.ok() && t.ok()) << src << tgt;
    if (!s.ok() || !t.ok())
        return {0, 0, smt::SatResult::Unknown};
    smt::SatSolver sat;
    CircuitBuilder cb(sat);
    EXPECT_NE(verify::encodeRefinementQuery(cb, **s, **t),
              verify::QueryEncoding::Unencodable);
    smt::SatResult result = sat.solve();
    return {sat.conflicts(), cb.numNodes(), result};
}

const char *kAddAndOrSrc = "define T @src(T %x, T %y) {\n"
                           "  %a = and T %x, %y\n"
                           "  %o = or T %x, %y\n"
                           "  %r = add T %a, %o\n"
                           "  ret T %r\n}\n";
const char *kAddAndOrTgt = "define T @tgt(T %x, T %y) {\n"
                           "  %r = add T %x, %y\n"
                           "  ret T %r\n}\n";

TEST(CircuitHashing, AddAndOrProvesWithoutSearch)
{
    for (unsigned width : {16u, 32u, 64u}) {
        Query q = solveQuery(atWidth(kAddAndOrSrc, width),
                             atWidth(kAddAndOrTgt, width));
        EXPECT_EQ(q.result, smt::SatResult::Unsat) << "i" << width;
        EXPECT_EQ(q.conflicts, 0u) << "i" << width;
    }
}

// Adding the sign bit flips it: the terms leave the pair apart, and
// the builder folds its adder against the constant to the xor's gates
// (corpus query 163110).
const char *kAddSignBitSrc = "define i64 @src(i64 %x) {\n"
                             "  %r = add i64 %x, -9223372036854775808\n"
                             "  ret i64 %r\n}\n";
const char *kXorSignBitTgt = "define i64 @tgt(i64 %x) {\n"
                             "  %r = xor i64 %x, -9223372036854775808\n"
                             "  ret i64 %r\n}\n";

TEST(CircuitHashing, FoldedMiterEmitsNothing)
{
    // Structural hashing folds this miter to false while building it,
    // so the solver gets one empty clause and none of the circuit.
    ir::Context ctx;
    auto s = ir::parseFunction(ctx, kAddSignBitSrc);
    auto t = ir::parseFunction(ctx, kXorSignBitTgt);
    ASSERT_TRUE(s.ok() && t.ok());
    smt::SatSolver sat;
    CircuitBuilder cb(sat);
    ASSERT_EQ(verify::encodeRefinementQuery(cb, **s, **t),
              verify::QueryEncoding::Blasted);
    EXPECT_EQ(cb.numNodes(), 64);
    EXPECT_EQ(cb.numEmitted(), 0);
    EXPECT_EQ(sat.numVars(), 0);
    EXPECT_EQ(sat.clausesAdded(), 1u);
    EXPECT_EQ(sat.solve(), smt::SatResult::Unsat);
    EXPECT_EQ(sat.propagations(), 0u);
}

TEST(CircuitHashing, TrueMiterEmitsTheArguments)
{
    // Every input violates refinement, so the miter folds to true and
    // constrains nothing; the counterexample is still read from the
    // arguments, so they must reach the solver.
    ir::Context ctx;
    auto s = ir::parseFunction(ctx, "define i8 @src(i8 %x) {\n"
                                    "  ret i8 1\n}\n");
    auto t = ir::parseFunction(ctx, "define i8 @tgt(i8 %x) {\n"
                                    "  ret i8 2\n}\n");
    ASSERT_TRUE(s.ok() && t.ok());
    smt::SatSolver sat;
    CircuitBuilder cb(sat);
    std::vector<verify::ValueEnc> args;
    ASSERT_EQ(verify::encodeRefinementQuery(cb, **s, **t, &args),
              verify::QueryEncoding::Blasted);
    EXPECT_EQ(cb.numNodes(), 8);
    EXPECT_EQ(cb.numEmitted(), 8);
    ASSERT_EQ(sat.solve(), smt::SatResult::Sat);
    EXPECT_EQ(cb.modelBV(args[0][0].bits).zext(), 0u);
}

TEST(CircuitHashing, SquareParityBuildsOneBit)
{
    // (x * x) & 1 reads bit 0 of the product, which is x0 & x0: the
    // demanded width builds no 64x64 multiplier.
    Query q = solveQuery(atWidth("define T @src(T %x) {\n"
                                 "  %m = mul T %x, %x\n"
                                 "  %r = and T %m, 1\n"
                                 "  ret T %r\n}\n",
                                 64),
                         atWidth("define T @tgt(T %x) {\n"
                                 "  %r = and T %x, 1\n"
                                 "  ret T %r\n}\n",
                                 64));
    EXPECT_EQ(q.result, smt::SatResult::Unsat);
    EXPECT_EQ(q.conflicts, 0u);
    EXPECT_LT(q.nodes, 200);
}

TEST(CircuitHashing, VerifyWorkReportsTheBuilder)
{
    ir::Context ctx;
    auto s = ir::parseFunction(ctx, kAddSignBitSrc);
    auto t = ir::parseFunction(ctx, kXorSignBitTgt);
    ASSERT_TRUE(s.ok() && t.ok());
    verify::RefinementResult r = verify::checkRefinement(**s, **t);
    EXPECT_EQ(r.verdict, verify::Verdict::Correct);
    EXPECT_EQ(r.backend, "sat");
    EXPECT_EQ(r.work.conflicts, 0u);
    EXPECT_EQ(r.work.sat_queries, 1u);
    EXPECT_EQ(r.work.term_decided, 0u);
    EXPECT_EQ(r.work.circuit_nodes, 64u);
    EXPECT_EQ(r.work.circuit_emitted, 0u);
}

} // namespace
