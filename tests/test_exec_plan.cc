// ExecPlan engine tests: a differential suite pinning the pre-compiled
// engine against the legacy tree-walking interpreter over the full
// benchmark corpus (values, poison lanes, UB, memory), plus the
// deterministic-parallelism contract of the verification sweep and the
// pipeline (num_threads=1 and num_threads=8 must agree bit-for-bit),
// including sweeps whose only violation sits in the last chunk and a
// 0-bit input space.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/pipeline.h"
#include "corpus/benchmarks.h"
#include "corpus/generator.h"
#include "extract/extractor.h"
#include "interp/exec_plan.h"
#include "interp/interp.h"
#include "ir/parser.h"
#include "llm/mock_model.h"
#include "support/rng.h"
#include "verify/refine.h"

using namespace lpo;
using namespace lpo::interp;

namespace {

unsigned
laneCountOf(const ir::Type *type)
{
    return type->isVector() ? type->lanes() : 1;
}

/** Total integer input bits, or UINT_MAX when not enumerable. */
unsigned
inputBits(const ir::Function &fn)
{
    unsigned bits = 0;
    for (const auto &arg : fn.args()) {
        const ir::Type *type = arg->type();
        if (type->isPtr() || type->scalarType()->isFloat())
            return std::numeric_limits<unsigned>::max();
        bits += laneCountOf(type) * type->scalarType()->intWidth();
    }
    return bits;
}

/** Decode @p index over the integer input space (refine.cc layout). */
ExecutionInput
exhaustiveInput(const ir::Function &fn, uint64_t index)
{
    ExecutionInput input;
    for (const auto &arg : fn.args()) {
        const ir::Type *type = arg->type();
        unsigned lanes = laneCountOf(type);
        unsigned width = type->scalarType()->intWidth();
        RtValue value;
        for (unsigned lane = 0; lane < lanes; ++lane) {
            uint64_t mask = width == 64 ? ~uint64_t(0)
                                        : ((uint64_t(1) << width) - 1);
            value.lanes.push_back(
                LaneValue::ofInt(APInt(width, index & mask)));
            index >>= width;
        }
        input.args.push_back(value);
    }
    return input;
}

/** Random input for any signature (ints, doubles, vectors, pointers). */
ExecutionInput
randomInput(const ir::Function &fn, Rng &rng)
{
    ExecutionInput input;
    for (const auto &arg : fn.args()) {
        const ir::Type *type = arg->type();
        if (type->isPtr()) {
            int object_id = static_cast<int>(input.memory.size());
            MemoryObject object;
            object.bytes.resize(64);
            for (uint8_t &byte : object.bytes)
                byte = static_cast<uint8_t>(rng.next());
            input.memory.push_back(std::move(object));
            input.args.push_back(RtValue{{LaneValue::ofPtr(object_id, 0)}});
            continue;
        }
        unsigned lanes = laneCountOf(type);
        RtValue value;
        for (unsigned lane = 0; lane < lanes; ++lane) {
            if (type->scalarType()->isFloat()) {
                double d;
                switch (rng.nextBelow(4)) {
                  case 0: d = std::numeric_limits<double>::quiet_NaN(); break;
                  case 1: d = -0.0; break;
                  default: d = (rng.nextDouble() - 0.5) * 512.0;
                }
                value.lanes.push_back(LaneValue::ofFP(d));
            } else {
                unsigned width = type->scalarType()->intWidth();
                value.lanes.push_back(
                    LaneValue::ofInt(APInt(width, rng.next())));
            }
        }
        input.args.push_back(value);
    }
    return input;
}

void
expectSameResult(const ExecutionResult &legacy, const ExecutionResult &plan,
                 const std::string &context)
{
    ASSERT_EQ(legacy.ub, plan.ub) << context;
    if (legacy.ub) {
        EXPECT_EQ(legacy.ub_reason, plan.ub_reason) << context;
        return;
    }
    ASSERT_EQ(legacy.ret.has_value(), plan.ret.has_value()) << context;
    if (legacy.ret) {
        ASSERT_EQ(legacy.ret->lanes.size(), plan.ret->lanes.size())
            << context;
        for (size_t i = 0; i < legacy.ret->lanes.size(); ++i) {
            const LaneValue &a = legacy.ret->lanes[i];
            const LaneValue &b = plan.ret->lanes[i];
            ASSERT_EQ(a.poison, b.poison) << context << " lane " << i;
            if (a.poison)
                continue;
            ASSERT_EQ(a.is_fp, b.is_fp) << context << " lane " << i;
            if (a.is_fp) {
                uint64_t ab, bb;
                std::memcpy(&ab, &a.fp, 8);
                std::memcpy(&bb, &b.fp, 8);
                EXPECT_EQ(ab, bb) << context << " lane " << i;
            } else {
                EXPECT_EQ(a.bits.width(), b.bits.width())
                    << context << " lane " << i;
                EXPECT_EQ(a.bits.zext(), b.bits.zext())
                    << context << " lane " << i;
            }
        }
    }
    ASSERT_EQ(legacy.memory.size(), plan.memory.size()) << context;
    for (size_t m = 0; m < legacy.memory.size(); ++m)
        EXPECT_EQ(legacy.memory[m].bytes, plan.memory[m].bytes)
            << context << " object " << m;
}

/** Differential check of one function over its input space. */
void
diffFunction(const ir::Function &fn, const std::string &context)
{
    ExecPlan plan = ExecPlan::compile(fn);
    ExecFrame frame = plan.makeFrame();
    unsigned bits = inputBits(fn);

    if (bits <= 16) {
        ASSERT_TRUE(plan.exhaustiveCapable()) << context;
        EXPECT_EQ(plan.inputBits(), bits) << context;
        uint64_t total = uint64_t(1) << bits;
        // Full sweep for small spaces; deterministic stride otherwise.
        uint64_t step = total <= 4096 ? 1 : total / 4096;
        for (uint64_t index = 0; index < total; index += step) {
            ExecutionResult legacy =
                executeLegacy(fn, exhaustiveInput(fn, index));
            PlanResult r = plan.runExhaustive(frame, index);
            expectSameResult(legacy, plan.materialize(frame, r),
                             context + " @" + std::to_string(index));
            if (testing::Test::HasFatalFailure())
                return;
        }
        return;
    }

    Rng rng(0xD1FF ^ bits);
    for (unsigned i = 0; i < 200; ++i) {
        ExecutionInput input = randomInput(fn, rng);
        ExecutionResult legacy = executeLegacy(fn, input);
        PlanResult r = plan.run(frame, input);
        expectSameResult(legacy, plan.materialize(frame, r),
                         context + " sample " + std::to_string(i));
        if (testing::Test::HasFatalFailure())
            return;
    }
}

void
diffCatalog(const std::vector<corpus::MissedOptBenchmark> &catalog)
{
    for (const auto &bench : catalog) {
        ir::Context ctx;
        auto src = ir::parseFunction(ctx, bench.src_text);
        auto tgt = ir::parseFunction(ctx, bench.tgt_text);
        ASSERT_TRUE(src.ok() && tgt.ok()) << bench.issue_id;
        diffFunction(**src, bench.issue_id + "/src");
        diffFunction(**tgt, bench.issue_id + "/tgt");
        if (testing::Test::HasFatalFailure())
            return;
    }
}

} // namespace

// ---------------------------------------------------------------------
// Differential suite: ExecPlan vs legacy interpreter
// ---------------------------------------------------------------------

TEST(ExecPlanDifferential, Rq1Corpus)
{
    diffCatalog(corpus::rq1Benchmarks());
}

TEST(ExecPlanDifferential, Rq2Corpus)
{
    diffCatalog(corpus::rq2Benchmarks());
}

TEST(ExecPlanDifferential, ControlFlowAndMemory)
{
    // The corpus is straight-line; cover branches, phis (including
    // same-block phi reads), loops, stores, and geps by hand.
    const char *cases[] = {
        // Branchy abs with phi join.
        "define i8 @f(i8 %x) {\n"
        "entry:\n"
        "  %c = icmp slt i8 %x, 0\n"
        "  br i1 %c, label %neg, label %pos\n"
        "neg:\n"
        "  %n = sub i8 0, %x\n"
        "  br label %join\n"
        "pos:\n"
        "  br label %join\n"
        "join:\n"
        "  %r = phi i8 [ %n, %neg ], [ %x, %pos ]\n"
        "  ret i8 %r\n}\n",
        // Loop with two phis, one feeding the other (sequential phi
        // evaluation order matters).
        "define i8 @f(i8 %n) {\n"
        "entry:\n"
        "  br label %body\n"
        "body:\n"
        "  %i = phi i8 [ 0, %entry ], [ %i1, %body ]\n"
        "  %acc = phi i8 [ 0, %entry ], [ %acc1, %body ]\n"
        "  %acc1 = add i8 %acc, %i\n"
        "  %i1 = add i8 %i, 1\n"
        "  %done = icmp uge i8 %i1, %n\n"
        "  br i1 %done, label %exit, label %body\n"
        "exit:\n"
        "  ret i8 %acc1\n}\n",
        // Branch on a possibly-poison condition (UB path).
        "define i8 @f(i8 %x) {\n"
        "entry:\n"
        "  %a = add nsw i8 %x, 1\n"
        "  %c = icmp eq i8 %a, 0\n"
        "  br i1 %c, label %t, label %e\n"
        "t:\n"
        "  br label %e\n"
        "e:\n"
        "  ret i8 %a\n}\n",
        // Four-predecessor phi: more incoming values than the fixed
        // operand arrays of PlanInst hold (regression: phis must be
        // decoded via phi_incoming only).
        "define i8 @f(i8 %x) {\n"
        "entry:\n"
        "  %c1 = icmp ult i8 %x, 64\n"
        "  br i1 %c1, label %a, label %next1\n"
        "next1:\n"
        "  %c2 = icmp ult i8 %x, 128\n"
        "  br i1 %c2, label %b, label %next2\n"
        "next2:\n"
        "  %c3 = icmp ult i8 %x, 192\n"
        "  br i1 %c3, label %c, label %d\n"
        "a:\n"
        "  br label %join\n"
        "b:\n"
        "  br label %join\n"
        "c:\n"
        "  br label %join\n"
        "d:\n"
        "  br label %join\n"
        "join:\n"
        "  %r = phi i8 [ 1, %a ], [ 2, %b ], [ 3, %c ], [ %x, %d ]\n"
        "  ret i8 %r\n}\n",
    };
    for (const char *text : cases) {
        ir::Context ctx;
        auto fn = ir::parseFunction(ctx, text);
        ASSERT_TRUE(fn.ok());
        diffFunction(**fn, "handwritten");
        if (testing::Test::HasFatalFailure())
            return;
    }

    // Store + gep + load round-trip: final memory must agree too.
    ir::Context ctx;
    auto fn = ir::parseFunction(ctx,
        "define i16 @f(ptr %p, i8 %v) {\n"
        "  store i8 %v, ptr %p, align 1\n"
        "  %q = getelementptr inbounds i8, ptr %p, i64 1\n"
        "  %w = load i8, ptr %q, align 1\n"
        "  %a = zext i8 %v to i16\n"
        "  %b = zext i8 %w to i16\n"
        "  %r = add i16 %a, %b\n"
        "  ret i16 %r\n}\n");
    ASSERT_TRUE(fn.ok());
    diffFunction(**fn, "store-gep-load");
}

TEST(ExecPlanDifferential, StepLimitAgrees)
{
    ir::Context ctx;
    auto fn = ir::parseFunction(ctx,
        "define i32 @f() {\n"
        "entry:\n"
        "  br label %spin\n"
        "spin:\n"
        "  br label %spin\n"
        "}\n");
    ASSERT_TRUE(fn.ok());
    ExecutionInput input;
    ExecutionResult legacy = executeLegacy(**fn, input, 1000);
    ExecPlan plan = ExecPlan::compile(**fn, 1000);
    ExecFrame frame = plan.makeFrame();
    PlanResult r = plan.run(frame, input);
    expectSameResult(legacy, plan.materialize(frame, r), "step-limit");
}

TEST(ExecPlanDifferential, FrameIsReusableAcrossRuns)
{
    // Steady-state reuse must not leak state between inputs.
    ir::Context ctx;
    auto fn = ir::parseFunction(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %a = add nsw i8 %x, 1\n"
        "  %f = freeze i8 %a\n"
        "  ret i8 %f\n}\n");
    ASSERT_TRUE(fn.ok());
    ExecPlan plan = ExecPlan::compile(**fn);
    ExecFrame frame = plan.makeFrame();
    // 127 -> poison -> frozen to 0; then 1 -> 2 must not see stale 0.
    PlanResult a = plan.runExhaustive(frame, 127);
    EXPECT_EQ(a.ret[0].bits.zext(), 0u);
    PlanResult b = plan.runExhaustive(frame, 1);
    EXPECT_EQ(b.ret[0].bits.zext(), 2u);
    PlanResult c = plan.runExhaustive(frame, 127);
    EXPECT_EQ(c.ret[0].bits.zext(), 0u);
}

TEST(ExecPlanDifferential, NswOverflowAtWidth64IsPoison)
{
    // i64 add/sub nsw overflow must be poison, in both engines.
    ir::Context ctx;
    auto fn = ir::parseFunction(ctx,
        "define i64 @f(i64 %x, i64 %y) {\n"
        "  %a = add nsw i64 %x, %y\n"
        "  %s = sub nsw i64 %a, %y\n"
        "  ret i64 %s\n}\n");
    ASSERT_TRUE(fn.ok());
    ExecPlan plan = ExecPlan::compile(**fn);
    ExecFrame frame = plan.makeFrame();
    auto run = [&](int64_t x, int64_t y) {
        ExecutionInput input;
        input.args.push_back(
            RtValue{{LaneValue::ofInt(APInt::fromSigned(64, x))}});
        input.args.push_back(
            RtValue{{LaneValue::ofInt(APInt::fromSigned(64, y))}});
        ExecutionResult legacy = executeLegacy(**fn, input);
        ExecutionResult planned =
            plan.materialize(frame, plan.run(frame, input));
        expectSameResult(legacy, planned, "nsw i64");
        return planned;
    };
    const int64_t max = std::numeric_limits<int64_t>::max();
    const int64_t min = std::numeric_limits<int64_t>::min();
    // add nsw i64 INT64_MAX, 1 overflows.
    ExecutionResult r = run(max, 1);
    ASSERT_TRUE(r.ret.has_value());
    EXPECT_TRUE(r.ret->lanes[0].poison);
    // add nsw i64 INT64_MIN, -1 overflows.
    r = run(min, -1);
    ASSERT_TRUE(r.ret.has_value());
    EXPECT_TRUE(r.ret->lanes[0].poison);
    // In range both ways: x + y - y == x, not poison.
    r = run(max, -1);
    ASSERT_TRUE(r.ret.has_value());
    EXPECT_FALSE(r.ret->lanes[0].poison);
    EXPECT_EQ(r.ret->lanes[0].bits.sext(), max);
}

// ---------------------------------------------------------------------
// Deterministic parallelism
// ---------------------------------------------------------------------

namespace {

verify::RefinementResult
checkWithThreads(const std::string &src_text, const std::string &tgt_text,
                 unsigned num_threads, verify::RefineOptions options = {})
{
    ir::Context ctx;
    auto src = ir::parseFunction(ctx, src_text);
    auto tgt = ir::parseFunction(ctx, tgt_text);
    EXPECT_TRUE(src.ok() && tgt.ok());
    options.num_threads = num_threads;
    return verify::checkRefinement(**src, **tgt, options);
}

void
expectSameRefinement(const verify::RefinementResult &a,
                     const verify::RefinementResult &b)
{
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.detail, b.detail);
    ASSERT_EQ(a.counterexample.has_value(), b.counterexample.has_value());
    if (a.counterexample) {
        EXPECT_EQ(a.counterexample->source_value,
                  b.counterexample->source_value);
        EXPECT_EQ(a.counterexample->target_value,
                  b.counterexample->target_value);
        const auto &ia = a.counterexample->input;
        const auto &ib = b.counterexample->input;
        ASSERT_EQ(ia.args.size(), ib.args.size());
        for (size_t arg = 0; arg < ia.args.size(); ++arg) {
            ASSERT_EQ(ia.args[arg].lanes.size(),
                      ib.args[arg].lanes.size());
            for (size_t lane = 0; lane < ia.args[arg].lanes.size();
                 ++lane) {
                const LaneValue &la = ia.args[arg].lanes[lane];
                const LaneValue &lb = ib.args[arg].lanes[lane];
                EXPECT_EQ(la.poison, lb.poison);
                if (la.is_fp) {
                    uint64_t ba, bb;
                    std::memcpy(&ba, &la.fp, 8);
                    std::memcpy(&bb, &lb.fp, 8);
                    EXPECT_EQ(ba, bb);
                } else {
                    EXPECT_EQ(la.bits.zext(), lb.bits.zext());
                }
            }
        }
    }
}

// Branchy (non-encodable) i8 pair: forced onto the exhaustive
// concrete backend. First violating input is x = 129 (-127): the
// source negates negatives, the target echoes them.
const char *kBranchySrc =
    "define i8 @src(i8 %x) {\n"
    "entry:\n"
    "  %c = icmp slt i8 %x, 0\n"
    "  br i1 %c, label %neg, label %pos\n"
    "neg:\n"
    "  %n = sub i8 0, %x\n"
    "  br label %join\n"
    "pos:\n"
    "  br label %join\n"
    "join:\n"
    "  %r = phi i8 [ %n, %neg ], [ %x, %pos ]\n"
    "  ret i8 %r\n}\n";
const char *kBranchyTgt =
    "define i8 @tgt(i8 %x) {\n"
    "entry:\n"
    "  ret i8 %x\n}\n";

} // namespace

TEST(DeterministicParallelism, ExhaustiveSweepThreadInvariant)
{
    auto serial = checkWithThreads(kBranchySrc, kBranchyTgt, 1);
    auto parallel = checkWithThreads(kBranchySrc, kBranchyTgt, 8);

    ASSERT_EQ(serial.verdict, verify::Verdict::Incorrect);
    EXPECT_EQ(serial.backend, "exhaustive");
    ASSERT_TRUE(serial.counterexample.has_value());
    // Lowest violating index wins: x = 129 (x = 128 wraps to itself).
    EXPECT_EQ(serial.counterexample->input.args[0].lanes[0].bits.zext(),
              129u);
    expectSameRefinement(serial, parallel);
}

TEST(DeterministicParallelism, SampledSweepThreadInvariant)
{
    // FP forces the sampled backend; fadd/fsub round-tripping is not
    // the identity (inf - 1 stays inf, NaN propagates, rounding).
    const char *src =
        "define double @src(double %x) {\n"
        "  %a = fadd double %x, 1.000000e+00\n"
        "  %r = fsub double %a, 1.000000e+00\n"
        "  ret double %r\n}\n";
    const char *tgt =
        "define double @tgt(double %x) {\n"
        "  ret double %x\n}\n";
    auto serial = checkWithThreads(src, tgt, 1);
    auto parallel = checkWithThreads(src, tgt, 8);

    ASSERT_EQ(serial.verdict, verify::Verdict::Incorrect);
    EXPECT_EQ(serial.backend, "sampled");
    expectSameRefinement(serial, parallel);
}

TEST(DeterministicParallelism, CorrectVerdictThreadInvariant)
{
    auto serial = checkWithThreads(kBranchySrc, kBranchySrc, 1);
    auto parallel = checkWithThreads(kBranchySrc, kBranchySrc, 8);
    EXPECT_EQ(serial.verdict, verify::Verdict::Correct);
    expectSameRefinement(serial, parallel);
}

// The sweep runs one task per input chunk (1024 exhaustive inputs, 256
// samples) on a call-local TaskScheduler. Each shape below runs at 1,
// 2 and 8 threads and must report the same verdict and counterexample
// at all of them.

namespace {

/** Checks at 1, 2 and 8 threads; returns the serial result after
 *  pinning the other two to it. */
verify::RefinementResult
checkAtEveryThreadCount(const std::string &src, const std::string &tgt,
                        const verify::RefineOptions &options = {})
{
    verify::RefinementResult serial = checkWithThreads(src, tgt, 1, options);
    for (unsigned threads : {2u, 8u}) {
        SCOPED_TRACE(threads);
        expectSameRefinement(serial,
                             checkWithThreads(src, tgt, threads, options));
    }
    return serial;
}

/** i16 identity, except 0 where @p condition (which defines %c)
 *  holds; branchy, so the concrete backend decides it. */
std::string
patchedIdentitySrc(const char *condition)
{
    return std::string("define i16 @src(i16 %x) {\n"
                       "entry:\n") +
           condition +
           "  br i1 %c, label %hit, label %join\n"
           "hit:\n"
           "  br label %join\n"
           "join:\n"
           "  %r = phi i16 [ 0, %hit ], [ %x, %entry ]\n"
           "  ret i16 %r\n}\n";
}

const char *kIdentityTgt16 = "define i16 @tgt(i16 %x) {\n"
                             "entry:\n"
                             "  ret i16 %x\n}\n";

} // namespace

TEST(DeterministicParallelism, ExhaustiveViolationOnlyInLastChunk)
{
    // x = 0xFFFF is the last of 65536 inputs: the last chunk is the
    // only one that can see it.
    std::string src = patchedIdentitySrc("  %c = icmp eq i16 %x, -1\n");
    auto r = checkAtEveryThreadCount(src, kIdentityTgt16);
    ASSERT_EQ(r.verdict, verify::Verdict::Incorrect);
    EXPECT_EQ(r.backend, "exhaustive");
    ASSERT_TRUE(r.counterexample.has_value());
    EXPECT_EQ(r.counterexample->input.args[0].lanes[0].bits.zext(),
              0xFFFFu);

    // Without the violation every chunk runs to the end.
    r = checkAtEveryThreadCount(src, src);
    EXPECT_EQ(r.verdict, verify::Verdict::Correct);
    EXPECT_EQ(r.detail, "exhaustive over 65536 inputs");
}

TEST(DeterministicParallelism, SampledViolationOnlyInLastChunk)
{
    // Sampled over i16 inputs; about one random sample in 2048 hits
    // the residue. Find the first violating sample index serially,
    // then size the sweep so that index is its very last input.
    std::string src = patchedIdentitySrc("  %m = and i16 %x, 1023\n"
                                         "  %c = icmp eq i16 %m, 711\n");
    verify::RefineOptions options;
    options.exhaustive_bit_limit = 8;
    auto violates = [&](unsigned samples) {
        options.sample_count = samples;
        return checkWithThreads(src, kIdentityTgt16, 1, options).verdict ==
               verify::Verdict::Incorrect;
    };
    unsigned lo = 0, hi = 256; // invariant: !violates(lo), violates(hi)
    while (!violates(hi)) {
        lo = hi;
        hi *= 2;
        ASSERT_LE(hi, 1u << 22) << "residue never sampled";
    }
    while (lo + 1 < hi) {
        unsigned mid = lo + (hi - lo) / 2;
        (violates(mid) ? hi : lo) = mid;
    }
    const unsigned first_bad = hi - 1;
    ASSERT_GE(first_bad, 256u) << "violation must not sit in chunk 0";

    options.sample_count = first_bad + 1;
    auto r = checkAtEveryThreadCount(src, kIdentityTgt16, options);
    ASSERT_EQ(r.verdict, verify::Verdict::Incorrect);
    EXPECT_EQ(r.backend, "sampled");
    ASSERT_TRUE(r.counterexample.has_value());
    EXPECT_EQ(r.counterexample->input.args[0].lanes[0].bits.zext() & 1023,
              711u);

    options.sample_count = first_bad;
    r = checkAtEveryThreadCount(src, kIdentityTgt16, options);
    EXPECT_EQ(r.verdict, verify::Verdict::Correct);
    EXPECT_EQ(r.backend, "sampled");
}

TEST(DeterministicParallelism, ZeroBitInputSpaceIsOneInput)
{
    const char *one = "define i8 @src() {\n"
                      "entry:\n"
                      "  br label %exit\n"
                      "exit:\n"
                      "  ret i8 1\n}\n";
    const char *two = "define i8 @tgt() {\n"
                      "entry:\n"
                      "  ret i8 2\n}\n";
    auto r = checkAtEveryThreadCount(one, two);
    ASSERT_EQ(r.verdict, verify::Verdict::Incorrect);
    EXPECT_EQ(r.backend, "exhaustive");
    ASSERT_TRUE(r.counterexample.has_value());
    EXPECT_TRUE(r.counterexample->input.args.empty());

    r = checkAtEveryThreadCount(one, one);
    EXPECT_EQ(r.verdict, verify::Verdict::Correct);
    EXPECT_EQ(r.detail, "exhaustive over 1 inputs");
}

namespace {

struct PipelineRun
{
    core::PipelineStats stats;
    std::vector<core::CaseOutcome> outcomes;
};

PipelineRun
runPipelineWithThreads(unsigned num_threads, bool enable_cache = true)
{
    ir::Context ctx;
    corpus::CorpusOptions opts;
    opts.files_per_project = 1;
    opts.functions_per_file = 4;
    opts.pattern_density = 0.6;
    corpus::CorpusGenerator generator(ctx, opts);
    auto module =
        generator.generateFile(corpus::paperProjects().front(), 0);

    llm::ModelProfile profile = llm::modelByName("Gemini2.0T");
    profile.skill = 2.5;
    llm::MockModel model(profile, 77);
    core::PipelineConfig config;
    config.num_threads = num_threads;
    config.enable_verify_cache = enable_cache;
    core::Pipeline pipeline(model, config);
    extract::Extractor extractor;

    PipelineRun run;
    run.outcomes = pipeline.processModule(*module, extractor, 3);
    run.stats = pipeline.stats();
    return run;
}

/** Everything observable must match; cache counters are compared
 *  separately because on-vs-off runs legitimately differ there. */
void
expectSamePipelineRun(const PipelineRun &a, const PipelineRun &b)
{
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        const core::CaseOutcome &x = a.outcomes[i];
        const core::CaseOutcome &y = b.outcomes[i];
        EXPECT_EQ(x.status, y.status) << "case " << i;
        EXPECT_EQ(x.attempts, y.attempts) << "case " << i;
        EXPECT_EQ(x.candidate_text, y.candidate_text) << "case " << i;
        EXPECT_EQ(x.last_feedback, y.last_feedback) << "case " << i;
        EXPECT_EQ(x.verifier_backend, y.verifier_backend) << "case " << i;
        // Simulated time/cost must be BIT-identical, not just close.
        EXPECT_EQ(x.llm_seconds, y.llm_seconds) << "case " << i;
        EXPECT_EQ(x.total_seconds, y.total_seconds) << "case " << i;
        EXPECT_EQ(x.cost_usd, y.cost_usd) << "case " << i;
    }
    EXPECT_EQ(a.stats.cases, b.stats.cases);
    EXPECT_EQ(a.stats.found, b.stats.found);
    EXPECT_EQ(a.stats.llm_calls, b.stats.llm_calls);
    EXPECT_EQ(a.stats.verifier_calls, b.stats.verifier_calls);
    EXPECT_EQ(a.stats.syntax_errors, b.stats.syntax_errors);
    EXPECT_EQ(a.stats.incorrect_candidates, b.stats.incorrect_candidates);
    EXPECT_EQ(a.stats.not_interesting, b.stats.not_interesting);
    EXPECT_EQ(a.stats.total_seconds, b.stats.total_seconds);
    EXPECT_EQ(a.stats.total_cost_usd, b.stats.total_cost_usd);
}

} // namespace

TEST(DeterministicParallelism, PipelineThreadInvariant)
{
    PipelineRun serial = runPipelineWithThreads(1);
    PipelineRun parallel = runPipelineWithThreads(8);

    ASSERT_GT(serial.outcomes.size(), 1u)
        << "module produced too few sequences to exercise the fan-out";
    expectSamePipelineRun(serial, parallel);
    // Compute-once semantics make the cache counters themselves
    // thread-count-invariant (exactly one miss per distinct key).
    EXPECT_EQ(serial.stats.verify_cache_hits,
              parallel.stats.verify_cache_hits);
    EXPECT_EQ(serial.stats.verify_cache_misses,
              parallel.stats.verify_cache_misses);
}

TEST(DeterministicParallelism, PipelineCacheInvariant)
{
    // The verification cache must be a pure accelerator: outcomes,
    // verdicts, counterexamples (via feedback strings), and every
    // pre-existing stat are bit-identical with it on or off, serial
    // or parallel.
    PipelineRun cached_serial = runPipelineWithThreads(1, true);
    PipelineRun uncached_serial = runPipelineWithThreads(1, false);
    PipelineRun cached_parallel = runPipelineWithThreads(8, true);
    PipelineRun uncached_parallel = runPipelineWithThreads(8, false);

    ASSERT_GT(cached_serial.outcomes.size(), 1u);
    expectSamePipelineRun(cached_serial, uncached_serial);
    expectSamePipelineRun(cached_serial, cached_parallel);
    expectSamePipelineRun(cached_serial, uncached_parallel);

    // Off means off: no cache traffic at all.
    EXPECT_EQ(uncached_serial.stats.verify_cache_hits, 0u);
    EXPECT_EQ(uncached_serial.stats.verify_cache_misses, 0u);
    // On means verifier traffic flows through the cache (early-out
    // verdicts like BadSignature are not cached, hence <=).
    EXPECT_GT(cached_serial.stats.verify_cache_misses, 0u);
    EXPECT_LE(cached_serial.stats.verify_cache_hits +
                  cached_serial.stats.verify_cache_misses,
              cached_serial.stats.verifier_calls);
}
