// Refinement checker (Alive2 substitute) tests.

#include <gtest/gtest.h>

#include "ir/parser.h"
#include "verify/cache.h"
#include "verify/refine.h"

using namespace lpo;
using namespace lpo::verify;

namespace {

RefinementResult
check(const std::string &src, const std::string &tgt)
{
    static ir::Context ctx;
    auto s = ir::parseFunction(ctx, src);
    auto t = ir::parseFunction(ctx, tgt);
    EXPECT_TRUE(s.ok() && t.ok());
    return checkRefinement(**s, **t);
}

} // namespace

TEST(RefineTest, ProvesCorrectIntegerRewrite)
{
    auto r = check(
        "define i8 @src(i8 %x) {\n  %r = add i8 %x, -128\n"
        "  ret i8 %r\n}\n",
        "define i8 @tgt(i8 %x) {\n  %r = xor i8 %x, -128\n"
        "  ret i8 %r\n}\n");
    EXPECT_EQ(r.verdict, Verdict::Correct);
    EXPECT_EQ(r.backend, "sat");
}

TEST(RefineTest, RefutesWrongConstant)
{
    auto r = check(
        "define i8 @src(i8 %x) {\n  %r = add i8 %x, 1\n"
        "  ret i8 %r\n}\n",
        "define i8 @tgt(i8 %x) {\n  %r = add i8 %x, 2\n"
        "  ret i8 %r\n}\n");
    ASSERT_EQ(r.verdict, Verdict::Incorrect);
    ASSERT_TRUE(r.counterexample.has_value());
    // The counterexample must really distinguish the two functions.
    EXPECT_NE(r.counterexample->source_value,
              r.counterexample->target_value);
    // And the feedback message carries the Alive2-style report.
    ir::Context feedback_ctx;
    auto feedback_src = ir::parseFunction(
        feedback_ctx,
        "define i8 @src(i8 %x) {\n  %r = add i8 %x, 1\n"
        "  ret i8 %r\n}\n");
    ASSERT_TRUE(feedback_src.ok());
    std::string feedback = r.feedbackMessage(**feedback_src);
    EXPECT_NE(feedback.find("ERROR"), std::string::npos);
    EXPECT_NE(feedback.find("Example"), std::string::npos);
}

TEST(RefineTest, PoisonDirectionality)
{
    // Target may refine poison away (src poison -> tgt defined): OK.
    auto ok = check(
        "define i8 @src(i8 %x) {\n  %r = add nsw i8 %x, 1\n"
        "  ret i8 %r\n}\n",
        "define i8 @tgt(i8 %x) {\n  %r = add i8 %x, 1\n"
        "  ret i8 %r\n}\n");
    EXPECT_EQ(ok.verdict, Verdict::Correct);

    // Target must not introduce poison (dropping to nsw adds poison).
    auto bad = check(
        "define i8 @src(i8 %x) {\n  %r = add i8 %x, 1\n"
        "  ret i8 %r\n}\n",
        "define i8 @tgt(i8 %x) {\n  %r = add nsw i8 %x, 1\n"
        "  ret i8 %r\n}\n");
    EXPECT_EQ(bad.verdict, Verdict::Incorrect);
    EXPECT_NE(bad.detail.find("poison"), std::string::npos);
}

TEST(RefineTest, UBDirectionality)
{
    // Source UB allows anything in the target.
    auto ok = check(
        "define i8 @src(i8 %x) {\n  %r = udiv i8 %x, 0\n"
        "  ret i8 %r\n}\n",
        "define i8 @tgt(i8 %x) {\n  ret i8 42\n}\n");
    EXPECT_EQ(ok.verdict, Verdict::Correct);

    // Target must not add UB where the source is defined.
    auto bad = check(
        "define i8 @src(i8 %x) {\n  ret i8 1\n}\n",
        "define i8 @tgt(i8 %x) {\n  %r = udiv i8 1, %x\n"
        "  %o = or i8 %r, 1\n  ret i8 %o\n}\n");
    EXPECT_EQ(bad.verdict, Verdict::Incorrect);
}

TEST(RefineTest, SignatureMismatchIsFixableError)
{
    auto r = check(
        "define i8 @src(i8 %x) {\n  ret i8 %x\n}\n",
        "define i16 @tgt(i16 %x) {\n  ret i16 %x\n}\n");
    EXPECT_EQ(r.verdict, Verdict::BadSignature);
}

TEST(RefineTest, FloatingPointUsesBoundedBackend)
{
    auto r = check(
        "define i1 @src(double %x) {\n"
        "  %o = fcmp ord double %x, 0.000000e+00\n"
        "  %s = select i1 %o, double %x, double 0.000000e+00\n"
        "  %r = fcmp oeq double %s, 1.000000e+00\n"
        "  ret i1 %r\n}\n",
        "define i1 @tgt(double %x) {\n"
        "  %r = fcmp oeq double %x, 1.000000e+00\n"
        "  ret i1 %r\n}\n");
    EXPECT_EQ(r.verdict, Verdict::Correct);
    EXPECT_EQ(r.backend, "sampled");

    // The NaN case is caught when the compare constant is 0.0.
    auto bad = check(
        "define i1 @src(double %x) {\n"
        "  %o = fcmp ord double %x, 0.000000e+00\n"
        "  %s = select i1 %o, double %x, double 0.000000e+00\n"
        "  %r = fcmp oeq double %s, 0.000000e+00\n"
        "  ret i1 %r\n}\n",
        "define i1 @tgt(double %x) {\n"
        "  %r = fcmp oeq double %x, 0.000000e+00\n"
        "  ret i1 %r\n}\n");
    EXPECT_EQ(bad.verdict, Verdict::Incorrect);
}

TEST(RefineTest, MemoryLoadMergeVerifies)
{
    auto r = check(
        "define i32 @src(ptr %p) {\n"
        "  %lo = load i16, ptr %p, align 2\n"
        "  %q = getelementptr i8, ptr %p, i64 2\n"
        "  %hi = load i16, ptr %q, align 1\n"
        "  %zhi = zext i16 %hi to i32\n"
        "  %shl = shl nuw i32 %zhi, 16\n"
        "  %zlo = zext i16 %lo to i32\n"
        "  %r = or disjoint i32 %shl, %zlo\n"
        "  ret i32 %r\n}\n",
        "define i32 @tgt(ptr %p) {\n"
        "  %r = load i32, ptr %p, align 2\n  ret i32 %r\n}\n");
    EXPECT_EQ(r.verdict, Verdict::Correct);
    EXPECT_EQ(r.backend, "sampled");

    // Wrong offset is refuted with a concrete memory counterexample.
    auto bad = check(
        "define i32 @src(ptr %p) {\n"
        "  %lo = load i16, ptr %p, align 2\n"
        "  %q = getelementptr i8, ptr %p, i64 3\n"
        "  %hi = load i16, ptr %q, align 1\n"
        "  %zhi = zext i16 %hi to i32\n"
        "  %shl = shl nuw i32 %zhi, 16\n"
        "  %zlo = zext i16 %lo to i32\n"
        "  %r = or disjoint i32 %shl, %zlo\n"
        "  ret i32 %r\n}\n",
        "define i32 @tgt(ptr %p) {\n"
        "  %r = load i32, ptr %p, align 2\n  ret i32 %r\n}\n");
    EXPECT_EQ(bad.verdict, Verdict::Incorrect);
}

TEST(RefineTest, ExhaustiveBackendForSmallInputs)
{
    auto r = check(
        "define i8 @src(i8 %x) {\n"
        "  %m = mul i8 %x, %x\n  %r = and i8 %m, 1\n"
        "  ret i8 %r\n}\n",
        "define i8 @tgt(i8 %x) {\n  %r = and i8 %x, 1\n"
        "  ret i8 %r\n}\n");
    // i8 is within the SAT fragment, so "sat" decides it; force the
    // exhaustive path with a function outside the encodable set but
    // with small inputs: use freeze (encodable) — instead check that
    // 8-bit input spaces verify quickly regardless of backend.
    EXPECT_EQ(r.verdict, Verdict::Correct);
}

TEST(RefineTest, VectorRefinement)
{
    auto r = check(
        "define <4 x i8> @src(<4 x i32> %x) {\n"
        "  %c = icmp slt <4 x i32> %x, zeroinitializer\n"
        "  %m = tail call <4 x i32> @llvm.umin.v4i32(<4 x i32> %x, "
        "<4 x i32> splat (i32 255))\n"
        "  %t = trunc nuw <4 x i32> %m to <4 x i8>\n"
        "  %r = select <4 x i1> %c, <4 x i8> zeroinitializer, "
        "<4 x i8> %t\n"
        "  ret <4 x i8> %r\n}\n",
        "define <4 x i8> @tgt(<4 x i32> %x) {\n"
        "  %s = tail call <4 x i32> @llvm.smax.v4i32(<4 x i32> %x, "
        "<4 x i32> zeroinitializer)\n"
        "  %m = tail call <4 x i32> @llvm.umin.v4i32(<4 x i32> %s, "
        "<4 x i32> splat (i32 255))\n"
        "  %t = trunc nuw <4 x i32> %m to <4 x i8>\n"
        "  ret <4 x i8> %t\n}\n");
    EXPECT_EQ(r.verdict, Verdict::Correct);
}

// ---------------------------------------------------------------------
// Budget-escalation ladder (see DESIGN.md, "Fault containment and
// degradation ladder"). The pair below — mul-by-7 against its
// shift-and-subtract expansion — is the canonical
// SAT-hard-but-decidable query: the multiplier and the shl/sub chain
// share no structure (the encoder's operand canonicalization and
// add-chain flattening cannot merge a multiplier cone with a
// shift-by-3), so a one-conflict budget always exhausts, while an
// unlimited tier finishes the proof.
// ---------------------------------------------------------------------

namespace {

const char *kMulCommSrc8 =
    "define i8 @src(i8 %x, i8 %y) {\n  %m = mul i8 %x, 7\n"
    "  %r = xor i8 %m, %y\n"
    "  ret i8 %r\n}\n";
const char *kMulCommTgt8 =
    "define i8 @tgt(i8 %x, i8 %y) {\n  %s = shl i8 %x, 3\n"
    "  %m = sub i8 %s, %x\n"
    "  %r = xor i8 %m, %y\n"
    "  ret i8 %r\n}\n";
const char *kMulCommSrc32 =
    "define i32 @src(i32 %x, i32 %y) {\n  %m = mul i32 %x, 7\n"
    "  %r = xor i32 %m, %y\n"
    "  ret i32 %r\n}\n";
const char *kMulCommTgt32 =
    "define i32 @tgt(i32 %x, i32 %y) {\n  %s = shl i32 %x, 3\n"
    "  %m = sub i32 %s, %x\n"
    "  %r = xor i32 %m, %y\n"
    "  ret i32 %r\n}\n";

RefinementResult
checkWithOptions(const char *src, const char *tgt,
                 const RefineOptions &options)
{
    static ir::Context ctx;
    auto s = ir::parseFunction(ctx, src);
    auto t = ir::parseFunction(ctx, tgt);
    EXPECT_TRUE(s.ok() && t.ok());
    return checkRefinement(**s, **t, options);
}

} // namespace

// Pins the encoder's AC canonicalization: a reassociated add chain and
// a pair of cancelling xor/add-sub operands collapse to the same
// normal form during bit-blasting, so the miter is (nearly) trivially
// unsatisfiable and the proof costs almost no conflicts. Without the
// canonicalization these shapes cost thousands of conflicts per solve
// and an adversarial sequence dominates a module run's wall time.
TEST(RefineTest, ReassociatedChainsProveCheaply)
{
    RefineOptions options;
    SatTelemetry telemetry;
    options.sat_telemetry = &telemetry;
    // add(add(v, y), y)  ==  add(v, shl(y, 1)): flattening the add
    // chain and merging the doubled operand makes both cones equal.
    auto r = checkWithOptions(
        "define i32 @src(i32 %v, i32 %y) {\n"
        "  %a = add i32 %v, %y\n"
        "  %b = add i32 %a, %y\n"
        "  ret i32 %b\n}\n",
        "define i32 @tgt(i32 %v, i32 %y) {\n"
        "  %s = shl i32 %y, 1\n"
        "  %b = add i32 %v, %s\n"
        "  ret i32 %b\n}\n",
        options);
    EXPECT_EQ(r.verdict, Verdict::Correct);
    EXPECT_EQ(r.backend, "sat");
    EXPECT_LT(telemetry.conflicts, 1000u);

    // Cancelling pairs under a multiply: xor %z twice and add/sub %m
    // are identities the canonicalizer strips before the multiplier
    // cone is ever encoded.
    SatTelemetry cancel_telemetry;
    options.sat_telemetry = &cancel_telemetry;
    r = checkWithOptions(
        "define i32 @src(i32 %x, i32 %z, i32 %m) {\n"
        "  %a = xor i32 %x, %z\n"
        "  %b = xor i32 %a, %z\n"
        "  %c = add i32 %b, %m\n"
        "  %d = sub i32 %c, %m\n"
        "  %e = mul i32 %d, 43\n"
        "  ret i32 %e\n}\n",
        "define i32 @tgt(i32 %x, i32 %z, i32 %m) {\n"
        "  %e = mul i32 %x, 43\n"
        "  ret i32 %e\n}\n",
        options);
    EXPECT_EQ(r.verdict, Verdict::Correct);
    EXPECT_EQ(r.backend, "sat");
    EXPECT_LT(cancel_telemetry.conflicts, 1000u);
}

TEST(RefineLadderTest, SingleShotBudgetStillTimesOut)
{
    // The pre-ladder contract: no tiers, tiny budget -> Timeout.
    RefineOptions options;
    options.conflict_budget = 1;
    auto r = checkWithOptions(kMulCommSrc8, kMulCommTgt8, options);
    EXPECT_EQ(r.verdict, Verdict::Timeout);
    EXPECT_EQ(r.backend, "sat");
}

TEST(RefineLadderTest, EscalationProvesWhatTierOneAbandons)
{
    // The budget-edge asymmetry made explicit: tier 1 exhausts (the
    // single-shot path above reported Timeout), tier 2 resumes the
    // same solver — learnt clauses intact — and completes the proof.
    RefineOptions options;
    options.budget_tiers = {1, 0}; // 0 = unlimited final tier
    DegradationStats degradation;
    SatTelemetry telemetry;
    options.degradation = &degradation;
    options.sat_telemetry = &telemetry;
    auto r = checkWithOptions(kMulCommSrc8, kMulCommTgt8, options);
    EXPECT_EQ(r.verdict, Verdict::Correct);
    EXPECT_EQ(r.backend, "sat");
    EXPECT_EQ(degradation.escalations, 1u);
    EXPECT_EQ(degradation.concrete_fallbacks, 0u);
    EXPECT_EQ(degradation.degraded, 0u);
    EXPECT_EQ(telemetry.solves, 2u);
}

TEST(RefineLadderTest, ExhaustedLadderRescuedByExhaustiveTesting)
{
    // 16 total input bits: the concrete fallback can enumerate the
    // whole space, so the degraded query still concludes soundly.
    RefineOptions options;
    options.budget_tiers = {1};
    DegradationStats degradation;
    options.degradation = &degradation;
    auto r = checkWithOptions(kMulCommSrc8, kMulCommTgt8, options);
    EXPECT_EQ(r.verdict, Verdict::Correct);
    EXPECT_EQ(r.backend, "exhaustive");
    EXPECT_NE(r.detail.find("after SAT budget ladder exhausted"),
              std::string::npos);
    EXPECT_EQ(degradation.escalations, 0u);
    EXPECT_EQ(degradation.concrete_fallbacks, 1u);
    EXPECT_EQ(degradation.exhaustive_rescues, 1u);
    EXPECT_EQ(degradation.degraded, 0u);
}

TEST(RefineLadderTest, ExhaustedLadderOverWideInputsIsDegraded)
{
    // 64 input bits: sampling cannot prove anything, so the verdict is
    // Degraded — never Correct, never Timeout — and says why.
    RefineOptions options;
    options.budget_tiers = {1};
    DegradationStats degradation;
    options.degradation = &degradation;
    auto r = checkWithOptions(kMulCommSrc32, kMulCommTgt32, options);
    EXPECT_EQ(r.verdict, Verdict::Degraded);
    EXPECT_EQ(r.backend, "sampled");
    EXPECT_NE(r.detail.find("not a proof"), std::string::npos);
    EXPECT_EQ(degradation.concrete_fallbacks, 1u);
    EXPECT_EQ(degradation.exhaustive_rescues, 0u);
    EXPECT_EQ(degradation.degraded, 1u);
    // The feedback path must not pretend this was a counterexample.
    static ir::Context ctx;
    auto src = ir::parseFunction(ctx, kMulCommSrc32);
    ASSERT_TRUE(src.ok());
    std::string feedback = r.feedbackMessage(**src);
    EXPECT_NE(feedback.find("degraded"), std::string::npos);
}

TEST(RefineLadderTest, LadderVerdictsSurviveTheCache)
{
    // A repeated candidate (an LLM retry, a recurring site) is served
    // by the shared cache; a cache hit must replay the ladder's
    // verdict, not re-run a shorter or longer search.
    static ir::Context ctx;
    auto src8 = ir::parseFunction(ctx, kMulCommSrc8);
    auto tgt8 = ir::parseFunction(ctx, kMulCommTgt8);
    auto src32 = ir::parseFunction(ctx, kMulCommSrc32);
    auto tgt32 = ir::parseFunction(ctx, kMulCommTgt32);
    ASSERT_TRUE(src8.ok() && tgt8.ok() && src32.ok() && tgt32.ok());

    VerifyCache cache;
    RefineOptions options;
    options.budget_tiers = {1, 0};
    options.cache = &cache;
    DegradationStats degradation;
    options.degradation = &degradation;
    for (int round = 0; round < 2; ++round) {
        auto r8 = checkRefinement(**src8, **tgt8, options);
        EXPECT_EQ(r8.verdict, Verdict::Correct) << "round " << round;
        EXPECT_EQ(r8.backend, "sat") << "round " << round;
    }
    EXPECT_EQ(degradation.escalations, 1u) << "the hit re-ran the ladder";

    RefineOptions short_ladder;
    short_ladder.budget_tiers = {1};
    short_ladder.cache = &cache;
    auto computed = checkRefinement(**src32, **tgt32, short_ladder);
    auto replayed = checkRefinement(**src32, **tgt32, short_ladder);
    EXPECT_EQ(computed.verdict, Verdict::Degraded);
    EXPECT_EQ(replayed.verdict, computed.verdict);
    EXPECT_EQ(replayed.backend, computed.backend);
    EXPECT_EQ(replayed.detail, computed.detail);
    EXPECT_EQ(cache.stats().hits, 2u);
}
