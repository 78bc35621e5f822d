// ExecPlan engine tests: every corpus function's sweep (values, poison
// lanes, UB reasons, final memory) pinned to a digest, plus the
// deterministic-parallelism contract of the verification sweep and the
// pipeline (num_threads=1 and num_threads=8 must agree bit-for-bit),
// including sweeps whose only violation sits in the last chunk and a
// 0-bit input space.
//
// The pinned digests come from commit 33a5c89, where the tree-walking
// interpreter ExecPlan replaced computed the same digest for every
// function below over the same inputs. The verifier fuzzer
// (test_verifier_fuzz) cross-checks ExecPlan against the bit-blaster.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>

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
        unsigned lanes = type->isVector() ? type->lanes() : 1;
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

/** Mix everything one run observes into @p hash (FNV-1a over the
 *  little-endian bytes of each word): UB and its reason, every return
 *  lane's poison flag and bits, and the final memory. */
void
addResult(uint64_t &hash, const ExecutionResult &r)
{
    auto add = [&hash](uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (word >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    };
    add(r.ub);
    add(r.ub_reason.size());
    for (unsigned char c : r.ub_reason)
        add(c);
    add(r.ret.has_value());
    if (r.ret) {
        add(r.ret->lanes.size());
        for (const LaneValue &lane : r.ret->lanes) {
            add(lane.poison);
            if (lane.poison)
                continue;
            uint64_t fp_bits;
            std::memcpy(&fp_bits, &lane.fp, 8);
            add(lane.is_fp ? fp_bits : lane.bits.zext());
            add(lane.is_fp ? 64 : lane.bits.width());
        }
    }
    add(r.memory.size());
    for (const MemoryObject &object : r.memory) {
        add(object.bytes.size());
        for (uint8_t byte : object.bytes)
            add(byte);
    }
}

/**
 * Digest of @p fn's results over its input space: every input of a
 * space of up to 4096, a deterministic stride of 4096 inputs over
 * larger ones up to 16 bits, and 200 seeded random inputs otherwise.
 */
uint64_t
sweepDigest(const ir::Function &fn, unsigned step_limit = 100000)
{
    ExecPlan plan = ExecPlan::compile(fn, step_limit);
    ExecFrame frame = plan.makeFrame();
    uint64_t digest = 0xcbf29ce484222325ull;
    const unsigned bits = plan.exhaustiveCapable()
                              ? plan.inputBits()
                              : std::numeric_limits<unsigned>::max();
    if (bits <= 16) {
        uint64_t total = uint64_t(1) << bits;
        uint64_t step = total <= 4096 ? 1 : total / 4096;
        for (uint64_t index = 0; index < total; index += step)
            addResult(digest, plan.materialize(
                                  frame, plan.runExhaustive(frame, index)));
        return digest;
    }
    Rng rng(0xD1FF ^ bits);
    for (unsigned i = 0; i < 200; ++i)
        addResult(digest, plan.materialize(
                              frame, plan.run(frame, randomInput(fn, rng))));
    return digest;
}

struct PinnedDigest
{
    const char *issue_id;
    uint64_t src;
    uint64_t tgt;
};

/** RQ1 then RQ2, in catalog order. */
const PinnedDigest kCorpusDigests[] = {
    {"108451", 0x758fd69274c4a325ull, 0x758fd69274c4a325ull},
    {"108559", 0x310c3f16b74af21full, 0x310c3f16b74af21full},
    {"110591", 0xc4fa5212f889268eull, 0xc4fa5212f889268eull},
    {"115466", 0x9fb5b34a0184d789ull, 0x9fb5b34a0184d789ull},
    {"141930", 0x6c7facbf1f98ceaaull, 0x6c7facbf1f98ceaaull},
    {"107228", 0xb7191ca10c4c2725ull, 0xb7191ca10c4c2725ull},
    {"122388", 0x0b35af5d2df42325ull, 0x0b35af5d2df42325ull},
    {"126056", 0xe74d1754ff9aa325ull, 0xe74d1754ff9aa325ull},
    {"128778", 0xf0933545b01f7f84ull, 0xf0933545b01f7f84ull},
    {"132508", 0xd5e4bf7b142d2125ull, 0xdfa88e19156c2325ull},
    {"135411", 0x4066c7e28f56a325ull, 0x4066c7e28f56a325ull},
    {"141479", 0xf86e6c888af4786aull, 0xf86e6c888af4786aull},
    {"104875", 0xf831ffea10b85823ull, 0xf831ffea10b85823ull},
    {"118155", 0x0675a2ab367e8f25ull, 0x0675a2ab367e8f25ull},
    {"122235", 0xda80adadca23587aull, 0xda80adadca23587aull},
    {"128475", 0xd09f2eec50526e4cull, 0xd09f2eec50526e4cull},
    {"131824", 0xb7191ca10c4c2725ull, 0xb7191ca10c4c2725ull},
    {"141753", 0x19cef264bed1cf24ull, 0x19cef264bed1cf24ull},
    {"142497", 0xc7ad6c8f3e904fe5ull, 0xc7ad6c8f3e904fe5ull},
    {"142593", 0x317244bee1e4d097ull, 0x317244bee1e4d097ull},
    {"129947", 0x4a3d47bb1580707aull, 0x4a3d47bb1580707aull},
    {"137161", 0xb7191ca10c4c2725ull, 0xb7191ca10c4c2725ull},
    {"131444", 0x1e466a0758cd5d84ull, 0x1e466a0758cd5d84ull},
    {"134318", 0x2518702d716e2325ull, 0x2518702d716e2325ull},
    {"143259", 0xb62850c5608b8b44ull, 0xb62850c5608b8b44ull},
    {"128134", 0xf2cca1c818a30f25ull, 0xf2cca1c818a30f25ull},
    {"128460", 0xeadf30c4e78d4987ull, 0xeadf30c4e78d4987ull},
    {"130954", 0xf7252725eddd2325ull, 0xf7252725eddd2325ull},
    {"132628", 0x340cd1ee8df03765ull, 0x340cd1ee8df03765ull},
    {"133367", 0xb49b859c26db6cb5ull, 0xb49b859c26db6cb5ull},
    {"139641", 0xb7191ca10c4c2725ull, 0xb7191ca10c4c2725ull},
    {"139786", 0xb7191ca10c4c2725ull, 0xb7191ca10c4c2725ull},
    {"142674", 0xfcce3810da223ee7ull, 0xfcce3810da223ee7ull},
    {"142711", 0xce3ed4d5d23faf84ull, 0xce3ed4d5d23faf84ull},
    {"143030", 0xfd11be1b3679e38full, 0xfd11be1b3679e38full},
    {"143211", 0xa48009e45f84ca25ull, 0xa48009e45f84ca25ull},
    {"143630", 0x7339204291495684ull, 0x7a7deb7e5d3826a5ull},
    {"143636", 0x90e4467af8112325ull, 0x90e4467af8112325ull},
    {"143649", 0x7fdba8160fbb59a5ull, 0x7fdba8160fbb59a5ull},
    {"143957", 0x317244bee1e4d097ull, 0x317244bee1e4d097ull},
    {"144020", 0x194427d63092b86dull, 0x194427d63092b86dull},
    {"152237", 0xd78bd0d59f3a2aa5ull, 0xd78bd0d59f3a2aa5ull},
    {"152788", 0xcf04489f42d7a584ull, 0xcf04489f42d7a584ull},
    {"152797", 0x7e5fce7e9ac371edull, 0x7e5fce7e9ac371edull},
    {"152804", 0xd4adb01ede80dd84ull, 0xd4adb01ede80dd84ull},
    {"153991", 0xb7191ca10c4c2725ull, 0xb7191ca10c4c2725ull},
    {"153999", 0xf347f095bb3f61a4ull, 0xf347f095bb3f61a4ull},
    {"154000", 0xbc0ba6599f0efc8aull, 0xbc0ba6599f0efc8aull},
    {"154025", 0x610ec873cd233c61ull, 0x610ec873cd233c61ull},
    {"154035", 0xb7191ca10c4c2725ull, 0xb7191ca10c4c2725ull},
    {"154238", 0xd09f2eec50526e4cull, 0xd09f2eec50526e4cull},
    {"154242", 0xb7191ca10c4c2725ull, 0xb7191ca10c4c2725ull},
    {"154246", 0xce254a48d1f2e056ull, 0xce254a48d1f2e056ull},
    {"154258", 0x86f6fcdc37437a84ull, 0x86f6fcdc37437a84ull},
    {"157315", 0x4a6a0964388d7b25ull, 0x4a6a0964388d7b25ull},
    {"157370", 0x5d4fb03bdb0b0e7bull, 0x5d4fb03bdb0b0e7bull},
    {"157371", 0x8fcc6a75bb7f8f84ull, 0x8fcc6a75bb7f8f84ull},
    {"157372", 0xc57179f2df25ae84ull, 0xc57179f2df25ae84ull},
    {"157486", 0x4a3d47bb1580707aull, 0x4a3d47bb1580707aull},
    {"157524", 0x4a2aea08cd251d70ull, 0x4a2aea08cd251d70ull},
    {"163084", 0xd275f64c32644265ull, 0x1d49b573013fe404ull},
    {"163093", 0x4fb675f07356fb34ull, 0x4fb675f07356fb34ull},
    {"163108", 0x040f13b3698d2325ull, 0x040f13b3698d2325ull},
    {"163109", 0x6e98fc7b31beeb25ull, 0x6e98fc7b31beeb25ull},
    {"163110", 0x27e3f228a35a748dull, 0x27e3f228a35a748dull},
    {"163112", 0xcaf777fe99a6cd5cull, 0xcaf777fe99a6cd5cull},
    {"163115", 0x0e480c89d8d35e25ull, 0x0e480c89d8d35e25ull},
    {"166878", 0xb7191ca10c4c2725ull, 0xb7191ca10c4c2725ull},
    {"166885", 0xf438e3824a3a802eull, 0xf438e3824a3a802eull},
    {"166887", 0xb9fa5014b96a2325ull, 0xb9fa5014b96a2325ull},
    {"166890", 0xbf21adb033caa525ull, 0xbf21adb033caa525ull},
    {"166973", 0xc8f23be1eddd2325ull, 0xc8f23be1eddd2325ull},
    {"167003", 0xa1c03ebc0ebb362full, 0xa1c03ebc0ebb362full},
    {"167014", 0x2a0cdbca64622325ull, 0x2a0cdbca64622325ull},
    {"167055", 0xf831ffea10b85823ull, 0xf831ffea10b85823ull},
    {"167059", 0xb7191ca10c4c2725ull, 0xb7191ca10c4c2725ull},
    {"167079", 0xb4ae17c7f5ee53a1ull, 0xb4ae17c7f5ee53a1ull},
    {"167090", 0xe77f6dda31f52b04ull, 0x29ce19c010d3a3a5ull},
    {"167094", 0xd2c60582460c05b8ull, 0xd2c60582460c05b8ull},
    {"167096", 0xc8ea99b27885dba5ull, 0xc8ea99b27885dba5ull},
    {"167173", 0xb36f4bed1a23f325ull, 0xb36f4bed1a23f325ull},
    {"167178", 0xb4ae17c7f5ee53a1ull, 0xb4ae17c7f5ee53a1ull},
    {"167183", 0xd1555248b4629325ull, 0xd1555248b4629325ull},
    {"167190", 0xb1e54a58f2d62e34ull, 0xb1e54a58f2d62e34ull},
    {"167199", 0xfecefdb36e102325ull, 0xfecefdb36e102325ull},
    {"170020", 0x3626ebcd2a56dd84ull, 0x3626ebcd2a56dd84ull},
    {"170071", 0x0e6c192adaf6a3faull, 0x0e6c192adaf6a3faull},
};

} // namespace

// ---------------------------------------------------------------------
// Pinned semantics: ExecPlan against the digests of the corpus sweeps
// ---------------------------------------------------------------------

TEST(ExecPlanPinned, Corpus)
{
    std::vector<const corpus::MissedOptBenchmark *> catalog;
    for (const auto *rq : {&corpus::rq1Benchmarks(), &corpus::rq2Benchmarks()})
        for (const corpus::MissedOptBenchmark &bench : *rq)
            catalog.push_back(&bench);
    ASSERT_EQ(catalog.size(), std::size(kCorpusDigests));
    for (size_t i = 0; i < catalog.size(); ++i) {
        const corpus::MissedOptBenchmark &bench = *catalog[i];
        ASSERT_EQ(bench.issue_id, kCorpusDigests[i].issue_id);
        ir::Context ctx;
        auto src = ir::parseFunction(ctx, bench.src_text);
        auto tgt = ir::parseFunction(ctx, bench.tgt_text);
        ASSERT_TRUE(src.ok() && tgt.ok()) << bench.issue_id;
        EXPECT_EQ(sweepDigest(**src), kCorpusDigests[i].src) << bench.issue_id;
        EXPECT_EQ(sweepDigest(**tgt), kCorpusDigests[i].tgt) << bench.issue_id;
    }
}

TEST(ExecPlanPinned, ControlFlowAndMemory)
{
    // The corpus is straight-line; cover branches, phis (including
    // same-block phi reads), loops, stores, and geps by hand.
    struct Case
    {
        const char *text;
        uint64_t digest;
    };
    const Case cases[] = {
        // Branchy abs with phi join.
        {"define i8 @f(i8 %x) {\n"
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
         0xc8ea99b27885dba5ull},
        // Loop with two phis, one feeding the other (sequential phi
        // evaluation order matters).
        {"define i8 @f(i8 %n) {\n"
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
         0xfacf5e5efa7327a5ull},
        // Branch on a possibly-poison condition (UB path).
        {"define i8 @f(i8 %x) {\n"
         "entry:\n"
         "  %a = add nsw i8 %x, 1\n"
         "  %c = icmp eq i8 %a, 0\n"
         "  br i1 %c, label %t, label %e\n"
         "t:\n"
         "  br label %e\n"
         "e:\n"
         "  ret i8 %a\n}\n",
         0xdce096821b09bd6dull},
        // Four-predecessor phi: more incoming values than the fixed
        // operand arrays of PlanInst hold (regression: phis must be
        // decoded via phi_incoming only).
        {"define i8 @f(i8 %x) {\n"
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
         0x1b0505de1719bf25ull},
        // Store + gep + load round-trip: final memory counts too.
        {"define i16 @f(ptr %p, i8 %v) {\n"
         "  store i8 %v, ptr %p, align 1\n"
         "  %q = getelementptr inbounds i8, ptr %p, i64 1\n"
         "  %w = load i8, ptr %q, align 1\n"
         "  %a = zext i8 %v to i16\n"
         "  %b = zext i8 %w to i16\n"
         "  %r = add i16 %a, %b\n"
         "  ret i16 %r\n}\n",
         0xfb92041f0de75db5ull},
    };
    for (const Case &c : cases) {
        ir::Context ctx;
        auto fn = ir::parseFunction(ctx, c.text);
        ASSERT_TRUE(fn.ok());
        EXPECT_EQ(sweepDigest(**fn), c.digest) << c.text;
    }
}

TEST(ExecPlanPinned, StepLimit)
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
    EXPECT_EQ(sweepDigest(**fn, 1000), 0xaec22723bad7892bull);
}

TEST(ExecPlan, FrameIsReusableAcrossRuns)
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

TEST(ExecPlan, NswOverflowAtWidth64IsPoison)
{
    // i64 add/sub nsw overflow must be poison.
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
        return plan.materialize(frame, plan.run(frame, input));
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
// samples) on a call-local TaskScope. Each shape below runs at 1,
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
runPipelineWithThreads(unsigned num_threads, bool enable_cache = true,
                       core::ProposerKind proposer = core::ProposerKind::Llm)
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
    config.proposer = proposer;
    core::Pipeline pipeline(model, config);
    extract::Extractor extractor;

    PipelineRun run;
    run.outcomes = pipeline.processModule(*module, extractor, 3);
    run.stats = pipeline.stats();
    return run;
}

/**
 * Everything observable must match: every outcome field, and every
 * deterministic PipelineStats field Pipeline::foldStats sums. The SAT
 * work and ladder counters count solving actually performed, which the
 * shared verify cache legitimately changes, so they are compared only
 * when @p same_work (both runs uncached). Cache counters are compared
 * separately because on-vs-off runs legitimately differ there.
 */
void
expectSamePipelineRun(const PipelineRun &a, const PipelineRun &b,
                      bool same_work = false)
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
    const core::PipelineStats &x = a.stats;
    const core::PipelineStats &y = b.stats;
    EXPECT_EQ(x.cases, y.cases);
    EXPECT_EQ(x.found, y.found);
    EXPECT_EQ(x.llm_calls, y.llm_calls);
    EXPECT_EQ(x.verifier_calls, y.verifier_calls);
    EXPECT_EQ(x.syntax_errors, y.syntax_errors);
    EXPECT_EQ(x.incorrect_candidates, y.incorrect_candidates);
    EXPECT_EQ(x.not_interesting, y.not_interesting);
    EXPECT_EQ(x.egraph_consults, y.egraph_consults);
    EXPECT_EQ(x.egraph_proposals, y.egraph_proposals);
    EXPECT_EQ(x.found_by_llm, y.found_by_llm);
    EXPECT_EQ(x.found_by_egraph, y.found_by_egraph);
    EXPECT_EQ(x.hybrid_fallbacks, y.hybrid_fallbacks);
    EXPECT_EQ(x.catalog_consults, y.catalog_consults);
    EXPECT_EQ(x.catalog_proposals, y.catalog_proposals);
    EXPECT_EQ(x.found_by_catalog, y.found_by_catalog);
    EXPECT_EQ(x.contained_exceptions, y.contained_exceptions);
    EXPECT_EQ(x.total_seconds, y.total_seconds);
    EXPECT_EQ(x.total_cost_usd, y.total_cost_usd);
    if (!same_work)
        return;
    EXPECT_EQ(x.sat_solves, y.sat_solves);
    EXPECT_EQ(x.sat_decisions, y.sat_decisions);
    EXPECT_EQ(x.sat_conflicts, y.sat_conflicts);
    EXPECT_EQ(x.sat_propagations, y.sat_propagations);
    EXPECT_EQ(x.sat_restarts, y.sat_restarts);
    EXPECT_EQ(x.circuit_nodes, y.circuit_nodes);
    EXPECT_EQ(x.circuit_emitted, y.circuit_emitted);
    EXPECT_EQ(x.sat_escalations, y.sat_escalations);
    EXPECT_EQ(x.concrete_fallbacks, y.concrete_fallbacks);
    EXPECT_EQ(x.exhaustive_rescues, y.exhaustive_rescues);
    EXPECT_EQ(x.degraded_verdicts, y.degraded_verdicts);
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

// Hybrid puts the e-graph leg and the fallback counters through the
// reorder drain too (the catalog leg needs a store, so its counters
// stay zero here, on both sides).
TEST(DeterministicParallelism, HybridPipelineThreadInvariant)
{
    PipelineRun serial =
        runPipelineWithThreads(1, true, core::ProposerKind::Hybrid);
    PipelineRun parallel =
        runPipelineWithThreads(8, true, core::ProposerKind::Hybrid);

    ASSERT_GT(serial.outcomes.size(), 1u);
    EXPECT_GT(serial.stats.hybrid_fallbacks, 0u);
    EXPECT_GT(serial.stats.egraph_consults, 0u);
    expectSamePipelineRun(serial, parallel);
    EXPECT_EQ(serial.stats.verify_cache_misses,
              parallel.stats.verify_cache_misses);

    PipelineRun uncached_serial =
        runPipelineWithThreads(1, false, core::ProposerKind::Hybrid);
    PipelineRun uncached_parallel =
        runPipelineWithThreads(8, false, core::ProposerKind::Hybrid);
    expectSamePipelineRun(uncached_serial, uncached_parallel,
                          /*same_work=*/true);
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
    // With the cache off on both sides, the solving work itself (SAT
    // and ladder counters) is thread-count-invariant too.
    expectSamePipelineRun(uncached_serial, uncached_parallel,
                          /*same_work=*/true);

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
