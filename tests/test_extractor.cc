// Extractor (Algorithm 2) tests.

#include <gtest/gtest.h>

#include <set>

#include "corpus/generator.h"
#include "extract/extractor.h"
#include "interp/exec_plan.h"
#include "ir/ir_verifier.h"
#include "ir/parser.h"
#include "ir/pattern.h"
#include "ir/printer.h"
#include "support/rng.h"
#include "verify/refine.h"

using namespace lpo;
using extract::Extractor;

namespace {

std::unique_ptr<ir::Module>
parse(ir::Context &ctx, const std::string &text)
{
    auto m = ir::parseModule(ctx, text);
    EXPECT_TRUE(m.ok()) << (m.ok() ? "" : m.error().toString());
    return m.take();
}

} // namespace

TEST(ExtractorTest, SequencesAreDependent)
{
    ir::Context ctx;
    auto module = parse(ctx,
        "define i8 @f(i8 %x, i8 %y) {\n"
        "  %a = add i8 %x, 1\n"
        "  %b = mul i8 %a, 3\n"
        "  %c = xor i8 %y, 5\n"       // independent chain
        "  %d = and i8 %b, %c\n"      // joins both
        "  ret i8 %d\n}\n");
    auto seqs = Extractor::extractSeqsFromBB(*module->functions()[0]
                                                  ->entry());
    // Every instruction in a sequence must be (transitively) used by a
    // later member — check direct dependence links exist.
    for (const auto &seq : seqs) {
        for (size_t i = 0; i + 1 < seq.size(); ++i) {
            bool used_later = false;
            for (size_t j = i + 1; j < seq.size(); ++j)
                for (const ir::Value *op : seq[j]->operands())
                    used_later |= op == seq[i];
            EXPECT_TRUE(used_later)
                << "dangling member in extracted sequence";
        }
    }
    EXPECT_FALSE(seqs.empty());
}

TEST(ExtractorTest, WrapAsFunctionArguments)
{
    ir::Context ctx;
    auto module = parse(ctx,
        "define i8 @f(i8 %x, i8 %y) {\n"
        "  %a = add i8 %x, %y\n"
        "  %b = mul i8 %a, 3\n"
        "  ret i8 %b\n}\n");
    auto seqs = Extractor::extractSeqsFromBB(*module->functions()[0]
                                                  ->entry());
    ASSERT_FALSE(seqs.empty());
    // The longest sequence contains both instructions.
    const auto *longest = &seqs[0];
    for (const auto &s : seqs)
        if (s.size() > longest->size())
            longest = &s;
    auto fn = Extractor::wrapAsFunction(ctx, *longest, "wrapped");
    ASSERT_NE(fn, nullptr);
    // Undefined operands (%x, %y) became arguments.
    EXPECT_EQ(fn->numArgs(), 2u);
    EXPECT_EQ(fn->returnType(), ctx.types().intTy(8));
    EXPECT_EQ(fn->instructionCount(), 2u);
}

TEST(ExtractorTest, PhiAndStoreExcluded)
{
    ir::Context ctx;
    auto module = parse(ctx,
        "define void @f(ptr %p, i64 %n) {\n"
        "entry:\n"
        "  br label %loop\n"
        "loop:\n"
        "  %i = phi i64 [ 0, %entry ], [ %i2, %loop ]\n"
        "  %g = getelementptr i32, ptr %p, i64 %i\n"
        "  %v = load i32, ptr %g, align 4\n"
        "  %w = add i32 %v, 1\n"
        "  store i32 %w, ptr %g, align 4\n"
        "  %i2 = add i64 %i, 1\n"
        "  %c = icmp uge i64 %i2, %n\n"
        "  br i1 %c, label %exit, label %loop\n"
        "exit:\n"
        "  ret void\n}\n");
    Extractor extractor;
    auto seqs = extractor.extractFromModule(*module);
    for (const auto &fn : seqs) {
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->instructions()) {
                EXPECT_NE(inst->op(), ir::Opcode::Phi);
                EXPECT_NE(inst->op(), ir::Opcode::Store);
            }
        }
    }
}

TEST(ExtractorTest, DeduplicationAcrossModules)
{
    ir::Context ctx;
    const char *text =
        "define i8 @f(i8 %x) {\n"
        "  %a = xor i8 %x, 29\n"
        "  %b = mul i8 %a, 7\n"
        "  ret i8 %b\n}\n";
    auto m1 = parse(ctx, text);
    auto m2 = parse(ctx, text);
    Extractor extractor;
    auto first = extractor.extractFromModule(*m1);
    uint64_t extracted_once = extractor.stats().extracted;
    auto second = extractor.extractFromModule(*m2);
    EXPECT_EQ(extractor.stats().extracted, extracted_once);
    EXPECT_GT(extractor.stats().duplicates_skipped, 0u);
    EXPECT_TRUE(second.empty());
}

TEST(ExtractorTest, RejectsStillOptimizableSequences)
{
    ir::Context ctx;
    // add x, 0 is immediately optimizable, so the wrapped sequence is
    // rejected (Algorithm 2 lines 7-8).
    auto module = parse(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %a = add i8 %x, 0\n"
        "  %b = mul i8 %a, 7\n"
        "  ret i8 %b\n}\n");
    Extractor extractor;
    auto seqs = extractor.extractFromModule(*module);
    EXPECT_GT(extractor.stats().still_optimizable_skipped, 0u);
}

namespace {

const char *kFigure1dText =
    "define <4 x i8> @body(ptr %a1, i64 %a0) {\n"
    "  %0 = getelementptr inbounds nuw i32, ptr %a1, i64 %a0\n"
    "  %wide.load = load <4 x i32>, ptr %0, align 4\n"
    "  %3 = icmp slt <4 x i32> %wide.load, zeroinitializer\n"
    "  %5 = tail call <4 x i32> @llvm.umin.v4i32(<4 x i32> "
    "%wide.load, <4 x i32> splat (i32 255))\n"
    "  %7 = trunc nuw <4 x i32> %5 to <4 x i8>\n"
    "  %9 = select <4 x i1> %3, <4 x i8> zeroinitializer, "
    "<4 x i8> %7\n"
    "  ret <4 x i8> %9\n}\n";

} // namespace

TEST(ExtractorTest, PaperFigure1dSequence)
{
    // With memory opted in, the Fig. 1d vector body must yield the
    // Fig. 3a wrapped function (gep + load + icmp + umin + trunc +
    // select).
    ir::Context ctx;
    auto module = parse(ctx, kFigure1dText);
    extract::ExtractorOptions options;
    options.allow_memory = true;
    Extractor extractor(options);
    auto seqs = extractor.extractFromModule(*module);
    bool found_full = false;
    for (const auto &fn : seqs)
        found_full |= fn->instructionCount() == 6;
    EXPECT_TRUE(found_full)
        << "full dependent chain not extracted";
}

TEST(ExtractorTest, MemoryExcludedByDefault)
{
    // Default policy: load/gep never become sequence members — the
    // pure subchain around them is extracted with the loaded value as
    // an argument — so every default-mode wrapped sequence stays
    // inside the SAT backend's fragment.
    ir::Context ctx;
    auto module = parse(ctx, kFigure1dText);
    Extractor extractor;
    auto seqs = extractor.extractFromModule(*module);
    ASSERT_FALSE(seqs.empty());
    bool found_pure_chain = false;
    for (const auto &fn : seqs) {
        for (const auto &bb : fn->blocks()) {
            for (const auto &inst : bb->instructions()) {
                EXPECT_NE(inst->op(), ir::Opcode::Load);
                EXPECT_NE(inst->op(), ir::Opcode::Gep);
            }
        }
        found_pure_chain |= fn->instructionCount() == 4;
    }
    // icmp + umin + trunc + select survives, fed by the load.
    EXPECT_TRUE(found_pure_chain);
}

TEST(ExtractorTest, MemorySequencesRouteToConcreteBackends)
{
    // When memory IS opted in, the wrapped sequence is outside the
    // SAT encoder's fragment and must dispatch to a bounded concrete
    // backend — pinned here so the routing never silently changes.
    ir::Context ctx;
    auto module = parse(ctx, kFigure1dText);
    extract::ExtractorOptions options;
    options.allow_memory = true;
    Extractor extractor(options);
    auto seqs = extractor.extractFromModule(*module);
    const ir::Function *memory_seq = nullptr;
    for (const auto &fn : seqs)
        if (fn->instructionCount() == 6)
            memory_seq = fn.get();
    ASSERT_NE(memory_seq, nullptr);
    EXPECT_FALSE(verify::usesSatBackend(*memory_seq, *memory_seq));
    verify::RefineOptions refine;
    refine.sample_count = 500;
    refine.num_threads = 1;
    auto verdict = verify::checkRefinement(*memory_seq, *memory_seq,
                                           refine);
    EXPECT_EQ(verdict.verdict, verify::Verdict::Correct);
    EXPECT_NE(verdict.backend, "sat");
}

TEST(ExtractorTest, StatsPartitionSequencesConsidered)
{
    // The outcome counters partition sequences_considered exactly —
    // length-rejected sequences are no longer invisible.
    ir::Context ctx;
    corpus::CorpusGenerator generator(ctx);
    Extractor extractor;
    for (const auto &project : corpus::paperProjects()) {
        auto module = generator.generateFile(project, 0);
        extractor.extractFromModule(*module);
    }
    const extract::ExtractionStats &stats = extractor.stats();
    EXPECT_GT(stats.extracted, 0u);
    EXPECT_GT(stats.duplicates_skipped, 0u);
    EXPECT_GT(stats.length_filtered, 0u);
    EXPECT_EQ(stats.sequences_considered,
              stats.length_filtered + stats.unwrappable_skipped +
                  stats.duplicates_skipped +
                  stats.still_optimizable_skipped + stats.extracted);
}

TEST(ExtractorTest, HashCollisionsDoNotDropSequences)
{
    // Force every sequence into one dedup bucket: distinct sequences
    // must still all be extracted (confirmed by structural equality),
    // true duplicates must still dedup, and the collision counter
    // must record the near-misses.
    ir::Context ctx;
    auto module = parse(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %a = xor i8 %x, 29\n"
        "  %b = mul i8 %a, 7\n"
        "  ret i8 %b\n}\n"
        "define i8 @g(i8 %x, i8 %y) {\n"
        "  %a = sub i8 %x, %y\n"
        "  %b = xor i8 %a, 29\n"
        "  ret i8 %b\n}\n"
        "define i8 @h(i8 %x) {\n"
        "  %a = xor i8 %x, 29\n"
        "  %b = mul i8 %a, 7\n"
        "  ret i8 %b\n}\n");
    extract::ExtractorOptions options;
    options.hash_mask = 0; // test seam: all hashes collide
    Extractor extractor(options);
    auto seqs = extractor.extractFromModule(*module);
    EXPECT_EQ(seqs.size(), 2u)
        << "a colliding hash must not drop a distinct sequence";
    const extract::ExtractionStats &stats = extractor.stats();
    EXPECT_EQ(stats.extracted, 2u);
    EXPECT_EQ(stats.duplicates_skipped, 1u);
    EXPECT_GE(stats.hash_collisions, 1u);
}

TEST(ExtractorTest, DetailedSitesGroupDuplicates)
{
    ir::Context ctx;
    auto module = parse(ctx,
        "define i8 @f(i8 %x) {\n"
        "  %a = xor i8 %x, 29\n"
        "  %b = mul i8 %a, 7\n"
        "  ret i8 %b\n}\n"
        "define i8 @g(i8 %x) {\n"
        "  %a = xor i8 %x, 29\n"
        "  %b = mul i8 %a, 7\n"
        "  ret i8 %b\n}\n");
    Extractor extractor;
    auto seqs = extractor.extractDetailed(*module);
    ASSERT_EQ(seqs.size(), 1u);
    ASSERT_EQ(seqs[0].sites.size(), 2u);
    EXPECT_EQ(seqs[0].sites[0].fn->name(), "f");
    EXPECT_EQ(seqs[0].sites[1].fn->name(), "g");
    EXPECT_EQ(seqs[0].sites[0].insts.size(), 2u);
}

namespace {

/** Clone of @p src (single block) that returns @p val instead. */
std::unique_ptr<ir::Function>
sliceValueFn(ir::Context &ctx, const ir::Function &src,
             const ir::Value *val)
{
    auto fn = std::make_unique<ir::Function>(ctx, "slice", val->type());
    ir::ValueRemap remap;
    for (const auto &arg : src.args())
        remap.insert(arg.get(), fn->addArg(arg->type(), arg->name()));
    ir::BasicBlock *block = fn->addBlock("entry");
    for (const auto &inst : src.entry()->instructions()) {
        if (inst->isTerminator())
            continue;
        remap.insert(inst.get(),
                     block->append(ir::cloneInstruction(*inst, remap)));
    }
    ir::Value *const *mapped = remap.find(val);
    ir::Value *ret_val = mapped ? *mapped : const_cast<ir::Value *>(val);
    block->append(std::make_unique<ir::Instruction>(
        ir::Opcode::Ret, ctx.types().voidTy(),
        std::vector<ir::Value *>{ret_val}));
    fn->numberValues();
    return fn;
}

bool
lanesEqual(const interp::RtValue &a, const interp::RtValue &b)
{
    if (a.lanes.size() != b.lanes.size())
        return false;
    for (size_t i = 0; i < a.lanes.size(); ++i) {
        if (a.lanes[i].poison != b.lanes[i].poison)
            return false;
        if (!a.lanes[i].poison &&
            a.lanes[i].bits.zext() != b.lanes[i].bits.zext())
            return false;
    }
    return true;
}

} // namespace

TEST(ExtractorTest, CorpusWideDifferentialAgainstInSitu)
{
    // Corpus-wide extraction correctness: every wrapped sequence is
    // valid IR, and running it on the values its outside operands
    // take in situ reproduces the tail's in-situ value — wrapping
    // (argument ordering, operand remapping, metadata cloning) is
    // semantics-preserving, input by input, through ExecPlan.
    ir::Context ctx;
    corpus::CorpusGenerator generator(ctx);
    lpo::Rng rng(2026);
    unsigned sites_checked = 0;
    for (const auto &project : corpus::paperProjects()) {
        auto module = generator.generateFile(project, 0);
        Extractor extractor;
        auto seqs = extractor.extractDetailed(*module);
        for (const auto &entry : seqs) {
            EXPECT_TRUE(ir::isValid(*entry.wrapped))
                << ir::printFunction(*entry.wrapped);
            for (const auto &site : entry.sites) {
                const ir::Function &src = *site.fn;
                if (src.blocks().size() != 1)
                    continue; // in-situ replay needs straight-line
                bool int_args = true;
                for (const auto &arg : src.args())
                    int_args &= arg->type()->isInt();
                if (!int_args)
                    continue;

                auto tail_fn =
                    sliceValueFn(ctx, src, site.insts.back());
                std::vector<ir::Value *> outside =
                    Extractor::outsideOperands(site.insts);
                ASSERT_EQ(outside.size(), entry.wrapped->numArgs());
                std::vector<std::unique_ptr<ir::Function>> op_fns;
                for (ir::Value *operand : outside)
                    op_fns.push_back(sliceValueFn(ctx, src, operand));

                auto tail_plan = interp::ExecPlan::compile(*tail_fn);
                auto wrapped_plan =
                    interp::ExecPlan::compile(*entry.wrapped);
                auto tail_frame = tail_plan.makeFrame();
                auto wrapped_frame = wrapped_plan.makeFrame();
                std::vector<interp::ExecPlan> op_plans;
                std::vector<interp::ExecFrame> op_frames;
                for (auto &op_fn : op_fns) {
                    op_plans.push_back(interp::ExecPlan::compile(*op_fn));
                    op_frames.push_back(op_plans.back().makeFrame());
                }

                for (int iter = 0; iter < 10; ++iter) {
                    interp::ExecutionInput in;
                    for (const auto &arg : src.args())
                        in.args.push_back(interp::RtValue::scalarInt(
                            lpo::APInt(arg->type()->intWidth(),
                                       rng.next())));
                    auto tail_res = tail_plan.run(tail_frame, in);
                    if (tail_res.ub)
                        continue; // in-situ UB: nothing to compare
                    auto expect =
                        tail_plan.materialize(tail_frame, tail_res);

                    interp::ExecutionInput wrapped_in;
                    bool ub = false;
                    for (size_t k = 0; k < op_plans.size(); ++k) {
                        auto op_res = op_plans[k].run(op_frames[k], in);
                        if (op_res.ub) {
                            ub = true;
                            break;
                        }
                        wrapped_in.args.push_back(
                            *op_plans[k].materialize(op_frames[k], op_res)
                                 .ret);
                    }
                    ASSERT_FALSE(ub)
                        << "operand slice UB without tail UB";
                    auto wrapped_res =
                        wrapped_plan.run(wrapped_frame, wrapped_in);
                    ASSERT_FALSE(wrapped_res.ub)
                        << ir::printFunction(*entry.wrapped);
                    auto got = wrapped_plan.materialize(wrapped_frame,
                                                        wrapped_res);
                    EXPECT_TRUE(lanesEqual(*expect.ret, *got.ret))
                        << ir::printFunction(*entry.wrapped);
                    ++sites_checked;
                }
            }
        }
    }
    EXPECT_GT(sites_checked, 100u);
}
