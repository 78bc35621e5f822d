// Module-scale extract -> optimize -> patch-back (core/module_opt).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/module_opt.h"
#include "support/telemetry.h"
#include "corpus/generator.h"
#include "ir/ir_verifier.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "llm/mock_model.h"
#include "verify/refine.h"

using namespace lpo;

namespace {

/** High-skill clean-emission profile: isolates the module plumbing
 *  from mock-model emission variance (as the integration tests do). */
llm::ModelProfile
strongProfile()
{
    llm::ModelProfile profile = llm::modelByName("Gemini2.0T");
    profile.skill = 2.5;
    profile.syntax_error_rate = 0;
    profile.semantic_error_rate = 0;
    return profile;
}

core::ModuleOptOptions
hybridOptions(unsigned threads, bool cache = true)
{
    core::ModuleOptOptions options;
    options.pipeline.proposer = core::ProposerKind::Hybrid;
    options.pipeline.num_threads = threads;
    options.pipeline.enable_verify_cache = cache;
    return options;
}

std::string
familyOfBlock(const std::string &label)
{
    size_t dot = label.find('.');
    return dot == std::string::npos ? std::string() : label.substr(dot + 1);
}

} // namespace

TEST(ModuleOptTest, LargeModuleWellFormedAndRoundTrips)
{
    ir::Context ctx;
    corpus::CorpusGenerator generator(ctx);
    auto module = generator.largeModule(7, 20, 2);
    ASSERT_EQ(module->functions().size(), 20u);
    for (const auto &fn : module->functions())
        EXPECT_TRUE(ir::isValid(*fn)) << fn->name();

    // The module pipeline's CLI path reads modules back from disk.
    // Compare from the first function on (the ModuleID header line is
    // not preserved by a parse round-trip).
    std::string text = ir::printModule(*module);
    ir::Context ctx2;
    auto reparsed = ir::parseModule(ctx2, text);
    ASSERT_TRUE(reparsed.ok())
        << (reparsed.ok() ? "" : reparsed.error().toString());
    std::string reprint = ir::printModule(**reparsed);
    EXPECT_EQ(reprint.substr(reprint.find("define")),
              text.substr(text.find("define")));

    // The stitchable pool is the module pipeline's family universe.
    EXPECT_GE(corpus::stitchableBenchmarks().size(), 20u);
}

TEST(ModuleOptTest, PatchBackKeepsRefinementPerFunction)
{
    ir::Context ctx;
    corpus::CorpusGenerator generator(ctx);
    auto module = generator.largeModule(11, 12, 2);

    std::vector<std::unique_ptr<ir::Function>> originals;
    for (const auto &fn : module->functions())
        originals.push_back(fn->clone(fn->name()));

    llm::MockModel model(strongProfile(), 1);
    core::ModuleOptimizer optimizer(model, hybridOptions(1));
    core::ModuleOptResult result = optimizer.optimize(*module, 1);

    EXPECT_GT(result.patched_rewrites, 0u);
    EXPECT_EQ(result.patch_failures, 0u);
    EXPECT_EQ(result.invalid_functions, 0u);
    EXPECT_LT(result.cycles_after, result.cycles_before);
    EXPECT_GT(result.dce_removed, 0u);

    // Every patched function must refine its pre-patch self (the
    // whole point of splice + remap + DCE: per-function semantics are
    // preserved, not just per-sequence).
    verify::RefineOptions refine;
    refine.sample_count = 4000;
    refine.num_threads = 1;
    for (size_t i = 0; i < module->functions().size(); ++i) {
        if (result.functions[i].patched == 0)
            continue;
        const ir::Function &patched = *module->functions()[i];
        EXPECT_TRUE(ir::isValid(patched));
        auto verdict = verify::checkRefinement(*originals[i], patched,
                                               refine);
        EXPECT_EQ(verdict.verdict, verify::Verdict::Correct)
            << patched.name() << ": " << verdict.detail;
    }
}

TEST(ModuleOptTest, SecondModuleStillPatchesValidIr)
{
    // A second corpus draw: patch-back and the dead-original sweep
    // must still splice rewrites in and leave every function valid.
    ir::Context ctx;
    corpus::CorpusGenerator generator(ctx);
    auto module = generator.largeModule(11, 12, 2);
    llm::MockModel model(strongProfile(), 1);
    core::ModuleOptimizer optimizer(model, hybridOptions(1));
    core::ModuleOptResult result = optimizer.optimize(*module, 1);
    EXPECT_GT(result.patched_rewrites, 0u);
    for (const auto &fn : module->functions())
        EXPECT_TRUE(ir::isValid(*fn)) << fn->name();
}

TEST(ModuleOptTest, DeterministicAcrossThreadsAndCache)
{
    // The patched module must be byte-identical at 1 vs 8 threads,
    // with the verify cache on or off.
    std::vector<std::pair<unsigned, bool>> configs = {
        {1, true}, {8, true}, {1, false}, {8, false}};
    std::vector<std::string> prints;
    for (auto [threads, cache] : configs) {
        ir::Context ctx;
        corpus::CorpusGenerator generator(ctx);
        auto module = generator.largeModule(23, 16, 2);
        llm::MockModel model(strongProfile(), 1);
        core::ModuleOptimizer optimizer(model,
                                        hybridOptions(threads, cache));
        core::ModuleOptResult result = optimizer.optimize(*module, 1);
        EXPECT_GT(result.patched_rewrites, 0u);
        prints.push_back(ir::printModule(*module));
    }
    for (size_t i = 1; i < prints.size(); ++i)
        EXPECT_EQ(prints[0], prints[i])
            << "config " << i << " diverged";
}

namespace {

/**
 * A function whose extracted sequences used to be the scheduler's
 * worst case: e-graph candidates reassociate the add chain and fold
 * the xor pair, and before the encoder's AC canonicalization each
 * such miter cost the SAT solver 5-6 digits of conflicts — one
 * sequence dominating a whole module's wall time.
 */
const char *kAdversarialFn = R"(define i32 @adversarial(i32 %v, i32 %y, i32 %z) {
entry:
  %m = mul i32 %v, 43
  %a = add i32 %m, %y
  %b = add i32 %a, %y
  %c = xor i32 %b, %z
  %d = xor i32 %c, %z
  %e = add i32 %d, %m
  %f = sub i32 %e, %m
  ret i32 %f
}
)";

void
addAdversarialFunction(ir::Context &ctx, ir::Module &module)
{
    auto fn = ir::parseFunction(ctx, kAdversarialFn);
    ASSERT_TRUE(fn.ok()) << fn.error().toString();
    module.addFunction(std::move(*fn));
}

} // namespace

// Steal-heavy skew: one heavyweight sequence among many cheap ones.
// The patched module text AND the deterministic metric counters must
// be identical at 1, 2, and 8 threads. Scheduling telemetry
// ("sched.*") and every nanosecond-valued metric are excluded by
// construction — they measure timing, which is exactly what work
// stealing randomizes.
TEST(ModuleOptTest, SkewedModuleDeterministicAcrossThreadCounts)
{
    auto &registry = telemetry::MetricsRegistry::instance();
    std::vector<std::string> prints;
    std::vector<std::vector<std::pair<std::string, uint64_t>>> counters;
    for (unsigned threads : {1u, 2u, 8u}) {
        registry.reset();
        registry.setEnabled(true);
        ir::Context ctx;
        corpus::CorpusGenerator generator(ctx);
        auto module = generator.largeModule(23, 12, 2);
        addAdversarialFunction(ctx, *module);
        llm::MockModel model(strongProfile(), 1);
        core::ModuleOptimizer optimizer(model, hybridOptions(threads));
        core::ModuleOptResult result = optimizer.optimize(*module, 1);
        EXPECT_GT(result.patched_rewrites, 0u);
        prints.push_back(ir::printModule(*module));
        telemetry::MetricsSnapshot snap = registry.snapshot();
        std::vector<std::pair<std::string, uint64_t>> kept;
        for (const auto &[name, value] : snap.counters) {
            if (name.rfind("sched.", 0) == 0)
                continue;
            if (name.size() >= 3 &&
                name.compare(name.size() - 3, 3, "_ns") == 0)
                continue;
            kept.emplace_back(name, value);
        }
        counters.push_back(std::move(kept));
    }
    for (size_t i = 1; i < prints.size(); ++i) {
        EXPECT_EQ(prints[0], prints[i])
            << "module text diverged at thread config " << i;
        EXPECT_EQ(counters[0], counters[i])
            << "deterministic counters diverged at thread config " << i;
    }
    registry.reset();
}

// The adversarial sequence must not dominate module wall time: with 8
// threads, optimizing the module WITH the heavyweight sequence may
// cost at most 1.5x the same module without it. Before the encoder's
// AC canonicalization its miters alone took seconds — this pins both
// the canonicalization and the scheduler's one-chain-stalls-only-
// itself property against regression.
TEST(ModuleOptTest, AdversarialSequenceDoesNotDominateWallTime)
{
    using Clock = std::chrono::steady_clock;
    auto run_once = [&](bool adversarial) {
        ir::Context ctx;
        corpus::CorpusGenerator generator(ctx);
        auto module = generator.largeModule(23, 12, 2);
        if (adversarial)
            addAdversarialFunction(ctx, *module);
        llm::MockModel model(strongProfile(), 1);
        core::ModuleOptimizer optimizer(model, hybridOptions(8));
        Clock::time_point start = Clock::now();
        core::ModuleOptResult result = optimizer.optimize(*module, 1);
        double seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        EXPECT_GT(result.patched_rewrites, 0u);
        return seconds;
    };
    // Min-of-3 to shed scheduler warmup and timer noise.
    double base = 1e9, with = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
        base = std::min(base, run_once(false));
        with = std::min(with, run_once(true));
    }
    // Absolute floor: on a machine fast enough to finish the base
    // module in under 50ms, ratio noise is meaningless — the
    // adversarial extra must then simply be small in absolute terms.
    if (base < 0.05)
        EXPECT_LT(with - base, 0.075)
            << "base " << base << "s with " << with << "s";
    else
        EXPECT_LT(with, 1.5 * base)
            << "base " << base << "s with " << with << "s";
}

TEST(ModuleOptTest, CacheCarriesAcrossModulesAndPatchingStillHappens)
{
    // Module traffic is highly duplicated: a later module repeats
    // sequences an earlier one already verified. The shared verify
    // cache must serve those for free while patch-back still rewrites
    // the later module's own sites (extraction dedup is per call).
    ir::Context ctx;
    corpus::CorpusGenerator generator(ctx);
    auto first = generator.largeModule(3, 10, 2);
    auto second = generator.largeModule(4, 10, 2); // same pattern grid

    llm::MockModel model(strongProfile(), 1);
    core::ModuleOptimizer optimizer(model, hybridOptions(1));
    auto r1 = optimizer.optimize(*first, 1);
    auto r2 = optimizer.optimize(*second, 1);

    EXPECT_GT(r1.patched_rewrites, 0u);
    EXPECT_GT(r2.patched_rewrites, 0u)
        << "repeat sequences must still be patched in later modules";
    EXPECT_GT(r2.pipeline.verify_cache_hits, r1.pipeline.verify_cache_hits)
        << "second module's duplicate queries should hit the cache";
}

TEST(ModuleOptTest, FamilyCoverageOnLargeModule)
{
    // Acceptance bar: on a large module covering the whole stitchable
    // pool, every supported benchmark family ends up with at least
    // one verified, patched rewrite, the module stays valid, and the
    // mca cycle total strictly decreases.
    ir::Context ctx;
    corpus::CorpusGenerator generator(ctx);
    const auto &pool = corpus::stitchableBenchmarks();
    auto module = generator.largeModule(5, 100, 2);
    ASSERT_GE(100u * 2u, pool.size()) << "grid must cover the pool";

    llm::MockModel model(strongProfile(), 1);
    core::ModuleOptimizer optimizer(model, hybridOptions(0));
    core::ModuleOptResult result = optimizer.optimize(*module, 1);

    EXPECT_EQ(result.invalid_functions, 0u);
    EXPECT_EQ(result.patch_failures, 0u);
    EXPECT_LT(result.cycles_after, result.cycles_before);
    for (const auto &fn : module->functions())
        EXPECT_TRUE(ir::isValid(*fn)) << fn->name();
    // The rollback guard makes per-function savings monotone: no
    // patched function may end up costing more cycles than before.
    for (const core::FunctionSavings &fs : result.functions)
        EXPECT_LE(fs.cycles_after, fs.cycles_before) << fs.function;

    std::set<std::string> pool_families, patched_families;
    for (const corpus::MissedOptBenchmark *bench : pool)
        pool_families.insert(bench->family);
    for (const core::PatchRecord &patch : result.patches)
        patched_families.insert(familyOfBlock(patch.block));
    for (const std::string &family : pool_families)
        EXPECT_TRUE(patched_families.count(family))
            << "no patched rewrite for family " << family;
}
