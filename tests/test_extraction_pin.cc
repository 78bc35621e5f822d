// Pins what extraction produces, and the two digests it and its
// callers depend on, as FNV-1a digests:
//   - extractDetailed over largeModule(7, 200, 3) and over a 20-module
//     largeModule(seed, 16, 3) draw (module-cold's seeds): every
//     sequence's name and canonical text in order, every site as
//     (function index, block index, member positions), and the stats
//     partition;
//   - structuralHash over every function of tests/ir_text_corpus.h
//     (the mock model seeds on these values);
//   - mca::analyzeFunction over the same functions, by the bit
//     patterns of its doubles (cycles_saved and the patch-back
//     rollback guard read them).
// Plus the opt probe's contract: a pipeline run that reports no change
// leaves its function structurally equal to what it was.

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "ir_text_corpus.h"
#include "ir/pattern.h"
#include "mca/cost_model.h"
#include "opt/pass_manager.h"

using namespace lpo;
using text_corpus::fnvFold;
using text_corpus::kFnvBasis;

namespace {

/** splitmix64, perfbench's seed mixer (module-cold's module seeds). */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

uint64_t
foldWord(uint64_t hash, uint64_t word)
{
    char bytes[sizeof(word)];
    std::memcpy(bytes, &word, sizeof(word));
    return fnvFold(hash, std::string_view(bytes, sizeof(bytes)));
}

uint64_t
foldDouble(uint64_t hash, double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return foldWord(hash, bits);
}

/** Position of @p item in @p items (items.size() if absent). */
template <typename T, typename U>
uint64_t
indexOf(const std::vector<T> &items, const U *item)
{
    for (size_t i = 0; i < items.size(); ++i)
        if (&*items[i] == item)
            return i;
    return items.size();
}

/** Fold one fresh extractor's extractDetailed of @p module. */
uint64_t
foldExtraction(uint64_t hash, const ir::Module &module)
{
    extract::Extractor extractor;
    for (const auto &seq : extractor.extractDetailed(module)) {
        hash = fnvFold(hash, seq.wrapped->name());
        hash = fnvFold(hash, ir::printFunctionCanonical(*seq.wrapped));
        for (const auto &site : seq.sites) {
            hash = foldWord(hash, indexOf(module.functions(), site.fn));
            hash = foldWord(hash, indexOf(site.fn->blocks(), site.block));
            for (const ir::Instruction *inst : site.insts)
                hash = foldWord(
                    hash, indexOf(site.block->instructions(), inst));
            hash = fnvFold(hash, ";");
        }
    }
    const extract::ExtractionStats &stats = extractor.stats();
    for (uint64_t counter :
         {stats.sequences_considered, stats.length_filtered,
          stats.unwrappable_skipped, stats.duplicates_skipped,
          stats.still_optimizable_skipped, stats.extracted,
          stats.hash_collisions})
        hash = foldWord(hash, counter);
    return hash;
}

/** The module-cold-style draw: 20 largeModule(·, 16, 3) modules. */
std::vector<std::unique_ptr<ir::Module>>
moduleColdDraw(ir::Context &ctx)
{
    corpus::CorpusGenerator generator(ctx);
    std::vector<std::unique_ptr<ir::Module>> modules;
    for (unsigned i = 0; i < 20; ++i)
        modules.push_back(
            generator.largeModule(mix(1'000'003ull + i), 16, 3));
    return modules;
}

} // namespace

TEST(ExtractionPin, ProfileModule)
{
    ir::Context ctx;
    corpus::CorpusGenerator generator(ctx);
    auto module = generator.largeModule(7, 200, 3);
    EXPECT_EQ(foldExtraction(kFnvBasis, *module), 0xaa4f92943b7fd0cbull);
}

TEST(ExtractionPin, ModuleColdDraw)
{
    ir::Context ctx;
    uint64_t hash = kFnvBasis;
    for (const auto &module : moduleColdDraw(ctx))
        hash = foldExtraction(hash, *module);
    EXPECT_EQ(hash, 0x1b0e56094eb86539ull);
}

TEST(ExtractionPin, StructuralHashOverCorpus)
{
    ir::Context ctx;
    text_corpus::Corpus corpus = text_corpus::build(ctx);
    ASSERT_FALSE(corpus.groups.empty());
    uint64_t hash = kFnvBasis;
    for (const auto &group : corpus.groups)
        for (const ir::Function *fn : group.functions)
            hash = foldWord(hash, ir::structuralHash(*fn));
    EXPECT_EQ(hash, 0x09ed0e75442dde24ull);
}

TEST(ExtractionPin, McaSummaryOverCorpus)
{
    ir::Context ctx;
    text_corpus::Corpus corpus = text_corpus::build(ctx);
    ASSERT_FALSE(corpus.groups.empty());
    uint64_t hash = kFnvBasis;
    for (const auto &group : corpus.groups)
        for (const ir::Function *fn : group.functions) {
            mca::CostSummary summary = mca::analyzeFunction(*fn);
            hash = foldWord(hash, summary.instruction_count);
            hash = foldDouble(hash, summary.total_cycles);
            hash = foldDouble(hash, summary.critical_path);
            hash = foldDouble(hash, summary.issue_bound);
        }
    EXPECT_EQ(hash, 0xd0326d722a78f23bull);
}

TEST(ExtractionPin, UnchangedProbeLeavesSequenceAlone)
{
    // The extractor skips the structural compare when the pipeline
    // reports no change; that is sound only if no pass mutates
    // without saying so. Check it on every distinct wrapped sequence
    // of both inputs.
    ir::Context ctx;
    corpus::CorpusGenerator generator(ctx);
    std::vector<std::unique_ptr<ir::Module>> modules = moduleColdDraw(ctx);
    modules.push_back(generator.largeModule(7, 200, 3));
    const opt::PassManager pipeline = opt::PassManager::standardPipeline();
    std::set<std::string> seen;
    unsigned probed = 0;
    for (const auto &module : modules)
        for (const auto &fn : module->functions())
            for (const auto &bb : fn->blocks())
                for (const auto &seq :
                     extract::Extractor::extractSeqsFromBB(*bb)) {
                    auto wrapped = extract::Extractor::wrapAsFunction(
                        ctx, seq, "probe");
                    if (!wrapped ||
                        !seen.insert(ir::printFunctionCanonical(*wrapped))
                             .second)
                        continue;
                    auto copy = wrapped->clone(wrapped->name());
                    ++probed;
                    if (!pipeline.run(*copy))
                        EXPECT_TRUE(ir::structurallyEqual(*wrapped, *copy))
                            << ir::printFunction(*wrapped);
                }
    EXPECT_GT(probed, 500u);
}
