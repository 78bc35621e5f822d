/**
 * @file
 * Instruction-sequence extraction (paper §3.2, Algorithm 2).
 *
 * For every basic block of every function in a module, collects all
 * maximal dependent instruction sequences by scanning instructions in
 * reverse order, wraps each sequence as a standalone function whose
 * undefined operands become arguments, discards sequences the
 * in-tree optimizer can still improve (they would be uninteresting by
 * construction), and deduplicates by structural hash with a
 * structural-equality confirmation (a 64-bit hash collision must
 * never silently drop a distinct sequence).
 *
 * extractDetailed() additionally records every occurrence site of
 * each unique sequence, which is what lets core::ModuleOptimizer
 * patch a verified rewrite back into all the places the sequence came
 * from.
 */
#ifndef LPO_EXTRACT_EXTRACTOR_H
#define LPO_EXTRACT_EXTRACTOR_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/module.h"

namespace lpo::extract {

/**
 * Extraction statistics (paper: 800k unique, 8.7M duplicates).
 *
 * The outcome counters partition sequences_considered:
 *
 *   sequences_considered == length_filtered + unwrappable_skipped
 *       + duplicates_skipped + still_optimizable_skipped + extracted
 *
 * hash_collisions is an event counter outside the partition: it
 * counts sequences whose 64-bit structural hash matched a previously
 * seen but structurally different sequence (the sequence itself still
 * lands in one of the partition buckets, usually `extracted`).
 */
struct ExtractionStats
{
    uint64_t sequences_considered = 0;
    /** Outside [kMinSequenceLength, kMaxSequenceLength]. */
    uint64_t length_filtered = 0;
    /** wrapAsFunction declined (e.g. a void-typed tail). */
    uint64_t unwrappable_skipped = 0;
    /** Structurally identical to an already-processed sequence
     *  (whether that one was extracted or rejected as optimizable). */
    uint64_t duplicates_skipped = 0;
    uint64_t still_optimizable_skipped = 0;
    uint64_t extracted = 0;
    /** Same hash, different structure (see above). */
    uint64_t hash_collisions = 0;
};

/** Sequences shorter than this many instructions are skipped. */
constexpr unsigned kMinSequenceLength = 2;
/** Sequences longer than this many instructions are skipped. */
constexpr unsigned kMaxSequenceLength = 24;

/** Tunables. */
struct ExtractorOptions
{
    /**
     * Admit load/gep instructions as sequence members. Off by
     * default: memory-touching wrapped sequences are outside the SAT
     * encoder's fragment, so their verification falls back to the
     * bounded concrete backends — callers that want that behavior opt
     * in explicitly (and the pure subsequences around an excluded
     * load/gep are still extracted, with the memory value as an
     * argument).
     */
    bool allow_memory = false;
    /**
     * Test seam: structural hashes are masked with this before dedup
     * bucketing. Production leaves it at ~0 (full 64-bit hashes);
     * tests set 0 to force every sequence into one bucket and
     * exercise the collision-confirmation path.
     */
    uint64_t hash_mask = ~uint64_t(0);
};

/** One occurrence of a sequence in the scanned module. */
struct SequenceSite
{
    const ir::Function *fn = nullptr;
    const ir::BasicBlock *block = nullptr;
    /** Members in block order; the last one is the sequence tail. */
    std::vector<const ir::Instruction *> insts;
};

/** A unique wrapped sequence plus everywhere it occurred. */
struct ExtractedSequence
{
    std::unique_ptr<ir::Function> wrapped;
    /**
     * All occurrences seen by the extractDetailed call that produced
     * this entry (duplicates dedup'd against *earlier* calls carry no
     * sites here — their unique sequence belongs to that call).
     */
    std::vector<SequenceSite> sites;
};

/** Extractor with a persistent dedup set across modules. */
class Extractor
{
  public:
    explicit Extractor(ExtractorOptions options = {})
        : options_(options)
    {}

    /**
     * Extract all unique dependent sequences from @p module, wrapped
     * as functions (named seq<N>).
     */
    std::vector<std::unique_ptr<ir::Function>>
    extractFromModule(const ir::Module &module);

    /**
     * As extractFromModule, but with every occurrence site recorded
     * (the module-optimizer entry point). Sites are grouped under the
     * unique sequence extracted by THIS call; a sequence dedup'd
     * against an earlier call carries no sites, so patch-back callers
     * must use a fresh Extractor per module (as core::ModuleOptimizer
     * does) — reuse an extractor across modules only for the paper's
     * corpus-wide dedup statistics.
     */
    std::vector<ExtractedSequence>
    extractDetailed(const ir::Module &module);

    /** Sequences from one basic block (Algorithm 2's inner helper). */
    static std::vector<std::vector<const ir::Instruction *>>
    extractSeqsFromBB(const ir::BasicBlock &bb,
                      const ExtractorOptions &options = {});

    /**
     * Wrap an instruction sequence as a standalone function: undefined
     * operands become arguments (in first-use order) and the last
     * instruction's value is returned.
     */
    static std::unique_ptr<ir::Function>
    wrapAsFunction(ir::Context &context,
                   const std::vector<const ir::Instruction *> &seq,
                   const std::string &name);

    /**
     * The ordered operand list wrapAsFunction turns into arguments:
     * every non-constant operand defined outside @p seq, by first
     * use. Exposed so patch-back can map a verified rewrite's
     * arguments to the original values at a site.
     */
    static std::vector<ir::Value *>
    outsideOperands(const std::vector<const ir::Instruction *> &seq);

    const ExtractionStats &stats() const { return stats_; }

  private:
    /** One distinct sequence seen by this extractor. */
    struct Seen
    {
        std::string canonical;
        /** The extractDetailed call that extracted it, and its index
         *  in that call's result (kNotExtracted when rejected). */
        uint64_t call = 0;
        size_t index = 0;
    };
    static constexpr size_t kNotExtracted = ~size_t(0);

    ExtractorOptions options_;
    ExtractionStats stats_;
    /**
     * hash -> every distinct sequence seen with that hash (extracted
     * AND rejected-as-optimizable, so repeats of either skip the
     * optimizer probe). Keeping the full canonical text is what makes
     * the collision confirmation sound; it costs on the order of the
     * printed sequence per unique sequence, which is fine at module
     * scale (the module optimizer runs one extractor per module) — a
     * paper-scale 800k-unique extraction run that must bound memory
     * should shard extractors per corpus slice.
     */
    std::unordered_map<uint64_t, std::vector<Seen>> dedup_;
    uint64_t calls_ = 0;
    uint64_t next_id_ = 0;
};

} // namespace lpo::extract

#endif // LPO_EXTRACT_EXTRACTOR_H
