/**
 * @file
 * Module-scale extract -> optimize -> patch-back (paper §3.2,
 * Algorithm 2, closed over whole modules).
 *
 * The LPO loop operates on wrapped instruction sequences; this is the
 * layer that credits its findings back to the program they came from.
 * ModuleOptimizer runs extract::Extractor over an input module (with
 * occurrence sites recorded), shards the unique wrapped sequences
 * through core::Pipeline — one shared verification cache and
 * deterministic sequence-order stat folding — and then splices every
 * verified improvement back into its source functions:
 * the rewrite's body is cloned at the sequence anchor with its
 * arguments remapped to the original outside-sequence operands, all
 * users of the sequence tail are redirected to the new result, and a
 * DCE sweep removes the now-dead originals. Patched functions are
 * re-validated with ir::isValid and their mca cycle estimate is
 * re-measured, so a run reports exactly how many cycles the module
 * gained (see DESIGN.md, "Module pipeline", for the soundness and
 * determinism arguments).
 */
#ifndef LPO_CORE_MODULE_OPT_H
#define LPO_CORE_MODULE_OPT_H

#include <set>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "extract/extractor.h"
#include "ir/module.h"

namespace lpo::core {

/** Configuration for a module optimization run. */
struct ModuleOptOptions
{
    /** Proposer / threads / cache / verification knobs. */
    PipelineConfig pipeline;
    /** Extraction window and memory policy. */
    extract::ExtractorOptions extractor;
    /**
     * Deterministic deadline for the whole run, measured in case step
     * costs (SAT conflicts performed + candidate attempts — never
     * wall-clock, so the cut point reproduces across machines). 0
     * disables the deadline (the default: one wave covering every
     * sequence, no extra cost).
     * When positive, sequences are processed in fixed-size waves; once
     * the cumulative step cost crosses the budget at a wave boundary,
     * every remaining sequence is reported CaseStatus::Skipped and the
     * run proceeds straight to patch-back with what it has — a valid
     * partial result. The in-flight wave always completes, so the
     * overshoot is bounded by one wave's ladder budgets.
     */
    uint64_t step_budget = 0;
    /**
     * Wave size for deadline enforcement. Thread-count independent by
     * construction; with the verify cache off the cut point is
     * byte-identical at any thread count (see DESIGN.md, "Fault
     * containment and degradation ladder" for the cache-on caveat).
     */
    uint64_t deadline_wave = 64;

    ModuleOptOptions()
    {
        // Module-scale traffic favors throughput, but a flat budget
        // wastes the easy proofs' headroom: the escalation ladder
        // starts every query cheap, escalates the few that need it
        // (keeping learnt clauses), and degrades the pathological
        // tail to bounded testing instead of stalling the run.
        pipeline.refine.conflict_budget = 200'000;
        pipeline.refine.budget_tiers = {50'000, 200'000, 2'000'000};
    }

    /** Adopt @p config but keep the module-scale budgets above (the
     *  one-shot defaults would let one adversarial sequence stall the
     *  run). They feed verifyOptionsKey, hence cache and miss keys. */
    void adoptPipeline(PipelineConfig config)
    {
        config.refine.conflict_budget = pipeline.refine.conflict_budget;
        config.refine.budget_tiers = std::move(pipeline.refine.budget_tiers);
        pipeline = std::move(config);
    }
};

/** Before/after accounting for one source function. */
struct FunctionSavings
{
    std::string function;
    unsigned insts_before = 0;
    unsigned insts_after = 0;
    double cycles_before = 0.0;
    double cycles_after = 0.0;
    /** Rewrite sites spliced into this function. */
    unsigned patched = 0;
};

/** One applied patch (for reports and the per-family accounting). */
struct PatchRecord
{
    std::string function;
    /** Index into ModuleOptResult::functions — names need not be
     *  unique in a parsed module, so bookkeeping keys on this. */
    size_t function_index = 0;
    std::string block;      ///< label of the block holding the anchor
    unsigned seq_length = 0;
    size_t sequence_index = 0; ///< index into ModuleOptResult::outcomes
};

/** Everything a ModuleOptimizer::optimize call produced. */
struct ModuleOptResult
{
    /** Per unique wrapped sequence, in extraction order. */
    std::vector<CaseOutcome> outcomes;
    /** Per source function, in module order. */
    std::vector<FunctionSavings> functions;
    std::vector<PatchRecord> patches;
    extract::ExtractionStats extraction;
    /** Pipeline stats snapshot after this run. */
    PipelineStats pipeline;
    uint64_t unique_sequences = 0;
    /** Sites a verified rewrite was spliced into. */
    uint64_t patched_rewrites = 0;
    /** Sites skipped because a pre-splice check failed (always 0
     *  unless extraction and verification disagree — a bug). */
    uint64_t patch_failures = 0;
    /** Patched functions ir::isValid rejected (always 0 on sound
     *  patch-back; checked by tests and the benchmark). Such
     *  functions are rolled back to their pre-patch body. */
    uint64_t invalid_functions = 0;
    /**
     * Functions restored to their pre-patch body because the patched
     * version cost MORE mca cycles (the interestingness gate orders
     * by instruction count first, so a smaller rewrite with a longer
     * critical path can locally regress; the rollback makes
     * per-function cycle savings monotone). Their sites are excluded
     * from patched_rewrites and `patches`.
     */
    uint64_t functions_rolled_back = 0;
    /** Sequences never processed because the step-budget deadline hit
     *  first (their outcomes read CaseStatus::Skipped). */
    uint64_t deadline_skipped = 0;
    /** Step cost consumed by the processed sequences (the deadline's
     *  currency; see ModuleOptOptions::step_budget). */
    uint64_t steps_used = 0;
    double cycles_before = 0.0;
    double cycles_after = 0.0;
    unsigned dce_removed = 0;
};

/**
 * The module-scale optimizer. Owns one Pipeline, so the verification
 * cache (and its hit statistics) persists across optimize() calls —
 * repeated sequences in later modules verify for free. Extraction
 * dedup, by contrast, is per call: every module must surface all its
 * own occurrence sites or patch-back would silently skip sequences
 * first seen in an earlier module.
 */
class ModuleOptimizer
{
  public:
    ModuleOptimizer(llm::LlmClient &client, ModuleOptOptions options = {});

    /**
     * Optimize @p module in place. Deterministic: the patched module
     * text is byte-identical for every pipeline thread count and with
     * the verification cache on or off.
     */
    ModuleOptResult optimize(ir::Module &module, uint64_t round_seed = 1);

    const PipelineStats &pipelineStats() const { return pipeline_.stats(); }

    /** Journal pending store state now (optimize() already flushes at
     *  the end of every call); see Pipeline::flushStore. */
    bool flushStore() { return pipeline_.flushStore(); }

    /** Snapshot-compact the store; see Pipeline::compactStore. */
    bool compactStore(std::string *error = nullptr)
    {
        return pipeline_.compactStore(error);
    }

    /** Drop unflushed store records (fault quarantine); see
     *  Pipeline::discardPendingStore. */
    void discardPendingStore() { pipeline_.discardPendingStore(); }

    /** The pipeline's open persistent store, or nullptr. */
    const verify::PersistentStore *store() const
    {
        return pipeline_.store();
    }

  private:
    /** Per-function fresh-name state for spliced instructions: one
     *  monotone counter plus the set of names already in use (seeded
     *  from the function once, on first patch). */
    struct NameAllocator
    {
        unsigned counter = 0;
        std::set<std::string> taken;
        bool seeded = false;
    };

    /**
     * Splice @p tgt (the verified rewrite of the sequence wrapped at
     * @p site) into the site's function. Returns false — touching
     * nothing — if a defensive pre-check fails.
     */
    bool applyRewrite(const extract::SequenceSite &site,
                      const ir::Function &tgt, NameAllocator *names);

    ModuleOptOptions options_;
    Pipeline pipeline_;
};

/** Render the per-function savings table (functions with patches,
 *  plus a module total row) for the CLI and the benchmark. */
std::string savingsTable(const ModuleOptResult &result);

} // namespace lpo::core

#endif // LPO_CORE_MODULE_OPT_H
