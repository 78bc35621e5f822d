/**
 * @file
 * Refinement checking (the Alive2 substitute).
 *
 * Given a source/target function pair, decides whether target refines
 * source: for every input on which the source is defined, the target
 * must be defined and produce the same value; the target may only
 * remove nondeterminism (poison), never add it.
 *
 * Two backends:
 *  - "sat": sound bit-blasting over the pure integer fragment
 *    (scalar + vector, no memory/FP), with counterexample extraction;
 *  - "exhaustive"/"sampled": bounded concrete testing through the
 *    interpreter for everything else (floating point, loads, geps),
 *    mirroring Alive2's own boundedness.
 *
 * Incorrect results carry an Alive2-style counterexample string that
 * the LPO loop feeds back to the LLM.
 */
#ifndef LPO_VERIFY_REFINE_H
#define LPO_VERIFY_REFINE_H

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "interp/interp.h"
#include "ir/function.h"

namespace lpo::verify {

class VerifyCache;

/** The verifier's verdict for a candidate transformation. */
enum class Verdict {
    Correct,      ///< target refines source (within backend bounds)
    Incorrect,    ///< counterexample found
    Unsupported,  ///< function outside every backend's fragment
    BadSignature, ///< src/tgt signatures differ (fixable LLM mistake)
    Timeout,      ///< solver budget exhausted (no escalation ladder),
                  ///< or the solve was interrupted
    Degraded,     ///< every SAT tier exhausted; the candidate merely
                  ///< survived bounded concrete testing — explicitly
                  ///< NOT a proof, so it can never patch
};

/**
 * The SAT and ladder work one checkRefinement call performed. A cache
 * hit performs none and reports all zeros, so totals describe work
 * done, not a scheduling-independent quantity: with a shared cache in
 * a parallel run the work of a shared query lands on whichever caller
 * computed it. Verdicts stay byte-identical regardless (see DESIGN.md,
 * "Verification result cache").
 */
struct VerifyWork
{
    uint64_t solves = 0;       ///< SAT solver runs (one per ladder tier)
    uint64_t decisions = 0;
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    uint64_t restarts = 0;
    uint64_t escalations = 0;        ///< tier bumps after an exhausted
                                     ///< solve (learnt clauses kept)
    uint64_t concrete_fallbacks = 0; ///< SAT queries degraded to the
                                     ///< bounded concrete backend
    uint64_t exhaustive_rescues = 0; ///< fallbacks that still concluded
                                     ///< soundly (full input-space
                                     ///< enumeration)
    uint64_t degraded = 0;           ///< queries ending in Degraded
    /** Circuit builder work (smt::CircuitBuilder): variables built,
     *  and those emitted to the solver (none when the miter folds to
     *  false). */
    uint64_t circuit_nodes = 0;
    uint64_t circuit_emitted = 0;
    /** Queries the SAT backend encoded, and those of them decided over
     *  word-level terms, before any circuit was built. */
    uint64_t sat_queries = 0;
    uint64_t term_decided = 0;
    /** Wall time spent encoding the query and in the solver: real
     *  time, reported by --profile, never compared for determinism. */
    uint64_t encode_ns = 0;
    uint64_t solve_ns = 0;
};

/** A concrete input violating refinement. */
struct Counterexample
{
    interp::ExecutionInput input;
    std::string source_value;
    std::string target_value;
};

/** Full result of a refinement query. */
struct RefinementResult
{
    Verdict verdict = Verdict::Unsupported;
    std::string backend;        ///< "sat", "exhaustive", or "sampled"
    std::string detail;         ///< human-readable explanation
    std::optional<Counterexample> counterexample;
    /** Work this call performed (all zero on a cache hit). */
    VerifyWork work;

    bool correct() const { return verdict == Verdict::Correct; }

    /** Alive2-style feedback message for the LLM loop. */
    std::string feedbackMessage(const ir::Function &src) const;
};

/** Tunables for the checker. */
struct RefineOptions
{
    /** SAT conflict budget before reporting Timeout (0 = unlimited).
     *  Ignored when budget_tiers is non-empty. */
    uint64_t conflict_budget = 2'000'000;
    /**
     * Budget-escalation ladder. Empty (the default) preserves the
     * single-shot behavior: one solve under conflict_budget, Timeout
     * on exhaustion. Non-empty, each SAT query solves under
     * budget_tiers[0] additional conflicts, then — on exhaustion —
     * re-solves the same solver under the next tier (learnt clauses
     * and phase saving carry over, so escalation resumes rather than
     * restarts the proof). A query that exhausts the final tier never
     * reports Timeout: it degrades to the bounded concrete backend,
     * whose outcome is either sound (counterexample, or exhaustive
     * enumeration) or Verdict::Degraded. Every step is counted in
     * RefinementResult::work.
     */
    std::vector<uint64_t> budget_tiers;
    /** Max total input bits for exhaustive concrete testing. */
    unsigned exhaustive_bit_limit = 16;
    /** Number of random inputs for the sampled backend. */
    unsigned sample_count = 20'000;
    /** Seed for the sampled backend. */
    uint64_t seed = 0xA11CE;
    /**
     * Threads for the concrete-testing sweep (0 = hardware
     * concurrency, 1 = serial). The sweep runs one task per input
     * chunk on a TaskScope local to the call; a sweep that fits in one
     * chunk always runs serially. A pipeline whose case fan-out has
     * more than one thread passes 1 to its case tasks (they already
     * fill the machine); otherwise its configured value stands.
     * Results are bit-identical for every thread count: inputs are
     * derived from their index alone and the lowest violating input
     * index always wins (see DESIGN.md, "Deterministic parallelism").
     */
    unsigned num_threads = 0;
    /**
     * Optional cross-query result cache (not owned; may be shared by
     * concurrent callers). Results are bit-identical with and without
     * it — hits re-derive their counterexample instead of re-proving.
     */
    VerifyCache *cache = nullptr;
    /**
     * Optional cooperative-cancellation flag (not owned). When it
     * becomes true, in-flight SAT solves return at the next conflict
     * boundary and the query reports Timeout at once: no further
     * ladder tier, no concrete fallback, and nothing recorded in the
     * cache (or the store behind it), so the same query asked again
     * without the flag is computed afresh.
     */
    const std::atomic<bool> *interrupt = nullptr;
    /**
     * A second flag with the same effect, honoured alongside
     * @c interrupt. A pipeline with a case fan-out plugs its
     * TaskScope::cancelFlag() in here, so a cancelled scope drains
     * instead of finishing multi-million-conflict proofs while the
     * caller's own interrupt still holds.
     */
    const std::atomic<bool> *scope_interrupt = nullptr;

    /** True once either cancellation flag is raised. */
    bool
    interrupted() const
    {
        return (interrupt && interrupt->load(std::memory_order_relaxed)) ||
               (scope_interrupt &&
                scope_interrupt->load(std::memory_order_relaxed));
    }
};

/** Check whether @p tgt refines @p src. */
RefinementResult checkRefinement(const ir::Function &src,
                                 const ir::Function &tgt,
                                 const RefineOptions &options = {});

/**
 * Every option that can change a verdict or its rendering, as the
 * suffix of the verification cache key; the pipeline's miss records
 * embed it too, so the two keys cannot drift apart. num_threads,
 * cache and the interrupt flags are deliberately excluded: results are
 * bit-identical at any thread count and with the cache on or off, and
 * an interrupted answer is never remembered.
 */
std::string verifyOptionsKey(const RefineOptions &options);

/**
 * True if checkRefinement would decide (src, tgt) with the SAT
 * backend (both in the encodable fragment, input space small enough
 * to bit-blast). Exposed so the throughput benchmark measures exactly
 * the queries production dispatches to SAT.
 */
bool usesSatBackend(const ir::Function &src, const ir::Function &tgt);

/**
 * Interesting scalar input patterns tried for every integer argument
 * of the sampled backend (exposed for testing): all values fit
 * @p width and the list is duplicate-free, including the degenerate
 * width-1 case.
 */
std::vector<uint64_t> specialPatterns(unsigned width);

} // namespace lpo::verify

#endif // LPO_VERIFY_REFINE_H
