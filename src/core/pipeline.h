/**
 * @file
 * The LPO closed loop (paper Fig. 2 / Algorithm 1).
 *
 * For each instruction sequence: ask the configured proposer backend
 * for a candidate (the LLM, the e-graph equality-saturation engine,
 * or the hybrid of both — see core/proposer.h); syntax-check and
 * canonicalize the candidate with the opt driver; gate on
 * interestingness; verify refinement with the translation validator;
 * on failure, feed the error message or counterexample back to the
 * proposer and retry up to ATTEMPT_LIMIT times. The LPO- ablation
 * disables the feedback loop.
 */
#ifndef LPO_CORE_PIPELINE_H
#define LPO_CORE_PIPELINE_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/proposer.h"
#include "extract/extractor.h"
#include "ir/module.h"
#include "llm/client.h"
#include "support/task_graph.h"
#include "verify/cache.h"
#include "verify/refine.h"

namespace lpo::core {

/** Pipeline configuration. */
struct PipelineConfig
{
    /** Max LLM attempts per sequence (paper: 2). */
    unsigned attempt_limit = 2;
    /** False selects the LPO- ablation (no feedback, single shot). */
    bool enable_feedback = true;
    verify::RefineOptions refine;
    /** Fixed non-LLM overhead (opt + checks) in simulated seconds. */
    double overhead_seconds = 0.5;
    /** Additional simulated seconds per verifier invocation. */
    double verify_seconds = 0.4;
    /**
     * Threads for processModule's per-sequence fan-out (0 = hardware
     * concurrency; 1 reproduces the original serial behavior). Every
     * thread count produces bit-identical outcomes and stats: each
     * case's seed depends only on its position, workers run cases in
     * isolated per-thread IR contexts, and per-case stat deltas are
     * merged in sequence order (see DESIGN.md, "Deterministic
     * parallelism").
     */
    unsigned num_threads = 0;
    /**
     * Share a verification result cache across all cases and workers
     * (see verify/cache.h). Outcomes and stats are bit-identical with
     * the cache on or off; only the cache hit/miss counters differ.
     */
    bool enable_verify_cache = true;
    /**
     * Candidate-generation backend (see core/proposer.h). Hybrid runs
     * the LLM loop first and falls back to the e-graph when it ends
     * in any failure the e-graph could overcome (NoCandidate,
     * Incorrect, SyntaxError, NotInteresting), so hybrid's verified
     * findings are always a superset of the LLM's at equal settings.
     */
    ProposerKind proposer = ProposerKind::Llm;
    /** E-graph saturation budgets (egraph / hybrid modes). */
    egraph::SaturationLimits egraph_limits;
    /**
     * Directory of the crash-safe persistent verify store (empty =
     * no persistence; see verify/persist.h). On construction the
     * pipeline seeds its verify cache from `verify.lpo` and loads the
     * learned rewrite catalog from `catalog.lpo`; fresh verdicts and
     * rewrites are journaled back on flushStore()/destruction. In
     * hybrid mode the catalog runs as a zero-SAT-cost first proposer
     * leg. An unusable path degrades to in-memory operation with one
     * stderr warning — persistence never fails a run.
     */
    std::string store_path;
};

/** Why a case ended. */
enum class CaseStatus {
    Found,            ///< verified missed optimization recorded
    NotInteresting,   ///< candidate no better than the original
    Incorrect,        ///< verification kept failing
    SyntaxError,      ///< candidate never parsed
    Unsupported,      ///< verifier cannot handle the function
    NoCandidate,      ///< model echoed the input (nothing proposed)
    Degraded,         ///< verification budget ladder exhausted; the
                      ///< candidate only survived bounded testing
                      ///< (never patched)
    Error,            ///< an exception escaped the case and was
                      ///< contained (the run continued)
    Skipped,          ///< module step-budget deadline hit before this
                      ///< case ran
};

const char *caseStatusName(CaseStatus status);

/** Full record of one sequence's trip through the loop. */
struct CaseOutcome
{
    CaseStatus status = CaseStatus::NoCandidate;
    unsigned attempts = 0;
    std::string candidate_text;    ///< verified optimized function
    std::string last_feedback;     ///< final feedback message (if any)
    double llm_seconds = 0.0;      ///< simulated LLM latency
    double total_seconds = 0.0;    ///< simulated end-to-end latency
    double cost_usd = 0.0;
    std::string verifier_backend;  ///< "sat"/"exhaustive"/"sampled"
    std::string proposer;          ///< backend of the final attempt
                                   ///< ("llm" or "egraph")
    /**
     * Deterministic work units this case consumed (SAT conflicts
     * performed + candidate attempts) — the currency of the module
     * step-budget deadline. Wall-clock never enters, so deadline cuts
     * reproduce across machines (see core/module_opt.h).
     */
    uint64_t step_cost = 0;

    bool found() const { return status == CaseStatus::Found; }
};

/**
 * Wall-clock attribution by pipeline phase, in nanoseconds.
 *
 * Unlike every other PipelineStats field these are measurements of
 * real time, so they vary run to run and thread count to thread
 * count; determinism tests must never compare them (and none do —
 * the byte-identity contract covers outcomes and work counters).
 * All zero when telemetry is disabled: the accumulation is fed by
 * telemetry::ScopedTimer, which is inert then. propose/verify fold
 * per case in sequence order with the other per-case deltas;
 * extract/patch/dce/total are folded in by ModuleOptimizer via
 * Pipeline::addStageTimings().
 */
struct StageTimings
{
    uint64_t extract_ns = 0;
    uint64_t propose_ns = 0;
    uint64_t verify_ns = 0;
    uint64_t patch_ns = 0;
    uint64_t dce_ns = 0;
    uint64_t total_ns = 0;
};

/** Aggregate statistics over a run. */
struct PipelineStats
{
    uint64_t cases = 0;
    uint64_t found = 0;
    uint64_t llm_calls = 0;
    uint64_t verifier_calls = 0;
    uint64_t syntax_errors = 0;
    uint64_t incorrect_candidates = 0;
    uint64_t not_interesting = 0;
    /**
     * Verification cache counters (absolute snapshots of the shared
     * cache, not per-run deltas). Compute-once semantics make both
     * counts thread-count-invariant: exactly one miss per distinct
     * query key, ever.
     */
    uint64_t verify_cache_hits = 0;
    uint64_t verify_cache_misses = 0;
    uint64_t verify_cache_evictions = 0;
    /**
     * SAT work counters (verify::SatTelemetry folded per case in
     * sequence order). They count solving actually performed, so with
     * the shared cache on in a parallel run the per-case attribution
     * of a shared query can move between workers; verdicts and
     * outcomes stay byte-identical regardless.
     */
    uint64_t sat_solves = 0;
    uint64_t sat_decisions = 0;
    uint64_t sat_conflicts = 0;
    uint64_t sat_propagations = 0;
    uint64_t sat_restarts = 0;
    /**
     * Always 0: every candidate is verified by its own one-shot
     * verify::checkRefinement call, so no solver is ever reused. Kept
     * only because the benchmark's smt.session_reuses metric still
     * reads it; both go away in the next change to the benchmark.
     */
    uint64_t session_reuses = 0;
    // Per-proposer accounting (surfaced by core::moduleSummary).
    uint64_t egraph_consults = 0;   ///< propose() calls on the e-graph
                                    ///< backend (a consult may decline
                                    ///< — unsupported function, retry —
                                    ///< without running a saturation)
    uint64_t egraph_proposals = 0;  ///< candidates the e-graph offered
    uint64_t found_by_llm = 0;      ///< findings from LLM attempts
    uint64_t found_by_egraph = 0;   ///< findings from e-graph attempts
    uint64_t hybrid_fallbacks = 0;  ///< hybrid cases that consulted
                                    ///< the e-graph after the LLM
    // Learned-catalog accounting (hybrid first leg; see
    // verify/persist.h and core::CatalogProposer).
    uint64_t catalog_consults = 0;  ///< propose() calls on the catalog
    uint64_t catalog_proposals = 0; ///< candidates the catalog offered
    uint64_t found_by_catalog = 0;  ///< findings replayed from it
    /**
     * Persistent-store accounting (absolute snapshots of the store's
     * StoreStats, like the cache counters above; all zero when no
     * store is configured). See verify/persist.h.
     */
    uint64_t store_cache_loaded = 0;
    uint64_t store_catalog_loaded = 0;
    uint64_t store_cache_flushed = 0;
    uint64_t store_catalog_flushed = 0;
    uint64_t store_flush_failures = 0;
    uint64_t store_recoveries = 0;
    uint64_t store_quarantined = 0;
    uint64_t store_rejected_files = 0;
    uint64_t store_decode_skipped = 0;
    /**
     * Degradation-ladder accounting (verify::DegradationStats folded
     * per case in sequence order; work-done semantics like the SAT
     * counters above). See DESIGN.md, "Fault containment and
     * degradation ladder".
     */
    uint64_t sat_escalations = 0;      ///< budget-tier bumps
    uint64_t concrete_fallbacks = 0;   ///< SAT queries degraded to the
                                       ///< concrete backend
    uint64_t exhaustive_rescues = 0;   ///< fallbacks still concluded
                                       ///< soundly (full enumeration)
    uint64_t degraded_verdicts = 0;    ///< queries ending Degraded
    uint64_t contained_exceptions = 0; ///< per-case exceptions caught
                                       ///< (CaseStatus::Error)
    double total_seconds = 0.0;
    double total_cost_usd = 0.0;
    /** Real-time phase attribution (never compared for determinism). */
    StageTimings timings;
    /**
     * Work-stealing scheduler counters folded over every parallel
     * processSequences fan-out. Pure scheduling telemetry: steal and
     * queue-depth figures depend on thread timing, so — like timings —
     * they are never part of any determinism comparison.
     */
    TaskGraphStats scheduler;
};

/** The LPO engine. */
class Pipeline
{
  public:
    /**
     * Opens the persistent store when config.store_path is set:
     * seeds the verify cache, loads the catalog, and prints one
     * stderr warning (then continues in-memory) if the path is
     * unusable. The destructor flushes pending store state.
     */
    Pipeline(llm::LlmClient &client, PipelineConfig config = {});
    ~Pipeline();

    /** Run the loop on one wrapped instruction sequence. */
    CaseOutcome optimizeSequence(const ir::Function &seq,
                                 uint64_t round_seed = 0);

    /**
     * Extract sequences from @p module and run the loop on each;
     * returns outcomes for every extracted sequence.
     */
    std::vector<CaseOutcome> processModule(const ir::Module &module,
                                           extract::Extractor &extractor,
                                           uint64_t round_seed = 0);

    /**
     * Run the loop on an already-extracted batch of sequences —
     * processModule minus the extraction, and the entry point
     * core::ModuleOptimizer shards its unique wrapped sequences
     * through. Outcomes are returned in input order and, like
     * processModule, are bit-identical for every thread count and
     * with the verify cache on or off (per-case stat deltas fold in
     * sequence order; each parallel worker re-parses its sequence
     * into a private Context).
     *
     * The parallel fan-out runs on a work-stealing task graph: each
     * sequence is one case task, and a chain of commit tasks — commit
     * i depends on case i and commit i-1 — folds stat deltas and
     * streams results out strictly in sequence order while later
     * cases are still running. @p on_commit, when set, is invoked
     * from that chain, once per sequence in index order, after the
     * case's stats have been folded; ModuleOptimizer patches results
     * back into the module from it. The callback must not call back
     * into this Pipeline. On the serial path it is invoked inline
     * after each case, preserving identical observable order.
     */
    std::vector<CaseOutcome>
    processSequences(const std::vector<const ir::Function *> &sequences,
                     uint64_t round_seed = 0,
                     const std::function<void(size_t, const CaseOutcome &)>
                         &on_commit = {});

    const PipelineStats &stats() const { return stats_; }

    /**
     * Fold module-level phase timings (extract/patch/dce/total,
     * measured by ModuleOptimizer around this pipeline) into stats().
     */
    void addStageTimings(const StageTimings &timings);

    /**
     * Journal pending verdicts and learned rewrites to the store and
     * fsync (no-op without a store). Called by the destructor too;
     * exposed so module runs can persist before reporting. Returns
     * false if any record failed to append (counted in stats).
     */
    bool flushStore();

    /**
     * Snapshot-compact the store (flush + rewrite both files as
     * deduplicated snapshots; see verify::PersistentStore::compact).
     * False with @p error when no store is configured, the store is
     * read-only, or a snapshot failed. Callers run this between
     * requests, never inside one.
     */
    bool compactStore(std::string *error = nullptr);

    /**
     * Drop pending (unflushed) store records — the fault-quarantine
     * path (see verify::PersistentStore::discardPending). No-op
     * without a store.
     */
    void discardPendingStore();

    /** The open persistent store, or nullptr (no store_path / path
     *  unusable). */
    const verify::PersistentStore *store() const { return store_.get(); }

  private:
    /**
     * One sequence's trip through the loop, accounted into @p stats,
     * verifying with @p refine (case tasks pass a serial copy so
     * per-case sweeps don't fan out a second hardware-wide scheduler;
     * by the deterministic-parallelism contract this cannot change
     * results).
     * Dispatches to the configured proposer; in Hybrid mode runs the
     * LLM attempt loop and falls back to the e-graph on
     * NoCandidate/Incorrect.
     */
    CaseOutcome runCase(const ir::Function &seq, uint64_t round_seed,
                        PipelineStats &stats,
                        const verify::RefineOptions &refine);

    /** The propose -> opt -> gate -> verify attempt loop over one
     *  backend (Algorithm 1's body, proposer-agnostic), verifying
     *  every candidate with verify::checkRefinement under @p refine. */
    CaseOutcome runAttemptLoop(Proposer &proposer,
                               const ir::Function &seq,
                               uint64_t round_seed, PipelineStats &stats,
                               const verify::RefineOptions &refine);

    /** runAttemptLoop behind crash isolation: an escaping exception
     *  becomes a CaseStatus::Error outcome, never a lost run. */
    CaseOutcome runLegContained(Proposer &proposer,
                                const ir::Function &seq,
                                uint64_t round_seed, PipelineStats &stats,
                                const verify::RefineOptions &refine);

    /** Copy the shared cache's and store's counters into stats_. */
    void refreshCacheStats();

    /** Fold one case's stat delta into stats_. Field-by-field in a
     *  fixed order so parallel totals (including the doubles) are
     *  bit-identical to serial accumulation; called from the ordered
     *  commit chain, never concurrently. */
    void foldStats(const PipelineStats &delta);

    llm::LlmClient &client_;
    PipelineConfig config_;
    PipelineStats stats_;
    /** Proposer backends (shared by all workers; see the Proposer
     *  thread-safety contract). Declared after config_: the e-graph
     *  proposer copies its budgets from it. */
    LlmProposer llm_proposer_{client_};
    EGraphProposer egraph_proposer_{config_.egraph_limits};
    /** Shared across every case and worker thread for the lifetime
     *  of the pipeline, so repeat candidates across modules hit. The
     *  entry cap bounds memory on long-running deployments (oldest
     *  entries evicted per shard); it is far above any single run's
     *  distinct-query count, so stats stay thread-count-invariant in
     *  practice (see verify/cache.h). */
    verify::VerifyCache verify_cache_{16, size_t(1) << 20};
    /** Open store for config_.store_path, or null. Declared after
     *  verify_cache_ (it seeds the cache and hooks its publishes) and
     *  before catalog_proposer_ (which reads its catalog). */
    std::unique_ptr<verify::PersistentStore> store_;
    CatalogProposer catalog_proposer_{nullptr};
};

/**
 * Publish one fan-out's scheduler counters to the metrics registry.
 * Counts (tasks, steals, idle time) add up across fan-outs;
 * sched.queue_depth_max is a maximum, so each fan-out's depth is
 * recorded into a histogram whose snapshot max is the deepest single
 * fan-out.
 */
void recordSchedulerMetrics(const TaskGraphStats &stats);

} // namespace lpo::core

#endif // LPO_CORE_PIPELINE_H
