#include "core/pipeline.h"

#include <cstdio>

#include "core/interestingness.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "opt/opt_driver.h"
#include "support/telemetry.h"
#include "support/trace.h"

namespace lpo::core {

namespace {

const char *
verdictLabel(verify::Verdict verdict)
{
    switch (verdict) {
      case verify::Verdict::Correct: return "correct";
      case verify::Verdict::Incorrect: return "incorrect";
      case verify::Verdict::Unsupported: return "unsupported";
      case verify::Verdict::BadSignature: return "bad-signature";
      case verify::Verdict::Timeout: return "timeout";
      case verify::Verdict::Degraded: return "degraded";
    }
    return "?";
}

/** Per-leg propose latency (catalog / llm / egraph). */
telemetry::Histogram
proposerHistogram(Proposer::Backend backend)
{
    static const telemetry::Histogram catalog =
        telemetry::histogram("proposer.catalog_ns");
    static const telemetry::Histogram llm =
        telemetry::histogram("proposer.llm_ns");
    static const telemetry::Histogram egraph =
        telemetry::histogram("proposer.egraph_ns");
    switch (backend) {
      case Proposer::Backend::Catalog: return catalog;
      case Proposer::Backend::Llm: return llm;
      case Proposer::Backend::EGraph: return egraph;
    }
    return llm;
}

} // namespace

Pipeline::Pipeline(llm::LlmClient &client, PipelineConfig config)
    : client_(client), config_(std::move(config))
{
    if (config_.store_path.empty())
        return;
    std::string warning;
    store_ = verify::PersistentStore::open(config_.store_path,
                                           &verify_cache_, &warning);
    if (!warning.empty())
        // Once, at construction: persistence problems degrade to
        // in-memory operation, they never abort or fail the run.
        std::fprintf(stderr, "lpo: warning: %s\n", warning.c_str());
    if (store_)
        catalog_proposer_ = CatalogProposer(&store_->catalog());
    refreshCacheStats();
}

Pipeline::~Pipeline()
{
    // Detach the publish hook (it captures this pipeline's store)
    // before members destruct; the store's own destructor flushes.
    if (store_)
        flushStore();
}

bool
Pipeline::flushStore()
{
    if (!store_)
        return true;
    bool ok = store_->flush();
    refreshCacheStats();
    return ok;
}

bool
Pipeline::compactStore(std::string *error)
{
    if (!store_) {
        if (error)
            *error = "no persistent store configured";
        return false;
    }
    bool ok = store_->compact(error);
    refreshCacheStats();
    return ok;
}

void
Pipeline::discardPendingStore()
{
    if (store_)
        store_->discardPending();
}

const char *
caseStatusName(CaseStatus status)
{
    switch (status) {
      case CaseStatus::Found: return "found";
      case CaseStatus::NotInteresting: return "not-interesting";
      case CaseStatus::Incorrect: return "incorrect";
      case CaseStatus::SyntaxError: return "syntax-error";
      case CaseStatus::Unsupported: return "unsupported";
      case CaseStatus::NoCandidate: return "no-candidate";
      case CaseStatus::Degraded: return "degraded";
      case CaseStatus::Error: return "error";
      case CaseStatus::Skipped: return "skipped";
    }
    return "?";
}

CaseOutcome
Pipeline::optimizeSequence(const ir::Function &seq, uint64_t round_seed)
{
    CaseOutcome outcome = runCase(seq, round_seed, stats_, config_.refine);
    refreshCacheStats();
    return outcome;
}

void
Pipeline::refreshCacheStats()
{
    verify::VerifyCache::Stats cache_stats = verify_cache_.stats();
    stats_.verify_cache_hits = cache_stats.hits;
    stats_.verify_cache_misses = cache_stats.misses;
    stats_.verify_cache_evictions = cache_stats.evictions;
    if (!store_)
        return;
    verify::StoreStats store_stats = store_->stats();
    stats_.store_cache_loaded = store_stats.cache_loaded;
    stats_.store_catalog_loaded = store_stats.catalog_loaded;
    stats_.store_cache_flushed = store_stats.cache_flushed;
    stats_.store_catalog_flushed = store_stats.catalog_flushed;
    stats_.store_flush_failures = store_stats.flush_failures;
    stats_.store_recoveries = store_stats.recoveries;
    stats_.store_quarantined = store_stats.quarantined;
    stats_.store_rejected_files = store_stats.rejected_files;
    stats_.store_decode_skipped = store_stats.decode_skipped;
}

CaseOutcome
Pipeline::runAttemptLoop(Proposer &proposer, const ir::Function &seq,
                         uint64_t round_seed, PipelineStats &stats,
                         const verify::RefineOptions &refine)
{
    const Proposer::Backend backend = proposer.backend();
    CaseOutcome outcome;
    outcome.proposer = proposer.name();
    outcome.total_seconds = config_.overhead_seconds;

    std::string seq_text = ir::printFunction(seq);
    std::string feedback;
    unsigned counter = 0;

    while (counter < config_.attempt_limit) {
        if (backend == Proposer::Backend::EGraph)
            ++stats.egraph_consults;
        else if (backend == Proposer::Backend::Catalog)
            ++stats.catalog_consults;
        std::optional<Proposal> proposal;
        {
            LPO_TRACE_SPAN(span, "propose", "pipeline");
            static const telemetry::Histogram propose_hist =
                telemetry::histogram("phase.propose_ns");
            telemetry::ScopedTimer timer(propose_hist);
            proposal = proposer.propose(seq, seq_text, feedback,
                                        round_seed * 7919 + counter);
            uint64_t elapsed = timer.stopNanos();
            proposerHistogram(backend).record(elapsed);
            stats.timings.propose_ns += elapsed;
            if (span.active()) {
                span.arg("leg", proposer.name());
                span.arg("fn", std::string(seq.name()));
            }
        }
        if (!proposal) {
            // Backend has nothing (more) to offer; stop without
            // burning the remaining attempts.
            if (outcome.attempts == 0)
                outcome.status = CaseStatus::NoCandidate;
            break;
        }
        switch (backend) {
          case Proposer::Backend::Llm: ++stats.llm_calls; break;
          case Proposer::Backend::EGraph: ++stats.egraph_proposals; break;
          case Proposer::Backend::Catalog:
            ++stats.catalog_proposals;
            break;
        }
        ++outcome.attempts;
        outcome.llm_seconds += proposal->latency_seconds;
        outcome.total_seconds += proposal->latency_seconds;
        outcome.cost_usd += proposal->cost_usd;

        // Step 3: opt — syntax check + canonicalize/optimize further.
        ir::Context &context = seq.context();
        opt::OptResult opted = opt::runOpt(context, proposal->text);
        if (opted.failed) {
            ++stats.syntax_errors;
            ++counter;
            outcome.status = CaseStatus::SyntaxError;
            outcome.last_feedback = opted.error_message;
            if (!config_.enable_feedback)
                break;
            feedback = opted.error_message;
            continue;
        }

        // Step: interestingness gate (before the costlier verifier).
        Interestingness gate = checkInteresting(seq, *opted.function);
        if (!gate.interesting) {
            ++stats.not_interesting;
            outcome.status = CaseStatus::NotInteresting;
            outcome.last_feedback = gate.reason;
            break; // abandon this sequence (Algorithm 1 line 16)
        }

        // Step 5: correctness via the translation validator.
        verify::RefinementResult verdict;
        {
            LPO_TRACE_SPAN(span, "verify", "pipeline");
            static const telemetry::Histogram verify_hist =
                telemetry::histogram("phase.verify_ns");
            telemetry::ScopedTimer timer(verify_hist);
            verdict = verify::checkRefinement(seq, *opted.function, refine);
            stats.timings.verify_ns += timer.stopNanos();
            if (span.active()) {
                span.arg("fn", std::string(seq.name()));
                span.arg("backend", verdict.backend);
                span.arg("verdict", verdictLabel(verdict.verdict));
            }
        }
        ++stats.verifier_calls;
        outcome.total_seconds += config_.verify_seconds;
        outcome.verifier_backend = verdict.backend;

        if (verdict.verdict == verify::Verdict::Unsupported) {
            outcome.status = CaseStatus::Unsupported;
            outcome.last_feedback = verdict.detail;
            break;
        }
        if (verdict.verdict == verify::Verdict::Degraded) {
            // The whole budget ladder plus the concrete fallback ran
            // and still could not decide this candidate. Another
            // candidate for the same sequence would re-burn the full
            // ladder with the same prospects, so the case stops here;
            // a Degraded candidate is never recorded as Found.
            outcome.status = CaseStatus::Degraded;
            outcome.last_feedback = verdict.detail;
            break;
        }
        if (!verdict.correct()) {
            ++stats.incorrect_candidates;
            ++counter;
            outcome.status = CaseStatus::Incorrect;
            outcome.last_feedback = verdict.feedbackMessage(seq);
            if (!config_.enable_feedback)
                break;
            feedback = outcome.last_feedback;
            continue;
        }

        // Success: record the pair for further analysis (step 7).
        outcome.status = CaseStatus::Found;
        outcome.candidate_text = ir::printFunction(*opted.function);
        ++stats.found;
        switch (backend) {
          case Proposer::Backend::Llm: ++stats.found_by_llm; break;
          case Proposer::Backend::EGraph: ++stats.found_by_egraph; break;
          case Proposer::Backend::Catalog:
            ++stats.found_by_catalog;
            break;
        }
        break;
    }

    // A loop that only ever saw the model echo the input is reported
    // as NoCandidate rather than Incorrect.
    if (outcome.status == CaseStatus::NotInteresting &&
        outcome.attempts == 1 && outcome.last_feedback ==
            "identical or not cheaper") {
        outcome.status = CaseStatus::NoCandidate;
    }

    return outcome;
}

/**
 * Run one proposer leg with crash isolation: an exception escaping the
 * proposer, the encoder, or the verifier is contained into a
 * CaseStatus::Error outcome instead of unwinding through the module
 * run. The partial outcome the leg built before throwing is lost, but
 * its stats side effects (calls, attempts) stand — work-done
 * semantics, like the SAT counters.
 */
CaseOutcome
Pipeline::runLegContained(Proposer &proposer, const ir::Function &seq,
                          uint64_t round_seed, PipelineStats &stats,
                          const verify::RefineOptions &refine)
{
    try {
        return runAttemptLoop(proposer, seq, round_seed, stats, refine);
    } catch (const std::exception &e) {
        ++stats.contained_exceptions;
        CaseOutcome outcome;
        outcome.proposer = proposer.name();
        outcome.status = CaseStatus::Error;
        outcome.last_feedback =
            std::string("contained exception: ") + e.what();
        outcome.total_seconds = config_.overhead_seconds;
        return outcome;
    }
}

CaseOutcome
Pipeline::runCase(const ir::Function &seq, uint64_t round_seed,
                  PipelineStats &stats,
                  const verify::RefineOptions &refine)
{
    ++stats.cases;
    LPO_TRACE_SPAN(case_span, "case", "pipeline");

    // All workers share the pipeline-lifetime cache; the RefineOptions
    // copy just points at it. The SAT telemetry and degradation
    // counters are per-case and folded into the worker's stats delta
    // below.
    verify::SatTelemetry telemetry;
    verify::DegradationStats degradation;
    verify::RefineOptions refine_opts = refine;
    refine_opts.cache =
        config_.enable_verify_cache ? &verify_cache_ : nullptr;
    refine_opts.sat_telemetry = &telemetry;
    refine_opts.degradation = &degradation;

    CaseOutcome outcome;
    switch (config_.proposer) {
      case ProposerKind::Llm:
        outcome = runLegContained(llm_proposer_, seq, round_seed, stats,
                                  refine_opts);
        break;
      case ProposerKind::EGraph:
        outcome = runLegContained(egraph_proposer_, seq, round_seed,
                                  stats, refine_opts);
        break;
      case ProposerKind::Hybrid: {
        // Zero-SAT-cost first leg: replay a catalog rewrite learned in
        // a previous run (verify/persist.h). A hit verifies against
        // the seeded cache and skips the LLM entirely; any failure —
        // miss, stale candidate refuted, gate rejection — falls
        // through to the ordinary LLM leg as if the catalog were
        // absent (its lookup is free, so no time is charged).
        if (catalog_proposer_.enabled()) {
            CaseOutcome replayed = runLegContained(
                catalog_proposer_, seq, round_seed, stats, refine_opts);
            if (replayed.found()) {
                outcome = std::move(replayed);
                break;
            }
        }
        outcome = runLegContained(llm_proposer_, seq, round_seed, stats,
                                  refine_opts);
        // Fall back whenever the LLM leg failed for a reason the
        // e-graph could overcome: nothing proposed, refuted, never
        // parsed, not an improvement, undecidable within the budget
        // ladder, or lost to a contained fault. Unsupported is
        // excluded — the verifier cannot handle the function
        // regardless of who proposes.
        if (outcome.status == CaseStatus::NoCandidate ||
            outcome.status == CaseStatus::Incorrect ||
            outcome.status == CaseStatus::SyntaxError ||
            outcome.status == CaseStatus::NotInteresting ||
            outcome.status == CaseStatus::Degraded ||
            outcome.status == CaseStatus::Error) {
            ++stats.hybrid_fallbacks;
            CaseOutcome fallback = runLegContained(
                egraph_proposer_, seq, round_seed, stats, refine_opts);
            if (fallback.found()) {
                // The combined record keeps the e-graph's result but
                // accounts for the failed LLM attempts too.
                fallback.attempts += outcome.attempts;
                fallback.llm_seconds += outcome.llm_seconds;
                fallback.total_seconds += outcome.total_seconds;
                fallback.cost_usd += outcome.cost_usd;
                outcome = std::move(fallback);
            } else {
                // Keep the LLM outcome (richer feedback) but charge
                // the extra e-graph pass.
                outcome.total_seconds += fallback.total_seconds;
            }
        }
        break;
      }
    }

    // Learn every verified rewrite (any mode, any backend except the
    // catalog itself — re-recording a replay would be a no-op). The
    // record is a pending entry flushed with the store; it never
    // becomes visible to lookups within this run (determinism).
    if (store_ && outcome.found() && outcome.proposer != "catalog")
        store_->catalog().record(ir::printFunctionCanonical(seq),
                                 outcome.candidate_text);

    // The deadline currency: deterministic work units, not seconds.
    outcome.step_cost = telemetry.conflicts + outcome.attempts;

    if (case_span.active()) {
        case_span.arg("fn", std::string(seq.name()));
        case_span.arg("verdict", caseStatusName(outcome.status));
        case_span.arg("proposer", outcome.proposer);
        case_span.arg("sat_conflicts", telemetry.conflicts);
    }

    stats.sat_escalations += degradation.escalations;
    stats.concrete_fallbacks += degradation.concrete_fallbacks;
    stats.exhaustive_rescues += degradation.exhaustive_rescues;
    stats.degraded_verdicts += degradation.degraded;

    stats.sat_solves += telemetry.solves;
    stats.sat_decisions += telemetry.decisions;
    stats.sat_conflicts += telemetry.conflicts;
    stats.sat_propagations += telemetry.propagations;
    stats.sat_restarts += telemetry.restarts;

    stats.total_seconds += outcome.total_seconds;
    stats.total_cost_usd += outcome.cost_usd;
    return outcome;
}

void
recordSchedulerMetrics(const TaskGraphStats &stats)
{
    telemetry::counter("sched.tasks_run").add(stats.tasks_run);
    telemetry::counter("sched.steals").add(stats.steals);
    telemetry::counter("sched.steal_attempts").add(stats.steal_attempts);
    telemetry::histogram("sched.queue_depth_max")
        .record(stats.max_queue_depth);
    telemetry::counter("sched.idle_ns").add(stats.idle_ns);
}

std::vector<CaseOutcome>
Pipeline::processModule(const ir::Module &module,
                        extract::Extractor &extractor, uint64_t round_seed)
{
    auto sequences = extractor.extractFromModule(module);
    std::vector<const ir::Function *> ptrs;
    ptrs.reserve(sequences.size());
    for (const auto &seq : sequences)
        ptrs.push_back(seq.get());
    return processSequences(ptrs, round_seed);
}

std::vector<CaseOutcome>
Pipeline::processSequences(
    const std::vector<const ir::Function *> &sequences,
    uint64_t round_seed,
    const std::function<void(size_t, const CaseOutcome &)> &on_commit)
{
    unsigned threads = config_.num_threads
                           ? config_.num_threads
                           : TaskScheduler::hardwareThreads();
    std::vector<CaseOutcome> outcomes(sequences.size());

    if (threads <= 1 || sequences.size() <= 1) {
        for (size_t i = 0; i < sequences.size(); ++i) {
            outcomes[i] = optimizeSequence(*sequences[i], round_seed);
            if (on_commit)
                on_commit(i, outcomes[i]);
        }
        return outcomes;
    }

    // Parallel fan-out on the work-stealing task graph. The extracted
    // sequences all live in the module's shared ir::Context, which is
    // not safe to mutate concurrently (runOpt parses candidates into
    // it), so each case task re-parses its sequence's text into a
    // private Context and runs the whole loop there.
    // print(parse(print(f))) is stable, so the prompt text — and
    // therefore the mock model's seeded RNG stream — is byte-identical
    // to the serial path.
    std::vector<std::string> texts(sequences.size());
    for (size_t i = 0; i < sequences.size(); ++i)
        texts[i] = ir::printFunction(*sequences[i]);

    // The pipeline-level fan-out already saturates the machine, so
    // each case task runs its verification sweeps serially rather than
    // nesting a second hardware-wide scheduler per candidate.
    verify::RefineOptions worker_refine = config_.refine;
    worker_refine.num_threads = 1;

    // The advisory per-task conflict budget is the most SAT work one
    // case can possibly perform per query (the whole ladder, or the
    // single-shot budget when no ladder is configured).
    uint64_t case_budget = 0;
    if (worker_refine.budget_tiers.empty()) {
        case_budget = worker_refine.conflict_budget;
    } else {
        for (uint64_t tier : worker_refine.budget_tiers)
            case_budget += tier;
    }

    static const telemetry::Histogram chain_hist =
        telemetry::histogram("pipeline.chain_latency_ns");

    std::vector<PipelineStats> deltas(sequences.size());

    TaskScheduler::Options sched_options;
    sched_options.num_threads = threads;
    sched_options.steal_seed = round_seed ^ 0x9E3779B97F4A7C15ull;
    TaskScheduler scheduler(sched_options);
    TaskScope scope(scheduler);
    // A cancelled scope (first task exception) interrupts in-flight
    // SAT solves at the next conflict boundary instead of finishing
    // multi-million-conflict proofs nobody will read.
    worker_refine.interrupt = scope.cancelFlag();

    // Each sequence is one case task; a chain of commit tasks (commit
    // i depends on case i and commit i-1) folds its stat delta and
    // streams the outcome out in sequence order — the exact
    // accumulation order of the serial path, so totals (including the
    // doubles) are bit-identical for any thread count, while later
    // cases are still running.
    std::vector<TaskId> case_ids(sequences.size());
    for (size_t i = 0; i < sequences.size(); ++i) {
        case_ids[i] = scope.submit(
            [this, i, round_seed, &texts, &outcomes, &deltas,
             &worker_refine] {
                telemetry::ScopedTimer timer(chain_hist);
                ir::Context context;
                auto parsed = ir::parseFunction(context, texts[i]);
                if (!parsed.ok()) {
                    // Cannot happen for printer output; recorded
                    // rather than silently dropped if it ever does.
                    ++deltas[i].cases;
                    ++deltas[i].syntax_errors;
                    outcomes[i].status = CaseStatus::SyntaxError;
                    outcomes[i].last_feedback =
                        parsed.error().toString();
                    outcomes[i].total_seconds = config_.overhead_seconds;
                    deltas[i].total_seconds += outcomes[i].total_seconds;
                    return;
                }
                outcomes[i] = runCase(**parsed, round_seed, deltas[i],
                                      worker_refine);
            },
            {}, case_budget);
    }
    TaskId prev_commit = kInvalidTask;
    for (size_t i = 0; i < sequences.size(); ++i) {
        std::vector<TaskId> deps;
        deps.push_back(case_ids[i]);
        if (prev_commit != kInvalidTask)
            deps.push_back(prev_commit);
        prev_commit = scope.submit(
            [this, i, &deltas, &outcomes, &on_commit] {
                foldStats(deltas[i]);
                if (on_commit)
                    on_commit(i, outcomes[i]);
            },
            deps);
    }
    scope.wait();

    stats_.scheduler += scope.stats();
    recordSchedulerMetrics(scope.stats());

    refreshCacheStats();
    return outcomes;
}

void
Pipeline::foldStats(const PipelineStats &delta)
{
    stats_.cases += delta.cases;
    stats_.found += delta.found;
    stats_.llm_calls += delta.llm_calls;
    stats_.verifier_calls += delta.verifier_calls;
    stats_.syntax_errors += delta.syntax_errors;
    stats_.incorrect_candidates += delta.incorrect_candidates;
    stats_.not_interesting += delta.not_interesting;
    stats_.egraph_consults += delta.egraph_consults;
    stats_.egraph_proposals += delta.egraph_proposals;
    stats_.found_by_llm += delta.found_by_llm;
    stats_.found_by_egraph += delta.found_by_egraph;
    stats_.hybrid_fallbacks += delta.hybrid_fallbacks;
    stats_.catalog_consults += delta.catalog_consults;
    stats_.catalog_proposals += delta.catalog_proposals;
    stats_.found_by_catalog += delta.found_by_catalog;
    stats_.sat_solves += delta.sat_solves;
    stats_.sat_decisions += delta.sat_decisions;
    stats_.sat_conflicts += delta.sat_conflicts;
    stats_.sat_propagations += delta.sat_propagations;
    stats_.sat_restarts += delta.sat_restarts;
    stats_.sat_escalations += delta.sat_escalations;
    stats_.concrete_fallbacks += delta.concrete_fallbacks;
    stats_.exhaustive_rescues += delta.exhaustive_rescues;
    stats_.degraded_verdicts += delta.degraded_verdicts;
    stats_.contained_exceptions += delta.contained_exceptions;
    stats_.total_seconds += delta.total_seconds;
    stats_.total_cost_usd += delta.total_cost_usd;
    stats_.timings.propose_ns += delta.timings.propose_ns;
    stats_.timings.verify_ns += delta.timings.verify_ns;
}

void
Pipeline::addStageTimings(const StageTimings &timings)
{
    stats_.timings.extract_ns += timings.extract_ns;
    stats_.timings.patch_ns += timings.patch_ns;
    stats_.timings.dce_ns += timings.dce_ns;
    stats_.timings.total_ns += timings.total_ns;
}

} // namespace lpo::core
