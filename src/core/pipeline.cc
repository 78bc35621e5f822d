#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>

#include "core/interestingness.h"
#include "ir/printer.h"
#include "opt/opt_driver.h"
#include "support/failpoint.h"
#include "support/string_utils.h"
#include "support/telemetry.h"
#include "support/trace.h"

namespace lpo::core {

namespace {

/** Fixed non-LLM overhead per proposer leg (opt + checks), in
 *  simulated seconds. */
constexpr double kOverheadSeconds = 0.5;
/** Additional simulated seconds per verifier invocation. */
constexpr double kVerifySeconds = 0.4;

/** Add one verdict's verifier work into a case's stats. */
void
addVerifyWork(PipelineStats &stats, const verify::VerifyWork &work)
{
    stats.sat_solves += work.solves;
    stats.sat_decisions += work.decisions;
    stats.sat_conflicts += work.conflicts;
    stats.sat_propagations += work.propagations;
    stats.sat_restarts += work.restarts;
    stats.sat_escalations += work.escalations;
    stats.concrete_fallbacks += work.concrete_fallbacks;
    stats.exhaustive_rescues += work.exhaustive_rescues;
    stats.degraded_verdicts += work.degraded;
    stats.circuit_nodes += work.circuit_nodes;
    stats.circuit_emitted += work.circuit_emitted;
    stats.circuit_merges += work.circuit_merges;
    stats.window_checks += work.window_checks;
    stats.failed_checks += work.failed_checks;
}

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

/** The final statuses a miss may remember: each is the deterministic
 *  result of seeded proposers and a budgeted verifier. */
constexpr CaseStatus kMissStatuses[] = {
    CaseStatus::NoCandidate,
    CaseStatus::Incorrect,
    CaseStatus::NotInteresting,
    CaseStatus::SyntaxError,
};

bool
isMissStatus(CaseStatus status)
{
    for (CaseStatus miss : kMissStatuses)
        if (status == miss)
            return true;
    return false;
}

/** A miss record's payload: "<status> <final leg>". */
std::string
encodeMiss(const CaseOutcome &outcome)
{
    return std::string(caseStatusName(outcome.status)) + ' ' +
           outcome.proposer;
}

/** Decode a miss payload into @p out; false (nothing replayed) on
 *  anything this build would not have recorded. */
bool
decodeMiss(const std::string &payload, CaseOutcome *out)
{
    size_t space = payload.find(' ');
    if (space == std::string::npos)
        return false;
    std::string leg = payload.substr(space + 1);
    if (leg != "llm" && leg != "egraph")
        return false;
    for (CaseStatus status : kMissStatuses) {
        if (payload.compare(0, space, caseStatusName(status)) == 0) {
            out->status = status;
            out->proposer = std::move(leg);
            return true;
        }
    }
    return false;
}

/** True while any failpoint is armed. Resolves the registry first:
 *  anyArmed() reads true until the environment has been applied. */
bool
faultsArmed()
{
    FailPoints::instance();
    return FailPoints::anyArmed();
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
    if (store_) {
        catalog_proposer_ = CatalogProposer(&store_->catalog());
        // Everything besides the sequence and the round seed that
        // decides a case's outcome (see missKey()).
        const egraph::SaturationLimits &limits = egraph_proposer_.limits();
        miss_fingerprint_ =
            std::string(proposerKindName(config_.proposer)) + ";attempts=" +
            std::to_string(config_.attempt_limit) + ";feedback=" +
            (config_.enable_feedback ? "1" : "0") + ";egraph=" +
            std::to_string(limits.max_iterations) + "," +
            std::to_string(limits.max_nodes) + ";model=" +
            client_.identity() + ";verify=" +
            verify::verifyOptionsKey(config_.refine) + ";seed=";
    }
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
    return processSequences({&seq}, round_seed)[0];
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
    stats_.store_misses_loaded = store_stats.misses_loaded;
    stats_.store_cache_flushed = store_stats.cache_flushed;
    stats_.store_catalog_flushed = store_stats.catalog_flushed;
    stats_.store_misses_flushed = store_stats.misses_flushed;
    stats_.store_flush_failures = store_stats.flush_failures;
    stats_.store_recoveries = store_stats.recoveries;
    stats_.store_quarantined = store_stats.quarantined;
    stats_.store_rejected_files = store_stats.rejected_files;
    stats_.store_decode_skipped = store_stats.decode_skipped;
}

CaseOutcome
Pipeline::runAttemptLoop(Proposer &proposer, const ir::Function &seq,
                         const std::string &seq_text, uint64_t round_seed,
                         PipelineStats &stats,
                         const verify::RefineOptions &refine)
{
    const Proposer::Backend backend = proposer.backend();
    CaseOutcome outcome;
    outcome.proposer = proposer.name();
    outcome.total_seconds = kOverheadSeconds;

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
            uint64_t verify_ns = timer.stopNanos();
            stats.timings.verify_ns += verify_ns;
            if (verify_ns) // 0: telemetry is off
                stats.timings.noteVerifyCall(
                    {std::string(seq.name()), seq.returnType()->toString(),
                     proposer.name(), verdict.backend,
                     verdict.work.conflicts, verdict.work.encode_ns,
                     verdict.work.solve_ns, verify_ns});
            if (span.active()) {
                span.arg("fn", std::string(seq.name()));
                span.arg("backend", verdict.backend);
                span.arg("verdict", verdictLabel(verdict.verdict));
            }
        }
        ++stats.verifier_calls;
        addVerifyWork(stats, verdict.work);
        outcome.total_seconds += kVerifySeconds;
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
                          const std::string &seq_text, uint64_t round_seed,
                          PipelineStats &stats,
                          const verify::RefineOptions &refine)
{
    try {
        return runAttemptLoop(proposer, seq, seq_text, round_seed, stats,
                              refine);
    } catch (const std::exception &e) {
        ++stats.contained_exceptions;
        CaseOutcome outcome;
        outcome.proposer = proposer.name();
        outcome.status = CaseStatus::Error;
        outcome.last_feedback =
            std::string("contained exception: ") + e.what();
        outcome.total_seconds = kOverheadSeconds;
        return outcome;
    }
}

CaseOutcome
Pipeline::runLegs(const ir::Function &seq, uint64_t round_seed,
                  PipelineStats &stats, const verify::RefineOptions &refine,
                  bool *rememberable)
{
    if (config_.proposer == ProposerKind::EGraph) {
        // The e-graph reads the function itself, not its text.
        CaseOutcome outcome = runLegContained(egraph_proposer_, seq, {},
                                              round_seed, stats, refine);
        *rememberable = isMissStatus(outcome.status);
        return outcome;
    }
    const std::string seq_text = ir::printFunction(seq);
    CaseOutcome outcome = runLegContained(llm_proposer_, seq, seq_text,
                                          round_seed, stats, refine);
    *rememberable = isMissStatus(outcome.status);
    if (config_.proposer == ProposerKind::Llm)
        return outcome;

    // Hybrid: fall back whenever the LLM leg failed for a reason the
    // e-graph could overcome: nothing proposed, refuted, never parsed,
    // not an improvement, undecidable within the budget ladder, or
    // lost to a contained fault. Unsupported is excluded — the
    // verifier cannot handle the function regardless of who proposes.
    if (outcome.status == CaseStatus::NoCandidate ||
        outcome.status == CaseStatus::Incorrect ||
        outcome.status == CaseStatus::SyntaxError ||
        outcome.status == CaseStatus::NotInteresting ||
        outcome.status == CaseStatus::Degraded ||
        outcome.status == CaseStatus::Error) {
        ++stats.hybrid_fallbacks;
        CaseOutcome fallback = runLegContained(egraph_proposer_, seq, seq_text,
                                               round_seed, stats, refine);
        // The final status is the LLM's, so the e-graph leg must have
        // ended in a rememberable status too.
        *rememberable = *rememberable && isMissStatus(fallback.status);
        if (fallback.found()) {
            // The combined record keeps the e-graph's result but
            // accounts for the failed LLM attempts too.
            fallback.attempts += outcome.attempts;
            fallback.llm_seconds += outcome.llm_seconds;
            fallback.total_seconds += outcome.total_seconds;
            fallback.cost_usd += outcome.cost_usd;
            outcome = std::move(fallback);
        } else {
            // Keep the LLM outcome (richer feedback) but charge the
            // extra e-graph pass.
            outcome.total_seconds += fallback.total_seconds;
        }
    }
    return outcome;
}

CaseOutcome
Pipeline::runCase(const ir::Function &seq, uint64_t round_seed,
                  PipelineStats &stats,
                  const verify::RefineOptions &refine)
{
    ++stats.cases;
    LPO_TRACE_SPAN(case_span, "case", "pipeline");

    // The one canonical print of this case: the catalog key and the
    // tail of the miss key (store runs only).
    std::string canonical, miss_key;
    if (store_) {
        canonical = ir::printFunctionCanonical(seq);
        char fingerprint[17];
        std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                      static_cast<unsigned long long>(fnv1a64(
                          miss_fingerprint_ + std::to_string(round_seed))));
        miss_key = verify::missKey(fingerprint, canonical);
    }

    CaseOutcome outcome;
    bool answered = false;
    // Zero-SAT-cost first hybrid leg: replay a catalog rewrite learned
    // in a previous run (verify/persist.h). A hit verifies against the
    // seeded cache and skips the LLM entirely; any failure — miss,
    // stale candidate refuted, gate rejection — falls through as if
    // the catalog were absent (its lookup is free, so no time is
    // charged).
    if (config_.proposer == ProposerKind::Hybrid &&
        catalog_proposer_.enabled()) {
        CaseOutcome replayed = runLegContained(
            catalog_proposer_, seq, canonical, round_seed, stats, refine);
        if (replayed.found()) {
            outcome = std::move(replayed);
            answered = true;
        }
    }
    // A remembered miss: the same legs under the same fingerprint
    // found nothing before, and would find nothing again.
    if (!answered && store_) {
        const std::string *miss = store_->catalog().lookupMiss(miss_key);
        if (miss && decodeMiss(*miss, &outcome)) {
            outcome.miss_replay = true;
            ++stats.miss_replays;
            answered = true;
        }
    }
    if (!answered) {
        bool rememberable = false;
        outcome = runLegs(seq, round_seed, stats, refine, &rememberable);
        // Learn every verified rewrite (any mode; a catalog replay
        // never reaches here). Remember a final no-find outcome as a
        // miss unless something outside the fingerprint may have
        // shaped it: an interrupt, or an armed failpoint (an injected
        // proposer.llm.none would otherwise persist a fake
        // NoCandidate). Both records stay pending until the next
        // open (determinism).
        if (store_ && outcome.found())
            store_->catalog().record(canonical, outcome.candidate_text);
        else if (store_ && rememberable &&
                 !refine.interrupted() &&
                 !faultsArmed())
            store_->catalog().recordMiss(miss_key, encodeMiss(outcome));
    }

    // The deadline currency: deterministic work units, not seconds.
    outcome.step_cost = stats.sat_conflicts + outcome.attempts;

    if (case_span.active()) {
        case_span.arg("fn", std::string(seq.name()));
        case_span.arg("verdict", caseStatusName(outcome.status));
        case_span.arg("proposer", outcome.proposer);
        case_span.arg("sat_conflicts", stats.sat_conflicts);
    }

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
    const unsigned fanout = static_cast<unsigned>(std::clamp<size_t>(
        sequences.size(), 1,
        config_.num_threads ? config_.num_threads
                            : TaskScope::hardwareThreads()));
    std::vector<CaseOutcome> outcomes(sequences.size());
    // Every case shares the pipeline-lifetime verify cache.
    verify::RefineOptions case_refine = config_.refine;
    case_refine.cache = config_.enable_verify_cache ? &verify_cache_ : nullptr;

    static const telemetry::Histogram chain_hist =
        telemetry::histogram("pipeline.chain_latency_ns");

    // Reorder drain: a finished case marks done[i], then whichever
    // case task wins `committing` folds deltas[next] and streams
    // outcomes[next] out for as long as done[next] holds — one fixed
    // accumulation order, so totals (including the doubles) are
    // bit-identical for any thread count, while later cases are still
    // running. A task that finds a committer active goes back to
    // running cases; the committer re-checks done[next] after
    // releasing, so no finished case is left uncommitted. The
    // done/committing accesses are sequentially consistent: the
    // committer's release-then-check and a finisher's mark-then-try
    // cannot both miss each other. A throw out of on_commit leaves
    // `committing` set, so nothing after the failing index commits.
    std::vector<PipelineStats> deltas(sequences.size());
    std::vector<std::atomic<bool>> done(sequences.size());
    std::atomic<bool> committing{false};
    size_t next = 0; // owned by the task holding `committing`
    auto drain = [&] {
        for (;;) {
            bool expected = false;
            if (!committing.compare_exchange_strong(expected, true))
                return;
            while (next < sequences.size() && done[next].load()) {
                foldStats(deltas[next]);
                if (on_commit)
                    on_commit(next, outcomes[next]);
                ++next;
            }
            const size_t stop = next;
            committing.store(false);
            if (stop == sequences.size() || !done[stop].load())
                return;
        }
    };

    // One task per case; one thread runs them on the caller, in order.
    // Wider fan-outs verify serially per case (they fill the machine)
    // and let a cancelled scope interrupt in-flight SAT solves, next
    // to the caller's own interrupt.
    TaskScope scope(fanout);
    if (fanout > 1) {
        case_refine.num_threads = 1;
        case_refine.scope_interrupt = scope.cancelFlag();
    }
    for (size_t i = 0; i < sequences.size(); ++i) {
        scope.submit([this, i, round_seed, &sequences, &outcomes, &deltas,
                      &case_refine, &done, &drain] {
            {
                // runOpt parses candidates into the sequence's Context,
                // so each case runs on a clone in a private one.
                telemetry::ScopedTimer timer(chain_hist);
                ir::Context context;
                auto seq = sequences[i]->clone(sequences[i]->name(), &context);
                outcomes[i] =
                    runCase(*seq, round_seed, deltas[i], case_refine);
            }
            done[i].store(true);
            drain();
        });
    }
    scope.wait();
    assert(next == sequences.size() && "reorder drain left a case");

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
    stats_.miss_replays += delta.miss_replays;
    stats_.sat_solves += delta.sat_solves;
    stats_.sat_decisions += delta.sat_decisions;
    stats_.sat_conflicts += delta.sat_conflicts;
    stats_.sat_propagations += delta.sat_propagations;
    stats_.sat_restarts += delta.sat_restarts;
    stats_.circuit_nodes += delta.circuit_nodes;
    stats_.circuit_emitted += delta.circuit_emitted;
    stats_.circuit_merges += delta.circuit_merges;
    stats_.window_checks += delta.window_checks;
    stats_.failed_checks += delta.failed_checks;
    stats_.sat_escalations += delta.sat_escalations;
    stats_.concrete_fallbacks += delta.concrete_fallbacks;
    stats_.exhaustive_rescues += delta.exhaustive_rescues;
    stats_.degraded_verdicts += delta.degraded_verdicts;
    stats_.contained_exceptions += delta.contained_exceptions;
    stats_.total_seconds += delta.total_seconds;
    stats_.total_cost_usd += delta.total_cost_usd;
    stats_.timings.propose_ns += delta.timings.propose_ns;
    stats_.timings.verify_ns += delta.timings.verify_ns;
    for (const StageTimings::VerifyCall &call :
         delta.timings.slowest_verifies)
        stats_.timings.noteVerifyCall(call);
}

void
StageTimings::noteVerifyCall(VerifyCall call)
{
    auto pos = std::upper_bound(
        slowest_verifies.begin(), slowest_verifies.end(), call.total_ns,
        [](uint64_t ns, const VerifyCall &kept) { return ns > kept.total_ns; });
    if (static_cast<size_t>(pos - slowest_verifies.begin()) >=
        kSlowestVerifies)
        return;
    slowest_verifies.insert(pos, std::move(call));
    if (slowest_verifies.size() > kSlowestVerifies)
        slowest_verifies.pop_back();
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
