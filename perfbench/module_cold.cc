/**
 * @file
 * `module-cold`: the one-shot `lpo_cli optimize-module
 * --proposer=hybrid` corpus-scan path, as a closed loop over a seeded
 * draw of corpus::CorpusGenerator::largeModule modules.
 *
 * Every module runs in its own forked child (isolation: a fresh
 * ModuleOptimizer with no store and kWorkers pipeline workers) under a
 * wall limit. A child that has not finished optimize() by the limit is
 * killed; the module counts as stopped, with latency recorded at the
 * limit. The draw is never filtered by runtime.
 */
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/module_opt.h"
#include "core/proposer.h"
#include "corpus/generator.h"
#include "extract/extractor.h"
#include "ir/ir_verifier.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "llm/mock_model.h"
#include "support/telemetry.h"
#include "verify/refine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using lpo::core::CaseStatus;

constexpr unsigned kFunctions = 16;
constexpr unsigned kBlocks = 3;
constexpr unsigned kModules = 100;
/** Per-module wall limit on optimize(); README.md gives the measured
 *  distribution and the gap it sits in. */
constexpr double kLimitSeconds = 2.0;

struct ModuleRun
{
    bool completed = false; ///< optimize() finished within the limit
    bool crashed = false;   ///< child died or sent a malformed result
    double optimize_ms = 0;
    Counters counts;
    std::vector<Span> spans;
};

void
put(std::string &out, const char *key, double value)
{
    char line[160];
    std::snprintf(line, sizeof line, "kv %s %.17g\n", key, value);
    out += line;
}

bool
writeAll(int fd, const std::string &bytes)
{
    size_t done = 0;
    while (done < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n <= 0)
            return false;
        done += size_t(n);
    }
    return true;
}

double
histogramSum(const lpo::telemetry::MetricsSnapshot &snapshot,
             const char *name)
{
    const auto *h = snapshot.histogram(name);
    return h ? double(h->sum) : 0.0;
}

/**
 * Layer replays on the module's unique sequences (traced runs only):
 * extraction, then the e-graph proposer and the refinement checker on
 * each sequence and its candidates, spread over kWorkers threads as the
 * pipeline spreads cases (each thread re-parses into its own Context).
 */
void
replayLayers(const std::string &text,
             const lpo::core::ModuleOptResult &result, std::string &out)
{
    lpo::ir::Context ctx;
    auto module = lpo::ir::parseModule(ctx, text).take();
    std::vector<lpo::extract::ExtractedSequence> sequences;
    {
        SpanLog::Scope span("extract.extractDetailed", true);
        lpo::extract::Extractor extractor;
        sequences = extractor.extractDetailed(*module);
    }
    std::vector<std::string> seq_texts;
    for (const auto &seq : sequences)
        seq_texts.push_back(lpo::ir::printFunction(*seq.wrapped));

    lpo::verify::RefineOptions refine;
    // Bounded replays: one small tier, serial sweeps.
    refine.conflict_budget = 10'000;
    refine.num_threads = 1;
    std::atomic<size_t> next{0};
    std::vector<double> interp_ns(kWorkers, 0.0);
    auto worker = [&](unsigned w) {
        lpo::core::EGraphProposer proposer;
        for (size_t i; (i = next++) < seq_texts.size();) {
            lpo::ir::Context local;
            auto seq = lpo::ir::parseFunction(local, seq_texts[i]).take();
            auto check = [&](const std::string &candidate_text) {
                auto candidate = lpo::ir::parseFunction(local, candidate_text);
                if (!candidate.ok())
                    return;
                uint64_t start = nowNs();
                lpo::verify::RefinementResult verdict;
                {
                    SpanLog::Scope span("verify.checkRefinement", true);
                    verdict = lpo::verify::checkRefinement(*seq, **candidate,
                                                           refine);
                }
                if (verdict.backend != "sat")
                    interp_ns[w] += double(nowNs() - start);
            };
            std::optional<lpo::core::Proposal> proposal;
            {
                SpanLog::Scope span("proposer.egraph.propose", true);
                proposal = proposer.propose(*seq, seq_texts[i], "", 0);
            }
            if (proposal)
                check(proposal->text);
            const lpo::core::CaseOutcome &outcome = result.outcomes[i];
            if (outcome.found() &&
                (!proposal || proposal->text != outcome.candidate_text))
                check(outcome.candidate_text);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < kWorkers; ++w)
        threads.emplace_back(worker, w);
    for (std::thread &t : threads)
        t.join();
    double interp_total = 0;
    for (double ns : interp_ns)
        interp_total += ns;
    put(out, "interp_replay_ns", interp_total);
}

/** The child: optimize one module, check it, report over @p fd. */
void
childRun(int fd, const std::string &text, uint64_t module_seed, bool traced)
{
    SpanLog &log = SpanLog::instance();
    log.reset(2);
    log.setEnabled(traced);
    lpo::telemetry::MetricsRegistry::instance().reset();
    std::string out;

    uint64_t t0 = nowNs();
    lpo::llm::MockModel model(lpo::llm::modelByName("Gemini2.0T"), 1);
    TracedClient forwarding(model);
    lpo::core::ModuleOptOptions options;
    options.pipeline.proposer = lpo::core::ProposerKind::Hybrid;
    options.pipeline.num_threads = kWorkers;
    lpo::core::ModuleOptimizer optimizer(
        traced ? static_cast<lpo::llm::LlmClient &>(forwarding) : model,
        options);
    put(out, "setup_ns", double(nowNs() - t0));

    lpo::ir::Context ctx;
    std::unique_ptr<lpo::ir::Module> module;
    {
        SpanLog::Scope span("ir.parseModule");
        auto parsed = lpo::ir::parseModule(ctx, text);
        if (!parsed.ok()) {
            writeAll(fd, "error unparsable\n");
            return;
        }
        module = parsed.take();
    }
    uint64_t t1 = nowNs();
    lpo::core::ModuleOptResult result;
    {
        SpanLog::Scope span("module_opt.optimize");
        result = optimizer.optimize(*module, 1);
    }
    uint64_t optimize_ns = nowNs() - t1;
    // Past this line the parent's wall limit no longer applies.
    writeAll(fd, "done " + std::to_string(optimize_ns) + "\n");

    std::string printed;
    {
        SpanLog::Scope span("ir.printModule");
        printed = lpo::ir::printModule(*module);
    }

    // Output oracle: the printed module re-parses, every function is
    // valid, and every function refines its original under ExecPlan.
    uint64_t oracle_failed = 0, oracle_unchecked = 0;
    {
        SpanLog::Scope span("oracle.replay");
        lpo::ir::Context check_ctx;
        auto original = lpo::ir::parseModule(check_ctx, text);
        auto patched = lpo::ir::parseModule(check_ctx, printed);
        if (!original.ok() || !patched.ok() ||
            (*original)->functions().size() !=
                (*patched)->functions().size()) {
            oracle_failed = 1;
        } else {
            const auto &before = (*original)->functions();
            const auto &after = (*patched)->functions();
            for (size_t i = 0; i < before.size(); ++i) {
                Replay replay = replayRefines(*before[i], *after[i],
                                              mix(module_seed + i));
                if (!lpo::ir::isValid(*after[i]) || replay == Replay::Mismatch)
                    ++oracle_failed;
                oracle_unchecked += replay == Replay::Unchecked;
            }
        }
    }

    const lpo::core::PipelineStats &ps = result.pipeline;
    uint64_t interp_queries = 0, errors = 0;
    for (const auto &outcome : result.outcomes) {
        if (outcome.verifier_backend == "exhaustive" ||
            outcome.verifier_backend == "sampled")
            ++interp_queries;
        if (outcome.status == CaseStatus::Error)
            ++errors;
    }
    auto snapshot = lpo::telemetry::MetricsRegistry::instance().snapshot();
    put(out, "optimize_ns", double(optimize_ns));
    put(out, "considered", double(result.extraction.sequences_considered));
    put(out, "unique", double(result.unique_sequences));
    put(out, "patched", double(result.patched_rewrites));
    put(out, "found", double(ps.found));
    put(out, "cycles_saved", result.cycles_before - result.cycles_after);
    put(out, "llm_calls", double(ps.llm_calls));
    put(out, "verify_calls", double(ps.verifier_calls));
    put(out, "syntax_errors", double(ps.syntax_errors));
    put(out, "refuted", double(ps.incorrect_candidates));
    put(out, "found_by_llm", double(ps.found_by_llm));
    put(out, "found_by_egraph", double(ps.found_by_egraph));
    put(out, "egraph_consults", double(ps.egraph_consults));
    put(out, "catalog_consults", double(ps.catalog_consults));
    put(out, "catalog_proposals", double(ps.catalog_proposals));
    put(out, "cache_hits", double(ps.verify_cache_hits));
    put(out, "cache_misses", double(ps.verify_cache_misses));
    put(out, "sat_solves", double(ps.sat_solves));
    put(out, "sat_conflicts", double(ps.sat_conflicts));
    put(out, "sat_propagations", double(ps.sat_propagations));
    put(out, "session_reuses", double(ps.session_reuses));
    put(out, "escalations", double(ps.sat_escalations));
    put(out, "degraded", double(ps.degraded_verdicts));
    put(out, "interp_queries", double(interp_queries));
    put(out, "case_errors", double(errors));
    put(out, "invalid_functions", double(result.invalid_functions));
    put(out, "patch_failures", double(result.patch_failures));
    put(out, "oracle_failed", double(oracle_failed));
    put(out, "oracle_unchecked", double(oracle_unchecked));
    put(out, "idle_ns", double(ps.scheduler.idle_ns));
    put(out, "steals", double(ps.scheduler.steals));
    put(out, "extract_ns", double(ps.timings.extract_ns));
    put(out, "propose_ns", double(ps.timings.propose_ns));
    put(out, "verify_ns", double(ps.timings.verify_ns));
    put(out, "dce_ns", double(ps.timings.dce_ns));
    put(out, "total_ns", double(ps.timings.total_ns));
    put(out, "solve_ns", histogramSum(snapshot, "verify.solve_ns"));
    if (traced)
        replayLayers(text, result, out);
    out += encodeSpans(log.take());
    writeAll(fd, out);
}

/** Fork a child for one module and collect its report. */
ModuleRun
runModule(const std::string &text, uint64_t module_seed, bool traced)
{
    ModuleRun run;
    int fds[2];
    if (::pipe(fds) != 0) {
        run.crashed = true;
        return run;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t pid = ::fork();
    if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        ::close(fds[0]);
        try {
            childRun(fds[1], text, module_seed, traced);
        } catch (...) {
            writeAll(fds[1], "error exception\n");
        }
        ::_exit(0);
    }
    ::close(fds[1]);
    if (pid < 0) {
        ::close(fds[0]);
        run.crashed = true;
        return run;
    }

    const uint64_t start = nowNs();
    const uint64_t limit_ns = uint64_t(kLimitSeconds * 1e9);
    // After optimize() the child still prints, checks and (traced)
    // replays; bound that too so a wedged child cannot hang the run.
    const uint64_t hard_ns = limit_ns + 120'000'000'000ull;
    std::string buf;
    bool done = false, eof = false;
    while (!eof) {
        uint64_t elapsed = nowNs() - start;
        uint64_t deadline = done ? hard_ns : limit_ns;
        if (elapsed >= deadline)
            break;
        pollfd p{fds[0], POLLIN, 0};
        int wait_ms = int((deadline - elapsed) / 1'000'000) + 1;
        if (::poll(&p, 1, wait_ms) <= 0)
            continue;
        char chunk[65536];
        ssize_t n = ::read(fds[0], chunk, sizeof chunk);
        if (n <= 0) {
            eof = true;
            break;
        }
        buf.append(chunk, size_t(n));
        if (!done && buf.find('\n') != std::string::npos)
            done = buf.rfind("done ", 0) == 0;
        if (!done && buf.find('\n') != std::string::npos)
            break; // an error line instead of "done"
    }
    if (!eof)
        ::kill(pid, SIGKILL);
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);

    if (!done) {
        // Stopped at the limit (or failed before finishing optimize).
        run.crashed = buf.find('\n') != std::string::npos || eof;
        run.optimize_ms = kLimitSeconds * 1e3;
        return run;
    }
    if (!eof || !WIFEXITED(status) ||
        buf.find("\nerror ") != std::string::npos) {
        run.crashed = true;
        return run;
    }
    std::istringstream in(buf);
    std::string tag;
    while (in >> tag) {
        if (tag == "done") {
            double ns;
            in >> ns;
            run.optimize_ms = ns / 1e6;
        } else if (tag == "kv") {
            std::string key;
            double value;
            in >> key >> value;
            run.counts[key] += value;
        } else {
            std::string rest;
            std::getline(in, rest);
        }
    }
    run.spans = decodeSpans(buf);
    run.completed = true;
    return run;
}

/** The exact-count keys of the self-check, for one module. */
Counters
exactCounts(const Counters &counts)
{
    Counters c;
    for (const char *key : {"found", "cycles_saved", "llm_calls", "patched",
                            "verify_calls", "sat_conflicts", "considered"})
        c[key] = get(counts, key);
    return c;
}

/** One pass over the draw. */
struct Pass
{
    Counters totals;             ///< summed over completed modules
    std::vector<double> latency_ms; ///< every module (stopped = limit)
    std::vector<double> setup_s;
    std::vector<double> seq_rate; ///< per completed module, sequences/s
    /** Per module: the exact-count keys, empty if it did not complete. */
    std::vector<Counters> exact;
    uint64_t attempted = 0, stopped = 0, crashed = 0;
    uint64_t start_ns = 0, end_ns = 0;
    double wall_s = 0;
    std::vector<Span> spans;
};

Pass
runPass(const std::vector<std::string> &texts,
        const std::vector<uint64_t> &seeds, bool traced)
{
    Pass pass;
    SpanLog &log = SpanLog::instance();
    log.reset(1);
    log.setEnabled(traced);
    pass.start_ns = nowNs();
    for (size_t i = 0; i < texts.size(); ++i) {
        ModuleRun run;
        {
            SpanLog::Scope span("module");
            run = runModule(texts[i], seeds[i], traced);
        }
        ++pass.attempted;
        pass.latency_ms.push_back(run.optimize_ms);
        pass.exact.push_back(run.completed ? exactCounts(run.counts)
                                           : Counters{});
        if (run.crashed)
            ++pass.crashed;
        else if (!run.completed)
            ++pass.stopped;
        if (!run.completed)
            continue;
        pass.setup_s.push_back(run.counts["setup_ns"] / 1e9);
        pass.seq_rate.push_back(run.counts["considered"] /
                                (run.counts["optimize_ns"] / 1e9));
        for (const auto &[key, value] : run.counts)
            pass.totals[key] += value;
        for (Span &s : run.spans)
            pass.spans.push_back(std::move(s));
    }
    pass.end_ns = nowNs();
    pass.wall_s = double(pass.end_ns - pass.start_ns) / 1e9;
    log.setEnabled(false);
    for (Span &s : log.take())
        pass.spans.push_back(std::move(s));
    return pass;
}

/**
 * Compare the exact counts of every module that completed in both
 * passes. A module near the wall limit may complete in one pass and be
 * stopped in the other; that is timing, not drift, and is only
 * reported.
 */
bool
sameModuleCounts(const Pass &a, const Pass &b, const char *what)
{
    Counters left, right;
    size_t flips = 0;
    for (size_t i = 0; i < a.exact.size() && i < b.exact.size(); ++i) {
        if (a.exact[i].empty() || b.exact[i].empty()) {
            flips += a.exact[i].empty() != b.exact[i].empty();
            continue;
        }
        std::string prefix = "module" + std::to_string(i) + ".";
        for (const auto &[key, value] : a.exact[i])
            left[prefix + key] = value;
        for (const auto &[key, value] : b.exact[i])
            right[prefix + key] = value;
    }
    if (flips)
        std::printf("%s: %zu module(s) completed in one pass only "
                    "(near the wall limit)\n",
                    what, flips);
    return sameCounts(left, right, what);
}

} // namespace

Outcome
runModuleCold(const Options &options)
{
    Outcome outcome;
    printFingerprint(options.revision, options.workload, kWorkers);
    std::vector<std::string> texts;
    std::vector<uint64_t> seeds;
    for (unsigned i = 0; i < kModules; ++i) {
        uint64_t module_seed = mix(options.seed * 1'000'003ull + i);
        lpo::ir::Context ctx;
        lpo::corpus::CorpusGenerator generator(ctx);
        auto module = generator.largeModule(module_seed, kFunctions, kBlocks);
        texts.push_back(lpo::ir::printModule(*module));
        seeds.push_back(module_seed);
    }
    std::printf("module-cold: %u modules x %u functions x %u blocks per "
                "pass, limit %.1f s per module, hybrid proposer, %u "
                "pipeline workers\n",
                kModules, kFunctions, kBlocks, kLimitSeconds, kWorkers);

    std::vector<Pass> passes;
    // Repeat the pass while another one still fits in --seconds.
    uint64_t run_start = nowNs();
    do {
        passes.push_back(runPass(texts, seeds, false));
    } while (!options.trace &&
             double(nowNs() - run_start) / 1e9 + passes.back().wall_s <=
                 options.seconds);

    bool counts_ok = true;
    for (size_t p = 1; p < passes.size(); ++p)
        counts_ok &= sameModuleCounts(passes[0], passes[p], "repeat pass");

    const Pass &first = passes[0];
    std::vector<double> latency, setup, seq_rate;
    uint64_t attempted = 0, stopped = 0, crashed = 0, oracle_failed = 0;
    for (const Pass &pass : passes) {
        latency.insert(latency.end(), pass.latency_ms.begin(),
                       pass.latency_ms.end());
        setup.insert(setup.end(), pass.setup_s.begin(), pass.setup_s.end());
        seq_rate.insert(seq_rate.end(), pass.seq_rate.begin(),
                        pass.seq_rate.end());
        attempted += pass.attempted;
        stopped += pass.stopped;
        crashed += pass.crashed;
        oracle_failed += uint64_t(get(pass.totals, "oracle_failed") +
                                  get(pass.totals, "invalid_functions") +
                                  get(pass.totals, "patch_failures") +
                                  get(pass.totals, "case_errors"));
    }
    uint64_t wrong = crashed + oracle_failed;

    Report &e2e = outcome.end_to_end;
    e2e.set("setup_s", median(setup), "s");
    // Median over completed module runs of sequences per optimize()
    // second: one module's share of machine noise or of the sub-limit
    // tail cannot swing it.
    e2e.set("seq_per_s", median(seq_rate), "1/s");
    e2e.set("found", get(first.totals, "found"), "count");
    e2e.set("cycles_saved", get(first.totals, "cycles_saved"), "cycles");
    e2e.set("llm_calls", get(first.totals, "llm_calls"), "count");
    e2e.set("peak_rss_mb", peakRssMb(), "MB");
    e2e.set("module_p50_ms", percentile(latency, 0.5), "ms");
    e2e.set("module_p90_ms", percentile(latency, 0.9), "ms");
    e2e.set("error_rate", ratio(double(stopped + wrong), double(attempted)),
            "ratio");

    double completed_max = 0;
    for (double ms : latency)
        if (ms < kLimitSeconds * 1e3)
            completed_max = std::max(completed_max, ms);
    std::printf("passes: %zu, modules attempted %" PRIu64 ", stopped at "
                "limit %" PRIu64 ", wrong or crashed %" PRIu64
                ", slowest completed module %.1f ms, %.0f functions outside "
                "the interpreter's model\n",
                passes.size(), attempted, stopped, wrong, completed_max,
                get(first.totals, "oracle_unchecked"));
    printPercentile("module_p50_ms", latency, 0.5);
    printPercentile("module_p90_ms", latency, 0.9);
    printPercentile("module tail", latency, tailQuantile(latency.size()));

    outcome.attempted = attempted;
    outcome.failed = wrong;
    outcome.correct = counts_ok && wrong == 0;

    if (options.trace) {
        Pass traced = runPass(texts, seeds, true);
        counts_ok = sameModuleCounts(first, traced, "traced vs untraced");
        outcome.correct = outcome.correct && counts_ok;
        const Counters &t = traced.totals;
        SpanTotals spans = summarizeSpans(traced.spans, 1, 0, ~0ull);
        auto total = [&](const char *name) {
            auto it = spans.total_ms.find(name);
            return it == spans.total_ms.end() ? 0.0 : it->second;
        };
        Report &layers = outcome.per_layer;
        double pipeline_ns = get(t, "total_ns") - get(t, "extract_ns") -
                             get(t, "dce_ns");
        layers.set("extract.busy_ms", total("extract.extractDetailed"), "ms");
        layers.set("extract.sequences", get(t, "considered"), "count");
        layers.set("extract.unique_ratio",
                   ratio(get(t, "unique"), get(t, "considered")), "ratio");
        layers.set("proposer.llm.calls", get(t, "llm_calls"), "count");
        layers.set("proposer.llm.busy_ms", total("proposer.llm.complete"),
                   "ms");
        layers.set("proposer.llm.syntax_errors", get(t, "syntax_errors"),
                   "count");
        layers.set("proposer.llm.useful_ratio",
                   ratio(get(t, "found_by_llm"), get(t, "llm_calls")),
                   "ratio");
        layers.set("proposer.egraph.consults", get(t, "egraph_consults"),
                   "count");
        layers.set("proposer.egraph.busy_ms",
                   total("proposer.egraph.propose"), "ms");
        layers.set("proposer.egraph.useful_ratio",
                   ratio(get(t, "found_by_egraph"),
                         get(t, "egraph_consults")),
                   "ratio");
        layers.set("proposer.catalog.consults", get(t, "catalog_consults"),
                   "count");
        layers.set("proposer.catalog.hit_ratio",
                   ratio(get(t, "catalog_proposals"),
                         get(t, "catalog_consults")),
                   "ratio");
        layers.set("verify.calls", get(t, "verify_calls"), "count");
        layers.set("verify.busy_ms", total("verify.checkRefinement"), "ms");
        layers.set("verify.refuted", get(t, "refuted"), "count");
        layers.set("verify.degraded", get(t, "degraded"), "count");
        layers.set("verify.escalations", get(t, "escalations"), "count");
        layers.set("verify.cache_hit_ratio",
                   ratio(get(t, "cache_hits"),
                         get(t, "cache_hits") + get(t, "cache_misses")),
                   "ratio");
        layers.set("smt.solves", get(t, "sat_solves"), "count");
        layers.set("smt.conflicts", get(t, "sat_conflicts"), "count");
        layers.set("smt.propagations", get(t, "sat_propagations"), "count");
        layers.set("smt.conflicts_per_ms",
                   ratio(get(t, "sat_conflicts"), get(t, "solve_ns") / 1e6),
                   "1/ms");
        layers.set("smt.session_reuses", get(t, "session_reuses"), "count");
        layers.set("interp.queries", get(t, "interp_queries"), "count");
        layers.set("interp.busy_ms", get(t, "interp_replay_ns") / 1e6, "ms");
        layers.set("module_opt.self_ms",
                   (get(t, "optimize_ns") - get(t, "total_ns") +
                    get(t, "dce_ns")) / 1e6,
                   "ms");
        layers.set("module_opt.patched", get(t, "patched"), "count");
        layers.set("task_graph.idle_ms", get(t, "idle_ns") / 1e6, "ms");
        layers.set("task_graph.steals", get(t, "steals"), "count");
        layers.set("task_graph.parallel_eff",
                   ratio(get(t, "propose_ns") + get(t, "verify_ns"),
                         pipeline_ns * kWorkers),
                   "ratio");
        layers.set("ir.parse_ms", total("ir.parseModule"), "ms");
        layers.set("ir.print_ms", total("ir.printModule"), "ms");
        finishTrace(options, traced.spans, traced.start_ns, traced.end_ns,
                    first.wall_s, &outcome);
    }
    return outcome;
}

} // namespace perfbench
