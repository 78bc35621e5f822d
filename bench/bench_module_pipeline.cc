/**
 * @file
 * Module-pipeline throughput: the end-to-end extract -> optimize ->
 * patch-back path over a stream of large, highly-duplicated modules
 * (the paper's module-scale workload: value is measured on whole
 * programs, not isolated kernels).
 *
 * The workload is kModules corpus::largeModule instances sharing one
 * pattern grid (different noise seeds), pushed through a single
 * core::ModuleOptimizer: module 1 pays every verification, later
 * modules repeat its sequences and must be served by the shared
 * verification cache while still getting their own sites patched.
 * Reported throughput is end-to-end sequences/sec — considered
 * sequences (duplicates included, that is what module traffic looks
 * like) over the wall time of the whole optimize() stream, minimum
 * over kReps repetitions.
 *
 * Emits BENCH_module.json; tools/ci.sh gates sequences_per_sec and
 * patched_rewrites against the committed baseline (>20% regression
 * fails), the verifier's deterministic work counters
 * (circuit_nodes built, sat_conflicts spent) at or below it, and the
 * queries decided by word-level terms (term_decided) at or above it. The binary itself fails on broken invariants: no patches,
 * non-decreasing mca cycles, patch failures, invalid patched IR, or a
 * cold cache across duplicate modules.
 */
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/json_writer.h"
#include "core/module_opt.h"
#include "core/report.h"
#include "corpus/generator.h"
#include "llm/mock_model.h"
#include "support/telemetry.h"

using namespace lpo;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned kModules = 4;
constexpr unsigned kFunctions = 48;
constexpr unsigned kBlocks = 3;
constexpr unsigned kReps = 3;

struct RepTotals
{
    double seconds = 0;
    uint64_t considered = 0;
    uint64_t unique = 0;
    uint64_t patched = 0;
    uint64_t failures = 0;
    uint64_t invalid = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    double cycles_before = 0;
    double cycles_after = 0;
    double p99_module_latency_ms = 0;
    uint64_t steals = 0;
    uint64_t circuit_nodes = 0;
    uint64_t sat_conflicts = 0;
    uint64_t term_decided = 0;
};

RepTotals
runOnce()
{
    RepTotals totals;
    // Per-rep histogram window so the reported p99 describes the same
    // run as the reported wall time.
    telemetry::MetricsRegistry::instance().reset();
    // Fresh contexts + modules per rep (optimize mutates them);
    // generation is excluded from the timed section.
    std::vector<std::unique_ptr<ir::Context>> contexts;
    std::vector<std::unique_ptr<ir::Module>> modules;
    for (unsigned m = 0; m < kModules; ++m) {
        contexts.push_back(std::make_unique<ir::Context>());
        corpus::CorpusGenerator generator(*contexts.back());
        modules.push_back(
            generator.largeModule(100 + m, kFunctions, kBlocks));
    }

    llm::MockModel model(llm::modelByName("Gemini2.0T"), 1);
    core::ModuleOptOptions options;
    options.pipeline.proposer = core::ProposerKind::Hybrid;
    core::ModuleOptimizer optimizer(model, options);

    auto start = Clock::now();
    for (unsigned m = 0; m < kModules; ++m) {
        core::ModuleOptResult result =
            optimizer.optimize(*modules[m], 1);
        totals.considered += result.extraction.sequences_considered;
        totals.unique += result.unique_sequences;
        totals.patched += result.patched_rewrites;
        totals.failures += result.patch_failures;
        totals.invalid += result.invalid_functions;
        totals.cycles_before += result.cycles_before;
        totals.cycles_after += result.cycles_after;
    }
    totals.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    totals.cache_hits = optimizer.pipelineStats().verify_cache_hits;
    totals.cache_misses = optimizer.pipelineStats().verify_cache_misses;
    totals.steals = optimizer.pipelineStats().scheduler.steals;
    totals.circuit_nodes = optimizer.pipelineStats().circuit_nodes;
    totals.sat_conflicts = optimizer.pipelineStats().sat_conflicts;
    totals.term_decided = optimizer.pipelineStats().term_decided;
    auto snapshot = telemetry::MetricsRegistry::instance().snapshot();
    if (const auto *latency = snapshot.histogram("module.latency_ns"))
        totals.p99_module_latency_ms = latency->p99() / 1e6;
    return totals;
}

} // namespace

int
main()
{
    RepTotals best;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        RepTotals totals = runOnce();
        if (rep == 0 || totals.seconds < best.seconds)
            best = totals;
        std::printf("rep %u: %.2fs, %llu sequences, %llu patched\n",
                    rep, totals.seconds,
                    static_cast<unsigned long long>(totals.considered),
                    static_cast<unsigned long long>(totals.patched));
    }

    double seq_per_sec = best.considered / best.seconds;
    double hit_rate =
        best.cache_hits + best.cache_misses
            ? double(best.cache_hits) /
                  double(best.cache_hits + best.cache_misses)
            : 0.0;

    std::printf("\nmodule pipeline: %u modules x %u functions x %u "
                "blocks\n"
                "  %llu sequences considered (%llu unique), "
                "%.0f sequences/sec end-to-end\n"
                "  verify cache: %s\n"
                "  %llu rewrites patched, mca cycles %.1f -> %.1f\n",
                kModules, kFunctions, kBlocks,
                static_cast<unsigned long long>(best.considered),
                static_cast<unsigned long long>(best.unique),
                seq_per_sec,
                core::cacheSummary(best.cache_hits, best.cache_misses)
                    .c_str(),
                static_cast<unsigned long long>(best.patched),
                best.cycles_before, best.cycles_after);

    core::JsonWriter json;
    json.beginObject();
    json.field("modules", kModules);
    json.field("functions_per_module", kFunctions);
    json.field("blocks_per_fn", kBlocks);
    json.field("sequences_considered", best.considered);
    json.field("unique_sequences", best.unique);
    json.field("sequences_per_sec", seq_per_sec, 1);
    json.field("cache_hit_rate", hit_rate, 3);
    json.field("patched_rewrites", best.patched);
    json.field("cycles_before", best.cycles_before, 1);
    json.field("cycles_after", best.cycles_after, 1);
    json.field("p99_module_latency_ms", best.p99_module_latency_ms, 3);
    json.field("steals", best.steals);
    json.field("circuit_nodes", best.circuit_nodes);
    json.field("sat_conflicts", best.sat_conflicts);
    json.field("term_decided", best.term_decided);
    json.endObject();
    std::ofstream out("BENCH_module.json");
    out << json.str() << "\n";
    std::printf("wrote BENCH_module.json\n");

    bool fail = false;
    if (best.patched == 0) {
        std::fprintf(stderr, "FAIL: no rewrites patched back\n");
        fail = true;
    }
    if (best.cycles_after >= best.cycles_before) {
        std::fprintf(stderr,
                     "FAIL: mca cycle total did not decrease "
                     "(%.1f -> %.1f)\n",
                     best.cycles_before, best.cycles_after);
        fail = true;
    }
    if (best.failures || best.invalid) {
        std::fprintf(stderr,
                     "FAIL: %llu patch failures, %llu invalid patched "
                     "functions\n",
                     static_cast<unsigned long long>(best.failures),
                     static_cast<unsigned long long>(best.invalid));
        fail = true;
    }
    if (best.cache_hits == 0) {
        std::fprintf(stderr,
                     "FAIL: duplicate modules produced zero verify "
                     "cache hits\n");
        fail = true;
    }
    return fail ? 1 : 0;
}
