/**
 * @file
 * Persistent verify store throughput: cold run (empty store, every
 * verdict proved and journaled) vs warm run (fresh process-life, same
 * store: verdicts seeded into the cache, learned rewrites replayed by
 * the catalog proposer ahead of the LLM leg).
 *
 * The workload is one corpus::largeModule per phase — the same module
 * text both times, as a crash-recovered or nightly re-run would see it.
 * The warm run must (a) find exactly what the cold run found, (b) emit
 * a byte-identical patched module, (c) serve every verification from
 * the seeded cache, (d) route every finding through the catalog, and
 * (e) answer every case that found nothing cold from its remembered
 * miss, so it asks neither the LLM nor the e-graph.
 *
 * Emits BENCH_persist.json; tools/ci.sh gates its deterministic
 * counters (warm cache and catalog hit rates, warm LLM calls and
 * e-graph consults) against the committed baseline. The binary itself fails on broken
 * invariants: result divergence, a finding not replayed from the
 * catalog, a warm cache miss, or a warm run no faster than the cold
 * one.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/json_writer.h"
#include "core/module_opt.h"
#include "core/report.h"
#include "corpus/generator.h"
#include "ir/printer.h"
#include "llm/mock_model.h"

using namespace lpo;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned kFunctions = 48;
constexpr unsigned kBlocks = 3;
constexpr unsigned kReps = 3;
constexpr uint64_t kModuleSeed = 100;
const char *kStoreDir = "BENCH_persist.store";

struct PhaseResult
{
    double seconds = 0;
    uint64_t considered = 0;
    uint64_t found = 0;
    uint64_t found_by_catalog = 0;
    uint64_t llm_calls = 0;
    uint64_t egraph_consults = 0;
    uint64_t miss_replays = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t store_loaded = 0;
    uint64_t catalog_loaded = 0;
    uint64_t misses_loaded = 0;
    std::string module_text;
};

/** One optimize() of a freshly generated module through a fresh
 *  optimizer (new process-life: empty in-memory cache) against the
 *  persistent store at kStoreDir. */
PhaseResult
runPhase()
{
    ir::Context ctx;
    corpus::CorpusGenerator generator(ctx);
    auto module = generator.largeModule(kModuleSeed, kFunctions, kBlocks);

    llm::MockModel model(llm::modelByName("Gemini2.0T"), 1);
    core::ModuleOptOptions options;
    options.pipeline.proposer = core::ProposerKind::Hybrid;
    options.pipeline.store_path = kStoreDir;
    PhaseResult phase;
    auto start = Clock::now();
    {
        core::ModuleOptimizer optimizer(model, options);
        core::ModuleOptResult result = optimizer.optimize(*module, 1);
        phase.considered = result.extraction.sequences_considered;
        phase.found = result.pipeline.found;
        phase.found_by_catalog = result.pipeline.found_by_catalog;
        phase.llm_calls = result.pipeline.llm_calls;
        phase.egraph_consults = result.pipeline.egraph_consults;
        phase.miss_replays = result.pipeline.miss_replays;
        phase.cache_hits = result.pipeline.verify_cache_hits;
        phase.cache_misses = result.pipeline.verify_cache_misses;
        phase.store_loaded = result.pipeline.store_cache_loaded;
        phase.catalog_loaded = result.pipeline.store_catalog_loaded;
        phase.misses_loaded = result.pipeline.store_misses_loaded;
        // Destruction flushes the store (timed: a real run pays it).
    }
    phase.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    phase.module_text = ir::printModule(*module);
    return phase;
}

} // namespace

int
main()
{
    // Counters are deterministic across reps (seeded mock model, one
    // store lifecycle per rep); only the timings vary, so keep each
    // phase's minimum seconds and any rep's stats.
    PhaseResult cold, warm;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        std::string cleanup = std::string("rm -rf '") + kStoreDir + "'";
        if (std::system(cleanup.c_str()) != 0) {
            std::fprintf(stderr, "FAIL: cannot clean %s\n", kStoreDir);
            return 1;
        }
        PhaseResult rep_cold = runPhase();
        PhaseResult rep_warm = runPhase();
        std::printf("rep %u: cold %.2fs, warm %.2fs (%.1fx)\n", rep,
                    rep_cold.seconds, rep_warm.seconds,
                    rep_cold.seconds / rep_warm.seconds);
        double best_cold =
            rep ? std::min(cold.seconds, rep_cold.seconds)
                : rep_cold.seconds;
        double best_warm =
            rep ? std::min(warm.seconds, rep_warm.seconds)
                : rep_warm.seconds;
        // Every rep must agree, not just the fastest one.
        if (rep_cold.module_text != rep_warm.module_text) {
            std::fprintf(stderr,
                         "FAIL: rep %u warm module text diverged from "
                         "cold\n",
                         rep);
            return 1;
        }
        if (rep_warm.found != rep_cold.found) {
            std::fprintf(stderr,
                         "FAIL: rep %u warm found %llu != cold %llu\n",
                         rep,
                         static_cast<unsigned long long>(rep_warm.found),
                         static_cast<unsigned long long>(rep_cold.found));
            return 1;
        }
        cold = std::move(rep_cold);
        warm = std::move(rep_warm);
        cold.seconds = best_cold;
        warm.seconds = best_warm;
    }

    double cold_seq_per_sec = cold.considered / cold.seconds;
    double warm_seq_per_sec = warm.considered / warm.seconds;
    double warm_speedup = cold.seconds / warm.seconds;
    double catalog_hit_rate =
        warm.found ? double(warm.found_by_catalog) / double(warm.found)
                   : 0.0;
    double warm_cache_hit_rate =
        warm.cache_hits + warm.cache_misses
            ? double(warm.cache_hits) /
                  double(warm.cache_hits + warm.cache_misses)
            : 0.0;

    std::printf(
        "\npersistent store: 1 module x %u functions x %u blocks\n"
        "  cold: %.0f sequences/sec (%llu verifications paid)\n"
        "  warm: %.0f sequences/sec, %.1fx speedup\n"
        "  warm verify cache: %s\n"
        "  catalog: %llu/%llu findings replayed (%.0f%%), "
        "%llu misses replayed, %llu LLM calls, %llu e-graph consults\n"
        "  loaded on warm open: %llu verdicts, %llu rewrites, %llu "
        "misses\n",
        kFunctions, kBlocks, cold_seq_per_sec,
        static_cast<unsigned long long>(cold.cache_misses),
        warm_seq_per_sec, warm_speedup,
        core::cacheSummary(warm.cache_hits, warm.cache_misses).c_str(),
        static_cast<unsigned long long>(warm.found_by_catalog),
        static_cast<unsigned long long>(warm.found),
        100.0 * catalog_hit_rate,
        static_cast<unsigned long long>(warm.miss_replays),
        static_cast<unsigned long long>(warm.llm_calls),
        static_cast<unsigned long long>(warm.egraph_consults),
        static_cast<unsigned long long>(warm.store_loaded),
        static_cast<unsigned long long>(warm.catalog_loaded),
        static_cast<unsigned long long>(warm.misses_loaded));

    core::JsonWriter json;
    json.beginObject();
    json.field("functions", kFunctions);
    json.field("blocks_per_fn", kBlocks);
    json.field("cold_sequences_per_sec", cold_seq_per_sec, 1);
    json.field("warm_sequences_per_sec", warm_seq_per_sec, 1);
    json.field("warm_speedup", warm_speedup, 2);
    json.field("catalog_hit_rate", catalog_hit_rate, 3);
    json.field("warm_cache_hit_rate", warm_cache_hit_rate, 3);
    json.field("verdicts_loaded", warm.store_loaded);
    json.field("rewrites_loaded", warm.catalog_loaded);
    json.field("misses_loaded", warm.misses_loaded);
    json.field("found", warm.found);
    json.field("found_by_catalog", warm.found_by_catalog);
    json.field("cold_llm_calls", cold.llm_calls);
    json.field("warm_llm_calls", warm.llm_calls);
    json.field("warm_egraph_consults", warm.egraph_consults);
    json.endObject();
    std::ofstream out("BENCH_persist.json");
    out << json.str() << "\n";
    std::printf("wrote BENCH_persist.json\n");

    bool fail = false;
    if (warm.found == 0 || warm.found_by_catalog != warm.found) {
        std::fprintf(stderr,
                     "FAIL: warm run replayed %llu of %llu findings from "
                     "the catalog\n",
                     static_cast<unsigned long long>(warm.found_by_catalog),
                     static_cast<unsigned long long>(warm.found));
        fail = true;
    }
    if (warm.cache_hits == 0 || warm.cache_misses != 0) {
        std::fprintf(stderr,
                     "FAIL: warm verifications not fully served by the "
                     "seeded cache (%llu hits / %llu misses)\n",
                     static_cast<unsigned long long>(warm.cache_hits),
                     static_cast<unsigned long long>(warm.cache_misses));
        fail = true;
    }
    // Cataloged findings and remembered misses skip the LLM leg
    // entirely, so warm strictly undercuts cold (tools/ci.sh gates the
    // exact count).
    if (warm.llm_calls >= cold.llm_calls) {
        std::fprintf(stderr,
                     "FAIL: warm run paid %llu LLM calls (cold: %llu)\n",
                     static_cast<unsigned long long>(warm.llm_calls),
                     static_cast<unsigned long long>(cold.llm_calls));
        fail = true;
    }
    if (warm_speedup <= 1.0) {
        std::fprintf(stderr,
                     "FAIL: warm run no faster than cold (%.2fx)\n",
                     warm_speedup);
        fail = true;
    }
    return fail ? 1 : 0;
}
