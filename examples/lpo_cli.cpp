/**
 * @file
 * lpo — command-line driver (the artifact's user-facing tool).
 *
 * Subcommands:
 *   lpo opt <file.ll>              run the InstCombine pipeline
 *   lpo verify <src.ll> <tgt.ll>   refinement-check a function pair
 *   lpo extract <file.ll>          print extracted unique sequences
 *   lpo run <file.ll> [model] [options]
 *                                  run the LPO loop on every sequence
 *   lpo models                     list the Table 1 model registry
 *   lpo store info|verify|compact <dir>
 *                                  inspect / integrity-check / compact
 *                                  a persistent verify store
 *
 * Files may contain one function (verify) or a whole module.
 */
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

#include "core/module_opt.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "corpus/generator.h"
#include "extract/extractor.h"
#include "ir/ir_verifier.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "llm/mock_model.h"
#include "opt/opt_driver.h"
#include "support/failpoint.h"
#include "support/kvstore.h"
#include "support/telemetry.h"
#include "support/trace.h"
#include "verify/persist.h"
#include "verify/refine.h"

using namespace lpo;

namespace {

std::string
readFile(const char *path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "lpo: cannot open '%s'\n", path);
        std::exit(1);
    }
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

int
cmdOpt(const char *path)
{
    ir::Context ctx;
    auto module = ir::parseModule(ctx, readFile(path));
    if (!module) {
        std::fprintf(stderr, "error: %s\n",
                     module.error().toString().c_str());
        return 1;
    }
    for (const auto &fn : (*module)->functions()) {
        auto optimized = opt::optimizeFunction(*fn);
        std::printf("%s\n", ir::printFunction(*optimized).c_str());
    }
    return 0;
}

int
cmdVerify(const char *src_path, const char *tgt_path)
{
    ir::Context ctx;
    auto src = ir::parseFunction(ctx, readFile(src_path));
    auto tgt = ir::parseFunction(ctx, readFile(tgt_path));
    if (!src || !tgt) {
        std::fprintf(stderr, "error: %s\n",
                     (!src ? src.error() : tgt.error())
                         .toString().c_str());
        return 1;
    }
    // The parser accepts forward references and unknown labels (phis
    // and branches may name what comes later); the checker needs
    // well-formed IR.
    for (auto [path, fn] : {std::pair{src_path, &**src},
                            std::pair{tgt_path, &**tgt}}) {
        std::vector<ir::VerifierIssue> issues = ir::verifyFunction(*fn);
        if (!issues.empty()) {
            std::fprintf(stderr, "error: %s: %s\n", path,
                         issues.front().message.c_str());
            return 1;
        }
    }
    auto verdict = verify::checkRefinement(**src, **tgt);
    if (verdict.correct()) {
        std::printf("Transformation seems to be correct! (%s: %s)\n",
                    verdict.backend.c_str(), verdict.detail.c_str());
        return 0;
    }
    std::printf("%s\n", verdict.feedbackMessage(**src).c_str());
    return 2;
}

int
cmdExtract(const char *path)
{
    ir::Context ctx;
    auto module = ir::parseModule(ctx, readFile(path));
    if (!module) {
        std::fprintf(stderr, "error: %s\n",
                     module.error().toString().c_str());
        return 1;
    }
    extract::Extractor extractor;
    auto sequences = extractor.extractFromModule(**module);
    for (const auto &seq : sequences)
        std::printf("%s\n", ir::printFunction(*seq).c_str());
    const auto &stats = extractor.stats();
    std::fprintf(stderr,
                 "; considered=%llu extracted=%llu duplicates=%llu "
                 "still-optimizable=%llu\n",
                 (unsigned long long)stats.sequences_considered,
                 (unsigned long long)stats.extracted,
                 (unsigned long long)stats.duplicates_skipped,
                 (unsigned long long)stats.still_optimizable_skipped);
    return 0;
}

/** `lpo run` knobs parsed from the trailing argument list. */
struct RunOptions
{
    std::string model = "Gemini2.0T";
    core::PipelineConfig config;
    /** optimize-module only: write the patched module here. */
    std::string emit_path;
    /** --trace=FILE: Chrome trace-event JSON of the run. */
    std::string trace_path;
    /** --metrics[=FILE]: metrics registry snapshot as JSON. */
    std::string metrics_path;
    /** --profile: per-phase wall-time table, scheduler counters and
     *  the sat:/degradation: work lines on stderr. */
    bool profile = false;
};

bool
parseRunOptions(int argc, char **argv, int first, RunOptions *out)
{
    bool model_set = false;
    for (int i = first; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strncmp(arg, "--proposer=", 11)) {
            if (!core::parseProposerKind(arg + 11,
                                         &out->config.proposer)) {
                std::fprintf(stderr,
                             "lpo: unknown proposer '%s' (expected "
                             "llm, egraph, or hybrid)\n",
                             arg + 11);
                return false;
            }
        } else if (!std::strncmp(arg, "--threads=", 10)) {
            char *end = nullptr;
            long threads = std::strtol(arg + 10, &end, 10);
            if (end == arg + 10 || *end || threads < 0 ||
                threads > 4096) {
                std::fprintf(stderr,
                             "lpo: bad --threads value '%s' "
                             "(expected 0..4096)\n",
                             arg + 10);
                return false;
            }
            out->config.num_threads = static_cast<unsigned>(threads);
        } else if (!std::strcmp(arg, "--no-verify-cache")) {
            out->config.enable_verify_cache = false;
        } else if (!std::strncmp(arg, "--store=", 8)) {
            if (!arg[8]) {
                std::fprintf(stderr,
                             "lpo: --store needs a directory path\n");
                return false;
            }
            out->config.store_path = arg + 8;
        } else if (!std::strncmp(arg, "--emit=", 7)) {
            if (!arg[7]) {
                std::fprintf(stderr, "lpo: --emit needs a file path\n");
                return false;
            }
            out->emit_path = arg + 7;
        } else if (!std::strncmp(arg, "--trace=", 8)) {
            if (!arg[8]) {
                std::fprintf(stderr, "lpo: --trace needs a file path\n");
                return false;
            }
            out->trace_path = arg + 8;
        } else if (!std::strcmp(arg, "--metrics")) {
            out->metrics_path = "metrics.lpo.json";
        } else if (!std::strncmp(arg, "--metrics=", 10)) {
            if (!arg[10]) {
                std::fprintf(stderr,
                             "lpo: --metrics needs a file path\n");
                return false;
            }
            out->metrics_path = arg + 10;
        } else if (!std::strcmp(arg, "--profile")) {
            out->profile = true;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "lpo: unknown option '%s'\n", arg);
            return false;
        } else if (!model_set) {
            out->model = arg;
            model_set = true;
        } else {
            std::fprintf(stderr, "lpo: unexpected argument '%s'\n", arg);
            return false;
        }
    }
    return true;
}

/** Observability outputs to salvage if the run is killed externally:
 *  stashed by beginObservability for the fatal-signal handler. */
struct
{
    char metrics_path[4096] = {0};
    char trace_path[4096] = {0};
} g_observability;

/**
 * SIGTERM/SIGINT during an instrumented run: write whatever the
 * metrics registry and tracer have accumulated so far before dying,
 * so --metrics/--trace artifacts survive an external kill. Best
 * effort by design — the exit code still reports the signal death.
 */
void
onFatalSignal(int sig)
{
    if (g_observability.metrics_path[0]) {
        std::ofstream out(g_observability.metrics_path,
                          std::ios::binary | std::ios::trunc);
        if (out)
            out << telemetry::MetricsRegistry::instance()
                       .snapshot()
                       .toJson()
                << "\n";
    }
    if (g_observability.trace_path[0])
        trace::Tracer::instance().writeTo(g_observability.trace_path);
    ::_exit(128 + sig);
}

/** Arm the span tracer before the run when --trace was given (the
 * metrics registry records unconditionally; recording never feeds
 * back into pipeline decisions — see DESIGN.md "Observability"). */
void
beginObservability(const RunOptions &options)
{
    if (!options.trace_path.empty())
        trace::Tracer::instance().start();
    if (options.metrics_path.empty() && options.trace_path.empty())
        return;
    std::snprintf(g_observability.metrics_path,
                  sizeof(g_observability.metrics_path), "%s",
                  options.metrics_path.c_str());
    std::snprintf(g_observability.trace_path,
                  sizeof(g_observability.trace_path), "%s",
                  options.trace_path.c_str());
    struct sigaction action = {};
    action.sa_handler = onFatalSignal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
}

/**
 * Emit whatever observability outputs were requested: the --profile
 * table on stderr, the --metrics JSON snapshot, and the --trace
 * Chrome trace-event file. Returns 1 if any output file failed.
 */
int
finishObservability(const RunOptions &options,
                    const core::PipelineStats &stats)
{
    int rc = 0;
    if (options.profile || !options.metrics_path.empty()) {
        telemetry::MetricsSnapshot snapshot =
            telemetry::MetricsRegistry::instance().snapshot();
        if (options.profile)
            std::fprintf(stderr, "%s",
                         core::profileSummary(stats, snapshot).c_str());
        if (!options.metrics_path.empty()) {
            std::ofstream out(options.metrics_path,
                              std::ios::binary | std::ios::trunc);
            if (out)
                out << snapshot.toJson() << "\n";
            out.flush();
            if (!out) {
                std::fprintf(stderr, "lpo: cannot write '%s'\n",
                             options.metrics_path.c_str());
                rc = 1;
            }
        }
    }
    if (!options.trace_path.empty()) {
        std::string error;
        if (!trace::Tracer::instance().writeTo(options.trace_path,
                                               &error)) {
            std::fprintf(stderr, "lpo: %s\n", error.c_str());
            rc = 1;
        }
    }
    return rc;
}

int
cmdRun(const char *path, const RunOptions &options)
{
    beginObservability(options);
    ir::Context ctx;
    auto module = ir::parseModule(ctx, readFile(path));
    if (!module) {
        std::fprintf(stderr, "error: %s\n",
                     module.error().toString().c_str());
        return 1;
    }
    llm::MockModel model(llm::modelByName(options.model), 1);
    core::Pipeline pipeline(model, options.config);
    extract::Extractor extractor;
    auto outcomes = pipeline.processModule(**module, extractor, 1);
    for (const auto &outcome : outcomes) {
        if (!outcome.found())
            continue;
        std::printf("; verified missed optimization "
                    "(%s proposer, %u attempt(s), %s backend)\n%s\n",
                    outcome.proposer.c_str(), outcome.attempts,
                    outcome.verifier_backend.c_str(),
                    outcome.candidate_text.c_str());
    }
    std::fprintf(stderr, "%s",
                 core::moduleSummary(
                     pipeline.stats(), outcomes,
                     options.config.enable_verify_cache).c_str());
    return finishObservability(options, pipeline.stats());
}

int
cmdOptimizeModule(const char *path, const RunOptions &options)
{
    beginObservability(options);
    ir::Context ctx;
    auto module = ir::parseModule(ctx, readFile(path));
    if (!module) {
        std::fprintf(stderr, "error: %s\n",
                     module.error().toString().c_str());
        return 1;
    }
    llm::MockModel model(llm::modelByName(options.model), 1);
    core::ModuleOptOptions mod_options;
    mod_options.adoptPipeline(options.config);
    core::ModuleOptimizer optimizer(model, mod_options);
    core::ModuleOptResult result = optimizer.optimize(**module, 1);

    std::printf("%s\n", core::savingsTable(result).c_str());
    std::printf("extraction: considered=%llu unique=%llu "
                "duplicates=%llu length-filtered=%llu "
                "still-optimizable=%llu collisions=%llu\n",
                (unsigned long long)result.extraction.sequences_considered,
                (unsigned long long)result.unique_sequences,
                (unsigned long long)result.extraction.duplicates_skipped,
                (unsigned long long)result.extraction.length_filtered,
                (unsigned long long)
                    result.extraction.still_optimizable_skipped,
                (unsigned long long)result.extraction.hash_collisions);
    std::printf("patched %llu rewrite site(s) (%llu failed, %llu "
                "function(s) rolled back), swept %u dead "
                "instruction(s); mca cycles %.1f -> %.1f\n",
                (unsigned long long)result.patched_rewrites,
                (unsigned long long)result.patch_failures,
                (unsigned long long)result.functions_rolled_back,
                result.dce_removed, result.cycles_before,
                result.cycles_after);
    // Blocks generated by corpus::largeModule are labelled
    // "s<j>.<family>"; fold patch sites per family when present.
    std::map<std::string, unsigned> families;
    for (const core::PatchRecord &patch : result.patches) {
        size_t dot = patch.block.find('.');
        if (dot != std::string::npos)
            ++families[patch.block.substr(dot + 1)];
    }
    if (!families.empty()) {
        std::printf("patched families (%zu):", families.size());
        for (const auto &[family, count] : families)
            std::printf(" %s x%u", family.c_str(), count);
        std::printf("\n");
    }
    if (result.invalid_functions) {
        std::fprintf(stderr,
                     "lpo: %llu patched function(s) failed ir::isValid\n",
                     (unsigned long long)result.invalid_functions);
        return 1;
    }
    std::fprintf(stderr, "%s",
                 core::moduleSummary(
                     result.pipeline, result.outcomes,
                     options.config.enable_verify_cache).c_str());
    if (!options.emit_path.empty()) {
        std::ofstream out(options.emit_path);
        if (!out) {
            std::fprintf(stderr, "lpo: cannot write '%s'\n",
                         options.emit_path.c_str());
            return 1;
        }
        out << ir::printModule(**module);
        out.close();
        if (!out) {
            std::fprintf(stderr, "lpo: write to '%s' failed\n",
                         options.emit_path.c_str());
            return 1;
        }
    }
    return finishObservability(options, result.pipeline);
}

/** `lpo store info|verify|compact <dir>` — offline store maintenance.
 *  info prints each file's status read-only; verify additionally exits
 *  2 when anything is corrupt, torn, or rejected (nothing is repaired
 *  — a clean exit certifies the store as-is); compact runs the normal
 *  recovery open and rewrites both files as deduplicated snapshots. */
int
cmdStore(const char *action, const char *dir)
{
    const struct
    {
        const char *name;
        KvOpenOptions options;
    } files[] = {
        {verify::kVerifyStoreFile, verify::verifyStoreFileOptions(true)},
        {verify::kCatalogStoreFile,
         verify::catalogStoreFileOptions(true)},
    };

    if (!std::strcmp(action, "info") || !std::strcmp(action, "verify")) {
        const bool checking = !std::strcmp(action, "verify");
        int rc = 0;
        for (const auto &file : files) {
            std::string path = std::string(dir) + "/" + file.name;
            struct stat st;
            if (::stat(path.c_str(), &st) != 0) {
                std::printf("%s: absent\n", file.name);
                continue;
            }
            KvLoadStats stats;
            std::string error;
            // catalog.lpo holds two record kinds; count the misses.
            uint64_t misses = 0;
            KvOpen status = KvStore::inspect(
                path, file.options,
                [&](std::string &&key, std::string &&) {
                    misses += verify::isMissKey(key) ? 1 : 0;
                },
                &stats, &error);
            std::string kinds;
            if (file.name == std::string(verify::kCatalogStoreFile))
                kinds = " (" + std::to_string(stats.records - misses) +
                        " rewrite(s), " + std::to_string(misses) +
                        " miss(es))";
            std::printf("%s: %s, %llu record(s)%s, %llu corrupt, "
                        "%llu torn byte(s), quarantine sidecar "
                        "%llu byte(s)\n",
                        file.name, kvOpenName(status),
                        (unsigned long long)stats.records, kinds.c_str(),
                        (unsigned long long)stats.quarantined,
                        (unsigned long long)stats.torn_bytes,
                        (unsigned long long)
                            KvStore::quarantineSize(path));
            if (!kvOpenUsable(status)) {
                if (!error.empty())
                    std::printf("  %s\n", error.c_str());
                if (checking)
                    rc = 2;
            } else if (stats.recovered) {
                if (checking)
                    rc = 2;
                else
                    std::printf("  recovery pending (reopen for write "
                                "or run `lpo store compact`)\n");
            }
        }
        if (checking)
            std::printf("store: %s\n", rc ? "FAILED" : "OK");
        return rc;
    }

    if (!std::strcmp(action, "compact")) {
        verify::VerifyCache cache;
        std::string warning;
        auto store = verify::PersistentStore::open(dir, &cache, &warning);
        if (!warning.empty())
            std::fprintf(stderr, "lpo: warning: %s\n", warning.c_str());
        if (!store)
            return 1;
        std::string error;
        if (!store->compact(&error)) {
            std::fprintf(stderr, "lpo: compact failed: %s\n",
                         error.c_str());
            return 1;
        }
        verify::StoreStats stats = store->stats();
        std::printf("compacted: %llu verdict(s) + %llu rewrite(s) + "
                    "%llu miss(es) kept, %llu recover%s, %llu quarantined, "
                    "%llu undecodable dropped\n",
                    (unsigned long long)stats.cache_loaded,
                    (unsigned long long)stats.catalog_loaded,
                    (unsigned long long)stats.misses_loaded,
                    (unsigned long long)stats.recoveries,
                    stats.recoveries == 1 ? "y" : "ies",
                    (unsigned long long)stats.quarantined,
                    (unsigned long long)stats.decode_skipped);
        return 0;
    }

    std::fprintf(stderr,
                 "lpo: unknown store action '%s' "
                 "(expected info, verify, or compact)\n",
                 action);
    return 1;
}

int
cmdFailpoints()
{
    // Site names come from the failpoint registry; the live hit/fire
    // counters come from the metrics snapshot (the registry exports
    // them via a collector), so this doubles as a smoke test of the
    // telemetry path. Scripts that only want the names take column 1.
    FailPoints &failpoints = FailPoints::instance();
    telemetry::MetricsSnapshot snapshot =
        telemetry::MetricsRegistry::instance().snapshot();
    for (const std::string &site : failpoints.siteNames()) {
        std::printf(
            "%s hits=%llu fires=%llu\n", site.c_str(),
            static_cast<unsigned long long>(
                snapshot.counter("failpoint." + site + ".hits")),
            static_cast<unsigned long long>(
                snapshot.counter("failpoint." + site + ".fires")));
    }
    return 0;
}

/**
 * `lpo gen-module [seed] [functions] [blocks]` — print a deterministic
 * corpus module (the module-pipeline benchmark's workload) so scripts
 * can drive optimize-module without shipping .ll fixtures.
 */
int
cmdGenModule(int argc, char **argv)
{
    uint64_t values[3] = {1, 48, 3}; // seed, functions, blocks
    for (int i = 2; i < argc; ++i) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(argv[i], &end, 10);
        if (end == argv[i] || *end) {
            std::fprintf(stderr, "lpo: bad gen-module argument '%s'\n",
                         argv[i]);
            return 1;
        }
        values[i - 2] = v;
    }
    if (values[1] == 0 || values[1] > 100000 || values[2] == 0 ||
        values[2] > 1000) {
        std::fprintf(stderr,
                     "lpo: gen-module needs 1..100000 functions and "
                     "1..1000 blocks\n");
        return 1;
    }
    ir::Context ctx;
    corpus::CorpusGenerator generator(ctx);
    auto module = generator.largeModule(
        values[0], static_cast<unsigned>(values[1]),
        static_cast<unsigned>(values[2]));
    std::printf("%s", ir::printModule(*module).c_str());
    return 0;
}

int
cmdModels()
{
    for (const auto &profile : llm::modelRegistry()) {
        std::printf("%-12s %-40s %s, cut-off %s\n",
                    profile.name.c_str(), profile.version.c_str(),
                    profile.reasoning ? "reasoning" : "base",
                    profile.cutoff.c_str());
    }
    return 0;
}

void
usage()
{
    std::fprintf(stderr,
        "usage: lpo <command> [args]\n"
        "  opt <file.ll>              optimize with the pipeline\n"
        "  verify <src.ll> <tgt.ll>   check refinement (Alive2-style)\n"
        "  extract <file.ll>          extract unique sequences\n"
        "  run <file.ll> [model] [options]\n"
        "                             run the LPO loop (default "
        "Gemini2.0T)\n"
        "  optimize-module <file.ll> [model] [options]\n"
        "                             extract, optimize, and patch\n"
        "                             verified rewrites back into the\n"
        "                             module; prints the per-function\n"
        "                             savings table (accepts the same\n"
        "                             options as run)\n"
        "  store info <dir>           print each store file's status\n"
        "  store verify <dir>         integrity-check a store; exit 2\n"
        "                             on corruption, torn tails, or\n"
        "                             version/option skew\n"
        "  store compact <dir>        recover and rewrite both files\n"
        "                             as deduplicated snapshots\n"
        "  models                     list the model registry\n"
        "  failpoints                 list the registered fault-\n"
        "                             injection sites with their live\n"
        "                             hit/fire counters (armed via the\n"
        "                             LPO_FAILPOINTS environment\n"
        "                             variable; see DESIGN.md)\n"
        "  gen-module [seed] [functions] [blocks]\n"
        "                             print a deterministic corpus\n"
        "                             module (defaults 1 48 3) for\n"
        "                             driving optimize-module\n"
        "  help                       show this message\n"
        "\n"
        "run options:\n"
        "  --proposer=llm|egraph|hybrid\n"
        "                             candidate backend: the LLM loop,\n"
        "                             e-graph equality saturation, or\n"
        "                             LLM with e-graph fallback\n"
        "                             (default llm)\n"
        "  --threads=N                worker threads for the sequence\n"
        "                             fan-out; 0 = all hardware\n"
        "                             threads, 1 = serial (default 0;\n"
        "                             results are identical for every\n"
        "                             thread count)\n"
        "  --no-verify-cache          disable the shared verification\n"
        "                             result cache (results are\n"
        "                             identical; only speed changes)\n"
        "  --store=DIR                persist verified verdicts,\n"
        "                             learned rewrites and misses in\n"
        "                             DIR (created if missing); warm\n"
        "                             runs replay them without asking\n"
        "                             the model again. An unusable path\n"
        "                             warns once and runs memory-only\n"
        "  --emit=FILE                optimize-module only: write the\n"
        "                             patched module text to FILE\n"
        "  --trace=FILE               write a Chrome trace-event JSON\n"
        "                             of the run to FILE (load it in\n"
        "                             chrome://tracing or Perfetto);\n"
        "                             tracing never changes results\n"
        "  --metrics[=FILE]           write the metrics registry\n"
        "                             snapshot (counters, gauges,\n"
        "                             latency histograms with p50/p90/\n"
        "                             p99) as JSON to FILE (default\n"
        "                             metrics.lpo.json)\n"
        "  --profile                  print the per-phase wall-time\n"
        "                             table (share of the run plus\n"
        "                             per-invocation percentiles; opt\n"
        "                             is each candidate's parse, IR\n"
        "                             verifier and passes, case the\n"
        "                             rest of each case, and verify is\n"
        "                             split into cache key, encode and\n"
        "                             solve rows), the\n"
        "                             scheduler counters, the solver\n"
        "                             work line\n"
        "                             (sat: solves / decisions /\n"
        "                             conflicts / propagations /\n"
        "                             restarts), the circuit builder\n"
        "                             line (circuit: nodes built\n"
        "                             (emitted to the solver) / queries\n"
        "                             decided by word-level terms\n"
        "                             without a circuit) and the\n"
        "                             degradation line (budget-ladder\n"
        "                             escalations, concrete fallbacks,\n"
        "                             degraded verdicts, contained\n"
        "                             exceptions) on stderr after the\n"
        "                             summary\n");
}

} // namespace

int
dispatch(int argc, char **argv)
{
    const char *cmd = argv[1];
    if (!std::strcmp(cmd, "help") || !std::strcmp(cmd, "--help") ||
        !std::strcmp(cmd, "-h")) {
        usage();
        return 0;
    }
    if (!std::strcmp(cmd, "opt") && argc == 3)
        return cmdOpt(argv[2]);
    if (!std::strcmp(cmd, "verify") && argc == 4)
        return cmdVerify(argv[2], argv[3]);
    if (!std::strcmp(cmd, "extract") && argc == 3)
        return cmdExtract(argv[2]);
    if (!std::strcmp(cmd, "run") && argc >= 3) {
        RunOptions options;
        if (!parseRunOptions(argc, argv, 3, &options))
            return 1;
        return cmdRun(argv[2], options);
    }
    if (!std::strcmp(cmd, "optimize-module") && argc >= 3) {
        RunOptions options;
        if (!parseRunOptions(argc, argv, 3, &options))
            return 1;
        return cmdOptimizeModule(argv[2], options);
    }
    if (!std::strcmp(cmd, "store") && argc == 4)
        return cmdStore(argv[2], argv[3]);
    if (!std::strcmp(cmd, "models"))
        return cmdModels();
    if (!std::strcmp(cmd, "failpoints"))
        return cmdFailpoints();
    if (!std::strcmp(cmd, "gen-module") && argc <= 5)
        return cmdGenModule(argc, argv);
    usage();
    return 1;
}

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    // Last-resort containment: anything the per-case isolation in the
    // pipeline could not absorb still exits with a diagnostic instead
    // of an unhandled-exception abort.
    try {
        return dispatch(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lpo: fatal: %s\n", e.what());
        return 1;
    }
}
