/**
 * @file
 * lpo_serve sustained throughput: a 200-module heterogeneous request
 * stream through the serve loop (spool in, optimize, atomic response
 * out, store flush per request), cold store vs warm store.
 *
 * The cold pass pays every proof and journals verdicts + learned
 * rewrites; the warm pass is a fresh server process-life against the
 * same store and must replay findings through the catalog. This is
 * the service-level composition of bench_persist's store invariants
 * with the request loop's per-request overheads (spool scan, claim
 * rename, response fsync, flush).
 *
 * Emits BENCH_serve.json; tools/ci.sh gates sustained_modules_per_sec
 * against the committed baseline (>20% regression fails), and the
 * deterministic warm_catalog_hit_rate and warm_llm_calls (the warm
 * pass replays every remembered miss, so it asks the model nothing). The binary
 * itself fails on broken invariants: any non-ok response, a warm
 * response not byte-identical to its cold counterpart, or a warm run
 * that replayed nothing from the catalog.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/json_writer.h"
#include "corpus/generator.h"
#include "ir/printer.h"
#include "serve/server.h"
#include "serve/spool.h"
#include "support/telemetry.h"

using namespace lpo;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned kModules = 200;
constexpr unsigned kFunctions = 2;
constexpr unsigned kBlocks = 1;
const char *kStoreDir = "BENCH_serve.store";

std::string
requestId(unsigned i)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "r%03u", i);
    return buf;
}

struct PhaseResult
{
    double seconds = 0;
    double p99_request_ms = 0;
    uint64_t found = 0;
    uint64_t found_by_catalog = 0;
    uint64_t llm_calls = 0;
    std::vector<std::string> responses; ///< per request id order
    bool all_ok = true;
};

/** One fresh server process-life: submit the whole stream, drain it
 *  with --once semantics, and collect every response. */
PhaseResult
runPhase(const char *spool_dir)
{
    std::string cleanup = std::string("rm -rf '") + spool_dir + "'";
    if (std::system(cleanup.c_str()) != 0) {
        std::fprintf(stderr, "FAIL: cannot clean %s\n", spool_dir);
        std::exit(1);
    }

    serve::Spool spool(spool_dir);
    std::string error;
    if (!spool.ensureLayout(&error)) {
        std::fprintf(stderr, "FAIL: spool: %s\n", error.c_str());
        std::exit(1);
    }
    {
        ir::Context ctx;
        corpus::CorpusGenerator generator(ctx);
        for (unsigned i = 0; i < kModules; ++i) {
            auto module =
                generator.largeModule(i + 1, kFunctions, kBlocks);
            if (!spool.submit(requestId(i), ir::printModule(*module),
                              &error)) {
                std::fprintf(stderr, "FAIL: submit: %s\n",
                             error.c_str());
                std::exit(1);
            }
        }
    }

    telemetry::MetricsRegistry::instance().reset();
    serve::ServeOptions options;
    options.spool_root = spool_dir;
    options.store_path = kStoreDir;
    options.once = true;
    options.queue_capacity = kModules; // measure throughput, not shed
    PhaseResult phase;
    auto start = Clock::now();
    {
        serve::Server server(std::move(options));
        if (server.run() != 0) {
            std::fprintf(stderr, "FAIL: server run failed\n");
            std::exit(1);
        }
        phase.seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (const core::PipelineStats *stats = server.pipelineStats()) {
            phase.found = stats->found;
            phase.found_by_catalog = stats->found_by_catalog;
            phase.llm_calls = stats->llm_calls;
        }
        phase.all_ok = server.stats().ok == kModules &&
                       server.stats().requests == kModules;
    }
    telemetry::MetricsSnapshot snapshot =
        telemetry::MetricsRegistry::instance().snapshot();
    if (const telemetry::HistogramSnapshot *hist =
            snapshot.histogram("serve.request_ns"))
        phase.p99_request_ms = hist->p99() / 1e6;

    for (unsigned i = 0; i < kModules; ++i) {
        std::ifstream in(spool.responsePath(requestId(i)),
                         std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        if (!in || bytes.str().empty())
            phase.all_ok = false;
        phase.responses.push_back(bytes.str());
    }
    return phase;
}

} // namespace

int
main()
{
    std::string cleanup = std::string("rm -rf '") + kStoreDir + "'";
    if (std::system(cleanup.c_str()) != 0) {
        std::fprintf(stderr, "FAIL: cannot clean %s\n", kStoreDir);
        return 1;
    }

    PhaseResult cold = runPhase("BENCH_serve.spool.cold");
    PhaseResult warm = runPhase("BENCH_serve.spool.warm");

    double cold_rate = kModules / cold.seconds;
    double warm_rate = kModules / warm.seconds;
    double catalog_hit_rate =
        warm.found ? double(warm.found_by_catalog) / double(warm.found)
                   : 0.0;

    std::printf(
        "serve stream: %u modules x %u functions x %u blocks\n"
        "  cold: %.1f modules/sec (%.2fs), p99 %.2f ms\n"
        "  warm: %.1f modules/sec (%.2fs), p99 %.2f ms\n"
        "  warm catalog: %llu/%llu findings replayed (%.0f%%), "
        "%llu LLM calls (cold %llu)\n",
        kModules, kFunctions, kBlocks, cold_rate, cold.seconds,
        cold.p99_request_ms, warm_rate, warm.seconds,
        warm.p99_request_ms,
        (unsigned long long)warm.found_by_catalog,
        (unsigned long long)warm.found, 100.0 * catalog_hit_rate,
        (unsigned long long)warm.llm_calls,
        (unsigned long long)cold.llm_calls);

    core::JsonWriter json;
    json.beginObject();
    json.field("modules", kModules);
    json.field("functions_per_module", kFunctions);
    json.field("blocks_per_fn", kBlocks);
    json.field("sustained_modules_per_sec", warm_rate, 1);
    json.field("cold_modules_per_sec", cold_rate, 1);
    json.field("warm_catalog_hit_rate", catalog_hit_rate, 3);
    json.field("warm_llm_calls", warm.llm_calls);
    json.field("cold_llm_calls", cold.llm_calls);
    json.field("p99_request_ms", warm.p99_request_ms, 2);
    json.field("cold_p99_request_ms", cold.p99_request_ms, 2);
    json.endObject();
    std::ofstream out("BENCH_serve.json");
    out << json.str() << "\n";
    std::printf("wrote BENCH_serve.json\n");

    bool fail = false;
    if (!cold.all_ok || !warm.all_ok) {
        std::fprintf(stderr,
                     "FAIL: not every request got an ok response\n");
        fail = true;
    }
    if (cold.responses != warm.responses) {
        std::fprintf(stderr,
                     "FAIL: warm responses diverged from cold\n");
        fail = true;
    }
    if (warm.found_by_catalog == 0) {
        std::fprintf(stderr,
                     "FAIL: warm run replayed nothing from the "
                     "catalog\n");
        fail = true;
    }
    return fail ? 1 : 0;
}
