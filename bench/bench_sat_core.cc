/**
 * @file
 * SAT-core layer benchmark: the encode -> solve path of every blasted
 * refinement query in a fixed suite, measured below the verifier.
 *
 * The suite is the corpus pairs (RQ1 + RQ2) whose query reaches the
 * solver with at least one variable, plus the SAT-reaching queries of
 * the profile workload's module (`lpo_cli gen-module 7 200 3`, hybrid
 * proposer). The module's queries are collected by running the module
 * optimizer once over a scratch store and reading back every verified
 * pair from its verify file, whose keys hold both canonical prints.
 *
 * Each query is encoded and solved the way checkWithSat does it: one
 * solver and circuit builder reset before every query, one solve under
 * the default conflict budget. Per CNF it records the deterministic
 * work (vars, clauses, decisions, conflicts, propagations), which
 * tools/ci.sh gates against bench/BENCH_sat.baseline.json, and the
 * wall-clock figures: min-of-5 encode and solve microseconds,
 * conflicts per ms, propagations per us, and the heap allocations of
 * one steady-state query (counted by this binary's own operator new).
 * Wall-clock is reported with the machine fingerprint, never gated.
 * Emits BENCH_sat.json.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/json_writer.h"
#include "core/module_opt.h"
#include "corpus/benchmarks.h"
#include "corpus/generator.h"
#include "ir/parser.h"
#include "llm/mock_model.h"
#include "smt/bitblast.h"
#include "smt/sat.h"
#include "support/kvstore.h"
#include "verify/encoder.h"
#include "verify/persist.h"
#include "verify/refine.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

} // namespace

// Count every heap allocation this binary makes; the counter is read
// around single queries on one thread.
void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace lpo;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned kReps = 5;
constexpr uint64_t kModuleSeed = 7;
constexpr unsigned kModuleFunctions = 200;
constexpr unsigned kModuleBlocks = 3;
const char *kStoreDir = "BENCH_sat.store";

struct Query
{
    std::string name;
    std::unique_ptr<ir::Context> context;
    std::unique_ptr<ir::Function> src;
    std::unique_ptr<ir::Function> tgt;
};

struct CnfResult
{
    std::string name;
    int vars = 0;
    uint64_t clauses = 0;
    uint64_t decisions = 0;
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    double encode_us = 0;
    double solve_us = 0;
    uint64_t allocations = 0;
};

double
microsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
}

/** True if (src, tgt) is a SAT query whose CNF has a variable. */
bool
reachesSolver(const ir::Function &src, const ir::Function &tgt)
{
    if (!verify::usesSatBackend(src, tgt))
        return false;
    smt::SatSolver solver;
    smt::CircuitBuilder builder(solver);
    verify::encodeRefinementQuery(builder, src, tgt);
    return solver.numVars() > 0;
}

bool
addQuery(std::vector<Query> &suite, std::string name,
         const std::string &src_text, const std::string &tgt_text)
{
    Query query;
    query.name = std::move(name);
    query.context = std::make_unique<ir::Context>();
    auto src = ir::parseFunction(*query.context, src_text);
    auto tgt = ir::parseFunction(*query.context, tgt_text);
    if (!src.ok() || !tgt.ok()) {
        std::fprintf(stderr, "parse failed for %s\n", query.name.c_str());
        return false;
    }
    query.src = std::move(*src);
    query.tgt = std::move(*tgt);
    if (reachesSolver(*query.src, *query.tgt))
        suite.push_back(std::move(query));
    return true;
}

/**
 * The SAT-reaching queries of the profile workload's module: optimize
 * it once with a scratch store, then split every verify-store key
 * ("v1" \x01 src \x02 tgt \x03 options) back into its pair. Keys are
 * sorted, so query numbering is stable.
 */
bool
addModuleQueries(std::vector<Query> &suite)
{
    std::filesystem::remove_all(kStoreDir);
    {
        ir::Context context;
        corpus::CorpusGenerator generator(context);
        auto module = generator.largeModule(kModuleSeed, kModuleFunctions,
                                            kModuleBlocks);
        llm::MockModel model(llm::modelByName("Gemini2.0T"), 1);
        core::ModuleOptOptions options;
        options.pipeline.proposer = core::ProposerKind::Hybrid;
        options.pipeline.num_threads = 1;
        options.pipeline.store_path = kStoreDir;
        core::ModuleOptimizer optimizer(model, options);
        optimizer.optimize(*module, 1);
    }
    std::vector<std::string> keys;
    KvStore store;
    KvOpen status = store.open(
        std::string(kStoreDir) + "/" + verify::kVerifyStoreFile,
        verify::verifyStoreFileOptions(/*read_only=*/true),
        [&](std::string &&key, std::string &&) {
            keys.push_back(std::move(key));
        });
    if (status != KvOpen::Loaded) {
        std::fprintf(stderr, "could not read the module's verify store\n");
        return false;
    }
    std::sort(keys.begin(), keys.end());
    unsigned index = 0;
    for (const std::string &key : keys) {
        size_t src_at = key.find('\x01');
        size_t tgt_at = key.find('\x02');
        size_t options_at = key.find('\x03');
        if (src_at == std::string::npos || tgt_at == std::string::npos ||
            options_at == std::string::npos) {
            std::fprintf(stderr, "malformed verify-store key\n");
            return false;
        }
        size_t before = suite.size();
        if (!addQuery(suite, "gen7_200_3/q" + std::to_string(index),
                      key.substr(src_at + 1, tgt_at - src_at - 1),
                      key.substr(tgt_at + 1, options_at - tgt_at - 1)))
            return false;
        index += suite.size() > before;
    }
    std::filesystem::remove_all(kStoreDir);
    return true;
}

/** One encode -> solve of @p query through the reused pair, as
 *  checkWithSat runs it. */
CnfResult
runQuery(smt::SatSolver &solver, smt::CircuitBuilder &builder,
         const Query &query, uint64_t budget)
{
    CnfResult result;
    result.name = query.name;
    auto start = Clock::now();
    solver.reset();
    builder.reset();
    verify::encodeEncodableQuery(builder, *query.src, *query.tgt);
    result.encode_us = microsSince(start);
    start = Clock::now();
    solver.solve(budget);
    result.solve_us = microsSince(start);
    result.vars = solver.numVars();
    result.clauses = solver.clausesAdded();
    result.decisions = solver.decisions();
    result.conflicts = solver.conflicts();
    result.propagations = solver.propagations();
    return result;
}

std::string
cpuModel()
{
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line))
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    return "unknown";
}

} // namespace

int
main()
{
    std::vector<Query> suite;
    std::vector<corpus::MissedOptBenchmark> corpus = corpus::rq1Benchmarks();
    for (const auto &bench : corpus::rq2Benchmarks())
        corpus.push_back(bench);
    for (const auto &bench : corpus)
        if (!addQuery(suite, "corpus/" + bench.issue_id, bench.src_text,
                      bench.tgt_text))
            return 1;
    const size_t corpus_queries = suite.size();
    if (!addModuleQueries(suite))
        return 1;
    const size_t module_queries = suite.size() - corpus_queries;

    const uint64_t budget = verify::RefineOptions{}.conflict_budget;
    smt::SatSolver solver;
    smt::CircuitBuilder builder(solver);
    std::vector<CnfResult> results;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        for (size_t i = 0; i < suite.size(); ++i) {
            CnfResult run = runQuery(solver, builder, suite[i], budget);
            if (rep == 0) {
                results.push_back(run);
                continue;
            }
            CnfResult &best = results[i];
            if (run.decisions != best.decisions ||
                run.conflicts != best.conflicts ||
                run.propagations != best.propagations) {
                std::fprintf(stderr,
                             "FAIL: %s searched differently on a reused "
                             "solver\n",
                             run.name.c_str());
                return 1;
            }
            best.encode_us = std::min(best.encode_us, run.encode_us);
            best.solve_us = std::min(best.solve_us, run.solve_us);
        }
    }
    // Allocations of one steady-state query: the pair has already seen
    // every query of the suite.
    for (size_t i = 0; i < suite.size(); ++i) {
        uint64_t before = g_allocations.load(std::memory_order_relaxed);
        runQuery(solver, builder, suite[i], budget);
        results[i].allocations =
            g_allocations.load(std::memory_order_relaxed) - before;
    }

    std::printf("%-18s %6s %7s %9s %9s %12s %10s %10s %8s\n", "cnf", "vars",
                "clauses", "decisions", "conflicts", "propagations",
                "encode us", "solve us", "allocs");
    core::JsonWriter json;
    json.beginObject();
    json.key("benchmarks").beginArray();
    uint64_t total_conflicts = 0, total_propagations = 0, total_allocs = 0;
    double total_encode_us = 0, total_solve_us = 0;
    for (const CnfResult &r : results) {
        std::printf("%-18s %6d %7llu %9llu %9llu %12llu %10.1f %10.1f %8llu\n",
                    r.name.c_str(), r.vars,
                    static_cast<unsigned long long>(r.clauses),
                    static_cast<unsigned long long>(r.decisions),
                    static_cast<unsigned long long>(r.conflicts),
                    static_cast<unsigned long long>(r.propagations),
                    r.encode_us, r.solve_us,
                    static_cast<unsigned long long>(r.allocations));
        json.beginObject(core::JsonWriter::Layout::Inline);
        json.field("name", r.name);
        json.field("vars", r.vars);
        json.field("clauses", r.clauses);
        json.field("decisions", r.decisions);
        json.field("conflicts", r.conflicts);
        json.field("propagations", r.propagations);
        json.field("encode_us", r.encode_us, 1);
        json.field("solve_us", r.solve_us, 1);
        json.field("conflicts_per_ms",
                   r.solve_us > 0 ? 1e3 * r.conflicts / r.solve_us : 0.0, 1);
        json.field("propagations_per_us",
                   r.solve_us > 0 ? r.propagations / r.solve_us : 0.0, 2);
        json.field("allocations", r.allocations);
        json.endObject();
        total_conflicts += r.conflicts;
        total_propagations += r.propagations;
        total_allocs += r.allocations;
        total_encode_us += r.encode_us;
        total_solve_us += r.solve_us;
    }
    json.endArray();

    std::printf("\n%zu CNFs (%zu corpus, %zu module): encode %.1f us, "
                "solve %.1f us, %llu conflicts, %llu propagations, "
                "%.1f allocations per query\n",
                results.size(), corpus_queries, module_queries,
                total_encode_us, total_solve_us,
                static_cast<unsigned long long>(total_conflicts),
                static_cast<unsigned long long>(total_propagations),
                results.empty() ? 0.0
                                : double(total_allocs) / results.size());

    json.field("cnfs", results.size());
    json.field("corpus_cnfs", corpus_queries);
    json.field("module_cnfs", module_queries);
    json.field("reps", kReps);
    json.field("encode_us_total", total_encode_us, 1);
    json.field("solve_us_total", total_solve_us, 1);
    json.field("conflicts_total", total_conflicts);
    json.field("propagations_total", total_propagations);
    json.field("allocations_per_query",
               results.empty() ? 0.0 : double(total_allocs) / results.size(),
               1);
    json.key("machine").beginObject(core::JsonWriter::Layout::Inline);
    json.field("nproc", std::thread::hardware_concurrency());
    json.field("cpu", cpuModel());
    json.field("compiler", std::string(__VERSION__));
    json.endObject();
    json.endObject();

    std::ofstream out("BENCH_sat.json");
    out << json.str() << "\n";
    std::printf("wrote BENCH_sat.json\n");
    return 0;
}
