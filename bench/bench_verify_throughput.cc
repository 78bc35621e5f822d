/**
 * @file
 * Verification throughput over the full missed-optimization corpus
 * (RQ1 + RQ2 pairs): verified candidates/sec through the production
 * path (hash-consed circuits plus a shared result cache).
 *
 * The workload verifies every (src, tgt) pair kRounds times — the
 * shape the rewrite library actually produces, where structurally
 * identical candidates recur across sites and rounds. The first round
 * proves each pair; later rounds hit the verification cache.
 *
 * Also records, for every SAT-fragment pair, the circuit the builder
 * made (its variables), the query the solver got (variables and
 * clauses; none of the circuit when the miter folds to false),
 * unique-table hits, whether the word-level terms decided it, and the
 * conflicts one solve of it takes under the default budget. Query
 * sizes, conflicts, term-decided queries and cache hits are
 * deterministic work counters: tools/ci.sh gates each query's against
 * bench/BENCH_verify.baseline.json, which also keeps the numbers of
 * the retired unhashed encoder as history. Emits BENCH_verify.json.
 */
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "corpus/benchmarks.h"
#include "core/json_writer.h"
#include "core/report.h"
#include "ir/parser.h"
#include "smt/bitblast.h"
#include "smt/sat.h"
#include "verify/cache.h"
#include "verify/encoder.h"
#include "verify/refine.h"

using namespace lpo;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned kRounds = 3;
/** Measurement repetitions; per-case times keep the minimum, which
 *  de-noises the microsecond-scale fast cases on loaded runners. The
 *  cache is recreated per repetition so every rep measures the same
 *  cold-to-warm 3-round workload. */
constexpr unsigned kReps = 3;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct QuerySize
{
    bool term_decided = false;
    int nodes = 0;
    int vars = 0;
    uint64_t clauses = 0;
    uint64_t unique_hits = 0;
    uint64_t conflicts = 0;
};

/** Size of the production SAT query (verify::encodeRefinementQuery)
 *  and the conflicts one solve of it spends under @p budget. */
QuerySize
encodeQuery(const ir::Function &src, const ir::Function &tgt,
            uint64_t budget)
{
    smt::SatSolver solver;
    smt::CircuitBuilder builder(solver);
    const verify::QueryEncoding encoding =
        verify::encodeRefinementQuery(builder, src, tgt);
    if (encoding == verify::QueryEncoding::Unencodable)
        return {};
    QuerySize size{encoding == verify::QueryEncoding::DecidedByTerms,
                   builder.numNodes(), solver.numVars(),
                   solver.clausesAdded(), builder.uniqueTableHits()};
    solver.solve(budget);
    size.conflicts = solver.conflicts();
    return size;
}

struct CaseResult
{
    std::string name;
    std::string backend;
    double seconds = 0;
    QuerySize size;
};

} // namespace

int
main()
{
    std::vector<corpus::MissedOptBenchmark> catalog =
        corpus::rq1Benchmarks();
    for (const auto &bench : corpus::rq2Benchmarks())
        catalog.push_back(bench);

    // Parse every pair once, up front.
    std::vector<std::unique_ptr<ir::Context>> contexts;
    std::vector<std::unique_ptr<ir::Function>> srcs, tgts;
    std::vector<CaseResult> results;
    for (const auto &bench : catalog) {
        contexts.push_back(std::make_unique<ir::Context>());
        auto src = ir::parseFunction(*contexts.back(), bench.src_text);
        auto tgt = ir::parseFunction(*contexts.back(), bench.tgt_text);
        if (!src.ok() || !tgt.ok()) {
            std::fprintf(stderr, "parse failed for %s\n",
                         bench.issue_id.c_str());
            return 1;
        }
        srcs.push_back(std::move(*src));
        tgts.push_back(std::move(*tgt));
        CaseResult result;
        result.name = bench.issue_id;
        results.push_back(std::move(result));
    }

    verify::VerifyCache::Stats cache_stats;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        verify::VerifyCache cache;
        verify::RefineOptions options;
        options.num_threads = 1;
        options.cache = &cache;
        for (size_t i = 0; i < catalog.size(); ++i) {
            auto start = Clock::now();
            for (unsigned round = 0; round < kRounds; ++round) {
                auto verdict =
                    verify::checkRefinement(*srcs[i], *tgts[i], options);
                results[i].backend = verdict.backend;
            }
            double seconds = secondsSince(start);
            if (rep == 0 || seconds < results[i].seconds)
                results[i].seconds = seconds;
        }
        // Hit/miss counts are identical every rep (deterministic);
        // keep the last rep's.
        cache_stats = cache.stats();
    }

    double total_seconds = 0;
    uint64_t sat_queries = 0, sat_vars_total = 0, sat_clauses_total = 0;
    uint64_t sat_conflicts_total = 0, circuit_nodes_total = 0;
    uint64_t term_decided = 0;
    const uint64_t budget = verify::RefineOptions{}.conflict_budget;
    for (size_t i = 0; i < catalog.size(); ++i) {
        // Query-size and search accounting for the SAT fragment.
        if (verify::usesSatBackend(*srcs[i], *tgts[i])) {
            results[i].size = encodeQuery(*srcs[i], *tgts[i], budget);
            ++sat_queries;
            circuit_nodes_total += results[i].size.nodes;
            sat_vars_total += results[i].size.vars;
            sat_clauses_total += results[i].size.clauses;
            sat_conflicts_total += results[i].size.conflicts;
            term_decided += results[i].size.term_decided;
        }
        total_seconds += results[i].seconds;
    }

    const uint64_t candidates = catalog.size() * kRounds;
    double cands_per_sec = candidates / total_seconds;

    std::printf("\n%-14s %-10s %10s %8s %8s %9s %7s %9s\n", "case",
                "backend", "cand/s", "nodes", "vars", "clauses", "hits",
                "conflicts");
    core::JsonWriter json;
    json.beginObject();
    json.key("benchmarks").beginArray();
    for (const CaseResult &r : results) {
        std::printf("%-14s %-10s %10.0f %8d %8d %9llu %7llu %9llu\n",
                    r.name.c_str(), r.backend.c_str(),
                    kRounds / r.seconds, r.size.nodes, r.size.vars,
                    static_cast<unsigned long long>(r.size.clauses),
                    static_cast<unsigned long long>(r.size.unique_hits),
                    static_cast<unsigned long long>(r.size.conflicts));
        json.beginObject(core::JsonWriter::Layout::Inline);
        json.field("name", r.name);
        json.field("backend", r.backend);
        json.field("cands_per_sec", kRounds / r.seconds, 1);
        json.field("circuit_nodes", r.size.nodes);
        json.field("sat_vars", r.size.vars);
        json.field("sat_clauses", r.size.clauses);
        json.field("unique_table_hits", r.size.unique_hits);
        json.field("sat_conflicts", r.size.conflicts);
        json.field("term_decided", r.size.term_decided);
        json.endObject();
    }
    json.endArray();

    double hit_rate = cache_stats.hitRate();
    std::printf("\ncorpus: %llu candidates over %u rounds\n",
                static_cast<unsigned long long>(candidates), kRounds);
    std::printf("throughput: %10.1f verified candidates/sec\n",
                cands_per_sec);
    std::printf("verify cache: %s\n",
                core::cacheSummary(cache_stats.hits, cache_stats.misses)
                    .c_str());
    std::printf("SAT queries: %llu (%llu decided by terms), %llu circuit "
                "nodes, %llu vars, %llu clauses, %llu conflicts\n",
                static_cast<unsigned long long>(sat_queries),
                static_cast<unsigned long long>(term_decided),
                static_cast<unsigned long long>(circuit_nodes_total),
                static_cast<unsigned long long>(sat_vars_total),
                static_cast<unsigned long long>(sat_clauses_total),
                static_cast<unsigned long long>(sat_conflicts_total));

    json.field("rounds", kRounds);
    json.field("cands_per_sec", cands_per_sec, 1);
    json.field("cache_hits", cache_stats.hits);
    json.field("cache_misses", cache_stats.misses);
    json.field("cache_hit_rate", hit_rate, 4);
    json.field("sat_queries", sat_queries);
    json.field("term_decided", term_decided);
    json.field("circuit_nodes_total", circuit_nodes_total);
    json.field("sat_vars_total", sat_vars_total);
    json.field("sat_clauses_total", sat_clauses_total);
    json.field("sat_conflicts_total", sat_conflicts_total);
    json.endObject();

    std::ofstream out("BENCH_verify.json");
    out << json.str() << "\n";
    std::printf("wrote BENCH_verify.json\n");

    if (cache_stats.hits == 0) {
        std::fprintf(stderr, "FAIL: cache hit rate is zero\n");
        return 1;
    }
    return 0;
}
