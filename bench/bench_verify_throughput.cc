/**
 * @file
 * Verification throughput over the full missed-optimization corpus
 * (RQ1 + RQ2 pairs): verified candidates/sec through the production
 * path (hash-consed circuits plus a shared result cache), and the
 * incremental-session mode over a multi-candidate stream per case.
 *
 * The workload verifies every (src, tgt) pair kRounds times — the
 * shape the rewrite library actually produces, where structurally
 * identical candidates recur across sites and rounds. The first round
 * proves each pair; later rounds hit the verification cache.
 *
 * Also records, for every SAT-fragment pair, the encoded query size
 * (variables, clauses, unique-table hits). Query sizes and cache hits
 * are deterministic work counters: tools/ci.sh gates their sums
 * against bench/BENCH_verify.baseline.json, which also keeps the
 * numbers of the retired unhashed encoder as history. Emits
 * BENCH_verify.json.
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
#include "opt/opt_driver.h"
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
    int vars = 0;
    uint64_t clauses = 0;
    uint64_t unique_hits = 0;
};

/** Size of the production SAT query (verify::encodeRefinementQuery). */
QuerySize
encodeQuery(const ir::Function &src, const ir::Function &tgt)
{
    smt::SatSolver solver;
    smt::CircuitBuilder builder(solver);
    if (!verify::encodeRefinementQuery(builder, src, tgt))
        return {};
    return {solver.numVars(), solver.clausesAdded(),
            builder.uniqueTableHits()};
}

struct CaseResult
{
    std::string name;
    std::string backend;
    double seconds = 0;
    QuerySize size;
};

/**
 * The incremental-session comparison: each SAT-fragment case presents
 * a stream of distinct candidate targets — the expected target, the
 * identity, and the opt pipeline's rewrites of both, the shape LLM
 * feedback retries and hybrid fallback produce. The fresh path proves
 * each candidate in a fresh hash-consed solver; the session path
 * bit-blasts the source once and solves every candidate under an
 * activation-literal assumption in one persistent solver. No cache in
 * either mode: every candidate is distinct, so this measures raw
 * proving throughput.
 */
struct StreamResult
{
    std::string name;
    size_t catalog_index = 0;
    size_t candidates = 0;
    double fresh_seconds = 0;
    double session_seconds = 0;
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
    for (size_t i = 0; i < catalog.size(); ++i) {
        // Query-size accounting for the SAT fragment.
        if (verify::usesSatBackend(*srcs[i], *tgts[i])) {
            results[i].size = encodeQuery(*srcs[i], *tgts[i]);
            ++sat_queries;
            sat_vars_total += results[i].size.vars;
            sat_clauses_total += results[i].size.clauses;
        }
        total_seconds += results[i].seconds;
    }

    // ----------------------------------------------------------------
    // Incremental-session mode over the multi-candidate stream.
    // ----------------------------------------------------------------
    std::vector<StreamResult> streams;
    std::vector<std::vector<std::unique_ptr<ir::Function>>> stream_cands;
    for (size_t i = 0; i < catalog.size(); ++i) {
        if (!verify::usesSatBackend(*srcs[i], *tgts[i]))
            continue;
        StreamResult stream;
        stream.name = results[i].name;
        stream.catalog_index = i;
        std::vector<std::unique_ptr<ir::Function>> cands;
        cands.push_back(ir::parseFunction(
            *contexts[i], catalog[i].tgt_text).take());
        cands.push_back(ir::parseFunction(
            *contexts[i], catalog[i].src_text).take());
        cands.push_back(opt::optimizeFunction(*srcs[i]));
        cands.push_back(opt::optimizeFunction(*tgts[i]));
        stream.candidates = cands.size();
        streams.push_back(std::move(stream));
        stream_cands.push_back(std::move(cands));
    }
    verify::RefineOptions stream_options;
    stream_options.num_threads = 1;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        for (size_t s = 0; s < streams.size(); ++s) {
            size_t i = streams[s].catalog_index;

            verify::RefineOptions fresh_options = stream_options;
            fresh_options.incremental_sat = false;
            auto start = Clock::now();
            for (const auto &cand : stream_cands[s])
                verify::checkRefinement(*srcs[i], *cand, fresh_options);
            double fresh_seconds = secondsSince(start);

            verify::RefineOptions session_options = stream_options;
            session_options.incremental_sat = true;
            start = Clock::now();
            verify::RefinementSession session(*srcs[i], session_options);
            for (const auto &cand : stream_cands[s])
                session.check(*cand);
            double session_seconds = secondsSince(start);

            if (rep == 0 || fresh_seconds < streams[s].fresh_seconds)
                streams[s].fresh_seconds = fresh_seconds;
            if (rep == 0 || session_seconds < streams[s].session_seconds)
                streams[s].session_seconds = session_seconds;
        }
    }

    double stream_fresh_total = 0, stream_session_total = 0;
    uint64_t stream_candidates = 0;
    std::vector<double> session_speedups;
    std::printf("\n%-14s %5s %14s %16s %9s\n", "stream", "cands",
                "fresh cand/s", "session cand/s", "speedup");
    for (const StreamResult &stream : streams) {
        double speedup = stream.fresh_seconds / stream.session_seconds;
        session_speedups.push_back(speedup);
        stream_fresh_total += stream.fresh_seconds;
        stream_session_total += stream.session_seconds;
        stream_candidates += stream.candidates;
        std::printf("%-14s %5zu %14.0f %16.0f %8.1fx\n",
                    stream.name.c_str(), stream.candidates,
                    stream.candidates / stream.fresh_seconds,
                    stream.candidates / stream.session_seconds, speedup);
    }
    double session_geomean = core::geomean(session_speedups);
    double stream_fresh_cps = stream_candidates / stream_fresh_total;
    double stream_session_cps = stream_candidates / stream_session_total;
    std::printf("stream: %llu candidates over %zu cases\n",
                static_cast<unsigned long long>(stream_candidates),
                streams.size());
    std::printf("fresh per-candidate: %10.1f verified candidates/sec\n",
                stream_fresh_cps);
    std::printf("incremental session: %10.1f verified candidates/sec\n",
                stream_session_cps);
    std::printf("session geomean speedup: %.2fx\n", session_geomean);

    const uint64_t candidates = catalog.size() * kRounds;
    double cands_per_sec = candidates / total_seconds;

    std::printf("\n%-14s %-10s %10s %8s %9s %7s\n", "case", "backend",
                "cand/s", "vars", "clauses", "hits");
    core::JsonWriter json;
    json.beginObject();
    json.key("benchmarks").beginArray();
    for (const CaseResult &r : results) {
        std::printf("%-14s %-10s %10.0f %8d %9llu %7llu\n",
                    r.name.c_str(), r.backend.c_str(),
                    kRounds / r.seconds, r.size.vars,
                    static_cast<unsigned long long>(r.size.clauses),
                    static_cast<unsigned long long>(r.size.unique_hits));
        json.beginObject(core::JsonWriter::Layout::Inline);
        json.field("name", r.name);
        json.field("backend", r.backend);
        json.field("cands_per_sec", kRounds / r.seconds, 1);
        json.field("sat_vars", r.size.vars);
        json.field("sat_clauses", r.size.clauses);
        json.field("unique_table_hits", r.size.unique_hits);
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
    std::printf("SAT queries: %llu, %llu vars, %llu clauses\n",
                static_cast<unsigned long long>(sat_queries),
                static_cast<unsigned long long>(sat_vars_total),
                static_cast<unsigned long long>(sat_clauses_total));

    json.field("rounds", kRounds);
    json.field("cands_per_sec", cands_per_sec, 1);
    json.field("cache_hits", cache_stats.hits);
    json.field("cache_misses", cache_stats.misses);
    json.field("cache_hit_rate", hit_rate, 4);
    json.field("sat_queries", sat_queries);
    json.field("sat_vars_total", sat_vars_total);
    json.field("sat_clauses_total", sat_clauses_total);
    json.field("stream_cases", static_cast<uint64_t>(streams.size()));
    json.field("stream_candidates", stream_candidates);
    json.field("stream_fresh_cands_per_sec", stream_fresh_cps, 1);
    json.field("stream_session_cands_per_sec", stream_session_cps, 1);
    json.field("session_geomean_speedup", session_geomean, 2);
    json.endObject();

    std::ofstream out("BENCH_verify.json");
    out << json.str() << "\n";
    std::printf("wrote BENCH_verify.json\n");

    if (cache_stats.hits == 0) {
        std::fprintf(stderr, "FAIL: cache hit rate is zero\n");
        return 1;
    }
    if (session_geomean < 1.5) {
        std::fprintf(stderr,
                     "FAIL: incremental sessions delivered only %.2fx "
                     "geomean over the per-candidate path (need 1.5x)\n",
                     session_geomean);
        return 1;
    }
    return 0;
}
