/**
 * @file
 * SAT-core layer benchmark: the solver on a fixed suite of CNFs,
 * measured below the verifier.
 *
 * The suite is bench/sat_cnfs/: 38 DIMACS files, each the exact clause
 * sequence the encoder once gave the solver for one refinement query
 * (corpus pairs RQ1 + RQ2 whose query reached the solver, and the
 * SAT-reaching queries of the profile workload's module, `lpo_cli
 * gen-module 7 200 3` with the hybrid proposer). Since the word-level
 * term layer now decides most of those pairs before any circuit
 * exists, the files keep the suite fixed: the solver's work on them
 * can be compared from commit to commit whatever the encoder does.
 * Each file starts with comment lines: the query's name ("c NAME"),
 * then its source ("c src ...") and target ("c tgt ...") functions.
 *
 * Each CNF is loaded into one solver reset before every query and
 * solved once under the default conflict budget. Per CNF it records
 * the deterministic work (vars, clauses, decisions, conflicts,
 * propagations), which tools/ci.sh gates against
 * bench/BENCH_sat.baseline.json, and the wall-clock figures: min-of-5
 * load and solve microseconds, conflicts per ms, propagations per us,
 * and the heap allocations of one steady-state load and solve (counted
 * by this binary's own operator new). Wall-clock is reported with the
 * machine fingerprint, never gated.
 *
 * It also encodes each file's pair with the live encoder on a reused
 * solver, circuit builder and term workspace, and prints whether the
 * encoder now decides it by terms or still blasts it (with its circuit
 * nodes), and the allocations of that steady-state encode.
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
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/json_writer.h"
#include "ir/parser.h"
#include "smt/bitblast.h"
#include "smt/sat.h"
#include "verify/encoder.h"
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

/** One suite file: its query's CNF and the pair it came from. */
struct Cnf
{
    std::string name;
    std::string src_text;
    std::string tgt_text;
    int vars = 0;
    std::vector<int> lits; ///< clauses, each terminated by 0
};

struct CnfResult
{
    std::string name;
    int vars = 0;
    uint64_t clauses = 0;
    uint64_t decisions = 0;
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    double load_us = 0;
    double solve_us = 0;
    uint64_t allocations = 0;
    // The live encoder on the same pair.
    bool term_decided = false;
    int live_nodes = 0;
    uint64_t encode_allocations = 0;
};

double
microsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - start)
        .count();
}

bool
readCnf(const std::filesystem::path &path, Cnf &cnf)
{
    std::ifstream in(path);
    std::string line;
    bool header = false;
    while (std::getline(in, line)) {
        if (line.rfind("c ", 0) == 0) {
            const std::string text = line.substr(2);
            if (text.rfind("src ", 0) == 0)
                cnf.src_text += text.substr(4) + "\n";
            else if (text.rfind("tgt ", 0) == 0)
                cnf.tgt_text += text.substr(4) + "\n";
            else if (cnf.name.empty())
                cnf.name = text;
            continue;
        }
        std::istringstream words(line);
        if (line.rfind("p cnf", 0) == 0) {
            std::string p, format;
            size_t clauses = 0;
            words >> p >> format >> cnf.vars >> clauses;
            header = true;
            continue;
        }
        int lit = 0;
        while (words >> lit)
            cnf.lits.push_back(lit);
    }
    return header && !cnf.name.empty() && !cnf.src_text.empty() &&
           !cnf.tgt_text.empty();
}

/** One load -> solve of @p cnf on the reset @p solver. */
CnfResult
runCnf(smt::SatSolver &solver, const Cnf &cnf, uint64_t budget)
{
    CnfResult result;
    result.name = cnf.name;
    auto start = Clock::now();
    solver.reset();
    for (int v = 0; v < cnf.vars; ++v)
        solver.newVar();
    size_t begin = 0;
    for (size_t i = 0; i < cnf.lits.size(); ++i) {
        if (cnf.lits[i] != 0)
            continue;
        if (i == begin)
            solver.addEmptyClause();
        else
            solver.addClause(cnf.lits.data() + begin, i - begin);
        begin = i + 1;
    }
    result.load_us = microsSince(start);
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
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(LPO_SAT_CNF_DIR))
        if (entry.path().extension() == ".cnf")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    std::vector<Cnf> suite(files.size());
    for (size_t i = 0; i < files.size(); ++i) {
        if (!readCnf(files[i], suite[i])) {
            std::fprintf(stderr, "malformed suite file %s\n",
                         files[i].c_str());
            return 1;
        }
    }
    if (suite.empty()) {
        std::fprintf(stderr, "no CNFs in %s\n", LPO_SAT_CNF_DIR);
        return 1;
    }

    const uint64_t budget = verify::RefineOptions{}.conflict_budget;
    smt::SatSolver solver;
    std::vector<CnfResult> results;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        for (size_t i = 0; i < suite.size(); ++i) {
            CnfResult run = runCnf(solver, suite[i], budget);
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
            best.load_us = std::min(best.load_us, run.load_us);
            best.solve_us = std::min(best.solve_us, run.solve_us);
        }
    }
    // Allocations of one steady-state load and solve: the solver has
    // already seen every CNF of the suite.
    for (size_t i = 0; i < suite.size(); ++i) {
        uint64_t before = g_allocations.load(std::memory_order_relaxed);
        runCnf(solver, suite[i], budget);
        results[i].allocations =
            g_allocations.load(std::memory_order_relaxed) - before;
    }

    // The live encoder on each file's pair, twice over on one reused
    // workspace; the second pass counts allocations.
    ir::Context context;
    std::vector<std::pair<std::unique_ptr<ir::Function>,
                          std::unique_ptr<ir::Function>>>
        pairs;
    for (const Cnf &cnf : suite) {
        auto src = ir::parseFunction(context, cnf.src_text);
        auto tgt = ir::parseFunction(context, cnf.tgt_text);
        if (!src.ok() || !tgt.ok() || !verify::canEncode(**src) ||
            !verify::canEncode(**tgt)) {
            std::fprintf(stderr, "the pair of %s does not encode\n",
                         cnf.name.c_str());
            return 1;
        }
        pairs.emplace_back(std::move(*src), std::move(*tgt));
    }
    smt::CircuitBuilder builder(solver);
    verify::TermWorkspace terms;
    for (unsigned pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < suite.size(); ++i) {
            uint64_t before = g_allocations.load(std::memory_order_relaxed);
            solver.reset();
            builder.reset();
            verify::QueryEncoding encoding = verify::encodeEncodableQuery(
                terms, builder, *pairs[i].first, *pairs[i].second);
            results[i].encode_allocations =
                g_allocations.load(std::memory_order_relaxed) - before;
            results[i].term_decided =
                encoding == verify::QueryEncoding::DecidedByTerms;
            results[i].live_nodes = builder.numNodes();
        }
    }

    std::printf("%-18s %6s %7s %9s %9s %12s %8s %9s %7s %s\n", "cnf",
                "vars", "clauses", "decisions", "conflicts", "propagations",
                "load us", "solve us", "allocs", "live encoder");
    core::JsonWriter json;
    json.beginObject();
    json.key("benchmarks").beginArray();
    uint64_t total_conflicts = 0, total_propagations = 0, total_allocs = 0;
    uint64_t live_decided = 0, live_nodes = 0, encode_allocs = 0;
    double total_load_us = 0, total_solve_us = 0;
    for (const CnfResult &r : results) {
        std::string live = r.term_decided
                               ? "decided by terms"
                               : "blasted, " + std::to_string(r.live_nodes) +
                                     " nodes";
        std::printf("%-18s %6d %7llu %9llu %9llu %12llu %8.1f %9.1f %7llu "
                    "%s\n",
                    r.name.c_str(), r.vars,
                    static_cast<unsigned long long>(r.clauses),
                    static_cast<unsigned long long>(r.decisions),
                    static_cast<unsigned long long>(r.conflicts),
                    static_cast<unsigned long long>(r.propagations),
                    r.load_us, r.solve_us,
                    static_cast<unsigned long long>(r.allocations),
                    live.c_str());
        json.beginObject(core::JsonWriter::Layout::Inline);
        json.field("name", r.name);
        json.field("vars", r.vars);
        json.field("clauses", r.clauses);
        json.field("decisions", r.decisions);
        json.field("conflicts", r.conflicts);
        json.field("propagations", r.propagations);
        json.field("load_us", r.load_us, 1);
        json.field("solve_us", r.solve_us, 1);
        json.field("conflicts_per_ms",
                   r.solve_us > 0 ? 1e3 * r.conflicts / r.solve_us : 0.0, 1);
        json.field("propagations_per_us",
                   r.solve_us > 0 ? r.propagations / r.solve_us : 0.0, 2);
        json.field("allocations", r.allocations);
        json.field("live_term_decided", r.term_decided);
        json.field("live_circuit_nodes", r.live_nodes);
        json.field("live_encode_allocations", r.encode_allocations);
        json.endObject();
        total_conflicts += r.conflicts;
        total_propagations += r.propagations;
        total_allocs += r.allocations;
        total_load_us += r.load_us;
        total_solve_us += r.solve_us;
        live_decided += r.term_decided;
        live_nodes += r.live_nodes;
        encode_allocs += r.encode_allocations;
    }
    json.endArray();

    const double n = static_cast<double>(results.size());
    std::printf("\n%zu CNFs: load %.1f us, solve %.1f us, %llu conflicts, "
                "%llu propagations, %.1f allocations per query\n",
                results.size(), total_load_us, total_solve_us,
                static_cast<unsigned long long>(total_conflicts),
                static_cast<unsigned long long>(total_propagations),
                double(total_allocs) / n);
    std::printf("live encoder: %llu of %zu pairs decided by terms, %llu "
                "circuit nodes, %.1f allocations per encode\n",
                static_cast<unsigned long long>(live_decided),
                results.size(), static_cast<unsigned long long>(live_nodes),
                double(encode_allocs) / n);

    json.field("cnfs", results.size());
    json.field("reps", kReps);
    json.field("load_us_total", total_load_us, 1);
    json.field("solve_us_total", total_solve_us, 1);
    json.field("conflicts_total", total_conflicts);
    json.field("propagations_total", total_propagations);
    json.field("allocations_per_query", double(total_allocs) / n, 1);
    json.field("live_term_decided", live_decided);
    json.field("live_circuit_nodes", live_nodes);
    json.field("live_encode_allocations_per_query",
               double(encode_allocs) / n, 1);
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
