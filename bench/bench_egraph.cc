/**
 * @file
 * E-graph layer benchmark: the e-graph proposer's consult
 * (core::EGraphProposer::propose, saturation plus extraction and the
 * strictly-better gate) over three pinned inputs:
 *   - profile: the 311 unique sequences of largeModule(7, 200, 3), the
 *     `lpo_cli gen-module 7 200 3` profile workload;
 *   - rq: the RQ1 + RQ2 sources;
 *   - module_cold: every unique sequence of perfbench's module-cold
 *     seed-1 draw (100 largeModule(seed, 16, 3) modules).
 *
 * Modules are printed and parsed back before extraction, as the CLI
 * and perfbench see them. Per input it records the consults, the
 * proposals, an FNV-1a digest of every proposal text, the saturation
 * counters (nodes, merges, iterations, extractions, directed replays,
 * native and replayed rule applications), the heap allocations per
 * consult of one steady-state sweep (counted by this binary's own
 * operator new) and the min-of-5 sweep time. tools/ci.sh gates the
 * digest and the counters as equal to bench/BENCH_egraph.baseline.json
 * and the allocations at or below it; wall-clock is reported with the
 * machine fingerprint, never gated.
 *
 * Emits BENCH_egraph.json.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/json_writer.h"
#include "core/proposer.h"
#include "corpus/benchmarks.h"
#include "corpus/generator.h"
#include "egraph/rules.h"
#include "extract/extractor.h"
#include "ir/parser.h"
#include "ir/printer.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

} // namespace

// Count every heap allocation this binary makes; the counter is read
// around single-threaded sweeps.
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
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t
fnvFold(uint64_t hash, const std::string &text)
{
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** splitmix64, perfbench's seed mixer (module-cold's module seeds). */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** One pinned input: sequences, each in its module's Context. */
struct Input
{
    std::string name;
    std::vector<std::unique_ptr<ir::Context>> contexts;
    std::vector<std::unique_ptr<ir::Function>> sequences;
};

/** Print @p module, parse it back into a new Context of @p input and
 *  append its unique extracted sequences. */
bool
addModule(Input &input, const ir::Module &module)
{
    input.contexts.push_back(std::make_unique<ir::Context>());
    auto parsed =
        ir::parseModule(*input.contexts.back(), ir::printModule(module));
    if (!parsed.ok())
        return false;
    extract::Extractor extractor;
    for (auto &seq : extractor.extractDetailed(**parsed))
        input.sequences.push_back(std::move(seq.wrapped));
    return true;
}

struct InputResult
{
    std::string name;
    size_t consults = 0;
    size_t proposals = 0;
    uint64_t digest = kFnvBasis;
    uint64_t nodes = 0;
    uint64_t merges = 0;
    uint64_t iterations = 0;
    uint64_t extractions = 0;
    uint64_t replays = 0;
    uint64_t native_applications = 0;
    uint64_t replay_applications = 0;
    uint64_t allocations = 0;
    double sweep_ms = 0;
};

/** Sum the saturation counters of one consult per sequence. */
void
countSaturation(const Input &input, InputResult &result)
{
    egraph::SaturationLimits limits = core::EGraphProposer().limits();
    for (const auto &seq : input.sequences) {
        egraph::SaturationStats stats;
        egraph::bestEquivalent(*seq, limits, &stats);
        result.nodes += stats.nodes;
        result.merges += stats.merges;
        result.iterations += stats.iterations;
        result.extractions += stats.extractions;
        result.replays += stats.replays;
        result.native_applications += stats.native_applications;
        result.replay_applications += stats.replay_applications;
    }
}

/**
 * Consult the proposer once per sequence, kReps times; keep the fastest
 * sweep, count the allocations of the last one (by then every constant
 * the rules intern exists), and digest the proposals of the first.
 */
InputResult
measure(const Input &input)
{
    InputResult result;
    result.name = input.name;
    result.consults = input.sequences.size();
    core::EGraphProposer proposer;
    std::vector<std::string> texts(input.sequences.size());
    double best_ms = 0;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        uint64_t before = g_allocations.load(std::memory_order_relaxed);
        auto start = Clock::now();
        for (size_t i = 0; i < input.sequences.size(); ++i) {
            auto proposal = proposer.propose(*input.sequences[i], "", "", 0);
            if (rep == 0 && proposal)
                texts[i] = std::move(proposal->text);
        }
        double ms = std::chrono::duration<double, std::milli>(
                        Clock::now() - start)
                        .count();
        result.allocations =
            g_allocations.load(std::memory_order_relaxed) - before;
        best_ms = rep == 0 ? ms : std::min(best_ms, ms);
    }
    result.sweep_ms = best_ms;
    for (const std::string &text : texts) {
        result.proposals += !text.empty();
        result.digest = fnvFold(result.digest, text.empty() ? "-" : text);
        result.digest = fnvFold(result.digest, "\n");
    }
    countSaturation(input, result);
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

std::string
hex(uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

} // namespace

int
main()
{
    std::vector<Input> inputs(3);
    inputs[0].name = "profile";
    inputs[1].name = "rq";
    inputs[2].name = "module_cold";
    bool built = true;
    {
        ir::Context ctx;
        corpus::CorpusGenerator generator(ctx);
        built &= addModule(inputs[0], *generator.largeModule(7, 200, 3));
    }
    inputs[1].contexts.push_back(std::make_unique<ir::Context>());
    for (const auto *catalog :
         {&corpus::rq1Benchmarks(), &corpus::rq2Benchmarks()})
        for (const auto &bench : *catalog) {
            auto fn = ir::parseFunction(*inputs[1].contexts.back(),
                                        bench.src_text);
            if (!fn.ok()) {
                built = false;
                continue;
            }
            inputs[1].sequences.push_back(fn.take());
        }
    // perfbench/module_cold.cc: 100 modules, seed 1.
    for (unsigned i = 0; i < 100; ++i) {
        ir::Context ctx;
        corpus::CorpusGenerator generator(ctx);
        built &= addModule(inputs[2], *generator.largeModule(
                                          mix(1'000'003ull + i), 16, 3));
    }
    if (!built) {
        std::fprintf(stderr, "a pinned input did not parse\n");
        return 1;
    }

    std::printf("%-12s %8s %9s %8s %8s %6s %6s %6s %9s %10s %s\n", "input",
                "consults", "proposals", "nodes", "merges", "iters",
                "extr", "replay", "allocs/c", "sweep_ms", "digest");
    core::JsonWriter json;
    json.beginObject();
    json.key("inputs").beginArray();
    for (const Input &input : inputs) {
        InputResult r = measure(input);
        double per_consult = static_cast<double>(r.allocations) /
                             static_cast<double>(r.consults);
        double extractions_per_consult =
            static_cast<double>(r.extractions) /
            static_cast<double>(r.consults);
        std::printf("%-12s %8zu %9zu %8llu %8llu %6llu %6llu %6llu %9.2f "
                    "%10.3f %s\n",
                    r.name.c_str(), r.consults, r.proposals,
                    (unsigned long long)r.nodes, (unsigned long long)r.merges,
                    (unsigned long long)r.iterations,
                    (unsigned long long)r.extractions,
                    (unsigned long long)r.replays, per_consult, r.sweep_ms,
                    hex(r.digest).c_str());
        json.beginObject(core::JsonWriter::Layout::Inline);
        json.field("name", r.name);
        json.field("consults", r.consults);
        json.field("proposals", r.proposals);
        json.field("nodes", r.nodes);
        json.field("merges", r.merges);
        json.field("iterations", r.iterations);
        json.field("extractions", r.extractions);
        json.field("extractions_per_consult", extractions_per_consult, 3);
        json.field("replays", r.replays);
        json.field("native_applications", r.native_applications);
        json.field("replay_applications", r.replay_applications);
        json.field("allocations", r.allocations);
        json.field("allocations_per_consult", per_consult, 2);
        json.field("sweep_ms", r.sweep_ms, 3);
        json.field("digest", hex(r.digest));
        json.endObject();
    }
    json.endArray();
    json.field("reps", kReps);
    json.key("machine").beginObject(core::JsonWriter::Layout::Inline);
    json.field("nproc", std::thread::hardware_concurrency());
    json.field("cpu", cpuModel());
    json.field("compiler", std::string(__VERSION__));
    json.endObject();
    json.endObject();

    std::ofstream out("BENCH_egraph.json");
    out << json.str() << "\n";
    std::printf("wrote BENCH_egraph.json\n");
    return 0;
}
