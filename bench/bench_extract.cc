/**
 * @file
 * Extraction layer benchmark: what the module optimizer's extract
 * phase runs per module — the savings analysis (instruction count and
 * mca::analyzeFunction of every function) and a fresh extractor's
 * extractDetailed — over two pinned inputs:
 *   - profile: largeModule(7, 200, 3), the `lpo_cli gen-module 7 200 3`
 *     profile workload;
 *   - module_cold: perfbench's module-cold seed-1 draw (100
 *     largeModule(seed, 16, 3) modules).
 *
 * Modules are printed and parsed back first, as the CLI and perfbench
 * see them. Per input it records an FNV-1a digest of the result (every
 * sequence's name and canonical text in order, every site as function,
 * block and member positions, and the savings analysis by the bit
 * patterns of its doubles), the ExtractionStats counters summed over
 * the modules, the heap allocations per considered sequence of one
 * steady-state sweep (counted by this binary's own operator new) and
 * the min-of-5 sweep time. tools/ci.sh gates the digest and the
 * counters as equal to bench/BENCH_extract.baseline.json and the
 * allocations at or below it; wall-clock is reported with the machine
 * fingerprint, never gated.
 *
 * Emits BENCH_extract.json.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/json_writer.h"
#include "corpus/generator.h"
#include "extract/extractor.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "mca/cost_model.h"

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
fnvFold(uint64_t hash, const void *data, size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

uint64_t
fnvFold(uint64_t hash, const std::string &text)
{
    return fnvFold(hash, text.data(), text.size());
}

uint64_t
foldWord(uint64_t hash, uint64_t word)
{
    return fnvFold(hash, &word, sizeof(word));
}

uint64_t
foldDouble(uint64_t hash, double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return foldWord(hash, bits);
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

/** Position of @p item in @p items (items.size() if absent). */
template <typename T, typename U>
uint64_t
indexOf(const std::vector<T> &items, const U *item)
{
    for (size_t i = 0; i < items.size(); ++i)
        if (&*items[i] == item)
            return i;
    return items.size();
}

/** One pinned input: modules, each in its own Context. */
struct Input
{
    std::string name;
    std::vector<std::unique_ptr<ir::Context>> contexts;
    std::vector<std::unique_ptr<ir::Module>> modules;
};

/** Print @p module and parse it back into a new Context of @p input. */
bool
addModule(Input &input, const ir::Module &module)
{
    input.contexts.push_back(std::make_unique<ir::Context>());
    auto parsed =
        ir::parseModule(*input.contexts.back(), ir::printModule(module));
    if (!parsed.ok())
        return false;
    input.modules.push_back(parsed.take());
    return true;
}

/** What one module's extract phase produced. */
struct ModuleRun
{
    std::vector<mca::CostSummary> savings;
    std::vector<unsigned> insts;
    std::vector<extract::ExtractedSequence> sequences;
    extract::ExtractionStats stats;
};

/** The module optimizer's extract phase on @p module. */
ModuleRun
extractModule(const ir::Module &module)
{
    ModuleRun run;
    run.savings.reserve(module.functions().size());
    run.insts.reserve(module.functions().size());
    for (const auto &fn : module.functions()) {
        run.insts.push_back(fn->instructionCount());
        run.savings.push_back(mca::analyzeFunction(*fn));
    }
    extract::Extractor extractor;
    run.sequences = extractor.extractDetailed(module);
    run.stats = extractor.stats();
    return run;
}

uint64_t
foldRun(uint64_t hash, const ir::Module &module, const ModuleRun &run)
{
    for (size_t i = 0; i < run.savings.size(); ++i) {
        hash = foldWord(hash, run.insts[i]);
        hash = foldWord(hash, run.savings[i].instruction_count);
        hash = foldDouble(hash, run.savings[i].total_cycles);
        hash = foldDouble(hash, run.savings[i].critical_path);
        hash = foldDouble(hash, run.savings[i].issue_bound);
    }
    for (const auto &seq : run.sequences) {
        hash = fnvFold(hash, seq.wrapped->name());
        hash = fnvFold(hash, ir::printFunctionCanonical(*seq.wrapped));
        for (const auto &site : seq.sites) {
            hash = foldWord(hash, indexOf(module.functions(), site.fn));
            hash = foldWord(hash, indexOf(site.fn->blocks(), site.block));
            for (const ir::Instruction *inst : site.insts)
                hash = foldWord(
                    hash, indexOf(site.block->instructions(), inst));
            hash = fnvFold(hash, ";");
        }
    }
    return hash;
}

struct InputResult
{
    std::string name;
    size_t modules = 0;
    extract::ExtractionStats stats;
    uint64_t digest = kFnvBasis;
    uint64_t allocations = 0;
    double sweep_ms = 0;
};

void
addStats(extract::ExtractionStats &sum, const extract::ExtractionStats &s)
{
    sum.sequences_considered += s.sequences_considered;
    sum.length_filtered += s.length_filtered;
    sum.unwrappable_skipped += s.unwrappable_skipped;
    sum.duplicates_skipped += s.duplicates_skipped;
    sum.still_optimizable_skipped += s.still_optimizable_skipped;
    sum.extracted += s.extracted;
    sum.hash_collisions += s.hash_collisions;
}

/**
 * Run the extract phase over every module, kReps times; keep the
 * fastest sweep, count the allocations of the last one, and digest and
 * count the first.
 */
InputResult
measure(const Input &input)
{
    InputResult result;
    result.name = input.name;
    result.modules = input.modules.size();
    double best_ms = 0;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        std::vector<ModuleRun> runs;
        runs.reserve(input.modules.size());
        uint64_t before = g_allocations.load(std::memory_order_relaxed);
        auto start = Clock::now();
        for (const auto &module : input.modules)
            runs.push_back(extractModule(*module));
        double ms = std::chrono::duration<double, std::milli>(
                        Clock::now() - start)
                        .count();
        result.allocations =
            g_allocations.load(std::memory_order_relaxed) - before;
        best_ms = rep == 0 ? ms : std::min(best_ms, ms);
        if (rep == 0)
            for (size_t i = 0; i < runs.size(); ++i) {
                result.digest =
                    foldRun(result.digest, *input.modules[i], runs[i]);
                addStats(result.stats, runs[i].stats);
            }
    }
    result.sweep_ms = best_ms;
    const extract::ExtractionStats &s = result.stats;
    for (uint64_t counter :
         {s.sequences_considered, s.length_filtered, s.unwrappable_skipped,
          s.duplicates_skipped, s.still_optimizable_skipped, s.extracted,
          s.hash_collisions})
        result.digest = foldWord(result.digest, counter);
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
    std::vector<Input> inputs(2);
    inputs[0].name = "profile";
    inputs[1].name = "module_cold";
    bool built = true;
    {
        ir::Context ctx;
        corpus::CorpusGenerator generator(ctx);
        built &= addModule(inputs[0], *generator.largeModule(7, 200, 3));
    }
    // perfbench/module_cold.cc: 100 modules, seed 1.
    for (unsigned i = 0; i < 100; ++i) {
        ir::Context ctx;
        corpus::CorpusGenerator generator(ctx);
        built &= addModule(inputs[1], *generator.largeModule(
                                          mix(1'000'003ull + i), 16, 3));
    }
    if (!built) {
        std::fprintf(stderr, "a pinned input did not parse\n");
        return 1;
    }

    std::printf("%-12s %8s %10s %9s %9s %10s %9s %10s %s\n", "input",
                "modules", "considered", "extracted", "dups", "optimizbl",
                "allocs/s", "sweep_ms", "digest");
    core::JsonWriter json;
    json.beginObject();
    json.key("inputs").beginArray();
    for (const Input &input : inputs) {
        InputResult r = measure(input);
        const extract::ExtractionStats &s = r.stats;
        double per_sequence =
            static_cast<double>(r.allocations) /
            static_cast<double>(std::max<uint64_t>(1, s.sequences_considered));
        std::printf("%-12s %8zu %10llu %9llu %9llu %10llu %9.2f %10.3f %s\n",
                    r.name.c_str(), r.modules,
                    (unsigned long long)s.sequences_considered,
                    (unsigned long long)s.extracted,
                    (unsigned long long)s.duplicates_skipped,
                    (unsigned long long)s.still_optimizable_skipped,
                    per_sequence, r.sweep_ms, hex(r.digest).c_str());
        json.beginObject(core::JsonWriter::Layout::Inline);
        json.field("name", r.name);
        json.field("modules", r.modules);
        json.field("sequences_considered", s.sequences_considered);
        json.field("length_filtered", s.length_filtered);
        json.field("unwrappable_skipped", s.unwrappable_skipped);
        json.field("duplicates_skipped", s.duplicates_skipped);
        json.field("still_optimizable_skipped", s.still_optimizable_skipped);
        json.field("extracted", s.extracted);
        json.field("hash_collisions", s.hash_collisions);
        json.field("allocations", r.allocations);
        json.field("allocations_per_sequence", per_sequence, 2);
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

    std::ofstream out("BENCH_extract.json");
    out << json.str() << "\n";
    std::printf("wrote BENCH_extract.json\n");
    return 0;
}
