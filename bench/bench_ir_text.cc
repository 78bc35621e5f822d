/**
 * @file
 * IR text-layer benchmark: parseFunction, printFunction and
 * printFunctionCanonical over the pinned function set of
 * tests/ir_text_corpus.h (the 87 RQ1 + RQ2 sources and targets, every
 * function and extracted sequence of largeModule(7, 200, 3), and the
 * rewrite library's outputs on them).
 *
 * The parse input is each function's printFunction text, the form the
 * pipeline re-parses (LLM and catalog candidates, patch-back). Per
 * operation it records the min-of-5 microseconds per call, the heap
 * allocations per call of one steady-state sweep (counted by this
 * binary's own operator new), and an FNV-1a digest of every output
 * (for parse: the print of each parsed function). tools/ci.sh gates
 * the allocation counts at or below bench/BENCH_text.baseline.json and
 * the digests as equal; wall-clock is reported with the machine
 * fingerprint, never gated.
 *
 * Emits BENCH_text.json.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/json_writer.h"
#include "ir_text_corpus.h"

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

struct OpResult
{
    std::string name;
    size_t calls = 0;
    double us_per_call = 0;
    uint64_t allocations = 0;
    uint64_t digest = text_corpus::kFnvBasis;
};

/**
 * Run @p sweep (one call per function) kReps times, each after an
 * untimed @p reset; keep the fastest sweep, and count the allocations
 * of the last one (by then every per-thread buffer and interned
 * constant exists).
 */
OpResult
measure(const std::string &name, size_t calls,
        const std::function<void()> &sweep,
        const std::function<void()> &reset)
{
    OpResult result;
    result.name = name;
    result.calls = calls;
    double best_us = 0;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        reset();
        uint64_t before = g_allocations.load(std::memory_order_relaxed);
        auto start = Clock::now();
        sweep();
        double us = std::chrono::duration<double, std::micro>(
                        Clock::now() - start)
                        .count();
        result.allocations =
            g_allocations.load(std::memory_order_relaxed) - before;
        best_us = rep == 0 ? us : std::min(best_us, us);
    }
    result.us_per_call = best_us / static_cast<double>(calls);
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
    ir::Context context;
    text_corpus::Corpus corpus = text_corpus::build(context);
    if (corpus.groups.empty()) {
        std::fprintf(stderr, "the pinned set did not parse\n");
        return 1;
    }
    std::vector<const ir::Function *> functions;
    for (const auto &group : corpus.groups)
        functions.insert(functions.end(), group.functions.begin(),
                         group.functions.end());
    std::vector<std::string> texts;
    for (const ir::Function *fn : functions)
        texts.push_back(ir::printFunction(*fn));
    const size_t n = functions.size();

    // Each sweep writes into slots that already exist; the previous
    // sweep's outputs are freed before the timer starts.
    std::vector<std::unique_ptr<ir::Function>> parsed(n);
    std::vector<std::string> printed(n), canonical(n);
    bool parse_failed = false;

    std::vector<OpResult> results;
    results.push_back(measure(
        "parse", n,
        [&] {
            for (size_t i = 0; i < n; ++i) {
                auto fn = ir::parseFunction(context, texts[i]);
                if (!fn.ok()) {
                    parse_failed = true;
                    continue;
                }
                parsed[i] = fn.take();
            }
        },
        [&] {
            for (auto &fn : parsed)
                fn.reset();
        }));
    results.push_back(measure(
        "print", n,
        [&] {
            for (size_t i = 0; i < n; ++i)
                printed[i] = ir::printFunction(*functions[i]);
        },
        [&] {
            for (std::string &text : printed)
                std::string().swap(text);
        }));
    results.push_back(measure(
        "print_canonical", n,
        [&] {
            for (size_t i = 0; i < n; ++i)
                canonical[i] = ir::printFunctionCanonical(*functions[i]);
        },
        [&] {
            for (std::string &text : canonical)
                std::string().swap(text);
        }));
    if (parse_failed) {
        std::fprintf(stderr, "FAIL: a printed function did not re-parse\n");
        return 1;
    }
    for (size_t i = 0; i < n; ++i) {
        results[0].digest = text_corpus::fnvFold(
            results[0].digest, ir::printFunction(*parsed[i]));
        results[1].digest = text_corpus::fnvFold(results[1].digest,
                                                 printed[i]);
        results[2].digest = text_corpus::fnvFold(results[2].digest,
                                                 canonical[i]);
    }

    std::printf("%-16s %7s %10s %14s %s\n", "operation", "calls",
                "us/call", "allocs/call", "digest");
    core::JsonWriter json;
    json.beginObject();
    json.key("benchmarks").beginArray();
    for (const OpResult &r : results) {
        double allocs_per_call =
            static_cast<double>(r.allocations) / static_cast<double>(r.calls);
        std::printf("%-16s %7zu %10.3f %14.2f %s\n", r.name.c_str(), r.calls,
                    r.us_per_call, allocs_per_call, hex(r.digest).c_str());
        json.beginObject(core::JsonWriter::Layout::Inline);
        json.field("name", r.name);
        json.field("calls", r.calls);
        json.field("us_per_call", r.us_per_call, 3);
        json.field("allocations", r.allocations);
        json.field("allocations_per_call", allocs_per_call, 2);
        json.field("digest", hex(r.digest));
        json.endObject();
    }
    json.endArray();
    json.field("functions", n);
    json.field("reps", kReps);
    json.key("machine").beginObject(core::JsonWriter::Layout::Inline);
    json.field("nproc", std::thread::hardware_concurrency());
    json.field("cpu", cpuModel());
    json.field("compiler", std::string(__VERSION__));
    json.endObject();
    json.endObject();

    std::ofstream out("BENCH_text.json");
    out << json.str() << "\n";
    std::printf("wrote BENCH_text.json\n");
    return 0;
}
