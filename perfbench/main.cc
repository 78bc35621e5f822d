/**
 * @file
 * lpo_perfbench: the benchmark of record (see README.md).
 *
 *   lpo_perfbench --workload module-cold|rq-discovery|serve-mixed
 *                 --seed N --seconds S --trace 0|1
 *                 [--work-dir DIR] [--revision REV]
 *
 * Prints a human-readable report (fingerprint, every metric with its
 * unit, percentiles with sample counts) and, as the last line, one
 * JSON object: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones, with --trace 1 the
 * per-layer ones (a traced run also writes a Chrome trace into the work
 * directory); run.py narrows them to the lists in BENCHMARK.json.
 * Exits 1 on an oracle mismatch or count drift.
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: lpo_perfbench --workload module-cold|rq-discovery|"
                 "serve-mixed --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR] [--revision REV]\n");
    return 2;
}

} // namespace

bool
sameCounts(const Counters &first, const Counters &second, const char *what)
{
    bool same = true;
    for (const auto &[key, value] : first) {
        auto it = second.find(key);
        double other = it == second.end() ? 0 : it->second;
        if (other != value) {
            std::printf("COUNT DRIFT (%s): %s %.17g vs %.17g\n", what,
                        key.c_str(), value, other);
            same = false;
        }
    }
    if (same)
        std::printf("count self-check (%s): %zu counts identical\n", what,
                    first.size());
    return same;
}

void
finishTrace(const Options &options, const std::vector<Span> &spans,
            uint64_t window_start, uint64_t window_end,
            double untraced_wall_s, Outcome *outcome)
{
    SpanTotals totals =
        summarizeSpans(spans, 1, window_start, window_end);
    double wall_ms = double(window_end - window_start) / 1e6;
    double coverage = wall_ms > 0 ? totals.top_level_ms / wall_ms : 0;
    outcome->per_layer.set("trace.coverage", coverage, "ratio");
    outcome->per_layer.set("trace.overhead_ms",
                           wall_ms - untraced_wall_s * 1e3, "ms");
    std::printf("trace: %zu spans, traced wall %.1f ms, untraced wall %.1f "
                "ms, overhead %.1f ms, top-level coverage %.2f%%\n",
                spans.size(), wall_ms, untraced_wall_s * 1e3,
                wall_ms - untraced_wall_s * 1e3, coverage * 100);
    std::printf("  %-32s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto &[name, ms] : totals.total_ms)
        std::printf("  %-32s %8llu %12.3f %12.3f\n", name.c_str(),
                    (unsigned long long)totals.count[name], ms,
                    totals.self_ms[name]);
    std::filesystem::create_directories(options.work_dir);
    std::string path = options.work_dir + "/trace-" + options.workload +
                       "-" + std::to_string(options.seed) + ".json";
    std::ofstream out(path);
    out << chromeTrace(spans, window_start);
    std::printf("trace written to %s (open in https://ui.perfetto.dev)\n",
                path.c_str());
    if (coverage < 0.95) {
        std::printf("TRACE COVERAGE below 95%%\n");
        outcome->correct = false;
    }
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options options;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            options.seconds = std::atof(value.c_str());
        } else if (key == "--trace") {
            options.trace = value == "1";
        } else if (key == "--work-dir") {
            options.work_dir = value;
        } else if (key == "--revision") {
            options.revision = value;
        } else {
            return usage();
        }
    }
    if (!have_workload || argc % 2 == 0)
        return usage();

    Outcome outcome;
    if (options.workload == "module-cold")
        outcome = runModuleCold(options);
    else if (options.workload == "rq-discovery")
        outcome = runRqDiscovery(options);
    else if (options.workload == "serve-mixed")
        outcome = runServeMixed(options);
    else
        return usage();

    outcome.end_to_end.print("end-to-end metrics:");
    if (options.trace)
        outcome.per_layer.print("per-layer metrics (traced run):");
    printResultLine(outcome.correct, outcome.attempted, outcome.failed,
                    options.trace ? outcome.per_layer : outcome.end_to_end);
    return outcome.correct ? 0 : 1;
}
