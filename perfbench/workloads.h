/**
 * @file
 * The three workloads of the benchmark of record (README.md explains
 * what each one loads and why it was chosen).
 */
#ifndef LPO_PERFBENCH_WORKLOADS_H
#define LPO_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>

#include "bench.h"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory inside the checkout (spools, stores, traces). */
    std::string work_dir = ".bench_run";
    std::string revision = "unknown";
};

/** What a workload hands back to main(). */
struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Untraced run: the end-to-end metrics. */
    Report end_to_end;
    /** Traced run: the per-layer metrics (a bypassed layer may be
     *  missing; run.py reports it as 0). */
    Report per_layer;
};

/** Counters keyed by name, summed across modules / pipelines. */
using Counters = std::map<std::string, double>;

/** @p key of @p counters, 0 when absent. */
inline double
get(const Counters &counters, const char *key)
{
    auto it = counters.find(key);
    return it == counters.end() ? 0 : it->second;
}

/** a / b, 0 when b is not positive. */
inline double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0;
}

/**
 * Pipeline worker threads (module-cold, rq-discovery): fixed, half the
 * reference box's nproc. With one worker per core, a core the shared
 * host lends to another tenant stalls a fan-out's last tasks, and the
 * rate followed the host's load rather than the code (README.md,
 * "Design notes").
 */
constexpr unsigned kWorkers = 2;

Outcome runModuleCold(const Options &options);
Outcome runRqDiscovery(const Options &options);
Outcome runServeMixed(const Options &options);

/**
 * Compare the exact-count self-check keys of two runs of the same
 * inputs; prints every drift and returns false on any.
 */
bool sameCounts(const Counters &first, const Counters &second,
                const char *what);

/** Fill the trace metrics shared by all workloads and write the
 *  Chrome trace file. */
void finishTrace(const Options &options, const std::vector<Span> &spans,
                 uint64_t window_start, uint64_t window_end,
                 double untraced_wall_s, Outcome *outcome);

} // namespace perfbench

#endif // LPO_PERFBENCH_WORKLOADS_H
