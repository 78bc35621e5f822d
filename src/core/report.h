/**
 * @file
 * Plain-text table rendering for the benchmark binaries.
 *
 * Every table/figure binary prints rows in the same aligned format so
 * EXPERIMENTS.md can quote them directly.
 */
#ifndef LPO_CORE_REPORT_H
#define LPO_CORE_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace lpo::telemetry {
struct MetricsSnapshot;
} // namespace lpo::telemetry

namespace lpo::core {

/** A simple column-aligned text table. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {}

    void addRow(std::vector<std::string> row);
    /** Render with padded columns and a header underline. */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Geometric mean of a series (values must be positive). */
double geomean(const std::vector<double> &values);

/**
 * "12 hits / 4 misses (75.0% hit rate)" — the standard rendering of
 * cache counters (verification cache, unique table) for reports.
 */
std::string cacheSummary(uint64_t hits, uint64_t misses);

struct PipelineStats;
struct CaseOutcome;

/**
 * The standard module-run summary: a per-proposer outcome breakdown
 * table (one row per backend that produced attempts, one column per
 * CaseStatus), the aggregate counters, and — only when the cache was
 * actually enabled — the verify-cache summary line. Used by the lpo
 * CLI's `run` command and the proposer-comparison benchmark.
 */
std::string moduleSummary(const PipelineStats &stats,
                          const std::vector<CaseOutcome> &outcomes,
                          bool verify_cache_enabled);

/**
 * The one-line solver work summary backing `lpo run --sat-stats`:
 * decisions / conflicts / propagations / restarts across every SAT
 * verification performed.
 */
std::string satStatsLine(const PipelineStats &stats);

/**
 * The one-line degradation summary backing `lpo run
 * --degradation-stats` and the CI chaos artifact: budget-ladder
 * escalations, concrete fallbacks (with the soundly-concluded
 * exhaustive rescues called out), Degraded verdicts, and contained
 * per-case exceptions. moduleSummary appends it automatically whenever
 * any of those counters is nonzero.
 */
std::string degradationStatsLine(const PipelineStats &stats);

/**
 * The per-phase wall-time table backing `lpo run --profile`: one row
 * per pipeline phase (extract, propose, verify, patch, dce) with its
 * total wall time from PipelineStats::timings, its share of the
 * optimize run, and the p50/p90/p99 per-invocation latency from the
 * matching `phase.*_ns` histogram in @p metrics; the closing total row
 * carries the per-module latency percentiles (module.latency_ns).
 * propose/verify fold per-case times across every worker thread (CPU
 * time, not wall), so their share can exceed 100% on threaded runs.
 * Purely additive — never part of moduleSummary's default output, so
 * existing pinned summaries stay byte-identical.
 */
std::string profileSummary(const PipelineStats &stats,
                           const telemetry::MetricsSnapshot &metrics);

/**
 * The one-line persistent-store summary backing `lpo run --store` and
 * the CI durability sweep: verdicts/rewrites loaded and flushed, plus
 * the recovery counters (files repaired, records quarantined, records
 * whose payload failed to decode, files rejected for version/option
 * skew, records dropped by failed writes). moduleSummary appends it
 * automatically whenever a store was configured (any counter nonzero).
 */
std::string storeStatsLine(const PipelineStats &stats);

} // namespace lpo::core

#endif // LPO_CORE_REPORT_H
