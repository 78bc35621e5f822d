#include "core/report.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/pipeline.h"
#include "support/telemetry.h"

namespace lpo::core {

void
TextTable::addRow(std::vector<std::string> row)
{
    assert(row.size() == headers_.size());
    rows_.push_back(std::move(row));
}

std::string
TextTable::render() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto render_row = [&](const std::vector<std::string> &row) {
        std::string line;
        for (size_t c = 0; c < row.size(); ++c) {
            line += row[c];
            line.append(widths[c] - row[c].size() + 2, ' ');
        }
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        return line + "\n";
    };

    std::string out = render_row(headers_);
    size_t total = 0;
    for (size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + 2;
    out += std::string(total - 2, '-') + "\n";
    for (const auto &row : rows_)
        out += render_row(row);
    return out;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / values.size());
}

std::string
cacheSummary(uint64_t hits, uint64_t misses)
{
    uint64_t total = hits + misses;
    double rate = total ? 100.0 * static_cast<double>(hits) /
                              static_cast<double>(total)
                        : 0.0;
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer),
                  "%llu hits / %llu misses (%.1f%% hit rate)",
                  static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(misses), rate);
    return buffer;
}

namespace {

/** "sat: ..." — the solver work line profileSummary appends. */
std::string
satStatsLine(const PipelineStats &stats)
{
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "sat: %llu solves, %llu decisions, %llu conflicts, "
        "%llu propagations, %llu restarts\n",
        static_cast<unsigned long long>(stats.sat_solves),
        static_cast<unsigned long long>(stats.sat_decisions),
        static_cast<unsigned long long>(stats.sat_conflicts),
        static_cast<unsigned long long>(stats.sat_propagations),
        static_cast<unsigned long long>(stats.sat_restarts));
    return line;
}

/** "circuit: ..." — the circuit builder's size, and how many queries
 *  the word-level terms decided without any circuit. */
std::string
circuitStatsLine(const PipelineStats &stats)
{
    char line[192];
    std::snprintf(line, sizeof(line),
                  "circuit: %llu nodes (%llu emitted), %llu of %llu "
                  "queries decided by terms\n",
                  static_cast<unsigned long long>(stats.circuit_nodes),
                  static_cast<unsigned long long>(stats.circuit_emitted),
                  static_cast<unsigned long long>(stats.term_decided),
                  static_cast<unsigned long long>(stats.sat_queries));
    return line;
}

} // namespace

std::string
degradationStatsLine(const PipelineStats &stats)
{
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "degradation: %llu escalations, %llu concrete fallbacks "
        "(%llu exhaustive rescues), %llu degraded verdicts, "
        "%llu contained exceptions\n",
        static_cast<unsigned long long>(stats.sat_escalations),
        static_cast<unsigned long long>(stats.concrete_fallbacks),
        static_cast<unsigned long long>(stats.exhaustive_rescues),
        static_cast<unsigned long long>(stats.degraded_verdicts),
        static_cast<unsigned long long>(stats.contained_exceptions));
    return line;
}

std::string
storeStatsLine(const PipelineStats &stats)
{
    char line[384];
    std::snprintf(
        line, sizeof(line),
        "store: %llu verdicts + %llu rewrites + %llu misses loaded, "
        "%llu + %llu + %llu flushed, %llu recoveries, %llu quarantined, "
        "%llu undecodable, %llu rejected files, %llu dropped writes\n",
        static_cast<unsigned long long>(stats.store_cache_loaded),
        static_cast<unsigned long long>(stats.store_catalog_loaded),
        static_cast<unsigned long long>(stats.store_misses_loaded),
        static_cast<unsigned long long>(stats.store_cache_flushed),
        static_cast<unsigned long long>(stats.store_catalog_flushed),
        static_cast<unsigned long long>(stats.store_misses_flushed),
        static_cast<unsigned long long>(stats.store_recoveries),
        static_cast<unsigned long long>(stats.store_quarantined),
        static_cast<unsigned long long>(stats.store_decode_skipped),
        static_cast<unsigned long long>(stats.store_rejected_files),
        static_cast<unsigned long long>(stats.store_flush_failures));
    return line;
}

std::string
profileSummary(const PipelineStats &stats,
               const telemetry::MetricsSnapshot &metrics)
{
    auto fmt = [](const char *format, double value) {
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), format, value);
        return std::string(buffer);
    };
    auto ms = [&](uint64_t ns) {
        return fmt("%.3f", static_cast<double>(ns) / 1e6);
    };

    const StageTimings &t = stats.timings;
    struct Phase
    {
        const char *name;
        uint64_t total_ns;
        const char *histogram;
    };
    const Phase phases[] = {
        {"extract", t.extract_ns, "phase.extract_ns"},
        {"propose", t.propose_ns, "phase.propose_ns"},
        {"opt", t.opt_ns, "phase.opt_ns"},
        {"verify", t.verify_ns, "phase.verify_ns"},
        {"case", t.case_ns, "phase.case_ns"},
        {"patch", t.patch_ns, "phase.patch_ns"},
        {"dce", t.dce_ns, "phase.dce_ns"},
    };
    // Share is of the phase-accounted time when no module total was
    // folded (the `run` command drives the pipeline directly, without
    // the extract/patch/dce envelope).
    uint64_t accounted = 0;
    for (const Phase &phase : phases)
        accounted += phase.total_ns;
    uint64_t denominator = t.total_ns ? t.total_ns : accounted;

    TextTable table({"phase", "total ms", "share", "count", "p50 us",
                     "p90 us", "p99 us"});
    auto percentiles = [&](const char *name,
                           std::vector<std::string> &row) {
        const telemetry::HistogramSnapshot *hist =
            metrics.histogram(name);
        if (hist == nullptr || hist->count == 0) {
            row.push_back("0");
            row.insert(row.end(), 3, "-");
            return;
        }
        row.push_back(std::to_string(hist->count));
        for (double q : {0.50, 0.90, 0.99})
            row.push_back(fmt("%.1f", hist->percentile(q) / 1e3));
    };
    auto addRow = [&](const std::string &name, uint64_t total_ns,
                      const char *histogram) {
        std::vector<std::string> row{name, ms(total_ns)};
        row.push_back(
            denominator
                ? fmt("%.1f%%", 100.0 * static_cast<double>(total_ns) /
                                    static_cast<double>(denominator))
                : "-");
        percentiles(histogram, row);
        table.addRow(std::move(row));
    };
    for (const Phase &phase : phases) {
        addRow(phase.name, phase.total_ns, phase.histogram);
        if (std::string(phase.name) != "verify")
            continue;
        // Inside verify: the cache key, and the SAT backend's encoding
        // and solving, whose totals only their histograms hold.
        for (const char *part : {"key", "encode", "solve"}) {
            const std::string name = std::string("verify.") + part + "_ns";
            const telemetry::HistogramSnapshot *hist =
                metrics.histogram(name);
            addRow(std::string("  ") + part, hist ? hist->sum : 0,
                   name.c_str());
        }
    }
    std::vector<std::string> total{"total", ms(denominator),
                                   denominator ? "100.0%" : "-"};
    percentiles("module.latency_ns", total);
    table.addRow(std::move(total));
    std::string rendered =
        "profile (wall time per phase):\n" + table.render();

    // The tail behind the verify phase, call by call.
    if (!t.slowest_verifies.empty()) {
        TextTable slow({"fn", "width", "leg", "backend", "conflicts",
                        "encode us", "solve us", "verify us"});
        auto us = [&](uint64_t ns) {
            return fmt("%.1f", static_cast<double>(ns) / 1e3);
        };
        for (const StageTimings::VerifyCall &call : t.slowest_verifies)
            slow.addRow({call.fn, call.width, call.leg, call.backend,
                         std::to_string(call.conflicts), us(call.encode_ns),
                         us(call.solve_ns), us(call.total_ns)});
        rendered += "slowest verify calls:\n" + slow.render();
    }

    // Scheduler behaviour behind those phases. Work-done telemetry,
    // not results: steal counts and queue depths vary run to run even
    // though the emitted module never does.
    const TaskGraphStats &sched = stats.scheduler;
    TextTable sched_table({"tasks run", "steals", "steal attempts",
                           "max queue depth", "idle ms"});
    sched_table.addRow({std::to_string(sched.tasks_run),
                        std::to_string(sched.steals),
                        std::to_string(sched.steal_attempts),
                        std::to_string(sched.max_queue_depth),
                        ms(sched.idle_ns)});
    rendered += "scheduler (work-stealing task graph):\n" +
                sched_table.render();
    // The verifier's work behind the verify phase, always printed (even
    // all-zero) so a profile alone explains where the proofs went.
    rendered += satStatsLine(stats);
    rendered += circuitStatsLine(stats);
    rendered += degradationStatsLine(stats);
    // What the store answered without a proposer: catalog rewrites
    // (verified again, from the seeded cache) and remembered misses
    // (no proposer, no verifier).
    char line[160];
    std::snprintf(line, sizeof(line),
                  "replay: %llu of %llu cases (%llu catalog rewrites, "
                  "%llu remembered misses)\n",
                  static_cast<unsigned long long>(stats.found_by_catalog +
                                                  stats.miss_replays),
                  static_cast<unsigned long long>(stats.cases),
                  static_cast<unsigned long long>(stats.found_by_catalog),
                  static_cast<unsigned long long>(stats.miss_replays));
    rendered += line;
    return rendered;
}

std::string
moduleSummary(const PipelineStats &stats,
              const std::vector<CaseOutcome> &outcomes,
              bool verify_cache_enabled)
{
    static constexpr CaseStatus kStatuses[] = {
        CaseStatus::Found,         CaseStatus::NotInteresting,
        CaseStatus::Incorrect,     CaseStatus::SyntaxError,
        CaseStatus::Unsupported,   CaseStatus::NoCandidate,
        CaseStatus::Degraded,      CaseStatus::Error,
        CaseStatus::Skipped,
    };
    static constexpr size_t kNumStatuses =
        sizeof(kStatuses) / sizeof(kStatuses[0]);

    // Per-proposer outcome breakdown. Rows appear in the fixed order
    // catalog, miss-replay, llm, egraph so reports diff cleanly between
    // runs. Replayed misses get their own row: no proposer ran.
    std::vector<std::string> headers{"proposer"};
    for (CaseStatus status : kStatuses)
        headers.push_back(caseStatusName(status));
    TextTable table(std::move(headers));
    bool any_rows = false;
    for (const char *backend : {"catalog", "miss-replay", "llm", "egraph"}) {
        uint64_t counts[kNumStatuses] = {};
        uint64_t total = 0;
        for (const CaseOutcome &outcome : outcomes) {
            const char *row = outcome.miss_replay
                                  ? "miss-replay"
                                  : outcome.proposer.c_str();
            if (std::strcmp(row, backend) != 0)
                continue;
            ++total;
            for (size_t s = 0; s < kNumStatuses; ++s)
                if (outcome.status == kStatuses[s])
                    ++counts[s];
        }
        if (total == 0)
            continue;
        std::vector<std::string> row{backend};
        for (size_t s = 0; s < kNumStatuses; ++s)
            row.push_back(std::to_string(counts[s]));
        table.addRow(std::move(row));
        any_rows = true;
    }

    // A headerless run (e.g. the extractor found no sequences) would
    // render as an orphaned header + underline; skip the table.
    std::string out = any_rows ? table.render() : std::string();
    char line[320];
    if (stats.catalog_consults || stats.found_by_catalog ||
        stats.miss_replays) {
        std::snprintf(
            line, sizeof(line),
            "cases=%llu found=%llu (catalog %llu, llm %llu, egraph "
            "%llu) llm-calls=%llu egraph-consults=%llu "
            "catalog-consults=%llu miss-replays=%llu hybrid-fallbacks=%llu "
            "verifier-calls=%llu\n",
            static_cast<unsigned long long>(stats.cases),
            static_cast<unsigned long long>(stats.found),
            static_cast<unsigned long long>(stats.found_by_catalog),
            static_cast<unsigned long long>(stats.found_by_llm),
            static_cast<unsigned long long>(stats.found_by_egraph),
            static_cast<unsigned long long>(stats.llm_calls),
            static_cast<unsigned long long>(stats.egraph_consults),
            static_cast<unsigned long long>(stats.catalog_consults),
            static_cast<unsigned long long>(stats.miss_replays),
            static_cast<unsigned long long>(stats.hybrid_fallbacks),
            static_cast<unsigned long long>(stats.verifier_calls));
    } else {
        // Catalog-free runs keep the historical line byte-identical.
        std::snprintf(
            line, sizeof(line),
            "cases=%llu found=%llu (llm %llu, egraph %llu) llm-calls=%llu "
            "egraph-consults=%llu hybrid-fallbacks=%llu verifier-calls=%llu\n",
            static_cast<unsigned long long>(stats.cases),
            static_cast<unsigned long long>(stats.found),
            static_cast<unsigned long long>(stats.found_by_llm),
            static_cast<unsigned long long>(stats.found_by_egraph),
            static_cast<unsigned long long>(stats.llm_calls),
            static_cast<unsigned long long>(stats.egraph_consults),
            static_cast<unsigned long long>(stats.hybrid_fallbacks),
            static_cast<unsigned long long>(stats.verifier_calls));
    }
    out += line;
    // The cache line would read "0 hits / 0 misses" on disabled runs
    // and suggest a malfunction; emit it only when the cache ran.
    if (verify_cache_enabled) {
        out += "verify cache: ";
        out += cacheSummary(stats.verify_cache_hits,
                            stats.verify_cache_misses);
        out += "\n";
    }
    // Degradation telemetry only matters when something degraded;
    // fault-free runs keep the summary unchanged (and byte-compatible
    // with pre-ladder reports).
    if (stats.sat_escalations || stats.concrete_fallbacks ||
        stats.degraded_verdicts || stats.contained_exceptions)
        out += degradationStatsLine(stats);
    // Store telemetry only when persistence actually did something —
    // store-less runs keep the summary byte-identical to before.
    if (stats.store_cache_loaded || stats.store_catalog_loaded ||
        stats.store_misses_loaded || stats.store_misses_flushed ||
        stats.store_cache_flushed || stats.store_catalog_flushed ||
        stats.store_recoveries || stats.store_quarantined ||
        stats.store_rejected_files || stats.store_flush_failures ||
        stats.store_decode_skipped)
        out += storeStatsLine(stats);
    return out;
}

} // namespace lpo::core
