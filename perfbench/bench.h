/**
 * @file
 * Shared pieces of the benchmark of record (see README.md): the
 * benchmark's own span recorder, raw-sample percentiles, the result
 * line, the machine/build fingerprint, the forwarding LLM client, and
 * the ExecPlan output oracle.
 *
 * Everything here lives outside src/: spans wrap calls into the
 * library's public functions, counts come from the library's public
 * stats structs.
 */
#ifndef LPO_PERFBENCH_BENCH_H
#define LPO_PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ir/function.h"
#include "ir/module.h"
#include "llm/client.h"

namespace perfbench {

/** CLOCK_MONOTONIC nanoseconds; comparable across fork(). */
uint64_t nowNs();

/** splitmix64: the benchmark's seed mixer. */
uint64_t mix(uint64_t x);

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    uint32_t tid = 0;
    uint32_t depth = 0; ///< nesting depth on its thread
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    /** Replay of a layer's public entry point on the same inputs,
     *  timed outside the production call (never counted as coverage). */
    bool replay = false;
};

/**
 * In-memory span log. Disabled, it records nothing and a Scope costs
 * one branch. Thread-safe: pipeline workers record LLM completions.
 */
class SpanLog
{
  public:
    static SpanLog &instance();

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }
    /** Thread id for spans recorded by the calling thread. */
    uint32_t threadId();
    /** Drop all spans and restart thread numbering at @p first_tid. */
    void reset(uint32_t first_tid = 1);

    void add(Span span);
    std::vector<Span> take();

    class Scope
    {
      public:
        Scope(const char *name, bool replay = false);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        const char *name_;
        bool replay_;
        bool active_;
        uint32_t depth_ = 0;
        uint64_t start_ = 0;
    };

  private:
    bool enabled_ = false;
    std::mutex mutex_;
    std::vector<Span> spans_;
    uint32_t next_tid_ = 1;
    uint64_t generation_ = 1;
};

/** Serialize spans as text lines (for the fork boundary) and back. */
std::string encodeSpans(const std::vector<Span> &spans);
std::vector<Span> decodeSpans(const std::string &text);

/** Chrome trace-event JSON (B/E pairs per thread, µs timestamps). */
std::string chromeTrace(const std::vector<Span> &spans, uint64_t origin_ns);

/** Per-name total and self time (duration minus child spans), ms. */
struct SpanTotals
{
    std::map<std::string, double> total_ms;
    std::map<std::string, double> self_ms;
    std::map<std::string, uint64_t> count;
    /** Depth-0, non-replay spans on thread @p main_tid, clipped to
     *  the traced window. */
    double top_level_ms = 0;
};
SpanTotals summarizeSpans(const std::vector<Span> &spans, uint32_t main_tid,
                          uint64_t window_start, uint64_t window_end);

// ---------------------------------------------------------------------
// Percentiles over the benchmark's own raw samples
// ---------------------------------------------------------------------

/** Nearest-rank percentile of @p samples (any order). Never above the
 *  observed max; 0 for an empty set. */
double percentile(std::vector<double> samples, double q);

/** Samples strictly above the nearest-rank position of @p q. */
size_t samplesBeyond(size_t n, double q);

/** The highest of p99.9 / p99 / p90 / p50 with at least ten samples
 *  beyond it (p50 when even p90 lacks them). */
double tailQuantile(size_t n);

/** "p90" / "p99" / "p99.9" style label. */
std::string quantileLabel(double q);

double median(std::vector<double> samples);

// ---------------------------------------------------------------------
// Result reporting
// ---------------------------------------------------------------------

struct Metric
{
    double value = 0;
    std::string unit;
};

class Report
{
  public:
    void set(const std::string &name, double value, const std::string &unit)
    {
        metrics_[name] = Metric{value, unit};
    }
    const std::map<std::string, Metric> &metrics() const
    {
        return metrics_;
    }
    /** One human line per metric: name, value, unit. */
    void print(const char *heading) const;

  private:
    std::map<std::string, Metric> metrics_;
};

/** Print the final result line with every metric of @p report. */
void printResultLine(bool correct, uint64_t attempted, uint64_t failed,
                     const Report &report);

/** Print a percentile with its sample count (and the tail rule). */
void printPercentile(const char *name, const std::vector<double> &samples,
                     double q);

// ---------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------

/** nproc, CPU model, compiler, build type, revision, worker counts. */
void printFingerprint(const std::string &revision, const std::string &workload,
                      unsigned workers);

/** Peak resident set of this process and its waited-for children. */
double peakRssMb();

// ---------------------------------------------------------------------
// Forwarding LLM client
// ---------------------------------------------------------------------

/** Forwards every completion to @p inner inside a span. */
class TracedClient : public lpo::llm::LlmClient
{
  public:
    explicit TracedClient(lpo::llm::LlmClient &inner) : inner_(inner) {}
    const std::string &name() const override { return inner_.name(); }
    lpo::llm::LlmResponse
    complete(const lpo::llm::LlmRequest &request) override;

  private:
    lpo::llm::LlmClient &inner_;
};

// ---------------------------------------------------------------------
// Output oracle
// ---------------------------------------------------------------------

enum class Replay {
    Refines,  ///< no input distinguished the pair
    Mismatch, ///< some input where @p before is defined disagrees
    Unchecked ///< @p before is outside what the interpreter models
};

/**
 * Replay @p after against @p before through interp::ExecPlan: every
 * input when the arguments total at most 16 bits, otherwise @p samples
 * seeded inputs. Mismatch on the first input where @p before is
 * defined and @p after is undefined, more poisonous, or different.
 *
 * Unchecked when @p before has a 64-bit `add nsw` / `sub nsw`:
 * APInt::addOverflowsSigned / subOverflowsSigned compute in int64_t,
 * so at width 64 ExecPlan never reports the overflow as poison and
 * would flag correct rewrites of such sources (e.g. RQ2 case 167090).
 */
Replay replayRefines(const lpo::ir::Function &before,
                     const lpo::ir::Function &after, uint64_t seed,
                     unsigned samples = 256);

} // namespace perfbench

#endif // LPO_PERFBENCH_BENCH_H
