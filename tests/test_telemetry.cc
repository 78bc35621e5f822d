// Telemetry and tracing: histogram percentile math, snapshot
// determinism across thread counts, well-formed balanced trace JSON,
// and the hard invariant that observability never changes pipeline
// results (module bytes and stats counters) at 1 and 8 threads.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/module_opt.h"
#include "core/pipeline.h"
#include "corpus/generator.h"
#include "ir/printer.h"
#include "llm/mock_model.h"
#include "support/failpoint.h"
#include "support/telemetry.h"
#include "support/trace.h"

using namespace lpo;

namespace {

/**
 * Minimal structural JSON check: quotes/escapes respected, braces and
 * brackets balanced and properly nested, depth returns to zero. Not a
 * grammar validator — CI runs the real `python3 -m json.tool` pass —
 * but enough to catch unbalanced emission from the writers.
 */
bool
jsonBalanced(const std::string &text)
{
    std::vector<char> stack;
    bool in_string = false;
    bool escaped = false;
    for (char c : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
        case '"': in_string = true; break;
        case '{': stack.push_back('}'); break;
        case '[': stack.push_back(']'); break;
        case '}':
        case ']':
            if (stack.empty() || stack.back() != c)
                return false;
            stack.pop_back();
            break;
        default: break;
        }
    }
    return stack.empty() && !in_string;
}

size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    size_t count = 0;
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++count;
    return count;
}

llm::ModelProfile
strongProfile()
{
    llm::ModelProfile profile = llm::modelByName("Gemini2.0T");
    profile.skill = 2.5;
    profile.syntax_error_rate = 0;
    profile.semantic_error_rate = 0;
    return profile;
}

} // namespace

TEST(TelemetryTest, HistogramBoundsAreStrictlyIncreasing)
{
    const auto &bounds = telemetry::histogramBounds();
    ASSERT_EQ(bounds.size(), telemetry::kHistogramBuckets - 1);
    EXPECT_EQ(bounds.front(), 1u);
    for (size_t i = 1; i < bounds.size(); ++i)
        EXPECT_LT(bounds[i - 1], bounds[i]) << "bucket " << i;
}

TEST(TelemetryTest, CounterGaugeHistogramRoundTrip)
{
    auto &registry = telemetry::MetricsRegistry::instance();
    registry.reset();
    registry.setEnabled(true);

    telemetry::Counter counter = registry.counter("test.counter");
    counter.add(41);
    counter.inc();
    telemetry::Gauge gauge = registry.gauge("test.gauge");
    gauge.set(-7);
    telemetry::Histogram hist = registry.histogram("test.hist");
    hist.record(100);
    hist.record(100);

    telemetry::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counter("test.counter"), 42u);
    EXPECT_EQ(snap.counter("test.absent"), 0u);
    bool gauge_found = false;
    for (const auto &[name, value] : snap.gauges)
        if (name == "test.gauge") {
            gauge_found = true;
            EXPECT_EQ(value, -7);
        }
    EXPECT_TRUE(gauge_found);
    const telemetry::HistogramSnapshot *h = snap.histogram("test.hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 2u);
    EXPECT_EQ(h->sum, 200u);
    EXPECT_EQ(h->max, 100u);

    // Re-registering a name returns the same slot.
    registry.counter("test.counter").inc();
    EXPECT_EQ(registry.snapshot().counter("test.counter"), 43u);
    registry.reset();
}

TEST(TelemetryTest, HistogramPercentiles)
{
    auto &registry = telemetry::MetricsRegistry::instance();
    registry.reset();
    registry.setEnabled(true);
    telemetry::Histogram hist = registry.histogram("test.pctl");

    // 100 samples of 150ns: every sample lands in the (100, 200]
    // bucket, so every percentile interpolates inside it.
    for (int i = 0; i < 100; ++i)
        hist.record(150);
    const telemetry::HistogramSnapshot *h =
        nullptr; // re-snapshot after each recording batch
    telemetry::MetricsSnapshot snap = registry.snapshot();
    h = snap.histogram("test.pctl");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 100u);
    EXPECT_GT(h->p50(), 100.0);
    EXPECT_LE(h->p50(), 200.0);
    EXPECT_LE(h->p50(), h->p90());
    EXPECT_LE(h->p90(), h->p99());

    // A bimodal distribution: 90 fast (150ns) + 10 slow (75000ns).
    // p50/p90 stay in the fast bucket, p99 must reach the slow one.
    for (int i = 0; i < 10; ++i)
        hist.record(75'000);
    snap = registry.snapshot();
    h = snap.histogram("test.pctl");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 110u);
    EXPECT_EQ(h->max, 75'000u);
    EXPECT_LE(h->p50(), 200.0);
    EXPECT_GT(h->p99(), 50'000.0);

    // Overflow bucket interpolates toward the observed max, never past.
    hist.record(500'000'000'000ull); // beyond the last finite bound
    snap = registry.snapshot();
    h = snap.histogram("test.pctl");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->max, 500'000'000'000ull);
    EXPECT_LE(h->percentile(1.0), 500'000'000'000.0);
    registry.reset();
}

TEST(TelemetryTest, PercentilesNeverExceedTheObservedMax)
{
    auto &registry = telemetry::MetricsRegistry::instance();
    registry.reset();
    registry.setEnabled(true);

    // One 6.9 ms sample: interpolating inside its (5 ms, 10 ms] bucket
    // would report p50 = 7.5 ms and p99 = 9.95 ms, a time never seen.
    telemetry::Histogram single = registry.histogram("test.single");
    single.record(6'900'000);
    // 98 x 1 us + 2 x 28.9 ms: p99 sits halfway into the (20 ms,
    // 50 ms] bucket, i.e. 35 ms against a 28.9 ms max.
    telemetry::Histogram tail = registry.histogram("test.tail");
    for (int i = 0; i < 98; ++i)
        tail.record(1'000);
    tail.record(28'900'000);
    tail.record(28'900'000);

    telemetry::MetricsSnapshot snap = registry.snapshot();
    const telemetry::HistogramSnapshot *h = snap.histogram("test.single");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->max, 6'900'000u);
    EXPECT_DOUBLE_EQ(h->p50(), 6'900'000.0);
    EXPECT_DOUBLE_EQ(h->p99(), 6'900'000.0);

    h = snap.histogram("test.tail");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->max, 28'900'000u);
    EXPECT_DOUBLE_EQ(h->p99(), 28'900'000.0);
    EXPECT_LE(h->p50(), 1'000.0);
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.98, 0.99, 0.999, 1.0}) {
        EXPECT_GE(h->percentile(q), 0.0) << "q=" << q;
        EXPECT_LE(h->percentile(q), static_cast<double>(h->max))
            << "q=" << q;
    }
    registry.reset();
}

TEST(TelemetryTest, QueueDepthMaxFoldsWithMaxNotSum)
{
    auto &registry = telemetry::MetricsRegistry::instance();
    registry.reset();
    registry.setEnabled(true);
    TaskGraphStats first, second;
    first.max_queue_depth = 5;
    second.max_queue_depth = 3;
    core::recordSchedulerMetrics(first);
    core::recordSchedulerMetrics(second);
    telemetry::MetricsSnapshot snap = registry.snapshot();
    const telemetry::HistogramSnapshot *h =
        snap.histogram("sched.queue_depth_max");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->max, 5u) << "the deepest single fan-out, not 5 + 3";
    EXPECT_EQ(h->count, 2u);
    registry.reset();
}

TEST(TelemetryTest, SnapshotDeterministicAcrossThreadCounts)
{
    auto &registry = telemetry::MetricsRegistry::instance();
    registry.setEnabled(true);

    // The same multiset of recordings — split across 1 thread, then
    // across 8 — must fold to identical snapshots (the wrapping-sum
    // fold is commutative and thread-retirement preserves totals).
    auto run = [&](unsigned threads) {
        registry.reset();
        telemetry::Counter counter = registry.counter("det.counter");
        telemetry::Histogram hist = registry.histogram("det.hist");
        constexpr uint64_t kSamples = 8000;
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < threads; ++t) {
            uint64_t begin = kSamples * t / threads;
            uint64_t end = kSamples * (t + 1) / threads;
            workers.emplace_back([&, begin, end] {
                for (uint64_t i = begin; i < end; ++i) {
                    counter.add(i);
                    hist.record(i % 4096);
                }
            });
        }
        for (std::thread &worker : workers)
            worker.join();
        return registry.snapshot();
    };

    telemetry::MetricsSnapshot one = run(1);
    telemetry::MetricsSnapshot eight = run(8);
    EXPECT_EQ(one.counter("det.counter"), eight.counter("det.counter"));
    const telemetry::HistogramSnapshot *h1 = one.histogram("det.hist");
    const telemetry::HistogramSnapshot *h8 = eight.histogram("det.hist");
    ASSERT_NE(h1, nullptr);
    ASSERT_NE(h8, nullptr);
    EXPECT_EQ(h1->count, h8->count);
    EXPECT_EQ(h1->sum, h8->sum);
    EXPECT_EQ(h1->max, h8->max);
    EXPECT_EQ(h1->buckets, h8->buckets);
    // And the rendered documents are byte-identical (sorted names,
    // fixed formatting; no failpoint fired between the two runs, so
    // the collector-contributed counters match too).
    EXPECT_EQ(one.toJson(), eight.toJson());
    registry.reset();
}

TEST(TelemetryTest, DisabledRecordingIsInert)
{
    auto &registry = telemetry::MetricsRegistry::instance();
    registry.reset();
    registry.setEnabled(false);
    telemetry::Counter counter = registry.counter("off.counter");
    telemetry::Histogram hist = registry.histogram("off.hist");
    counter.add(5);
    hist.record(123);
    telemetry::ScopedTimer timer(hist);
    EXPECT_EQ(timer.stopNanos(), 0u);
    telemetry::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counter("off.counter"), 0u);
    const telemetry::HistogramSnapshot *h = snap.histogram("off.hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 0u);
    registry.setEnabled(true);
    registry.reset();
}

TEST(TelemetryTest, MetricsJsonWellFormed)
{
    // The failpoint registry registers its collector on first touch.
    FailPoints::instance();
    auto &registry = telemetry::MetricsRegistry::instance();
    registry.reset();
    registry.setEnabled(true);
    registry.counter("json.counter").add(3);
    registry.gauge("json.gauge").set(9);
    registry.histogram("json.hist").record(42);
    std::string json = registry.snapshot().toJson();
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"json.counter\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    // The failpoint registry contributes its counters via collector.
    EXPECT_NE(json.find("\"failpoint.sat.exhaust.hits\""),
              std::string::npos);
    registry.reset();
}

TEST(TraceTest, BalancedSpansAcrossThreads)
{
    trace::Tracer &tracer = trace::Tracer::instance();
    tracer.start();
    {
        LPO_TRACE_SPAN(outer, "outer", "test");
        outer.arg("fn", "f1");
        outer.arg("n", uint64_t{7});
        std::vector<std::thread> workers;
        for (int t = 0; t < 4; ++t)
            workers.emplace_back([] {
                for (int i = 0; i < 3; ++i) {
                    LPO_TRACE_SPAN(span, "work", "test");
                    span.arg("i", static_cast<uint64_t>(i));
                }
            });
        for (std::thread &worker : workers)
            worker.join();
    }
    std::string json = tracer.render();
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    // 13 spans -> 13 B, 13 E; 5 threads -> 5 metadata records.
    EXPECT_EQ(countOccurrences(json, "\"ph\": \"B\""), 13u);
    EXPECT_EQ(countOccurrences(json, "\"ph\": \"E\""), 13u);
    EXPECT_EQ(countOccurrences(json, "\"thread_name\""), 5u);
    // Args land on the closing event, numbers unquoted.
    EXPECT_NE(json.find("\"fn\": \"f1\""), std::string::npos);
    EXPECT_NE(json.find("\"n\": 7"), std::string::npos);
}

TEST(TraceTest, DisabledTracerRecordsNothing)
{
    trace::Tracer &tracer = trace::Tracer::instance();
    tracer.start();
    tracer.stop();
    {
        LPO_TRACE_SPAN(span, "ghost", "test");
        EXPECT_FALSE(span.active());
    }
    std::string json = tracer.render();
    EXPECT_EQ(countOccurrences(json, "\"ph\": \"B\""), 0u);
    // start() drops the previous recording entirely.
    tracer.start();
    tracer.stop();
    EXPECT_EQ(countOccurrences(tracer.render(), "\"ghost\""), 0u);
}

TEST(TraceTest, SpanEndIsIdempotent)
{
    trace::Tracer &tracer = trace::Tracer::instance();
    tracer.start();
    {
        LPO_TRACE_SPAN(span, "once", "test");
        span.end();
        span.end(); // destructor will be the third close attempt
    }
    std::string json = tracer.render();
    EXPECT_EQ(countOccurrences(json, "\"name\": \"once\""), 2u); // B + E
}

// The tentpole invariant: telemetry and tracing on/off never change
// the emitted module bytes, the outcome counters, or the per-phase
// span structure's underlying results — at 1 and at 8 threads.
TEST(TelemetryTest, ObservabilityNeverChangesPipelineResults)
{
    struct Config
    {
        bool telemetry;
        bool tracing;
        unsigned threads;
    };
    const Config configs[] = {
        {false, false, 1}, {true, true, 1},  {false, true, 1},
        {false, false, 8}, {true, true, 8},  {true, false, 8},
    };

    std::string baseline_text[2]; // per thread-count bucket: none yet
    core::PipelineStats baseline_stats[2];
    bool have_baseline[2] = {false, false};

    for (const Config &config : configs) {
        telemetry::MetricsRegistry::instance().setEnabled(
            config.telemetry);
        if (config.tracing)
            trace::Tracer::instance().start();
        else
            trace::Tracer::instance().stop();

        ir::Context ctx;
        corpus::CorpusGenerator generator(ctx);
        auto module = generator.largeModule(21, 12, 2);
        llm::MockModel model(strongProfile(), 1);
        core::ModuleOptOptions options;
        options.pipeline.proposer = core::ProposerKind::Hybrid;
        options.pipeline.num_threads = config.threads;
        core::ModuleOptimizer optimizer(model, options);
        core::ModuleOptResult result = optimizer.optimize(*module, 1);
        std::string text = ir::printModule(*module);

        size_t bucket = config.threads == 1 ? 0 : 1;
        if (!have_baseline[bucket]) {
            have_baseline[bucket] = true;
            baseline_text[bucket] = text;
            baseline_stats[bucket] = result.pipeline;
            continue;
        }
        EXPECT_EQ(text, baseline_text[bucket])
            << "telemetry=" << config.telemetry
            << " tracing=" << config.tracing
            << " threads=" << config.threads;
        const core::PipelineStats &expect = baseline_stats[bucket];
        EXPECT_EQ(result.pipeline.cases, expect.cases);
        EXPECT_EQ(result.pipeline.found, expect.found);
        EXPECT_EQ(result.pipeline.found_by_llm, expect.found_by_llm);
        EXPECT_EQ(result.pipeline.found_by_egraph,
                  expect.found_by_egraph);
        EXPECT_EQ(result.pipeline.llm_calls, expect.llm_calls);
        EXPECT_EQ(result.pipeline.verifier_calls,
                  expect.verifier_calls);
        EXPECT_EQ(result.pipeline.sat_conflicts, expect.sat_conflicts);
    }
    // And the two thread-count baselines agree with each other.
    EXPECT_EQ(baseline_text[0], baseline_text[1]);
    EXPECT_EQ(baseline_stats[0].found, baseline_stats[1].found);

    trace::Tracer::instance().stop();
    telemetry::MetricsRegistry::instance().setEnabled(true);
    telemetry::MetricsRegistry::instance().reset();
}

// StageTimings ride in PipelineStats but are wall-clock noise; they
// must be populated when telemetry is on and stay zero when it is off
// (the inert ScopedTimer path).
TEST(TelemetryTest, StageTimingsFollowTelemetrySwitch)
{
    for (bool enabled : {true, false}) {
        telemetry::MetricsRegistry::instance().setEnabled(enabled);
        ir::Context ctx;
        corpus::CorpusGenerator generator(ctx);
        auto module = generator.largeModule(5, 6, 2);
        llm::MockModel model(strongProfile(), 1);
        core::ModuleOptOptions options;
        options.pipeline.proposer = core::ProposerKind::Hybrid;
        options.pipeline.num_threads = 1;
        core::ModuleOptimizer optimizer(model, options);
        core::ModuleOptResult result = optimizer.optimize(*module, 1);
        const core::StageTimings &timings = result.pipeline.timings;
        if (enabled) {
            EXPECT_GT(timings.total_ns, 0u);
            EXPECT_GT(timings.extract_ns, 0u);
            EXPECT_GT(timings.verify_ns, 0u);
        } else {
            EXPECT_EQ(timings.total_ns, 0u);
            EXPECT_EQ(timings.extract_ns, 0u);
            EXPECT_EQ(timings.propose_ns, 0u);
            EXPECT_EQ(timings.verify_ns, 0u);
            EXPECT_EQ(timings.patch_ns, 0u);
            EXPECT_EQ(timings.dce_ns, 0u);
        }
    }
    telemetry::MetricsRegistry::instance().setEnabled(true);
    telemetry::MetricsRegistry::instance().reset();
}
