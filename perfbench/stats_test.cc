/**
 * @file
 * Unit test for the benchmark's percentile rules: nearest-rank over
 * raw samples, never above the observed max, and the "highest
 * percentile with ten samples beyond it" tail rule.
 */
#include <cstdio>
#include <vector>

#include "bench.h"

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        ++failures;
    }
}

} // namespace

int
main()
{
    using namespace perfbench;

    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(101 - i); // unsorted input
    expect(percentile(hundred, 0.5) == 50, "p50 of 1..100 is 50");
    expect(percentile(hundred, 0.9) == 90, "p90 of 1..100 is 90");
    expect(percentile(hundred, 0.99) == 99, "p99 of 1..100 is 99");
    expect(percentile(hundred, 1.0) == 100, "p100 is the max");
    expect(samplesBeyond(100, 0.9) == 10, "p90 of 100 has 10 beyond");
    expect(samplesBeyond(100, 0.99) == 1, "p99 of 100 has 1 beyond");

    // Never above the observed max, whatever the skew.
    std::vector<double> skewed = {1, 1, 1, 1, 1000};
    for (double q : {0.5, 0.9, 0.99, 0.999, 1.0})
        expect(percentile(skewed, q) <= 1000, "percentile <= max");
    expect(percentile({}, 0.99) == 0, "empty set reads 0");
    expect(percentile({7}, 0.99) == 7, "single sample");

    // Tail rule: the highest percentile with ten samples beyond it.
    expect(tailQuantile(99) == 0.5, "99 samples: p90 lacks ten beyond");
    expect(tailQuantile(100) == 0.9, "100 samples allow p90");
    expect(tailQuantile(999) == 0.9, "999 samples: p99 lacks ten beyond");
    expect(tailQuantile(1000) == 0.99, "1000 samples allow p99");
    expect(tailQuantile(10000) == 0.999, "10000 samples allow p99.9");
    for (size_t n : {size_t(100), size_t(1000), size_t(5000)})
        expect(samplesBeyond(n, tailQuantile(n)) >= 10,
               "tail quantile keeps ten samples beyond");
    expect(quantileLabel(0.99) == "p99", "label p99");
    expect(quantileLabel(0.999) == "p99.9", "label p99.9");

    // Self time: a child span is subtracted from its parent.
    std::vector<Span> spans = {
        {"outer", 1, 0, 0, 10'000'000, false},
        {"inner", 1, 1, 2'000'000, 5'000'000, false},
        {"replay", 1, 1, 6'000'000, 7'000'000, true},
    };
    SpanTotals totals = summarizeSpans(spans, 1, 0, 20'000'000);
    expect(totals.self_ms["outer"] == 6.0, "outer self = 10 - 3 - 1 ms");
    expect(totals.self_ms["inner"] == 3.0, "inner self = 3 ms");
    expect(totals.top_level_ms == 10.0, "coverage counts depth-0 only");

    if (failures == 0)
        std::printf("perfbench_stats_test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
