/**
 * @file
 * Unit checks for the benchmark's own statistics and trace code:
 * median and nearest-rank percentiles, the ten-samples-beyond rule,
 * geomean, the ladder search, due-time latency, seeded draws, and
 * span self time.  Exit code 0 when every check holds.
 *
 *   python3 perfbench/run.py --self-test
 */
#include <cmath>
#include <cstdio>
#include <limits>

#include "stats.h"
#include "trace.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        ++g_failures;
        std::printf("FAIL: %s\n", what);
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void
orderStatistics()
{
    check(median({}) == 0, "median of nothing is 0");
    check(median({3, 1, 2}) == 2, "odd median");
    check(near(median({4, 1, 3, 2}), 2.5), "even median averages the middle");
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    check(percentile(v, 90) == 90, "p90 of 1..100 is 90 (nearest rank)");
    check(percentile(v, 50) == 50, "p50 of 1..100 is 50");
    check(percentile(v, 100) == 100, "p100 is the max");
    check(percentile({5}, 99) == 5, "percentile of one sample");
    const double inf = std::numeric_limits<double>::infinity();
    check(percentile({1, 2, 3, inf}, 50) == 2,
          "refused requests (inf) sit above every latency");
}

void
tailRule()
{
    check(supportedTailPercentile(39) == 0, "n=39 supports no tail");
    check(supportedTailPercentile(40) == 75, "n=40 supports p75");
    check(supportedTailPercentile(99) == 75, "n=99 supports p75 only");
    check(supportedTailPercentile(100) == 90, "n=100 supports p90");
    check(supportedTailPercentile(999) == 90, "n=999 still p90");
    check(supportedTailPercentile(1000) == 99, "n=1000 supports p99");
    check(supportedTailPercentile(10000) == 99.9, "n=10000 supports p99.9");
    std::vector<double> v(250, 1.0);
    const Summary s = summarize(v);
    check(s.n == 250 && s.tailPct == 90, "summary picks p90 for n=250");
}

void
geometricMean()
{
    check(near(geomean({2, 8}), 4), "geomean(2, 8) = 4");
    check(near(geomean({5}), 5), "geomean of one value");
    check(geomean({}) == 0, "geomean of nothing is 0");
    check(geomean({1, 0}) == 0, "geomean with a zero is 0");
}

void
ladder()
{
    // Capacity 1000: rungs 200, 300, 450, 675, 1012.5 (fails), then
    // bisection between 675 and 1012.5.
    LadderSearch l(200, 1.5, 3, 10);
    std::vector<double> tried;
    while (auto r = l.next()) {
        tried.push_back(*r);
        l.record(*r, *r <= 1000);
    }
    check(tried.size() == 8, "5 ladder rungs + 3 refinements");
    check(near(tried[4], 1012.5), "fifth rung is 200*1.5^4");
    for (std::size_t i = 1; i < 5; ++i)
        check(tried[i] / tried[i - 1] >= 1.25, "rungs at least 1.25x apart");
    check(near(tried[5], std::sqrt(675 * 1012.5)), "first bisection");
    check(l.best() > 900 && l.best() <= 1000,
          "bisection closes on capacity from below");

    LadderSearch none(200, 1.5, 3, 10);
    none.record(*none.next(), false);
    check(!none.next() && none.best() == 0, "a failing first rung stops");

    LadderSearch capped(200, 1.5, 3, 4);
    int n = 0;
    while (auto r = capped.next()) {
        capped.record(*r, true);
        ++n;
    }
    check(n == 4 && near(capped.best(), 675), "maxRungs caps the ladder");
}

void
dueLatency()
{
    check(near(dueLatencyMs(100, 103, 5), 8),
          "a late submit adds its lateness");
    check(near(dueLatencyMs(100, 99.5, 5), 5), "an early submit adds nothing");
}

void
draws()
{
    Rng a(42), b(42), c(43);
    bool same = true, differ = false;
    for (int i = 0; i < 100; ++i) {
        const auto x = a.next();
        same = same && x == b.next();
        differ = differ || x != c.next();
    }
    check(same, "one seed gives one stream");
    check(differ, "another seed gives another stream");
    Rng u(7);
    double sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += u.exponential(2.0);
    check(std::fabs(sum / 20000 - 2.0) < 0.1, "exponential mean");
    const Zipf z(18, 1.0);
    double total = 0;
    for (std::size_t k = 0; k < 18; ++k)
        total += z.probability(k);
    check(near(total, 1.0), "zipf probabilities sum to 1");
    check(z.probability(0) > z.probability(1), "rank 0 is hottest");
    Rng zr(9);
    int zero = 0;
    for (int i = 0; i < 10000; ++i)
        zero += z.draw(zr) == 0;
    check(std::fabs(zero / 10000.0 - z.probability(0)) < 0.02,
          "zipf draw frequency");
}

void
selfTime()
{
    check(near(unionLength({{0, 2}, {1, 3}, {5, 6}}, 0, 10), 4),
          "union of overlapping intervals");
    check(near(unionLength({{0, 10}}, 2, 4), 2), "union clipped to window");
    Tracer t;
    t.setEnabled(true);
    const int p = t.add("parent", "a", 0, 10, -1);
    t.add("c1", "b", 1, 4, p);
    t.add("c2", "b", 3, 6, p); // overlaps c1
    t.add("alone", "c", 20, 25, -1);
    auto self = t.selfMsByLayer();
    check(near(self["a"], 5), "parent self = 10 - covered 5");
    check(near(self["b"], 6), "children keep their own durations");
    check(near(t.coveredMs(0, 30), 15), "covered time over the window");
    Tracer off;
    check(off.begin("x", "a") == -1 && off.spans().empty(),
          "a disabled tracer records nothing");
}

} // namespace

int
main()
{
    orderStatistics();
    tailRule();
    geometricMean();
    ladder();
    dueLatency();
    draws();
    selfTime();
    std::printf("%s (%d failures)\n", g_failures ? "FAILED" : "ok",
                g_failures);
    return g_failures ? 1 : 0;
}
