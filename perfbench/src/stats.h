/**
 * @file
 * The benchmark's own statistics: order statistics with the
 * "at least ten samples beyond" rule, geometric means, the seeded
 * random draws every workload takes its inputs from, the serving
 * rate-ladder search, and due-time latency for open-loop traffic.
 *
 * Nothing here touches the library; tests/selftest.cc checks it.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** Median; the mean of the two middle values for an even count, 0
 *  for an empty sample. */
double median(std::vector<double> v);

/** Nearest-rank percentile, p in (0, 100]; 0 for an empty sample. */
double percentile(std::vector<double> v, double p);

/**
 * The highest of the percentiles 99.9, 99, 90 and 75 that has at
 * least ten samples beyond it in a sample of size n; 0 when even
 * the 75th has fewer (n < 40).
 */
double supportedTailPercentile(std::size_t n);

/** Median plus the highest supported tail, with the sample count. */
struct Summary
{
    std::size_t n = 0;
    double p50 = 0;
    double tailPct = 0; ///< 0 when no tail is supported
    double tail = 0;
};
Summary summarize(const std::vector<double> &v);

/** "p50 12.3 ms, p90 20.1 ms, n=240" (tail omitted when unsupported). */
std::string describe(const Summary &s, const char *unit);

/** Geometric mean of strictly positive values; 0 when empty or when
 *  any value is not positive. */
double geomean(const std::vector<double> &v);

/** Small deterministic generator (splitmix64) for workload inputs. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Exponential with the given mean (inverse CDF). */
    double exponential(double mean);
    /** Fisher-Yates shuffle. */
    template <typename T>
    void shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(next() % i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    std::uint64_t state_;
};

/** Zipf(s) over ranks 0..n-1 by inverse CDF. */
class Zipf
{
  public:
    Zipf(std::size_t n, double s);
    std::size_t draw(Rng &rng) const;
    double probability(std::size_t rank) const;

  private:
    std::vector<double> cdf_;
};

/**
 * Open-loop rate ladder: rungs start, start*factor, start*factor^2
 * ... until the first rung that fails (or maxRungs rungs), then
 * `refinements` geometric bisections between the highest passing and
 * the lowest failing rate.  best() is the highest passing rate tried.
 */
class LadderSearch
{
  public:
    LadderSearch(double start, double factor, int refinements,
                 int maxRungs);
    /** The next rate to try; nullopt when the search is over. */
    std::optional<double> next() const;
    void record(double rate, bool pass);
    /** Highest passing rate; 0 when none passed. */
    double best() const { return bestPass_; }

  private:
    double start_, factor_;
    int refinements_, maxRungs_;
    int rungs_ = 0;
    int refined_ = 0;
    double bestPass_ = 0;
    double lowestFail_ = 0; ///< 0 until a rung fails
};

/**
 * Latency of one open-loop request timed from when it was due: the
 * generator's lateness (submit - due, never negative) plus the
 * server-reported admission-to-response time.
 */
double dueLatencyMs(double dueMs, double submitMs, double serverTotalMs);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
