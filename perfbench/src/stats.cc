#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

/** ceil(p% of n), guarded against 0.999 * 10000 rounding up past 9990. */
double
nearestRank(double p, std::size_t n)
{
    return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = nearestRank(p, v.size());
    const std::size_t idx =
        static_cast<std::size_t>(std::max(1.0, rank)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
supportedTailPercentile(std::size_t n)
{
    for (double p : {99.9, 99.0, 90.0, 75.0}) {
        // Samples strictly above the nearest-rank index.
        const double rank = nearestRank(p, n);
        if (static_cast<double>(n) - rank >= 10)
            return p;
    }
    return 0;
}

Summary
summarize(const std::vector<double> &v)
{
    Summary s;
    s.n = v.size();
    s.p50 = median(v);
    s.tailPct = supportedTailPercentile(v.size());
    if (s.tailPct > 0)
        s.tail = percentile(v, s.tailPct);
    return s;
}

std::string
describe(const Summary &s, const char *unit)
{
    char buf[160];
    if (s.tailPct > 0)
        std::snprintf(buf, sizeof buf, "p50 %.4g %s, p%g %.4g %s, n=%zu",
                      s.p50, unit, s.tailPct, s.tail, unit, s.n);
    else
        std::snprintf(buf, sizeof buf, "p50 %.4g %s, n=%zu (no tail)",
                      s.p50, unit, s.n);
    return buf;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double logSum = 0;
    for (double x : v) {
        if (!(x > 0))
            return 0;
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(v.size()));
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::exponential(double mean)
{
    return -mean * std::log1p(-uniform());
}

Zipf::Zipf(std::size_t n, double s)
{
    double total = 0;
    for (std::size_t k = 1; k <= n; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k), s);
        cdf_.push_back(total);
    }
    for (double &c : cdf_)
        c /= total;
}

std::size_t
Zipf::draw(Rng &rng) const
{
    const double u = rng.uniform();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double
Zipf::probability(std::size_t rank) const
{
    return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

LadderSearch::LadderSearch(double start, double factor, int refinements,
                           int maxRungs)
    : start_(start), factor_(factor), refinements_(refinements),
      maxRungs_(maxRungs)
{
}

std::optional<double>
LadderSearch::next() const
{
    if (lowestFail_ == 0) {
        if (rungs_ >= maxRungs_)
            return std::nullopt;
        return start_ * std::pow(factor_, rungs_);
    }
    if (bestPass_ == 0 || refined_ >= refinements_)
        return std::nullopt;
    return std::sqrt(bestPass_ * lowestFail_);
}

void
LadderSearch::record(double rate, bool pass)
{
    if (lowestFail_ == 0)
        ++rungs_;
    else
        ++refined_;
    if (pass)
        bestPass_ = std::max(bestPass_, rate);
    else if (lowestFail_ == 0 || rate < lowestFail_)
        lowestFail_ = rate;
}

double
dueLatencyMs(double dueMs, double submitMs, double serverTotalMs)
{
    return std::max(0.0, submitMs - dueMs) + serverTotalMs;
}

} // namespace perfbench
