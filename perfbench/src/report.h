/**
 * @file
 * What one benchmark run reports: the metric catalog (end-to-end and
 * per-layer names with units), the counts of attempted and failed
 * operations, the host fingerprint, and the final JSON line.
 */
#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** End-to-end metrics, reported by every workload untraced. */
const std::vector<MetricSpec> &endToEndMetrics();

/** The infer-zoo models: the attention models first, then the conv
 *  models (kInferAttentionModels of them are attention models). */
const std::vector<std::string> &inferModels();
constexpr std::size_t kInferAttentionModels = 5;

/** Per-layer metrics, reported by every workload in the traced run;
 *  a layer the workload does not exercise reads 0. */
const std::vector<MetricSpec> &perLayerMetrics();

/** Command-line settings plus the run's tracer. */
struct RunContext
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir = ".";
    std::string commit = "unknown";
    std::string srcDigest = "unknown";
    Tracer tracer;
};

/** Accumulates one run's metrics and operation outcomes. */
class RunResult
{
  public:
    /** Set a metric; the unit comes from the catalog. */
    void set(const std::string &name, double value);

    void attempt(std::int64_t n = 1) { attempted_ += n; }
    /** One failed operation, with the reason printed to stdout. */
    void fail(const std::string &why);

    /**
     * Print the result JSON as the last stdout line: the end-to-end
     * metrics untraced, the per-layer metrics traced.  Returns the
     * process exit code (1 when an end-to-end metric is missing).
     */
    int finish(const RunContext &ctx) const;

  private:
    std::map<std::string, double> values_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
};

/** Peak resident set of this process (getrusage), MB. */
double peakRssMb();

/** CPU brand string from CPUID; "unknown" where unavailable. */
std::string cpuModel();

/** Print the host fingerprint line (CPU, nproc, SIMD level, GEMM
 *  tiles, seed, commit). */
void printFingerprint(const RunContext &ctx, const std::string &simd,
                      std::int64_t rowTile, std::int64_t kBlock);

/**
 * Trace accounting over the traced window: self time per layer
 * (self_ms.*), wall time, the part of it no span covers
 * (trace.residual_ms), and the overhead against the untraced replay
 * of the same operations.
 */
void reportTrace(const RunContext &ctx, RunResult &r, double fromMs,
                 double toMs, double untracedWallMs);

/** printf-style helper for one human-readable line on stdout. */
void say(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
