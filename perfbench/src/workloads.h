/**
 * @file
 * The three workloads.  Each one sets itself up (timed as setup_s,
 * with output checks kept outside that time), then runs a measured
 * phase.  The untraced run measures once for --seconds and reports
 * the end-to-end metrics.  The traced run measures twice: a first,
 * untraced pass for half the time, then a traced replay of exactly
 * the same operations, whose spans give the per-layer metrics and
 * whose extra wall time is the tracing overhead.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <memory>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

/** What a measured pass did, so a second pass can replay it. */
struct Schedule
{
    int ops = 0;                ///< operations or rounds run
    double seconds = 0;         ///< the pass's time budget
    std::vector<double> rates;  ///< serve-mix: open-loop rungs run
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Set up (reports setup_s) and check outputs. */
    virtual void setup(RunContext &ctx, RunResult &r) = 0;
    /**
     * One measured pass: for `seconds` when `replay` is null, else
     * exactly the operations of *replay.  Only a pass with `record`
     * set keeps its samples and counts attempted operations.
     */
    virtual Schedule measure(RunContext &ctx, RunResult &r,
                             double seconds, const Schedule *replay,
                             bool record) = 0;
    /** Metrics from the recorded pass. */
    virtual void report(RunContext &ctx, RunResult &r) = 0;
};

std::unique_ptr<Workload> makeInferZoo();
std::unique_ptr<Workload> makeCompileZoo();
std::unique_ptr<Workload> makeServeMix();

/** The fixed constant seed of every executed plan (weights). */
constexpr std::uint64_t kWeightSeed = 1234;

/** Relative tolerance of backend parity checks (docs/EXECUTION.md). */
constexpr float kParityTol = 1e-4f;

/** Elapsed ms since `startMs` (on nowMs()'s clock). */
inline double
sinceMs(double startMs)
{
    return nowMs() - startMs;
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
