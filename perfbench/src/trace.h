/**
 * @file
 * In-memory spans for the traced run.
 *
 * The harness opens a span around each call it makes into a library
 * layer (name, layer, start, end, parent, request id).  Spans live in
 * memory and are written once, at exit, as Chrome trace-event JSON
 * (chrome://tracing, Perfetto).  A span's self time is its duration
 * minus the part of its interval that its children cover; summing
 * self time per layer attributes the traced wall time.
 *
 * Single-threaded by design: every span is opened on the harness's
 * main thread.  Spans of served requests are added after the fact
 * from each response's own timings (add()), on the same thread.
 * When disabled, begin()/end()/add() record nothing.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Milliseconds on the steady clock since the process's first call. */
double nowMs();

struct Span
{
    std::string name;
    std::string layer;
    double startMs = 0;
    double endMs = 0;
    int parent = -1;
    std::int64_t request = -1;
};

class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span nested in the innermost open one; -1 if disabled. */
    int begin(const std::string &name, const std::string &layer);
    void end(int id);

    /** Record a finished span with explicit times and parent (-1 for
     *  the innermost open span). */
    int add(const std::string &name, const std::string &layer,
            double startMs, double endMs, int parent = -1,
            std::int64_t request = -1);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time per layer, over every recorded span, in ms. */
    std::map<std::string, double> selfMsByLayer() const;

    /** Length of [fromMs, toMs] covered by at least one span. */
    double coveredMs(double fromMs, double toMs) const;

    /** Write Chrome trace-event JSON; false on an I/O failure. */
    bool writeChromeJson(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a no-op when the tracer is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const std::string &name,
               const std::string &layer)
        : t_(t), id_(t.begin(name, layer))
    {
    }
    ~ScopedSpan() { t_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/** Union length of [start, end) intervals clipped to [lo, hi]. */
double unionLength(std::vector<std::pair<double, double>> intervals,
                   double lo, double hi);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
