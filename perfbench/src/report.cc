#include "report.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <thread>

#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"a_p50_ms", "ms"},  {"b_p50_ms", "ms"},
        {"a_per_s", "1/s"},  {"b_per_s", "1/s"},
        {"setup_s", "s"},    {"peak_rss_mb", "MB"},
    };
    return specs;
}

const std::vector<std::string> &
inferModels()
{
    static const std::vector<std::string> m = {
        "Swin",    "CSwin",  "BiFormer", "ViT",     "SD-TextEncoder",
        "ResNext", "RegNet", "Yolo-V8",  "ConvNext"};
    return m;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s = {
            {"models.build_ms", "ms"},
            {"models.builds_on_warm", "count"},
            {"opt.canonicalize_ms", "ms"},
            {"opt.sweeps", "count"},
            {"opt.ops_after", "count"},
            {"core.planner.ms", "ms"},
            {"core.layout_select.ms", "ms"},
            {"core.tuner.ms", "ms"},
            {"core.kernels", "count"},
            {"core.relayout_kernels", "count"},
            {"core.compile_session.warm_ms", "ms"},
            {"core.compile_session.disk_hit_ratio", "ratio"},
            {"core.plan_cache_dir.entry_kb", "KB"},
            {"cost.modeled_ms", "modeled-ms"},
            {"cost.compute_ms", "modeled-ms"},
            {"cost.memory_ms", "modeled-ms"},
            {"cost.index_ms", "modeled-ms"},
            {"cost.launch_ms", "modeled-ms"},
        };
        for (const std::string &m : inferModels())
            s.push_back({"exec.run_ms." + m, "ms"});
        s.push_back({"exec.gmacs_per_s.attn", "GMAC/s"});
        s.push_back({"exec.gmacs_per_s.conv", "GMAC/s"});
        for (const char *cls : {"attn", "conv"}) {
            const std::string c = cls;
            s.push_back({"exec.relayout_mb." + c, "MB"});
            s.push_back({"exec.native_layout_views." + c, "count"});
            s.push_back({"exec.native_layout_stores." + c, "count"});
            s.push_back({"exec.fused_epilogue_ops." + c, "count"});
            s.push_back({"exec.substitutes." + c, "count"});
            s.push_back({"exec.attention_kernels." + c, "count"});
            s.push_back({"exec.score_mb_avoided." + c, "MB"});
        }
        for (MetricSpec m : std::vector<MetricSpec>{
                 {"runtime.pool_peak_mb", "MB"},
                 {"runtime.pool_reuses", "count"},
                 {"serve.queue_ms_p50", "ms"},
                 {"serve.queue_ms_p90", "ms"},
                 {"serve.exec_ms_p50", "ms"},
                 {"serve.mean_batch", "count"},
                 {"serve.mean_batch_light", "count"},
                 {"serve.coalesced_ratio", "ratio"},
                 {"serve.queue_high_water", "count"},
                 {"serve.rejected", "count"},
                 {"serve.session_hit_ratio", "ratio"},
                 {"serve.replans", "count"},
                 {"serve.gen_lag_ms_p99", "ms"}})
            s.push_back(m);
        for (const char *layer : {"bench", "models", "opt", "core", "exec",
                                  "runtime", "serialize", "serve"})
            s.push_back({std::string("self_ms.") + layer, "ms"});
        s.push_back({"trace.wall_ms", "ms"});
        s.push_back({"trace.residual_ms", "ms"});
        s.push_back({"trace.overhead_ms", "ms"});
        s.push_back({"trace.overhead_pct", "%"});
        return s;
    }();
    return specs;
}

void
RunResult::set(const std::string &name, double value)
{
    values_[name] = value;
}

void
RunResult::fail(const std::string &why)
{
    ++failed_;
    say("FAILED: %s", why.c_str());
}

int
RunResult::finish(const RunContext &ctx) const
{
    const auto &specs = ctx.trace ? perLayerMetrics() : endToEndMetrics();
    int rc = 0;
    std::string json = "{\"correct\": ";
    json += failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    char buf[256];
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto it = values_.find(specs[i].name);
        double v = 0;
        if (it != values_.end()) {
            v = it->second;
        } else if (!ctx.trace) {
            std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                         specs[i].name.c_str());
            rc = 1;
        }
        if (!std::isfinite(v))
            v = 0;
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", specs[i].name.c_str(), v,
                      specs[i].unit.c_str());
        json += buf;
    }
    json += "}}";
    if (rc != 0)
        return rc;
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return 0;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned maxExt = __get_cpuid_max(0x80000000u, nullptr);
    if (maxExt >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

void
printFingerprint(const RunContext &ctx, const std::string &simd,
                 std::int64_t rowTile, std::int64_t kBlock)
{
    say("host: cpu \"%s\", nproc %u, simd %s, gemm tiles %lldx%lld "
        "(resolved from the adreno740 profile, not the host)",
        cpuModel().c_str(), std::thread::hardware_concurrency(),
        simd.c_str(), static_cast<long long>(rowTile),
        static_cast<long long>(kBlock));
    say("run: workload %s, seed %llu, seconds %g, trace %d, commit %s, "
        "src digest %s",
        ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
        ctx.seconds, ctx.trace ? 1 : 0, ctx.commit.c_str(),
        ctx.srcDigest.c_str());
}

void
reportTrace(const RunContext &ctx, RunResult &r, double fromMs,
            double toMs, double untracedWallMs)
{
    const double wall = toMs - fromMs;
    double selfSum = 0;
    for (const auto &[layer, ms] : ctx.tracer.selfMsByLayer()) {
        r.set("self_ms." + layer, ms);
        selfSum += ms;
        say("trace self time %-10s %10.2f ms", layer.c_str(), ms);
    }
    const double covered = ctx.tracer.coveredMs(fromMs, toMs);
    r.set("trace.wall_ms", wall);
    r.set("trace.residual_ms", wall - covered);
    r.set("trace.overhead_ms", wall - untracedWallMs);
    r.set("trace.overhead_pct",
          untracedWallMs > 0 ? 100.0 * (wall - untracedWallMs) /
                                   untracedWallMs
                             : 0.0);
    say("trace: wall %.2f ms, spans cover %.2f ms, residual %.2f ms, "
        "sum of self times %.2f ms (exceeds the wall only where spans "
        "run concurrently), untraced replay %.2f ms, overhead %.2f ms",
        wall, covered, wall - covered, selfSum, untracedWallMs,
        wall - untracedWallMs);
}

void
say(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::printf("\n");
}

} // namespace perfbench
