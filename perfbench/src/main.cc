/**
 * @file
 * perfbench: the repository benchmark harness.
 *
 *   perfbench --workload infer-zoo|compile-zoo|serve-mix --seed N
 *             --seconds S --trace 0|1 [--work-dir DIR]
 *             [--commit SHA] [--src-digest HEX]
 *
 * Human-readable lines go to stdout first; the last stdout line is
 * the result JSON (see README.md).  Exit code 0 on a completed run,
 * 2 on bad arguments, 1 when the run could not produce its metrics.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "device/device_registry.h"
#include "exec/kernels_blocked.h"
#include "exec/simd_dispatch.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload infer-zoo|compile-zoo|"
                 "serve-mix --seed N --seconds S --trace 0|1\n"
                 "                 [--work-dir DIR] [--commit SHA] "
                 "[--src-digest HEX]\n");
    return 2;
}

int
run(RunContext &ctx)
{
    std::unique_ptr<Workload> w;
    if (ctx.workload == "infer-zoo")
        w = makeInferZoo();
    else if (ctx.workload == "compile-zoo")
        w = makeCompileZoo();
    else if (ctx.workload == "serve-mix")
        w = makeServeMix();
    else
        return usage();

    // Every workload targets adreno740, whose profile also supplies the
    // cpu-blocked GEMM tiles.
    const smartmem::exec::TileParams tiles = smartmem::exec::resolveTileParams(
        smartmem::device::DeviceRegistry::builtins().find("adreno740"));
    printFingerprint(
        ctx, smartmem::exec::simdLevelName(smartmem::exec::activeSimdLevel()),
        tiles.rowTile, tiles.kBlock);

    RunResult r;
    w->setup(ctx, r);
    if (!ctx.trace) {
        w->measure(ctx, r, ctx.seconds, nullptr, true);
        w->report(ctx, r);
        r.set("peak_rss_mb", peakRssMb());
        return r.finish(ctx);
    }

    const double t0 = nowMs();
    const Schedule plan = w->measure(ctx, r, ctx.seconds / 2, nullptr,
                                     false);
    const double untracedMs = sinceMs(t0);
    ctx.tracer.setEnabled(true);
    const double t1 = nowMs();
    w->measure(ctx, r, 0, &plan, true);
    const double t2 = nowMs();
    ctx.tracer.setEnabled(false);
    w->report(ctx, r);
    reportTrace(ctx, r, t1, t2, untracedMs);

    std::filesystem::create_directories(ctx.workDir + "/traces");
    const std::string path = ctx.workDir + "/traces/" + ctx.workload +
                             "-seed" + std::to_string(ctx.seed) + ".json";
    if (ctx.tracer.writeChromeJson(path))
        say("trace written: %s (%zu spans)", path.c_str(),
            ctx.tracer.spans().size());
    else
        say("could not write trace file %s", path.c_str());
    return r.finish(ctx);
}

} // namespace

int
main(int argc, char **argv)
{
    RunContext ctx;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            ctx.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            ctx.seed = std::strtoull(v, &end, 10);
            haveSeed = end != v && *end == '\0';
        } else if (a == "--seconds") {
            ctx.seconds = std::strtod(v, &end);
            haveSeconds = end != v && *end == '\0' && ctx.seconds > 0;
        } else if (a == "--trace") {
            ctx.trace = std::string(v) == "1";
            haveTrace = std::string(v) == "0" || ctx.trace;
        } else if (a == "--work-dir") {
            ctx.workDir = v;
        } else if (a == "--commit") {
            ctx.commit = v;
        } else if (a == "--src-digest") {
            ctx.srcDigest = v;
        } else {
            return usage();
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        return usage();
    try {
        return run(ctx);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
