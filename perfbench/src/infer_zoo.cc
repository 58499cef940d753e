/**
 * @file
 * infer-zoo: warm, full-size, batch-1 inference of nine zoo models on
 * the cpu-blocked backend with two executor threads.  One caller, no
 * think time; models interleave round-robin in a seeded order.
 *
 * a = the attention models, b = the conv models:
 *   a_p50_ms / b_p50_ms  geomean over the class of each model's median
 *                        warm latency (infer_attn_ms / infer_conv_ms)
 *   a_per_s / b_per_s    inferences of the class per second spent
 *                        running them
 */
#include <cstring>
#include <map>

#include "core/compile_session.h"
#include "device/device_registry.h"
#include "exec/cpu_backend.h"
#include "exec/executor.h"
#include "exec/kernels_blocked.h"
#include "ir/macs.h"
#include "models/models.h"
#include "runtime/plan_executor.h"
#include "serve/request.h"
#include "stats.h"
#include "support/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace smartmem;

constexpr int kExecThreads = 2;
constexpr int kSetupReps = 3;
constexpr double kMiB = 1024.0 * 1024.0;

struct Model
{
    std::string name;
    bool attention = false;
    std::uint64_t salt = 0;
    std::shared_ptr<const runtime::ExecutionPlan> plan;
    std::map<ir::ValueId, exec::Tensor> inputs;
    std::vector<exec::Tensor> golden;
    double gmacs = 0;
    exec::CpuBackendStats stats;
    std::vector<double> samples;
};

bool
sameBytes(const std::vector<exec::Tensor> &a,
          const std::vector<exec::Tensor> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a[i].shape() == b[i].shape()))
            return false;
        const auto n = static_cast<std::size_t>(a[i].numElements());
        if (n && std::memcmp(a[i].data(), b[i].data(), n * sizeof(float)))
            return false;
    }
    return true;
}

class InferZoo : public Workload
{
  public:
    void
    setup(RunContext &ctx, RunResult &r) override
    {
        const exec::TileParams tiles = exec::resolveTileParams(dev_);
        exec::CpuBackendOptions o;
        o.threads = kExecThreads;
        o.seed = kWeightSeed;
        o.gemmRowTile = tiles.rowTile;
        o.gemmKBlock = tiles.kBlock;
        backend_ = std::make_unique<exec::CpuBackend>(o);

        Rng rng(ctx.seed);
        std::vector<std::size_t> order(inferModels().size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        rng.shuffle(order);
        for (std::size_t i : order) {
            Model m;
            m.name = inferModels()[i];
            m.attention = i < kInferAttentionModels;
            m.salt = rng.next() % 1000003;
            models_.push_back(std::move(m));
        }
        std::string orderText;
        for (const Model &m : models_)
            orderText += " " + m.name;
        say("infer-zoo order:%s", orderText.c_str());

        checkTinyVariants(r);

        support::ThreadBudgetGuard budget(kExecThreads);
        core::CompileOptions copts;
        copts.stage = 3;
        std::vector<double> reps;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            const double t0 = nowMs();
            core::CompileSession session(dev_, kExecThreads);
            session.setPlanCacheDir("");
            for (Model &m : models_)
                m.plan = session.compileModel(m.name, copts);
            reps.push_back(sinceMs(t0));
        }
        for (Model &m : models_) {
            m.inputs = serve::makeRequestInputs(m.plan->graph, kWeightSeed,
                                                m.salt);
            m.gmacs = static_cast<double>(ir::graphMacs(m.plan->graph)) / 1e9;
        }
        double warmMs = 0;
        for (Model &m : models_) {
            const double t0 = nowMs();
            m.golden = backend_->run(*m.plan, m.inputs, &m.stats);
            warmMs += sinceMs(t0);
        }
        const double setupMs = median(reps) + warmMs;
        say("setup: build+compile of 9 models median %.1f ms over %d reps, "
            "warm-up runs %.1f ms, setup_s %.4f",
            median(reps), kSetupReps, warmMs, setupMs / 1e3);
        r.set("setup_s", setupMs / 1e3);
    }

    Schedule
    measure(RunContext &ctx, RunResult &r, double seconds,
            const Schedule *replay, bool record) override
    {
        const double start = nowMs();
        int ops = 0;
        for (;;) {
            if (replay ? ops >= replay->ops
                       : (ops >= static_cast<int>(models_.size()) &&
                          sinceMs(start) >= seconds * 1e3))
                break;
            Model &m = models_[static_cast<std::size_t>(ops) %
                               models_.size()];
            exec::CpuBackendStats st;
            std::vector<exec::Tensor> out;
            double ms = 0;
            {
                ScopedSpan span(ctx.tracer, "run " + m.name, "exec");
                const double t0 = nowMs();
                out = backend_->run(*m.plan, m.inputs, &st);
                ms = sinceMs(t0);
            }
            ++ops;
            if (!record)
                continue;
            ScopedSpan check(ctx.tracer, "check outputs", "bench");
            r.attempt();
            m.samples.push_back(ms);
            m.stats = st;
            if (!sameBytes(out, m.golden))
                r.fail(m.name + ": timed output differs from warm-up");
        }
        Schedule s;
        s.ops = ops;
        return s;
    }

    void
    report(RunContext &, RunResult &r) override
    {
        std::vector<double> med[2];
        double count[2] = {0, 0}, ms[2] = {0, 0}, gmac[2] = {0, 0};
        double poolPeak = 0, poolReuses = 0, kernels = 0, relayouts = 0,
               opsAfter = 0;
        struct Counters
        {
            double relayoutMb = 0, views = 0, stores = 0, epilogue = 0,
                   substitutes = 0, attention = 0, scoreMb = 0;
        } c[2];
        for (const Model &m : models_) {
            const int k = m.attention ? 0 : 1;
            const Summary s = summarize(m.samples);
            say("  %-15s %s, %.2f GMACs, %d kernels (%d relayout)",
                m.name.c_str(), describe(s, "ms").c_str(), m.gmacs,
                m.plan->operatorCount(), m.plan->layoutCopyCount());
            r.set("exec.run_ms." + m.name, s.p50);
            med[k].push_back(s.p50);
            count[k] += static_cast<double>(m.samples.size());
            for (double x : m.samples) {
                ms[k] += x;
                gmac[k] += m.gmacs;
            }
            const exec::CpuBackendStats &st = m.stats;
            c[k].relayoutMb += static_cast<double>(st.bytesRelayouted) / kMiB;
            c[k].views += st.nativeLayoutViews;
            c[k].stores += st.nativeLayoutStores;
            c[k].epilogue += st.fusedEpilogueOps;
            c[k].substitutes += st.substitutesMaterialized;
            c[k].attention += st.fusedAttentionKernels;
            c[k].scoreMb += static_cast<double>(st.scoreBytesAvoided) / kMiB;
            poolPeak = std::max(
                poolPeak, static_cast<double>(st.poolHighWaterBytes) / kMiB);
            poolReuses += static_cast<double>(st.poolReuses);
            kernels += m.plan->operatorCount();
            relayouts += m.plan->layoutCopyCount();
            opsAfter += m.plan->graph.operatorCount();
        }
        const char *cls[2] = {"attn", "conv"};
        for (int k = 0; k < 2; ++k) {
            const std::string c2 = cls[k];
            r.set("exec.gmacs_per_s." + c2, ms[k] > 0 ? gmac[k] / (ms[k] / 1e3)
                                                      : 0.0);
            r.set("exec.relayout_mb." + c2, c[k].relayoutMb);
            r.set("exec.native_layout_views." + c2, c[k].views);
            r.set("exec.native_layout_stores." + c2, c[k].stores);
            r.set("exec.fused_epilogue_ops." + c2, c[k].epilogue);
            r.set("exec.substitutes." + c2, c[k].substitutes);
            r.set("exec.attention_kernels." + c2, c[k].attention);
            r.set("exec.score_mb_avoided." + c2, c[k].scoreMb);
        }
        r.set("runtime.pool_peak_mb", poolPeak);
        r.set("runtime.pool_reuses", poolReuses);
        r.set("core.kernels", kernels);
        r.set("core.relayout_kernels", relayouts);
        r.set("opt.ops_after", opsAfter);

        const double attn = geomean(med[0]), conv = geomean(med[1]);
        r.set("a_p50_ms", attn);
        r.set("b_p50_ms", conv);
        r.set("a_per_s", ms[0] > 0 ? count[0] / (ms[0] / 1e3) : 0.0);
        r.set("b_per_s", ms[1] > 0 ? count[1] / (ms[1] / 1e3) : 0.0);
        say("infer_attn_ms = %.4f ms (a_p50_ms; geomean of %zu per-model "
            "medians, %.0f inferences)",
            attn, med[0].size(), count[0]);
        say("infer_conv_ms = %.4f ms (b_p50_ms; geomean of %zu per-model "
            "medians, %.0f inferences)",
            conv, med[1].size(), count[1]);
    }

  private:
    /** Tiny variants on cpu-blocked vs the reference backend at 1e-4;
     *  outside setup_s. */
    void
    checkTinyVariants(RunResult &r)
    {
        core::CompileSession session(dev_, 1);
        session.setPlanCacheDir("");
        core::CompileOptions copts;
        copts.stage = 3;
        runtime::ExecutorOptions eo;
        eo.seed = kWeightSeed;
        auto reference = runtime::makeExecutor("reference", eo);
        for (const Model &m : models_) {
            auto plan = session.compileGraph(
                models::buildTinyVariant(m.name, 1), copts);
            auto inputs =
                serve::makeRequestInputs(plan->graph, kWeightSeed, m.salt);
            const auto ref = reference->run(*plan, inputs);
            const auto got = backend_->run(*plan, inputs);
            const float rel = exec::maxRelDiff(ref, got);
            r.attempt();
            if (!(rel <= kParityTol))
                r.fail("tiny:" + m.name + " differs from the reference by " +
                       std::to_string(rel));
        }
        say("tiny variants checked against the reference backend at 1e-4");
    }

    device::DeviceProfile dev_ =
        device::DeviceRegistry::builtins().find("adreno740");
    std::unique_ptr<exec::CpuBackend> backend_;
    std::vector<Model> models_;
};

} // namespace

std::unique_ptr<Workload>
makeInferZoo()
{
    return std::make_unique<InferZoo>();
}

} // namespace perfbench
