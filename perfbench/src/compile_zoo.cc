/**
 * @file
 * compile-zoo: cold compile plus disk-warm reload of the 18
 * evaluation models at batch 1 and 4, one caller, library thread
 * budget 2.  Each round takes a fresh plan-cache directory: one
 * CompileSession compiles every (model, batch) cold and writes the
 * disk cache, and a second session on the same directory loads each
 * (model, batch) by name right after it was written.
 *
 * a = cold compile, b = warm load:
 *   a_p50_ms / b_p50_ms  median latency per (model, batch)
 *                        (compile_ms_p50 / warm_load_ms_p50)
 *   a_per_s / b_per_s    compiles (loads) per second spent in them
 *
 * The traced run also re-runs each cold compile stage by stage
 * (build -> canonicalize -> plan -> layouts -> tune, the order of
 * compileSmartMem) and requires the result to serialize
 * byte-identical to the session's plan.
 */
#include <atomic>
#include <filesystem>
#include <map>
#include <unistd.h>

#include "core/compile_session.h"
#include "core/layout_select.h"
#include "core/planner.h"
#include "core/smartmem_compiler.h"
#include "core/tuner.h"
#include "device/device_registry.h"
#include "models/model_registry.h"
#include "models/models.h"
#include "runtime/simulated_executor.h"
#include "serialize/plan_text.h"
#include "stats.h"
#include "support/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace smartmem;
namespace fs = std::filesystem;

constexpr int kBudget = 2;
constexpr int kSetupReps = 3;

/** A registry source that counts how often its builder runs. */
class CountingSource : public models::GraphSource
{
  public:
    CountingSource(const models::GraphSource &inner,
                   std::atomic<int> &builds)
        : inner_(inner), builds_(builds)
    {
    }
    std::string name() const override { return inner_.name(); }
    ir::Graph build(int batch) const override
    {
        ++builds_;
        return inner_.build(batch);
    }

  private:
    const models::GraphSource &inner_;
    std::atomic<int> &builds_;
};

struct Job
{
    std::size_t source;
    int batch;
};

/** The fusion policy compileSmartMem applies with default options. */
core::FusionPolicy
smartMemFusion()
{
    core::FusionPolicy p;
    p.fuseEltwiseChains = true;
    p.fuseEltwiseIntoIld = true;
    p.fusePreChains = true;
    p.fuseNormMatmulPrologue = true;
    p.maxPostOps = 64;
    p.fuseAttentionBlock = true;
    p.fuseTransformChains = true;
    p.eliminateTransforms = true;
    p.simplifyIndexMaps = true;
    return p;
}

class CompileZoo : public Workload
{
  public:
    void
    setup(RunContext &ctx, RunResult &r) override
    {
        for (const std::string &m : models::evaluationModels())
            sources_.push_back(std::make_unique<CountingSource>(
                models::ModelRegistry::builtins().find(m), builds_));
        for (std::size_t s = 0; s < sources_.size(); ++s)
            for (int b : {1, 4})
                jobs_.push_back({s, b});
        workRoot_ = ctx.workDir + "/tmp/compile-zoo-" +
                    std::to_string(static_cast<long>(getpid()));

        // Set-up: a warm-up compile of every model at batch 1 in a
        // memory-only session, repeated; setup_s is the median.
        support::ThreadBudgetGuard budget(kBudget);
        std::vector<double> reps;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            const double t0 = nowMs();
            core::CompileSession session(dev_, kBudget);
            session.setPlanCacheDir("");
            for (const auto &src : sources_)
                session.compileSource(*src, options(1));
            reps.push_back(sinceMs(t0));
        }
        say("setup: warm-up compile of %zu models, median %.1f ms over %d "
            "reps",
            sources_.size(), median(reps), kSetupReps);
        r.set("setup_s", median(reps) / 1e3);
    }

    Schedule
    measure(RunContext &ctx, RunResult &r, double seconds,
            const Schedule *replay, bool record) override
    {
        support::ThreadBudgetGuard budget(kBudget);
        Rng rng(ctx.seed);
        const double start = nowMs();
        int rounds = 0;
        for (;;) {
            if (replay ? rounds >= replay->ops
                       : (rounds >= 1 && sinceMs(start) >= seconds * 1e3))
                break;
            runRound(ctx, r, rng, rounds, record);
            ++rounds;
        }
        simulateBatch1(ctx, record);
        std::error_code ec;
        fs::remove_all(workRoot_, ec);
        Schedule s;
        s.ops = rounds;
        return s;
    }

    void
    report(RunContext &, RunResult &r) override
    {
        const Summary cold = summarize(cold_), warm = summarize(warm_);
        r.set("a_p50_ms", cold.p50);
        r.set("b_p50_ms", warm.p50);
        double coldSum = 0, warmSum = 0;
        for (double x : cold_)
            coldSum += x;
        for (double x : warm_)
            warmSum += x;
        r.set("a_per_s", coldSum > 0 ? cold_.size() / (coldSum / 1e3) : 0.0);
        r.set("b_per_s", warmSum > 0 ? warm_.size() / (warmSum / 1e3) : 0.0);
        say("compile_ms_p50 = %.4f ms, compile_ms_p90 = %.4f ms (cold; %s)",
            cold.p50, percentile(cold_, 90), describe(cold, "ms").c_str());
        say("warm_load_ms_p50 = %.4f ms, warm_load_ms_p90 = %.4f ms "
            "(disk-warm; %s)",
            warm.p50, percentile(warm_, 90), describe(warm, "ms").c_str());
        if (buildsOnWarm_ > 0 || warmHits_ != warmLookups_)
            say("note: warm passes built %d graphs and hit the disk for "
                "%lld of %lld lookups (expected 0 and all)",
                buildsOnWarm_, static_cast<long long>(warmHits_),
                static_cast<long long>(warmLookups_));
        say("modeled_ms = %.4f modeled-ms (geomean of runtime::simulate "
            "latency of the %zu batch-1 plans on adreno740)",
            modeledMs_, sources_.size());

        r.set("core.compile_session.warm_ms", warm.p50);
        r.set("core.compile_session.disk_hit_ratio",
              warmLookups_ ? double(warmHits_) / warmLookups_ : 0.0);
        r.set("models.builds_on_warm", buildsOnWarm_);
        r.set("core.plan_cache_dir.entry_kb", median(entryKb_));
        r.set("models.build_ms", median(stageMs_[0]));
        r.set("opt.canonicalize_ms", median(stageMs_[1]));
        r.set("core.planner.ms", median(stageMs_[2]));
        r.set("core.layout_select.ms", median(stageMs_[3]));
        r.set("core.tuner.ms", median(stageMs_[4]));
        double sweeps = 0, opsAfter = 0;
        for (const auto &[job, n] : sweeps_)
            sweeps += n;
        for (const auto &[job, n] : opsAfter_)
            opsAfter += n;
        r.set("opt.sweeps", sweeps);
        r.set("opt.ops_after", opsAfter);
        r.set("core.kernels", kernels_);
        r.set("core.relayout_kernels", relayouts_);
        r.set("cost.modeled_ms", modeledMs_);
        r.set("cost.compute_ms", costMs_[0]);
        r.set("cost.memory_ms", costMs_[1]);
        r.set("cost.index_ms", costMs_[2]);
        r.set("cost.launch_ms", costMs_[3]);
    }

  private:
    static core::CompileOptions
    options(int batch)
    {
        core::CompileOptions o;
        o.batch = batch;
        return o;
    }

    /**
     * One round: a fresh directory; every job compiled cold by one
     * session, each followed at once by its disk-warm load through a
     * second session that never compiles anything itself.  Warm loads
     * take ~3 ms; interleaving spreads them over the round, so a brief
     * host slowdown cannot land on all of them at once.
     */
    void
    runRound(RunContext &ctx, RunResult &r, Rng &rng, int round,
             bool record)
    {
        const std::string dir =
            workRoot_ + "/round-" + std::to_string(round);
        std::error_code ec;
        fs::remove_all(dir, ec);
        std::vector<std::size_t> order(jobs_.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        rng.shuffle(order);

        core::CompileSession coldSession(dev_, kBudget),
            warmSession(dev_, kBudget);
        coldSession.setPlanCacheDir(dir, 0);
        warmSession.setPlanCacheDir(dir, 0);
        int warmBuilds = 0;
        batch1_.assign(sources_.size(), nullptr);
        for (std::size_t i : order) {
            const Job &j = jobs_[i];
            const models::GraphSource &src = *sources_[j.source];
            std::shared_ptr<const runtime::ExecutionPlan> cold, warm;
            double coldMs = 0, warmMs = 0;
            {
                ScopedSpan span(ctx.tracer, "compile cold", "core");
                const double t0 = nowMs();
                cold = coldSession.compileSource(src, options(j.batch));
                coldMs = sinceMs(t0);
            }
            if (ctx.trace)
                compileByStages(ctx, r, i, *cold, record);
            const int buildsBefore = builds_;
            {
                ScopedSpan span(ctx.tracer, "load warm", "core");
                const double t0 = nowMs();
                warm = warmSession.compileSource(src, options(j.batch));
                warmMs = sinceMs(t0);
            }
            warmBuilds += builds_ - buildsBefore;
            if (j.batch == 1)
                batch1_[j.source] = cold;
            ScopedSpan span(ctx.tracer, "compare plans", "serialize");
            if (!record)
                continue;
            r.attempt(2);
            cold_.push_back(coldMs);
            warm_.push_back(warmMs);
            if (serialize::serializePlan(*warm) !=
                serialize::serializePlan(*cold))
                r.fail(src.name() + " batch " + std::to_string(j.batch) +
                       ": warm plan differs from the cold plan");
        }
        if (record) {
            entryKb_.push_back(entryKb(dir));
            // A warm lookup by name should neither build a graph nor
            // miss the disk.  Both are reported as counters, not as
            // failed operations: the plans themselves are checked above.
            warmHits_ += warmSession.stats().diskHits;
            warmLookups_ += static_cast<std::int64_t>(jobs_.size());
            buildsOnWarm_ += warmBuilds;
        }
        fs::remove_all(dir, ec);
    }

    /** The cold compile again, one library stage per span, in the
     *  order compileSmartMem runs them. */
    void
    compileByStages(RunContext &ctx, RunResult &r, std::size_t job,
                    const runtime::ExecutionPlan &expected, bool record)
    {
        const Job &j = jobs_[job];
        double ms[5];
        double t0 = nowMs();
        ir::Graph built;
        {
            ScopedSpan s(ctx.tracer, "buildModel", "models");
            built = models::buildModel(sources_[j.source]->name(), j.batch);
        }
        ms[0] = sinceMs(t0);
        t0 = nowMs();
        opt::PipelineStats pst;
        ir::Graph g;
        {
            ScopedSpan s(ctx.tracer, "canonicalizeGraph", "opt");
            // The session canonicalizes once for its cache key and
            // compileSmartMem once more (a no-op at the fixed point).
            g = core::canonicalizeGraph(
                core::canonicalizeGraph(built, &pst));
        }
        ms[1] = sinceMs(t0);
        t0 = nowMs();
        runtime::ExecutionPlan plan;
        {
            ScopedSpan s(ctx.tracer, "planGraph", "core");
            plan = core::planGraph(g, smartMemFusion());
            plan.compilerName = "SmartMem";
        }
        ms[2] = sinceMs(t0);
        t0 = nowMs();
        {
            ScopedSpan s(ctx.tracer, "assignLayouts", "core");
            core::assignLayouts(plan,
                                dev_.hasTexture
                                    ? core::LayoutStrategy::SmartSelect
                                    : core::LayoutStrategy::
                                          SmartSelectBufferOnly,
                                dev_, true);
        }
        ms[3] = sinceMs(t0);
        t0 = nowMs();
        {
            ScopedSpan s(ctx.tracer, "tunePlan", "core");
            core::tunePlan(plan, dev_);
        }
        ms[4] = sinceMs(t0);
        plan.cacheKey = expected.cacheKey;
        ScopedSpan s(ctx.tracer, "compare plans", "serialize");
        if (!record)
            return;
        for (int k = 0; k < 5; ++k)
            stageMs_[k].push_back(ms[k]);
        sweeps_[job] = pst.iterations;
        opsAfter_[job] = pst.operatorsAfter;
        r.attempt();
        if (serialize::serializePlan(plan) !=
            serialize::serializePlan(expected))
            r.fail(sources_[j.source]->name() + " batch " +
                   std::to_string(j.batch) +
                   ": stage-by-stage plan differs from compileSource's");
    }

    /** Modeled latency of the batch-1 plans (the paper's Fig. 8
     *  quantity, deterministic). */
    void
    simulateBatch1(RunContext &ctx, bool record)
    {
        ScopedSpan span(ctx.tracer, "simulate", "runtime");
        std::vector<double> lat;
        double parts[4] = {0, 0, 0, 0};
        double kernels = 0, relayouts = 0;
        for (const auto &p : batch1_) {
            const runtime::SimResult sim = runtime::simulate(dev_, *p);
            lat.push_back(sim.latencyMs());
            parts[0] += sim.cost.computeSeconds * 1e3;
            parts[1] += sim.cost.memorySeconds * 1e3;
            parts[2] += sim.cost.indexSeconds * 1e3;
            parts[3] += sim.cost.overheadSeconds * 1e3;
            kernels += p->operatorCount();
            relayouts += p->layoutCopyCount();
        }
        if (!record)
            return;
        modeledMs_ = geomean(lat);
        for (int k = 0; k < 4; ++k)
            costMs_[k] = parts[k];
        kernels_ = kernels;
        relayouts_ = relayouts;
    }

    static double
    entryKb(const std::string &dir)
    {
        double bytes = 0;
        int plans = 0;
        std::error_code ec;
        for (const auto &e : fs::directory_iterator(dir, ec)) {
            bytes += static_cast<double>(e.file_size(ec));
            plans += e.path().extension() == ".plan";
        }
        return plans ? bytes / 1024.0 / plans : 0.0;
    }

    device::DeviceProfile dev_ =
        device::DeviceRegistry::builtins().find("adreno740");
    std::atomic<int> builds_{0};
    std::vector<std::unique_ptr<CountingSource>> sources_;
    std::vector<Job> jobs_;
    std::string workRoot_;

    std::vector<double> cold_, warm_, entryKb_;
    std::vector<double> stageMs_[5];
    /** Per job: fixed-point sweeps and operators after canonicalize. */
    std::map<std::size_t, int> sweeps_, opsAfter_;
    double kernels_ = 0, relayouts_ = 0;
    std::int64_t warmHits_ = 0, warmLookups_ = 0;
    int buildsOnWarm_ = 0;
    std::vector<std::shared_ptr<const runtime::ExecutionPlan>> batch1_;
    double modeledMs_ = 0;
    double costMs_[4] = {0, 0, 0, 0};
};

} // namespace

std::unique_ptr<Workload>
makeCompileZoo()
{
    return std::make_unique<CompileZoo>();
}

} // namespace perfbench
