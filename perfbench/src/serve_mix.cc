/**
 * @file
 * serve-mix: open-loop traffic through InferenceServer over the
 * tiny: variants of the 18 evaluation models, with the CLI's default
 * ServerOptions (2 workers x 1 exec thread, max batch 8, 2 ms batch
 * deadline, queue 256).  One generator thread submits a seeded Zipf
 * model mix at seeded Poisson arrival times.
 *
 * The measured phase is a light rung (its latencies are the headline),
 * a rate ladder (x1.5 rungs up past capacity, then geometric
 * bisection), and a closed-loop rung that keeps 64 requests
 * outstanding:
 *   a_p50_ms  light-rung p50, timed from each request's due time
 *             (serve_p50_ms)
 *   b_p50_ms  light-rung p90, timed the same way (serve_p90_ms)
 *   a_per_s   achieved req/s at the highest rung with p90 <= 25 ms,
 *             no rejection and no failure (serve_max_rps)
 *   b_per_s   served req/s on the closed-loop rung, the median over
 *             ten equal runs of its completions (serve_sat_rps)
 *
 * After each rung, a seeded sample of >= 200 Ok responses covering
 * every batch size seen is re-executed at batch 1 and compared at
 * 1e-4.  Lost responses and Failed statuses count as failed too;
 * rejections above capacity are the server's typed backpressure and
 * are reported per rung, not as failures.
 */
#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <set>
#include <thread>

#include "core/compile_session.h"
#include "device/device_registry.h"
#include "exec/executor.h"
#include "exec/kernels_blocked.h"
#include "models/graph_source.h"
#include "models/model_registry.h"
#include "models/models.h"
#include "runtime/plan_executor.h"
#include "serve/server.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace smartmem;

constexpr int kSetupReps = 3;
constexpr double kLightRate = 200;   // req/s
constexpr double kLadderFactor = 1.5;
constexpr int kRefinements = 3;
constexpr int kMaxRungs = 10;
constexpr double kP90LimitMs = 25;
constexpr int kClosedOutstanding = 64;
constexpr std::size_t kVerifySample = 200;
constexpr double kZipfS = 1.0;
// Shares of --seconds: light rung, each further rung, closed loop.
constexpr double kLightShare = 0.15, kRungShare = 0.05,
                 kClosedShare = 0.3;

const std::vector<std::string> &
tinyModels()
{
    static const std::vector<std::string> m = [] {
        std::vector<std::string> v;
        for (const std::string &n : models::evaluationModels())
            v.push_back("tiny:" + n);
        return v;
    }();
    return m;
}

const models::ModelRegistry &
servingRegistry()
{
    static const models::ModelRegistry *reg = [] {
        auto *r = new models::ModelRegistry();
        for (const std::string &name : models::evaluationModels())
            r->add(std::make_unique<models::BuilderGraphSource>(
                "tiny:" + name, [name](int batch) {
                    return models::buildTinyVariant(name, batch);
                }));
        return r;
    }();
    return *reg;
}

void
sleepUntilMs(double targetMs)
{
    const double wait = targetMs - nowMs();
    if (wait > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(wait));
}

/** Re-executes a served request directly at batch 1 (same seed and
 *  salt) and compares at 1e-4. */
class Verifier
{
  public:
    explicit Verifier(const device::DeviceProfile &dev)
        : session_(dev, 1)
    {
        session_.setPlanCacheDir("");
        runtime::ExecutorOptions eo;
        eo.threads = 1;
        eo.seed = kWeightSeed;
        const exec::TileParams tiles = exec::resolveTileParams(dev);
        eo.gemmRowTile = tiles.rowTile;
        eo.gemmKBlock = tiles.kBlock;
        executor_ = runtime::makeExecutor("cpu-blocked", eo);
    }

    bool
    check(const std::string &model, std::uint64_t salt,
          const std::vector<exec::Tensor> &got)
    {
        auto plan = session_.compileSource(servingRegistry().find(model));
        auto ref = executor_->run(
            *plan, serve::makeRequestInputs(plan->graph, kWeightSeed, salt));
        return ref.size() == got.size() &&
               exec::maxRelDiff(ref, got) <= kParityTol;
    }

  private:
    core::CompileSession session_;
    std::unique_ptr<runtime::PlanExecutor> executor_;
};

struct Sent
{
    double dueMs = 0;
    double submitMs = 0;
    std::size_t model = 0;
    std::uint64_t salt = 0;
    serve::InferenceResponse resp;
    bool lost = false;
};

struct Rung
{
    double rate = 0; ///< offered req/s; 0 for the closed-loop rung
    std::int64_t submitted = 0, served = 0, rejected = 0, failed = 0;
    double p50 = 0, p90 = 0, achieved = 0, meanBatch = 0;
    std::size_t highWater = 0;
    bool pass = false;
};

/**
 * Picks, as responses arrive, the Ok responses a rung re-executes:
 * the first of every batch size, plus a seeded uniform reservoir of
 * kVerifySample others.  Outputs of everything else are dropped on
 * arrival, so the harness's own memory stays small and flat.
 */
class VerifySample
{
  public:
    explicit VerifySample(std::uint64_t seed) : rng_(seed) {}

    void
    offer(std::vector<Sent> &sent, std::size_t i)
    {
        if (sizes_.insert(sent[i].resp.batchSize).second) {
            picks_.push_back(i);
            return;
        }
        ++seen_;
        if (reservoir_.size() < kVerifySample) {
            reservoir_.push_back(i);
            return;
        }
        const std::size_t j = static_cast<std::size_t>(rng_.next() % seen_);
        std::size_t drop = i;
        if (j < kVerifySample)
            std::swap(drop, reservoir_[j]);
        // Release the buffer itself, not just the tensors: thousands of
        // small leftover buffers fragment the heap and inflate RSS.
        std::vector<exec::Tensor>().swap(sent[drop].resp.outputs);
    }

    std::vector<std::size_t>
    picks() const
    {
        std::vector<std::size_t> all = picks_;
        all.insert(all.end(), reservoir_.begin(), reservoir_.end());
        return all;
    }

  private:
    Rng rng_;
    std::set<int> sizes_;
    std::vector<std::size_t> picks_, reservoir_;
    std::size_t seen_ = 0;
};

class ServeMix : public Workload
{
  public:
    void
    setup(RunContext &, RunResult &r) override
    {
        options_.models = &servingRegistry();
        options_.extraDevices = {dev_};
        options_.defaultDevice = dev_.name;

        std::vector<double> reps;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            server_.reset();
            const double t0 = nowMs();
            server_ = std::make_unique<serve::InferenceServer>(options_);
            warmUp();
            reps.push_back(sinceMs(t0));
        }
        const core::CompileStats cs = server_->compileStats(dev_.name);
        say("setup: server start + warm-up compiles, median %.1f ms over %d "
            "reps; %lld plans compiled",
            median(reps), kSetupReps,
            static_cast<long long>(cs.cacheMisses));
        r.set("setup_s", median(reps) / 1e3);
        verifier_ = std::make_unique<Verifier>(dev_);
    }

    Schedule
    measure(RunContext &ctx, RunResult &r, double seconds,
            const Schedule *replay, bool record) override
    {
        Schedule s;
        s.seconds = replay ? replay->seconds : seconds;
        Rng rng(ctx.seed);
        const Zipf zipf(tinyModels().size(), kZipfS);
        const core::CompileStats before = server_->compileStats(dev_.name);
        rungs_.clear();
        genLag_.clear();

        LadderSearch ladder(kLightRate, kLadderFactor, kRefinements,
                            kMaxRungs);
        for (std::size_t i = 0;; ++i) {
            double rate = 0;
            if (replay) {
                if (i >= replay->rates.size())
                    break;
                rate = replay->rates[i];
            } else {
                auto next = ladder.next();
                if (!next)
                    break;
                rate = *next;
            }
            const double share = i == 0 ? kLightShare : kRungShare;
            Rung rg = openRung(ctx, r, rng, zipf, rate, share * s.seconds,
                               i == 0, record);
            ladder.record(rate, rg.pass);
            s.rates.push_back(rate);
            rungs_.push_back(rg);
        }
        closedRung(ctx, r, rng, zipf, kClosedShare * s.seconds, record);

        const core::CompileStats after = server_->compileStats(dev_.name);
        const double hits = double(after.cacheHits - before.cacheHits);
        const double misses = double(after.cacheMisses - before.cacheMisses);
        if (record) {
            r.set("serve.session_hit_ratio",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0);
            r.set("serve.replans", misses);
            r.set("serve.gen_lag_ms_p99", percentile(genLag_, 99));
        }
        s.ops = static_cast<int>(s.rates.size());
        return s;
    }

    void
    report(RunContext &, RunResult &r) override
    {
        say("  %9s %9s %6s %6s %6s %6s %8s %8s %6s %5s %s", "offered",
            "achieved", "sent", "served", "rej", "fail", "p50ms", "p90ms",
            "batch", "qhw", "pass");
        double best = 0, bestOffered = 0;
        double rejected = 0, highWater = 0;
        for (const Rung &g : rungs_) {
            say("  %9.1f %9.1f %6lld %6lld %6lld %6lld %8.3f %8.3f %6.2f "
                "%5zu %s",
                g.rate, g.achieved, static_cast<long long>(g.submitted),
                static_cast<long long>(g.served),
                static_cast<long long>(g.rejected),
                static_cast<long long>(g.failed), g.p50, g.p90, g.meanBatch,
                g.highWater, g.rate > 0 ? (g.pass ? "yes" : "no") : "closed");
            if (g.rate > 0) {
                rejected += static_cast<double>(g.rejected);
                highWater = std::max(highWater, double(g.highWater));
                if (g.pass && g.rate > bestOffered) {
                    bestOffered = g.rate;
                    best = g.achieved;
                }
            }
        }
        const Rung &light = rungs_.front();
        r.set("a_p50_ms", light.p50);
        r.set("b_p50_ms", light.p90);
        r.set("a_per_s", best);
        r.set("b_per_s", closed_.achieved);
        r.set("serve.rejected", rejected);
        r.set("serve.queue_high_water", highWater);
        say("serve_p50_ms = %.4f ms, serve_p90_ms = %.4f ms (light rung %.0f "
            "req/s, %lld requests, timed from due time)",
            light.p50, light.p90, light.rate,
            static_cast<long long>(light.submitted));
        say("serve_max_rps = %.4f req/s (highest passing rung: p90 <= %.0f "
            "ms, 0 rejected, 0 failed)",
            best, kP90LimitMs);
        say("serve_sat_rps = %.4f req/s (closed loop, %d outstanding, median "
            "over ten runs of completions; p50 %.4f ms)",
            closed_.achieved, kClosedOutstanding, closed_.p50);
    }

  private:
    /** Bursts of k same-model requests for k = 1..maxBatch, so every
     *  (model, batch) plan the window can need is compiled; repeated
     *  until a pass compiles nothing new (at most three passes). */
    void
    warmUp()
    {
        std::uint64_t salt = 0;
        for (int pass = 0; pass < 3; ++pass) {
            const auto misses0 = server_->compileStats(dev_.name).cacheMisses;
            for (int k = 1; k <= options_.maxBatch; ++k) {
                std::vector<std::future<serve::InferenceResponse>> fs;
                for (const std::string &m : tinyModels()) {
                    for (int i = 0; i < k; ++i) {
                        serve::InferenceRequest req;
                        req.model = m;
                        req.inputSalt = ++salt;
                        fs.push_back(server_->submit(std::move(req)));
                    }
                }
                for (auto &f : fs)
                    f.get();
            }
            if (server_->compileStats(dev_.name).cacheMisses == misses0)
                break;
        }
    }

    std::future<serve::InferenceResponse>
    submit(Sent &s)
    {
        serve::InferenceRequest req;
        req.model = tinyModels()[s.model];
        req.inputSalt = s.salt;
        s.submitMs = nowMs();
        return server_->submit(std::move(req));
    }

    static void
    collect(std::future<serve::InferenceResponse> &f,
            std::vector<Sent> &sent, std::size_t i, VerifySample &sample)
    {
        try {
            sent[i].resp = f.get();
        } catch (...) {
            sent[i].lost = true;
            return;
        }
        if (sent[i].resp.ok())
            sample.offer(sent, i);
    }

    Rung
    openRung(RunContext &ctx, RunResult &r, Rng &rng, const Zipf &zipf,
             double rate, double windowS, bool light, bool record)
    {
        Rung g;
        g.rate = rate;
        const auto n = static_cast<std::size_t>(
            std::max(1.0, std::round(rate * windowS)));
        std::vector<Sent> sent(n);
        double due = 0;
        for (Sent &s : sent) {
            due += rng.exponential(1e3 / rate);
            s.dueMs = due;
            s.model = zipf.draw(rng);
            s.salt = rng.next() % 1000003;
        }
        const auto stats0 = server_->stats().global;
        const int rungSpan = ctx.tracer.begin(
            "rung " + std::to_string(static_cast<int>(rate)) + " req/s",
            "bench");
        const double start = nowMs() + 1.0;
        std::vector<std::future<serve::InferenceResponse>> fut(n);
        VerifySample sample(rng.next());
        std::size_t done = 0;
        for (std::size_t i = 0; i < n; ++i) {
            sent[i].dueMs += start;
            sleepUntilMs(sent[i].dueMs);
            fut[i] = submit(sent[i]);
            g.highWater = std::max(g.highWater, server_->queueDepth());
            // Take finished responses as they come, so outputs the
            // sample does not keep are freed during the window.
            while (done <= i && fut[done].wait_for(std::chrono::seconds(0)) ==
                                    std::future_status::ready) {
                collect(fut[done], sent, done, sample);
                ++done;
            }
        }
        for (; done < n; ++done)
            collect(fut[done], sent, done, sample);
        tally(ctx, r, sent, g, start, record, true);
        ctx.tracer.end(rungSpan);
        const auto stats1 = server_->stats().global;
        const double batches = double(stats1.batches - stats0.batches);
        g.meanBatch =
            batches > 0 ? double(stats1.served - stats0.served) / batches : 0;
        if (record && light) {
            std::vector<double> q;
            for (const Sent &s : sent)
                if (s.resp.ok())
                    q.push_back(s.resp.queueMs);
            r.set("serve.queue_ms_p50", percentile(q, 50));
            r.set("serve.queue_ms_p90", percentile(q, 90));
            r.set("serve.mean_batch_light", g.meanBatch);
        }
        verify(ctx, r, sent, sample, record);
        return g;
    }

    void
    closedRung(RunContext &ctx, RunResult &r, Rng &rng, const Zipf &zipf,
               double windowS, bool record)
    {
        Rung g;
        std::vector<Sent> sent;
        std::deque<std::pair<std::size_t,
                             std::future<serve::InferenceResponse>>>
            inflight;
        const auto stats0 = server_->stats().global;
        VerifySample sample(rng.next());
        const int rungSpan = ctx.tracer.begin("closed loop", "bench");
        const double start = nowMs();
        const double stop = start + windowS * 1e3;
        auto launch = [&] {
            Sent s;
            s.model = zipf.draw(rng);
            s.salt = rng.next() % 1000003;
            sent.push_back(s);
            Sent &b = sent.back();
            auto f = submit(b);
            b.dueMs = b.submitMs;
            inflight.emplace_back(sent.size() - 1, std::move(f));
        };
        for (int i = 0; i < kClosedOutstanding; ++i)
            launch();
        while (!inflight.empty()) {
            auto [idx, f] = std::move(inflight.front());
            inflight.pop_front();
            collect(f, sent, idx, sample);
            if (nowMs() < stop)
                launch();
        }
        tally(ctx, r, sent, g, start, record, false);
        ctx.tracer.end(rungSpan);
        // Throughput here dips for a few seconds at a time on a shared
        // host, and one window-long average takes every dip in full.
        // Report the median rate over ten equal runs of completions
        // inside the window instead.
        std::vector<double> done;
        for (const Sent &s : sent)
            if (!s.lost && s.resp.ok() &&
                s.submitMs + s.resp.totalMs <= stop)
                done.push_back(s.submitMs + s.resp.totalMs);
        std::sort(done.begin(), done.end());
        const std::size_t chunk = std::max<std::size_t>(1, done.size() / 10);
        std::vector<double> rates;
        for (std::size_t k = 0; k + chunk < done.size(); k += chunk)
            rates.push_back(double(chunk) /
                            ((done[k + chunk] - done[k]) / 1e3));
        if (rates.size() >= 3)
            g.achieved = median(rates);
        const auto stats1 = server_->stats().global;
        const double batches = double(stats1.batches - stats0.batches);
        const double served = double(stats1.served - stats0.served);
        g.meanBatch = batches > 0 ? served / batches : 0;
        if (record) {
            std::vector<double> ex;
            for (const Sent &s : sent)
                if (s.resp.ok())
                    ex.push_back(s.resp.execMs);
            r.set("serve.exec_ms_p50", percentile(ex, 50));
            r.set("serve.mean_batch", g.meanBatch);
            r.set("serve.coalesced_ratio",
                  served > 0 ? double(stats1.coalesced - stats0.coalesced) /
                                   served
                             : 0.0);
        }
        verify(ctx, r, sent, sample, record);
        closed_ = g;
        rungs_.push_back(g);
    }

    /** Outcome counts, latencies and request spans of one rung. */
    void
    tally(RunContext &ctx, RunResult &r, const std::vector<Sent> &sent,
          Rung &g, double startMs, bool record, bool openLoop)
    {
        std::vector<double> lat;
        double lastDone = startMs;
        for (std::size_t i = 0; i < sent.size(); ++i) {
            const Sent &s = sent[i];
            ++g.submitted;
            if (openLoop)
                genLag_.push_back(std::max(0.0, s.submitMs - s.dueMs));
            if (!s.lost && s.resp.status == serve::ResponseStatus::Rejected) {
                ++g.rejected;
                lat.push_back(std::numeric_limits<double>::infinity());
                continue;
            }
            if (s.lost || !s.resp.ok()) {
                ++g.failed;
                lat.push_back(std::numeric_limits<double>::infinity());
                if (record)
                    r.fail(tinyModels()[s.model] + ": " +
                           (s.lost ? std::string("response lost")
                                   : serve::responseStatusName(
                                         s.resp.status) +
                                         std::string(" ") + s.resp.error));
                continue;
            }
            ++g.served;
            const double done = s.submitMs + s.resp.totalMs;
            lastDone = std::max(lastDone, done);
            lat.push_back(dueLatencyMs(s.dueMs, s.submitMs, s.resp.totalMs));
            const auto id = static_cast<std::int64_t>(i);
            const int req = ctx.tracer.add("request", "serve", s.dueMs, done,
                                           -1, id);
            const double q1 = s.submitMs + s.resp.queueMs;
            ctx.tracer.add("queue", "serve", s.submitMs, q1, req, id);
            ctx.tracer.add("execute", "exec", q1, q1 + s.resp.execMs, req,
                           id);
        }
        if (record)
            r.attempt(g.submitted);
        g.p50 = percentile(lat, 50);
        g.p90 = percentile(lat, 90);
        g.achieved = lastDone > startMs
                         ? double(g.served) / ((lastDone - startMs) / 1e3)
                         : 0.0;
        g.pass = g.rejected == 0 && g.failed == 0 && g.p90 <= kP90LimitMs;
    }

    /** Re-execute the rung's verification sample at batch 1. */
    void
    verify(RunContext &ctx, RunResult &r, const std::vector<Sent> &sent,
           const VerifySample &sample, bool record)
    {
        ScopedSpan span(ctx.tracer, "verify sample", "bench");
        for (std::size_t i : sample.picks()) {
            const Sent &s = sent[i];
            const bool good =
                verifier_->check(tinyModels()[s.model], s.salt, s.resp.outputs);
            if (record && !good)
                r.fail(tinyModels()[s.model] + " salt " +
                       std::to_string(s.salt) + " (batch " +
                       std::to_string(s.resp.batchSize) +
                       "): served output differs from batch-1 execution");
        }
    }

    device::DeviceProfile dev_ =
        device::DeviceRegistry::builtins().find("adreno740");
    serve::ServerOptions options_;
    std::unique_ptr<serve::InferenceServer> server_;
    std::unique_ptr<Verifier> verifier_;
    std::vector<Rung> rungs_;
    Rung closed_;
    std::vector<double> genLag_;
};

} // namespace

std::unique_ptr<Workload>
makeServeMix()
{
    return std::make_unique<ServeMix>();
}

} // namespace perfbench
