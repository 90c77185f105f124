/**
 * @file
 * dlisbench: the repository's end-to-end benchmark program.
 *
 *   dlisbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Drives the stack only through its public API: InferenceStack (build
 * and compress), analysis::verifyNetwork / estimateForwardMemory,
 * tune::tunePlan, Network::forward and serve::InferenceEngine. Layers
 * are timed from outside, around the calls into their public
 * functions. --trace 0 prints the end-to-end metrics; --trace 1 runs
 * the per-layer attribution (own layer walk, model-shaped kernel
 * replays, serving spans) and prints the per-layer metrics. The last
 * stdout line is the result object
 *   {"correct", "attempted", "failed", "metrics"};
 * the exit code is 1 when "correct" is false.
 * See README.md for the workloads, the metrics and what each one
 * should move.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "analysis/memory_estimate.hpp"
#include "analysis/verifier.hpp"
#include "backend/conv_kernels.hpp"
#include "backend/gemm.hpp"
#include "backend/im2col.hpp"
#include "backend/simd/isa.hpp"
#include "bench_math.hpp"
#include "core/memory_tracker.hpp"
#include "nn/pooling.hpp"
#include "nn/residual_block.hpp"
#include "obs/metrics.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "stack/inference_stack.hpp"
#include "tune/tuner.hpp"

namespace {

using namespace dlis;
using dlisbench::Tally;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Fixed benchmark settings. Changing any of these changes what the
// benchmark measures: re-measure the baseline after such a change.
// ---------------------------------------------------------------------

/** Weights come from this seed; --seed only draws the inputs. */
constexpr uint64_t kModelSeed = 1;
/** Input images per run; timed operations cycle through them. */
constexpr size_t kPoolSize = 8;
/** Set-ups per run; setup_s is their median. */
constexpr size_t kSetupReps = 5;
/** Output tolerance vs the serial direct-convolution reference,
 *  relative to max(1, max|reference logit|). */
constexpr double kOutputTol = 1e-4;
/** Fewest forwards behind a traced run's medians. */
constexpr size_t kMinTracedOps = 20;
/** Paper's ResNet-18 weight-pruning rate (Table III). */
constexpr double kResNetWpSparsity = 0.8892;

/** mobilenet-serve traces: the open-loop reference rate, about 65% of
 *  the capacity measured when the benchmark was defined. */
constexpr double kRefRateRps = 60.0;
/** mobilenet-serve: per-request latency limit of the capacity rule. */
constexpr double kLatencyLimitS = 0.100;
/** mobilenet-serve traces: the capacity ladder, 1.05^j steps from
 *  ~27 to ~1300 rps. Rung kRefRung is the reference rate, so the
 *  reference phase is its probe. */
constexpr size_t kRefRung = 16;
const dlisbench::Ladder kLadder{kRefRateRps / std::pow(1.05, kRefRung),
                                1.05, 80};
/** mobilenet-serve: share of the serving-trace time per ladder probe. */
constexpr double kProbeShare = 0.06;

/** One benchmark workload. */
struct Workload
{
    const char *name;
    const char *model;
    Technique technique;
    double wpSparsity;
    WeightFormat format;
    ConvAlgo algo; //!< offline workloads: the global conv algorithm
    bool serve;    //!< tuned plan behind one InferenceEngine worker
};

/** BENCHMARK.json lists all but vgg16-im2col, whose latency on a
 *  shared host swings between speed phases, most likely with how much
 *  of the shared L3 other tenants hold (README.md, Host noise); it
 *  stays runnable by hand. */
const Workload kWorkloads[] = {
    {"vgg16-im2col", "vgg16", Technique::None, 0.0, WeightFormat::Dense,
     ConvAlgo::Im2colGemm, false},
    {"resnet18-wp-csr", "resnet18", Technique::WeightPruning,
     kResNetWpSparsity, WeightFormat::Csr, ConvAlgo::Direct, false},
    {"mobilenet-serve", "mobilenet", Technique::None, 0.0,
     WeightFormat::Dense, ConvAlgo::Direct, true},
};

// ---------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return obs::percentile(v, 50.0);
}

double
toMb(double bytes)
{
    return bytes / (1024.0 * 1024.0);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        unsigned regs[12] = {};
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char *>(regs), sizeof(regs));
        s = s.c_str(); // stop at the terminator
        const size_t b = s.find_first_not_of(' ');
        const size_t e = s.find_last_not_of(' ');
        if (b != std::string::npos)
            return s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

/** A reported metric: its name and unit. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics (--trace 0), as BENCHMARK.json lists them. */
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},          {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},  {"capacity_rps", "1/s"},
    {"footprint_mb", "MB"},    {"peak_rss_mb", "MB"},
};

/** The per-layer metrics (--trace 1), as BENCHMARK.json lists them. A
 *  layer that does no work on a workload reports 0. */
const std::vector<MetricSpec> kPerLayer = {
    {"backend.gemm_gflops", "GFLOP/s"},
    {"backend.skinny_gemm_gflops", "GFLOP/s"},
    {"backend.im2col_gbps", "GB/s"},
    {"sparse.csr_conv_ms", "ms"},
    {"sparse.row_visits", "count"},
    {"nn.forward_ms", "ms"},
    {"nn.conv3x3_ms", "ms"},
    {"nn.conv1x1_ms", "ms"},
    {"nn.depthwise_ms", "ms"},
    {"nn.linear_ms", "ms"},
    {"nn.bn_ms", "ms"},
    {"nn.relu_ms", "ms"},
    {"nn.pool_ms", "ms"},
    {"nn.residual_ms", "ms"},
    {"nn.other_ms", "ms"},
    {"nn.skinny_ms", "ms"},
    {"nn.attributed_ratio", "ratio"},
    {"nn.opaque_share", "ratio"},
    {"core.activations_mb", "MB"},
    {"core.scratch_mb", "MB"},
    {"core.arena_growth_bytes", "bytes"},
    {"stack.build_s", "s"},
    {"analysis.verify_s", "s"},
    {"analysis.estimate_s", "s"},
    {"analysis.peak_exact", "flag"},
    {"tune.search_s", "s"},
    {"tune.candidates_measured", "count"},
    {"tune.tuned_over_control", "ratio"},
    {"hw.rank_corr", "ratio"},
    {"serve.latency_p90_ms", "ms"},
    {"serve.capacity_rps", "1/s"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.batch_mean", "count"},
    {"serve.forward_ms_per_image", "ms"},
    {"serve.reject_ratio", "ratio"},
    {"gen.lag_ms", "ms"},
    {"obs.trace_overhead", "ratio"},
};

/** Measured values by name, printed with their units and sample
 *  counts, then as the result object. */
class Report
{
  public:
    void
    set(const std::string &name, double value, size_t samples = 1)
    {
        values_[name] = {value, samples};
    }

    /**
     * Print @p specs by name with unit and sample count, then the
     * result object as the last line. Only per-layer metrics may be
     * missing (the layer did no work): they read 0.
     */
    void
    print(const std::vector<MetricSpec> &specs, bool allowMissing,
          bool correct, const Tally &tally) const
    {
        std::printf("metric %-28s %16.6f %-8s n=%llu\n", "failed_ratio",
                    tally.failedRatio(), "ratio",
                    static_cast<unsigned long long>(tally.attempted));
        std::string out = "{\"correct\": ";
        out += correct ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(tally.attempted);
        out += ", \"failed\": " + std::to_string(tally.failed());
        out += ", \"metrics\": {";
        for (size_t i = 0; i < specs.size(); ++i) {
            const auto it = values_.find(specs[i].name);
            DLIS_CHECK(allowMissing || it != values_.end(),
                       "metric ", specs[i].name, " was not measured");
            const double v = it == values_.end() ? 0.0 : it->second.first;
            const size_t n = it == values_.end() ? 0 : it->second.second;
            DLIS_CHECK(std::isfinite(v), "metric ", specs[i].name,
                       " is not finite");
            std::printf("metric %-28s %16.6f %-8s n=%zu\n", specs[i].name,
                        v, specs[i].unit, n);
            char num[64];
            std::snprintf(num, sizeof(num), "%.10g", v);
            out += std::string(i ? ", \"" : "\"") + specs[i].name +
                   "\": {\"value\": " + num + ", \"unit\": \"" +
                   specs[i].unit + "\"}";
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
    }

  private:
    std::map<std::string, std::pair<double, size_t>> values_;
};

// ---------------------------------------------------------------------
// Inputs and references.
// ---------------------------------------------------------------------

/** The seeded input pool plus its reference outputs. */
struct Inputs
{
    std::vector<Tensor> images; //!< [1, 3, 32, 32] each
    /** Serial direct-convolution outputs on the workload's weights. */
    std::vector<Tensor> reference;
    /** Serving: batch-1 outputs under the tuned plan (served outputs
     *  must equal these bit for bit). */
    std::vector<Tensor> planReference;
    bool referencesAgree = true; //!< plan refs within tol of direct refs

    size_t
    heldBytes() const
    {
        size_t b = 0;
        for (const auto *v : {&images, &reference, &planReference})
            for (const Tensor &t : *v)
                b += t.bytes();
        return b;
    }
};

std::vector<Tensor>
drawImages(const Shape &shape, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Tensor> out;
    for (size_t i = 0; i < kPoolSize; ++i) {
        out.emplace_back(shape, MemClass::Other);
        out.back().fillNormal(rng, 0.0f, 1.0f);
    }
    return out;
}

bool
matches(const Tensor &out, const Tensor &ref)
{
    return out.numel() == ref.numel() &&
           dlisbench::outputMatches(out.data(), ref.data(), ref.numel(),
                                    kOutputTol);
}

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

// ---------------------------------------------------------------------
// Set-up: build, compress, verify, estimate, (tune, engine), warm up.
// ---------------------------------------------------------------------

/** How long each set-up stage of one deployment took, in seconds. */
struct SetupTimes
{
    double build = 0, verify = 0, estimate = 0, tune = 0, total = 0;
};

/** One deployed instance of a workload. */
struct Deployment
{
    const Workload *w = nullptr;
    std::unique_ptr<InferenceStack> stack;
    tune::DeploymentPlan plan; //!< serve workloads only
    std::unique_ptr<tune::PlanRuntime> runtime;
    std::unique_ptr<serve::InferenceEngine> engine;
    ExecContext ctx; //!< offline forwards (plan-bound when serving)

    SetupTimes times;
    size_t candidatesMeasured = 0;
    double rankCorr = 0, tunedOverControl = 0;

    Network &net() { return stack->model().net; }

    /** (Re)start the engine on the plan, warmed by one request. */
    void
    startEngine(obs::Tracer *tracer, const Tensor &warm)
    {
        engine.reset();
        serve::ServeConfig cfg;
        cfg.workers = 1;
        cfg.plan = &plan;
        engine = std::make_unique<serve::InferenceEngine>(
            *stack, cfg, nullptr, tracer);
        engine->submit(warm).get();
    }
};

std::unique_ptr<Deployment>
deploy(const Workload &w, const Tensor &warm)
{
    auto d = std::make_unique<Deployment>();
    d->w = &w;
    const auto t0 = Clock::now();

    StackConfig cfg;
    cfg.modelName = w.model;
    cfg.widthMult = 1.0;
    cfg.technique = w.technique;
    cfg.wpSparsity = w.wpSparsity;
    cfg.format = w.format;
    cfg.seed = kModelSeed;
    auto t = Clock::now();
    d->stack = std::make_unique<InferenceStack>(cfg);
    d->times.build = since(t);

    const Shape input = d->stack->inputShape(1);
    analysis::VerifyOptions vopts;
    vopts.input = input;
    vopts.convAlgo = w.algo;
    vopts.estimateMemory = false;
    t = Clock::now();
    const analysis::VerifyReport rep =
        analysis::verifyNetwork(d->net(), vopts);
    d->times.verify = since(t);
    DLIS_CHECK(rep.ok(), "workload ", w.name,
               " fails verification: ", rep.firstError());

    t = Clock::now();
    const analysis::MemoryEstimate est =
        analysis::estimateForwardMemory(d->net(), input, Backend::Serial,
                                        w.algo, 1);
    d->times.estimate = since(t);
    DLIS_CHECK(est.total() > 0, "empty memory estimate");

    d->ctx.convAlgo = w.algo;
    if (w.serve) {
        tune::TuneOptions opts;
        // Serial candidates only: on a shared host, multi-threaded
        // OpenMP forwards stall whenever one CPU is contended, which
        // made the serving figures unrepeatable.
        opts.threadCandidates.clear();
        std::vector<tune::LayerSearch> audit;
        t = Clock::now();
        d->plan = tune::tunePlan(*d->stack, opts, &audit);
        d->times.tune = since(t);

        double corrSum = 0.0;
        size_t corrLayers = 0;
        for (const tune::LayerSearch &ls : audit) {
            std::vector<double> pred, meas;
            for (const tune::CandidatePoint &c : ls.candidates)
                if (c.measured) {
                    pred.push_back(c.predictedSeconds);
                    meas.push_back(c.measuredSeconds);
                }
            d->candidatesMeasured += pred.size();
            if (pred.size() >= 3) {
                corrSum += dlisbench::spearman(pred, meas);
                ++corrLayers;
            }
        }
        d->rankCorr = corrLayers ? corrSum / corrLayers : 0.0;
        d->tunedOverControl = d->plan.bestGlobalP50 > 0
                                  ? d->plan.tunedP50 / d->plan.bestGlobalP50
                                  : 0.0;
        d->runtime = std::make_unique<tune::PlanRuntime>(d->plan);
        d->runtime->bind(d->ctx);
        d->startEngine(nullptr, warm);
    } else {
        d->net().forward(warm, d->ctx);
    }
    d->times.total = since(t0);
    return d;
}

/** Serial direct-convolution reference outputs (and, when serving,
 *  the batch-1 outputs under the plan). Not part of set-up time. Both
 *  run on contexts of their own, so their arenas are freed before the
 *  timed phase and stay out of footprint_mb. */
void
computeReferences(Deployment &d, Inputs &in)
{
    ExecContext ref; // Serial, Direct
    ExecContext planned;
    std::optional<tune::PlanRuntime> runtime;
    if (d.w->serve)
        runtime.emplace(d.plan).bind(planned);
    for (const Tensor &x : in.images) {
        in.reference.push_back(Tensor(d.net().forward(x, ref)));
        if (d.w->serve) {
            in.planReference.push_back(d.net().forward(x, planned));
            in.referencesAgree = in.referencesAgree &&
                                 matches(in.planReference.back(),
                                         in.reference.back());
        }
    }
    // Hold the references outside the model's Activations ledger.
    for (auto *v : {&in.reference, &in.planReference})
        for (Tensor &r : *v) {
            Tensor held(r.shape(), MemClass::Other);
            std::memcpy(held.data(), r.data(), r.bytes());
            r = std::move(held);
        }
}

// ---------------------------------------------------------------------
// End-to-end: closed loop, one client, batch 1.
// ---------------------------------------------------------------------

struct ClosedLoop
{
    std::vector<double> latency; //!< seconds per operation
    double wallS = 0.0;
    Tally tally;
    double footprintBytes = 0.0;
};

/**
 * Run @p op (pool index -> output) back to back for @p seconds and at
 * least @p minOps times, checking each output with @p ok.
 */
template <typename Op, typename Ok>
ClosedLoop
runClosedLoop(const Inputs &in, double seconds, size_t minOps, Op &&op,
              Ok &&ok)
{
    ClosedLoop r;
    auto &tracker = MemoryTracker::instance();
    tracker.resetPeaks();
    const auto start = Clock::now();
    for (size_t i = 0; since(start) < seconds || i < minOps; ++i) {
        const size_t k = i % in.images.size();
        ++r.tally.attempted;
        const auto t0 = Clock::now();
        try {
            const Tensor out = op(k);
            r.latency.push_back(since(t0));
            if (!ok(out, k))
                ++r.tally.mismatches;
        } catch (const serve::RejectedError &) {
            ++r.tally.rejects;
        } catch (const std::exception &e) {
            ++r.tally.exceptions;
            std::fprintf(stderr, "operation failed: %s\n", e.what());
        }
    }
    r.wallS = since(start);
    r.footprintBytes = static_cast<double>(tracker.peakBytes()) -
                       static_cast<double>(in.heldBytes());
    return r;
}

/** The workload's end-to-end loop: Network::forward offline, one
 *  request at a time through the engine when serving. */
ClosedLoop
runWorkloadLoop(Deployment &d, const Inputs &in, double seconds,
                size_t minOps, double &arenaGrowthPerOp)
{
    if (!d.w->serve) {
        const size_t arena0 = d.ctx.arena->capacityBytes();
        ClosedLoop r = runClosedLoop(
            in, seconds, minOps,
            [&](size_t k) { return d.net().forward(in.images[k], d.ctx); },
            [&](const Tensor &out, size_t k) {
                return matches(out, in.reference[k]);
            });
        arenaGrowthPerOp =
            static_cast<double>(d.ctx.arena->capacityBytes() - arena0) /
            static_cast<double>(std::max<uint64_t>(r.tally.attempted, 1));
        return r;
    }
    obs::Gauge &arena = d.engine->telemetry().gauge(
        "dlis_serve_arena_bytes", "", {{"worker", "0"}});
    const double arena0 = arena.value();
    ClosedLoop r = runClosedLoop(
        in, seconds, minOps,
        [&](size_t k) { return d.engine->submit(in.images[k]).get(); },
        [&](const Tensor &out, size_t k) {
            return in.referencesAgree &&
                   bitIdentical(out, in.planReference[k]);
        });
    arenaGrowthPerOp =
        (arena.value() - arena0) /
        static_cast<double>(std::max<uint64_t>(r.tally.attempted, 1));
    return r;
}

// ---------------------------------------------------------------------
// Serving: open-loop Poisson arrivals from one generator thread.
// ---------------------------------------------------------------------

struct OpenLoop
{
    std::vector<dlisbench::OpenLoopRecord> records;
    Tally tally;
    double lastScheduled = 0.0;
    double lastCompleted = 0.0;

    /** The capacity rule: >= 99% within the limit, queue drained. */
    bool
    meetsLimit() const
    {
        return dlisbench::meetsLimit(
            dlisbench::openLoopLatencies(records), records.size(),
            kLatencyLimitS, lastCompleted <= lastScheduled + kLatencyLimitS);
    }
};

OpenLoop
runOpenLoop(serve::InferenceEngine &engine, const Inputs &in, double rate,
            double seconds, uint64_t seed)
{
    OpenLoop r;
    const std::vector<double> sched =
        dlisbench::poissonSchedule(rate, seconds, seed);
    r.records.resize(sched.size());
    if (sched.empty())
        return r;
    r.lastScheduled = sched.back();

    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<size_t, std::future<Tensor>>> inflight;
    bool done = false;

    const auto t0 = Clock::now();
    auto at = [&](double s) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s));
    };
    std::jthread generator([&] {
        for (size_t i = 0; i < sched.size(); ++i) {
            std::this_thread::sleep_until(at(sched[i]));
            r.records[i].scheduled = sched[i];
            r.records[i].sent = since(t0);
            std::future<Tensor> f;
            try {
                f = engine.submit(in.images[i % in.images.size()]);
            } catch (...) {
                // Surface the failure through the collector's tally.
                std::promise<Tensor> failed;
                failed.set_exception(std::current_exception());
                f = failed.get_future();
            }
            std::lock_guard<std::mutex> lock(mu);
            inflight.emplace_back(i, std::move(f));
            cv.notify_one();
        }
        std::lock_guard<std::mutex> lock(mu);
        done = true;
        cv.notify_one();
    });

    for (;;) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !inflight.empty(); });
        if (inflight.empty())
            break;
        auto [i, f] = std::move(inflight.front());
        inflight.pop_front();
        lock.unlock();

        const size_t k = i % in.images.size();
        ++r.tally.attempted;
        f.wait();
        dlisbench::OpenLoopRecord &rec = r.records[i];
        rec.completed = since(t0);
        r.lastCompleted = std::max(r.lastCompleted, rec.completed);
        try {
            const Tensor out = f.get();
            rec.ok = true;
            if (!in.referencesAgree ||
                !bitIdentical(out, in.planReference[k]))
                ++r.tally.mismatches;
        } catch (const serve::RejectedError &) {
            ++r.tally.rejects;
        } catch (const std::exception &e) {
            ++r.tally.exceptions;
            std::fprintf(stderr, "request failed: %s\n", e.what());
        }
    }
    return r;
}

struct ServePhase
{
    std::vector<double> latency; //!< seconds, from the scheduled send
    std::vector<double> lag;     //!< seconds the generator ran late
    Tally tally;
    double footprintBytes = 0.0;
    double batchMean = 0.0;
    double rejectRatio = 0.0;
    bool meetsLimit = false; //!< the reference rate met the limit
};

/** The reference-rate phase of mobilenet-serve. */
ServePhase
runReferenceRate(Deployment &d, const Inputs &in, double seconds,
                 uint64_t seed)
{
    auto &tracker = MemoryTracker::instance();
    tracker.resetPeaks();
    const serve::EngineStats before = d.engine->stats();
    OpenLoop ol = runOpenLoop(*d.engine, in, kRefRateRps, seconds, seed);
    const serve::EngineStats after = d.engine->stats();

    ServePhase p;
    p.footprintBytes = static_cast<double>(tracker.peakBytes()) -
                       static_cast<double>(in.heldBytes());
    p.latency = dlisbench::openLoopLatencies(ol.records);
    p.lag = dlisbench::generatorLag(ol.records);
    p.tally = ol.tally;
    p.meetsLimit = ol.meetsLimit();
    double images = 0.0, batches = 0.0;
    for (size_t k = 1; k < after.batchHistogram.size(); ++k) {
        const double n = static_cast<double>(after.batchHistogram[k] -
                                             before.batchHistogram[k]);
        images += n * static_cast<double>(k);
        batches += n;
    }
    p.batchMean = batches > 0 ? images / batches : 0.0;
    p.rejectRatio = ol.tally.attempted
                        ? static_cast<double>(ol.tally.rejects) /
                              static_cast<double>(ol.tally.attempted)
                        : 0.0;
    return p;
}

/** Highest ladder rate meeting the latency limit; passing probes are
 *  added to @p tally, probes above capacity are not. The reference
 *  phase already decided rung kRefRung: the search runs above it when
 *  it met the limit and below it otherwise. */
double
searchCapacity(Deployment &d, const Inputs &in, double probeSeconds,
               uint64_t seed, bool referenceMet, Tally &tally)
{
    uint64_t probeSeed = seed * 1000003ULL + 17;
    const dlisbench::CapacityResult res = dlisbench::searchCapacity(
        kLadder,
        [&](double rate) {
            OpenLoop ol =
                runOpenLoop(*d.engine, in, rate, probeSeconds, ++probeSeed);
            const bool ok = ol.meetsLimit();
            std::printf("probe rate=%.1f rps sent=%zu %s\n", rate,
                        ol.records.size(), ok ? "meets" : "misses");
            if (ok)
                tally += ol.tally;
            else if (ol.tally.mismatches || ol.tally.exceptions) {
                // Wrong outputs are failures at any rate.
                Tally wrong;
                wrong.attempted = ol.tally.mismatches + ol.tally.exceptions;
                wrong.mismatches = ol.tally.mismatches;
                wrong.exceptions = ol.tally.exceptions;
                tally += wrong;
            }
            return ok;
        },
        referenceMet ? kRefRung + 1 : 0,
        referenceMet ? kLadder.rungs : kRefRung);
    return res.found ? res.rate : 0.0;
}

// ---------------------------------------------------------------------
// Traced run: own layer walk, kernel replays, memory cross-check.
// ---------------------------------------------------------------------

const char *
layerKind(const Layer &l)
{
    if (const auto *c = dynamic_cast<const Conv2d *>(&l))
        return c->kernel() == 1   ? "nn.conv1x1_ms"
               : c->kernel() == 3 ? "nn.conv3x3_ms"
                                  : "nn.other_ms";
    if (dynamic_cast<const DepthwiseConv2d *>(&l))
        return "nn.depthwise_ms";
    if (dynamic_cast<const Linear *>(&l))
        return "nn.linear_ms";
    if (dynamic_cast<const BatchNorm2d *>(&l))
        return "nn.bn_ms";
    if (dynamic_cast<const ReLU *>(&l))
        return "nn.relu_ms";
    if (dynamic_cast<const MaxPool2d *>(&l) ||
        dynamic_cast<const GlobalAvgPool *>(&l))
        return "nn.pool_ms";
    if (dynamic_cast<const ResidualBlock *>(&l))
        return "nn.residual_ms";
    return "nn.other_ms";
}

struct LayerWalk
{
    std::vector<std::vector<double>> layerS; //!< per layer, per forward
    std::vector<double> forwardS;
    Tally tally;
    double rowVisitsPerForward = 0.0;
};

/** Forward layer by layer, timing each Layer::forward call from
 *  outside and applying the plan's per-layer override like
 *  Network::forward does. */
LayerWalk
walkLayers(Deployment &d, const Inputs &in, double seconds, size_t minOps)
{
    Network &net = d.net();
    LayerWalk w;
    w.layerS.resize(net.size());
    obs::Metrics counters;
    ExecContext ctx = d.ctx;
    ctx.metrics = &counters;
    const auto *overrides = ctx.layerOverrides;

    const auto start = Clock::now();
    size_t i = 0;
    for (; since(start) < seconds || i < minOps; ++i) {
        const size_t k = i % in.images.size();
        ++w.tally.attempted;
        try {
            Tensor x = in.images[k];
            const auto f0 = Clock::now();
            for (size_t l = 0; l < net.size(); ++l) {
                Layer &layer = *net.layers()[l];
                ExecContext *lctx = &ctx;
                std::optional<ExecContext> copy;
                if (overrides) {
                    const auto it = overrides->find(layer.name());
                    if (it != overrides->end()) {
                        copy.emplace(ctx);
                        copy->backend = it->second.backend;
                        copy->convAlgo = it->second.convAlgo;
                        copy->threads = it->second.threads;
                        lctx = &*copy;
                    }
                }
                const auto t0 = Clock::now();
                x = layer.forward(x, *lctx);
                w.layerS[l].push_back(since(t0));
            }
            w.forwardS.push_back(since(f0));
            const Tensor &ref = d.w->serve ? in.planReference[k]
                                           : in.reference[k];
            if (d.w->serve ? !bitIdentical(x, ref) : !matches(x, ref))
                ++w.tally.mismatches;
        } catch (const std::exception &e) {
            ++w.tally.exceptions;
            std::fprintf(stderr, "traced forward failed: %s\n", e.what());
        }
    }
    uint64_t visits = 0;
    for (const auto &[name, v] : counters.snapshot())
        if (name.size() > 15 &&
            name.compare(name.size() - 15, 15, ".csr_row_visits") == 0)
            visits += v;
    w.rowVisitsPerForward = static_cast<double>(visits) /
                            static_cast<double>(std::max<size_t>(i, 1));
    return w;
}

/** One conv or linear layer's kernel geometry. */
struct ReplayShape
{
    std::string layer;
    ConvParams p;                  //!< conv geometry (linear: 1x1 on 1x1)
    bool conv = true;              //!< false: linear (GEMM only)
    const Conv2d *csr = nullptr;   //!< CSR conv to replay, if any
};

std::vector<ReplayShape>
replayShapes(Deployment &d)
{
    std::vector<ReplayShape> out;
    auto addConv = [&](const Conv2d &c, const Shape &s) {
        ReplayShape r;
        r.layer = c.name();
        r.p = ConvParams{1, c.cin(), s[2], s[3], c.cout(), c.kernel(),
                         c.kernel(), c.stride(), c.pad()};
        if (c.format() == WeightFormat::Csr)
            r.csr = &c;
        out.push_back(r);
    };
    Shape s = d.stack->inputShape(1);
    for (const auto &lp : d.net().layers()) {
        if (const auto *c = dynamic_cast<const Conv2d *>(lp.get())) {
            addConv(*c, s);
        } else if (const auto *b =
                       dynamic_cast<const ResidualBlock *>(lp.get())) {
            addConv(b->conv1(), s);
            addConv(b->conv2(), b->conv1().outputShape(s));
            if (b->projection())
                addConv(*b->projection(), s);
        } else if (const auto *fc = dynamic_cast<const Linear *>(lp.get())) {
            ReplayShape r;
            r.layer = fc->name();
            r.conv = false;
            r.p = ConvParams{1, fc->inFeatures(), 1, 1, fc->outFeatures(),
                             1, 1, 1, 0};
            out.push_back(r);
        }
        s = lp->outputShape(s);
    }
    return out;
}

/** Median seconds per call of @p fn over >= 3 calls and ~@p budget. */
template <typename Fn>
double
timeCalls(Fn &&fn, double budget)
{
    fn(); // warm caches and the arena
    std::vector<double> t;
    const auto start = Clock::now();
    while (t.size() < 3 || (since(start) < budget && t.size() < 1000)) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(since(t0));
    }
    return median(std::move(t));
}

struct Replay
{
    double gemmFlops = 0, gemmS = 0;
    double skinnyFlops = 0, skinnyS = 0;
    double im2colBytes = 0, im2colS = 0;
    double csrS = 0;
};

Replay
replayKernels(Deployment &d, double seconds, uint64_t seed)
{
    const std::vector<ReplayShape> shapes = replayShapes(d);
    // Three timed kernels per shape share the replay time.
    const double budget =
        seconds /
        static_cast<double>(std::max<size_t>(shapes.size(), 1) * 3);
    Rng rng(seed ^ 0x7e91a3ULL);
    ScratchArena arena;
    KernelPolicy pol;
    pol.arena = &arena;
    Replay r;
    for (const ReplayShape &s : shapes) {
        const size_t m = s.p.cout;
        const size_t k = s.p.cin * s.p.kh * s.p.kw;
        const size_t n = s.p.hout() * s.p.wout();
        Tensor input(Shape({s.p.cin, s.p.hin, s.p.win}), MemClass::Other);
        input.fillNormal(rng, 0.0f, 1.0f);
        Tensor a(Shape({m, k}), MemClass::Other);
        a.fillNormal(rng, 0.0f, 0.1f);
        Tensor cols(Shape({k, n}), MemClass::Other);
        Tensor c(Shape({m, n}), MemClass::Other);
        double im2colS = 0.0;
        if (s.conv) {
            im2colS = timeCalls(
                [&] { kernels::im2col(s.p, input.data(), cols.data()); },
                budget);
            r.im2colS += im2colS;
            r.im2colBytes +=
                static_cast<double>((k * n + input.numel()) * sizeof(float));
        } else {
            std::memcpy(cols.data(), input.data(), input.bytes());
        }
        const double gemmS = timeCalls(
            [&] {
                kernels::gemmBlocked(a.data(), cols.data(), c.data(), m, k,
                                     n, pol);
            },
            budget);
        const double flops = 2.0 * static_cast<double>(m * k * n);
        r.gemmFlops += flops;
        r.gemmS += gemmS;
        if (n <= 16) {
            r.skinnyFlops += flops;
            r.skinnyS += gemmS;
        }
        double csrS = 0.0;
        if (s.csr) {
            const Conv2d &conv = *s.csr;
            csrS = timeCalls(
                [&] {
                    kernels::convDirectCsrBank(
                        s.p, input.data(), conv.csrWeight(),
                        conv.hasBias() ? conv.bias().data() : nullptr,
                        c.data(), pol);
                },
                budget);
            r.csrS += csrS;
        }
        const char *cls = n == 1 ? "gemv" : n <= 16 ? "skinny" : "wide";
        std::printf("replay %-18s m=%-5zu k=%-5zu n=%-5zu class=%-6s "
                    "gemm=%.3f GFLOP/s im2col=%.3f ms csr=%.3f ms\n",
                    s.layer.c_str(), m, k, n, cls, flops / gemmS * 1e-9,
                    im2colS * 1e3, csrS * 1e3);
    }
    return r;
}

/** Observed activation/scratch peaks of one forward from a fresh
 *  context vs the static estimate for the same configuration. */
struct MemoryCheck
{
    size_t activations = 0, scratch = 0;
    bool exact = false;
};

MemoryCheck
checkMemory(Deployment &d, const Tensor &image)
{
    Network &net = d.net();
    const Shape shape = d.stack->inputShape(1);
    ExecContext ctx;
    ctx.convAlgo = d.w->algo;
    std::unique_ptr<tune::PlanRuntime> rt;
    if (d.w->serve) {
        rt = std::make_unique<tune::PlanRuntime>(d.plan);
        rt->bind(ctx);
    }
    auto &tracker = MemoryTracker::instance();
    const size_t preA = tracker.currentBytes(MemClass::Activations);
    const size_t preS = tracker.currentBytes(MemClass::Scratch);
    tracker.resetPeaks();
    {
        Tensor x(shape);
        std::memcpy(x.data(), image.data(), image.bytes());
        net.forward(x, ctx);
    }
    MemoryCheck m;
    m.activations = tracker.peakBytes(MemClass::Activations) - preA;
    m.scratch = tracker.peakBytes(MemClass::Scratch) - preS;
    const analysis::MemoryEstimate est =
        ctx.layerOverrides
            ? analysis::memoryEstimateForPlan(net, shape,
                                              *ctx.layerOverrides,
                                              ctx.backend, ctx.convAlgo,
                                              ctx.threads)
            : analysis::estimateForwardMemory(net, shape, ctx.backend,
                                              ctx.convAlgo, ctx.threads);
    m.exact = est.activationsPeak == m.activations &&
              est.scratchPeak == m.scratch;
    return m;
}

// ---------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        DLIS_CHECK(i + 1 < argc, "missing value after ", k);
        const std::string v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
            haveWorkload = true;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
        } else if (k == "--trace") {
            DLIS_CHECK(v == "0" || v == "1", "--trace takes 0 or 1");
            a.trace = v == "1";
        } else {
            DLIS_CHECK(false, "unknown argument ", k);
        }
    }
    DLIS_CHECK(haveWorkload, "--workload is required");
    DLIS_CHECK(a.seconds > 0.0 && a.seconds <= 600.0,
               "--seconds must be in (0, 600]");
    return a;
}

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return w;
    DLIS_CHECK(false, "unknown workload '", name, "'");
    return kWorkloads[0];
}

void
reportSetup(Report &rep, const std::vector<SetupTimes> &all,
            const Deployment &d)
{
    std::vector<double> total, build, verify, estimate, tuneS;
    for (const SetupTimes &t : all) {
        total.push_back(t.total);
        build.push_back(t.build);
        verify.push_back(t.verify);
        estimate.push_back(t.estimate);
        tuneS.push_back(t.tune);
    }
    const size_t n = all.size();
    rep.set("setup_s", median(total), n);
    rep.set("stack.build_s", median(build), n);
    rep.set("analysis.verify_s", median(verify), n);
    rep.set("analysis.estimate_s", median(estimate), n);
    if (d.w->serve) {
        rep.set("tune.search_s", median(tuneS), n);
        rep.set("tune.candidates_measured",
                static_cast<double>(d.candidatesMeasured));
        rep.set("tune.tuned_over_control", d.tunedOverControl);
        rep.set("hw.rank_corr", d.rankCorr);
    }
}

/**
 * The serving layer under open-loop Poisson load (traced runs of the
 * serving workload): the reference rate without and with a Tracer
 * handed to the engine, and the capacity ladder.
 */
void
traceServing(Deployment &d, const Inputs &in, double seconds,
             uint64_t seed, Report &rep, Tally &tally)
{
    const ServePhase ref = runReferenceRate(d, in, 0.25 * seconds, seed);
    tally += ref.tally;
    const obs::LatencyStats lat = obs::LatencyStats::from(ref.latency);
    const obs::LatencyStats lag = obs::LatencyStats::from(ref.lag);
    rep.set("serve.latency_p90_ms", lat.p90 * 1e3, lat.count);
    rep.set("serve.batch_mean", ref.batchMean, lat.count);
    rep.set("serve.reject_ratio", ref.rejectRatio, ref.tally.attempted);
    rep.set("gen.lag_ms", lag.p90 * 1e3, lag.count);
    rep.set("serve.capacity_rps",
            searchCapacity(d, in, kProbeShare * seconds, seed,
                           ref.meetsLimit, tally));

    obs::Tracer tracer;
    d.startEngine(&tracer, in.images[0]);
    tracer.clear();
    const ServePhase traced =
        runReferenceRate(d, in, 0.25 * seconds, seed + 1);
    tally += traced.tally;
    d.engine.reset();
    std::vector<double> wait;
    double fwdS = 0.0, fwdImages = 0.0;
    for (const obs::TraceEvent &e : tracer.events()) {
        if (e.name == "queue_wait")
            wait.push_back(static_cast<double>(e.durationNs) * 1e-9);
        const size_t b = e.name.rfind(".batch");
        if (e.category == "serve" && b != std::string::npos) {
            fwdS += static_cast<double>(e.durationNs) * 1e-9;
            fwdImages += std::stod(e.name.substr(b + 6));
        }
    }
    rep.set("serve.queue_wait_ms", median(wait) * 1e3, wait.size());
    rep.set("serve.forward_ms_per_image",
            fwdImages > 0 ? fwdS / fwdImages * 1e3 : 0.0);
    rep.set("obs.trace_overhead",
            obs::LatencyStats::from(traced.latency).p50 / lat.p50,
            traced.latency.size());
}

/** Per-layer attribution of the traced run (offline walk, replays,
 *  memory cross-check); @p untracedP50 is the e2e p50 of the same
 *  forward path measured without tracing, in seconds. */
void
traceLayers(Deployment &d, const Inputs &in, double seconds,
            uint64_t seed, double untracedP50, Report &rep, Tally &tally)
{
    Network &net = d.net();
    const LayerWalk walk = walkLayers(d, in, seconds * 0.6, kMinTracedOps);
    tally += walk.tally;
    const double forwardP50 = median(walk.forwardS);
    const std::vector<LayerCost> costs =
        net.costs(d.stack->inputShape(1));
    std::map<std::string, double> byKind;
    double attributed = 0.0, skinny = 0.0;
    for (size_t l = 0; l < net.size(); ++l) {
        const double p50 = median(walk.layerS[l]);
        attributed += p50;
        byKind[layerKind(*net.layers()[l])] += p50;
        if (costs[l].gemmN > 0 && costs[l].gemmN <= 16)
            skinny += p50;
    }
    const size_t n = walk.forwardS.size();
    rep.set("nn.forward_ms", forwardP50 * 1e3, n);
    for (const auto &[kind, s] : byKind)
        rep.set(kind, s * 1e3, n);
    rep.set("nn.skinny_ms", skinny * 1e3, n);
    rep.set("nn.attributed_ratio", attributed / forwardP50, n);
    rep.set("nn.opaque_share", byKind["nn.residual_ms"] / forwardP50, n);
    rep.set("sparse.row_visits", walk.rowVisitsPerForward, n);
    if (!d.w->serve)
        rep.set("obs.trace_overhead", forwardP50 / untracedP50, n);

    const Replay r = replayKernels(d, seconds * 0.4, seed);
    rep.set("backend.gemm_gflops", r.gemmFlops / r.gemmS * 1e-9);
    rep.set("backend.skinny_gemm_gflops",
            r.skinnyS > 0 ? r.skinnyFlops / r.skinnyS * 1e-9 : 0.0);
    rep.set("backend.im2col_gbps",
            r.im2colS > 0 ? r.im2colBytes / r.im2colS * 1e-9 : 0.0);
    rep.set("sparse.csr_conv_ms", r.csrS * 1e3);

    const MemoryCheck m = checkMemory(d, in.images[0]);
    rep.set("core.activations_mb", toMb(static_cast<double>(m.activations)));
    rep.set("core.scratch_mb", toMb(static_cast<double>(m.scratch)));
    rep.set("analysis.peak_exact", m.exact ? 1.0 : 0.0);
}

int
run(const Args &args)
{
    const Workload &w = findWorkload(args.workload);
    std::printf("workload %s seed %llu seconds %g trace %d\n", w.name,
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("host {\"fingerprint\": \"%s\", \"nproc\": %u, "
                "\"cpu\": \"%s\", \"isa\": \"%s\"}\n",
                obs::jsonEscape(tune::hostFingerprint()).c_str(),
                std::thread::hardware_concurrency(),
                obs::jsonEscape(cpuModel()).c_str(),
                simd::isaName(simd::activeIsa()));
    std::fflush(stdout);

    Inputs in;
    in.images = drawImages(Shape({1, 3, 32, 32}), args.seed);

    // Set up kSetupReps times, each from scratch after the previous
    // deployment is destroyed whole; only the last one is kept.
    std::vector<SetupTimes> setups;
    std::unique_ptr<Deployment> last;
    for (size_t i = 0; i < kSetupReps; ++i) {
        last.reset();
        last = deploy(w, in.images[0]);
        setups.push_back(last->times);
    }
    Deployment &d = *last;
    if (w.serve)
        std::printf("plan tuned_p50_ms=%.3f best_global=%s "
                    "best_global_p50_ms=%.3f\n",
                    d.plan.tunedP50 * 1e3, d.plan.bestGlobalConfig.c_str(),
                    d.plan.bestGlobalP50 * 1e3);
    Report rep;
    reportSetup(rep, setups, d);
    computeReferences(d, in);

    // Untraced runs spend all of --seconds in the closed loop; traced
    // runs 30% there and the rest on attribution.
    Tally tally;
    const double s = args.seconds;
    double arenaGrowth = 0.0;
    const ClosedLoop loop = runWorkloadLoop(
        d, in, args.trace ? 0.3 * s : s,
        args.trace ? kMinTracedOps : dlisbench::minSamplesForTail(0.9),
        arenaGrowth);
    tally += loop.tally;
    const obs::LatencyStats lat = obs::LatencyStats::from(loop.latency);
    rep.set("latency_p50_ms", lat.p50 * 1e3, lat.count);
    rep.set("latency_p90_ms", lat.p90 * 1e3, lat.count);
    rep.set("capacity_rps", static_cast<double>(lat.count) / loop.wallS,
            lat.count);
    rep.set("footprint_mb", toMb(loop.footprintBytes));
    rep.set("core.arena_growth_bytes", arenaGrowth, loop.tally.attempted);
    if (args.trace) {
        if (w.serve)
            traceServing(d, in, 0.4 * s, args.seed, rep, tally);
        traceLayers(d, in, (w.serve ? 0.3 : 0.7) * s, args.seed, lat.p50,
                    rep, tally);
    }
    rep.set("peak_rss_mb", peakRssMb());

    const bool correct = tally.mismatches == 0 && tally.exceptions == 0 &&
                         in.referencesAgree;
    if (args.trace)
        rep.print(kPerLayer, true, correct, tally);
    else
        rep.print(kEndToEnd, false, correct, tally);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dlisbench: %s\n", e.what());
        return 1;
    }
}
