#include "tune/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <optional>

#include "analysis/error_bounds.hpp"
#include "analysis/memory_estimate.hpp"
#include "tune/mem_planner.hpp"
#include "core/error.hpp"
#include "hw/cost_model.hpp"
#include "nn/conv2d.hpp"
#include "nn/depthwise_conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/residual_block.hpp"
#include "stack/inference_stack.hpp"

namespace dlis::tune {

namespace {

/** One layer the tuner searches, with its geometry and cost facts. */
struct TunableLayer
{
    Layer *layer = nullptr;
    Shape input;
    std::vector<LayerCost> costs; //!< facts at `input` (block: stages)
};

/** Walk @p net, collecting the layers the tuner searches. */
std::vector<TunableLayer>
collectTunable(Network &net, const Shape &input)
{
    std::vector<TunableLayer> out;
    Shape cur = input;
    for (const auto &ptr : net.layers()) {
        Layer *layer = ptr.get();
        if (auto *block = dynamic_cast<ResidualBlock *>(layer))
            out.push_back({layer, cur, block->stageCosts(cur)});
        else if (dynamic_cast<Conv2d *>(layer) ||
                 dynamic_cast<DepthwiseConv2d *>(layer) ||
                 dynamic_cast<Linear *>(layer))
            out.push_back({layer, cur, {layer->cost(cur)}});
        cur = layer->outputShape(cur);
    }
    return out;
}

bool
samePoint(const CandidatePoint &cp, const LayerExecOverride &point)
{
    return cp.backend == point.backend && cp.algo == point.convAlgo &&
           cp.threads == point.threads;
}

/**
 * The whole-network points of the search, in order: every CPU
 * algorithm serially and at each OpenMP width (OpenMP x 1 is Serial),
 * then the two simulated OpenCL backends. Each layer's grid is its
 * resolution of these, and the tuned plan competes against the best
 * of them that every layer can run.
 */
std::vector<LayerExecOverride>
globalPoints(const TuneOptions &options)
{
    std::vector<LayerExecOverride> specs;
    const ConvAlgo algos[] = {ConvAlgo::Direct, ConvAlgo::Im2colGemm};
    for (ConvAlgo algo : algos)
        specs.push_back({Backend::Serial, algo, 1});
    for (int t : options.threadCandidates) {
        if (t <= 1)
            continue;
        for (ConvAlgo algo : algos)
            specs.push_back({Backend::OpenMP, algo, t});
    }
    specs.push_back({Backend::OclHandTuned, ConvAlgo::Direct, 1});
    specs.push_back({Backend::OclGemmLib, ConvAlgo::Im2colGemm, 1});
    return specs;
}

/**
 * The candidate grid of one layer: the points the layer itself
 * resolves the global points to, each once, in first-occurrence
 * order. Sparse weights collapse every CPU algorithm onto the direct
 * kernel, and a point the layer cannot run never appears.
 */
std::vector<CandidatePoint>
enumerateCandidates(const TunableLayer &tl,
                    const std::vector<LayerExecOverride> &globals,
                    const TuneOptions &options,
                    const analysis::NetworkErrorModel &errModel)
{
    std::vector<CandidatePoint> grid;
    for (const LayerExecOverride &spec : globals) {
        const std::optional<LayerExecOverride> ran =
            tl.layer->resolveExec(spec);
        if (!ran || std::any_of(grid.begin(), grid.end(),
                                [&](const CandidatePoint &cp) {
                                    return samePoint(cp, *ran);
                                }))
            continue;
        grid.push_back({ran->backend, ran->convAlgo, ran->threads, 0.0,
                        0.0, false});
    }

    // Numerical gate: annotate every point with its static end-to-end
    // error contribution; under --error-budget, points that provably
    // bust the budget are excluded before anything is timed. If the
    // whole grid busts it, the minimal-bound points stay eligible so
    // the search still completes.
    if (errModel.complete) {
        const size_t ui = errModel.indexOf(tl.layer);
        if (ui < errModel.units.size()) {
            for (CandidatePoint &cp : grid) {
                cp.errorBound = errModel.contribution(ui, cp.algo);
                cp.budgetExcluded = !errModel.withinBudget(
                    tl.layer, cp.algo, options.errorBudget);
            }
            const bool allExcluded = std::all_of(
                grid.begin(), grid.end(), [](const CandidatePoint &cp) {
                    return cp.budgetExcluded;
                });
            if (allExcluded && !grid.empty()) {
                double minBound =
                    std::numeric_limits<double>::infinity();
                for (const CandidatePoint &cp : grid)
                    minBound = std::min(minBound, cp.errorBound);
                for (CandidatePoint &cp : grid)
                    if (cp.errorBound <= minBound)
                        cp.budgetExcluded = false;
            }
        }
    }
    return grid;
}

/** Cost-model seed of one candidate on the configured device. */
double
predictSeconds(const CostModel &model,
               const std::vector<LayerCost> &costs,
               const CandidatePoint &cp)
{
    // A device without a GPU model cannot price the simulated OpenCL
    // backends; infinity sorts those candidates last, so they only
    // get measured when topK exceeds the priceable grid.
    const bool cpu =
        cp.backend == Backend::Serial || cp.backend == Backend::OpenMP;
    if (!cpu && !model.device().gpu)
        return std::numeric_limits<double>::infinity();
    return model.estimate(costs, cp.backend, cp.threads).total();
}

/** Score of @p search at the point @p key: measured when available. */
double
layerScore(const LayerSearch &search, const LayerExecOverride &key)
{
    for (const CandidatePoint &cp : search.candidates)
        if (samePoint(cp, key))
            return cp.measured ? cp.measuredSeconds
                               : cp.predictedSeconds;
    DLIS_CHECK(false, "tuner: global config resolves to a point ",
               "missing from layer '", search.layer, "' grid");
    return std::numeric_limits<double>::infinity();
}

std::string
globalSpecName(const LayerExecOverride &spec)
{
    return std::string(backendToken(spec.backend)) + "/" +
           algoToken(spec.convAlgo) + "/t" + std::to_string(spec.threads);
}

/** Median e2e seconds of a forward under @p ctx (shared harness). */
double
measureForward(Network &net, const Tensor &input, ExecContext &ctx,
               const TuneOptions &options)
{
    MeasureOptions mo;
    mo.warmup = options.warmup;
    mo.reps = options.reps;
    mo.clock = options.clock;
    return measureMedianSeconds(
        [&] { (void)net.forward(input, ctx); }, mo);
}

} // namespace

DeploymentPlan
tunePlan(InferenceStack &stack, const TuneOptions &options,
         std::vector<LayerSearch> *audit)
{
    Network &net = stack.model().net;
    const Shape input = stack.inputShape(1);
    const CostModel model(options.device);

    // Shared measurement state: one arena (steady-state, no kernel
    // heap allocations after warmup), one simulated queue and GEMM
    // library for the OpenCL-backed candidates.
    gemmlib::GemmLibrary gemmLib;
    oclsim::CommandQueue queue;
    ExecContext mctx;
    mctx.queue = &queue;
    mctx.gemmLib = &gemmLib;

    MeasureOptions mo;
    mo.warmup = options.warmup;
    mo.reps = options.reps;
    mo.clock = options.clock;

    std::vector<TunableLayer> tunable = collectTunable(net, input);
    std::vector<LayerSearch> searches;
    searches.reserve(tunable.size());

    // Static numerical model over the measurement input range: the
    // tuner drives every candidate with uniform [-1, 1] inputs, so
    // the bounds it gates and records speak for what it measured.
    const analysis::NetworkErrorModel errModel =
        analysis::buildErrorModel(net, input,
                                  analysis::Interval{-1.0, 1.0});

    const std::vector<LayerExecOverride> globals = globalPoints(options);

    DeploymentPlan plan;
    plan.model = stack.config().modelName;
    plan.networkSignature = networkSignature(net, input);
    plan.hostFingerprint = hostFingerprint();
    plan.seed = options.seed;
    plan.errorBudget = options.errorBudget;

    for (size_t li = 0; li < tunable.size(); ++li) {
        TunableLayer &tl = tunable[li];
        LayerSearch search;
        search.layer = tl.layer->name();
        search.candidates =
            enumerateCandidates(tl, globals, options, errModel);
        for (CandidatePoint &cp : search.candidates)
            cp.predictedSeconds = predictSeconds(model, tl.costs, cp);

        // Stage 2: cost-model prune. Stable order on ties keeps the
        // search deterministic (the model cannot split CPU algorithms;
        // measurement does). Budget-excluded points never make the
        // cut — they stay in the audit list only.
        std::vector<size_t> order;
        order.reserve(search.candidates.size());
        for (size_t i = 0; i < search.candidates.size(); ++i)
            if (!search.candidates[i].budgetExcluded)
                order.push_back(i);
        std::stable_sort(order.begin(), order.end(),
                         [&](size_t a, size_t b) {
                             return search.candidates[a]
                                        .predictedSeconds <
                                    search.candidates[b]
                                        .predictedSeconds;
                         });
        if (order.size() > options.topK)
            order.resize(options.topK);

        // The unconstrained winner is picked from the cost-model
        // survivors only — a memory budget must not change which
        // point wins when the budget is not binding.
        std::vector<char> inTopK(search.candidates.size(), 0);
        for (size_t idx : order)
            inTopK[idx] = 1;

        // Under a memory budget, also measure every legal candidate
        // that is Pareto-minimal in (activation, scratch) bytes: the
        // planner may have to retreat to a point the cost model
        // pruned, and the minimum feasible peak must be realisable
        // from measured points.
        if (options.memBudget > 0) {
            std::vector<std::pair<size_t, size_t>> mem(
                search.candidates.size());
            for (size_t i = 0; i < search.candidates.size(); ++i) {
                const CandidatePoint &cp = search.candidates[i];
                const analysis::LayerMemory lm =
                    analysis::layerForwardMemory(*tl.layer, tl.input,
                                                 cp.backend, cp.algo,
                                                 cp.threads);
                mem[i] = {lm.inputBytes + lm.transientBytes,
                          lm.scratchBytes};
            }
            for (size_t i = 0; i < search.candidates.size(); ++i) {
                if (search.candidates[i].budgetExcluded || inTopK[i])
                    continue;
                bool dominated = false;
                for (size_t j = 0; j < search.candidates.size();
                     ++j) {
                    if (j == i ||
                        search.candidates[j].budgetExcluded)
                        continue;
                    if (mem[j].first <= mem[i].first &&
                        mem[j].second <= mem[i].second &&
                        (mem[j].first < mem[i].first ||
                         mem[j].second < mem[i].second ||
                         (inTopK[j] && j < i))) {
                        dominated = true;
                        break;
                    }
                }
                if (!dominated)
                    order.push_back(i);
            }
        }

        // Stage 3: measure the survivors on the real geometry with a
        // per-layer deterministic input.
        Rng rng(options.seed, li + 1);
        Tensor layerInput(tl.input);
        layerInput.fillUniform(rng, -1.0f, 1.0f);
        for (size_t idx : order) {
            CandidatePoint &cp = search.candidates[idx];
            mctx.backend = cp.backend;
            mctx.convAlgo = cp.algo;
            mctx.threads = cp.threads;
            cp.measuredSeconds = measureMedianSeconds(
                [&] { (void)tl.layer->forward(layerInput, mctx); },
                mo);
            cp.measured = true;
        }

        const CandidatePoint *best = nullptr;
        for (size_t i = 0; i < search.candidates.size(); ++i) {
            const CandidatePoint &cp = search.candidates[i];
            if (cp.measured && inTopK[i] &&
                (!best || cp.measuredSeconds < best->measuredSeconds))
                best = &cp;
        }
        DLIS_CHECK(best, "tuner: layer '", search.layer,
                   "' has no measurable candidate");

        search.winner.layer = search.layer;
        search.winner.backend = best->backend;
        search.winner.algo = best->algo;
        search.winner.threads = best->threads;
        search.winner.measuredSeconds = best->measuredSeconds;
        // An unpriceable candidate (no GPU model) carries an infinite
        // prediction; record 0 so the plan JSON stays parseable.
        search.winner.predictedSeconds =
            std::isfinite(best->predictedSeconds)
                ? best->predictedSeconds
                : 0.0;
        search.winner.errorBound = best->errorBound;
        plan.layers.push_back(search.winner);
        searches.push_back(std::move(search));
    }

    // Memory budget: re-select the per-layer points so the static
    // peak fits. A layer keeps its unconstrained winner whenever the
    // winner fits the winning thresholds, so an unbinding budget
    // leaves the plan untouched.
    plan.memBudget = options.memBudget;
    if (options.memBudget > 0) {
        const MemPlanOutcome mem = planUnderMemBudget(
            net, input, searches, options.memBudget);
        if (!mem.feasible)
            throw PlanError(
                analysis::Check::PlanMemInfeasible,
                "no per-layer assignment fits mem budget " +
                    std::to_string(options.memBudget) +
                    " bytes; minimum feasible peak is " +
                    std::to_string(mem.minFeasiblePeak) + " bytes");
        for (size_t li = 0; li < searches.size(); ++li) {
            const CandidatePoint &cp =
                searches[li].candidates[mem.chosen[li]];
            LayerPlan &lp = plan.layers[li];
            lp.backend = cp.backend;
            lp.algo = cp.algo;
            lp.threads = cp.threads;
            lp.measuredSeconds = cp.measuredSeconds;
            lp.predictedSeconds =
                std::isfinite(cp.predictedSeconds)
                    ? cp.predictedSeconds
                    : 0.0;
            lp.errorBound = cp.errorBound;
            searches[li].winner = lp;
        }
    }

    // Base config for the non-tuned layers: join the parallel loop
    // iff some winner did, at the widest width a winner chose.
    plan.defaultBackend = Backend::Serial;
    plan.defaultThreads = 1;
    for (const LayerPlan &lp : plan.layers)
        if (lp.backend == Backend::OpenMP &&
            lp.threads > plan.defaultThreads) {
            plan.defaultBackend = Backend::OpenMP;
            plan.defaultThreads = lp.threads;
        }

    // Static peak footprint of the chosen assignment — recorded in
    // every plan (the serving pre-flight sizes replicas from it) and
    // required under the recorded budget when one was set.
    plan.peakBytesBound = planPeakBytes(plan, net, input);
    DLIS_CHECK(options.memBudget == 0 ||
                   plan.peakBytesBound <= options.memBudget,
               "tuner: planner exceeded the mem budget");

    // Composed static bound of the chosen configuration: tuned units
    // at their winner's (resolved) algorithm, every other unit (BN,
    // pooling, activations) at its fixed local term.
    if (errModel.complete) {
        std::unordered_map<const Layer *, ConvAlgo> chosen;
        for (size_t li = 0; li < tunable.size(); ++li)
            chosen[tunable[li].layer] = plan.layers[li].algo;
        double total = 0.0;
        for (size_t i = 0; i < errModel.units.size(); ++i) {
            const auto it = chosen.find(errModel.units[i].layer);
            total += errModel.contribution(
                i, it != chosen.end() ? it->second
                                      : ConvAlgo::Direct);
        }
        plan.totalErrorBound = total;
    }

    // The competition: best single global {backend, algo, threads},
    // scored from the same per-layer samples so the comparison is
    // apples-to-apples, then (optionally) both measured end-to-end.
    const LayerExecOverride *bestGlobal = nullptr;
    double bestGlobalScore =
        std::numeric_limits<double>::infinity();
    for (const LayerExecOverride &spec : globals) {
        double score = 0.0;
        for (size_t li = 0; li < searches.size(); ++li) {
            // A point some layer cannot run is never the control.
            const std::optional<LayerExecOverride> ran =
                tunable[li].layer->resolveExec(spec);
            score += ran ? layerScore(searches[li], *ran)
                         : std::numeric_limits<double>::infinity();
        }
        if (score < bestGlobalScore) {
            bestGlobalScore = score;
            bestGlobal = &spec;
        }
    }
    DLIS_CHECK(bestGlobal, "tuner: no global configuration runs");
    plan.bestGlobalConfig = globalSpecName(*bestGlobal);

    double tunedScore = 0.0;
    for (const LayerPlan &lp : plan.layers)
        tunedScore += lp.measuredSeconds;

    if (options.measureEndToEnd) {
        Rng rng(options.seed, 0);
        Tensor netInput(input);
        netInput.fillUniform(rng, -1.0f, 1.0f);

        PlanRuntime runtime(plan);
        ExecContext tunedCtx;
        runtime.bind(tunedCtx);
        plan.tunedP50 =
            measureForward(net, netInput, tunedCtx, options);

        ExecContext globalCtx;
        globalCtx.backend = bestGlobal->backend;
        globalCtx.convAlgo = bestGlobal->convAlgo;
        globalCtx.threads = bestGlobal->threads;
        globalCtx.queue = &queue;
        globalCtx.gemmLib = &gemmLib;
        plan.bestGlobalP50 =
            measureForward(net, netInput, globalCtx, options);
    } else {
        plan.tunedP50 = tunedScore;
        plan.bestGlobalP50 = bestGlobalScore;
    }

    if (audit)
        *audit = std::move(searches);
    return plan;
}

TuneOutcome
tuneOrLoadPlan(InferenceStack &stack, const TuneOptions &options,
               const std::string &cacheDir)
{
    Network &net = stack.model().net;
    const Shape input = stack.inputShape(1);
    const std::string fp = hostFingerprint();
    const std::string sig = networkSignature(net, input);
    const std::string path =
        planCacheFile(cacheDir, stack.config().modelName, fp, sig);

    if (std::filesystem::exists(path)) {
        try {
            DeploymentPlan cached = loadPlanFile(path);
            const auto diags = validatePlan(cached, net, input, fp);
            const bool clean = std::none_of(
                diags.begin(), diags.end(), [](const auto &d) {
                    return d.severity == analysis::Severity::Error;
                });
            // A plan tuned under a different error or memory budget
            // answered a different question: retune rather than hand
            // it back.
            if (clean && cached.errorBudget == options.errorBudget &&
                cached.memBudget == options.memBudget)
                return {std::move(cached), true, path};
        } catch (const PlanError &) {
            // unreadable cache entry: fall through and retune
        }
    }

    TuneOutcome outcome;
    outcome.plan = tunePlan(stack, options);
    outcome.cacheHit = false;
    outcome.path = path;
    std::filesystem::create_directories(cacheDir);
    savePlanFile(outcome.plan, path);
    return outcome;
}

} // namespace dlis::tune
