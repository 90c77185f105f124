#include "analysis/memory_estimate.hpp"

#include <algorithm>

namespace dlis::analysis {

MemoryEstimate
memoryEstimateForPlan(
    const Network &net, const Shape &input,
    const std::unordered_map<std::string, LayerExecOverride> &overrides,
    Backend defaultBackend, ConvAlgo defaultAlgo, int defaultThreads)
{
    MemoryEstimate est;
    const size_t inputBytes = input.numel() * sizeof(float);

    // The measurement harness holds the input tensor for the whole
    // forward, and Network::forward's layer cursor starts as a copy of
    // it — so before any layer runs, two copies are live.
    size_t peakBeyondInput = inputBytes;

    Shape cur = input;
    for (const auto &layerPtr : net.layers()) {
        const Layer &layer = *layerPtr;
        const ParamBytes params = layer.paramBytes();
        est.weights += params.weights;
        est.sparseMeta += params.sparseMeta;

        // Resolve the layer's configuration the way
        // Network::forwardLayer does: an override named after the
        // top-level layer wins, everything else runs the defaults.
        LayerExecOverride exec{defaultBackend, defaultAlgo,
                               defaultThreads};
        if (const auto it = overrides.find(layer.name());
            it != overrides.end())
            exec = it->second;

        LayerMemory lm = layerForwardMemory(layer, cur, exec.backend,
                                            exec.convAlgo, exec.threads);
        peakBeyondInput =
            std::max(peakBeyondInput, lm.inputBytes + lm.transientBytes);
        est.scratchPeak = std::max(est.scratchPeak, lm.scratchBytes);
        est.perLayer.push_back(std::move(lm));
        cur = layer.outputShape(cur);
    }

    est.activationsPeak = inputBytes + peakBeyondInput;
    return est;
}

MemoryEstimate
estimateForwardMemory(const Network &net, const Shape &input,
                      Backend backend, ConvAlgo algo, int threads)
{
    // A single global configuration is the empty-override plan.
    return memoryEstimateForPlan(net, input, {}, backend, algo,
                                 threads);
}

LayerMemory
layerForwardMemory(const Layer &layer, const Shape &input,
                   Backend backend, ConvAlgo algo, int threads)
{
    const ForwardBytes fb =
        layer.forwardBytes(input, {backend, algo, threads});
    LayerMemory lm;
    lm.name = layer.name();
    lm.inputBytes = input.numel() * sizeof(float);
    lm.outputBytes = layer.outputShape(input).numel() * sizeof(float);
    lm.transientBytes = fb.activations;
    lm.scratchBytes = fb.scratch;
    return lm;
}

} // namespace dlis::analysis
