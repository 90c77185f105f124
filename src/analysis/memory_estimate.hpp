/**
 * @file
 * Static per-layer memory high-water estimate.
 *
 * Predicts, without allocating or executing, the peak bytes the
 * MemoryTracker will observe for one inference: the paper's Tables IV
 * and VI are made of exactly these numbers, and TASO-style deployment
 * planning needs them *before* the first forward runs on a
 * memory-constrained target.
 *
 * The estimate is a walk over the network; it computes no byte count
 * itself. Each layer prices its own parameters (Layer::paramBytes)
 * and the activations and scratch its forward allocates
 * (Layer::forwardBytes), along the same dispatch its forward takes,
 * and every kernel that carves the scratch arena exports the function
 * its carve is sized by. The walk adds the lifetimes around the
 * layers: the measurement harness holds the input tensor for the
 * whole forward and Network::forward copies it into its layer cursor,
 * each layer allocates while its input is live, and the arena's
 * capacity settles at the largest per-layer demand. The estimate
 * matches the tracker's observed peak byte-for-byte
 * (tests/test_analysis.cpp pins this on all three paper models).
 */

#ifndef DLIS_ANALYSIS_MEMORY_ESTIMATE_HPP
#define DLIS_ANALYSIS_MEMORY_ESTIMATE_HPP

#include <string>
#include <unordered_map>
#include <vector>

#include "nn/exec_context.hpp"
#include "nn/network.hpp"

namespace dlis::analysis {

/** One layer's contribution to the forward-pass high-water mark. */
struct LayerMemory
{
    std::string name;
    size_t inputBytes = 0;     //!< live activation input to the layer
    size_t outputBytes = 0;    //!< activation the layer hands onward
    size_t transientBytes = 0; //!< ForwardBytes::activations
    size_t scratchBytes = 0;   //!< ForwardBytes::scratch
};

/** Static memory high-water decomposition, in MemoryTracker classes. */
struct MemoryEstimate
{
    size_t weights = 0;         //!< parameter payload (MemClass::Weights)
    size_t sparseMeta = 0;      //!< CSR/ternary metadata (SparseMeta)
    size_t activationsPeak = 0; //!< peak live activation bytes
    /** Largest per-layer arena demand: the capacity the grow-only
     *  ScratchArena settles at and keeps across forwards. */
    size_t scratchPeak = 0;
    std::vector<LayerMemory> perLayer;

    /** Peak total footprint (weights + meta + activations + scratch). */
    size_t
    total() const
    {
        return weights + sparseMeta + activationsPeak + scratchPeak;
    }
};

/**
 * Estimate the tracker-observed peak of one inference of @p net on
 * @p input with every layer at one {backend, algorithm, threads}
 * point. Inference mode only (training caches are not modelled).
 * Shapes must be consistent — run the verifier first; this throws
 * FatalError on a malformed network just like the runtime would.
 */
MemoryEstimate estimateForwardMemory(const Network &net,
                                     const Shape &input,
                                     Backend backend = Backend::Serial,
                                     ConvAlgo algo = ConvAlgo::Direct,
                                     int threads = 1);

/**
 * Plan-aware variant: the peak when the forward runs under
 * @p overrides exactly as Network::forwardLayer applies
 * ExecContext::layerOverrides — a top-level layer named in the map
 * runs at its override's point, every other layer at the defaults.
 * The grow-only arena settles at the largest per-layer scratch demand
 * and the activation high-water composes per layer, so a mixed plan
 * stays byte-exact (pinned against MemoryTracker in
 * tests/test_analysis.cpp).
 */
MemoryEstimate memoryEstimateForPlan(
    const Network &net, const Shape &input,
    const std::unordered_map<std::string, LayerExecOverride> &overrides,
    Backend defaultBackend = Backend::Serial,
    ConvAlgo defaultAlgo = ConvAlgo::Direct, int defaultThreads = 1);

/**
 * One layer's memory contribution at one configuration, with @p input
 * the shape entering the layer: the per-layer term the estimators
 * above take their maxima over, and what the memory-budgeted planner
 * prices candidates with.
 */
LayerMemory layerForwardMemory(const Layer &layer, const Shape &input,
                               Backend backend, ConvAlgo algo,
                               int threads);

} // namespace dlis::analysis

#endif // DLIS_ANALYSIS_MEMORY_ESTIMATE_HPP
