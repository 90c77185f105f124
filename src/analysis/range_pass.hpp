/**
 * @file
 * Interval value-range propagation (the numerical-safety dataflow
 * pass).
 *
 * Starting from a declared input interval, the pass pushes per-channel
 * activation intervals through every layer type the runtime executes —
 * conv (dense, CSR, packed-ternary), depthwise conv, batch norm,
 * linear, ReLU, pooling, flatten, and residual blocks — producing:
 *
 *  - per-unit output intervals (a "unit" is one top-level layer; a
 *    residual block is one unit, composed internally along both paths
 *    and through the in-place skip-add);
 *  - diagnostics for statically-reachable numerical hazards:
 *    NonFiniteWeight (NaN/Inf parameters, non-positive BN variance),
 *    ActivationOverflow (an interval endpoint escapes float range),
 *    DeadOutput (ReLU outputs provably pinned <= 0);
 *  - per-unit forward error terms — the amplification factor L (how
 *    much input error can grow crossing the unit) and the local
 *    rounding bound delta per convolution algorithm — consumed by
 *    error_bounds.hpp to compose per-layer and end-to-end worst-case
 *    error estimates per {algo, backend} choice.
 *
 * Everything is an over-approximation: observed activations always lie
 * inside the intervals, observed |algo - exact| errors below the
 * deltas. The property tests in tests/test_analysis.cpp validate both
 * claims concretely on randomized networks under every algorithm and
 * both ISAs.
 */

#ifndef DLIS_ANALYSIS_RANGE_PASS_HPP
#define DLIS_ANALYSIS_RANGE_PASS_HPP

#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/interval.hpp"
#include "nn/network.hpp"

namespace dlis::analysis {

/**
 * Intervals for one activation tensor. One entry per channel (NCHW)
 * or per feature (rank-2); a single entry means one interval uniformly
 * covering every element (e.g. after Flatten mixes channels).
 */
struct ValueRange
{
    std::vector<Interval> ch;

    /** Interval of element group @p c (handles the uniform case). */
    const Interval &
    at(size_t c) const
    {
        return ch.size() == 1 ? ch[0] : ch[c];
    }

    /** Number of distinct groups carried. */
    size_t groups() const { return ch.size(); }

    /** Hull over all groups. */
    Interval overall() const;

    /** Largest |value| reachable anywhere in the tensor. */
    double magnitude() const { return overall().magnitude(); }
};

/**
 * Range and local error terms for one top-level unit.
 *
 * The deltas bound |computed - exact| for one forward through the unit
 * with exact inputs, per convolution algorithm (units without an
 * algorithm choice carry the same value in both). Composition
 * into network-level bounds lives in error_bounds.hpp.
 */
struct UnitAnalysis
{
    const Layer *layer = nullptr;
    std::string name;
    ValueRange out;

    double amplification = 1.0; //!< L: worst-case input-error gain
    double deltaDirect = 0.0;   //!< local rounding, direct kernels
    double deltaIm2col = 0.0;   //!< ... im2col + tiled GEMM

    /**
     * Report-only: packed-ternary quantisation residual vs the
     * pre-quantisation dense weights (0 for non-ternary units).
     * Not composed into the algo-selection bound — every candidate
     * runs the same quantised weights, so the residual cancels in
     * |tuned - reference|.
     */
    double quantResidual = 0.0;

    /**
     * Report-only: extra one-time rounding if foldBatchNorms merges a
     * following BN into this convolution's weights.
     */
    double bnFoldDelta = 0.0;

    /** True when the unit dispatches a conv-algorithm choice. */
    bool algoSensitive = false;
};

/** Result of the range pass over a whole network. */
struct RangeReport
{
    std::vector<UnitAnalysis> units; //!< execution order
    std::vector<Diagnostic> diagnostics;

    /**
     * False when the walk stopped early (non-finite weights, interval
     * overflow, or a shape mismatch): units past the stop point are
     * absent and no end-to-end bound exists.
     */
    bool complete = true;

    bool
    hasErrors() const
    {
        for (const Diagnostic &d : diagnostics)
            if (d.severity == Severity::Error)
                return true;
        return false;
    }
};

/**
 * Propagate @p inputRange (applied to every input element) through
 * @p net declared with NCHW input shape @p input. Never executes a
 * kernel; never throws on malformed models — defects become
 * diagnostics and stop the walk.
 */
RangeReport propagateRanges(const Network &net, const Shape &input,
                            const Interval &inputRange);

} // namespace dlis::analysis

#endif // DLIS_ANALYSIS_RANGE_PASS_HPP
