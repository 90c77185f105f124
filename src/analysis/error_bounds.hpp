/**
 * @file
 * Composition of per-unit forward error terms into per-layer and
 * end-to-end worst-case error bounds per {algo, backend} choice.
 *
 * The range pass (range_pass.hpp) derives, for every top-level unit
 * i, an amplification factor L_i (how much error already present in
 * the unit's input can grow crossing it) and a local rounding bound
 * delta_i(algo) (error one forward through the unit introduces on
 * exact inputs). Errors compose along the graph as
 *
 *     e_{i+1} <= L_i * e_i + delta_i(algo_i),   e_0 = 0,
 *
 * which telescopes to the end-to-end bound
 *
 *     e2e = sum_i delta_i(algo_i) * suffix_i,
 *     suffix_i = prod_{j > i} L_j.
 *
 * delta_i * suffix_i is unit i's *contribution*: the worst-case
 * damage its algorithm choice can do to the network output. The
 * tuner's --error-budget gate reasons in contributions: a candidate
 * algorithm for unit i is statically excluded when even the
 * best-case choices everywhere else cannot bring the end-to-end
 * bound back under budget.
 *
 * All bounds are measured against exact real arithmetic on the same
 * (already-quantised) weights, so |tuned - reference| between two
 * concrete executions is bounded by the sum of both bounds — the
 * inequality the property tests validate.
 */

#ifndef DLIS_ANALYSIS_ERROR_BOUNDS_HPP
#define DLIS_ANALYSIS_ERROR_BOUNDS_HPP

#include "analysis/range_pass.hpp"

namespace dlis::analysis {

/** The composed error model of one network. */
struct NetworkErrorModel
{
    std::vector<UnitAnalysis> units; //!< from the range pass
    std::vector<Diagnostic> diagnostics;

    /** suffix_i = prod_{j>i} L_j (1.0 for the last unit). */
    std::vector<double> suffix;

    /** False when the range walk stopped early: no bound exists. */
    bool complete = true;

    /** delta of unit @p i under @p algo. */
    double unitDelta(size_t i, ConvAlgo algo) const;

    /** delta_i(algo) * suffix_i: unit i's end-to-end contribution. */
    double contribution(size_t i, ConvAlgo algo) const;

    /** Smallest contribution any algorithm achieves for unit i. */
    double minContribution(size_t i) const;

    /** Sum of minContribution over all units. */
    double minTotal() const;

    /** e2e bound running every algo-sensitive unit under @p algo. */
    double endToEnd(ConvAlgo algo) const;

    /**
     * e2e bound of a forward at @p point: each unit at the algorithm
     * its layer resolves @p point to (Layer::resolveExec; the
     * simulated OpenCL backends run their own kernels). OpenMP needs
     * no separate model — its accumulation is thread-invariant, and
     * the gamma_K bound covers every summation order anyway.
     */
    double endToEnd(const LayerExecOverride &point) const;

    /** Index of @p layer's unit, or units.size() when absent. */
    size_t indexOf(const Layer *layer) const;

    /**
     * Budget gate for the tuner: true when running @p layer with
     * @p algo (a resolved point's algorithm) can still meet @p budget
     * assuming the best-case choice everywhere else. Layers outside
     * the model (or an incomplete model, or budget <= 0) pass
     * trivially — no static statement, no exclusion.
     */
    bool withinBudget(const Layer *layer, ConvAlgo algo,
                      double budget) const;
};

/**
 * Run the range pass and compose the error model. Diagnostics from
 * the walk (non-finite weights, overflow, dead outputs) are carried
 * through on the model.
 */
NetworkErrorModel buildErrorModel(const Network &net,
                                  const Shape &input,
                                  const Interval &inputRange);

} // namespace dlis::analysis

#endif // DLIS_ANALYSIS_ERROR_BOUNDS_HPP
