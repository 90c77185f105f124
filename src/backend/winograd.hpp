/**
 * @file
 * Winograd F(2x2, 3x3) convolution.
 *
 * The paper's data-formats-and-algorithms layer (§II-B) names the
 * Winograd transform alongside direct convolution and im2col as the
 * algorithm choices for 3x3 filters. F(2x2, 3x3) computes each 2x2
 * output tile with 16 multiplies instead of 36 — a 2.25x reduction in
 * multiplications at the cost of transform adds and extra working
 * memory, exactly the kind of across-stack trade-off the paper
 * characterises (see bench/ablation_conv_algos).
 *
 * Restrictions: 3x3 kernels, stride 1 (the VGG/ResNet hot path).
 */

#ifndef DLIS_BACKEND_WINOGRAD_HPP
#define DLIS_BACKEND_WINOGRAD_HPP

#include "backend/conv_params.hpp"

namespace dlis::kernels {

/** True when the geometry is eligible for F(2x2, 3x3). */
bool winogradApplicable(const ConvParams &p);

/**
 * Number of multiplies the Winograd path performs (for the cost
 * model / ablation): 16 per 2x2 output tile per (cout, cin) pair.
 */
size_t winogradMultiplies(const ConvParams &p);

/** Arena bytes convWinograd carves (the filter transforms U). */
size_t winogradScratchBytes(const ConvParams &p);

/**
 * F(2x2, 3x3) convolution. Same contract as convDirectDense.
 *
 * @pre winogradApplicable(p)
 */
void convWinograd(const ConvParams &p, const float *input,
                  const float *weight, const float *bias, float *output,
                  const KernelPolicy &policy);

} // namespace dlis::kernels

#endif // DLIS_BACKEND_WINOGRAD_HPP
