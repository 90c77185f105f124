/**
 * @file
 * im2col / col2im transforms.
 *
 * im2col rearranges image blocks into columns so convolution becomes a
 * GEMM: weights [O, C*KH*KW] x cols [C*KH*KW, HO*WO]. This is the
 * transformation the paper pairs with the CLBlast-style GEMM path
 * (§IV-D); the scratch buffer it allocates is part of the memory
 * footprint story.
 */

#ifndef DLIS_BACKEND_IM2COL_HPP
#define DLIS_BACKEND_IM2COL_HPP

#include "backend/conv_params.hpp"

namespace dlis::kernels {

/** Number of floats the im2col buffer needs for one image. */
size_t im2colBufferSize(const ConvParams &p);

/** Arena bytes of one image's im2col buffer, as conv carves it. */
size_t im2colScratchBytes(const ConvParams &p);

/**
 * Expand one image (CHW) into columns.
 *
 * @param p     conv geometry (n is ignored; single image)
 * @param input CHW input, cin*hin*win floats
 * @param cols  output, [cin*kh*kw, hout*wout] row-major
 */
void im2col(const ConvParams &p, const float *input, float *cols);

/**
 * Inverse scatter-add of im2col (used by conv backward): zeroes the
 * CHW image buffer, then accumulates the columns back into it. The
 * buffer is fully overwritten — callers need not (and should not rely
 * on) pre-zeroing it; overlapping kernel windows still sum within the
 * single call, which is the gradient semantics conv backward needs.
 */
void col2im(const ConvParams &p, const float *cols, float *input);

} // namespace dlis::kernels

#endif // DLIS_BACKEND_IM2COL_HPP
