/**
 * @file
 * A CLBlast-style tuned GEMM library.
 *
 * The paper uses CLBlast to turn convolution into im2col + GEMM
 * (§IV-D), tuned by CLTune over up to 14 parameters. We implement the
 * same interface shape: a GEMM routine parameterised by a tuning
 * configuration, a GemmLibrary facade that (like a BLAS library) adds
 * per-call setup work — argument validation, layout analysis, kernel
 * selection, buffer packing — and an auto-tuner (autotuner.hpp).
 *
 * The per-call setup cost is what makes the library *lose* on the tiny
 * 32x32 CIFAR matrices and *win* at ImageNet scale (Fig 6 and §V-F);
 * the library therefore reports its setup-work statistics so the
 * hardware cost model can account for them, and its packing work is
 * real (it materialises padded/packed copies of the operands).
 */

#ifndef DLIS_BACKEND_GEMMLIB_TUNED_GEMM_HPP
#define DLIS_BACKEND_GEMMLIB_TUNED_GEMM_HPP

#include <cstddef>
#include <string>

#include "backend/conv_params.hpp"

namespace dlis::gemmlib {

/**
 * The tuning surface — mirrors CLBlast's 14 GEMM parameters
 * (work-group sizes, register tiling, vector widths, unrolling,
 * local-memory usage, ...).
 */
struct TuneConfig
{
    size_t mwg = 32;   //!< work-group tile size in M
    size_t nwg = 64;   //!< work-group tile size in N
    size_t kwg = 64;   //!< loop tile size in K
    size_t mdimc = 8;  //!< threads per work-group in M
    size_t ndimc = 8;  //!< threads per work-group in N
    size_t mdima = 8;  //!< re-shaped tile A dimension
    size_t ndimb = 8;  //!< re-shaped tile B dimension
    size_t kwi = 2;    //!< K-loop unroll factor
    size_t vwm = 4;    //!< vector width for loading A
    size_t vwn = 4;    //!< vector width for loading B
    bool strm = false; //!< stride for accessing A within a thread
    bool strn = false; //!< stride for accessing B within a thread
    bool sa = true;    //!< use local memory for A
    bool sb = true;    //!< use local memory for B

    /** Compact textual form for logs and tuner reports. */
    std::string str() const;
};

/** Setup work a library call performed besides the GEMM itself. */
struct GemmCallStats
{
    size_t packedBytes = 0;  //!< bytes materialised for packing/padding
    size_t flops = 0;        //!< 2*m*n*k useful flops
    size_t paddedFlops = 0;  //!< flops including tile padding waste
    size_t kernelLaunches = 0; //!< device kernel invocations
};

/**
 * The library facade. Construct once (tuned or default config), then
 * issue gemm() calls; statistics accumulate for the cost model.
 */
class GemmLibrary
{
  public:
    explicit GemmLibrary(TuneConfig config = {});

    /** The active tuning configuration. */
    const TuneConfig &config() const { return config_; }

    /**
     * C = A * B with library semantics: validates, packs A and B into
     * tile-padded buffers, runs the tiled kernel, unpacks C.
     *
     * @param a row-major [m, k], @param b row-major [k, n],
     * @param c row-major [m, n] (overwritten)
     */
    void gemm(const float *a, const float *b, float *c, size_t m,
              size_t k, size_t n, const KernelPolicy &policy);

    /**
     * Arena bytes gemm() carves under @p config (@p threads is the
     * policy's): three packing buffers plus gemmBlocked's C tiles.
     */
    static size_t scratchBytes(size_t m, size_t k, size_t n, int threads,
                               const TuneConfig &config = {});

    /** Stats accumulated since the last resetStats(). */
    const GemmCallStats &stats() const { return stats_; }

    /** Zero the accumulated statistics. */
    void resetStats();

  private:
    TuneConfig config_;
    GemmCallStats stats_;
};

} // namespace dlis::gemmlib

#endif // DLIS_BACKEND_GEMMLIB_TUNED_GEMM_HPP
