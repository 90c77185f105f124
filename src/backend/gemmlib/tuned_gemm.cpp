#include "backend/gemmlib/tuned_gemm.hpp"

#include <cstring>
#include <sstream>

#include "backend/gemm.hpp"
#include "core/error.hpp"
#include "core/scratch_arena.hpp"

namespace dlis::gemmlib {

std::string
TuneConfig::str() const
{
    std::ostringstream oss;
    oss << "MWG=" << mwg << " NWG=" << nwg << " KWG=" << kwg
        << " MDIMC=" << mdimc << " NDIMC=" << ndimc << " MDIMA=" << mdima
        << " NDIMB=" << ndimb << " KWI=" << kwi << " VWM=" << vwm
        << " VWN=" << vwn << " STRM=" << strm << " STRN=" << strn
        << " SA=" << sa << " SB=" << sb;
    return oss.str();
}

GemmLibrary::GemmLibrary(TuneConfig config)
    : config_(config)
{
    DLIS_CHECK(config_.mwg > 0 && config_.nwg > 0 && config_.kwg > 0,
               "tile sizes must be positive");
}

namespace {

size_t
roundUp(size_t v, size_t to)
{
    return (v + to - 1) / to * to;
}

} // namespace

size_t
GemmLibrary::scratchBytes(size_t m, size_t k, size_t n, int threads,
                          const TuneConfig &config)
{
    const size_t mp = roundUp(m, config.mwg);
    const size_t np = roundUp(n, config.nwg);
    const size_t kp = roundUp(k, config.kwg);
    return ScratchArena::alignUp(mp * kp * sizeof(float)) +
           ScratchArena::alignUp(kp * np * sizeof(float)) +
           ScratchArena::alignUp(mp * np * sizeof(float)) +
           kernels::gemmBlockedScratchBytes(mp, np, threads, config.mwg,
                                            config.nwg);
}

void
GemmLibrary::gemm(const float *a, const float *b, float *c, size_t m,
                  size_t k, size_t n, const KernelPolicy &policy)
{
    // Library-style preparation: pad every dimension up to a tile
    // multiple and pack the operands into scratch-arena buffers. The
    // packing *work* is real and still paid per call (it is the fixed
    // cost that dominates on tiny matrices); only the buffer memory is
    // reused across calls.
    const size_t mp = roundUp(m, config_.mwg);
    const size_t np = roundUp(n, config_.nwg);
    const size_t kp = roundUp(k, config_.kwg);

    ScratchArena localArena;
    ScratchArena &ar = policy.arena ? *policy.arena : localArena;
    ScratchArena::Scope scope(ar, policy.counters);
    // One growth step for the packing buffers and the nested GEMM's
    // C tiles, so a warming arena copies its live prefix at most once.
    ar.reserve(scratchBytes(m, k, n, policy.threads, config_));
    float *a_packed = ar.allocFloats(mp * kp);
    float *b_packed = ar.allocFloats(kp * np);
    float *c_packed = ar.allocFloats(mp * np);

    // Arena blocks are uninitialised: copy the payload and zero only
    // the padding (row tails and the padded tail rows). c_packed needs
    // no init — gemmBlocked fully overwrites it.
    for (size_t i = 0; i < m; ++i) {
        std::memcpy(&a_packed[i * kp], &a[i * k], k * sizeof(float));
        std::memset(&a_packed[i * kp + k], 0,
                    (kp - k) * sizeof(float));
    }
    std::memset(&a_packed[m * kp], 0, (mp - m) * kp * sizeof(float));
    for (size_t i = 0; i < k; ++i) {
        std::memcpy(&b_packed[i * np], &b[i * n], n * sizeof(float));
        std::memset(&b_packed[i * np + n], 0,
                    (np - n) * sizeof(float));
    }
    std::memset(&b_packed[k * np], 0, (kp - k) * np * sizeof(float));

    kernels::gemmBlocked(a_packed, b_packed, c_packed, mp, kp, np,
                         policy, config_.mwg, config_.nwg, config_.kwg);

    for (size_t i = 0; i < m; ++i)
        std::memcpy(&c[i * n], &c_packed[i * np], n * sizeof(float));

    stats_.packedBytes +=
        (mp * kp + kp * np + mp * np) * sizeof(float);
    stats_.flops += 2 * m * n * k;
    stats_.paddedFlops += 2 * mp * np * kp;
    stats_.kernelLaunches += 1;
}

void
GemmLibrary::resetStats()
{
    stats_ = {};
}

} // namespace dlis::gemmlib
