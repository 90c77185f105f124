#include "analysis/range_pass.hpp"

#include <cmath>

#include "backend/gemm.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/depthwise_conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/residual_block.hpp"

namespace dlis::analysis {

Interval
ValueRange::overall() const
{
    Interval h = ch.empty() ? Interval{} : ch[0];
    for (size_t i = 1; i < ch.size(); ++i)
        h = Interval::hull(h, ch[i]);
    return h;
}

namespace {

constexpr double u = kFloatUnitRoundoff;

bool
tensorFinite(const Tensor &t)
{
    const float *p = t.data();
    const size_t n = t.shape().numel();
    for (size_t i = 0; i < n; ++i)
        if (!std::isfinite(p[i]))
            return false;
    return true;
}

/* Local rounding bound for a length-K accumulation whose weighted
 * term magnitudes sum to A, per algorithm. The classic gamma_K bound
 * K*u*A holds for ANY summation order, which is what makes one
 * formula cover the serial loops, the OpenMP thread-invariant sums,
 * and the SIMD lane reductions alike. */
double
directDelta(double K, double A)
{
    return u * (K + 1.0) * A;
}

double
im2colDelta(double K, double A)
{
    // Tiled GEMM composes ceil(K / kGemmTileK) partial sums (an error
    // term, not a byte count).
    const double tiles = std::ceil(
        K / double(kernels::kGemmTileK)); // dlis-lint: allow(kernel-pricing)
    return u * (K + tiles + 2.0) * A;
}

/** Positive / negative / absolute sums of one weight group. */
struct WeightSums
{
    double pos = 0.0, neg = 0.0, abs = 0.0;

    void
    add(double w)
    {
        if (w >= 0)
            pos += w;
        else
            neg += w;
        abs += std::fabs(w);
    }
};

/** Walks the network, carrying a ValueRange and an NCHW shape. */
class RangeWalker
{
  public:
    RangeWalker(const Shape &input, const Interval &inputRange)
        : shape_(input)
    {
        vr_.ch.assign(1, inputRange);
        if (input.rank() == 4 && input.c() > 0)
            vr_.ch.assign(input.c(), inputRange);
    }

    RangeReport report;

    void
    run(const Network &net)
    {
        for (const auto &layer : net.layers()) {
            UnitAnalysis ua;
            ua.layer = layer.get();
            ua.name = layer->name();
            if (!visit(*layer, ua)) {
                report.complete = false;
                return;
            }
            ua.out = vr_;
            report.units.push_back(std::move(ua));
            if (!checkOverflow(layer->name())) {
                report.complete = false;
                return;
            }
        }
    }

  private:
    ValueRange vr_;
    Shape shape_;
    // Last dense conv unit, for the report-only BN-fold term.
    long lastConvUnit_ = -1;
    double lastConvA_ = 0.0;

    bool
    checkOverflow(const std::string &name)
    {
        for (const Interval &iv : vr_.ch) {
            if (iv.overflowsFloatRange()) {
                diag(report.diagnostics, Severity::Error,
                     Check::ActivationOverflow, name,
                     "activation interval " + iv.str() +
                         " escapes float range; a forward can "
                         "produce Inf/NaN from in-range inputs");
                return false;
            }
        }
        return true;
    }

    /** Advance the shape; false stops the walk (verifier owns the
     *  BadShape diagnostic, so stop silently). */
    bool
    advanceShape(const Layer &layer)
    {
        try {
            shape_ = layer.outputShape(shape_);
            return true;
        } catch (const FatalError &) {
            return false;
        }
    }

    /** Collapse to a single hull interval over @p groups groups. */
    void
    normalizeGroups(size_t groups)
    {
        if (vr_.groups() != groups && vr_.groups() != 1)
            vr_.ch.assign(1, vr_.overall());
    }

    bool
    nonFinite(const std::string &name, const char *what)
    {
        diag(report.diagnostics, Severity::Error,
             Check::NonFiniteWeight, name,
             std::string(what) +
                 " contains NaN/Inf; every forward is poisoned");
        return false;
    }

    bool
    visitConv(const Conv2d &conv, UnitAnalysis &ua)
    {
        const size_t cin = conv.cin(), cout = conv.cout();
        const size_t kk = conv.kernel() * conv.kernel();
        normalizeGroups(cin);

        // Zero padding makes 0 a reachable operand of every tap.
        std::vector<Interval> in(cin);
        std::vector<double> inMag(cin);
        for (size_t ci = 0; ci < cin; ++ci) {
            in[ci] = conv.pad() > 0 ? vr_.at(ci).withZero()
                                    : vr_.at(ci);
            inMag[ci] = in[ci].magnitude();
        }

        const bool dense = conv.format() == WeightFormat::Dense;
        const bool ternary =
            conv.format() == WeightFormat::PackedTernary;
        if (dense && !tensorFinite(conv.weight()))
            return nonFinite(conv.name(), "weight tensor");
        if (conv.hasBias() && !tensorFinite(conv.bias()))
            return nonFinite(conv.name(), "bias vector");
        if (ternary) {
            const PackedTernary &p = conv.packedWeight();
            if (!std::isfinite(p.wp()) || !std::isfinite(p.wn()))
                return nonFinite(conv.name(), "ternary codebook");
        }

        std::vector<Interval> out(cout);
        double A = 0.0, L = 0.0, maxNnz = 0.0;
        for (size_t o = 0; o < cout; ++o) {
            const double b =
                conv.hasBias() ? double(conv.bias().data()[o]) : 0.0;
            Interval acc = Interval::point(b);
            double absWM = std::fabs(b), absW = 0.0, nnz = 0.0;
            for (size_t ci = 0; ci < cin; ++ci) {
                WeightSums ws;
                if (dense) {
                    const float *w = conv.weight().data() +
                                     (o * cin + ci) * kk;
                    for (size_t t = 0; t < kk; ++t)
                        ws.add(w[t]);
                    nnz += double(kk);
                } else if (conv.format() == WeightFormat::Csr) {
                    const CsrSlice &s = conv.csrWeight().slice(o, ci);
                    for (float v : s.values) {
                        if (!std::isfinite(v))
                            return nonFinite(conv.name(),
                                             "CSR values");
                        ws.add(v);
                    }
                    nnz += double(s.nnz());
                } else { // PackedTernary
                    const PackedTernary &p = conv.packedWeight();
                    const size_t base = (o * cin + ci) * kk;
                    for (size_t t = 0; t < kk; ++t) {
                        const float v = p.decode(base + t);
                        if (v != 0.0f) {
                            ws.add(v);
                            nnz += 1.0;
                        }
                    }
                }
                acc += in[ci].scaled(ws.pos) + in[ci].scaled(ws.neg);
                absWM += ws.abs * inMag[ci];
                absW += ws.abs;
            }
            out[o] = acc;
            A = std::max(A, absWM);
            L = std::max(L, absW);
            maxNnz = std::max(maxNnz, nnz);
        }

        const double K = maxNnz > 0 ? maxNnz : 1.0;
        ua.amplification = L;
        ua.deltaDirect = directDelta(K, A);
        if (dense) {
            ua.deltaIm2col = im2colDelta(double(cin) * double(kk), A);
            ua.algoSensitive = true;
        } else {
            // Sparse formats pin the direct kernel on every backend.
            ua.deltaIm2col = ua.deltaDirect;
        }
        if (ternary) {
            // Residual vs pre-quantisation weights: each tap moved by
            // at most max(wp, wn) (kept taps snap to the codebook,
            // dropped taps were below the TWN threshold, itself below
            // the codebook scales).
            const PackedTernary &p = conv.packedWeight();
            const double r =
                std::max(std::fabs(double(p.wp())),
                         std::fabs(double(p.wn())));
            double sumM = 0.0;
            for (size_t ci = 0; ci < cin; ++ci)
                sumM += inMag[ci];
            ua.quantResidual = r * double(kk) * sumM;
        }

        lastConvUnit_ = dense ? long(report.units.size()) : -1;
        lastConvA_ = A;
        vr_.ch = std::move(out);
        return advanceShape(conv);
    }

    bool
    visitDepthwise(const DepthwiseConv2d &dw, UnitAnalysis &ua)
    {
        const size_t c = dw.channels();
        const size_t kk = dw.kernel() * dw.kernel();
        normalizeGroups(c);
        if (!tensorFinite(dw.weight()))
            return nonFinite(dw.name(), "weight tensor");

        std::vector<Interval> out(c);
        double A = 0.0, L = 0.0;
        for (size_t ch = 0; ch < c; ++ch) {
            const Interval in = dw.pad() > 0 ? vr_.at(ch).withZero()
                                             : vr_.at(ch);
            WeightSums ws;
            const float *w = dw.weight().data() + ch * kk;
            for (size_t t = 0; t < kk; ++t)
                ws.add(w[t]);
            double b = 0.0;
            if (dw.hasBias()) {
                if (!std::isfinite(dw.bias().data()[ch]))
                    return nonFinite(dw.name(), "bias vector");
                b = dw.bias().data()[ch];
            }
            out[ch] = in.scaled(ws.pos) + in.scaled(ws.neg) +
                      Interval::point(b);
            A = std::max(A,
                         ws.abs * in.magnitude() + std::fabs(b));
            L = std::max(L, ws.abs);
        }
        ua.amplification = L;
        ua.deltaDirect = directDelta(double(kk), A);
        ua.deltaIm2col = ua.deltaDirect;
        lastConvUnit_ = -1;
        vr_.ch = std::move(out);
        return advanceShape(dw);
    }

    bool
    visitBatchNorm(const BatchNorm2d &bn, UnitAnalysis &ua)
    {
        const size_t c = bn.channels();
        normalizeGroups(c);
        if (!tensorFinite(bn.gamma()) || !tensorFinite(bn.beta()) ||
            !tensorFinite(bn.runningMean()) ||
            !tensorFinite(bn.runningVar()))
            return nonFinite(bn.name(), "batch-norm statistics");

        std::vector<Interval> out(c);
        double L = 0.0, deltaM = 0.0;
        for (size_t ch = 0; ch < c; ++ch) {
            const double var = bn.runningVar().data()[ch];
            const double denom = var + double(bn.eps());
            if (!(denom > 0.0)) {
                diag(report.diagnostics, Severity::Error,
                     Check::NonFiniteWeight, bn.name(),
                     "running variance + eps is non-positive for "
                     "channel " +
                         std::to_string(ch) +
                         "; the inference scale is NaN");
                return false;
            }
            const double scale =
                double(bn.gamma().data()[ch]) / std::sqrt(denom);
            const double shift =
                double(bn.beta().data()[ch]) -
                scale * double(bn.runningMean().data()[ch]);
            out[ch] = vr_.at(ch).affine(scale, shift);
            L = std::max(L, std::fabs(scale));
            deltaM = std::max(
                deltaM, std::fabs(scale) * vr_.at(ch).magnitude() +
                            out[ch].magnitude());
        }
        ua.amplification = L;
        // Precomputed scale, one multiply, one add: ~4 roundings on
        // operands bounded by deltaM.
        ua.deltaDirect = 4.0 * u * deltaM;
        ua.deltaIm2col = ua.deltaDirect;
        // Report-only: folding this BN into the preceding dense conv
        // re-rounds every weight once.
        if (lastConvUnit_ >= 0 &&
            size_t(lastConvUnit_) == report.units.size() - 1)
            report.units[size_t(lastConvUnit_)].bnFoldDelta =
                u * L * lastConvA_;
        lastConvUnit_ = -1;
        vr_.ch = std::move(out);
        return advanceShape(bn);
    }

    bool
    visitLinear(const Linear &fc, UnitAnalysis &ua)
    {
        const size_t ni = fc.inFeatures(), no = fc.outFeatures();
        normalizeGroups(ni);
        const bool csr = fc.format() == WeightFormat::Csr;
        if (!csr && !tensorFinite(fc.weight()))
            return nonFinite(fc.name(), "weight matrix");
        if (!tensorFinite(fc.bias()))
            return nonFinite(fc.name(), "bias vector");

        std::vector<Interval> out(no);
        double A = 0.0, L = 0.0;
        for (size_t o = 0; o < no; ++o) {
            const double b = double(fc.bias().data()[o]);
            Interval acc = Interval::point(b);
            double absWM = std::fabs(b), absW = 0.0;
            if (csr) {
                const CsrMatrix &m = fc.csrWeight();
                for (int32_t e = m.rowPtr()[o];
                     e < m.rowPtr()[o + 1]; ++e) {
                    const double w = m.values()[size_t(e)];
                    if (!std::isfinite(w))
                        return nonFinite(fc.name(), "CSR values");
                    const Interval &in =
                        vr_.at(size_t(m.colIdx()[size_t(e)]));
                    acc += in.scaled(w);
                    absWM += std::fabs(w) * in.magnitude();
                    absW += std::fabs(w);
                }
            } else {
                const float *w = fc.weight().data() + o * ni;
                for (size_t i = 0; i < ni; ++i) {
                    const Interval &in = vr_.at(i);
                    acc += in.scaled(w[i]);
                    absWM += std::fabs(double(w[i])) * in.magnitude();
                    absW += std::fabs(double(w[i]));
                }
            }
            out[o] = acc;
            A = std::max(A, absWM);
            L = std::max(L, absW);
        }
        ua.amplification = L;
        // Linear dispatches the tiled GEMM under every algorithm.
        ua.deltaDirect = im2colDelta(double(ni), A);
        ua.deltaIm2col = ua.deltaDirect;
        lastConvUnit_ = -1;
        vr_.ch = std::move(out);
        return advanceShape(fc);
    }

    bool
    visitRelu(const ReLU &r, UnitAnalysis &ua)
    {
        size_t dead = 0;
        for (Interval &iv : vr_.ch) {
            if (iv.hi <= 0.0)
                ++dead;
            iv = iv.relu();
        }
        if (dead > 0 && vr_.groups() > 0) {
            const bool all = dead == vr_.groups();
            diag(report.diagnostics,
                 all ? Severity::Warning : Severity::Info,
                 Check::DeadOutput, r.name(),
                 all ? "every output is provably <= 0; the layer "
                       "(and everything after it) computes zeros"
                     : std::to_string(dead) + " of " +
                           std::to_string(vr_.groups()) +
                           " channel intervals are pinned <= 0 "
                           "(provably-dead outputs)");
        }
        ua.amplification = 1.0;
        lastConvUnit_ = -1;
        return advanceShape(r);
    }

    bool
    visitGlobalAvgPool(const GlobalAvgPool &gap, UnitAnalysis &ua)
    {
        const double hw = shape_.rank() == 4
                              ? double(shape_.h() * shape_.w())
                              : 1.0;
        ua.amplification = 1.0;
        ua.deltaDirect = u * (hw + 1.0) * vr_.magnitude();
        ua.deltaIm2col = ua.deltaDirect;
        lastConvUnit_ = -1;
        return advanceShape(gap); // averages stay in the hull
    }

    /** Shared interval/error handling for the block's inner chain. */
    struct ChainState
    {
        double L = 1.0;
        double dDirect = 0.0, dIm2col = 0.0;

        void
        compose(const UnitAnalysis &ua)
        {
            dDirect = ua.amplification * dDirect + ua.deltaDirect;
            dIm2col = ua.amplification * dIm2col + ua.deltaIm2col;
            L *= ua.amplification;
        }
    };

    bool
    visitResidual(const ResidualBlock &block, UnitAnalysis &ua)
    {
        const ValueRange in = vr_;
        const Shape inShape = shape_;

        ChainState main;
        auto step = [&](auto &layer, auto visitFn) {
            UnitAnalysis sub;
            sub.layer = &layer;
            sub.name = layer.name();
            if (!(this->*visitFn)(layer, sub))
                return false;
            main.compose(sub);
            return checkOverflow(layer.name());
        };
        if (!step(block.conv1(), &RangeWalker::visitConv) ||
            !step(block.bn1(), &RangeWalker::visitBatchNorm))
            return false;
        {
            UnitAnalysis sub;
            if (!visitRelu(block.relu1(), sub))
                return false;
            main.compose(sub);
        }
        if (!step(block.conv2(), &RangeWalker::visitConv) ||
            !step(block.bn2(), &RangeWalker::visitBatchNorm))
            return false;
        ValueRange mainVr = vr_;
        const Shape mainShape = shape_;

        ChainState skip;
        ValueRange skipVr = in;
        if (const Conv2d *proj = block.projection()) {
            vr_ = in;
            shape_ = inShape;
            UnitAnalysis sub;
            if (!visitConv(*proj, sub) ||
                !checkOverflow(proj->name()))
                return false;
            skip.compose(sub);
            UnitAnalysis subBn;
            if (!visitBatchNorm(*block.projectionBn(), subBn))
                return false;
            skip.compose(subBn);
            skipVr = vr_;
        }

        // In-place skip-add, then the closing ReLU. Both paths see
        // the same input error, so gains add across paths.
        const size_t groups =
            std::max(mainVr.groups(), skipVr.groups());
        std::vector<Interval> sum(groups);
        for (size_t c = 0; c < groups; ++c)
            sum[c] = (mainVr.at(c) + skipVr.at(c)).relu();
        const double addRound =
            u * (mainVr.magnitude() + skipVr.magnitude());

        ua.amplification = main.L + skip.L;
        ua.deltaDirect = main.dDirect + skip.dDirect + addRound;
        ua.deltaIm2col = main.dIm2col + skip.dIm2col + addRound;
        ua.algoSensitive = true;

        vr_.ch = std::move(sum);
        shape_ = mainShape;
        lastConvUnit_ = -1;
        return true;
    }

    bool
    visit(const Layer &layer, UnitAnalysis &ua)
    {
        if (const auto *conv = dynamic_cast<const Conv2d *>(&layer))
            return visitConv(*conv, ua);
        if (const auto *dw =
                dynamic_cast<const DepthwiseConv2d *>(&layer))
            return visitDepthwise(*dw, ua);
        if (const auto *bn =
                dynamic_cast<const BatchNorm2d *>(&layer))
            return visitBatchNorm(*bn, ua);
        if (const auto *fc = dynamic_cast<const Linear *>(&layer))
            return visitLinear(*fc, ua);
        if (const auto *r = dynamic_cast<const ReLU *>(&layer))
            return visitRelu(*r, ua);
        if (const auto *gap =
                dynamic_cast<const GlobalAvgPool *>(&layer))
            return visitGlobalAvgPool(*gap, ua);
        if (const auto *block =
                dynamic_cast<const ResidualBlock *>(&layer))
            return visitResidual(*block, ua);
        if (dynamic_cast<const Flatten *>(&layer)) {
            // Channels mix into one feature axis: collapse to the
            // hull so downstream per-feature reads stay sound.
            vr_.ch.assign(1, vr_.overall());
            lastConvUnit_ = -1;
            return advanceShape(layer);
        }
        // MaxPool and anything value-preserving: max/copies of
        // in-interval values stay in-interval.
        lastConvUnit_ = -1;
        return advanceShape(layer);
    }
};

} // namespace

RangeReport
propagateRanges(const Network &net, const Shape &input,
                const Interval &inputRange)
{
    RangeWalker walker(input, inputRange);
    walker.run(net);
    return walker.report;
}

} // namespace dlis::analysis
