#include "nn/linear.hpp"

#include <algorithm>

#include "backend/linear_kernels.hpp"
#include "core/scratch_arena.hpp"

namespace dlis {

Linear::Linear(std::string name, size_t inFeatures, size_t outFeatures)
    : Layer(std::move(name)),
      inFeatures_(inFeatures), outFeatures_(outFeatures),
      weight_(Shape{outFeatures, inFeatures}, MemClass::Weights),
      bias_(Shape{outFeatures}, MemClass::Weights),
      gradWeight_(Shape{outFeatures, inFeatures}, MemClass::Other),
      gradBias_(Shape{outFeatures}, MemClass::Other)
{
    DLIS_CHECK(inFeatures > 0 && outFeatures > 0,
               "linear '", name_, "' has a zero dimension");
}

void
Linear::initKaiming(Rng &rng)
{
    DLIS_CHECK(format_ == WeightFormat::Dense,
               "cannot re-init CSR-format weights");
    weight_.fillKaiming(rng);
    bias_.fill(0.0f);
}

Shape
Linear::outputShape(const Shape &input) const
{
    DLIS_CHECK(input.rank() >= 1, "linear needs a batched input");
    const size_t batch = input[0];
    DLIS_CHECK(input.numel() == batch * inFeatures_,
               "linear '", name_, "' expects ", inFeatures_,
               " features per item, got shape ", input.str());
    return Shape{batch, outFeatures_};
}

Tensor
Linear::forward(const Tensor &input, ExecContext &ctx)
{
    if (ctx.training) {
        DLIS_CHECK(format_ == WeightFormat::Dense,
                   "training requires dense weights in '", name_, "'");
        cachedInput_ = input;
    }
    const size_t batch = input.shape()[0];
    Tensor out(outputShape(input.shape()));

    if (format_ == WeightFormat::Csr) {
        kernels::linearCsr(input.data(), *csr_, bias_.data(), out.data(),
                           batch, inFeatures_, outFeatures_,
                           kernelPolicy(ctx));
    } else if (libraryRoute(ctx.backend)) {
        // Deployment routes fully-connected layers through the same
        // tuned GEMM library as the convolutions (the hardware cost
        // model already bills them as library calls):
        // out^T [outF, batch] = W [outF, inF] x in^T [inF, batch].
        DLIS_CHECK(ctx.gemmLib,
                   "OclGemmLib backend needs ctx.gemmLib");
        const KernelPolicy pol = kernelPolicy(ctx);
        ScratchArena localArena;
        ScratchArena &ar = pol.arena ? *pol.arena : localArena;
        ScratchArena::Scope scope(ar, pol.counters);
        if (ctx.queue)
            ctx.queue->recordTransfer(
                input.bytes() + weight_.bytes() + bias_.bytes(), true);
        if (batch == 1) {
            // A single row needs no staging: in [1, inF] already has
            // in^T's layout and C [outF, 1] has out's.
            ctx.gemmLib->gemm(weight_.data(), input.data(), out.data(),
                              outFeatures_, inFeatures_, 1, pol);
            for (size_t o = 0; o < outFeatures_; ++o)
                out[o] += bias_[o];
        } else {
            float *in_t =
                static_cast<float *>(ar.alloc(stagingBytes(batch)));
            float *out_t = in_t + inFeatures_ * batch;
            for (size_t b = 0; b < batch; ++b)
                for (size_t i = 0; i < inFeatures_; ++i)
                    in_t[i * batch + b] =
                        input.data()[b * inFeatures_ + i];
            ctx.gemmLib->gemm(weight_.data(), in_t, out_t,
                              outFeatures_, inFeatures_, batch, pol);
            for (size_t b = 0; b < batch; ++b)
                for (size_t o = 0; o < outFeatures_; ++o)
                    out.data()[b * outFeatures_ + o] =
                        out_t[o * batch + b] + bias_[o];
        }
        if (ctx.queue)
            ctx.queue->recordTransfer(out.bytes(), false);
    } else {
        kernels::linearDense(input.data(), weight_.data(), bias_.data(),
                             out.data(), batch, inFeatures_,
                             outFeatures_, kernelPolicy(ctx));
    }
    return out;
}

Tensor
Linear::backward(const Tensor &gradOut, ExecContext &ctx)
{
    (void)ctx;
    DLIS_CHECK(cachedInput_.numel() > 0,
               "backward without training-mode forward in '", name_,
               "'");
    const size_t batch = cachedInput_.shape()[0];
    Tensor gradIn(cachedInput_.shape());

    for (size_t b = 0; b < batch; ++b) {
        const float *in_row = cachedInput_.data() + b * inFeatures_;
        const float *go_row = gradOut.data() + b * outFeatures_;
        float *gi_row = gradIn.data() + b * inFeatures_;
        for (size_t o = 0; o < outFeatures_; ++o) {
            const float g = go_row[o];
            gradBias_[o] += g;
            if (g == 0.0f)
                continue;
            const float *w_row = weight_.data() + o * inFeatures_;
            float *gw_row = gradWeight_.data() + o * inFeatures_;
            for (size_t i = 0; i < inFeatures_; ++i) {
                gw_row[i] += g * in_row[i];
                gi_row[i] += g * w_row[i];
            }
        }
    }
    return gradIn;
}

std::vector<Tensor *>
Linear::parameters()
{
    return {&weight_, &bias_};
}

std::vector<Tensor *>
Linear::gradients()
{
    return {&gradWeight_, &gradBias_};
}

LayerCost
Linear::cost(const Shape &input) const
{
    const size_t batch = input[0];
    LayerCost c;
    c.name = name_;
    c.denseMacs = batch * inFeatures_ * outFeatures_;
    c.params = outFeatures_ * (inFeatures_ + 1);
    c.inputBytes = input.numel() * sizeof(float);
    c.outputBytes = batch * outFeatures_ * sizeof(float);
    c.parallel = true;
    c.gemmM = outFeatures_;
    c.gemmK = inFeatures_;
    c.gemmN = 1;
    c.images = batch;
    if (format_ == WeightFormat::Csr) {
        c.macs = batch * csr_->nnz();
        c.weightBytes = csr_->storageBytes() + bias_.bytes();
        c.sparseTraversal = true;
        c.sparseRowVisits = batch * outFeatures_;
    } else {
        c.macs = c.denseMacs;
        c.weightBytes = weight_.bytes() + bias_.bytes();
    }
    return c;
}

size_t
Linear::stagingBytes(size_t batch) const
{
    if (batch == 1)
        return 0;
    return ScratchArena::alignUp((inFeatures_ + outFeatures_) * batch *
                                 sizeof(float));
}

ParamBytes
Linear::paramBytes() const
{
    ParamBytes b{weight_.bytes() + bias_.bytes(), 0};
    if (format_ == WeightFormat::Csr) {
        b.weights += csr_->nnz() * sizeof(float);
        b.sparseMeta += csr_->metadataBytes();
    }
    return b;
}

bool
Linear::libraryRoute(Backend backend) const
{
    return format_ == WeightFormat::Dense && backend == Backend::OclGemmLib;
}

std::optional<LayerExecOverride>
Linear::resolveExec(const LayerExecOverride &requested) const
{
    if (libraryRoute(requested.backend))
        return LayerExecOverride{Backend::OclGemmLib, ConvAlgo::Im2colGemm,
                                 1};
    return cpuExec(requested, ConvAlgo::Direct);
}

ForwardBytes
Linear::forwardBytes(const Shape &input,
                     const LayerExecOverride &exec) const
{
    const size_t batch = outputShape(input)[0];
    ForwardBytes b{batch * outFeatures_ * sizeof(float), 0};
    if (libraryRoute(exec.backend)) // staging + library call
        b.scratch = stagingBytes(batch) +
                    gemmlib::GemmLibrary::scratchBytes(
                        outFeatures_, inFeatures_, batch,
                        kernelThreads(exec.backend, exec.threads));
    return b;
}

void
Linear::setFormat(WeightFormat format)
{
    if (format == format_)
        return;
    DLIS_CHECK(format != WeightFormat::PackedTernary, "linear '", name_,
               "' has no packed-ternary kernel");
    if (format == WeightFormat::Csr) {
        csr_ = CsrMatrix::fromDense(weight_.data(), outFeatures_,
                                    inFeatures_);
        weight_ = Tensor();
    } else {
        DLIS_ASSERT(csr_.has_value(), "CSR weights missing");
        weight_ = csr_->toDense();
        csr_.reset();
    }
    format_ = format;
}

const CsrMatrix &
Linear::csrWeight() const
{
    DLIS_CHECK(format_ == WeightFormat::Csr && csr_.has_value(),
               "linear '", name_, "' is not in CSR format");
    return *csr_;
}

void
Linear::keepInputChannels(const std::vector<size_t> &keep, size_t spatial)
{
    DLIS_CHECK(format_ == WeightFormat::Dense,
               "channel surgery requires dense weights in '", name_,
               "'");
    DLIS_CHECK(spatial > 0 && inFeatures_ % spatial == 0,
               "spatial ", spatial, " does not divide ", inFeatures_);
    const size_t channels = inFeatures_ / spatial;
    DLIS_CHECK(!keep.empty() && keep.back() < channels,
               "bad keep list for '", name_, "'");

    const size_t new_in = keep.size() * spatial;
    Tensor w(Shape{outFeatures_, new_in}, MemClass::Weights);
    for (size_t o = 0; o < outFeatures_; ++o) {
        for (size_t i = 0; i < keep.size(); ++i) {
            std::copy_n(
                weight_.data() + o * inFeatures_ + keep[i] * spatial,
                spatial, w.data() + o * new_in + i * spatial);
        }
    }
    weight_ = std::move(w);
    inFeatures_ = new_in;
    gradWeight_ = Tensor(Shape{outFeatures_, new_in}, MemClass::Other);
}

} // namespace dlis
