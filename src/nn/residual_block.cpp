#include "nn/residual_block.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace dlis {

ResidualBlock::ResidualBlock(std::string name, size_t cin, size_t cout,
                             size_t stride)
    : Layer(std::move(name))
{
    conv1_ = std::make_unique<Conv2d>(name_ + ".conv1", cin, cout, 3,
                                      stride, 1, /*withBias=*/false);
    bn1_ = std::make_unique<BatchNorm2d>(name_ + ".bn1", cout);
    relu1_ = std::make_unique<ReLU>(name_ + ".relu1");
    conv2_ = std::make_unique<Conv2d>(name_ + ".conv2", cout, cout, 3, 1,
                                      1, /*withBias=*/false);
    bn2_ = std::make_unique<BatchNorm2d>(name_ + ".bn2", cout);
    relu2_ = std::make_unique<ReLU>(name_ + ".relu2");
    if (stride != 1 || cin != cout) {
        proj_ = std::make_unique<Conv2d>(name_ + ".proj", cin, cout, 1,
                                         stride, 0, /*withBias=*/false);
        projBn_ = std::make_unique<BatchNorm2d>(name_ + ".projbn", cout);
    }
}

void
ResidualBlock::initKaiming(Rng &rng)
{
    conv1_->initKaiming(rng);
    conv2_->initKaiming(rng);
    if (proj_)
        proj_->initKaiming(rng);
}

Shape
ResidualBlock::outputShape(const Shape &input) const
{
    Shape s = conv1_->outputShape(input);
    return conv2_->outputShape(s);
}

Tensor
ResidualBlock::forward(const Tensor &input, ExecContext &ctx)
{
    // Nested spans for the compute-heavy internal stages so block
    // traces decompose the same way stageCosts does.
    Tensor main;
    {
        obs::TraceSpan span(ctx.tracer, conv1_->name(), "layer");
        main = conv1_->forward(input, ctx);
    }
    main = bn1_->forward(main, ctx);
    main = relu1_->forward(main, ctx);
    {
        obs::TraceSpan span(ctx.tracer, conv2_->name(), "layer");
        main = conv2_->forward(main, ctx);
    }
    main = bn2_->forward(main, ctx);

    if (proj_) {
        obs::TraceSpan span(ctx.tracer, proj_->name(), "layer");
        Tensor skip = proj_->forward(input, ctx);
        span.finish();
        skip = projBn_->forward(skip, ctx);
        main.addInPlace(skip); // released before relu2 allocates
    } else {
        main.addInPlace(input); // identity: no input copy
    }
    if (ctx.training)
        cachedSum_ = main;
    return relu2_->forward(main, ctx);
}

ParamBytes
ResidualBlock::paramBytes() const
{
    ParamBytes total;
    for (const Layer *l : std::initializer_list<const Layer *>{
             conv1_.get(), bn1_.get(), conv2_.get(), bn2_.get(),
             proj_.get(), projBn_.get()}) {
        if (l) {
            total.weights += l->paramBytes().weights;
            total.sparseMeta += l->paramBytes().sparseMeta;
        }
    }
    return total;
}

ForwardBytes
ResidualBlock::forwardBytes(const Shape &input,
                            const LayerExecOverride &exec) const
{
    // The stages in forward()'s order. The caller holds the block
    // input; `held` is what the block holds besides it while a stage
    // runs. Every tensor past conv1 has the block's output shape.
    ForwardBytes total;
    auto stage = [&](const Layer &layer, const Shape &in, size_t held) {
        const ForwardBytes b = layer.forwardBytes(in, exec);
        total.activations =
            std::max(total.activations, held + b.activations);
        total.scratch = std::max(total.scratch, b.scratch);
        return layer.outputShape(in);
    };
    const size_t out = outputShape(input).numel() * sizeof(float);
    Shape main = stage(*conv1_, input, 0);
    main = stage(*bn1_, main, out);
    main = stage(*relu1_, main, out);
    main = stage(*conv2_, main, out);
    main = stage(*bn2_, main, out);
    if (proj_)
        stage(*projBn_, stage(*proj_, input, out), 2 * out);
    stage(*relu2_, main, out);
    return total;
}

std::optional<LayerExecOverride>
ResidualBlock::resolveExec(const LayerExecOverride &requested) const
{
    std::optional<LayerExecOverride> common;
    bool agree = true;
    for (const Conv2d *conv : {conv1_.get(), conv2_.get(), proj_.get()}) {
        if (!conv)
            continue;
        const std::optional<LayerExecOverride> ran =
            conv->resolveExec(requested);
        if (!ran)
            return std::nullopt;
        agree = agree && (!common || *common == *ran);
        common = ran;
    }
    if (agree)
        return common;
    // Only a CPU request splits the convolutions (a sparse one pins
    // direct where a dense one runs im2col); the block runs it as asked.
    return cpuExec(requested, requested.convAlgo);
}

Tensor
ResidualBlock::backward(const Tensor &gradOut, ExecContext &ctx)
{
    Tensor g = relu2_->backward(gradOut, ctx);

    // The sum node fans the gradient out to both paths.
    Tensor g_main = bn2_->backward(g, ctx);
    g_main = conv2_->backward(g_main, ctx);
    g_main = relu1_->backward(g_main, ctx);
    g_main = bn1_->backward(g_main, ctx);
    g_main = conv1_->backward(g_main, ctx);

    if (proj_) {
        Tensor g_skip = projBn_->backward(g, ctx);
        g_skip = proj_->backward(g_skip, ctx);
        g_main.addInPlace(g_skip);
    } else {
        g_main.addInPlace(g);
    }
    return g_main;
}

std::vector<Tensor *>
ResidualBlock::parameters()
{
    std::vector<Tensor *> out;
    auto append = [&out](Layer &l) {
        for (Tensor *p : l.parameters())
            out.push_back(p);
    };
    append(*conv1_);
    append(*bn1_);
    append(*conv2_);
    append(*bn2_);
    if (proj_) {
        append(*proj_);
        append(*projBn_);
    }
    return out;
}

std::vector<Tensor *>
ResidualBlock::gradients()
{
    std::vector<Tensor *> out;
    auto append = [&out](Layer &l) {
        for (Tensor *g : l.gradients())
            out.push_back(g);
    };
    append(*conv1_);
    append(*bn1_);
    append(*conv2_);
    append(*bn2_);
    if (proj_) {
        append(*proj_);
        append(*projBn_);
    }
    return out;
}

std::vector<LayerCost>
ResidualBlock::stageCosts(const Shape &input) const
{
    std::vector<LayerCost> out;
    Shape s = input;
    out.push_back(conv1_->cost(s));
    s = conv1_->outputShape(s);
    out.push_back(bn1_->cost(s));
    out.push_back(relu1_->cost(s));
    out.push_back(conv2_->cost(s));
    Shape s2 = conv2_->outputShape(s);
    out.push_back(bn2_->cost(s2));
    if (proj_) {
        out.push_back(proj_->cost(input));
        out.push_back(projBn_->cost(s2));
    }
    out.push_back(relu2_->cost(s2));
    return out;
}

LayerCost
ResidualBlock::cost(const Shape &input) const
{
    // Aggregate view; the hardware model should prefer stageCosts().
    LayerCost total;
    total.name = name_;
    total.parallel = true;
    for (const LayerCost &c : stageCosts(input)) {
        total.denseMacs += c.denseMacs;
        total.macs += c.macs;
        total.params += c.params;
        total.weightBytes += c.weightBytes;
        total.sparseTraversal |= c.sparseTraversal;
    }
    total.inputBytes = input.numel() * sizeof(float);
    total.outputBytes = outputShape(input).numel() * sizeof(float);
    return total;
}

} // namespace dlis
