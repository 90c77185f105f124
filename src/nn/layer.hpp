/**
 * @file
 * Abstract network layer.
 *
 * Layers own their parameters and gradients, support forward on any
 * backend and backward on the serial backend (training always runs
 * serially; the paper trains offline and characterises inference).
 */

#ifndef DLIS_NN_LAYER_HPP
#define DLIS_NN_LAYER_HPP

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/tensor.hpp"
#include "nn/exec_context.hpp"

namespace dlis {

/** Parameter bytes a layer holds, in MemoryTracker classes. */
struct ParamBytes
{
    size_t weights = 0;    //!< MemClass::Weights
    size_t sparseMeta = 0; //!< MemClass::SparseMeta
};

/** What one inference forward allocates beyond its (live) input. */
struct ForwardBytes
{
    size_t activations = 0; //!< peak at once, the output included
    size_t scratch = 0;     //!< arena bytes carved in the layer's scope
};

/** Base class of every network layer. */
class Layer
{
  public:
    explicit Layer(std::string name) : name_(std::move(name)) {}
    virtual ~Layer() = default;

    Layer(const Layer &) = delete;
    Layer &operator=(const Layer &) = delete;

    /** Layer's display name (e.g. "conv3"). */
    const std::string &name() const { return name_; }

    /** Shape this layer produces for @p input shape. */
    virtual Shape outputShape(const Shape &input) const = 0;

    /** Run the layer. With ctx.training the input is cached. */
    virtual Tensor forward(const Tensor &input, ExecContext &ctx) = 0;

    /**
     * Back-propagate: consume dL/d(output), accumulate parameter
     * gradients, return dL/d(input). Requires a prior training-mode
     * forward. Layers that are inference-only throw.
     */
    virtual Tensor backward(const Tensor &gradOut, ExecContext &ctx);

    /** Trainable parameter tensors (may be empty). */
    virtual std::vector<Tensor *> parameters() { return {}; }

    /** Gradient tensors, aligned with parameters(). */
    virtual std::vector<Tensor *> gradients() { return {}; }

    /** Zero all gradient tensors. */
    void zeroGrad();

    /** Cost facts for an input of the given shape. */
    virtual LayerCost cost(const Shape &input) const;

    /** Parameter bytes the layer holds (default: none). */
    virtual ParamBytes paramBytes() const { return {}; }

    /**
     * Bytes an inference forward() of @p input allocates at the point
     * @p exec, along forward()'s own dispatch (default: the output).
     */
    virtual ForwardBytes
    forwardBytes(const Shape &input,
                 [[maybe_unused]] const LayerExecOverride &exec) const
    {
        return {outputShape(input).numel() * sizeof(float), 0};
    }

    /**
     * The canonical point forward() executes when @p requested is
     * asked for, or nullopt when forward() cannot run there and
     * throws FatalError. Every static check, the plan validator and
     * the tuner's search space ask this one function (default: the
     * CPU direct kernel, threaded as the CPU kernels are).
     */
    virtual std::optional<LayerExecOverride>
    resolveExec(const LayerExecOverride &requested) const
    {
        return cpuExec(requested, ConvAlgo::Direct);
    }

    /** Total trainable parameter count. */
    size_t parameterCount();

  protected:
    /**
     * ctx.policy() with this layer's counter handles attached when
     * ctx.metrics is set, so kernel counts are attributed under this
     * layer's name. One registry acquisition per layer invocation.
     */
    KernelPolicy kernelPolicy(const ExecContext &ctx) const;

    std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace dlis

#endif // DLIS_NN_LAYER_HPP
