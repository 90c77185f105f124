/**
 * @file
 * ResNet basic block: two 3x3 convolutions with a skip connection.
 *
 * The block is a composite Layer so the network stays sequential. Its
 * internal structure is exposed for Fisher pruning: only the first
 * convolution's output channels are prunable — "only layers between the
 * shortcuts can be pruned" (paper §V-B2) — because the second
 * convolution must restore the trunk width for the elementwise add.
 */

#ifndef DLIS_NN_RESIDUAL_BLOCK_HPP
#define DLIS_NN_RESIDUAL_BLOCK_HPP

#include <memory>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/layer.hpp"

namespace dlis {

/** conv-bn-relu-conv-bn plus (optionally projected) identity, relu. */
class ResidualBlock : public Layer
{
  public:
    /**
     * @param cin     trunk input channels
     * @param cout    trunk output channels
     * @param stride  stride of the first conv (2 when downsampling);
     *                a 1x1 projection is added when stride != 1 or
     *                cin != cout
     */
    ResidualBlock(std::string name, size_t cin, size_t cout,
                  size_t stride);

    /** Initialise all weights Kaiming-style. */
    void initKaiming(Rng &rng);

    Shape outputShape(const Shape &input) const override;
    Tensor forward(const Tensor &input, ExecContext &ctx) override;
    Tensor backward(const Tensor &gradOut, ExecContext &ctx) override;
    std::vector<Tensor *> parameters() override;
    std::vector<Tensor *> gradients() override;
    LayerCost cost(const Shape &input) const override;
    ParamBytes paramBytes() const override;
    ForwardBytes forwardBytes(const Shape &input,
                              const LayerExecOverride &exec) const override;
    /** Its convolutions' common point, else the request itself. */
    std::optional<LayerExecOverride>
    resolveExec(const LayerExecOverride &requested) const override;

    /** @name Internal structure (for pruning and format changes). */
    /** @{ */
    Conv2d &conv1() { return *conv1_; }
    Conv2d &conv2() { return *conv2_; }
    BatchNorm2d &bn1() { return *bn1_; }
    BatchNorm2d &bn2() { return *bn2_; }
    ReLU &relu1() { return *relu1_; }
    Conv2d *projection() { return proj_.get(); }
    BatchNorm2d *projectionBn() { return projBn_.get(); }

    const ReLU &relu1() const { return *relu1_; }
    const Conv2d &conv1() const { return *conv1_; }
    const Conv2d &conv2() const { return *conv2_; }
    const BatchNorm2d &bn1() const { return *bn1_; }
    const BatchNorm2d &bn2() const { return *bn2_; }
    const Conv2d *projection() const { return proj_.get(); }
    const BatchNorm2d *projectionBn() const { return projBn_.get(); }
    /** @} */

    /** Per-stage costs (the block has several sync points inside). */
    std::vector<LayerCost> stageCosts(const Shape &input) const;

  private:
    std::unique_ptr<Conv2d> conv1_;
    std::unique_ptr<BatchNorm2d> bn1_;
    std::unique_ptr<ReLU> relu1_;
    std::unique_ptr<Conv2d> conv2_;
    std::unique_ptr<BatchNorm2d> bn2_;
    std::unique_ptr<Conv2d> proj_;      //!< 1x1 projection (optional)
    std::unique_ptr<BatchNorm2d> projBn_;
    std::unique_ptr<ReLU> relu2_;

    Tensor cachedSum_; //!< pre-relu2 sum for backward
};

} // namespace dlis

#endif // DLIS_NN_RESIDUAL_BLOCK_HPP
