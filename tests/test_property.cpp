/**
 * @file
 * Cross-module property tests: invariants swept over randomised or
 * parameterised inputs rather than single examples.
 */

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/verifier.hpp"
#include "backend/gemmlib/tuned_gemm.hpp"
#include "backend/oclsim/ndrange.hpp"
#include "hw/cost_model.hpp"
#include "compress/magnitude_pruner.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/residual_block.hpp"
#include "nn/shape_walk.hpp"
#include "stack/inference_stack.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

using test::randomTensor;

// --- Batch decomposition: f(concat(a, b)) == concat(f(a), f(b)). ---

class BatchDecompositionTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(BatchDecompositionTest, BatchedForwardEqualsPerImage)
{
    Rng rng(1);
    Model m = makeModel(GetParam(), 10, 0.25, rng);

    Tensor batch = randomTensor(Shape{3, 3, 32, 32}, 2);
    ExecContext ctx;
    const Tensor batched = m.net.forward(batch, ctx);

    for (size_t img = 0; img < 3; ++img) {
        Tensor single(Shape{1, 3, 32, 32});
        std::copy_n(batch.data() + img * 3 * 32 * 32, 3 * 32 * 32,
                    single.data());
        const Tensor out = m.net.forward(single, ctx);
        for (size_t c = 0; c < 10; ++c)
            EXPECT_NEAR(out[c], batched[img * 10 + c], 1e-4f)
                << GetParam() << " img " << img;
    }
}

INSTANTIATE_TEST_SUITE_P(Models, BatchDecompositionTest,
                         ::testing::Values("vgg16", "resnet18",
                                           "mobilenet"));

// --- Determinism: same seed, same everything. ---

TEST(Determinism, ModelBuildAndForwardAreReproducible)
{
    for (const char *name : {"vgg16", "resnet18", "mobilenet"}) {
        Rng rng_a(7), rng_b(7);
        Model a = makeModel(name, 10, 0.25, rng_a);
        Model b = makeModel(name, 10, 0.25, rng_b);
        Tensor in = randomTensor(Shape{1, 3, 32, 32}, 8);
        ExecContext ctx;
        EXPECT_FLOAT_EQ(
            a.net.forward(in, ctx).maxAbsDiff(b.net.forward(in, ctx)),
            0.0f)
            << name;
    }
}

// --- CSR formats: round trip and byte monotonicity over sparsity. ---

class CsrSparsityTest : public ::testing::TestWithParam<int>
{
};

TEST_P(CsrSparsityTest, RoundTripAndMonotoneBytes)
{
    const double sparsity = GetParam() / 100.0;
    Tensor w = randomTensor(Shape{16, 16, 3, 3}, 10 + GetParam());
    Rng rng(20 + GetParam());
    for (size_t i = 0; i < w.numel(); ++i)
        if (rng.bernoulli(sparsity))
            w[i] = 0.0f;

    const CsrFilterBank bank = CsrFilterBank::fromFilter(w);
    EXPECT_FLOAT_EQ(bank.toDense().maxAbsDiff(w), 0.0f);

    // Bytes decrease as sparsity grows (same shape, fewer nnz).
    Tensor denser = randomTensor(Shape{16, 16, 3, 3}, 30);
    const CsrFilterBank dense_bank = CsrFilterBank::fromFilter(denser);
    if (sparsity > 0.1) {
        EXPECT_LT(bank.storageBytes(), dense_bank.storageBytes());
    }
}

INSTANTIATE_TEST_SUITE_P(Sparsities, CsrSparsityTest,
                         ::testing::Values(0, 25, 50, 75, 90, 99));

// --- Magnitude pruning hits any requested target. ---

class PruneTargetTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PruneTargetTest, AchievesRequestedSparsity)
{
    const double target = GetParam() / 100.0;
    Rng rng(40);
    Model m = makeVgg16(10, 0.125, rng);
    MagnitudePruner pruner;
    pruner.pruneToSparsity(m, target);
    EXPECT_NEAR(m.weightSparsity(), target, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Targets, PruneTargetTest,
                         ::testing::Values(10, 30, 50, 70, 85, 95));

// --- Channel pruning bisection hits any requested rate, any model. ---

struct CpCase
{
    const char *model;
    int ratePct;
};

class ChannelPruneRateTest : public ::testing::TestWithParam<CpCase>
{
};

TEST_P(ChannelPruneRateTest, AchievesRequestedRate)
{
    const auto [model, pct] = GetParam();
    StackConfig c;
    c.modelName = model;
    c.technique = Technique::ChannelPruning;
    c.cpRate = pct / 100.0;
    c.widthMult = 0.25;
    InferenceStack stack(c);
    EXPECT_NEAR(stack.achievedCompressionRate(), pct / 100.0, 0.05)
        << model;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ChannelPruneRateTest,
    ::testing::Values(CpCase{"vgg16", 30}, CpCase{"vgg16", 80},
                      CpCase{"resnet18", 40}, CpCase{"resnet18", 70},
                      CpCase{"mobilenet", 50},
                      CpCase{"mobilenet", 85}));

// --- Cost-model sanity sweeps. ---

TEST(CostModelProperties, MoreMacsNeverCheaper)
{
    const CostModel odroid(odroidXu4());
    LayerCost c;
    c.name = "conv";
    c.parallel = true;
    c.gemmK = 576;
    double prev = 0.0;
    for (size_t macs = 1'000'000; macs <= 256'000'000; macs *= 4) {
        c.macs = macs;
        c.denseMacs = macs;
        const double t = odroid.estimateCpu({c}, 1).total();
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(CostModelProperties, ThreadsNeverHelpBeyondCores)
{
    const CostModel i7(intelCoreI7());
    LayerCost c;
    c.name = "conv";
    c.parallel = true;
    c.macs = c.denseMacs = 100'000'000;
    c.gemmK = 576;
    const double t4 = i7.estimateCpu({c}, 4).total();
    const double t16 = i7.estimateCpu({c}, 16).total();
    EXPECT_GE(t16, t4); // oversubscription only adds overhead
}

TEST(CostModelProperties, SparserCsrLayerIsNeverSlower)
{
    const CostModel odroid(odroidXu4());
    // Same dense geometry, decreasing nnz.
    double prev = 1e30;
    for (double keep : {1.0, 0.6, 0.3, 0.1}) {
        LayerCost c;
        c.name = "conv";
        c.parallel = true;
        c.denseMacs = 100'000'000;
        c.macs = static_cast<size_t>(keep * 100'000'000);
        c.sparseTraversal = true;
        c.sparseRowVisits = 100'000'000 / 3;
        c.gemmK = 576;
        const double t = odroid.estimateCpu({c}, 1).total();
        EXPECT_LE(t, prev);
        prev = t;
    }
}

// --- Stage-cost conservation under techniques. ---

TEST(StageCostProperties, WeightPruningPreservesDenseMacs)
{
    // Pruning to CSR changes executed macs but never the dense
    // baseline the layer reports.
    StackConfig plain_c;
    plain_c.modelName = "vgg16";
    plain_c.widthMult = 0.25;
    InferenceStack plain(plain_c);

    StackConfig wp_c = plain_c;
    wp_c.technique = Technique::WeightPruning;
    wp_c.wpSparsity = 0.8;
    wp_c.format = WeightFormat::Csr;
    InferenceStack wp(wp_c);

    const auto a = plain.stageCosts();
    const auto b = wp.stageCosts();
    ASSERT_EQ(a.size(), b.size());
    size_t dense_a = 0, dense_b = 0, macs_b = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        dense_a += a[i].denseMacs;
        dense_b += b[i].denseMacs;
        macs_b += b[i].macs;
    }
    EXPECT_EQ(dense_a, dense_b);
    EXPECT_LT(macs_b, dense_b);
}

TEST(StageCostProperties, FormatsNeverChangeTheFunctionOnlyTheCost)
{
    Rng rng(50);
    Model m = makeVgg16(10, 0.125, rng);
    MagnitudePruner pruner;
    pruner.pruneToSparsity(m, 0.7);

    Tensor in = randomTensor(Shape{1, 3, 32, 32}, 51);
    ExecContext ctx;
    const Tensor dense_out = m.net.forward(in, ctx);
    const auto dense_costs =
        collectStageCosts(m.net, Shape{1, 3, 32, 32});

    m.setFormat(WeightFormat::Csr);
    const Tensor csr_out = m.net.forward(in, ctx);
    const auto csr_costs =
        collectStageCosts(m.net, Shape{1, 3, 32, 32});

    EXPECT_LE(csr_out.maxAbsDiff(dense_out), 2e-3f);
    size_t dense_macs = 0, csr_macs = 0;
    for (const auto &c : dense_costs)
        dense_macs += c.macs;
    for (const auto &c : csr_costs)
        csr_macs += c.macs;
    EXPECT_LT(csr_macs, dense_macs); // fewer executed MACs...
    // ...but the paper's point: that does NOT mean faster (asserted
    // against the cost model in test_hw.cpp).
}

// --- One capability rule: Layer::resolveExec predicts forward() and
// --- the verifier at every (backend, algo, threads) point. ---

/** Ternary weight values, so every weight format holds them exactly. */
void
fillTernary(Tensor &w, Rng &rng)
{
    const float values[] = {0.5f, -0.25f, 0.0f};
    for (size_t i = 0; i < w.numel(); ++i)
        w[i] = values[rng.uniformInt(3)];
}

/**
 * Sweep @p layer over every point: it resolves a point as runnable
 * exactly when forward() returns, checkLayerExecution reports an
 * Error exactly when it does not, and a run matches @p ref within
 * the parity tolerance and the resolved point bit for bit.
 */
void
expectResolutionIsTheRule(Layer &layer, const Tensor &input,
                          const Tensor &ref, const std::string &what)
{
    gemmlib::GemmLibrary lib;
    oclsim::CommandQueue queue;
    auto run = [&](const LayerExecOverride &point) {
        ExecContext ctx;
        ctx.backend = point.backend;
        ctx.convAlgo = point.convAlgo;
        ctx.threads = point.threads;
        ctx.queue = &queue;
        ctx.gemmLib = &lib;
        return layer.forward(input, ctx);
    };
    for (Backend b : {Backend::Serial, Backend::OpenMP,
                      Backend::OclHandTuned, Backend::OclGemmLib}) {
        for (ConvAlgo a : {ConvAlgo::Direct, ConvAlgo::Im2colGemm}) {
            for (int t : {1, 2}) {
                const LayerExecOverride point{b, a, t};
                SCOPED_TRACE(what + " at " + backendName(b) + "/" +
                             convAlgoName(a) + "/t" + std::to_string(t));
                const std::optional<LayerExecOverride> ran =
                    layer.resolveExec(point);
                const auto diags = analysis::checkLayerExecution(layer, b, a);
                EXPECT_EQ(!ran, std::any_of(
                                    diags.begin(), diags.end(),
                                    [](const analysis::Diagnostic &d) {
                                        return d.severity ==
                                               analysis::Severity::Error;
                                    }));
                Tensor out;
                try {
                    out = run(point);
                } catch (const FatalError &) {
                    EXPECT_FALSE(ran) << "resolved as runnable, threw";
                    continue;
                }
                ASSERT_TRUE(ran) << "resolved as not runnable, ran";
                ASSERT_EQ(ref.shape().dims(), out.shape().dims());
                for (size_t i = 0; i < ref.numel(); ++i)
                    ASSERT_LE(std::abs(ref[i] - out[i]),
                              1e-4f * std::max({1.0f, std::abs(ref[i]),
                                                std::abs(out[i])}))
                        << "flat index " << i;
                EXPECT_EQ(0.0f, run(*ran).maxAbsDiff(out))
                    << "the resolved point runs a different kernel";
            }
        }
    }
}

const WeightFormat kFormats[] = {WeightFormat::Dense, WeightFormat::Csr,
                                 WeightFormat::PackedTernary};

TEST(CapabilityRule, ConvResolutionIsWhatForwardRuns)
{
    Rng rng(2018);
    for (size_t k : {1, 3, 5}) {
        for (size_t stride : {1, 2}) {
            const size_t cin = 1 + rng.uniformInt(6);
            const size_t cout = 1 + rng.uniformInt(6);
            const size_t pad = rng.uniformInt(k / 2 + 1);
            const Shape in{1 + rng.uniformInt(2), cin,
                           k + rng.uniformInt(6), k + rng.uniformInt(6)};
            const Tensor input = randomTensor(in, rng.nextU64());
            Rng weights = rng.split();
            for (WeightFormat format : kFormats) {
                Conv2d conv("conv", cin, cout, k, stride, pad);
                Rng w = weights;
                fillTernary(conv.weight(), w);
                ExecContext serial;
                const Tensor ref = conv.forward(input, serial);
                conv.setFormat(format);
                expectResolutionIsTheRule(
                    conv, input, ref,
                    "k" + std::to_string(k) + "s" +
                        std::to_string(stride) + " " +
                        weightFormatName(format) + " in " + in.str());
            }
        }
    }
}

TEST(CapabilityRule, LinearResolutionIsWhatForwardRuns)
{
    Rng rng(2019);
    for (int trial = 0; trial < 4; ++trial) {
        const size_t inF = 1 + rng.uniformInt(40);
        const size_t outF = 1 + rng.uniformInt(12);
        const Tensor input =
            randomTensor(Shape{1 + rng.uniformInt(3), inF}, rng.nextU64());
        Rng weights = rng.split();
        for (WeightFormat format : kFormats) {
            Linear fc("fc", inF, outF);
            Rng w = weights;
            fillTernary(fc.weight(), w);
            ExecContext serial;
            const Tensor ref = fc.forward(input, serial);
            // Linear layers have no packed-ternary kernel; models
            // deploy their classifiers as CSR instead.
            if (format == WeightFormat::PackedTernary) {
                EXPECT_THROW(fc.setFormat(format), FatalError);
                continue;
            }
            fc.setFormat(format);
            expectResolutionIsTheRule(fc, input, ref,
                                      std::string("fc ") +
                                          weightFormatName(format));
        }
    }
}

TEST(CapabilityRule, ResidualBlockResolutionIsWhatForwardRuns)
{
    Rng rng(2020);
    for (size_t stride : {1, 2}) {
        const Tensor input =
            randomTensor(Shape{1, 4, 6, 6}, rng.nextU64());
        Rng weights = rng.split();
        for (WeightFormat format : kFormats) {
            ResidualBlock block("block", 4, stride == 1 ? 4 : 8, stride);
            Rng w = weights;
            std::vector<Conv2d *> convs{&block.conv1(), &block.conv2()};
            if (block.projection())
                convs.push_back(block.projection());
            for (Conv2d *conv : convs)
                fillTernary(conv->weight(), w);
            ExecContext serial;
            const Tensor ref = block.forward(input, serial);
            for (Conv2d *conv : convs)
                conv->setFormat(format);
            expectResolutionIsTheRule(
                block, input, ref,
                "block s" + std::to_string(stride) + " " +
                    weightFormatName(format));
        }
    }
}

} // namespace
} // namespace dlis
