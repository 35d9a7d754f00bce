/**
 * @file
 * End-to-end F4 (F(4x4, 3x3)) coverage through Session and
 * InferenceServer for im2col and both blocked Winograd engines. The runtime defaults to F2
 * elsewhere, so these tests pin WinoVariant::F4 and re-state the
 * core serving claims: batched == sequential bit-identical, server
 * responses bit-identical, and engine outputs consistent with the
 * im2col reference.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <vector>

#include "common/rng.hh"
#include "models/zoo.hh"
#include "quant/int_winograd.hh"
#include "runtime/server.hh"
#include "tensor/batch.hh"

namespace twq
{
namespace
{

TensorD
randomInput(const Shape &shape, std::uint64_t seed)
{
    TensorD t(shape);
    Rng rng(seed);
    rng.fillNormal(t.storage(), 0.0, 1.0);
    return t;
}

SessionConfig
f4Config(ConvEngine engine)
{
    SessionConfig cfg;
    cfg.variant = WinoVariant::F4;
    cfg.defaultEngine = engine;
    return cfg;
}

class F4Runtime : public ::testing::TestWithParam<ConvEngine>
{};

TEST_P(F4Runtime, SessionRunIsBitIdenticalBatchedVsSequential)
{
    const Session session(microServeNet(8, 4), f4Config(GetParam()));

    constexpr std::size_t kBatch = 4;
    std::vector<TensorD> inputs;
    std::vector<const TensorD *> items;
    for (std::size_t i = 0; i < kBatch; ++i)
        inputs.push_back(randomInput(session.inputShape(), 400 + i));
    for (const TensorD &t : inputs)
        items.push_back(&t);

    const TensorD batched = session.run(stackBatch(items));
    ASSERT_EQ(batched.dim(0), kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
        const TensorD alone = session.run(inputs[i]);
        const TensorD slice = sliceBatch(batched, i);
        ASSERT_EQ(slice.shape(), alone.shape());
        EXPECT_TRUE(slice == alone)
            << "engine " << convEngineName(GetParam())
            << ": F4 batched element " << i
            << " differs from sequential execution";
    }
}

TEST_P(F4Runtime, ServerResponsesAreBitIdentical)
{
    auto session = std::make_shared<Session>(microServeNet(8, 4),
                                             f4Config(GetParam()));

    constexpr std::size_t kRequests = 10;
    std::vector<TensorD> inputs;
    std::vector<TensorD> refs;
    for (std::size_t i = 0; i < kRequests; ++i) {
        inputs.push_back(randomInput(session->inputShape(), 500 + i));
        refs.push_back(session->run(inputs[i]));
    }

    RuntimeConfig rcfg;
    rcfg.threads = 2;
    rcfg.batch.maxBatch = 4;
    rcfg.batch.maxWait = std::chrono::microseconds(500);
    InferenceServer server(session, rcfg);

    std::vector<std::future<TensorD>> futures;
    for (std::size_t i = 0; i < kRequests; ++i)
        futures.push_back(server.submit(inputs[i]));
    for (std::size_t i = 0; i < kRequests; ++i) {
        const TensorD out = futures[i].get();
        EXPECT_TRUE(out == refs[i])
            << "engine " << convEngineName(GetParam())
            << ": F4 response " << i
            << " differs from sequential execution";
    }
}

TEST_P(F4Runtime, OutputConsistentWithIm2colReference)
{
    const NetworkDesc net = microServeNet(8, 4);
    const Session session(net, f4Config(GetParam()));
    const Session reference(net, f4Config(ConvEngine::Im2col));
    const TensorD input = randomInput(session.inputShape(), 600);
    const TensorD y = session.run(input);
    const TensorD ref = reference.run(input);
    ASSERT_EQ(y.shape(), ref.shape());
    if (GetParam() == ConvEngine::WinogradBlockedInt8) {
        // Quantized inference: close, not equal.
        EXPECT_LT(relativeL2Error(y, ref), 0.5);
    } else {
        for (std::size_t i = 0; i < y.numel(); ++i)
            EXPECT_NEAR(y[i], ref[i], 1e-6);
    }
}

TEST(F4Runtime, IneligibleLayersStillFallBackUnderF4)
{
    const Session session(microServeNet(8, 4),
                          f4Config(ConvEngine::WinogradBlocked));
    ASSERT_EQ(session.layerCount(), 5u);
    EXPECT_EQ(session.layerEngine(0), ConvEngine::WinogradBlocked);
    EXPECT_EQ(session.layerEngine(3), ConvEngine::Im2col); // strided
    EXPECT_EQ(session.layerEngine(4), ConvEngine::Im2col); // 1x1
    EXPECT_EQ(session.config().variant, WinoVariant::F4);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, F4Runtime,
    ::testing::Values(ConvEngine::Im2col, ConvEngine::WinogradBlocked,
                      ConvEngine::WinogradBlockedInt8),
    [](const ::testing::TestParamInfo<ConvEngine> &info) {
        switch (info.param) {
          case ConvEngine::Im2col:
            return "Im2col";
          case ConvEngine::WinogradBlocked:
            return "WinogradBlocked";
          case ConvEngine::WinogradBlockedInt8:
            return "WinogradBlockedInt8";
          default:
            return "Unknown";
        }
    });

} // namespace
} // namespace twq
