/**
 * @file
 * binary16-storage engine tests: exactness of the soft half
 * conversions, hardware/soft kernel agreement, the bulk tensor
 * converters, the WinogradBlockedF16 engine's accuracy gate against
 * the fp32-compute/double-storage reference, session integration
 * (storage seams, f16 chains, batched == sequential), and the
 * autoSelect f16 race.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "layout/kernels_f16.hh"
#include "layout/wino_blocked.hh"
#include "models/zoo.hh"
#include "runtime/session.hh"
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

TEST(SoftHalf, RoundTripsExactHalves)
{
    // Every finite half widens exactly; narrowing the widened value
    // must return the original bits (round-trip identity over the
    // whole 16-bit space, specials included).
    for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
        const auto h = static_cast<std::uint16_t>(bits);
        const float f = layout::softHalfToFloat(h);
        const std::uint16_t back = layout::softFloatToHalf(f);
        if ((h & 0x7fffu) > 0x7c00u) {
            // NaNs: payload need not survive, NaN-ness must.
            EXPECT_GT(back & 0x7fffu, 0x7c00u);
            continue;
        }
        EXPECT_EQ(back, h) << "half bits 0x" << std::hex << bits;
    }
}

TEST(SoftHalf, RoundsToNearestEven)
{
    // 1 + 2^-11 is exactly between 1.0 and the next half (1 + 2^-10):
    // RNE picks the even mantissa, i.e. 1.0 (0x3c00).
    EXPECT_EQ(layout::softFloatToHalf(1.0f + 0x1.0p-11f), 0x3c00);
    // 1 + 3 * 2^-11 ties between 1+2^-10 and 1+2^-9: even is 1+2^-9.
    EXPECT_EQ(layout::softFloatToHalf(1.0f + 0x1.8p-10f), 0x3c02);
    // Overflow saturates to infinity, sign preserved.
    EXPECT_EQ(layout::softFloatToHalf(65520.0f), 0x7c00);
    EXPECT_EQ(layout::softFloatToHalf(-65520.0f), 0xfc00);
    // 65504 is the largest finite half.
    EXPECT_EQ(layout::softFloatToHalf(65504.0f), 0x7bff);
    // Signed zero survives (the -0.0 bit-identity invariant).
    EXPECT_EQ(layout::softFloatToHalf(-0.0f), 0x8000);
    EXPECT_EQ(layout::softFloatToHalf(0.0f), 0x0000);
    // Subnormal halves are representable, not flushed.
    EXPECT_EQ(layout::softFloatToHalf(0x1.0p-24f), 0x0001);
}

TEST(F16Kernels, HardwareAgreesWithSoftKernels)
{
    // Whatever table resolved (avx2-f16c, neon-fp16, soft), its
    // conversions must match the soft reference bit for bit —
    // vcvtps2ph/vcvtph2ps implement exactly IEEE RNE.
    const layout::F16Kernels &k = layout::f16Kernels();
    constexpr std::size_t kN = 4099; // odd: exercises vector tails
    std::vector<float> src(kN);
    Rng rng(5150);
    rng.fillNormal(src, 0.0f, 8.0f);
    // Splice in edge cases.
    src[0] = 0.0f;
    src[1] = -0.0f;
    src[2] = 65504.0f;
    src[3] = 70000.0f; // overflows to inf
    src[4] = 0x1.0p-24f;
    src[5] = -0x1.0p-26f; // rounds to -0
    std::vector<std::uint16_t> hw(kN), soft(kN);
    k.narrow(src.data(), hw.data(), kN);
    for (std::size_t i = 0; i < kN; ++i)
        soft[i] = layout::softFloatToHalf(src[i]);
    EXPECT_EQ(hw, soft) << "narrow kernel (" << layout::f16KernelName()
                        << ") diverges from the soft reference";

    std::vector<float> wideHw(kN), wideSoft(kN);
    k.widen(hw.data(), wideHw.data(), kN);
    for (std::size_t i = 0; i < kN; ++i)
        wideSoft[i] = layout::softHalfToFloat(soft[i]);
    EXPECT_EQ(std::memcmp(wideHw.data(), wideSoft.data(),
                          kN * sizeof(float)),
              0)
        << "widen kernel diverges from the soft reference";
}

TEST(F16Tensors, BulkConvertersRoundTripExactHalves)
{
    // double -> half narrows double->float->half (each step RNE);
    // values already representable as halves survive the round trip
    // exactly.
    TensorD src({3, 2, 5, 7, 8});
    Rng rng(99);
    rng.fillNormal(src.storage(), 0.0, 2.0);
    TensorF16 h(src.shape());
    tensorDToF16(src, h);
    TensorD wide(src.shape());
    tensorF16ToD(h, wide);
    TensorF16 h2(src.shape());
    tensorDToF16(wide, h2);
    EXPECT_TRUE(h2 == h);
    // And the widened error obeys the half epsilon bound.
    for (std::size_t i = 0; i < src.numel(); ++i)
        EXPECT_LE(std::abs(wide[i] - src[i]),
                  std::abs(src[i]) * 0x1.0p-11 + 0x1.0p-24);
}

/**
 * The engine-level accuracy gate: the f16-storage blocked engine
 * (half weights and activations, fp32 compute) against the
 * double-everything blocked engine, bounded in half ULPs of the
 * output's dynamic range. ~40 half-ULPs covers the storage rounding
 * of weights + input + output plus fp32 accumulation across the
 * microServe channel depths.
 */
TEST(F16Engine, AccuracyGateVsFp32)
{
    for (const std::size_t width : {8u, 4u}) {
        const NetworkDesc net = microServeNet(16, width);
        SessionConfig cfg;
        cfg.defaultEngine = ConvEngine::WinogradBlockedF16;
        const Session half(net, cfg);
        cfg.defaultEngine = ConvEngine::WinogradBlocked;
        const Session full(net, cfg);

        const TensorD input = randomInput(half.inputShape(), 2023);
        const TensorD yh = half.run(input);
        const TensorD yf = full.run(input);
        ASSERT_EQ(yh.shape(), yf.shape());
        double maxAbs = 0.0, maxErr = 0.0;
        for (std::size_t i = 0; i < yf.numel(); ++i) {
            maxAbs = std::max(maxAbs, std::abs(yf[i]));
            maxErr = std::max(maxErr, std::abs(yh[i] - yf[i]));
        }
        ASSERT_GT(maxAbs, 0.0);
        EXPECT_LE(maxErr, 40.0 * 0x1.0p-11 * maxAbs)
            << "f16 engine exceeded the accuracy gate at width "
            << width;
    }
}

TEST(F16Engine, FusedEpilogueStaysWithinGate)
{
    const NetworkDesc net = microServeNetFused(16, 8);
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlockedF16;
    cfg.fuseEpilogues = true;
    const Session half(net, cfg);
    cfg.defaultEngine = ConvEngine::Im2col;
    const Session ref(net, cfg);

    const TensorD input = randomInput(half.inputShape(), 77);
    const TensorD yh = half.run(input);
    const TensorD yr = ref.run(input);
    double maxAbs = 0.0, maxErr = 0.0;
    for (std::size_t i = 0; i < yr.numel(); ++i) {
        maxAbs = std::max(maxAbs, std::abs(yr[i]));
        maxErr = std::max(maxErr, std::abs(yh[i] - yr[i]));
    }
    // ReLU + bias shrink the dynamic range; the same 40-ULP gate
    // holds with the epilogue folded into the fp32 stage.
    EXPECT_LE(maxErr, 40.0 * 0x1.0p-11 * maxAbs);
}

TEST(F16Engine, SessionPlansHalfChainWithSeams)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlockedF16;
    const Session session(microServeNet(16, 8), cfg);
    ASSERT_EQ(session.layerCount(), 5u);
    // stem + both body layers run the f16 engine blocked; down/head
    // fall back to NCHW im2col, forcing a widen seam in between.
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(session.layerEngine(i),
                  ConvEngine::WinogradBlockedF16);
        EXPECT_EQ(session.layerLayout(i).in, ActLayout::NCHWc8);
        EXPECT_EQ(session.layerLayout(i).out, ActLayout::NCHWc8);
    }
    EXPECT_EQ(session.layerEngine(3), ConvEngine::Im2col);
    EXPECT_EQ(session.layerEngine(4), ConvEngine::Im2col);
}

TEST(F16Engine, BatchedIsBitIdenticalToSequential)
{
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlockedF16;
    const Session session(microServeNet(16, 4), cfg);

    constexpr std::size_t kBatch = 3;
    std::vector<TensorD> inputs;
    std::vector<const TensorD *> items;
    for (std::size_t i = 0; i < kBatch; ++i)
        inputs.push_back(randomInput(session.inputShape(), 700 + i));
    for (const TensorD &t : inputs)
        items.push_back(&t);

    const TensorD batched = session.run(stackBatch(items));
    for (std::size_t i = 0; i < kBatch; ++i) {
        const TensorD alone = session.run(inputs[i]);
        EXPECT_TRUE(sliceBatch(batched, i) == alone)
            << "f16 batched element " << i
            << " differs from sequential execution";
    }
}

TEST(F16Engine, AutoSelectRaceStaysAccurate)
{
    const NetworkDesc net = microServeNet(16, 8);
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = 2;
    cfg.raceF16 = true;
    const Session session(net, cfg);
    SessionConfig refCfg;
    refCfg.defaultEngine = ConvEngine::Im2col;
    const Session reference(net, refCfg);

    // Whatever won, eligible layers landed inside the f16-extended FP
    // candidate set and the output respects the f16 gate (exact if no
    // f16 candidate won, half-ULP-bounded if one did).
    for (std::size_t i = 0; i < 3; ++i) {
        const ConvEngine e = session.layerEngine(i);
        EXPECT_TRUE(e == ConvEngine::Im2col ||
                    e == ConvEngine::WinogradBlocked ||
                    e == ConvEngine::WinogradBlockedF16);
    }
    const TensorD input = randomInput(session.inputShape(), 55);
    const TensorD y = session.run(input);
    const TensorD ref = reference.run(input);
    double maxAbs = 0.0, maxErr = 0.0;
    for (std::size_t i = 0; i < ref.numel(); ++i) {
        maxAbs = std::max(maxAbs, std::abs(ref[i]));
        maxErr = std::max(maxErr, std::abs(y[i] - ref[i]));
    }
    EXPECT_LE(maxErr, 40.0 * 0x1.0p-11 * maxAbs);
}

TEST(F16Engine, UnfusedSeparatePassStaysWithinGate)
{
    // The unfused baseline on an f16 chain pays a widen/apply/narrow
    // round trip per post-op group; it is accuracy-gated (not
    // bit-identical — that contract belongs to the FP32 engines).
    const NetworkDesc net = microServeNetFused(16, 4);
    SessionConfig cfg;
    cfg.defaultEngine = ConvEngine::WinogradBlockedF16;
    cfg.fuseEpilogues = false;
    const Session unfused(net, cfg);
    cfg.fuseEpilogues = true;
    const Session fused(net, cfg);

    const TensorD input = randomInput(fused.inputShape(), 88);
    const TensorD a = fused.run(input);
    const TensorD b = unfused.run(input);
    double maxAbs = 0.0, maxErr = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i) {
        maxAbs = std::max(maxAbs, std::abs(a[i]));
        maxErr = std::max(maxErr, std::abs(a[i] - b[i]));
    }
    EXPECT_LE(maxErr, 8.0 * 0x1.0p-11 * std::max(maxAbs, 1.0));
}

} // namespace
} // namespace twq
