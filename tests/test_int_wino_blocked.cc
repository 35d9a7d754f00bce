/**
 * @file
 * Bit-identity of the NCHWc8 blocked integer Winograd engine against
 * the tile-at-a-time oracles (IntWinogradConv::forward and
 * forwardInt8), across variants, bit widths, quantization
 * granularities, and shapes with odd H/W and C % 8 != 0. Integer sums
 * are order-free and the FP dequant of both runs the same row-pass
 * order over the same fused scales, so the blocked re-layout cannot
 * change a single value. Also covers the engine outliving the conv it
 * was built from, the widening layout kernels (tap GEMM, integer
 * kron, requantization narrowing) against their scalar references,
 * sharded == serial bit-identity for the blocked int8 tap GEMM, and
 * the chunked forwardInto against the whole-buffer chain of public
 * stage calls, bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "common/rng.hh"
#include "layout/kernels.hh"
#include "layout/kernels_f16.hh"
#include "quant/int_wino_blocked.hh"
#include "quant/quantizer.hh"
#include "runtime/thread_pool.hh"

namespace twq
{
namespace
{

TensorD
randomTensor(const Shape &shape, std::uint64_t seed)
{
    TensorD t(shape);
    Rng rng(seed);
    rng.fillNormal(t.storage(), 0.0, 1.0);
    return t;
}

struct Case
{
    WinoVariant variant;
    int winogradBits;
    QuantGranularity granularity;
    bool pow2;
    Shape input;        ///< NCHW logical input
    std::size_t cout;
};

class BlockedIntWino : public ::testing::TestWithParam<Case>
{
  protected:
    IntWinogradConfig
    makeConfig() const
    {
        const Case &c = GetParam();
        IntWinogradConfig cfg;
        cfg.variant = c.variant;
        cfg.winogradBits = c.winogradBits;
        cfg.granularity = c.granularity;
        cfg.pow2Scales = c.pow2;
        return cfg;
    }
};

TEST_P(BlockedIntWino, ForwardBitIdenticalToReference)
{
    const Case &c = GetParam();
    const IntWinogradConfig cfg = makeConfig();
    const TensorD w = randomTensor({c.cout, c.input[1], 3, 3}, 1000);
    const std::vector<TensorD> cal{randomTensor(c.input, 1001)};
    const IntWinogradConv conv(w, cal, cfg);
    const BlockedIntWinograd blk(conv);
    EXPECT_EQ(blk.cout(), conv.cout());
    EXPECT_EQ(blk.cinb(), layoutBlocks(conv.cin()));

    const TensorD x = randomTensor(c.input, 1002);
    TensorD xb(blockedShape(x.shape()));
    nchwToBlocked(x, xb);

    const TensorD ref = conv.forward(x);
    const TensorD outBlocked = blk.forward(xb);
    TensorD out(ref.shape());
    blockedToNchw(outBlocked, out);
    for (std::size_t i = 0; i < ref.numel(); ++i)
        ASSERT_EQ(out[i], ref[i]) << "element " << i;

    // Padded output lanes must be exact zeros, or reused arena slots
    // would leak stale values across calls.
    const std::size_t hw = outBlocked.dim(2) * outBlocked.dim(3);
    for (std::size_t in = 0; in < outBlocked.dim(0); ++in)
        for (std::size_t co = 0; co < outBlocked.dim(1); ++co)
            for (std::size_t l = 0; l < kLayoutBlock; ++l) {
                if (co * kLayoutBlock + l < blk.cout())
                    continue;
                const double *plane =
                    outBlocked.data() +
                    (in * outBlocked.dim(1) + co) * hw * kLayoutBlock;
                for (std::size_t i = 0; i < hw; ++i)
                    ASSERT_EQ(plane[i * kLayoutBlock + l], 0.0);
            }
}

TEST_P(BlockedIntWino, ForwardInt8BitIdenticalToReference)
{
    const Case &c = GetParam();
    if (!c.pow2)
        GTEST_SKIP() << "forwardInt8 requires power-of-two scales";
    const IntWinogradConfig cfg = makeConfig();
    const TensorD w = randomTensor({c.cout, c.input[1], 3, 3}, 2000);
    const std::vector<TensorD> cal{randomTensor(c.input, 2001)};
    const IntWinogradConv conv(w, cal, cfg);
    const BlockedIntWinograd blk(conv);

    const TensorD x = randomTensor(c.input, 2002);
    TensorD xb(blockedShape(x.shape()));
    nchwToBlocked(x, xb);
    for (const bool relu : {false, true}) {
        double s_blk = 0.0, s_ref = 0.0;
        const TensorI8 blocked = blk.forwardInt8(xb, &s_blk, relu);
        const TensorI8 ref = conv.forwardInt8(x, &s_ref, relu);
        EXPECT_EQ(s_blk, s_ref);
        TensorI8 out(ref.shape());
        blockedToNchw(blocked, out);
        for (std::size_t i = 0; i < ref.numel(); ++i)
            ASSERT_EQ(out[i], ref[i])
                << "element " << i << " relu=" << relu;
    }
}

TEST_P(BlockedIntWino, OutlivesItsSourceConv)
{
    // The engine copies what it reads from the conv it was built
    // from, so it keeps serving the same bits after the conv is gone.
    const Case &c = GetParam();
    const IntWinogradConfig cfg = makeConfig();
    const TensorD w = randomTensor({c.cout, c.input[1], 3, 3}, 5000);
    const std::vector<TensorD> cal{randomTensor(c.input, 5001)};
    const TensorD x = randomTensor(c.input, 5002);
    TensorD xb(blockedShape(x.shape()));
    nchwToBlocked(x, xb);

    std::optional<BlockedIntWinograd> blk;
    TensorD fpAlive;
    TensorI8 i8Alive;
    double sAlive = 0.0;
    {
        const IntWinogradConv conv(w, cal, cfg);
        blk.emplace(conv);
        fpAlive = blk->forward(xb);
        if (c.pow2)
            i8Alive = blk->forwardInt8(xb, &sAlive, true);
    }
    const TensorD fp = blk->forward(xb);
    ASSERT_EQ(fp.shape(), fpAlive.shape());
    EXPECT_EQ(std::memcmp(fp.data(), fpAlive.data(),
                          fp.numel() * sizeof(double)),
              0);
    if (!c.pow2)
        return; // forwardInt8 requires power-of-two scales
    double s = 0.0;
    const TensorI8 i8 = blk->forwardInt8(xb, &s, true);
    EXPECT_EQ(s, sAlive);
    EXPECT_TRUE(i8 == i8Alive);
}

TEST_P(BlockedIntWino, ReusedBuffersAreStableAcrossBatchChanges)
{
    const Case &c = GetParam();
    const IntWinogradConfig cfg = makeConfig();
    const TensorD w = randomTensor({c.cout, c.input[1], 3, 3}, 3000);
    const std::vector<TensorD> cal{randomTensor(c.input, 3001)};
    const IntWinogradConv conv(w, cal, cfg);
    const BlockedIntWinograd blk(conv);

    TensorI32 xq, V, U32, M;
    TensorI16 U16;
    TensorI8 U8;
    TensorD Md, Y;
    Shape big = c.input;
    big[0] *= 2;
    const TensorD x1 = randomTensor(big, 3002);
    const TensorD x2 = randomTensor(c.input, 3003);
    for (const TensorD *x : {&x1, &x2, &x1}) {
        TensorD xb(blockedShape(x->shape()));
        nchwToBlocked(*x, xb);
        const ConvParams p{3, 1, cfg.pad};
        TensorD out({x->dim(0), blk.coutb(), p.outSize(x->dim(2)),
                     p.outSize(x->dim(3)), kLayoutBlock});
        blk.forwardInto(xb, xq, V, U32, U16, U8, M, Md, Y, out);
        const TensorD expect = blk.forward(xb);
        ASSERT_EQ(out.shape(), expect.shape());
        for (std::size_t i = 0; i < out.numel(); ++i)
            ASSERT_EQ(out[i], expect[i]);
    }
}

TEST_P(BlockedIntWino, ShardedTapGemmIsBitIdenticalToSerial)
{
    const Case &c = GetParam();
    const IntWinogradConfig cfg = makeConfig();
    const TensorD w = randomTensor({c.cout, c.input[1], 3, 3}, 4000);
    const std::vector<TensorD> cal{randomTensor(c.input, 4001)};
    const IntWinogradConv conv(w, cal, cfg);
    const BlockedIntWinograd blk(conv);

    Shape big = c.input;
    big[0] = 3; // enough tiles for the P-sharded grid to engage
    const TensorD x = randomTensor(big, 4002);
    TensorD xb(blockedShape(x.shape()));
    nchwToBlocked(x, xb);

    ThreadPool pool(5);
    PoolRunner runner(pool, pool.size());
    TensorI32 xq, V, U32, M;
    TensorI16 U16;
    TensorI8 U8;
    TensorD Md, Y;
    const ConvParams p{3, 1, cfg.pad};
    TensorD serial({big[0], blk.coutb(), p.outSize(big[2]),
                    p.outSize(big[3]), kLayoutBlock});
    TensorD parallel(serial.shape());
    blk.forwardInto(xb, xq, V, U32, U16, U8, M, Md, Y, serial);
    blk.forwardInto(xb, xq, V, U32, U16, U8, M, Md, Y, parallel,
                    &runner);
    pool.shutdown();
    EXPECT_TRUE(parallel == serial)
        << "sharded blocked int8 pipeline differs from serial";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BlockedIntWino,
    ::testing::Values(
        // The paper's headline configuration: F4 tap-wise, 8-bit.
        Case{WinoVariant::F4, 8, QuantGranularity::TapWise, true,
             {2, 3, 8, 8}, 5},
        // 10-bit Winograd domain (the accuracy-recovery setting),
        // C % 8 != 0 on both sides, odd H/W.
        Case{WinoVariant::F4, 10, QuantGranularity::TapWise, true,
             {1, 12, 9, 7}, 9},
        // Layer-wise granularity (the "traditional" baseline).
        Case{WinoVariant::F4, 8, QuantGranularity::LayerWise, true,
             {1, 2, 6, 6}, 4},
        Case{WinoVariant::F2, 8, QuantGranularity::LayerWise, true,
             {2, 2, 5, 9}, 3},
        // F2 tap-wise and channel granularities; full blocks too.
        Case{WinoVariant::F2, 8, QuantGranularity::TapWise, true,
             {1, 16, 8, 8}, 8},
        Case{WinoVariant::F2, 10, QuantGranularity::ChannelWise, true,
             {1, 3, 7, 7}, 4},
        Case{WinoVariant::F4, 8, QuantGranularity::ChannelTapWise,
             true, {1, 2, 10, 6}, 4},
        // Non-power-of-two scales exercise the round(x/s) rescale.
        Case{WinoVariant::F4, 8, QuantGranularity::TapWise, false,
             {1, 3, 8, 8}, 5},
        Case{WinoVariant::F2, 10, QuantGranularity::TapWise, false,
             {2, 2, 7, 5}, 3}),
    [](const ::testing::TestParamInfo<Case> &info) {
        const Case &c = info.param;
        std::string name = winoName(c.variant);
        name += "_";
        name += granularityName(c.granularity);
        name += "_";
        name += std::to_string(c.winogradBits) + "b";
        name += c.pow2 ? "_pow2" : "_free";
        name += "_c" + std::to_string(c.input[1]);
        for (char &ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

// ---------------------------------------- chunked forwardInto

/**
 * The whole-buffer chain of public stage calls that
 * BlockedIntWinograd::forwardInto runs per chunk of tile rows, for
 * power-of-two scales: quantize, gather, integer kron, shift
 * requantization, per-tap GEMM, S_BG rescale, FP kron, untile. The
 * tap GEMM is a scalar integer product on conv.tapWeights(): integer
 * sums are order-free, so it equals the library's interleaved
 * kernels (int16 or biased-u8) exactly.
 */
TensorD
wholeChainInt8(const IntWinogradConv &conv, const TensorD &xb,
               const double *bias8, bool relu)
{
    constexpr std::size_t kB = kLayoutBlock;
    const IntWinogradConfig &cfg = conv.config();
    const auto &k = layout::kernels();
    const WinoDims d = winoDimsBlocked(xb.shape(), cfg.variant, cfg.pad);
    const std::size_t t = d.t, tt = t * t, P = d.tiles;
    const std::size_t cin = conv.cin(), cout = conv.cout();
    const std::size_t cinb = xb.dim(1), coutb = layoutBlocks(cout);
    const double sx = conv.inputScale();
    const MatrixD &sb = conv.inputTapScale();

    TensorI32 xq(xb.shape());
    k.quantizeI32(xb.data(), 1.0 / sx,
                  static_cast<double>(quantMin(cfg.spatialBits)),
                  static_cast<double>(quantMax(cfg.spatialBits)),
                  xq.data(), xb.numel());
    TensorI32 V;
    winogradGatherTilesBlocked(xq, cfg.variant, cfg.pad, V);
    const std::size_t rowLen = cinb * P * kB;
    TensorI32 U32(V.shape());
    k.kronI32(winoInputKron<std::int32_t>(cfg.variant), V.data(), rowLen,
              U32.data());
    TensorI16 U16(V.shape());
    for (std::size_t j = 0; j < tt; ++j)
        k.rescaleI16(U32.data() + j * rowLen, U16.data() + j * rowLen,
                     rowLen, log2Exact(sb(j / t, j % t)),
                     cfg.winogradBits);

    const std::vector<std::int64_t> &taps = conv.tapWeights();
    TensorI32 M({tt, coutb, P, kB});
    for (std::size_t j = 0; j < tt; ++j)
        for (std::size_t oc = 0; oc < cout; ++oc)
            for (std::size_t p = 0; p < P; ++p) {
                std::int64_t acc = 0;
                for (std::size_t ic = 0; ic < cin; ++ic)
                    acc += taps[(j * cout + oc) * cin + ic] *
                           U16[((j * cinb + ic / kB) * P + p) * kB +
                               ic % kB];
                M[((j * coutb + oc / kB) * P + p) * kB + oc % kB] =
                    static_cast<std::int32_t>(acc);
            }

    const ScaleSet &ws = conv.weightScales();
    TensorD Md({tt, coutb, P, kB});
    std::vector<double> s8(kB);
    for (std::size_t j = 0; j < tt; ++j)
        for (std::size_t co = 0; co < coutb; ++co) {
            for (std::size_t l = 0; l < kB; ++l) {
                const std::size_t oc = co * kB + l;
                s8[l] = oc < cout ? sb(j / t, j % t) *
                                        ws.at(oc, j / t, j % t) * sx
                                  : 0.0;
            }
            k.scaleI32F64(M.data() + (j * coutb + co) * P * kB,
                          s8.data(),
                          Md.data() + (j * coutb + co) * P * kB, P);
        }
    TensorD Y({d.m * d.m, coutb, P, kB});
    k.kron(winoOutputKron<double>(cfg.variant), Md.data(),
           coutb * P * kB, Y.data());
    TensorD out({d.n, coutb, d.ho, d.wo, kB});
    winogradUntileBlocked(Y, cfg.variant, out, bias8, relu);
    return out;
}

TEST(ChunkedBlockedIntWino, MatchesWholeBufferStageChain)
{
    // 64 channels at 33x31, batch 3, splits into several chunks of
    // tile rows with boundaries inside images (F2 also leaves a short
    // tail chunk); at 116 wide one F4 tile row of Md exceeds the
    // chunk budget on its own.
    struct C
    {
        Shape nchw;
        WinoVariant v;
        int bits;
    };
    const C cases[] = {{{3, 64, 33, 31}, WinoVariant::F2, 8},
                       {{3, 64, 33, 31}, WinoVariant::F4, 8},
                       {{3, 64, 33, 31}, WinoVariant::F4, 10},
                       {{2, 64, 6, 116}, WinoVariant::F4, 8}};
    ThreadPool pool(3);
    PoolRunner runner(pool, pool.size());
    std::uint64_t seed = 5000;
    for (const C &c : cases) {
        IntWinogradConfig cfg;
        cfg.variant = c.v;
        cfg.winogradBits = c.bits;
        const TensorD x = randomTensor(c.nchw, seed++);
        const TensorD w = randomTensor({64, c.nchw[1], 3, 3}, seed++);
        const std::vector<TensorD> cal{x};
        const IntWinogradConv conv(w, cal, cfg);
        const BlockedIntWinograd blk(conv);
        TensorD xb(blockedShape(x.shape()));
        nchwToBlocked(x, xb);
        const WinoDims d = winoDimsBlocked(xb.shape(), c.v, 1);
        // Md (f64, t*t taps) is this layer's largest tile buffer.
        const std::size_t rowBytes = d.t * d.t * blk.coutb() *
                                     d.tilesX * kLayoutBlock *
                                     sizeof(double);
        ASSERT_GT(d.n * d.tilesY, winoChunkRows(rowBytes))
            << "case does not split into chunks";

        std::vector<double> bias(blk.coutb() * kLayoutBlock, 0.0);
        for (std::size_t i = 0; i < blk.cout(); ++i)
            bias[i] = 0.01 * static_cast<double>(i % 5) - 0.02;
        const TensorD whole =
            wholeChainInt8(conv, xb, bias.data(), true);

        TensorI32 xq, V, U32, M;
        TensorI16 U16;
        TensorI8 U8;
        TensorD Md, Y;
        TensorD out(whole.shape()), sharded(whole.shape());
        blk.forwardInto(xb, xq, V, U32, U16, U8, M, Md, Y, out, nullptr,
                        bias.data(), true);
        blk.forwardInto(xb, xq, V, U32, U16, U8, M, Md, Y, sharded,
                        &runner, bias.data(), true);
        EXPECT_EQ(std::memcmp(out.data(), whole.data(),
                              out.numel() * sizeof(double)),
                  0)
            << winoName(c.v) << " " << c.bits << "b W=" << c.nchw[3];
        EXPECT_TRUE(sharded == out) << winoName(c.v);
    }
    pool.shutdown();
}

// ------------------------------------------- layout kernel oracles

TEST(BlockedIntKernels, TapGemmI16MatchesScalarReference)
{
    Rng rng(71);
    const std::size_t coutb = 3, cinb = 2, P = 37;
    const std::size_t cinp = cinb * kLayoutBlock;
    std::vector<std::int16_t> w(coutb * cinp * kLayoutBlock);
    std::vector<std::int16_t> u(cinb * P * kLayoutBlock);
    for (auto &v : w)
        v = static_cast<std::int16_t>(rng.uniformInt(-512, 511));
    for (auto &v : u)
        v = static_cast<std::int16_t>(rng.uniformInt(-512, 511));
    std::vector<std::int32_t> ref(coutb * P * kLayoutBlock, -1);
    std::vector<std::int32_t> got(coutb * P * kLayoutBlock, -2);
    layout::scalarTapGemmI16(w.data(), u.data(), ref.data(), coutb,
                             cinb, P, 0, P);
    // Whole width through the dispatched kernel...
    layout::kernels().tapGemmI16(w.data(), u.data(), got.data(),
                                 coutb, cinb, P, 0, P);
    EXPECT_EQ(got, ref);
    // ...and as uneven column blocks (the P-shard seam).
    std::fill(got.begin(), got.end(), -3);
    layout::kernels().tapGemmI16(w.data(), u.data(), got.data(),
                                 coutb, cinb, P, 0, 5);
    layout::kernels().tapGemmI16(w.data(), u.data(), got.data(),
                                 coutb, cinb, P, 5, 24);
    layout::kernels().tapGemmI16(w.data(), u.data(), got.data(),
                                 coutb, cinb, P, 29, P - 29);
    EXPECT_EQ(got, ref);
}

TEST(BlockedIntKernels, RescaleI16MatchesScalarReference)
{
    Rng rng(72);
    for (const int bits : {8, 10}) {
        for (const int shift : {0, 1, 3, 7}) {
            std::vector<std::int32_t> src(101);
            for (auto &v : src)
                v = static_cast<std::int32_t>(
                    rng.uniformInt(-60000, 60000));
            // Include exact halfway points and the rails.
            src[0] = 0;
            src[1] = (1 << shift) / 2;
            src[2] = -(1 << shift) / 2;
            src[3] = std::numeric_limits<std::int32_t>::max() / 2;
            src[4] = std::numeric_limits<std::int32_t>::min() / 2;
            std::vector<std::int16_t> ref(src.size());
            std::vector<std::int16_t> got(src.size());
            layout::scalarRescaleI16(src.data(), ref.data(),
                                     src.size(), shift, bits);
            layout::kernels().rescaleI16(src.data(), got.data(),
                                         src.size(), shift, bits);
            EXPECT_EQ(got, ref)
                << "shift=" << shift << " bits=" << bits;
        }
    }
}

TEST(BlockedIntKernels, TapGemmU8MatchesScalarReference)
{
    if (!layout::kernels().tapGemmU8)
        GTEST_SKIP() << "no u8 tap kernel on this host (needs VNNI)";
    Rng rng(74);
    const std::size_t coutb = 2, cinb = 3, P = 29;
    const std::size_t cinp = cinb * kLayoutBlock;
    std::vector<std::int8_t> w(coutb * cinp * kLayoutBlock);
    std::vector<std::uint8_t> u(cinb * P * kLayoutBlock);
    std::vector<std::int32_t> comp(coutb * kLayoutBlock);
    for (auto &v : w)
        v = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    for (auto &v : u)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    for (auto &v : comp)
        v = static_cast<std::int32_t>(rng.uniformInt(-100000, 100000));
    std::vector<std::int32_t> ref(coutb * P * kLayoutBlock, -1);
    std::vector<std::int32_t> got(coutb * P * kLayoutBlock, -2);
    layout::scalarTapGemmU8(w.data(), u.data(), comp.data(),
                            ref.data(), coutb, cinb, P, 0, P);
    layout::kernels().tapGemmU8(w.data(), u.data(), comp.data(),
                                got.data(), coutb, cinb, P, 0, P);
    EXPECT_EQ(got, ref);
    // Uneven column blocks (the P-shard seam).
    std::fill(got.begin(), got.end(), -3);
    layout::kernels().tapGemmU8(w.data(), u.data(), comp.data(),
                                got.data(), coutb, cinb, P, 0, 7);
    layout::kernels().tapGemmU8(w.data(), u.data(), comp.data(),
                                got.data(), coutb, cinb, P, 7,
                                P - 7);
    EXPECT_EQ(got, ref);
}

TEST(BlockedIntKernels, RescaleU8MatchesScalarReference)
{
    Rng rng(75);
    for (const int shift : {0, 2, 6}) {
        std::vector<std::int32_t> src(77);
        for (auto &v : src)
            v = static_cast<std::int32_t>(
                rng.uniformInt(-60000, 60000));
        src[0] = 0;
        src[1] = (1 << shift) / 2;
        src[2] = -(1 << shift) / 2;
        std::vector<std::uint8_t> ref(src.size());
        std::vector<std::uint8_t> got(src.size());
        layout::scalarRescaleU8(src.data(), ref.data(), src.size(),
                                shift, 8);
        layout::kernels().rescaleU8(src.data(), got.data(),
                                    src.size(), shift, 8);
        EXPECT_EQ(got, ref) << "shift=" << shift;
    }
}

TEST(BlockedIntKernels, ScaleI32F64MatchesScalarReference)
{
    Rng rng(76);
    const std::size_t tiles = 23;
    std::vector<std::int32_t> src(tiles * kLayoutBlock);
    double scale8[kLayoutBlock];
    for (auto &v : src)
        v = static_cast<std::int32_t>(rng.uniformInt(-100000, 100000));
    for (double &s : scale8)
        s = rng.normal();
    std::vector<double> ref(src.size()), got(src.size());
    layout::scalarScaleI32F64(src.data(), scale8, ref.data(), tiles);
    layout::kernels().scaleI32F64(src.data(), scale8, got.data(),
                                  tiles);
    EXPECT_EQ(got, ref);
}

TEST(BlockedIntKernels, QuantizeI32MatchesScalarQuantize)
{
    Rng rng(77);
    const double scale = 0.03125; // power of two: the kernel's domain
    std::vector<double> src(301);
    for (auto &v : src)
        v = rng.normal(0.0, 2.0);
    src[0] = 0.0;
    src[1] = 1e9;   // clamps high
    src[2] = -1e9;  // clamps low
    src[3] = 0.5 * scale;
    src[4] = -0.5 * scale;
    for (const int bits : {8, 10}) {
        std::vector<std::int32_t> got(src.size());
        layout::kernels().quantizeI32(
            src.data(), 1.0 / scale,
            static_cast<double>(quantMin(bits)),
            static_cast<double>(quantMax(bits)), got.data(),
            src.size());
        for (std::size_t i = 0; i < src.size(); ++i)
            ASSERT_EQ(got[i], static_cast<std::int32_t>(quantize(
                                  src[i], scale, bits)))
                << "element " << i << " bits=" << bits;
    }
}

/**
 * Row-at-a-time oracle of a kron pass: each output row is built term
 * by term over whole rows, so it shares no schedule with the strip
 * kernels. Per element: a multiply for the first term, then per later
 * term a fused multiply-add (`fused`, the explicit SIMD kernels) or a
 * multiply and an add (applyKron); integer sums are exact either way.
 */
template <typename T>
std::vector<T>
kronRowOracle(const WinoKronPlan<T> &plan, const std::vector<T> &x,
              std::size_t len, bool fused)
{
    std::vector<T> y(plan.rowsOut * len, T{});
    for (std::size_t r = 0; r < plan.rowsOut; ++r) {
        T *yr = y.data() + r * len;
        for (std::uint32_t ti = plan.rowStart[r];
             ti < plan.rowStart[r + 1]; ++ti) {
            const T c = plan.terms[ti].coeff;
            const T *xr = x.data() + plan.terms[ti].in * len;
            for (std::size_t l = 0; l < len; ++l) {
                if (ti == plan.rowStart[r])
                    yr[l] = c * xr[l];
                else if (fused)
                    yr[l] = std::fma(c, xr[l], yr[l]);
                else
                    yr[l] += c * xr[l];
            }
        }
    }
    return y;
}

/** Index of the first element whose bits differ, or -1. */
template <typename T>
std::ptrdiff_t
firstBitMismatch(const std::vector<T> &a, const std::vector<T> &b)
{
    const auto same = [](const T &x, const T &y) {
        return std::memcmp(&x, &y, sizeof(T)) == 0;
    };
    const auto [ia, ib] =
        std::mismatch(a.begin(), a.end(), b.begin(), b.end(), same);
    return ia == a.end() && ib == b.end() ? -1 : ia - a.begin();
}

/**
 * Row lengths that put a strip edge at every offset a kron kernel
 * meets: 1 and 7 (one short block), one less than, equal to and one
 * more than a strip, 3 strips plus a tail, and 32768 (a 256 KiB row
 * of doubles, 4 KiB-aliased like a batch-8 wide-64 layer). Strips are
 * derived for both element sizes and every register-block width a
 * kernel uses: 16 (applyKron), 32 (AVX2 doubles), 64 (AVX2 floats and
 * int32).
 */
std::vector<std::size_t>
kronLengths(std::size_t rowsIn)
{
    std::vector<std::size_t> lens = {1, 7, 32768};
    for (const std::size_t elemBytes : {4, 8})
        for (const std::size_t block : {16, 32, 64}) {
            const std::size_t s =
                kronStripLen(rowsIn, elemBytes, block);
            if (s == 0) // no kernel pairs this block with this size
                continue;
            lens.insert(lens.end(), {s - 1, s, s + 1, 3 * s + 5});
        }
    std::sort(lens.begin(), lens.end());
    lens.erase(std::unique(lens.begin(), lens.end()), lens.end());
    return lens;
}

TEST(BlockedIntKernels, KronI32MatchesScalarReference)
{
    Rng rng(73);
    for (const WinoVariant v : {WinoVariant::F2, WinoVariant::F4}) {
        const WinoKronPlan<std::int32_t> &plan =
            winoInputKron<std::int32_t>(v);
        for (const std::size_t len : kronLengths(plan.rowsIn)) {
            std::vector<std::int32_t> x(plan.rowsIn * len);
            for (auto &val : x)
                val = static_cast<std::int32_t>(
                    rng.uniformInt(-1000, 1000));
            const std::vector<std::int32_t> ref =
                kronRowOracle(plan, x, len, false);
            std::vector<std::int32_t> got(plan.rowsOut * len, -2);
            layout::kernels().kronI32(plan, x.data(), len, got.data());
            EXPECT_EQ(got, ref) << winoName(v) << " len=" << len;
            std::fill(got.begin(), got.end(), -3);
            applyKron(plan, x.data(), len, got.data());
            EXPECT_EQ(got, ref)
                << "applyKron " << winoName(v) << " len=" << len;
        }
    }
}

/**
 * The FP kron kernels against the row oracle, bit for bit, under each
 * kernel's own rounding contract: the double layout kernel and the
 * f16 engine's float kernel fuse when they are the explicit SIMD
 * ones, the portable applyKron (and the scalar tables that forward to
 * it) multiplies then adds.
 */
TEST(BlockedIntKernels, KronFpMatchesRowOracleBitwise)
{
    const auto kd = layout::kernels().kron;
    const bool fusedD = kd == layout::avx2LayoutKernels().kron ||
                        kd == layout::neonLayoutKernels().kron;
    const auto kf = layout::f16Kernels().kron;
    const bool fusedF = kf == layout::avx2F16Kernels().kron;
    Rng rng(74);
    for (const WinoVariant v :
         {WinoVariant::F2, WinoVariant::F4, WinoVariant::F6}) {
        for (const bool input : {true, false}) {
            const WinoKronPlan<double> &pd =
                input ? winoInputKron<double>(v) : winoOutputKron<double>(v);
            const WinoKronPlan<float> &pf =
                input ? winoInputKron<float>(v) : winoOutputKron<float>(v);
            const std::string plan =
                std::string(winoName(v)) + (input ? " in" : " out");
            for (const std::size_t len : kronLengths(pd.rowsIn)) {
                std::vector<double> xd(pd.rowsIn * len);
                rng.fillNormal(xd, 0.0, 1.0);
                const std::vector<float> xf(xd.begin(), xd.end());
                std::vector<double> yd(pd.rowsOut * len, -1.0);
                std::vector<float> yf(pf.rowsOut * len, -1.0f);

                kd(pd, xd.data(), len, yd.data());
                EXPECT_EQ(firstBitMismatch(
                              yd, kronRowOracle(pd, xd, len, fusedD)),
                          -1)
                    << "kernels().kron " << plan << " len=" << len;
                applyKron(pd, xd.data(), len, yd.data());
                EXPECT_EQ(firstBitMismatch(
                              yd, kronRowOracle(pd, xd, len, false)),
                          -1)
                    << "applyKron<double> " << plan << " len=" << len;
                kf(pf, xf.data(), len, yf.data());
                EXPECT_EQ(firstBitMismatch(
                              yf, kronRowOracle(pf, xf, len, fusedF)),
                          -1)
                    << "f16Kernels().kron " << plan << " len=" << len;
                applyKron(pf, xf.data(), len, yf.data());
                EXPECT_EQ(firstBitMismatch(
                              yf, kronRowOracle(pf, xf, len, false)),
                          -1)
                    << "applyKron<float> " << plan << " len=" << len;
            }
        }
    }
}

} // namespace
} // namespace twq
