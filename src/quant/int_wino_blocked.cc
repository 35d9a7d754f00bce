#include "quant/int_wino_blocked.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bits.hh"
#include "common/logging.hh"
#include "layout/kernels.hh"
#include "obs/perf.hh"
#include "obs/trace.hh"
#include "quant/quantizer.hh"

namespace twq
{

namespace
{

constexpr std::size_t kB = kLayoutBlock;

} // namespace

BlockedIntWinograd::BlockedIntWinograd(const IntWinogradConv &conv)
    : cfg_(conv.config()), sx_(conv.inputScale()),
      sb_(conv.inputTapScale()), cout_(conv.cout()), cin_(conv.cin()),
      coutb_(layoutBlocks(conv.cout())),
      cinb_(layoutBlocks(conv.cin()))
{
    const WinoSpec spec = winoSpec(cfg_.variant);
    const std::size_t tt = spec.t * spec.t;
    const std::size_t cinp = cinb_ * kB;

    // Wrap-free int32 accumulation in the widening tap GEMM:
    // |w|, |u| <= 2^(winogradBits - 1), summed over cinp lanes.
    const std::int64_t mag = std::int64_t{1}
                             << (cfg_.winogradBits - 1);
    twq_assert(static_cast<std::int64_t>(cinp) * mag * mag <
                   (std::int64_t{1} << 31),
               "blocked int winograd: channel count too large for "
               "exact int32 accumulation at this bit width");
    // The int32 kron of the B-transform is bounded by the plan's
    // coefficient mass (< 2^7 for F2/F4) times the spatial range.
    twq_assert(cfg_.spatialBits <= 16,
               "blocked int winograd: spatial bit width too large "
               "for the int32 transform buffers");

    // Re-lay the quantized tap-major weights [t*t][Cout][Cin] for the
    // tap kernel this host and bit width select. 8-bit operands on a
    // vpdpbusd host take the quad-interleaved u8-kernel weights
    // [t*t][coutb][cinp/4][8][4] plus the per-(tap, lane) bias
    // compensation 128 * sum_ic w; everything else takes the
    // pair-interleaved int16 weights [t*t][coutb][cinp/2][8][2].
    // Padded rows/columns are zero.
    const std::vector<std::int64_t> &taps = conv.tapWeights();
    use8_ = cfg_.winogradBits <= 8 &&
            layout::kernels().tapGemmU8 != nullptr;
    if (use8_) {
        wq8_.assign(tt * coutb_ * cinp * kB, 0);
        comp_.assign(tt * coutb_ * kB, 0);
        for (std::size_t k = 0; k < tt; ++k) {
            for (std::size_t oc = 0; oc < cout_; ++oc) {
                std::int32_t sum = 0;
                for (std::size_t ic = 0; ic < cin_; ++ic) {
                    const std::int64_t v =
                        taps[(k * cout_ + oc) * cin_ + ic];
                    wq8_[(((k * coutb_ + oc / kB) * (cinp / 4) +
                           ic / 4) *
                              kB +
                          oc % kB) *
                             4 +
                         ic % 4] = static_cast<std::int8_t>(v);
                    sum += static_cast<std::int32_t>(v);
                }
                comp_[k * coutb_ * kB + oc] = 128 * sum;
            }
        }
    } else {
        wq16_.assign(tt * coutb_ * cinp * kB, 0);
        for (std::size_t k = 0; k < tt; ++k) {
            for (std::size_t oc = 0; oc < cout_; ++oc) {
                for (std::size_t ic = 0; ic < cin_; ++ic) {
                    const std::int64_t v =
                        taps[(k * cout_ + oc) * cin_ + ic];
                    wq16_[(((k * coutb_ + oc / kB) * (cinp / 2) +
                            ic / 2) *
                               kB +
                           oc % kB) *
                              2 +
                          ic % 2] = static_cast<std::int16_t>(v);
                }
            }
        }
    }

    // Per-(tap, lane) FP dequant scales with sx folded in; padded
    // lanes scale by zero, which pins them to exact 0.0 in the
    // output without a separate clearing pass.
    const ScaleSet &ws = conv.weightScales();
    sbgSx_.assign(tt * coutb_ * kB, 0.0);
    for (std::size_t k = 0; k < tt; ++k)
        for (std::size_t oc = 0; oc < cout_; ++oc)
            sbgSx_[k * coutb_ * kB + oc] =
                sb_(k / spec.t, k % spec.t) *
                ws.at(oc, k / spec.t, k % spec.t) * sx_;

    // Per-channel common scale + relative shifts for the fully
    // integer path (defined for power-of-two scales only).
    if (cfg_.pow2Scales) {
        comLog2_.resize(cout_);
        relShift_.assign(cout_, std::vector<int>(tt, 0));
        for (std::size_t oc = 0; oc < cout_; ++oc) {
            int lo = std::numeric_limits<int>::max();
            std::vector<int> logs(tt);
            for (std::size_t i = 0; i < spec.t; ++i) {
                for (std::size_t j = 0; j < spec.t; ++j) {
                    const double sbg =
                        sb_(i, j) * ws.at(oc, i, j);
                    logs[i * spec.t + j] = log2Exact(sbg);
                    lo = std::min(lo, logs[i * spec.t + j]);
                }
            }
            comLog2_[oc] = lo;
            for (std::size_t k = 0; k < tt; ++k)
                relShift_[oc][k] = logs[k] - lo;
        }
    }
}

void
BlockedIntWinograd::quantizeInput(const TensorD &input,
                                  TensorI32 &xq) const
{
    twq_assert(input.dim(1) == cinb_,
               "input channel blocks do not match prepared weights");

    // Spatial-domain quantization of the blocked input in place of
    // layout (padded lanes hold 0.0 and quantize to 0). Power-of-two
    // scales take the vectorized exact-reciprocal kernel, which is
    // bit-identical to quantize(); free scales keep the scalar
    // divide.
    TWQ_SPAN("winoc8i.quantize");
    TWQ_STAGE_PERF("winoc8i.quantize");
    if (xq.shape() != input.shape())
        xq = TensorI32(input.shape());
    if (cfg_.pow2Scales) {
        layout::kernels().quantizeI32(
            input.data(), 1.0 / sx_,
            static_cast<double>(quantMin(cfg_.spatialBits)),
            static_cast<double>(quantMax(cfg_.spatialBits)), xq.data(),
            input.numel());
    } else {
        for (std::size_t i = 0; i < input.numel(); ++i)
            xq[i] = static_cast<std::int32_t>(
                quantize(input[i], sx_, cfg_.spatialBits));
    }
}

void
BlockedIntWinograd::scatterGemmRows(const TensorI32 &xq, std::size_t g0,
                                    std::size_t g1, bool useShifts,
                                    std::int32_t *V, std::int32_t *U32,
                                    std::int16_t *U16, std::uint8_t *U8,
                                    std::int32_t *M,
                                    gemm::ParallelRunner *runner) const
{
    const WinoDims d = winoDimsBlocked(xq.shape(), cfg_.variant, cfg_.pad);
    const std::size_t t = d.t;
    const std::size_t tt = t * t;
    const std::size_t tiles = (g1 - g0) * d.tilesX;

    // Blocked tile gather, then the exact integer B-transform as
    // Kronecker row passes over the blocked rows, then the tap-wise
    // requantization narrowing into the int16 GEMM operand.
    {
        TWQ_SPAN("winoc8i.gather");
        TWQ_STAGE_PERF("winoc8i.gather");
        winogradGatherTileRowsBlocked(xq, cfg_.variant, cfg_.pad, g0, g1,
                                      V);
    }
    const std::size_t rowLen = cinb_ * tiles * kB;
    {
        TWQ_SPAN("winoc8i.bkron");
        TWQ_STAGE_PERF("winoc8i.bkron");
        layout::kernels().kronI32(
            winoInputKron<std::int32_t>(cfg_.variant), V, rowLen, U32);
    }
    if (use8_) {
        TWQ_SPAN("winoc8i.requant");
        TWQ_STAGE_PERF("winoc8i.requant");
        // Requantize straight into the biased-u8 operand of the
        // vpdpbusd tap kernel (value + 128 per element).
        for (std::size_t k = 0; k < tt; ++k) {
            const std::int32_t *src = U32 + k * rowLen;
            std::uint8_t *row = U8 + k * rowLen;
            const double s = sb_(k / t, k % t);
            if (useShifts) {
                layout::kernels().rescaleU8(src, row, rowLen,
                                            log2Exact(s),
                                            cfg_.winogradBits);
            } else {
                // Round half away from zero, matching the
                // shift-based path exactly for power-of-two scales.
                for (std::size_t l = 0; l < rowLen; ++l) {
                    const double r =
                        std::round(static_cast<double>(src[l]) / s);
                    row[l] = static_cast<std::uint8_t>(
                        clampSigned(static_cast<std::int64_t>(r),
                                    cfg_.winogradBits) +
                        128);
                }
            }
        }
    } else {
        TWQ_SPAN("winoc8i.requant");
        TWQ_STAGE_PERF("winoc8i.requant");
        for (std::size_t k = 0; k < tt; ++k) {
            const std::int32_t *src = U32 + k * rowLen;
            std::int16_t *row = U16 + k * rowLen;
            const double s = sb_(k / t, k % t);
            if (useShifts) {
                // Shift-based hardware rescale (vectorized).
                layout::kernels().rescaleI16(src, row, rowLen,
                                             log2Exact(s),
                                             cfg_.winogradBits);
            } else {
                // Round half away from zero, matching the
                // shift-based path exactly for power-of-two scales.
                for (std::size_t l = 0; l < rowLen; ++l) {
                    const double r =
                        std::round(static_cast<double>(src[l]) / s);
                    row[l] = static_cast<std::int16_t>(
                        clampSigned(static_cast<std::int64_t>(r),
                                    cfg_.winogradBits));
                }
            }
        }
    }

    // Widening per-tap GEMM with the c-block as the SIMD lane
    // dimension; taps (split into P column blocks when taps alone
    // under-fill the pool) shard across `runner` — exact integer
    // sums, so sharded execution is bit-identical to serial.
    const std::size_t cinp = cinb_ * kB;
    TWQ_SPAN("winoc8i.tapgemm"); // covers the GEMM to end of scope
    TWQ_STAGE_PERF("winoc8i.tapgemm");
    if (use8_) {
        const layout::TapGemmU8Fn tapGemm =
            layout::kernels().tapGemmU8;
        gemm::runTapColBlocks(
            runner, tt, tiles, layout::kTapPr,
            [&](std::size_t k, std::size_t j0, std::size_t jn,
                std::size_t) {
                tapGemm(wq8_.data() + k * coutb_ * cinp * kB,
                        U8 + k * rowLen,
                        comp_.data() + k * coutb_ * kB,
                        M + k * coutb_ * tiles * kB, coutb_, cinb_,
                        tiles, j0, jn);
            });
    } else {
        const layout::TapGemmI16Fn tapGemm =
            layout::kernels().tapGemmI16;
        gemm::runTapColBlocks(
            runner, tt, tiles, layout::kTapPr,
            [&](std::size_t k, std::size_t j0, std::size_t jn,
                std::size_t) {
                tapGemm(wq16_.data() + k * coutb_ * cinp * kB,
                        U16 + k * rowLen, M + k * coutb_ * tiles * kB,
                        coutb_, cinb_, tiles, j0, jn);
            });
    }
}

void
BlockedIntWinograd::forwardInto(const TensorD &input, TensorI32 &xq,
                                TensorI32 &V, TensorI32 &U32,
                                TensorI16 &U16, TensorI8 &U8,
                                TensorI32 &M, TensorD &Md, TensorD &Y,
                                TensorD &out,
                                gemm::ParallelRunner *runner,
                                const double *bias8, bool relu) const
{
    const WinoDims d =
        winoDimsBlocked(input.shape(), cfg_.variant, cfg_.pad);
    twq_assert(out.rank() == 5 && out.dim(0) == d.n &&
                   out.dim(1) == coutb_ && out.dim(2) == d.ho &&
                   out.dim(3) == d.wo && out.dim(4) == kB,
               "output tensor not pre-shaped for the blocked launch");
    const std::size_t tt = d.t * d.t;
    const std::size_t rows = d.n * d.tilesY;

    quantizeInput(input, xq);

    // One tile row of each buffer, in elements; the largest in bytes
    // is V/U32 (int32) or Md (f64).
    const std::size_t rowIn = tt * cinb_ * d.tilesX * kB;
    const std::size_t rowOut = tt * coutb_ * d.tilesX * kB;
    const std::size_t rowY = d.m * d.m * coutb_ * d.tilesX * kB;
    const std::size_t per = std::min(
        rows, winoChunkRows(std::max(rowIn * sizeof(std::int32_t),
                                     rowOut * sizeof(double))));
    std::int32_t *v = winoChunkBuffer(V, per * rowIn);
    std::int32_t *u32 = winoChunkBuffer(U32, per * rowIn);
    std::int16_t *u16 =
        use8_ ? nullptr : winoChunkBuffer(U16, per * rowIn);
    std::uint8_t *u8 =
        use8_ ? reinterpret_cast<std::uint8_t *>(
                    winoChunkBuffer(U8, per * rowIn))
              : nullptr;
    std::int32_t *m = winoChunkBuffer(M, per * rowOut);
    double *md = winoChunkBuffer(Md, per * rowOut);
    double *y = winoChunkBuffer(Y, per * rowY);

    for (std::size_t g0 = 0; g0 < rows; g0 += per) {
        const std::size_t g1 = std::min(rows, g0 + per);
        const std::size_t tiles = (g1 - g0) * d.tilesX;
        // The S_B requantization by shifts and by round(x/s) agree
        // exactly for power-of-two scales; shifts are integer-only
        // and markedly cheaper, so the FP path takes them whenever
        // the config allows.
        scatterGemmRows(xq, g0, g1, /*useShifts=*/cfg_.pow2Scales, v,
                        u32, u16, u8, m, runner);

        // Dequant gather, vectorized blocked form: the tap-wise S_BG
        // rescale (sx folded in) as one per-lane scale vector over
        // each (tap, coutb) slice of M, then the FP A-transform as
        // FMA Kronecker row passes, then the blocked untile. Padded
        // lanes scale by zero, so the untile writes them as exact
        // zeros.
        {
            TWQ_SPAN("winoc8i.rescale");
            TWQ_STAGE_PERF("winoc8i.rescale");
            for (std::size_t k = 0; k < tt; ++k)
                for (std::size_t co = 0; co < coutb_; ++co)
                    layout::kernels().scaleI32F64(
                        m + (k * coutb_ + co) * tiles * kB,
                        sbgSx_.data() + (k * coutb_ + co) * kB,
                        md + (k * coutb_ + co) * tiles * kB, tiles);
        }
        {
            TWQ_SPAN("winoc8i.akron");
            TWQ_STAGE_PERF("winoc8i.akron");
            layout::kernels().kron(winoOutputKron<double>(cfg_.variant),
                                   md, coutb_ * tiles * kB, y);
        }
        {
            TWQ_SPAN("winoc8i.untile");
            TWQ_STAGE_PERF("winoc8i.untile");
            winogradUntileTileRowsBlocked(y, cfg_.variant, g0, g1, out,
                                          bias8, relu);
        }
    }
}

TensorD
BlockedIntWinograd::forward(const TensorD &input) const
{
    const WinoDims d =
        winoDimsBlocked(input.shape(), cfg_.variant, cfg_.pad);
    TensorI32 xq, V, U32, M;
    TensorI16 U16;
    TensorI8 U8;
    TensorD Md, Y;
    TensorD out({d.n, coutb_, d.ho, d.wo, kB});
    forwardInto(input, xq, V, U32, U16, U8, M, Md, Y, out);
    return out;
}

TensorI8
BlockedIntWinograd::forwardInt8(const TensorD &input,
                                double *out_scale,
                                bool fuse_relu) const
{
    twq_assert(cfg_.pow2Scales,
               "forwardInt8 requires power-of-two scales");
    const WinoDims d =
        winoDimsBlocked(input.shape(), cfg_.variant, cfg_.pad);
    const std::size_t tt = d.t * d.t;
    const std::size_t hw = d.ho * d.wo;

    // Pass 1: blocked integer pipeline into a blocked int64 spatial
    // output, all tile rows at once. This is the oracle-parity path,
    // not the serving hot path, so the buffers are local.
    TensorI32 xq, V, U32, M;
    TensorI16 U16;
    TensorI8 U8;
    quantizeInput(input, xq);
    const std::size_t inElems = tt * cinb_ * d.tiles * kB;
    scatterGemmRows(
        xq, 0, d.n * d.tilesY, /*useShifts=*/true,
        winoChunkBuffer(V, inElems), winoChunkBuffer(U32, inElems),
        use8_ ? nullptr : winoChunkBuffer(U16, inElems),
        use8_ ? reinterpret_cast<std::uint8_t *>(
                    winoChunkBuffer(U8, inElems))
              : nullptr,
        winoChunkBuffer(M, tt * coutb_ * d.tiles * kB), nullptr);

    // S_BG rescale as pure left-shifts relative to the channel's
    // common scale, widening each (tap, oc) GEMM segment to int64.
    TensorI64 M64({tt, coutb_, d.tiles, kB});
    for (std::size_t k = 0; k < tt; ++k) {
        for (std::size_t co = 0; co < coutb_; ++co) {
            const std::int32_t *src =
                M.data() + (k * coutb_ + co) * d.tiles * kB;
            std::int64_t *dst =
                M64.data() + (k * coutb_ + co) * d.tiles * kB;
            for (std::size_t l = 0; l < kB; ++l) {
                const std::size_t oc = co * kB + l;
                const int sh =
                    oc < cout_ ? relShift_[oc][k] : 0;
                for (std::size_t p = 0; p < d.tiles; ++p)
                    dst[p * kB + l] =
                        static_cast<std::int64_t>(src[p * kB + l])
                        << sh;
            }
        }
    }

    // Integer A-transform as Kronecker row passes (exact), untiled
    // into the blocked spatial int64 output.
    TensorI64 Y64({d.m * d.m, coutb_, d.tiles, kB});
    applyKron(winoOutputKron<std::int64_t>(cfg_.variant), M64.data(),
              coutb_ * d.tiles * kB, Y64.data());
    TensorI64 raw({d.n, coutb_, d.ho, d.wo, kB});
    winogradUntileBlocked(Y64, cfg_.variant, raw);

    // Pass 2: pick a power-of-two output scale covering the observed
    // range over the logical lanes and requantize with shifts —
    // identical comparisons to the NCHW reference, so the scale and
    // every output value match bit for bit.
    double abs_max = 0.0;
    for (std::size_t in = 0; in < d.n; ++in)
        for (std::size_t oc = 0; oc < cout_; ++oc) {
            const std::int64_t *src =
                raw.data() +
                (in * coutb_ + oc / kB) * hw * kB + oc % kB;
            for (std::size_t i = 0; i < hw; ++i) {
                const double real =
                    static_cast<double>(src[i * kB]) *
                    std::exp2(comLog2_[oc]) * sx_;
                abs_max = std::max(abs_max, std::abs(real));
            }
        }
    const double sy =
        pow2Ceil(scaleForMax(std::max(abs_max, 1e-30), 8));
    if (out_scale)
        *out_scale = sy;
    const int sy_log2 = log2Exact(sy);
    const int sx_log2 = log2Exact(sx_);

    TensorI8 out({d.n, coutb_, d.ho, d.wo, kB}); // padded lanes stay 0
    for (std::size_t in = 0; in < d.n; ++in) {
        for (std::size_t oc = 0; oc < cout_; ++oc) {
            // q = raw >> (log2 sy - log2 s_com - log2 s_x).
            const int shift = sy_log2 - comLog2_[oc] - sx_log2;
            const std::int64_t *src =
                raw.data() +
                (in * coutb_ + oc / kB) * hw * kB + oc % kB;
            std::int8_t *dst =
                out.data() +
                (in * coutb_ + oc / kB) * hw * kB + oc % kB;
            for (std::size_t i = 0; i < hw; ++i) {
                std::int64_t v = src[i * kB];
                if (fuse_relu && v < 0)
                    v = 0;
                dst[i * kB] = static_cast<std::int8_t>(
                    clampSigned(shiftRightRound(v, shift), 8));
            }
        }
    }
    return out;
}

} // namespace twq
