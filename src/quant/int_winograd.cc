#include "quant/int_winograd.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bits.hh"
#include "common/logging.hh"
#include "gemm/gemm.hh"
#include "obs/perf.hh"
#include "obs/trace.hh"
#include "layout/kernels.hh"
#include "quant/calibration.hh"
#include "quant/quantizer.hh"
#include "winograd/conv.hh"
#include "winograd/tiled.hh"
#include "winograd/transforms.hh"

namespace twq
{

namespace
{

/// Largest transformed tile across variants (F6: t = 8).
constexpr std::size_t kMaxT = 8;

/** Quantize an FP tensor to n-bit integers with a single scale. */
TensorI64
quantizeTensor(const TensorD &x, double scale, int bits)
{
    TensorI64 q(x.shape());
    for (std::size_t i = 0; i < x.numel(); ++i)
        q[i] = quantize(x[i], scale, bits);
    return q;
}

} // namespace

IntWinogradConv::IntWinogradConv(const TensorD &weights,
                                 const std::vector<TensorD> &calibration,
                                 const IntWinogradConfig &cfg,
                                 CalibrationCache *calCache)
    : cfg_(cfg), cout_(weights.dim(0)), cin_(weights.dim(1))
{
    twq_assert(weights.dim(2) == 3 && weights.dim(3) == 3,
               "IntWinogradConv requires 3x3 kernels");
    twq_assert(winoIntegerTransforms(cfg.variant),
               "integer Winograd requires integer B^T/A^T "
               "(F2/F4 only; F6 is FP-only)");
    twq_assert(!calibration.empty(), "calibration data required");
    const WinoSpec spec = winoSpec(cfg.variant);

    // --- Activation scale s_x (spatial domain, layer-wise). ---
    // With a cache, candidates racing the same layer share one
    // abs-max pass; the statistics (and therefore every derived
    // scale) are identical either way.
    MaxCalibrator localCal;
    if (!calCache) {
        for (const TensorD &x : calibration)
            localCal.observeAll(x.storage());
        countCalibrationPass();
    }
    const MaxCalibrator &xcal =
        calCache ? calCache->spatial() : localCal;
    sx_ = xcal.scale(cfg.spatialBits);
    if (cfg.pow2Scales)
        sx_ = pow2Ceil(sx_);

    // --- Input tap scales S_B over the *integer* domain. ---
    // Calibrate on fake-quantized inputs so the maxima are measured
    // exactly where the hardware sees them: after B^T x̂ B.
    const MatrixD tap_max = [&] {
        if (calCache)
            return calCache->tapMaxima(cfg.variant, cfg.pad, sx_,
                                       cfg.spatialBits);
        std::vector<TensorD> calib_q;
        calib_q.reserve(calibration.size());
        for (const TensorD &x : calibration) {
            TensorD xq(x.shape());
            for (std::size_t i = 0; i < x.numel(); ++i)
                xq[i] = static_cast<double>(
                    quantize(x[i], sx_, cfg.spatialBits));
            calib_q.push_back(std::move(xq));
        }
        countCalibrationPass();
        const MatrixD m =
            inputTapMaxima(calib_q, cfg.variant, cfg.pad);
        countCalibrationPass();
        return m;
    }();

    sb_ = MatrixD(spec.t, spec.t);
    double global_max = 0.0;
    for (std::size_t i = 0; i < spec.t; ++i)
        for (std::size_t j = 0; j < spec.t; ++j)
            global_max = std::max(global_max, tap_max(i, j));
    const bool tapwise =
        cfg.granularity == QuantGranularity::TapWise ||
        cfg.granularity == QuantGranularity::ChannelTapWise;
    for (std::size_t i = 0; i < spec.t; ++i) {
        for (std::size_t j = 0; j < spec.t; ++j) {
            double m = tapwise ? tap_max(i, j) : global_max;
            double s = scaleForMax(m, cfg.winogradBits);
            // Never scale up: B^T x̂ B is exact in integers, so a
            // divisor below 1 only wastes range.
            s = std::max(s, 1.0);
            if (cfg.pow2Scales)
                s = pow2Ceil(s);
            sb_(i, j) = s;
        }
    }

    // --- Weight scales S_G and quantized Winograd-domain weights. ---
    wscales_ = estimateWeightScales(weights, cfg.variant,
                                    cfg.granularity, cfg.winogradBits,
                                    cfg.pow2Scales);
    wq_.resize(cout_ * cin_);
    wqTaps_.resize(spec.t * spec.t * cout_ * cin_);
    for (std::size_t oc = 0; oc < cout_; ++oc) {
        for (std::size_t ic = 0; ic < cin_; ++ic) {
            MatrixD f(3, 3);
            for (std::size_t ky = 0; ky < 3; ++ky)
                for (std::size_t kx = 0; kx < 3; ++kx)
                    f(ky, kx) = weights.at(oc, ic, ky, kx);
            const MatrixD w = weightTransform(f, cfg.variant);
            MatrixI64 q(spec.t, spec.t);
            for (std::size_t i = 0; i < spec.t; ++i)
                for (std::size_t j = 0; j < spec.t; ++j)
                    q(i, j) = quantize(w(i, j), wscales_.at(oc, i, j),
                                       cfg.winogradBits);
            // Tap-major copy for the per-tap GEMM.
            for (std::size_t i = 0; i < spec.t; ++i)
                for (std::size_t j = 0; j < spec.t; ++j)
                    wqTaps_[((i * spec.t + j) * cout_ + oc) * cin_ +
                            ic] = q(i, j);
            wq_[oc * cin_ + ic] = std::move(q);
        }
    }

    // --- Fused FP dequant scales for the row-pass gather. ---
    // Same expression (and association order) as the blocked engine's
    // sbgSx_ table, so both dequants multiply by identical doubles.
    dqScale_.resize(spec.t * spec.t * cout_);
    for (std::size_t k = 0; k < spec.t * spec.t; ++k)
        for (std::size_t oc = 0; oc < cout_; ++oc)
            dqScale_[k * cout_ + oc] =
                sb_(k / spec.t, k % spec.t) *
                wscales_.at(oc, k / spec.t, k % spec.t) * sx_;
}

void
IntWinogradConv::scatterGemm(const TensorD &input, bool useShifts,
                             TensorI64 &xq, TensorI64 &V, TensorI64 &U,
                             TensorI64 &M) const
{
    const WinoDims d = winoDims(input.shape(), cfg_.variant, cfg_.pad);
    const std::size_t t = d.t;
    const std::size_t tt = t * t;

    // Spatial-domain input quantization.
    {
        TWQ_SPAN("wino8.quantize");
        TWQ_STAGE_PERF("wino8.quantize");
        if (xq.shape() != input.shape())
            xq = TensorI64(input.shape());
        for (std::size_t i = 0; i < input.numel(); ++i)
            xq[i] = quantize(input[i], sx_, cfg_.spatialBits);
    }

    // Scatter: raw tiles, then the exact integer B-transform as
    // Kronecker row passes (order-independent, so bit-identical to
    // the per-tile reference), then the tap-wise requantization
    // applied per row of the flat [t*t, Cin, P] buffer.
    {
        TWQ_SPAN("wino8.gather");
        TWQ_STAGE_PERF("wino8.gather");
        winogradGatherTiles(xq, cfg_.variant, cfg_.pad, V);
    }
    const Shape ushape{tt, d.cin, d.tiles};
    if (U.shape() != ushape)
        U = TensorI64(ushape);
    const std::size_t rowLen = d.cin * d.tiles;
    {
        TWQ_SPAN("wino8.bkron");
        TWQ_STAGE_PERF("wino8.bkron");
        applyKron(winoInputKron<std::int64_t>(cfg_.variant), V.data(),
                  rowLen, U.data());
    }
    {
        TWQ_SPAN("wino8.requant");
        TWQ_STAGE_PERF("wino8.requant");
        for (std::size_t k = 0; k < tt; ++k) {
            std::int64_t *row = U.data() + k * rowLen;
            const double s = sb_(k / t, k % t);
            if (useShifts) {
                // Shift-based hardware rescale.
                const int sh = log2Exact(s);
                for (std::size_t l = 0; l < rowLen; ++l)
                    row[l] = clampSigned(shiftRightRound(row[l], sh),
                                         cfg_.winogradBits);
            } else {
                // Round half away from zero, matching the shift-based
                // path exactly when the scale is a power of two.
                for (std::size_t l = 0; l < rowLen; ++l) {
                    const double r =
                        std::round(static_cast<double>(row[l]) / s);
                    row[l] = clampSigned(static_cast<std::int64_t>(r),
                                         cfg_.winogradBits);
                }
            }
        }
    }

    // Per-tap GEMM: M[k] = Wq[k] ([Cout, Cin]) * U[k] ([Cin, P]),
    // each on the blocked integer core.
    const Shape mshape{tt, cout_, d.tiles};
    if (M.shape() != mshape)
        M = TensorI64(mshape);
    TWQ_SPAN("wino8.tapgemm");
    TWQ_STAGE_PERF("wino8.tapgemm");
    for (std::size_t k = 0; k < tt; ++k)
        gemm::gemm(wqTaps_.data() + k * cout_ * cin_,
                   U.data() + k * cin_ * d.tiles,
                   M.data() + k * cout_ * d.tiles, cout_, cin_, d.tiles);
}

TensorD
IntWinogradConv::forward(const TensorD &input) const
{
    const WinoDims d = winoDims(input.shape(), cfg_.variant, cfg_.pad);
    TensorI64 xq, V, U, M;
    TensorD Md, Y;
    TensorD out({d.n, cout_, d.ho, d.wo});
    forwardInto(input, xq, V, U, M, Md, Y, out);
    return out;
}

void
IntWinogradConv::forwardInto(const TensorD &input, TensorI64 &xq,
                             TensorI64 &V, TensorI64 &U, TensorI64 &M,
                             TensorD &Md, TensorD &Y,
                             TensorD &out) const
{
    twq_assert(input.rank() == 4 && input.dim(1) == cin_,
               "channel mismatch");
    const WinoDims d = winoDims(input.shape(), cfg_.variant, cfg_.pad);
    twq_assert(out.rank() == 4 && out.dim(0) == d.n &&
                   out.dim(1) == cout_ && out.dim(2) == d.ho &&
                   out.dim(3) == d.wo,
               "output tensor not pre-shaped for the tiled launch");
    const std::size_t tt = d.t * d.t;

    scatterGemm(input, /*useShifts=*/false, xq, V, U, M);

    // Gather, specified in row-pass order — the same specification
    // the blocked engine vectorizes, so the two dequants are
    // bit-identical: the fused S_BG * s_x scale applied per
    // (tap, oc) GEMM slice, the FP A-transform as Kronecker row
    // passes through the dispatched kron kernel (FMA contraction and
    // term order included), then the clipped untile.
    const Shape mdshape{tt, cout_, d.tiles};
    if (Md.shape() != mdshape)
        Md = TensorD(mdshape);
    {
        TWQ_SPAN("wino8.rescale");
        TWQ_STAGE_PERF("wino8.rescale");
        for (std::size_t k = 0; k < tt; ++k) {
            for (std::size_t oc = 0; oc < cout_; ++oc) {
                const std::int64_t *src =
                    M.data() + (k * cout_ + oc) * d.tiles;
                double *dst = Md.data() + (k * cout_ + oc) * d.tiles;
                const double s = dqScale_[k * cout_ + oc];
                for (std::size_t p = 0; p < d.tiles; ++p)
                    dst[p] = static_cast<double>(src[p]) * s;
            }
        }
    }
    const Shape yshape{d.m * d.m, cout_, d.tiles};
    if (Y.shape() != yshape)
        Y = TensorD(yshape);
    {
        TWQ_SPAN("wino8.akron");
        TWQ_STAGE_PERF("wino8.akron");
        layout::kernels().kron(winoOutputKron<double>(cfg_.variant),
                               Md.data(), cout_ * d.tiles, Y.data());
    }

    TWQ_SPAN("wino8.untile");
    TWQ_STAGE_PERF("wino8.untile");
    const double *yy0 = Y.data();
    for (std::size_t in = 0; in < d.n; ++in) {
        for (std::size_t oc = 0; oc < cout_; ++oc) {
            double *plane =
                out.data() + (in * cout_ + oc) * d.ho * d.wo;
            for (std::size_t ty = 0; ty < d.tilesY; ++ty) {
                for (std::size_t tx = 0; tx < d.tilesX; ++tx) {
                    const std::size_t p =
                        (in * d.tilesY + ty) * d.tilesX + tx;
                    const std::size_t ylim =
                        std::min(d.m, d.ho - ty * d.m);
                    const std::size_t xlim =
                        std::min(d.m, d.wo - tx * d.m);
                    for (std::size_t yy = 0; yy < ylim; ++yy) {
                        double *dst =
                            plane + (ty * d.m + yy) * d.wo + tx * d.m;
                        for (std::size_t xx = 0; xx < xlim; ++xx)
                            dst[xx] = yy0[((yy * d.m + xx) * cout_ +
                                           oc) *
                                              d.tiles +
                                          p];
                    }
                }
            }
        }
    }
}

TensorD
IntWinogradConv::forwardReference(const TensorD &input) const
{
    const WinoSpec spec = winoSpec(cfg_.variant);
    const std::size_t n = input.dim(0);
    twq_assert(input.dim(1) == cin_, "channel mismatch");
    const ConvParams p{3, 1, cfg_.pad};
    const std::size_t ho = p.outSize(input.dim(2));
    const std::size_t wo = p.outSize(input.dim(3));
    const std::size_t tiles_y = (ho + spec.m - 1) / spec.m;
    const std::size_t tiles_x = (wo + spec.m - 1) / spec.m;

    // Spatial-domain input quantization.
    const TensorI64 xq = quantizeTensor(input, sx_, cfg_.spatialBits);

    TensorD out({n, cout_, ho, wo});
    std::vector<MatrixI64> ixf(cin_);
    for (std::size_t in = 0; in < n; ++in) {
        for (std::size_t ty = 0; ty < tiles_y; ++ty) {
            for (std::size_t tx = 0; tx < tiles_x; ++tx) {
                // Integer input transform + tap-wise requantization.
                for (std::size_t ic = 0; ic < cin_; ++ic) {
                    const MatrixI64 tile = extractInputTile(
                        xq, in, ic, ty, tx, cfg_.variant, cfg_.pad);
                    MatrixI64 xf =
                        inputTransformInt(tile, cfg_.variant);
                    for (std::size_t i = 0; i < spec.t; ++i) {
                        for (std::size_t j = 0; j < spec.t; ++j) {
                            // Round half away from zero, matching
                            // the shift-based hardware path
                            // (shiftRightRound) exactly when the
                            // scale is a power of two.
                            const double s = sb_(i, j);
                            const double r = std::round(
                                static_cast<double>(xf(i, j)) / s);
                            xf(i, j) = clampSigned(
                                static_cast<std::int64_t>(r),
                                cfg_.winogradBits);
                        }
                    }
                    ixf[ic] = std::move(xf);
                }
                for (std::size_t oc = 0; oc < cout_; ++oc) {
                    // Integer elementwise MAC over input channels.
                    MatrixI64 acc(spec.t, spec.t);
                    for (std::size_t ic = 0; ic < cin_; ++ic) {
                        const auto &wt = wq_[oc * cin_ + ic];
                        const auto &it = ixf[ic];
                        for (std::size_t i = 0; i < spec.t; ++i)
                            for (std::size_t j = 0; j < spec.t; ++j)
                                acc(i, j) += wt(i, j) * it(i, j);
                    }
                    // FP dequant gather in row-pass order: the fused
                    // S_BG * s_x scale, then the A-transform as
                    // Kronecker row passes through the same
                    // dispatched kernel the tiled and blocked paths
                    // use (len = 1 takes its scalar std::fma tail,
                    // which rounds identically to the FMA vector
                    // body), keeping all three bit-identical.
                    double y[kMaxT * kMaxT];
                    double res[kMaxT * kMaxT];
                    for (std::size_t k = 0; k < spec.t * spec.t; ++k)
                        y[k] = static_cast<double>(
                                   acc(k / spec.t, k % spec.t)) *
                               dqScale_[k * cout_ + oc];
                    layout::kernels().kron(
                        winoOutputKron<double>(cfg_.variant), y, 1,
                        res);
                    for (std::size_t yy = 0; yy < spec.m; ++yy) {
                        for (std::size_t xx = 0; xx < spec.m; ++xx) {
                            const std::size_t oy = ty * spec.m + yy;
                            const std::size_t ox = tx * spec.m + xx;
                            if (oy < ho && ox < wo)
                                out.at(in, oc, oy, ox) =
                                    res[yy * spec.m + xx];
                        }
                    }
                }
            }
        }
    }
    return out;
}

TensorI8
IntWinogradConv::forwardInt8(const TensorD &input, double *out_scale,
                             bool fuse_relu) const
{
    twq_assert(cfg_.pow2Scales,
               "forwardInt8 requires power-of-two scales");
    const WinoDims d = winoDims(input.shape(), cfg_.variant, cfg_.pad);
    const std::size_t t = d.t;
    const std::size_t tt = t * t;
    const std::size_t n = d.n;
    const std::size_t ho = d.ho;
    const std::size_t wo = d.wo;

    // Per output channel: the common power-of-two scale of the taps
    // (the minimum S_BG) and the relative left-shifts above it.
    std::vector<int> com_log2(cout_);
    std::vector<std::vector<int>> rel_shift(
        cout_, std::vector<int>(tt, 0));
    for (std::size_t oc = 0; oc < cout_; ++oc) {
        int lo = std::numeric_limits<int>::max();
        std::vector<int> logs(tt);
        for (std::size_t i = 0; i < t; ++i) {
            for (std::size_t j = 0; j < t; ++j) {
                const double sbg =
                    sb_(i, j) * wscales_.at(oc, i, j);
                logs[i * t + j] = log2Exact(sbg);
                lo = std::min(lo, logs[i * t + j]);
            }
        }
        com_log2[oc] = lo;
        for (std::size_t k = 0; k < logs.size(); ++k)
            rel_shift[oc][k] = logs[k] - lo;
    }

    // Pass 1: tiled integer pipeline into an int64 spatial output.
    TensorI64 xq, V, U, M;
    scatterGemm(input, /*useShifts=*/true, xq, V, U, M);

    // S_BG rescale as pure left-shifts relative to the channel's
    // common scale, applied in place per (tap, oc) GEMM segment.
    for (std::size_t k = 0; k < tt; ++k) {
        for (std::size_t oc = 0; oc < cout_; ++oc) {
            const int sh = rel_shift[oc][k];
            if (sh == 0)
                continue;
            std::int64_t *seg = M.data() + (k * cout_ + oc) * d.tiles;
            for (std::size_t p = 0; p < d.tiles; ++p)
                seg[p] <<= sh;
        }
    }

    // Integer A-transform as Kronecker row passes (exact), untiled
    // into the spatial int64 output.
    TensorI64 Y({d.m * d.m, cout_, d.tiles});
    applyKron(winoOutputKron<std::int64_t>(cfg_.variant), M.data(),
              cout_ * d.tiles, Y.data());
    TensorI64 raw({n, cout_, ho, wo});
    winogradUntile(Y, cfg_.variant, raw);

    // Pass 2: pick a power-of-two output scale covering the observed
    // range and requantize with shifts.
    double abs_max = 0.0;
    for (std::size_t in = 0; in < n; ++in)
        for (std::size_t oc = 0; oc < cout_; ++oc)
            for (std::size_t i = 0; i < ho * wo; ++i) {
                const double real =
                    static_cast<double>(
                        raw[(in * cout_ + oc) * ho * wo + i]) *
                    std::exp2(com_log2[oc]) * sx_;
                abs_max = std::max(abs_max, std::abs(real));
            }
    const double sy =
        pow2Ceil(scaleForMax(std::max(abs_max, 1e-30), 8));
    if (out_scale)
        *out_scale = sy;
    const int sy_log2 = log2Exact(sy);
    const int sx_log2 = log2Exact(sx_);

    TensorI8 out({n, cout_, ho, wo});
    for (std::size_t in = 0; in < n; ++in) {
        for (std::size_t oc = 0; oc < cout_; ++oc) {
            // q = raw >> (log2 sy - log2 s_com - log2 s_x).
            const int shift = sy_log2 - com_log2[oc] - sx_log2;
            for (std::size_t i = 0; i < ho * wo; ++i) {
                std::int64_t v =
                    raw[(in * cout_ + oc) * ho * wo + i];
                if (fuse_relu && v < 0)
                    v = 0;
                out[(in * cout_ + oc) * ho * wo + i] =
                    static_cast<std::int8_t>(
                        clampSigned(shiftRightRound(v, shift), 8));
            }
        }
    }
    return out;
}

TensorI8
IntWinogradConv::forwardInt8Reference(const TensorD &input,
                                      double *out_scale,
                                      bool fuse_relu) const
{
    twq_assert(cfg_.pow2Scales,
               "forwardInt8 requires power-of-two scales");
    const WinoSpec spec = winoSpec(cfg_.variant);
    const std::size_t n = input.dim(0);
    const ConvParams p{3, 1, cfg_.pad};
    const std::size_t ho = p.outSize(input.dim(2));
    const std::size_t wo = p.outSize(input.dim(3));
    const std::size_t tiles_y = (ho + spec.m - 1) / spec.m;
    const std::size_t tiles_x = (wo + spec.m - 1) / spec.m;

    const TensorI64 xq = [&] {
        TensorI64 q(input.shape());
        for (std::size_t i = 0; i < input.numel(); ++i)
            q[i] = quantize(input[i], sx_, cfg_.spatialBits);
        return q;
    }();

    // Per output channel: the common power-of-two scale of the taps
    // (the minimum S_BG) and the relative left-shifts above it.
    std::vector<int> com_log2(cout_);
    std::vector<std::vector<int>> rel_shift(
        cout_, std::vector<int>(spec.t * spec.t, 0));
    for (std::size_t oc = 0; oc < cout_; ++oc) {
        int lo = std::numeric_limits<int>::max();
        std::vector<int> logs(spec.t * spec.t);
        for (std::size_t i = 0; i < spec.t; ++i) {
            for (std::size_t j = 0; j < spec.t; ++j) {
                const double sbg =
                    sb_(i, j) * wscales_.at(oc, i, j);
                logs[i * spec.t + j] = log2Exact(sbg);
                lo = std::min(lo, logs[i * spec.t + j]);
            }
        }
        com_log2[oc] = lo;
        for (std::size_t k = 0; k < logs.size(); ++k)
            rel_shift[oc][k] = logs[k] - lo;
    }

    // Pass 1: integer pipeline into an int64 spatial output.
    TensorI64 raw({n, cout_, ho, wo});
    std::vector<MatrixI64> ixf(cin_);
    for (std::size_t in = 0; in < n; ++in) {
        for (std::size_t ty = 0; ty < tiles_y; ++ty) {
            for (std::size_t tx = 0; tx < tiles_x; ++tx) {
                for (std::size_t ic = 0; ic < cin_; ++ic) {
                    const MatrixI64 tile = extractInputTile(
                        xq, in, ic, ty, tx, cfg_.variant, cfg_.pad);
                    MatrixI64 xf =
                        inputTransformInt(tile, cfg_.variant);
                    for (std::size_t i = 0; i < spec.t; ++i) {
                        for (std::size_t j = 0; j < spec.t; ++j) {
                            const int sh = log2Exact(sb_(i, j));
                            xf(i, j) = clampSigned(
                                shiftRightRound(xf(i, j), sh),
                                cfg_.winogradBits);
                        }
                    }
                    ixf[ic] = std::move(xf);
                }
                for (std::size_t oc = 0; oc < cout_; ++oc) {
                    MatrixI64 acc(spec.t, spec.t);
                    for (std::size_t ic = 0; ic < cin_; ++ic) {
                        const auto &wt = wq_[oc * cin_ + ic];
                        const auto &it = ixf[ic];
                        for (std::size_t i = 0; i < spec.t; ++i)
                            for (std::size_t j = 0; j < spec.t; ++j)
                                acc(i, j) += wt(i, j) * it(i, j);
                    }
                    // S_BG rescale as pure left-shifts relative to
                    // the channel's common scale.
                    for (std::size_t i = 0; i < spec.t; ++i)
                        for (std::size_t j = 0; j < spec.t; ++j)
                            acc(i, j) <<=
                                rel_shift[oc][i * spec.t + j];
                    const MatrixI64 res =
                        outputTransformInt(acc, cfg_.variant);
                    for (std::size_t yy = 0; yy < spec.m; ++yy) {
                        for (std::size_t xx = 0; xx < spec.m; ++xx) {
                            const std::size_t oy = ty * spec.m + yy;
                            const std::size_t ox = tx * spec.m + xx;
                            if (oy < ho && ox < wo)
                                raw.at(in, oc, oy, ox) = res(yy, xx);
                        }
                    }
                }
            }
        }
    }

    // Pass 2: pick a power-of-two output scale covering the observed
    // range and requantize with shifts.
    double abs_max = 0.0;
    for (std::size_t in = 0; in < n; ++in)
        for (std::size_t oc = 0; oc < cout_; ++oc)
            for (std::size_t i = 0; i < ho * wo; ++i) {
                const double real =
                    static_cast<double>(
                        raw[(in * cout_ + oc) * ho * wo + i]) *
                    std::exp2(com_log2[oc]) * sx_;
                abs_max = std::max(abs_max, std::abs(real));
            }
    const double sy =
        pow2Ceil(scaleForMax(std::max(abs_max, 1e-30), 8));
    if (out_scale)
        *out_scale = sy;
    const int sy_log2 = log2Exact(sy);
    const int sx_log2 = log2Exact(sx_);

    TensorI8 out({n, cout_, ho, wo});
    for (std::size_t in = 0; in < n; ++in) {
        for (std::size_t oc = 0; oc < cout_; ++oc) {
            // q = raw >> (log2 sy - log2 s_com - log2 s_x).
            const int shift = sy_log2 - com_log2[oc] - sx_log2;
            for (std::size_t i = 0; i < ho * wo; ++i) {
                std::int64_t v =
                    raw[(in * cout_ + oc) * ho * wo + i];
                if (fuse_relu && v < 0)
                    v = 0;
                out[(in * cout_ + oc) * ho * wo + i] =
                    static_cast<std::int8_t>(
                        clampSigned(shiftRightRound(v, shift), 8));
            }
        }
    }
    return out;
}

std::vector<int>
IntWinogradConv::inputShifts() const
{
    std::vector<int> shifts;
    shifts.reserve(sb_.rows() * sb_.cols());
    for (std::size_t i = 0; i < sb_.rows(); ++i)
        for (std::size_t j = 0; j < sb_.cols(); ++j)
            shifts.push_back(log2Exact(sb_(i, j)));
    return shifts;
}

double
relativeL2Error(const TensorD &a, const TensorD &b)
{
    twq_assert(a.shape() == b.shape(), "shape mismatch");
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i) {
        const double d = a[i] - b[i];
        num += d * d;
        den += b[i] * b[i];
    }
    return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

} // namespace twq
