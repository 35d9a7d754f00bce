#include "layout/wino_blocked.hh"

#include <algorithm>

#include "common/logging.hh"
#include "layout/kernels.hh"
#include "obs/perf.hh"
#include "obs/trace.hh"

namespace twq
{

namespace
{

constexpr std::size_t kB = kLayoutBlock;

const layout::LayoutKernels &
table()
{
    return layout::kernels();
}

} // namespace

WinoDims
winoDimsBlocked(const Shape &s, WinoVariant v, std::size_t pad)
{
    twq_assert(s.size() == 5 && s[4] == kB,
               "expected an NCHWc8 shape [N, Cb, H, W, 8]");
    // winoDims only derives tile geometry from N/H/W; feed it the
    // padded channel count so d.cin counts physical lanes.
    return winoDims({s[0], s[1] * kB, s[2], s[3]}, v, pad);
}

namespace layout
{

const LayoutKernels &
kernels()
{
    static const LayoutKernels t = [] {
        LayoutKernels k = avx2LayoutKernels();
        if (!k.tapGemm) {
            k = neonLayoutKernels();
            if (!k.tapGemm) {
                k = LayoutKernels{};
                k.tapGemm = &scalarTapGemmD<>;
                k.kron = &scalarKronD<>;
                k.tapGemmI16 = &scalarTapGemmI16<>;
                k.kronI32 = &scalarKronI32<>;
                k.rescaleI16 = &scalarRescaleI16<>;
                k.rescaleU8 = &scalarRescaleU8<>;
                k.scaleI32F64 = &scalarScaleI32F64<>;
                k.quantizeI32 = &scalarQuantizeI32<>;
                k.quantizeI8 = &scalarQuantizeI8<>;
                k.name = "scalar";
            }
        }
        // AVX-512 VNNI tap kernels merge over the base table; the
        // name reflects them because it participates in
        // PlanCache::signature() — plans measured with the VNNI
        // kernels are not valid without them.
        const LayoutKernels v = vnniLayoutKernels();
        if (v.tapGemmU8) {
            k.tapGemmU8 = v.tapGemmU8;
            k.tapGemmI16 = v.tapGemmI16;
            k.name = v.name;
        }
        // ISA tables predating the epilogue row kernel (NEON) fall
        // back to the scalar reference per field.
        if (!k.epilogueRowD)
            k.epilogueRowD = &scalarEpilogueRowD<>;
        if (!k.epilogueRowF)
            k.epilogueRowF = &scalarEpilogueRowF<>;
        return k;
    }();
    return t;
}

} // namespace layout

const char *
layoutKernelName()
{
    return table().name;
}

BlockedTapWeights
blockedTapWeights(const WinogradTapWeights<double> &w)
{
    const WinoSpec spec = winoSpec(w.variant);
    const std::size_t tt = spec.t * spec.t;
    BlockedTapWeights out;
    out.variant = w.variant;
    out.cout = w.cout;
    out.cin = w.cin;
    out.coutb = layoutBlocks(w.cout);
    out.cinb = layoutBlocks(w.cin);
    const std::size_t cinp = out.cinb * kB;
    out.taps.assign(tt * out.coutb * cinp * kB, 0.0);
    for (std::size_t k = 0; k < tt; ++k) {
        const double *src = w.tap(k);
        double *dst = out.taps.data() + k * out.coutb * cinp * kB;
        for (std::size_t oc = 0; oc < w.cout; ++oc) {
            const std::size_t co = oc / kB;
            const std::size_t lo = oc % kB;
            for (std::size_t ic = 0; ic < w.cin; ++ic)
                dst[(co * cinp + ic) * kB + lo] =
                    src[oc * w.cin + ic];
        }
    }
    return out;
}

template <typename T>
void
winogradGatherTileRowsBlocked(const Tensor<T> &input, WinoVariant v,
                              std::size_t pad, std::size_t g0,
                              std::size_t g1, T *V)
{
    const WinoDims d = winoDimsBlocked(input.shape(), v, pad);
    const std::size_t cb = input.dim(1);
    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    const std::size_t tt = d.t * d.t;
    twq_assert(g0 <= g1 && g1 <= d.n * d.tilesY,
               "tile-row range beyond the batch");
    const std::size_t tiles = (g1 - g0) * d.tilesX;

    for (std::size_t k = 0; k < tt; ++k) {
        const std::ptrdiff_t dy =
            static_cast<std::ptrdiff_t>(k / d.t) -
            static_cast<std::ptrdiff_t>(pad);
        const std::ptrdiff_t dx =
            static_cast<std::ptrdiff_t>(k % d.t) -
            static_cast<std::ptrdiff_t>(pad);
        for (std::size_t b = 0; b < cb; ++b) {
            T *dstc = V + (k * cb + b) * tiles * kB;
            for (std::size_t g = g0; g < g1; ++g) {
                const std::size_t n = g / d.tilesY;
                const std::size_t ty = g % d.tilesY;
                T *dst = dstc + (g - g0) * d.tilesX * kB;
                const std::ptrdiff_t iy =
                    static_cast<std::ptrdiff_t>(ty * d.m) + dy;
                if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
                    std::fill(dst, dst + d.tilesX * kB, T{});
                    continue;
                }
                const T *srow =
                    input.data() +
                    ((n * cb + b) * h + static_cast<std::size_t>(iy)) *
                        w * kB;
                for (std::size_t tx = 0; tx < d.tilesX; ++tx) {
                    const std::ptrdiff_t ix =
                        static_cast<std::ptrdiff_t>(tx * d.m) + dx;
                    T *dv = dst + tx * kB;
                    if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) {
                        std::fill(dv, dv + kB, T{});
                    } else {
                        const T *sv =
                            srow + static_cast<std::size_t>(ix) * kB;
                        std::copy(sv, sv + kB, dv);
                    }
                }
            }
        }
    }
}

template <typename T>
void
winogradGatherTilesBlocked(const Tensor<T> &input, WinoVariant v,
                           std::size_t pad, Tensor<T> &V)
{
    const WinoDims d = winoDimsBlocked(input.shape(), v, pad);
    const Shape want{d.t * d.t, input.dim(1), d.tiles, kB};
    if (V.shape() != want)
        V = Tensor<T>(want);
    winogradGatherTileRowsBlocked(input, v, pad, 0, d.n * d.tilesY,
                                  V.data());
}

void
winogradScatterAddTilesBlocked(const TensorD &V, WinoVariant v,
                               std::size_t pad, TensorD &grad)
{
    const WinoDims d = winoDimsBlocked(grad.shape(), v, pad);
    const std::size_t cb = grad.dim(1);
    const std::size_t h = grad.dim(2);
    const std::size_t w = grad.dim(3);
    const std::size_t tt = d.t * d.t;
    twq_assert(V.rank() == 4 && V.dim(0) == tt && V.dim(1) == cb &&
                   V.dim(2) == d.tiles && V.dim(3) == kB,
               "tile buffer does not match the gradient geometry");
    for (std::size_t k = 0; k < tt; ++k) {
        const std::ptrdiff_t dy =
            static_cast<std::ptrdiff_t>(k / d.t) -
            static_cast<std::ptrdiff_t>(pad);
        const std::ptrdiff_t dx =
            static_cast<std::ptrdiff_t>(k % d.t) -
            static_cast<std::ptrdiff_t>(pad);
        for (std::size_t n = 0; n < d.n; ++n) {
            for (std::size_t b = 0; b < cb; ++b) {
                double *plane =
                    grad.data() + (n * cb + b) * h * w * kB;
                const double *srcc =
                    V.data() + ((k * cb + b) * d.tiles +
                                n * d.tilesY * d.tilesX) *
                                   kB;
                for (std::size_t ty = 0; ty < d.tilesY; ++ty) {
                    const std::ptrdiff_t iy =
                        static_cast<std::ptrdiff_t>(ty * d.m) + dy;
                    if (iy < 0 ||
                        iy >= static_cast<std::ptrdiff_t>(h))
                        continue;
                    double *drow =
                        plane + static_cast<std::size_t>(iy) * w * kB;
                    const double *src = srcc + ty * d.tilesX * kB;
                    for (std::size_t tx = 0; tx < d.tilesX; ++tx) {
                        const std::ptrdiff_t ix =
                            static_cast<std::ptrdiff_t>(tx * d.m) +
                            dx;
                        if (ix < 0 ||
                            ix >= static_cast<std::ptrdiff_t>(w))
                            continue;
                        double *dv =
                            drow +
                            static_cast<std::size_t>(ix) * kB;
                        const double *sv = src + tx * kB;
                        for (std::size_t l = 0; l < kB; ++l)
                            dv[l] += sv[l];
                    }
                }
            }
        }
    }
}

namespace
{

/// Per-tap GEMM over `tiles` columns: U [t*t, Cinb, tiles, 8] ->
/// M [t*t, Coutb, tiles, 8].
void
tapGemmTiles(const BlockedTapWeights &w, const double *U, double *M,
             std::size_t tiles, gemm::ParallelRunner *runner)
{
    const WinoSpec spec = winoSpec(w.variant);
    gemm::runTapColBlocks(
        runner, spec.t * spec.t, tiles, layout::kTapPr,
        [&](std::size_t k, std::size_t j0, std::size_t jn,
            std::size_t) {
            table().tapGemm(w.tap(k), U + k * w.cinb * tiles * kB,
                            M + k * w.coutb * tiles * kB, w.coutb,
                            w.cinb, tiles, j0, jn);
        });
}

} // namespace

void
winogradTapGemmBlocked(const BlockedTapWeights &w, const TensorD &U,
                       TensorD &M, gemm::ParallelRunner *runner)
{
    const WinoSpec spec = winoSpec(w.variant);
    const std::size_t tt = spec.t * spec.t;
    twq_assert(U.rank() == 4 && U.dim(0) == tt &&
                   U.dim(1) == w.cinb && U.dim(3) == kB,
               "scatter buffer does not match blocked tap weights");
    const std::size_t tiles = U.dim(2);
    const Shape want{tt, w.coutb, tiles, kB};
    if (M.shape() != want)
        M = TensorD(want);
    tapGemmTiles(w, U.data(), M.data(), tiles, runner);
}

namespace
{

/// Type-dispatch onto the resolved epilogue row kernel.
inline void
epilogueRow(const double *src, double *dst, std::size_t stride,
            std::size_t count, const double *b8, bool relu)
{
    table().epilogueRowD(src, dst, stride, count, b8, relu);
}

inline void
epilogueRow(const float *src, float *dst, std::size_t stride,
            std::size_t count, const float *b8, bool relu)
{
    table().epilogueRowF(src, dst, stride, count, b8, relu);
}

/// Integer untiles (the int8 accumulator path) have no SIMD row
/// kernel; the exact overloads above win for double/float.
template <typename T>
inline void
epilogueRow(const T *src, T *dst, std::size_t stride,
            std::size_t count, const T *b8, bool relu)
{
    twq::layout::epilogueRowRef(src, dst, stride, count, b8, relu);
}

} // namespace

template <typename T>
void
winogradUntileTileRowsBlocked(const T *Y, WinoVariant v, std::size_t g0,
                              std::size_t g1, Tensor<T> &out,
                              const T *bias8, bool relu)
{
    const WinoSpec spec = winoSpec(v);
    const std::size_t m = spec.m;
    const std::size_t mm = m * m;
    twq_assert(out.rank() == 5 && out.dim(4) == kB,
               "winogradUntileBlocked expects an NCHWc8 output");
    const std::size_t cb = out.dim(1);
    const std::size_t ho = out.dim(2);
    const std::size_t wo = out.dim(3);
    const std::size_t tilesY = (ho + m - 1) / m;
    const std::size_t tilesX = (wo + m - 1) / m;
    twq_assert(g0 <= g1 && g1 <= out.dim(0) * tilesY,
               "tile-row range beyond the batch");
    const std::size_t tiles = (g1 - g0) * tilesX;

    for (std::size_t k = 0; k < mm; ++k) {
        const std::size_t j1 = k / m;
        const std::size_t j2 = k % m;
        // For a fixed k the valid tile columns form a prefix: the
        // output column ox = tx*m + j2 grows monotonically with tx,
        // so each (in, b, ty) row collapses to one row-kernel call
        // over `cnt` contiguous source groups, strided into the
        // output plane. The kernel is dispatched (AVX2 where the
        // host has it) because this nest is too deep for the
        // autovectorizer: inline lane loops stay scalar and the
        // branchy ReLU costs more than the memory pass the fusion
        // deletes.
        const std::size_t cnt =
            j2 < wo ? (wo - j2 + m - 1) / m : 0;
        if (cnt == 0)
            continue;
        for (std::size_t b = 0; b < cb; ++b) {
            const T *srcc = Y + (k * cb + b) * tiles * kB;
            const T *bv = bias8 ? bias8 + b * kB : nullptr;
            for (std::size_t g = g0; g < g1; ++g) {
                const std::size_t in = g / tilesY;
                const std::size_t oy = g % tilesY * m + j1;
                if (oy >= ho)
                    continue;
                T *drow = out.data() +
                          ((in * cb + b) * ho + oy) * wo * kB + j2 * kB;
                const T *src = srcc + (g - g0) * tilesX * kB;
                epilogueRow(src, drow, m * kB, cnt, bv, relu);
            }
        }
    }
}

template <typename T>
void
winogradUntileBlocked(const Tensor<T> &Y, WinoVariant v, Tensor<T> &out,
                      const T *bias8, bool relu)
{
    const std::size_t m = winoSpec(v).m;
    twq_assert(out.rank() == 5 && out.dim(4) == kB,
               "winogradUntileBlocked expects an NCHWc8 output");
    const std::size_t rows = out.dim(0) * ((out.dim(2) + m - 1) / m);
    const std::size_t tiles = rows * ((out.dim(3) + m - 1) / m);
    twq_assert(Y.rank() == 4 && Y.dim(0) == m * m &&
                   Y.dim(1) == out.dim(1) && Y.dim(2) == tiles &&
                   Y.dim(3) == kB,
               "tile buffer does not match the output geometry");
    winogradUntileTileRowsBlocked(Y.data(), v, 0, rows, out, bias8,
                                  relu);
}

void
conv2dWinogradBlockedInto(const TensorD &input,
                          const BlockedTapWeights &w, std::size_t pad,
                          TensorD &V, TensorD &U, TensorD &M,
                          TensorD &Y, TensorD &out,
                          gemm::ParallelRunner *runner,
                          const double *bias8, bool relu)
{
    const WinoDims d = winoDimsBlocked(input.shape(), w.variant, pad);
    twq_assert(input.dim(1) == w.cinb,
               "input channel blocks do not match prepared weights");
    twq_assert(out.rank() == 5 && out.dim(0) == d.n &&
                   out.dim(1) == w.coutb && out.dim(2) == d.ho &&
                   out.dim(3) == d.wo && out.dim(4) == kB,
               "output tensor not pre-shaped for the blocked launch");
    const std::size_t tt = d.t * d.t;
    const std::size_t rows = d.n * d.tilesY;
    // One tile row of each buffer, in elements.
    const std::size_t rowIn = tt * w.cinb * d.tilesX * kB;  // V, U
    const std::size_t rowOut = tt * w.coutb * d.tilesX * kB; // M
    const std::size_t rowY = d.m * d.m * w.coutb * d.tilesX * kB;
    const std::size_t per = std::min(
        rows, winoChunkRows(std::max(rowIn, rowOut) * sizeof(double)));
    double *v = winoChunkBuffer(V, per * rowIn);
    double *u = winoChunkBuffer(U, per * rowIn);
    double *m = winoChunkBuffer(M, per * rowOut);
    double *y = winoChunkBuffer(Y, per * rowY);

    for (std::size_t g0 = 0; g0 < rows; g0 += per) {
        const std::size_t g1 = std::min(rows, g0 + per);
        const std::size_t tiles = (g1 - g0) * d.tilesX;
        {
            TWQ_SPAN("winoc8.gather");
            TWQ_STAGE_PERF("winoc8.gather");
            winogradGatherTileRowsBlocked(input, w.variant, pad, g0, g1,
                                          v);
        }
        {
            TWQ_SPAN("winoc8.bkron");
            TWQ_STAGE_PERF("winoc8.bkron");
            table().kron(winoInputKron<double>(w.variant), v,
                         w.cinb * tiles * kB, u);
        }
        {
            TWQ_SPAN("winoc8.tapgemm");
            TWQ_STAGE_PERF("winoc8.tapgemm");
            tapGemmTiles(w, u, m, tiles, runner);
        }
        {
            TWQ_SPAN("winoc8.akron");
            TWQ_STAGE_PERF("winoc8.akron");
            table().kron(winoOutputKron<double>(w.variant), m,
                         w.coutb * tiles * kB, y);
        }
        {
            TWQ_SPAN("winoc8.untile");
            TWQ_STAGE_PERF("winoc8.untile");
            winogradUntileTileRowsBlocked(y, w.variant, g0, g1, out,
                                          bias8, relu);
        }
    }
}

TensorD
conv2dWinogradBlocked(const TensorD &input, const BlockedTapWeights &w,
                      std::size_t pad)
{
    const WinoDims d = winoDimsBlocked(input.shape(), w.variant, pad);
    TensorD V, U, M, Y;
    TensorD out({d.n, w.coutb, d.ho, d.wo, kB});
    conv2dWinogradBlockedInto(input, w, pad, V, U, M, Y, out);
    return out;
}

BlockedTapWeightsF16
blockedTapWeightsF16(const WinogradTapWeights<double> &w)
{
    const WinoSpec spec = winoSpec(w.variant);
    const std::size_t tt = spec.t * spec.t;
    BlockedTapWeightsF16 out;
    out.variant = w.variant;
    out.cout = w.cout;
    out.cin = w.cin;
    out.coutb = layoutBlocks(w.cout);
    out.cinb = layoutBlocks(w.cin);
    const std::size_t cinp = out.cinb * kB;
    const std::size_t total = tt * out.coutb * cinp * kB;
    // Re-block in fp32, then narrow the whole buffer in one pass so
    // the stored half is a single round-to-nearest-even of the fp32
    // coefficient (the zero padding narrows to +0).
    std::vector<float> tmp(total, 0.0f);
    for (std::size_t k = 0; k < tt; ++k) {
        const double *src = w.tap(k);
        float *dst = tmp.data() + k * out.coutb * cinp * kB;
        for (std::size_t oc = 0; oc < w.cout; ++oc) {
            const std::size_t co = oc / kB;
            const std::size_t lo = oc % kB;
            for (std::size_t ic = 0; ic < w.cin; ++ic)
                dst[(co * cinp + ic) * kB + lo] =
                    static_cast<float>(src[oc * w.cin + ic]);
        }
    }
    out.taps.resize(total);
    layout::f16Kernels().narrow(tmp.data(), out.taps.data(), total);
    return out;
}

namespace
{

/// tapGemmTiles on binary16 weights and fp32 tiles.
void
tapGemmTilesF16(const BlockedTapWeightsF16 &w, const float *U, float *M,
                std::size_t tiles, gemm::ParallelRunner *runner)
{
    const WinoSpec spec = winoSpec(w.variant);
    const layout::F16Kernels &hk = layout::f16Kernels();
    gemm::runTapColBlocks(
        runner, spec.t * spec.t, tiles, layout::kTapPr,
        [&](std::size_t k, std::size_t j0, std::size_t jn,
            std::size_t) {
            hk.tapGemm(w.tap(k), U + k * w.cinb * tiles * kB,
                       M + k * w.coutb * tiles * kB, w.coutb, w.cinb,
                       tiles, j0, jn);
        });
}

} // namespace

void
conv2dWinogradBlockedF16Into(const TensorF16 &input,
                             const BlockedTapWeightsF16 &w,
                             std::size_t pad, TensorF16 &V16,
                             TensorF &V, TensorF &U, TensorF &M,
                             TensorF &Y, TensorF &outF, TensorF16 &out,
                             gemm::ParallelRunner *runner,
                             const float *bias8, bool relu)
{
    const WinoDims d = winoDimsBlocked(input.shape(), w.variant, pad);
    twq_assert(input.dim(1) == w.cinb,
               "input channel blocks do not match prepared weights");
    twq_assert(out.rank() == 5 && out.dim(0) == d.n &&
                   out.dim(1) == w.coutb && out.dim(2) == d.ho &&
                   out.dim(3) == d.wo && out.dim(4) == kB,
               "output tensor not pre-shaped for the blocked launch");
    const std::size_t tt = d.t * d.t;
    const std::size_t rows = d.n * d.tilesY;
    const layout::F16Kernels &hk = layout::f16Kernels();
    // One tile row of each buffer, in elements.
    const std::size_t rowIn = tt * w.cinb * d.tilesX * kB;  // V16, V, U
    const std::size_t rowOut = tt * w.coutb * d.tilesX * kB; // M
    const std::size_t rowY = d.m * d.m * w.coutb * d.tilesX * kB;
    const std::size_t per = std::min(
        rows, winoChunkRows(std::max(rowIn, rowOut) * sizeof(float)));
    std::uint16_t *v16 = winoChunkBuffer(V16, per * rowIn);
    float *v = winoChunkBuffer(V, per * rowIn);
    float *u = winoChunkBuffer(U, per * rowIn);
    float *m = winoChunkBuffer(M, per * rowOut);
    float *y = winoChunkBuffer(Y, per * rowY);
    const Shape oWant{d.n, w.coutb, d.ho, d.wo, kB};
    if (outF.shape() != oWant)
        outF = TensorF(oWant);

    for (std::size_t g0 = 0; g0 < rows; g0 += per) {
        const std::size_t g1 = std::min(rows, g0 + per);
        const std::size_t tiles = (g1 - g0) * d.tilesX;
        {
            // Tile gather moves raw half bit patterns; the widen
            // afterwards is the only storage->compute conversion on
            // the activation side.
            TWQ_SPAN("winoc8h.gather");
            TWQ_STAGE_PERF("winoc8h.gather");
            winogradGatherTileRowsBlocked(input, w.variant, pad, g0, g1,
                                          v16);
            hk.widen(v16, v, tt * w.cinb * tiles * kB);
        }
        {
            TWQ_SPAN("winoc8h.bkron");
            TWQ_STAGE_PERF("winoc8h.bkron");
            hk.kron(winoInputKron<float>(w.variant), v,
                    w.cinb * tiles * kB, u);
        }
        {
            TWQ_SPAN("winoc8h.tapgemm");
            TWQ_STAGE_PERF("winoc8h.tapgemm");
            tapGemmTilesF16(w, u, m, tiles, runner);
        }
        {
            TWQ_SPAN("winoc8h.akron");
            TWQ_STAGE_PERF("winoc8h.akron");
            hk.kron(winoOutputKron<float>(w.variant), m,
                    w.coutb * tiles * kB, y);
        }
        {
            // Untile (with the fused fp32 epilogue) into the fp32
            // staging plane.
            TWQ_SPAN("winoc8h.untile");
            TWQ_STAGE_PERF("winoc8h.untile");
            winogradUntileTileRowsBlocked(y, w.variant, g0, g1, outF,
                                          bias8, relu);
        }
    }
    {
        // Narrow the whole activation in one pass: the stored half is
        // a single RNE rounding of the epilogue result.
        TWQ_SPAN("winoc8h.untile");
        TWQ_STAGE_PERF("winoc8h.untile");
        hk.narrow(outF.data(), out.data(), outF.numel());
    }
}

TensorF16
conv2dWinogradBlockedF16(const TensorF16 &input,
                         const BlockedTapWeightsF16 &w, std::size_t pad,
                         const float *bias8, bool relu)
{
    const WinoDims d = winoDimsBlocked(input.shape(), w.variant, pad);
    TensorF16 V16;
    TensorF V, U, M, Y, outF;
    TensorF16 out({d.n, w.coutb, d.ho, d.wo, kB});
    conv2dWinogradBlockedF16Into(input, w, pad, V16, V, U, M, Y, outF,
                                 out, nullptr, bias8, relu);
    return out;
}

template void winogradGatherTilesBlocked(const Tensor<double> &,
                                         WinoVariant, std::size_t,
                                         Tensor<double> &);
template void
winogradGatherTilesBlocked(const Tensor<std::int32_t> &, WinoVariant,
                           std::size_t, Tensor<std::int32_t> &);
template void
winogradGatherTilesBlocked(const Tensor<std::uint16_t> &, WinoVariant,
                           std::size_t, Tensor<std::uint16_t> &);
template void winogradUntileBlocked(const Tensor<double> &, WinoVariant,
                                    Tensor<double> &, const double *,
                                    bool);
template void winogradUntileBlocked(const Tensor<float> &, WinoVariant,
                                    Tensor<float> &, const float *,
                                    bool);
template void winogradUntileBlocked(const Tensor<std::int64_t> &,
                                    WinoVariant,
                                    Tensor<std::int64_t> &,
                                    const std::int64_t *, bool);
template void
winogradGatherTileRowsBlocked(const Tensor<std::int32_t> &, WinoVariant,
                              std::size_t, std::size_t, std::size_t,
                              std::int32_t *);
template void
winogradUntileTileRowsBlocked(const double *, WinoVariant, std::size_t,
                              std::size_t, Tensor<double> &,
                              const double *, bool);

} // namespace twq
