#include "winograd/tiled.hh"

#include <algorithm>
#include <type_traits>

#include "common/logging.hh"

namespace twq
{

namespace
{

/// Largest transformed tile across variants (F6: t = 8).
constexpr std::size_t kMaxT = 8;

template <typename T>
std::vector<T>
ratToFlat(const Matrix<Rational> &m)
{
    std::vector<T> out(m.rows() * m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            out[r * m.cols() + c] =
                static_cast<T>(m(r, c).toDouble());
    return out;
}

} // namespace

WinoDims
winoDims(const Shape &input, WinoVariant v, std::size_t pad)
{
    twq_assert(input.size() == 4, "winoDims expects an NCHW shape");
    const WinoSpec spec = winoSpec(v);
    const ConvParams p{3, 1, pad};
    WinoDims d;
    d.t = spec.t;
    d.m = spec.m;
    d.n = input[0];
    d.cin = input[1];
    d.ho = p.outSize(input[2]);
    d.wo = p.outSize(input[3]);
    d.tilesY = (d.ho + spec.m - 1) / spec.m;
    d.tilesX = (d.wo + spec.m - 1) / spec.m;
    d.tiles = d.n * d.tilesY * d.tilesX;
    return d;
}

template <typename T>
WinogradTapWeights<T>
winogradPrepareTapWeights(const Tensor<T> &weights, WinoVariant v)
{
    twq_assert(weights.rank() == 4, "expected OIKK weights");
    twq_assert(weights.dim(2) == 3 && weights.dim(3) == 3,
               "Winograd path supports 3x3 kernels only");
    const WinoSpec spec = winoSpec(v);
    const std::size_t t = spec.t;
    const std::size_t cout = weights.dim(0);
    const std::size_t cin = weights.dim(1);
    const std::vector<T> g = ratToFlat<T>(winoG(v));

    WinogradTapWeights<T> out;
    out.variant = v;
    out.cout = cout;
    out.cin = cin;
    out.taps.resize(t * t * cout * cin);
    T f[9];
    T tmp[kMaxT * 3];
    T wx[kMaxT * kMaxT];
    for (std::size_t oc = 0; oc < cout; ++oc) {
        for (std::size_t ic = 0; ic < cin; ++ic) {
            for (std::size_t ky = 0; ky < 3; ++ky)
                for (std::size_t kx = 0; kx < 3; ++kx)
                    f[ky * 3 + kx] = weights.at(oc, ic, ky, kx);
            // wx = G f G^T with G of shape [t, 3].
            gemm::referenceGemm(g.data(), f, tmp, t, 3, 3);
            for (std::size_t i = 0; i < t; ++i) {
                for (std::size_t j = 0; j < t; ++j) {
                    T s{};
                    for (std::size_t k = 0; k < 3; ++k)
                        s += tmp[i * 3 + k] * g[j * 3 + k];
                    wx[i * t + j] = s;
                }
            }
            for (std::size_t k = 0; k < t * t; ++k)
                out.at(k, oc, ic) = wx[k];
        }
    }
    return out;
}

template <typename T>
WinogradTapWeights<T>
tapMajorWeights(const WinogradWeights<T> &w)
{
    const WinoSpec spec = winoSpec(w.variant);
    const std::size_t t = spec.t;
    WinogradTapWeights<T> out;
    out.variant = w.variant;
    out.cout = w.cout;
    out.cin = w.cin;
    out.taps.resize(t * t * w.cout * w.cin);
    for (std::size_t oc = 0; oc < w.cout; ++oc)
        for (std::size_t ic = 0; ic < w.cin; ++ic) {
            const Matrix<T> &tile = w.tile(oc, ic);
            for (std::size_t i = 0; i < t; ++i)
                for (std::size_t j = 0; j < t; ++j)
                    out.at(i * t + j, oc, ic) = tile(i, j);
        }
    return out;
}

template <typename T>
WinoKronPlan<T>
makeKronPlan(const Matrix<Rational> &l)
{
    const std::size_t rows = l.rows();
    const std::size_t cols = l.cols();
    WinoKronPlan<T> plan;
    plan.rowsOut = rows * rows;
    plan.rowsIn = cols * cols;
    plan.rowStart.reserve(plan.rowsOut + 1);
    plan.rowStart.push_back(0);
    for (std::size_t i1 = 0; i1 < rows; ++i1) {
        for (std::size_t i2 = 0; i2 < rows; ++i2) {
            for (std::size_t k1 = 0; k1 < cols; ++k1) {
                for (std::size_t k2 = 0; k2 < cols; ++k2) {
                    const Rational c = l(i1, k1) * l(i2, k2);
                    if (c == Rational(0))
                        continue;
                    if constexpr (std::is_integral_v<T>)
                        twq_assert(c.den() == 1,
                                   "integer kron plan needs an "
                                   "integer transform matrix");
                    typename WinoKronPlan<T>::Term term;
                    term.in =
                        static_cast<std::uint16_t>(k1 * cols + k2);
                    term.coeff = static_cast<T>(c.toDouble());
                    plan.terms.push_back(term);
                }
            }
            plan.rowStart.push_back(
                static_cast<std::uint32_t>(plan.terms.size()));
        }
    }
    return plan;
}

template <typename T>
const WinoKronPlan<T> &
winoInputKron(WinoVariant v)
{
    // Lazy per-variant statics: the F6 plan only exists for FP T
    // (the integer builder asserts on its fractional coefficients),
    // so it must not be built eagerly alongside F2/F4.
    switch (v) {
      case WinoVariant::F2: {
        static const WinoKronPlan<T> f2 =
            makeKronPlan<T>(winoBT(WinoVariant::F2));
        return f2;
      }
      case WinoVariant::F4: {
        static const WinoKronPlan<T> f4 =
            makeKronPlan<T>(winoBT(WinoVariant::F4));
        return f4;
      }
      case WinoVariant::F6: {
        static const WinoKronPlan<T> f6 =
            makeKronPlan<T>(winoBT(WinoVariant::F6));
        return f6;
      }
    }
    twq_panic("unknown WinoVariant");
}

template <typename T>
const WinoKronPlan<T> &
winoOutputKron(WinoVariant v)
{
    // Lazy per-variant statics: the F6 plan only exists for FP T
    // (the integer builder asserts on its fractional coefficients),
    // so it must not be built eagerly alongside F2/F4.
    switch (v) {
      case WinoVariant::F2: {
        static const WinoKronPlan<T> f2 =
            makeKronPlan<T>(winoAT(WinoVariant::F2));
        return f2;
      }
      case WinoVariant::F4: {
        static const WinoKronPlan<T> f4 =
            makeKronPlan<T>(winoAT(WinoVariant::F4));
        return f4;
      }
      case WinoVariant::F6: {
        static const WinoKronPlan<T> f6 =
            makeKronPlan<T>(winoAT(WinoVariant::F6));
        return f6;
      }
    }
    twq_panic("unknown WinoVariant");
}

template <typename T>
const WinoKronPlan<T> &
winoInputKronT(WinoVariant v)
{
    // Lazy per-variant statics: the F6 plan only exists for FP T
    // (the integer builder asserts on its fractional coefficients),
    // so it must not be built eagerly alongside F2/F4.
    switch (v) {
      case WinoVariant::F2: {
        static const WinoKronPlan<T> f2 =
            makeKronPlan<T>(winoBT(WinoVariant::F2).transposed());
        return f2;
      }
      case WinoVariant::F4: {
        static const WinoKronPlan<T> f4 =
            makeKronPlan<T>(winoBT(WinoVariant::F4).transposed());
        return f4;
      }
      case WinoVariant::F6: {
        static const WinoKronPlan<T> f6 =
            makeKronPlan<T>(winoBT(WinoVariant::F6).transposed());
        return f6;
      }
    }
    twq_panic("unknown WinoVariant");
}

template <typename T>
const WinoKronPlan<T> &
winoOutputKronT(WinoVariant v)
{
    // Lazy per-variant statics: the F6 plan only exists for FP T
    // (the integer builder asserts on its fractional coefficients),
    // so it must not be built eagerly alongside F2/F4.
    switch (v) {
      case WinoVariant::F2: {
        static const WinoKronPlan<T> f2 =
            makeKronPlan<T>(winoAT(WinoVariant::F2).transposed());
        return f2;
      }
      case WinoVariant::F4: {
        static const WinoKronPlan<T> f4 =
            makeKronPlan<T>(winoAT(WinoVariant::F4).transposed());
        return f4;
      }
      case WinoVariant::F6: {
        static const WinoKronPlan<T> f6 =
            makeKronPlan<T>(winoAT(WinoVariant::F6).transposed());
        return f6;
      }
    }
    twq_panic("unknown WinoVariant");
}

template <typename T>
void
applyKron(const WinoKronPlan<T> &plan, const T *x, std::size_t len,
          T *y)
{
    // Sixteen lanes: eight baseline SSE2 registers of doubles.
    constexpr std::size_t kBlock = 16;
    kronStrips<kBlock>(
        plan, x, len, y,
        [](const T *src, std::size_t stride, const auto *t,
           std::size_t n, T *out) {
            T acc[kBlock];
            const T *s0 = src + t[0].in * stride;
            for (std::size_t j = 0; j < kBlock; ++j)
                acc[j] = t[0].coeff * s0[j];
            for (std::size_t i = 1; i < n; ++i) {
                const T *s = src + t[i].in * stride;
                const T c = t[i].coeff;
                for (std::size_t j = 0; j < kBlock; ++j)
                    acc[j] += c * s[j];
            }
            for (std::size_t j = 0; j < kBlock; ++j)
                out[j] = acc[j];
        });
}

template <typename T>
void
winogradGatherTiles(const Tensor<T> &input, WinoVariant v,
                    std::size_t pad, Tensor<T> &V)
{
    twq_assert(input.rank() == 4, "winogradGatherTiles expects NCHW");
    const WinoDims d = winoDims(input.shape(), v, pad);
    const std::size_t tt = d.t * d.t;
    const Shape want{tt, d.cin, d.tiles};
    if (V.shape() != want)
        V = Tensor<T>(want);

    const std::size_t h = input.dim(2);
    const std::size_t w = input.dim(3);
    for (std::size_t k = 0; k < tt; ++k) {
        const std::ptrdiff_t dy =
            static_cast<std::ptrdiff_t>(k / d.t) -
            static_cast<std::ptrdiff_t>(pad);
        const std::ptrdiff_t dx =
            static_cast<std::ptrdiff_t>(k % d.t) -
            static_cast<std::ptrdiff_t>(pad);
        for (std::size_t n = 0; n < d.n; ++n) {
            for (std::size_t ic = 0; ic < d.cin; ++ic) {
                const T *plane =
                    input.data() + (n * d.cin + ic) * h * w;
                T *dstc = V.data() + (k * d.cin + ic) * d.tiles +
                          n * d.tilesY * d.tilesX;
                for (std::size_t ty = 0; ty < d.tilesY; ++ty) {
                    T *dst = dstc + ty * d.tilesX;
                    const std::ptrdiff_t iy =
                        static_cast<std::ptrdiff_t>(ty * d.m) + dy;
                    if (iy < 0 ||
                        iy >= static_cast<std::ptrdiff_t>(h)) {
                        for (std::size_t tx = 0; tx < d.tilesX; ++tx)
                            dst[tx] = T{};
                        continue;
                    }
                    const T *src =
                        plane + static_cast<std::size_t>(iy) * w;
                    for (std::size_t tx = 0; tx < d.tilesX; ++tx) {
                        const std::ptrdiff_t ix =
                            static_cast<std::ptrdiff_t>(tx * d.m) +
                            dx;
                        dst[tx] =
                            (ix < 0 ||
                             ix >= static_cast<std::ptrdiff_t>(w))
                                ? T{}
                                : src[static_cast<std::size_t>(ix)];
                    }
                }
            }
        }
    }
}

template <typename T>
void
winogradScatterAddTiles(const Tensor<T> &V, WinoVariant v,
                        std::size_t pad, Tensor<T> &grad)
{
    twq_assert(grad.rank() == 4, "winogradScatterAddTiles expects NCHW");
    const WinoDims d = winoDims(grad.shape(), v, pad);
    const std::size_t tt = d.t * d.t;
    twq_assert(V.rank() == 3 && V.dim(0) == tt && V.dim(1) == d.cin &&
                   V.dim(2) == d.tiles,
               "tile buffer does not match the gradient geometry");
    const std::size_t h = grad.dim(2);
    const std::size_t w = grad.dim(3);
    for (std::size_t k = 0; k < tt; ++k) {
        const std::ptrdiff_t dy =
            static_cast<std::ptrdiff_t>(k / d.t) -
            static_cast<std::ptrdiff_t>(pad);
        const std::ptrdiff_t dx =
            static_cast<std::ptrdiff_t>(k % d.t) -
            static_cast<std::ptrdiff_t>(pad);
        for (std::size_t n = 0; n < d.n; ++n) {
            for (std::size_t ic = 0; ic < d.cin; ++ic) {
                T *plane = grad.data() + (n * d.cin + ic) * h * w;
                const T *srcc =
                    V.data() + (k * d.cin + ic) * d.tiles +
                    n * d.tilesY * d.tilesX;
                for (std::size_t ty = 0; ty < d.tilesY; ++ty) {
                    const std::ptrdiff_t iy =
                        static_cast<std::ptrdiff_t>(ty * d.m) + dy;
                    if (iy < 0 ||
                        iy >= static_cast<std::ptrdiff_t>(h))
                        continue;
                    T *dst = plane + static_cast<std::size_t>(iy) * w;
                    const T *src = srcc + ty * d.tilesX;
                    for (std::size_t tx = 0; tx < d.tilesX; ++tx) {
                        const std::ptrdiff_t ix =
                            static_cast<std::ptrdiff_t>(tx * d.m) +
                            dx;
                        if (ix < 0 ||
                            ix >= static_cast<std::ptrdiff_t>(w))
                            continue;
                        dst[static_cast<std::size_t>(ix)] += src[tx];
                    }
                }
            }
        }
    }
}

template <typename T>
void
winogradScatter(const Tensor<T> &input, WinoVariant v, std::size_t pad,
                Tensor<T> &V, Tensor<T> &U)
{
    const WinoDims d = winoDims(input.shape(), v, pad);
    winogradGatherTiles(input, v, pad, V);
    const Shape want{d.t * d.t, d.cin, d.tiles};
    if (U.shape() != want)
        U = Tensor<T>(want);
    applyKron(winoInputKron<T>(v), V.data(), d.cin * d.tiles, U.data());
}

template <typename T>
void
winogradTapGemm(const WinogradTapWeights<T> &w, const Tensor<T> &U,
                Tensor<T> &M, gemm::ParallelRunner *runner)
{
    twq_assert(U.rank() == 3 && U.dim(1) == w.cin,
               "scatter buffer does not match tap weights");
    const WinoSpec spec = winoSpec(w.variant);
    const std::size_t tt = spec.t * spec.t;
    twq_assert(U.dim(0) == tt, "scatter buffer tap count mismatch");
    const std::size_t tiles = U.dim(2);
    const Shape want{tt, w.cout, tiles};
    if (M.shape() != want)
        M = Tensor<T>(want);
    // Shard tap x column-block: taps alone (16 for F2) under-fill
    // many-core pools, so each tap's product additionally splits into
    // P column blocks. Column blocks are bit-identical to the whole
    // product (see gemm::gemmCols), so any shard plan gives the same
    // result.
    gemm::runTapColBlocks(
        runner, tt, tiles, gemm::kNr,
        [&](std::size_t k, std::size_t j0, std::size_t jn,
            std::size_t) {
            gemm::gemmCols(w.tap(k),
                           U.data() + k * w.cin * tiles + j0,
                           M.data() + k * w.cout * tiles + j0, w.cout,
                           w.cin, jn, tiles, tiles);
        });
}

template <typename T>
void
winogradUntile(const Tensor<T> &Y, WinoVariant v, Tensor<T> &out)
{
    const WinoSpec spec = winoSpec(v);
    const std::size_t m = spec.m;
    const std::size_t mm = m * m;
    twq_assert(out.rank() == 4, "winogradUntile expects NCHW output");
    const std::size_t n = out.dim(0);
    const std::size_t cout = out.dim(1);
    const std::size_t ho = out.dim(2);
    const std::size_t wo = out.dim(3);
    const std::size_t tilesY = (ho + m - 1) / m;
    const std::size_t tilesX = (wo + m - 1) / m;
    const std::size_t tiles = n * tilesY * tilesX;
    twq_assert(Y.rank() == 3 && Y.dim(0) == mm && Y.dim(1) == cout &&
                   Y.dim(2) == tiles,
               "tile buffer does not match the output geometry");

    for (std::size_t k = 0; k < mm; ++k) {
        const std::size_t j1 = k / m;
        const std::size_t j2 = k % m;
        for (std::size_t in = 0; in < n; ++in) {
            for (std::size_t oc = 0; oc < cout; ++oc) {
                T *plane = out.data() + (in * cout + oc) * ho * wo;
                const T *srcc = Y.data() + (k * cout + oc) * tiles +
                                in * tilesY * tilesX;
                for (std::size_t ty = 0; ty < tilesY; ++ty) {
                    const std::size_t oy = ty * m + j1;
                    if (oy >= ho)
                        continue;
                    T *dst = plane + oy * wo;
                    const T *src = srcc + ty * tilesX;
                    for (std::size_t tx = 0; tx < tilesX; ++tx) {
                        const std::size_t ox = tx * m + j2;
                        if (ox < wo)
                            dst[ox] = src[tx];
                    }
                }
            }
        }
    }
}

template <typename T>
void
winogradGather(const Tensor<T> &M, WinoVariant v, Tensor<T> &Y,
               Tensor<T> &out)
{
    const WinoSpec spec = winoSpec(v);
    const std::size_t mm = spec.m * spec.m;
    twq_assert(M.rank() == 3, "winogradGather expects a [tt, C, P] M");
    const std::size_t cout = M.dim(1);
    const std::size_t tiles = M.dim(2);
    const Shape want{mm, cout, tiles};
    if (Y.shape() != want)
        Y = Tensor<T>(want);
    applyKron(winoOutputKron<T>(v), M.data(), cout * tiles, Y.data());
    winogradUntile(Y, v, out);
}

template <typename T>
Tensor<T>
conv2dWinogradTiled(const Tensor<T> &input,
                    const WinogradTapWeights<T> &w, std::size_t pad)
{
    twq_assert(input.rank() == 4,
               "conv2dWinogradTiled expects an NCHW input");
    twq_assert(input.dim(1) == w.cin,
               "input channels do not match prepared weights");
    const WinoDims d = winoDims(input.shape(), w.variant, pad);
    Tensor<T> V, U, M, Y;
    Tensor<T> out({d.n, w.cout, d.ho, d.wo});
    winogradScatter(input, w.variant, pad, V, U);
    winogradTapGemm(w, U, M);
    winogradGather(M, w.variant, Y, out);
    return out;
}

template struct WinogradTapWeights<float>;
template struct WinogradTapWeights<double>;
template struct WinoKronPlan<float>;
template struct WinoKronPlan<double>;
template struct WinoKronPlan<std::int32_t>;
template struct WinoKronPlan<std::int64_t>;
template WinogradTapWeights<float>
winogradPrepareTapWeights(const Tensor<float> &, WinoVariant);
template WinogradTapWeights<double>
winogradPrepareTapWeights(const Tensor<double> &, WinoVariant);
template WinogradTapWeights<float>
tapMajorWeights(const WinogradWeights<float> &);
template WinogradTapWeights<double>
tapMajorWeights(const WinogradWeights<double> &);
template WinoKronPlan<float> makeKronPlan(const Matrix<Rational> &);
template WinoKronPlan<double> makeKronPlan(const Matrix<Rational> &);
template WinoKronPlan<std::int32_t>
makeKronPlan(const Matrix<Rational> &);
template WinoKronPlan<std::int64_t>
makeKronPlan(const Matrix<Rational> &);
template const WinoKronPlan<float> &winoInputKron(WinoVariant);
template const WinoKronPlan<double> &winoInputKron(WinoVariant);
template const WinoKronPlan<std::int32_t> &winoInputKron(WinoVariant);
template const WinoKronPlan<std::int64_t> &winoInputKron(WinoVariant);
template const WinoKronPlan<float> &winoOutputKron(WinoVariant);
template const WinoKronPlan<double> &winoOutputKron(WinoVariant);
template const WinoKronPlan<std::int64_t> &winoOutputKron(WinoVariant);
template const WinoKronPlan<double> &winoInputKronT(WinoVariant);
template const WinoKronPlan<double> &winoOutputKronT(WinoVariant);
template void applyKron(const WinoKronPlan<float> &, const float *,
                        std::size_t, float *);
template void applyKron(const WinoKronPlan<double> &, const double *,
                        std::size_t, double *);
template void applyKron(const WinoKronPlan<std::int32_t> &,
                        const std::int32_t *, std::size_t,
                        std::int32_t *);
template void applyKron(const WinoKronPlan<std::int64_t> &,
                        const std::int64_t *, std::size_t,
                        std::int64_t *);
template void winogradGatherTiles(const Tensor<float> &, WinoVariant,
                                  std::size_t, Tensor<float> &);
template void winogradGatherTiles(const Tensor<double> &, WinoVariant,
                                  std::size_t, Tensor<double> &);
template void winogradGatherTiles(const Tensor<std::int64_t> &,
                                  WinoVariant, std::size_t,
                                  Tensor<std::int64_t> &);
template void winogradScatterAddTiles(const Tensor<double> &,
                                      WinoVariant, std::size_t,
                                      Tensor<double> &);
template void winogradScatter(const Tensor<float> &, WinoVariant,
                              std::size_t, Tensor<float> &,
                              Tensor<float> &);
template void winogradScatter(const Tensor<double> &, WinoVariant,
                              std::size_t, Tensor<double> &,
                              Tensor<double> &);
template void winogradTapGemm(const WinogradTapWeights<float> &,
                              const Tensor<float> &, Tensor<float> &,
                              gemm::ParallelRunner *);
template void winogradTapGemm(const WinogradTapWeights<double> &,
                              const Tensor<double> &, Tensor<double> &,
                              gemm::ParallelRunner *);
template void winogradUntile(const Tensor<float> &, WinoVariant,
                             Tensor<float> &);
template void winogradUntile(const Tensor<double> &, WinoVariant,
                             Tensor<double> &);
template void winogradUntile(const Tensor<std::int64_t> &, WinoVariant,
                             Tensor<std::int64_t> &);
template void winogradGather(const Tensor<float> &, WinoVariant,
                             Tensor<float> &, Tensor<float> &);
template void winogradGather(const Tensor<double> &, WinoVariant,
                             Tensor<double> &, Tensor<double> &);
template Tensor<float>
conv2dWinogradTiled(const Tensor<float> &,
                    const WinogradTapWeights<float> &, std::size_t);
template Tensor<double>
conv2dWinogradTiled(const Tensor<double> &,
                    const WinogradTapWeights<double> &, std::size_t);

} // namespace twq
