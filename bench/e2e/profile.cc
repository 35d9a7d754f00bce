/**
 * @file
 * The replay half of a traced run: sessions, layers and the paper's
 * Fig. 5 stage categories timed from outside through public calls.
 *
 * Layers are timed through the EngineRegistry backend the session
 * planned for them (engine, variant, layout, epilogue), prepared on
 * He-scaled weights. Blocked Winograd layers are additionally split
 * into the calls conv2dWinogradBlockedInto and
 * BlockedIntWinograd::forwardInto compose, each carrying an analytic
 * FLOP or byte count so it can be set against the host peaks measured
 * in peaks.cc.
 *
 * Everything of one net is timed in one interleaved loop — the whole
 * session, then the layers along the chain, then the stages along the
 * chain — so a slow stretch on a shared host hits all of them alike
 * and their sums stay comparable, and each call meets roughly the
 * cache state a real session run leaves it.
 */

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "common/rng.hh"
#include "e2e.hh"
#include "layout/kernels.hh"
#include "layout/wino_blocked.hh"
#include "obs/trace.hh"
#include "quant/int_winograd.hh"
#include "quant/quantizer.hh"
#include "runtime/engine.hh"

namespace e2e
{

using namespace twq;

namespace
{

constexpr std::size_t kB = kLayoutBlock;
/// Passes of a timed loop recorded as spans; the rest are timed but
/// not recorded, which keeps the trace file small.
constexpr std::size_t kSpanPasses = 3;

TensorD
randomTensor(const Shape &s, std::uint64_t seed)
{
    TensorD t(s);
    Rng rng(seed);
    rng.fillNormal(t.storage(), 0.0, 1.0);
    return t;
}

TensorD
toBlocked(const TensorD &nchw)
{
    TensorD b(blockedShape(nchw.shape()));
    nchwToBlocked(nchw, b);
    return b;
}

/** The session's weight draw (He-scaled normal per layer). */
TensorD
heWeights(const ConvLayerDesc &d, std::uint64_t seed)
{
    TensorD w({d.cout, d.cin, d.kernel, d.kernel});
    Rng rng(seed);
    rng.fillNormal(w.storage(), 0.0,
                   std::sqrt(2.0 / static_cast<double>(
                                       d.cin * d.kernel * d.kernel)));
    return w;
}

template <typename T>
double
kronTerms(const WinoKronPlan<T> &p)
{
    return static_cast<double>(p.terms.size());
}

/** A stage call of a split layer, with its analytic work. */
struct StageStep
{
    const char *stage;
    double flops;
    double bytes;
    std::function<void()> fn;
};

/** Buffers of one split FP layer, owned by its stage closures. */
struct FpSplit
{
    BlockedTapWeights tw;
    TensorD V, U, M, Y, out;
    std::vector<double> bias8;
};

/**
 * Split one blocked FP layer into the calls conv2dWinogradBlockedInto
 * composes: gather, B-kron rows, per-tap GEMM, A-kron rows, untile
 * (with the layer's fused epilogue). `in` must outlive the steps.
 */
std::vector<StageStep>
fpStages(const TensorD &w, WinoVariant v, const Epilogue &epi,
         const TensorD &in)
{
    auto b = std::make_shared<FpSplit>();
    b->tw = blockedTapWeights(winogradPrepareTapWeights(w, v));
    const WinoDims d = winoDimsBlocked(in.shape(), v, 1);
    const std::size_t cinb = b->tw.cinb, coutb = b->tw.coutb;
    const std::size_t P = d.tiles;
    const double tt = static_cast<double>(d.t * d.t);
    const double mm = static_cast<double>(d.m * d.m);
    const std::size_t inRow = cinb * P * kB;
    const std::size_t outRow = coutb * P * kB;
    b->U = TensorD({d.t * d.t, cinb, P, kB});
    b->Y = TensorD({d.m * d.m, coutb, P, kB});
    b->out = TensorD({d.n, coutb, d.ho, d.wo, kB});
    if (!epi.bias.empty()) {
        b->bias8.assign(coutb * kB, 0.0);
        std::copy(epi.bias.begin(), epi.bias.end(), b->bias8.begin());
    }
    const bool relu = epi.relu;
    const auto &k = layout::kernels();
    constexpr double f = sizeof(double);
    return {
        {"gather", 0.0, (in.numel() + tt * inRow) * f,
         [b, &in, v] { winogradGatherTilesBlocked(in, v, 1, b->V); }},
        {"in_xform", 2.0 * kronTerms(winoInputKron<double>(v)) * inRow,
         2.0 * tt * inRow * f,
         [b, &k, v, inRow] {
             k.kron(winoInputKron<double>(v), b->V.data(), inRow,
                    b->U.data());
         }},
        {"tap_gemm", 2.0 * tt * (coutb * kB) * (cinb * kB) * P,
         (tt * inRow + tt * outRow + b->tw.taps.size()) * f,
         [b] { winogradTapGemmBlocked(b->tw, b->U, b->M); }},
        {"out_xform", 2.0 * kronTerms(winoOutputKron<double>(v)) * outRow,
         (tt + mm) * outRow * f,
         [b, &k, v, outRow] {
             k.kron(winoOutputKron<double>(v), b->M.data(), outRow,
                    b->Y.data());
         }},
        {"untile", 0.0, (mm * outRow + b->out.numel()) * f,
         [b, v, relu] {
             winogradUntileBlocked(
                 b->Y, v, b->out,
                 b->bias8.empty() ? nullptr : b->bias8.data(), relu);
         }},
    };
}

/** Buffers and scales of one split int8 layer. */
struct Int8Split
{
    double sx = 1.0;
    MatrixD sb;
    TensorI32 xq, V, U32, M;
    TensorI16 U16;
    std::vector<std::uint8_t> U8;
    TensorD Md, Y, out;
    std::vector<std::int16_t> w16;
    std::vector<std::int8_t> w8;
    std::vector<std::int32_t> comp;
    std::vector<double> scale8;
};

/**
 * Split one blocked int8 layer in the order
 * BlockedIntWinograd::forwardInto runs it, on the layer's own
 * calibrated scales. The tap-GEMM weights are synthetic (their
 * interleaved layout is private to the library); the kernel's cost
 * does not depend on their values.
 */
std::vector<StageStep>
int8Stages(const TensorD &w, WinoVariant v, IntWinogradConfig q,
           const std::vector<TensorD> &cal, const TensorD &in)
{
    q.variant = v;
    q.pad = 1;
    const IntWinogradConv conv(w, cal, q);
    auto b = std::make_shared<Int8Split>();
    b->sx = conv.inputScale();
    b->sb = conv.inputTapScale();
    const WinoDims d = winoDimsBlocked(in.shape(), v, 1);
    const std::size_t t = d.t, tt = d.t * d.t;
    const double mm = static_cast<double>(d.m * d.m);
    const std::size_t P = d.tiles;
    const std::size_t cinb = in.dim(1);
    const std::size_t coutb = layoutBlocks(conv.cout());
    const std::size_t rowLen = cinb * P * kB;
    const std::size_t outRow = coutb * P * kB;
    const std::size_t wTap = coutb * cinb * kB * kB;
    const auto &k = layout::kernels();
    const bool use8 = q.winogradBits <= 8 && k.tapGemmU8 != nullptr;
    const int bits = q.winogradBits;
    const double lo = static_cast<double>(quantMin(q.spatialBits));
    const double hi = static_cast<double>(quantMax(q.spatialBits));
    const Shape ushape{tt, cinb, P, kB};
    b->xq = TensorI32(in.shape());
    b->U32 = TensorI32(ushape);
    b->U16 = TensorI16(ushape);
    b->U8.assign(tt * rowLen, 0);
    b->M = TensorI32({tt, coutb, P, kB});
    b->Md = TensorD({tt, coutb, P, kB});
    b->Y = TensorD({d.m * d.m, coutb, P, kB});
    b->out = TensorD({d.n, coutb, d.ho, d.wo, kB});
    b->w16.assign(tt * wTap, 3);
    b->w8.assign(tt * wTap, 3);
    b->comp.assign(tt * coutb * kB, 0);
    b->scale8.assign(tt * coutb * kB, 0.5);
    return {
        {"quantize", 0.0, in.numel() * 12.0,
         [b, &k, &in, lo, hi] {
             k.quantizeI32(in.data(), 1.0 / b->sx, lo, hi, b->xq.data(),
                           in.numel());
         }},
        {"gather", 0.0, (in.numel() + tt * rowLen) * 4.0,
         [b, v] { winogradGatherTilesBlocked(b->xq, v, 1, b->V); }},
        {"in_xform",
         2.0 * kronTerms(winoInputKron<std::int32_t>(v)) * rowLen,
         2.0 * tt * rowLen * 4.0,
         [b, &k, v, rowLen] {
             k.kronI32(winoInputKron<std::int32_t>(v), b->V.data(),
                       rowLen, b->U32.data());
         }},
        {"rescale", 0.0, tt * rowLen * (use8 ? 5.0 : 6.0),
         [b, &k, t, tt, rowLen, use8, bits] {
             for (std::size_t j = 0; j < tt; ++j) {
                 const int shift = log2Exact(b->sb(j / t, j % t));
                 const std::int32_t *src = b->U32.data() + j * rowLen;
                 if (use8)
                     k.rescaleU8(src, b->U8.data() + j * rowLen, rowLen,
                                 shift, bits);
                 else
                     k.rescaleI16(src, b->U16.data() + j * rowLen,
                                  rowLen, shift, bits);
             }
         }},
        {"tap_gemm", 2.0 * tt * (coutb * kB) * (cinb * kB) * P,
         tt * (rowLen * 2.0 + outRow * 4.0 + wTap * 2.0),
         [b, &k, tt, wTap, rowLen, outRow, coutb, cinb, P, use8] {
             for (std::size_t j = 0; j < tt; ++j) {
                 std::int32_t *m = b->M.data() + j * outRow;
                 if (use8)
                     k.tapGemmU8(b->w8.data() + j * wTap,
                                 b->U8.data() + j * rowLen,
                                 b->comp.data() + j * coutb * kB, m,
                                 coutb, cinb, P, 0, P);
                 else
                     k.tapGemmI16(b->w16.data() + j * wTap,
                                  b->U16.data() + j * rowLen, m, coutb,
                                  cinb, P, 0, P);
             }
         }},
        {"dequant", 0.0, tt * outRow * 12.0,
         [b, &k, tt, coutb, P] {
             for (std::size_t j = 0; j < tt * coutb; ++j)
                 k.scaleI32F64(b->M.data() + j * P * kB,
                               b->scale8.data() + j * kB,
                               b->Md.data() + j * P * kB, P);
         }},
        {"out_xform", 2.0 * kronTerms(winoOutputKron<double>(v)) * outRow,
         (tt + mm) * outRow * 8.0,
         [b, &k, v, outRow] {
             k.kron(winoOutputKron<double>(v), b->Md.data(), outRow,
                    b->Y.data());
         }},
        {"untile", 0.0, (mm * outRow + b->out.numel()) * 8.0,
         [b, v] { winogradUntileBlocked(b->Y, v, b->out); }},
    };
}

/** One layer prepared for the replay. */
struct Prepared
{
    std::shared_ptr<const ConvBackend> backend;
    std::shared_ptr<const PreparedLayer> prep;
    TensorD weights;
    std::vector<TensorD> cal;
    Epilogue epilogue;
    TensorD in; ///< the layer's own input, in its backend's layout
    TensorD out;
};

} // namespace

std::vector<double>
timeSteps(const std::vector<Step> &steps, double budgetMs, SpanLog *log)
{
    for (const Step &st : steps) // warm caches and arena slots
        st.fn();
    std::vector<std::vector<double>> ns(steps.size());
    const std::uint64_t start = nowNs();
    const double budgetNs = budgetMs * 1e6;
    for (std::size_t pass = 0;
         pass < 5 ||
         (static_cast<double>(nowNs() - start) < budgetNs && pass < 2000);
         ++pass) {
        for (std::size_t i = 0; i < steps.size(); ++i) {
            const std::uint64_t t0 = nowNs();
            steps[i].fn();
            const std::uint64_t dt = nowNs() - t0;
            ns[i].push_back(static_cast<double>(dt));
            if (log && pass < kSpanPasses)
                log->add(steps[i].span, t0, dt);
        }
    }
    std::vector<double> ms;
    for (std::vector<double> &v : ns)
        ms.push_back(nsToMs(median(std::move(v))));
    return ms;
}

SessionTimes
timeSession(const Session &session, SpanLog *log, double budgetMs)
{
    ScratchArena arena;
    Shape in1 = session.inputShape(), out1 = session.outputShape();
    Shape in8 = in1, out8 = out1;
    in8[0] = out8[0] = 8;
    const TensorD x1 = randomTensor(in1, 7), x8 = randomTensor(in8, 8);
    TensorD y1(out1), y8(out8);
    // What a blocked session pays at its edges: the NCHW request
    // re-laid at ingress and the blocked result flattened at egress.
    TensorD xb(blockedShape(in1));
    const TensorD yb = toBlocked(randomTensor(out1, 10));
    TensorD yn(out1);
    const std::vector<double> ms = timeSteps(
        {
            {"session.run",
             [&] { session.runInto(x1, arena, RunContext{}, y1); }},
            {"session.run",
             [&] { session.runInto(x8, arena, RunContext{}, y8); }},
            {"session.convert",
             [&] {
                 nchwToBlocked(x1, xb);
                 blockedToNchw(yb, yn);
             }},
        },
        budgetMs, log);
    return {ms[0], ms[1], ms[2]};
}

NetProfile
profileNet(const Session &session, std::size_t batch, bool stages,
           double budgetMs, SpanLog *log)
{
    const EngineRegistry &registry = EngineRegistry::instance();
    const SessionConfig &cfg = session.config();
    const std::size_t n = session.layerCount();
    NetProfile np;
    np.layers.resize(n);
    std::vector<Prepared> layers(n);
    for (std::size_t i = 0; i < n; ++i) {
        const ConvLayerDesc &d = session.layerDesc(i);
        LayerTime &lt = np.layers[i];
        Prepared &p = layers[i];
        lt.name = d.name;
        lt.engine = session.layerEngine(i);
        lt.macs = d.macs() * static_cast<double>(batch);
        p.weights = heWeights(d, cfg.weightSeed + i);
        p.cal = {randomTensor({1, d.cin, d.height, d.width}, 100 + i)};
        p.backend = registry.get(lt.engine);
        LayerBuild build;
        build.params = ConvParams{d.kernel, d.stride, (d.kernel - 1) / 2};
        build.variant = session.layerVariant(i);
        build.quant = cfg.quant;
        build.calibration = &p.cal;
        if (cfg.fuseEpilogues)
            build.epilogue = p.epilogue = session.layerEpilogue(i);
        p.prep = p.backend->prepare(d, p.weights, build);
        const TensorD nchw =
            randomTensor({batch, d.cin, d.height, d.width}, 200 + i);
        p.in = p.backend->inputLayout() == ActLayout::NCHWc8
                   ? toBlocked(nchw)
                   : nchw;
        p.out = TensorD(p.backend->outputShape(*p.prep, p.in.shape()));
    }

    ScratchArena sessionArena, arena;
    Shape inShape = session.inputShape(), outShape = session.outputShape();
    inShape[0] = outShape[0] = batch;
    const TensorD x = randomTensor(inShape, 300);
    TensorD y(outShape);
    std::vector<Step> steps = {
        {"session.run",
         [&] { session.runInto(x, sessionArena, RunContext{}, y); }}};
    // The chain feeds each layer its predecessor's output where the
    // two agree on layout, as the session does.
    const auto runLayer = [&](std::size_t i) {
        return [&, i] {
            Prepared &p = layers[i];
            const TensorD &in =
                i > 0 && layers[i - 1].out.shape() == p.in.shape()
                    ? layers[i - 1].out
                    : p.in;
            p.backend->run(*p.prep, in, arena, p.out);
        };
    };
    for (std::size_t i = 0; i < n; ++i)
        steps.push_back({"layer:" + np.layers[i].name, runLayer(i)});

    // The stage chain: split layers as their stage calls, the others
    // as whole layers so the cache sees the full chain.
    struct Owner
    {
        std::size_t layer, stage;
    };
    constexpr std::size_t kWhole = std::numeric_limits<std::size_t>::max();
    std::vector<Owner> owners;
    for (std::size_t i = 0; stages && i < n; ++i) {
        const Prepared &p = layers[i];
        const WinoVariant v = session.layerVariant(i);
        std::vector<StageStep> split;
        if (np.layers[i].engine == ConvEngine::WinogradBlocked)
            split = fpStages(p.weights, v, p.epilogue, p.in);
        if (np.layers[i].engine == ConvEngine::WinogradBlockedInt8)
            split = int8Stages(p.weights, v, cfg.quant, p.cal, p.in);
        if (split.empty()) {
            steps.push_back({"layer:" + np.layers[i].name, runLayer(i)});
            owners.push_back({i, kWhole});
            continue;
        }
        for (StageStep &s : split) {
            owners.push_back({i, np.layers[i].stages.size()});
            np.layers[i].stages.push_back({s.stage, 0.0, s.flops, s.bytes});
            steps.push_back({std::string("stage:") + s.stage,
                             std::move(s.fn)});
        }
    }

    const std::vector<double> ms = timeSteps(steps, budgetMs, log);
    np.sessionMs = ms[0];
    for (std::size_t i = 0; i < n; ++i)
        np.layers[i].ms = ms[1 + i];
    for (std::size_t j = 0; j < owners.size(); ++j)
        if (owners[j].stage != kWhole)
            np.layers[owners[j].layer].stages[owners[j].stage].ms =
                ms[1 + n + j];
    return np;
}

namespace
{

constexpr double kProfileBudgetMs = 3000.0; ///< one net's profile loop

/**
 * Replay `session` at `batch` with the library's own tracer armed and
 * print its per-stage span totals beside the split measured from
 * outside (informational: the library's spans are not metrics).
 */
void
printLibrarySplit(const Session &session, std::size_t batch,
                  const std::vector<LayerTime> &outside)
{
    constexpr int kRuns = 20;
    Shape in = session.inputShape(), out = session.outputShape();
    in[0] = out[0] = batch;
    const TensorD x = randomTensor(in, 11);
    TensorD y(out);
    ScratchArena arena;
    session.runInto(x, arena, RunContext{}, y);
    obs::TraceCollector &tc = obs::TraceCollector::global();
    tc.reset();
    tc.enable();
    for (int r = 0; r < kRuns; ++r)
        session.runInto(x, arena, RunContext{}, y);
    const auto agg = tc.aggregate();
    tc.reset();
    std::map<std::string, double> mine;
    for (const LayerTime &l : outside)
        for (const StageTime &s : l.stages)
            mine[s.stage] += s.ms;
    std::printf("# %s at batch %zu, per run: stages timed from outside\n",
                session.network().name.c_str(), batch);
    for (const auto &[stage, ms] : mine)
        std::printf("#   outside %-18s %10.4f ms\n", stage.c_str(), ms);
    std::printf("# and the library's own spans (obs::TraceCollector)\n");
    for (const auto &[name, total] : agg) {
        if (name.rfind("wino", 0) != 0 && name.rfind("im8", 0) != 0 &&
            name.rfind("im2col", 0) != 0)
            continue;
        std::printf("#   library %-18s %10.4f ms (%llu spans)\n",
                    name.c_str(),
                    nsToMs(static_cast<double>(total.totalNs)) / kRuns,
                    static_cast<unsigned long long>(total.count));
    }
}

} // namespace

void
profileAll(Metrics &m, SpanLog &log, const std::string &libraryKey)
{
    std::map<std::string, StageTime> fp, i8;
    StageTime im2col{"im2col"};
    const auto add = [](std::map<std::string, StageTime> &acc,
                        const StageTime &s) {
        StageTime &a = acc.try_emplace(s.stage, StageTime{s.stage})
                           .first->second;
        a.ms += s.ms;
        a.flops += s.flops;
        a.bytes += s.bytes;
    };
    for (const NetSetup &ns :
         {cifarInt8Pinned(), wideFpPinned(), microFpPinned()}) {
        const Session session(ns.net, ns.cfg);
        const NetProfile prof = profileNet(session, ns.layerBatch, true,
                                           kProfileBudgetMs, &log);
        std::printf("# profile %s at batch %zu: session.run %.4f ms\n",
                    ns.key.c_str(), ns.layerBatch, prof.sessionMs);
        for (const LayerTime &l : prof.layers) {
            m.push_back(
                {"layer." + ns.key + "." + l.name + "_ms", l.ms, "ms"});
            std::printf("#   %-16s %-22s %9.4f ms", l.name.c_str(),
                        convEngineName(l.engine), l.ms);
            if (!l.stages.empty())
                std::printf("  stages %9.4f ms", l.stageMs());
            std::printf("\n");
            const bool im2colLayer = l.engine == ConvEngine::Im2col ||
                                     l.engine == ConvEngine::Im2colInt8;
            if (ns.key == "cifar20" && im2colLayer) {
                im2col.ms += l.ms;
                im2col.flops += 2.0 * l.macs;
            }
            for (const StageTime &s : l.stages) {
                if (ns.key == "wide64x4")
                    add(fp, s);
                if (ns.key == "cifar20")
                    add(i8, s);
            }
        }
        if (ns.key == libraryKey)
            printLibrarySplit(session, ns.layerBatch, prof.layers);
    }
    const auto stage = [](std::map<std::string, StageTime> &acc,
                          const char *s) -> const StageTime & {
        return acc.try_emplace(s, StageTime{s}).first->second;
    };
    for (const char *s :
         {"gather", "in_xform", "tap_gemm", "out_xform", "untile"})
        m.push_back({std::string("stage.") + s + "_ms", stage(fp, s).ms,
                     "ms"});
    for (const char *s : {"quantize", "rescale", "dequant"})
        m.push_back({std::string("stage.") + s + "_ms", stage(i8, s).ms,
                     "ms"});
    m.push_back({"stage.im2col_ms", im2col.ms, "ms"});

    const double stream = hostStreamGbps();
    const double fma = hostFmaGflops();
    std::printf("# roofs: stream %.2f GB/s, fma %.2f GFLOP/s\n", stream,
                fma);
    m.push_back({"host.stream_gbps", stream, "GB/s"});
    m.push_back({"host.fma_gflops", fma, "GFLOP/s"});
    // bytes / ms / 1e6 = GB/s; flops / ms / 1e6 = GFLOP/s.
    const auto rate = [](double work, double ms) {
        return ms > 0.0 ? work / ms / 1e6 : 0.0;
    };
    for (const char *s : {"gather", "untile"})
        m.push_back({std::string("stage.") + s + ".gbps",
                     rate(stage(fp, s).bytes, stage(fp, s).ms), "GB/s"});
    for (const char *s : {"quantize", "rescale", "dequant"})
        m.push_back({std::string("stage.") + s + ".gbps",
                     rate(stage(i8, s).bytes, stage(i8, s).ms), "GB/s"});
    for (const char *s : {"in_xform", "tap_gemm", "out_xform"})
        m.push_back({std::string("stage.") + s + ".gflops",
                     rate(stage(fp, s).flops, stage(fp, s).ms),
                     "GFLOP/s"});
    m.push_back({"stage.im2col.gflops", rate(im2col.flops, im2col.ms),
                 "GFLOP/s"});
}

} // namespace e2e
