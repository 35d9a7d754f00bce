#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.hh"
#include "e2e.hh"

namespace e2e
{

using twq::ConvEngine;
using twq::NetworkDesc;
using twq::WinoVariant;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
quartiles(std::vector<double> v, double *q1, double *q3)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n < 2) {
        *q1 = *q3 = n ? v[0] : 0.0;
        return;
    }
    // statistics.quantiles(method="exclusive", n=4): position
    // i * (n + 1) / 4, clamped to [1, n - 1], linearly interpolated.
    const auto at = [&](std::size_t i) {
        const std::size_t m = n + 1;
        const std::size_t j =
            std::clamp<std::size_t>(i * m / 4, 1, n - 1);
        const double delta = static_cast<double>(i * m) -
                             static_cast<double>(j * 4);
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    *q1 = at(1);
    *q3 = at(3);
}

NetworkDesc
cifar20()
{
    // The 1x1 projections of the down-sampling blocks branch off the
    // residual path; without the adds they do not chain, so they go.
    NetworkDesc n = twq::resnet20();
    n.name = "cifar20";
    std::erase_if(n.layers, [](const twq::ConvLayerDesc &l) {
        return l.name.ends_with(".down");
    });
    return n;
}

NetworkDesc
wide64x4()
{
    twq::ConvLayerDesc body;
    body.name = "body";
    body.cin = body.cout = 64;
    body.height = body.width = 32;
    body.repeat = 4;
    NetworkDesc n;
    n.name = "wide64x4";
    n.inputRes = 32;
    n.layers.push_back(body);
    return n;
}

NetworkDesc
micro8()
{
    NetworkDesc n = twq::microServeNet(8, 4);
    n.name = "micro8";
    return n;
}

namespace
{

NetSetup
pinned(std::string key, NetworkDesc net, ConvEngine engine,
       WinoVariant variant, std::size_t layerBatch)
{
    NetSetup s;
    s.key = std::move(key);
    s.net = std::move(net);
    s.cfg.defaultEngine = engine;
    s.cfg.variant = variant;
    s.layerBatch = layerBatch;
    return s;
}

} // namespace

NetSetup
cifarInt8Pinned()
{
    return pinned("cifar20", cifar20(), ConvEngine::WinogradBlockedInt8,
                  WinoVariant::F4, 1);
}

NetSetup
wideFpPinned()
{
    return pinned("wide64x4", wide64x4(), ConvEngine::WinogradBlocked,
                  WinoVariant::F4, 8);
}

NetSetup
microFpPinned()
{
    return pinned("micro8", micro8(), ConvEngine::WinogradBlocked,
                  WinoVariant::F2, 1);
}

std::vector<NetSetup>
coldstartSetups()
{
    std::vector<NetSetup> s = {
        pinned("cifar20-fp", cifar20(), ConvEngine::WinogradBlocked,
               WinoVariant::F4, 1),
        pinned("cifar20-int8", cifar20(),
               ConvEngine::WinogradBlockedInt8, WinoVariant::F4, 1),
        pinned("wide64x4", wide64x4(), ConvEngine::WinogradBlocked,
               WinoVariant::F4, 8),
    };
    for (NetSetup &n : s)
        n.cfg.autoSelect = true;
    return s;
}

twq::Shape
inputShape(const NetworkDesc &net)
{
    const twq::ConvLayerDesc &l = net.layers.front();
    return {1, l.cin, l.height, l.width};
}

twq::Shape
outputShape(const NetworkDesc &net)
{
    const twq::ConvLayerDesc &l = net.layers.back();
    return {1, l.cout, l.outHeight(), l.outWidth()};
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> w = {
        {"cifar-int8-open", {cifarInt8Pinned()},
         {LoadKind::OpenPoisson, 100.0, 1, 1}},
        {"wide-fp32-bulk", {wideFpPinned()},
         {LoadKind::ClosedWindow, 0.0, 32, 1}},
        {"micro-closed", {microFpPinned()},
         {LoadKind::ClosedLoop, 0.0, 1, 2}},
        {"coldstart-autoselect", coldstartSetups(),
         {LoadKind::ClosedLoop, 0.0, 1, 1}, true},
    };
    return w;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::uint64_t
payloadHash(const double *p, std::size_t n)
{
    // Four interleaved lanes over 64-bit words: a 512 KiB response
    // hashes in tens of microseconds, so checking every response does
    // not slow the client that measures.
    constexpr std::uint64_t kPrime = 0x100000001b3ull;
    std::uint64_t h[4] = {0xcbf29ce484222325ull, 0x84222325cbf29ce4ull,
                          0x9e3779b97f4a7c15ull, 0xc2b2ae3d27d4eb4full};
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        for (std::size_t l = 0; l < 4; ++l) {
            std::uint64_t w;
            std::memcpy(&w, p + i + l, sizeof(w));
            h[l] = (h[l] ^ w) * kPrime;
        }
    for (; i < n; ++i) {
        std::uint64_t w;
        std::memcpy(&w, p + i, sizeof(w));
        h[0] = (h[0] ^ w) * kPrime;
    }
    std::uint64_t out = n;
    for (std::uint64_t x : h)
        out = (out ^ x) * kPrime;
    return out;
}

std::vector<twq::TensorD>
makeInputs(const twq::Shape &shape, std::size_t n, std::uint64_t seed)
{
    twq::Rng rng(seed);
    std::vector<twq::TensorD> in(n, twq::TensorD(shape));
    for (twq::TensorD &t : in)
        rng.fillNormal(t.storage(), 0.0, 1.0);
    return in;
}

Corpus
makeCorpus(const twq::Session &session, std::size_t n,
           std::uint64_t seed)
{
    Corpus c;
    c.inputs = makeInputs(session.inputShape(), n, seed);
    c.outShape = session.outputShape();
    for (const twq::TensorD &in : c.inputs) {
        const twq::TensorD out = session.run(in);
        c.expect.push_back(payloadHash(out.data(), out.numel()));
    }
    return c;
}

bool
quantized(const twq::SessionConfig &cfg)
{
    return cfg.defaultEngine == ConvEngine::WinogradBlockedInt8 ||
           cfg.defaultEngine == ConvEngine::WinogradInt8 ||
           cfg.defaultEngine == ConvEngine::Im2colInt8;
}

bool
accuracyOk(bool quantizedPlan, double pooled, double worst)
{
    // A NaN fails every comparison, so a non-finite output never
    // passes; the pooled error never exceeds the worst input's.
    return quantizedPlan ? pooled <= kInt8RelErrCeiling
                         : pooled <= 1e-9 && worst <= 1e-9;
}

bool
checkAccuracy(const twq::Session &session, const NetSetup &ns)
{
    constexpr std::size_t kInputs = 16;
    constexpr std::uint64_t kSeed = 7;
    twq::SessionConfig rc;
    rc.defaultEngine = ConvEngine::Im2col;
    const twq::Session ref(ns.net, rc);
    double errSq = 0.0, refSq = 0.0, worst = 0.0;
    for (const twq::TensorD &in :
         makeInputs(inputShape(ns.net), kInputs, kSeed)) {
        const twq::TensorD y = session.run(in);
        const twq::TensorD r = ref.run(in);
        double e = 0.0, q = 0.0;
        for (std::size_t j = 0; j < y.numel(); ++j) {
            e += (y[j] - r[j]) * (y[j] - r[j]);
            q += r[j] * r[j];
        }
        errSq += e;
        refSq += q;
        worst = std::max(worst, std::sqrt(e / q));
    }
    const double pooled = std::sqrt(errSq / refSq);
    const bool ok = accuracyOk(quantized(ns.cfg), pooled, worst);
    std::printf("# accuracy %s vs fp64 im2col over %zu inputs: "
                "out_rel_err %.9g (worst input %.3g) -> %s\n",
                ns.key.c_str(), kInputs, pooled, worst, ok ? "ok" : "FAIL");
    return ok;
}

} // namespace e2e
