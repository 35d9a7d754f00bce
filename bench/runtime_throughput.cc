/**
 * @file
 * Structural gates of the serving runtime, run by CI:
 *
 *   --smoke     the structural gates documented at runSmoke (blocked
 *               GEMM, Winograd vs im2col, NCHWc8 gather, autoSelect
 *               picks, int8 widening kernel, fused epilogue, binary16
 *               storage, front-door scaling and overload shedding);
 *               exits nonzero when any gate fails.
 *   --obs-gate  the wide-64 blocked-layer p50 as one machine-readable
 *               line, compared by CI against a TWQ_NO_OBS build.
 *
 * Serving performance is measured end to end by bench/e2e, whose
 * compare.py is the one way to compare two commits.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "gemm/gemm.hh"
#include "layout/kernels_f16.hh"
#include "layout/wino_blocked.hh"
#include "models/zoo.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "runtime/server.hh"
#include "winograd/tiled.hh"

namespace twq
{
namespace
{

using Clock = std::chrono::steady_clock;

/** What a gate reads from one measured serving run. */
struct Result
{
    std::size_t requests = 0; ///< responses timed (admitted only)
    double reqPerSec = 0.0;
    double p99Ms = 0.0;
    /// Requests rejected by admission control (network runs under
    /// offered overload); p99Ms covers ADMITTED requests only — the
    /// bounded-latency claim of load shedding.
    std::uint64_t shed = 0;
};

/**
 * Open-loop (bulk) throughput: all requests are submitted up front,
 * so the queue stays deep, batches fill to maxBatch, and the
 * per-request dispatch/wakeup chain amortizes across each batch —
 * the offline / high-offered-load serving regime. p99 here is
 * time-in-system, dominated by queueing. Warmup requests run first
 * (arenas, lazy allocations, scheduler).
 */
Result
runOpenLoop(const std::shared_ptr<const Session> &session,
            std::size_t threads, std::size_t maxBatch,
            std::size_t requests)
{
    RuntimeConfig rcfg;
    rcfg.threads = threads;
    rcfg.batch.maxBatch = maxBatch;
    rcfg.batch.maxWait = std::chrono::microseconds(200);
    InferenceServer server(session, rcfg);
    {
        std::vector<std::future<TensorD>> warm;
        for (std::size_t i = 0; i < 8; ++i)
            warm.push_back(
                server.submit(TensorD(session->inputShape(), 0.5)));
        for (auto &f : warm)
            f.get();
        server.drain();
    }

    TensorD input(session->inputShape());
    Rng rng(7);
    rng.fillNormal(input.storage(), 0.0, 1.0);

    std::vector<std::future<TensorD>> futures;
    futures.reserve(requests);
    std::vector<Clock::time_point> submitted(requests);
    const auto wallStart = Clock::now();
    for (std::size_t i = 0; i < requests; ++i) {
        submitted[i] = Clock::now();
        futures.push_back(server.submit(input));
    }
    std::vector<double> latencies;
    latencies.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
        futures[i].get();
        latencies.push_back(std::chrono::duration<double, std::milli>(
                                Clock::now() - submitted[i])
                                .count());
    }
    const double wallSec =
        std::chrono::duration<double>(Clock::now() - wallStart).count();
    server.drain();
    server.shutdown();

    Result r;
    r.requests = requests;
    r.reqPerSec = static_cast<double>(requests) / wallSec;
    r.p99Ms = percentile(latencies, 0.99);
    return r;
}

// ------------------------------------------------ network serving

/**
 * Closed-loop clients over the epoll front door on loopback: each
 * client connects a real TCP socket, then send -> recv -> repeat.
 * Latency is the full wire round trip (encode, socket, decode,
 * batch, inference, response). With `maxPending` nonzero the server
 * sheds overload; percentiles then cover ADMITTED (Ok) responses
 * only, which is exactly the bounded-latency claim of fast-fail
 * shedding — shed responses are counted, not timed.
 */
Result
runNetClosed(const std::shared_ptr<const Session> &session,
             std::size_t threads, std::size_t maxBatch,
             std::size_t clients, std::size_t requests,
             std::size_t maxPending)
{
    RuntimeConfig rcfg;
    rcfg.threads = threads;
    rcfg.batch.maxBatch = maxBatch;
    rcfg.batch.maxWait = std::chrono::microseconds(200);
    rcfg.pinWorkers = true; // the affinity knob, exercised end to end
    rcfg.maxPending = maxPending;
    InferenceServer server(session, rcfg);
    net::NetServer front(server, net::NetConfig{});
    const std::uint16_t port = front.start();

    // Warm arenas/plans through the wire path itself.
    {
        net::Client warm;
        warm.connect("127.0.0.1", port);
        TensorD in(session->inputShape(), 0.5);
        for (int i = 0; i < 8; ++i)
            warm.infer(in);
    }

    const std::size_t perClient = requests / clients;
    std::vector<std::vector<double>> okLat(clients);
    std::vector<std::uint64_t> shedCount(clients, 0);
    const auto wallStart = Clock::now();
    std::vector<std::thread> threadsV;
    for (std::size_t c = 0; c < clients; ++c) {
        threadsV.emplace_back([&, c] {
            TensorD in(session->inputShape());
            Rng rng(3000 + c);
            rng.fillNormal(in.storage(), 0.0, 1.0);
            net::Client client;
            client.connect("127.0.0.1", port);
            okLat[c].reserve(perClient);
            for (std::size_t i = 0; i < perClient; ++i) {
                const auto t0 = Clock::now();
                const net::Frame f = client.infer(in);
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count();
                if (f.status == net::Status::Ok) {
                    okLat[c].push_back(ms);
                } else {
                    ++shedCount[c];
                    // Retry backoff: a shed answer returns in ~100us,
                    // so without it overloading clients degenerate
                    // into a hot spin that starves the very workers
                    // whose admitted latency the row measures.
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(100));
                }
            }
        });
    }
    for (auto &t : threadsV)
        t.join();
    const double wallSec =
        std::chrono::duration<double>(Clock::now() - wallStart)
            .count();
    front.shutdown();
    server.shutdown();

    std::vector<double> latencies;
    std::uint64_t shed = 0;
    for (std::size_t c = 0; c < clients; ++c) {
        latencies.insert(latencies.end(), okLat[c].begin(),
                         okLat[c].end());
        shed += shedCount[c];
    }

    Result r;
    r.requests = latencies.size();
    r.reqPerSec = static_cast<double>(latencies.size()) / wallSec;
    r.p99Ms = percentile(latencies, 0.99);
    r.shed = shed;
    return r;
}

/**
 * Open-loop over the wire: one connection, a sender thread pipelines
 * every request without waiting, the receiver times each response
 * against its send timestamp — time-in-system under a deep offered
 * queue, the network counterpart of the in-process bulk rows.
 */
Result
runNetOpen(const std::shared_ptr<const Session> &session,
           std::size_t threads, std::size_t requests)
{
    RuntimeConfig rcfg;
    rcfg.threads = threads;
    rcfg.batch.maxBatch = 8;
    rcfg.batch.maxWait = std::chrono::microseconds(200);
    rcfg.pinWorkers = true;
    InferenceServer server(session, rcfg);
    net::NetServer front(server, net::NetConfig{});
    const std::uint16_t port = front.start();

    net::Client client;
    client.connect("127.0.0.1", port);
    TensorD in(session->inputShape());
    Rng rng(17);
    rng.fillNormal(in.storage(), 0.0, 1.0);
    for (int i = 0; i < 8; ++i)
        client.infer(in); // warm the wire path

    // Send timestamps cross the sender->receiver boundary through
    // relaxed atomics; the socket round trip itself orders the write
    // (send i happens before response i is produced).
    std::vector<std::atomic<std::int64_t>> sentNs(requests);
    const auto wallStart = Clock::now();
    std::thread sender([&] {
        for (std::size_t i = 0; i < requests; ++i) {
            sentNs[i].store(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - wallStart)
                    .count(),
                std::memory_order_relaxed);
            client.send(in);
        }
        client.shutdownWrite();
    });

    std::vector<double> latencies;
    latencies.reserve(requests);
    net::Frame f;
    std::size_t firstId = 0;
    while (client.recv(&f)) {
        if (firstId == 0)
            firstId = f.id; // ids are monotonic per client
        const std::size_t idx = f.id - firstId;
        const std::int64_t nowNs =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - wallStart)
                .count();
        latencies.push_back(
            static_cast<double>(
                nowNs - sentNs[idx].load(std::memory_order_relaxed)) *
            1e-6);
    }
    sender.join();
    const double wallSec =
        std::chrono::duration<double>(Clock::now() - wallStart)
            .count();
    front.shutdown();
    server.shutdown();

    Result r;
    r.requests = latencies.size();
    r.reqPerSec = static_cast<double>(latencies.size()) / wallSec;
    r.p99Ms = percentile(latencies, 0.99);
    return r;
}

/**
 * The scaling requirement for gate 9's 8-worker run relative to its
 * 1-worker run, scaled to the machine the bench runs on: the >= 4x
 * target presumes >= 8 usable cores. With fewer cores
 * the requirement degrades to ~0.45x per available core (admitting
 * scheduler losses), and on a single core only "no collapse" (>=
 * 0.55x — extra worker threads must not halve throughput).
 */
double
requiredScaling(std::size_t hwCores)
{
    if (hwCores >= 8)
        return 4.0;
    if (hwCores >= 2)
        return 0.45 * static_cast<double>(hwCores);
    return 0.55;
}

/**
 * CI smoke check. Ten structural gates, numbered as they have been
 * since gates 4, 7 and 13 left with the NCHW Winograd engines and the
 * chain-aware layout DP they compared against:
 *
 *  1. the blocked GEMM core must beat the naive i-k-j loop it
 *     replaced on a representative per-tap shape,
 *  2. winograd-blocked must beat im2col on a wide (64-channel)
 *     eligible layer, where the Winograd arithmetic advantage
 *     materializes,
 *  3. the NCHWc8 tile gather must not lose to the NCHW gather it
 *     bypasses (the unit-stride claim of the layout subsystem),
 *  5. autoSelect must actually pick the blocked engine on that layer,
 *  6. the dispatched int8 -> int32 widening micro-kernel must not
 *     lose to the generic blocked widening kernel it replaced on a
 *     representative per-tap GEMM shape (equal on hosts where the
 *     dispatch resolves to the generic scalar kernel),
 *  8. autoSelect must pick the blocked int8 engine on the wide
 *     quantized layer (racing its F2/F4 variants and im2col-int8),
 *  9. open-loop throughput through the epoll front door must scale
 *     from 1 to 8 workers by at least requiredScaling(hw) — 4x on
 *     hosts with >= 8 cores, degrading with core count down to a
 *     no-collapse bound on a single core, and
 * 10. under offered overload (8 closed-loop clients, maxPending=2)
 *     admission control must keep the ADMITTED p99 within 5x of the
 *     unloaded p99 — shedding buys bounded latency, not silence,
 * 11. the fused bias+ReLU epilogue must not lose to the plain blocked
 *     conv followed by a separate bias/ReLU pass on the wide layer —
 *     the deleted memory pass must actually buy time, and
 * 12. the binary16-storage blocked engine must hold >= 0.9x the fp32
 *     blocked session's end-to-end throughput on a three-deep wide-64
 *     chain while its output stays within 40 half-ULPs of the fp32
 *     output range (on soft-half hosts the throughput requirement
 *     degrades to a no-collapse bound; the accuracy bound always
 *     holds).
 *
 * The timed gates carry a 10% slack so a scheduling blip on a shared
 * CI runner cannot flip a structural claim into a flake; an actual
 * regression (typically 2x+) still trips them by a wide margin.
 *
 * The per-layer table on the micro net is informational only: with
 * both engines on the blocked core, im2col now wins the very small
 * layers (its single GEMM amortizes better than scatter/gather at
 * tiny widths) — exactly the trade SessionConfig::autoSelect measures
 * per layer. Returns the number of failed gates.
 */
int
runSmoke()
{
    const NetworkDesc net = microServeNet(16, 8);
    const EngineRegistry &registry = EngineRegistry::instance();
    const auto im2col = registry.get(ConvEngine::Im2col);
    const auto wino = registry.get(ConvEngine::WinogradBlocked);

    std::printf("=== Smoke: per-layer winograd-blocked vs im2col "
                "(batch 8, best of 5; informational — autoSelect "
                "picks per layer) ===\n");
    std::printf("%-12s %12s %12s %8s\n", "layer", "im2col us",
                "winograd us", "speedup");
    int failures = 0;
    std::uint64_t seed = 0x5eed;
    for (const ConvLayerDesc &d : net.expandedLayers()) {
        if (!d.winogradEligible())
            continue;
        LayerBuild build;
        build.params = ConvParams{d.kernel, d.stride,
                                  (d.kernel - 1) / 2};
        build.variant = WinoVariant::F2;
        TensorD weights({d.cout, d.cin, d.kernel, d.kernel});
        Rng wrng(seed++);
        wrng.fillNormal(weights.storage(), 0.0, 0.1);
        const auto prepIm = im2col->prepare(d, weights, build);
        const auto prepWino = wino->prepare(d, weights, build);

        TensorD probe({8, d.cin, d.height, d.width});
        Rng prng(seed++);
        prng.fillNormal(probe.storage(), 0.0, 1.0);
        TensorD probeBlocked(blockedShape(probe.shape()));
        nchwToBlocked(probe, probeBlocked);
        ScratchArena arena;
        const double tIm =
            timeBackendRun(*im2col, *prepIm, probe, arena, 7);
        const double tWino =
            timeBackendRun(*wino, *prepWino, probeBlocked, arena, 7);
        std::printf("%-12s %12.1f %12.1f %7.2fx\n", d.name.c_str(),
                    tIm * 1e6, tWino * 1e6, tIm / tWino);
    }

    // Gate 2: on a wide eligible layer the Winograd path must win.
    // Gates 3 and 5: on the same layer, the blocked layout must hold
    // its gather and autoSelect claims.
    {
        ConvLayerDesc d;
        d.name = "wide-64";
        d.cin = 64;
        d.cout = 64;
        d.kernel = 3;
        d.stride = 1;
        d.height = 16;
        d.width = 16;
        LayerBuild build;
        build.params = ConvParams{3, 1, 1};
        build.variant = WinoVariant::F2;
        TensorD weights({d.cout, d.cin, 3, 3});
        Rng wrng(seed++);
        wrng.fillNormal(weights.storage(), 0.0, 0.1);
        const auto prepIm = im2col->prepare(d, weights, build);
        const auto prepWino = wino->prepare(d, weights, build);
        TensorD probe({8, d.cin, d.height, d.width});
        Rng prng(seed++);
        prng.fillNormal(probe.storage(), 0.0, 1.0);
        TensorD probeBlocked(blockedShape(probe.shape()));
        nchwToBlocked(probe, probeBlocked);
        ScratchArena arena;
        const double tIm =
            timeBackendRun(*im2col, *prepIm, probe, arena, 7);
        const double tWino =
            timeBackendRun(*wino, *prepWino, probeBlocked, arena, 7);
        // 10% slack so a scheduling blip on a shared CI runner cannot
        // flip the structural claim into a flake.
        const bool ok = tWino < 1.10 * tIm;
        failures += !ok;
        std::printf("%-12s %12.1f %12.1f %7.2fx%s\n", d.name.c_str(),
                    tIm * 1e6, tWino * 1e6, tIm / tWino,
                    ok ? "" : "  << FAIL: winograd slower on wide");

        // Gate 3: the NCHWc8 gather (8-wide unit-stride block moves)
        // against the strided NCHW gather it replaces.
        {
            const auto bestOf = [&](auto &&fn) {
                fn(); // warmup (shapes the tile buffer)
                double best = 1e30;
                for (int i = 0; i < 7; ++i) {
                    const auto t0 = Clock::now();
                    fn();
                    best = std::min(
                        best,
                        std::chrono::duration<double>(Clock::now() -
                                                      t0)
                            .count());
                }
                return best;
            };
            TensorD vNchw, vBlocked;
            const double tGather = bestOf([&] {
                winogradGatherTiles(probe, WinoVariant::F2, 1, vNchw);
            });
            const double tGatherB = bestOf([&] {
                winogradGatherTilesBlocked(probeBlocked,
                                           WinoVariant::F2, 1,
                                           vBlocked);
            });
            const bool gok = tGatherB < 1.10 * tGather;
            failures += !gok;
            std::printf("gather[wide-64] nchw %.1f us, nchwc8 %.1f "
                        "us, %.2fx%s\n",
                        tGather * 1e6, tGatherB * 1e6,
                        tGather / tGatherB,
                        gok ? ""
                            : "  << FAIL: blocked gather slower");
        }

        // Gate 5: the measured policy must land on the blocked
        // engine for this layer.
        NetworkDesc wideNet;
        wideNet.name = "Wide64";
        wideNet.inputRes = d.height;
        wideNet.layers.push_back(d);
        SessionConfig scfg;
        scfg.autoSelect = true;
        const Session sel(wideNet, scfg);
        const bool sok =
            sel.layerEngine(0) == ConvEngine::WinogradBlocked;
        failures += !sok;
        std::printf("autoSelect[wide-64] -> %s (%s)%s\n",
                    convEngineName(sel.layerEngine(0)),
                    winoName(sel.layerVariant(0)),
                    sok ? "" : "  << FAIL: blocked path not selected");

        // Gate 8: the measured quantized policy must land on the
        // blocked int8 engine (the race includes its F2/F4 variants
        // and im2col-int8).
        {
            SessionConfig qcfg;
            qcfg.defaultEngine = ConvEngine::WinogradBlockedInt8;
            qcfg.autoSelect = true;
            const Session qsel(wideNet, qcfg);
            const bool qsok = qsel.layerEngine(0) ==
                              ConvEngine::WinogradBlockedInt8;
            failures += !qsok;
            std::printf("autoSelect[wide-64-int8] -> %s (%s)%s\n",
                        convEngineName(qsel.layerEngine(0)),
                        winoName(qsel.layerVariant(0)),
                        qsok ? ""
                             : "  << FAIL: blocked int8 path not "
                               "selected");
        }

        // Gate 11: the fused epilogue must actually delete the
        // separate bias/ReLU memory pass — the blocked engine with
        // bias+ReLU folded into its untile write against the plain
        // blocked run followed by a second pass over the output
        // surface (what an unfused session executes).
        {
            LayerBuild fbuild = build;
            fbuild.epilogue.bias.assign(d.cout, 0.0);
            Rng brng(seed++);
            brng.fillNormal(fbuild.epilogue.bias, 0.0, 0.1);
            fbuild.epilogue.relu = true;
            const auto prepFused = wino->prepare(d, weights, fbuild);
            const double tFused = timeBackendRun(
                *wino, *prepFused, probeBlocked, arena, 7);
            TensorD outP(wino->outputShape(*prepWino,
                                           probeBlocked.shape()));
            const auto bestOf = [&](auto &&fn) {
                fn(); // warmup
                double best = 1e30;
                for (int i = 0; i < 7; ++i) {
                    const auto t0 = Clock::now();
                    fn();
                    best = std::min(
                        best,
                        std::chrono::duration<double>(Clock::now() -
                                                      t0)
                            .count());
                }
                return best;
            };
            const std::vector<double> &bias = fbuild.epilogue.bias;
            const double tSep = bestOf([&] {
                wino->run(*prepWino, probeBlocked, arena, outP);
                double *p = outP.data();
                const std::size_t hw =
                    outP.shape()[2] * outP.shape()[3];
                for (std::size_t n = 0; n < outP.shape()[0]; ++n)
                    for (std::size_t b = 0; b < outP.shape()[1]; ++b)
                        for (std::size_t i = 0; i < hw; ++i)
                            for (std::size_t l = 0; l < kLayoutBlock;
                                 ++l) {
                                const double v =
                                    *p + bias[b * kLayoutBlock + l];
                                *p++ = v < 0.0 ? 0.0 : v;
                            }
            });
            const bool fok = tFused < 1.10 * tSep;
            failures += !fok;
            std::printf("%-12s %12.1f %12.1f %7.2fx%s\n",
                        "wide-64-fuse", tSep * 1e6, tFused * 1e6,
                        tSep / tFused,
                        fok ? ""
                            : "  << FAIL: fused epilogue slower than "
                              "separate pass");
        }

        // Gate 12: binary16 activation/weight storage, end to end on
        // a three-deep wide-64 chain (interior layer handoffs stay
        // half — the inter-layer bandwidth regime the engine
        // targets). The fp16 session must hold >= 0.9x the fp32
        // blocked session's throughput AND land within 40 half-ULPs
        // (40 * 2^-11) of the fp32 output range. On hosts where the
        // conversion kernels fall back to soft-half the throughput
        // requirement degrades to a no-collapse bound — accuracy is
        // host-independent and never relaxes.
        {
            NetworkDesc deep;
            deep.name = "Wide64x3";
            deep.inputRes = d.height;
            for (int i = 0; i < 3; ++i) {
                ConvLayerDesc l = d;
                l.name = "wide." + std::to_string(i);
                deep.layers.push_back(l);
            }
            SessionConfig f32cfg;
            f32cfg.defaultEngine = ConvEngine::WinogradBlocked;
            const Session s32(deep, f32cfg);
            SessionConfig f16cfg;
            f16cfg.defaultEngine = ConvEngine::WinogradBlockedF16;
            const Session s16(deep, f16cfg);
            TensorD in({8, d.cin, d.height, d.width});
            Rng irng(seed++);
            irng.fillNormal(in.storage(), 0.0, 1.0);
            const TensorD y32 = s32.run(in);
            const TensorD y16 = s16.run(in);
            double maxAbs = 0.0, maxErr = 0.0;
            for (std::size_t i = 0; i < y32.numel(); ++i) {
                maxAbs = std::max(maxAbs, std::abs(y32[i]));
                maxErr = std::max(maxErr, std::abs(y16[i] - y32[i]));
            }
            const bool aok = maxErr <= 40.0 * 0x1p-11 * maxAbs;
            const auto bestOf = [&](const Session &s,
                                    ScratchArena &a) {
                s.run(in, a); // warmup
                double best = 1e30;
                for (int i = 0; i < 7; ++i) {
                    const auto t0 = Clock::now();
                    s.run(in, a);
                    best = std::min(
                        best,
                        std::chrono::duration<double>(Clock::now() -
                                                      t0)
                            .count());
                }
                return best;
            };
            ScratchArena a32, a16;
            const double t32 = bestOf(s32, a32);
            const double t16 = bestOf(s16, a16);
            const bool soft =
                std::strcmp(layout::f16KernelName(), "soft") == 0;
            const double need = soft ? 0.25 : 0.9;
            const double ratio = t32 / t16;
            const bool hok = aok && ratio >= need;
            failures += !hok;
            std::printf(
                "f16[wide-64x3] kernel=%s: fp32 %.1f us, fp16 %.1f "
                "us, %.2fx (need >= %.2fx), max err %.3g of range "
                "%.3g%s\n",
                layout::f16KernelName(), t32 * 1e6, t16 * 1e6, ratio,
                need, maxErr, maxAbs,
                hok ? ""
                    : (aok ? "  << FAIL: fp16 throughput below bound"
                           : "  << FAIL: fp16 accuracy gate"));
        }
    }

    // Blocked-GEMM gate: on a representative [Cout, Cin] x [Cin, P]
    // per-tap shape, the blocked micro-kernel must beat the naive
    // i-k-j loop it replaced — the structural claim of the GEMM
    // subsystem.
    {
        const std::size_t M = 64, K = 64, P = 1024;
        Rng rng(123);
        std::vector<double> a(M * K), b(K * P), c(M * P);
        for (auto &v : a)
            v = rng.normal();
        for (auto &v : b)
            v = rng.normal();
        const auto bestOf = [&](auto &&fn) {
            using Clock = std::chrono::steady_clock;
            fn(); // warmup
            double best = 1e30;
            for (int i = 0; i < 7; ++i) {
                const auto t0 = Clock::now();
                fn();
                best = std::min(
                    best, std::chrono::duration<double>(Clock::now() -
                                                        t0)
                              .count());
            }
            return best;
        };
        const double tNaive = bestOf([&] {
            gemm::referenceGemm(a.data(), b.data(), c.data(), M, K, P);
        });
        const double tBlocked = bestOf([&] {
            gemm::gemm(a.data(), b.data(), c.data(), M, K, P);
        });
        const bool ok = tBlocked < 1.10 * tNaive;
        failures += !ok;
        std::printf("\ngemm[%zux%zux%zu] kernel=%s: naive %.1f us, "
                    "blocked %.1f us, %.2fx%s\n",
                    M, K, P, gemm::kernelName(), tNaive * 1e6,
                    tBlocked * 1e6, tNaive / tBlocked,
                    ok ? "" : "  << FAIL: blocked GEMM slower");

        // Gate 6: the dispatched int8 widening micro-kernel against
        // the generic blocked widening kernel on the same per-tap
        // shape. On hosts without a SIMD int8 kernel the dispatch IS
        // the generic kernel and the ratio sits at 1.0 — inside the
        // gate's slack by construction.
        std::vector<std::int8_t> a8(M * K), b8(K * P);
        for (auto &v : a8)
            v = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        for (auto &v : b8)
            v = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        std::vector<std::int32_t> c32(M * P);
        const double tGeneric = bestOf([&] {
            gemm::gemmS8S32Generic(a8.data(), b8.data(), c32.data(),
                                   M, K, P, P, P);
        });
        const double tWiden = bestOf([&] {
            gemm::gemmS8S32(a8.data(), b8.data(), c32.data(), M, K,
                            P);
        });
        const bool i8ok = tWiden < 1.10 * tGeneric;
        failures += !i8ok;
        std::printf("gemm-s8[%zux%zux%zu] kernel=%s: generic %.1f "
                    "us, widening %.1f us, %.2fx%s\n",
                    M, K, P, gemm::int8KernelName(), tGeneric * 1e6,
                    tWiden * 1e6, tGeneric / tWiden,
                    i8ok ? ""
                         : "  << FAIL: widening kernel slower than "
                           "generic");
    }

    // Gates 9-10: the network front door. Both run the micro net
    // through real loopback TCP sockets.
    {
        SessionConfig scfg;
        scfg.defaultEngine = ConvEngine::WinogradBlocked;
        auto session = std::make_shared<const Session>(net, scfg);
        const std::size_t hw = std::max<std::size_t>(
            1, std::thread::hardware_concurrency());

        // Gate 9: worker scaling over the wire, open loop (one deep
        // pipelined connection keeps every worker fed). The required
        // ratio adapts to the host's core count — the 4x target
        // presumes 8 usable cores.
        const Result t1 = runNetOpen(session, 1, 192);
        const Result t8 = runNetOpen(session, 8, 192);
        const double need = requiredScaling(hw);
        const double ratio = t8.reqPerSec / t1.reqPerSec;
        const bool nok = ratio >= need;
        failures += !nok;
        std::printf("\nnet scaling: 1 worker %.1f req/s, 8 workers "
                    "%.1f req/s, %.2fx (need >= %.2fx on %zu "
                    "cores)%s\n",
                    t1.reqPerSec, t8.reqPerSec, ratio, need, hw,
                    nok ? "" : "  << FAIL: front door does not scale");

        // Gate 10: shedding bounds the admitted tail. The unloaded
        // row is the floor; the overload row offers 4 closed-loop
        // clients against maxPending=2, so an admitted request waits
        // behind at most one other yet the offered load stays well
        // above capacity. A heavier net than gate 9's keeps the
        // per-request service time well above scheduler jitter — with
        // a ~0.2 ms request, timeslice noise from the client threads
        // on a small host swamps the queueing term the gate is
        // actually about (the gate trades offered-load margin for
        // noise immunity).
        SessionConfig hcfg;
        hcfg.defaultEngine = ConvEngine::WinogradBlocked;
        auto heavy = std::make_shared<const Session>(
            microServeNet(32, 16), hcfg);
        const Result unloaded = runNetClosed(heavy, hw, 1, 1, 64, 0);
        const Result overload = runNetClosed(heavy, hw, 1, 4, 384, 2);
        const bool pok = overload.requests >= 1 &&
                         overload.shed >= 1 &&
                         overload.p99Ms <= 5.0 * unloaded.p99Ms;
        failures += !pok;
        std::printf("net overload: unloaded p99 %.3f ms, admitted "
                    "p99 under overload %.3f ms (%.2fx, need <= "
                    "5.00x), %zu ok / %llu shed%s\n",
                    unloaded.p99Ms, overload.p99Ms,
                    overload.p99Ms / unloaded.p99Ms, overload.requests,
                    static_cast<unsigned long long>(overload.shed),
                    pok ? ""
                        : "  << FAIL: overload tail unbounded or "
                          "nothing shed");
    }

    // Whole-net bulk context (includes the im2col-only layers).
    for (ConvEngine engine :
         {ConvEngine::Im2col, ConvEngine::WinogradBlocked}) {
        SessionConfig scfg;
        scfg.defaultEngine = engine;
        auto session =
            std::make_shared<const Session>(net, scfg);
        const Result r = runOpenLoop(session, 1, 8, 96);
        std::printf("whole-net %-14s bulk-b8-1w: %10.1f req/s\n",
                    convEngineName(engine), r.reqPerSec);
    }
    std::printf(failures == 0
                    ? "\nSMOKE PASS: blocked GEMM beats naive, "
                      "winograd-blocked beats im2col on the wide "
                      "layer, the NCHWc8 layout holds its gather / "
                      "autoSelect claims, the int8 path holds its "
                      "widening-kernel / autoSelect claims, the fused "
                      "epilogue beats the separate pass, binary16 "
                      "storage holds throughput inside the accuracy "
                      "gate, and the net front door scales with "
                      "workers and bounds the admitted tail under "
                      "overload\n"
                    : "\nSMOKE FAIL: %d gate(s) failed\n",
                failures);
    return failures;
}

/**
 * Observability overhead gate: p50 of the steady-state wide-64
 * blocked FP layer (serial, input already blocked — the hottest
 * instrumented path), printed as one machine-readable line. CI builds
 * this bench twice, default and -DTWQ_NO_OBS=ON, and asserts the
 * instrumented-but-disabled build stays within 5% of the stub build —
 * the budget for the one predicted branch each disabled span costs.
 */
int
runObsGate()
{
    ConvLayerDesc d;
    d.name = "wide-64";
    d.cin = 64;
    d.cout = 64;
    d.kernel = 3;
    d.stride = 1;
    d.height = 16;
    d.width = 16;
    const auto blocked =
        EngineRegistry::instance().get(ConvEngine::WinogradBlocked);
    LayerBuild build;
    build.params = ConvParams{3, 1, 1};
    build.variant = WinoVariant::F2;
    TensorD weights({d.cout, d.cin, 3, 3});
    Rng wrng(0x0b5);
    wrng.fillNormal(weights.storage(), 0.0, 0.1);
    const auto prep = blocked->prepare(d, weights, build);
    TensorD probe({8, d.cin, d.height, d.width});
    Rng prng(0x0b6);
    prng.fillNormal(probe.storage(), 0.0, 1.0);
    TensorD probeBlocked(blockedShape(probe.shape()));
    nchwToBlocked(probe, probeBlocked);
    ScratchArena arena;
    TensorD out(blocked->outputShape(*prep, probeBlocked.shape()));
    blocked->run(*prep, probeBlocked, arena, out); // warmup
    constexpr int kIters = 200;
    std::vector<double> ms;
    ms.reserve(kIters);
    for (int i = 0; i < kIters; ++i) {
        const auto t0 = Clock::now();
        blocked->run(*prep, probeBlocked, arena, out);
        ms.push_back(std::chrono::duration<double, std::milli>(
                         Clock::now() - t0)
                         .count());
    }
    std::printf("OBS_GATE_P50_MS %.5f\n", percentile(ms, 0.50));
    return 0;
}

} // namespace
} // namespace twq

int
main(int argc, char **argv)
{
    using namespace twq;

    if (argc == 2 && std::strcmp(argv[1], "--smoke") == 0)
        return runSmoke() == 0 ? 0 : 1;
    if (argc == 2 && std::strcmp(argv[1], "--obs-gate") == 0)
        return runObsGate();
    std::fprintf(stderr, "usage: %s --smoke|--obs-gate\n", argv[0]);
    return 2;
}
