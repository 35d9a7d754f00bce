/**
 * @file
 * Serving-runtime driver: load a network into a Session, print the
 * per-layer engine plan, then drive the batched multi-threaded
 * InferenceServer with closed-loop clients and report throughput and
 * latency percentiles.
 *
 * Usage:
 *   serve_throughput [--engine im2col|im2col-int8|winograd-blocked|
 *                             winograd-blocked-int8|winograd-blocked-f16]
 *                    [--threads N] [--batch B] [--clients C]
 *                    [--requests R] [--res PX] [--width CH]
 *                    [--variant f2|f4] [--trace out.json] [--metrics]
 *
 * --trace writes a Chrome trace-event JSON of the run (open in
 * chrome://tracing or https://ui.perfetto.dev) with one lane per
 * worker; --metrics dumps the server's Prometheus-style metrics text
 * after the run.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "models/zoo.hh"
#include "runtime/server.hh"

using namespace twq;

int
main(int argc, char **argv)
{
    ConvEngine engine = ConvEngine::WinogradBlocked;
    std::size_t threads = std::max<std::size_t>(
        1, std::thread::hardware_concurrency());
    std::size_t maxBatch = 8;
    std::size_t clients = 2 * threads;
    std::size_t requests = 256;
    std::size_t res = 16;
    std::size_t width = 8;
    WinoVariant variant = WinoVariant::F2;
    std::string tracePath;
    bool dumpMetrics = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        auto need = [&](const char *flag) {
            if (!val) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(1);
            }
            ++i;
            return val;
        };
        if (arg == "--engine") {
            if (!convEngineFromName(need("--engine"), &engine)) {
                std::fprintf(stderr,
                             "unknown engine '%s' (want one of:",
                             val);
                for (ConvEngine e : kAllConvEngines)
                    std::fprintf(stderr, " %s", convEngineName(e));
                std::fprintf(stderr, ")\n");
                return 1;
            }
        } else if (arg == "--threads") {
            threads = std::strtoul(need("--threads"), nullptr, 10);
        } else if (arg == "--batch") {
            maxBatch = std::strtoul(need("--batch"), nullptr, 10);
        } else if (arg == "--clients") {
            clients = std::strtoul(need("--clients"), nullptr, 10);
        } else if (arg == "--requests") {
            requests = std::strtoul(need("--requests"), nullptr, 10);
        } else if (arg == "--res") {
            res = std::strtoul(need("--res"), nullptr, 10);
        } else if (arg == "--width") {
            width = std::strtoul(need("--width"), nullptr, 10);
        } else if (arg == "--trace") {
            tracePath = need("--trace");
        } else if (arg == "--metrics") {
            dumpMetrics = true;
        } else if (arg == "--variant") {
            const std::string v = need("--variant");
            if (v == "f4") {
                variant = WinoVariant::F4;
            } else if (v == "f2") {
                variant = WinoVariant::F2;
            } else {
                std::fprintf(stderr,
                             "unknown variant '%s' (want f2 or f4)\n",
                             v.c_str());
                return 1;
            }
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            return 1;
        }
    }

    if (threads == 0 || maxBatch == 0 || clients == 0) {
        std::fprintf(stderr, "--threads, --batch, and --clients must "
                             "be positive\n");
        return 1;
    }

    SessionConfig scfg;
    scfg.defaultEngine = engine;
    scfg.variant = variant;
    // The session arms the tracer and flushes the JSON when it is
    // destroyed — after the server (declared below it) has shut down,
    // so worker spans are complete.
    scfg.tracePath = tracePath;
    auto session = std::make_shared<const Session>(
        microServeNet(res, width), scfg);

    std::printf("network: %s (input %zux%zu)\n",
                session->network().name.c_str(), res, res);
    std::printf("%-12s %6s %6s %8s %8s  %s\n", "layer", "cin", "cout",
                "kernel", "stride", "engine");
    for (std::size_t i = 0; i < session->layerCount(); ++i) {
        const ConvLayerDesc &d = session->layerDesc(i);
        std::printf("%-12s %6zu %6zu %8zu %8zu  %s\n", d.name.c_str(),
                    d.cin, d.cout, d.kernel, d.stride,
                    convEngineName(session->layerEngine(i)));
    }

    RuntimeConfig rcfg;
    rcfg.threads = threads;
    rcfg.batch.maxBatch = maxBatch;
    rcfg.batch.maxWait = std::chrono::microseconds(200);
    InferenceServer server(session, rcfg);

    std::printf("\nserving: %zu workers, max batch %zu, %zu closed-loop "
                "clients, %zu requests\n",
                threads, maxBatch, clients, requests);

    using Clock = std::chrono::steady_clock;
    std::vector<std::vector<double>> perClient(clients);
    const auto start = Clock::now();
    std::vector<std::thread> clientThreads;
    for (std::size_t c = 0; c < clients; ++c) {
        clientThreads.emplace_back([&, c] {
            TensorD input(session->inputShape());
            Rng rng(42 + c);
            rng.fillNormal(input.storage(), 0.0, 1.0);
            for (std::size_t r = 0; r < requests / clients; ++r) {
                const auto t0 = Clock::now();
                server.submit(input).get();
                perClient[c].push_back(
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count());
            }
        });
    }
    for (auto &t : clientThreads)
        t.join();
    const double wallSec =
        std::chrono::duration<double>(Clock::now() - start).count();
    server.drain();
    const ServerStats stats = server.stats();
    const obs::MetricsSnapshot snap = server.metricsSnapshot();

    std::vector<double> latencies;
    for (auto &v : perClient)
        latencies.insert(latencies.end(), v.begin(), v.end());
    if (latencies.empty()) {
        std::printf("no requests executed\n");
        return 0;
    }

    std::printf("  completed:     %llu requests in %.3f s\n",
                static_cast<unsigned long long>(stats.completed),
                wallSec);
    std::printf("  throughput:    %.1f req/s\n",
                static_cast<double>(latencies.size()) / wallSec);
    std::printf("  latency:       p50 %.3f ms, p99 %.3f ms\n",
                percentile(latencies, 0.50),
                percentile(latencies, 0.99));
    // Batch size and the server-side view of the run come from the
    // histogram snapshot: one coherent read, and quantiles — not just
    // a mean — for the queue-wait breakdown. (stats.completed above
    // is the coherent counter pair from the same server.)
    const auto hist = [&](const char *name) {
        const auto it = snap.histograms.find(name);
        return it == snap.histograms.end() ? obs::HistogramSnapshot{}
                                           : it->second;
    };
    const obs::HistogramSnapshot batchH = hist("server.batch_size");
    const obs::HistogramSnapshot reqH =
        hist("server.request_latency_ns");
    const obs::HistogramSnapshot waitH = hist("server.queue_wait_ns");
    std::printf("  avg batch:     %.2f (max %zu, %llu batches)\n",
                batchH.mean(), maxBatch,
                static_cast<unsigned long long>(batchH.count));
    std::printf("  server view:   request p50 %.3f ms, p99 %.3f ms; "
                "queue wait p50 %.3f ms, p99 %.3f ms\n",
                reqH.p50Ms(), reqH.p99Ms(), waitH.p50Ms(),
                waitH.p99Ms());
    if (dumpMetrics)
        std::printf("\n%s", snap.prometheusText().c_str());
    if (!tracePath.empty())
        std::printf("\ntrace will be written to %s (open in "
                    "chrome://tracing or ui.perfetto.dev)\n",
                    tracePath.c_str());
    return 0;
}
