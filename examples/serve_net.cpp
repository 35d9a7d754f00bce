/**
 * @file
 * Network-serving example: the epoll front door and its client.
 *
 * Three modes:
 *
 *   serve_net --serve [--port P] [--threads N] [--io N]
 *       Start a server on loopback and print the bound port; serves
 *       the binary inference protocol and GET /metrics until SIGINT.
 *
 *   serve_net --client --port P [--requests R]
 *       Connect to a running server, stream R inference requests,
 *       print throughput and the /metrics scrape size.
 *
 *   serve_net --selftest
 *       Self-contained loopback smoke used by CI: starts a server on
 *       an ephemeral port, drives it with concurrent clients, checks
 *       responses are bit-identical to in-process submit(), scrapes
 *       /metrics, and exits nonzero on any failure.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "models/zoo.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/metrics.hh"
#include "runtime/server.hh"

using namespace twq;

namespace
{

/**
 * Tuned-plan serving: when --plan-cache names a file produced by
 * tools/tune, the session builds with autoSelect against it — a
 * complete cache means zero cold probes at startup (the tuned-plan CI
 * job asserts this through /statusz), a stale or missing one degrades
 * to measuring once and persisting for the next start.
 */
std::string gPlanCache;

std::shared_ptr<const Session>
makeSession()
{
    SessionConfig scfg;
    scfg.defaultEngine = ConvEngine::WinogradBlocked;
    if (!gPlanCache.empty()) {
        scfg.autoSelect = true;
        scfg.planCachePath = gPlanCache;
    }
    return std::make_shared<const Session>(microServeNet(12, 8),
                                           scfg);
}

volatile std::sig_atomic_t gStop = 0;

int
runServe(std::uint16_t port, std::size_t threads, std::size_t io)
{
    auto session = makeSession();
    RuntimeConfig rcfg;
    rcfg.threads = threads;
    rcfg.maxPending = 4 * threads * rcfg.batch.maxBatch;
    InferenceServer server(session, rcfg);

    net::NetConfig ncfg;
    ncfg.port = port;
    ncfg.ioThreads = io;
    net::NetServer front(server, ncfg);
    const std::uint16_t bound = front.start();
    std::printf("serving %s on 127.0.0.1:%u (%zu workers, %zu I/O "
                "threads); GET /metrics on the same port\n",
                session->network().name.c_str(), bound, threads, io);
    std::fflush(stdout);

    std::signal(SIGINT, [](int) { gStop = 1; });
    std::signal(SIGTERM, [](int) { gStop = 1; });
    while (!gStop)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::printf("draining...\n");
    front.shutdown();
    server.shutdown();
    std::printf("served %llu requests\n",
                static_cast<unsigned long long>(front.requestsSeen()));
    return 0;
}

int
runClient(std::uint16_t port, std::size_t requests)
{
    auto session = makeSession(); // for the input shape only
    TensorD input(session->inputShape());
    Rng rng(7);
    rng.fillNormal(input.storage(), 0.0, 1.0);

    net::Client client;
    client.connect("127.0.0.1", port);
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t ok = 0, other = 0;
    for (std::size_t r = 0; r < requests; ++r) {
        const net::Frame resp = client.infer(input);
        (resp.status == net::Status::Ok ? ok : other)++;
    }
    const double sec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    std::printf("%zu ok, %zu non-ok in %.3f s (%.1f req/s)\n", ok,
                other, sec, static_cast<double>(requests) / sec);
    const std::string metrics =
        net::httpGet("127.0.0.1", port, "/metrics");
    std::printf("GET /metrics: %zu bytes\n", metrics.size());
    return 0;
}

int
runSelftest()
{
    int failures = 0;
    const auto check = [&](bool cond, const char *what) {
        std::printf("  [%s] %s\n", cond ? "ok" : "FAIL", what);
        if (!cond)
            ++failures;
    };

    auto session = makeSession();
    RuntimeConfig rcfg;
    rcfg.threads = 2;
    InferenceServer server(session, rcfg);
    net::NetConfig ncfg;
    net::NetServer front(server, ncfg);
    const std::uint16_t port = front.start();
    std::printf("selftest on 127.0.0.1:%u\n", port);

    // Bit-identity: the same tensor served over the wire and through
    // in-process submit() must match to the last bit.
    TensorD input(session->inputShape());
    Rng rng(11);
    rng.fillNormal(input.storage(), 0.0, 1.0);
    const TensorD local = server.submit(input).get();
    net::Client probe;
    probe.connect("127.0.0.1", port);
    const net::Frame served = probe.infer(input);
    check(served.status == net::Status::Ok, "wire response ok");
    check(served.shape == local.shape(), "wire response shape");
    check(served.data == local.storage(),
          "wire response bit-identical to in-process submit");

    // Concurrent clients.
    constexpr std::size_t kClients = 4, kPerClient = 16;
    std::atomic<std::size_t> okCount{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            TensorD in(session->inputShape());
            Rng crng(100 + c);
            crng.fillNormal(in.storage(), 0.0, 1.0);
            net::Client cl;
            cl.connect("127.0.0.1", port);
            for (std::size_t r = 0; r < kPerClient; ++r) {
                const net::Frame f = cl.infer(in);
                if (f.status == net::Status::Ok)
                    okCount.fetch_add(1);
            }
        });
    }
    for (auto &t : clients)
        t.join();
    check(okCount.load() == kClients * kPerClient,
          "concurrent clients all served");

    // Timed request: the server-side breakdown must partition a
    // window inside the client's own round trip.
    const auto rt0 = std::chrono::steady_clock::now();
    const net::Frame timed = probe.inferTimed(input);
    const std::uint64_t rttNs =
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - rt0)
                .count());
    check(timed.status == net::Status::Ok && timed.timed,
          "timed wire response ok");
    check(timed.queueNs + timed.batchNs + timed.computeNs <= rttNs,
          "server breakdown bounded by client RTT");

    // Metrics scrape over the same port. The responder itself works
    // in every build; the body carries series only when the metrics
    // subsystem is compiled in (TWQ_NO_OBS strips them).
    const std::string metrics =
        net::httpGet("127.0.0.1", port, "/metrics");
    check(metrics.find("200 OK") != std::string::npos,
          "GET /metrics returns 200");
    if constexpr (obs::kEnabled) {
        check(metrics.find("twq_net_requests") != std::string::npos,
              "scrape contains net request counter");
        check(metrics.find("twq_server_request_latency_ns") !=
                  std::string::npos,
              "scrape contains server latency histogram");
    }

    // Introspection endpoints share the port with the protocol.
    const std::string statusz =
        net::httpGet("127.0.0.1", port, "/statusz");
    check(statusz.find("200 OK") != std::string::npos &&
              statusz.find("\"plan_signature\"") != std::string::npos &&
              statusz.find("\"layers\"") != std::string::npos,
          "GET /statusz reports build and per-layer plans");
    if (!gPlanCache.empty()) {
        // Serving from a tuned plan cache: every raced layer must
        // report its plan came from the cache — a "probed" source
        // means a cold probe ran in the serving path, exactly what
        // the tuned-plan CI job exists to prevent.
        check(statusz.find("\"plan_source\": \"probed\"") ==
                  std::string::npos,
              "no layer plan was probed at startup");
        check(statusz.find("\"plan_source\": \"cache\"") !=
                  std::string::npos,
              "layer plans served from the tuned cache");
    }
    const std::string healthz =
        net::httpGet("127.0.0.1", port, "/healthz");
    check(healthz.find("200 OK") != std::string::npos &&
              healthz.find("ok") != std::string::npos,
          "GET /healthz answers ok while serving");
    const std::string tracez =
        net::httpGet("127.0.0.1", port, "/tracez");
    check(tracez.find("200 OK") != std::string::npos &&
              tracez.find("\"records\"") != std::string::npos,
          "GET /tracez returns the slow-request ring");

    front.shutdown();
    server.shutdown();
    std::printf("selftest: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool serve = false, client = false, selftest = false;
    std::uint16_t port = 0;
    std::size_t threads = 2, io = 1, requests = 64;

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
        if (arg == "--serve") {
            serve = true;
        } else if (arg == "--client") {
            client = true;
        } else if (arg == "--selftest") {
            selftest = true;
        } else if (arg == "--port") {
            port = static_cast<std::uint16_t>(
                std::strtoul(need("--port"), nullptr, 10));
        } else if (arg == "--threads") {
            threads = std::strtoul(need("--threads"), nullptr, 10);
        } else if (arg == "--io") {
            io = std::strtoul(need("--io"), nullptr, 10);
        } else if (arg == "--requests") {
            requests = std::strtoul(need("--requests"), nullptr, 10);
        } else if (arg == "--plan-cache") {
            gPlanCache = need("--plan-cache");
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            return 1;
        }
    }

    if (selftest)
        return runSelftest();
    if (serve)
        return runServe(port, std::max<std::size_t>(1, threads),
                        std::max<std::size_t>(1, io));
    if (client) {
        if (port == 0) {
            std::fprintf(stderr, "--client needs --port\n");
            return 1;
        }
        return runClient(port, requests);
    }
    std::fprintf(stderr,
                 "usage: serve_net --serve|--client|--selftest "
                 "[--port P] [--threads N] [--io N] [--requests R] "
                 "[--plan-cache FILE]\n");
    return 1;
}
