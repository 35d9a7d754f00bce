/**
 * @file
 * Offline autoSelect tuner: sweep a matrix of networks and candidate
 * policies once (FP layers race im2col and winograd-blocked at
 * F2/F4/F6; with --quant, quantized layers race im2col-int8 and
 * winograd-blocked-int8 at each int8-eligible variant), persisting
 * every measured plan (winner, probe provenance, full candidate
 * table) into a signature-versioned v5 PlanCache file that production
 * sessions load instead of probing. An older-format file is rejected
 * whole and re-tuned.
 *
 *   tune --cache plans.txt                    # tune the default matrix
 *   tune --cache plans.txt --nets wide-64 --quant
 *   tune --signature                          # print the cache key
 *   tune --cache plans.txt --verify           # prove zero cold probes
 *
 * --verify rebuilds every session of the matrix against the cache and
 * fails (exit 1) unless (a) the `plan.probes` counter did not move —
 * no layer ran a live candidate race — and (b) every raced layer
 * reports plan source "cache". This is the gate CI runs after
 * restoring a tuned cache: a kernel-table change, a format bump, or a
 * matrix extension all surface as a nonzero exit instead of silent
 * cold probes in the serving path.
 *
 * --signature prints PlanCache::signature() — the kernel-table/CPU
 * identity a cache file is valid for — so CI can key its cache
 * storage on it and a new machine generation starts a fresh entry.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "models/zoo.hh"
#include "obs/metrics.hh"
#include "runtime/plan_cache.hh"
#include "runtime/session.hh"

using namespace twq;

namespace
{

/** A single-layer wide-channel net (the bench's wide-64 shape). */
NetworkDesc
wide64Net()
{
    NetworkDesc net;
    net.name = "Wide64";
    net.inputRes = 16;
    ConvLayerDesc d;
    d.name = "wide64";
    d.cin = 64;
    d.cout = 64;
    d.kernel = 3;
    d.stride = 1;
    d.height = 16;
    d.width = 16;
    net.layers.push_back(d);
    return net;
}

bool
netByName(const std::string &name, NetworkDesc *out)
{
    if (name == "micro-8")
        *out = microServeNet(8, 4);
    else if (name == "micro-12")
        *out = microServeNet(12, 8); // the serve_net example's model
    else if (name == "micro-16")
        *out = microServeNet(16, 8);
    else if (name == "wide-64")
        *out = wide64Net();
    else
        return false;
    return true;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < csv.size()) {
        const std::size_t comma = csv.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? csv.size() : comma;
        if (end > pos)
            out.push_back(csv.substr(pos, end - pos));
        pos = end + 1;
    }
    return out;
}

SessionConfig
policyFor(const std::string &cachePath, bool quantized,
          std::size_t batch)
{
    SessionConfig cfg;
    cfg.autoSelect = true;
    cfg.autoSelectBatch = batch;
    cfg.planCachePath = cachePath;
    if (quantized)
        cfg.defaultEngine = ConvEngine::WinogradBlockedInt8;
    return cfg;
}

std::uint64_t
probeCount()
{
    return obs::Registry::global().counter("plan.probes").value();
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: tune --cache PATH "
        "[--nets micro-8,micro-12,micro-16,wide-64]\n"
        "            [--quant] [--batch N] [--verify]\n"
        "       tune --signature\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string cachePath;
    std::string nets = "micro-8,wide-64";
    bool quant = false;
    bool verify = false;
    std::size_t batch = 8;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--signature") {
            std::printf("%s\n", PlanCache::signature().c_str());
            return 0;
        }
        if (arg == "--quant")
            quant = true;
        else if (arg == "--verify")
            verify = true;
        else if (arg == "--cache" && i + 1 < argc)
            cachePath = argv[++i];
        else if (arg == "--nets" && i + 1 < argc)
            nets = argv[++i];
        else if (arg == "--batch" && i + 1 < argc)
            batch = std::strtoul(argv[++i], nullptr, 10);
        else
            return usage();
    }
    if (cachePath.empty())
        return usage();

    std::vector<NetworkDesc> matrix;
    for (const std::string &name : splitList(nets)) {
        NetworkDesc net;
        if (!netByName(name, &net)) {
            std::fprintf(stderr, "unknown net '%s'\n", name.c_str());
            return 2;
        }
        matrix.push_back(std::move(net));
    }

    // Each flavor of each net is one session build: tuning populates
    // the cache file (the session persists it when its revision
    // moved); verification must find every plan already there.
    int failures = 0;
    for (const NetworkDesc &net : matrix) {
        for (const bool q : quant ? std::vector<bool>{false, true}
                                  : std::vector<bool>{false}) {
            const std::uint64_t before = probeCount();
            const Session session(
                net, policyFor(cachePath, q, batch));
            const std::uint64_t probes = probeCount() - before;
            std::size_t cached = 0, probed = 0;
            for (std::size_t i = 0; i < session.layerCount(); ++i) {
                const LayerPlanInfo plan = session.layerPlan(i);
                cached += std::strcmp(plan.source, "cache") == 0;
                probed += std::strcmp(plan.source, "probed") == 0;
            }
            std::printf("%-10s %-4s layers=%zu cached=%zu probed=%zu "
                        "probes=%llu\n",
                        net.name.c_str(), q ? "int8" : "fp",
                        session.layerCount(), cached, probed,
                        static_cast<unsigned long long>(probes));
            if (verify && (probes != 0 || probed != 0)) {
                std::fprintf(stderr,
                             "FAIL: %s (%s) ran %llu cold probes "
                             "(%zu probed layers) — cache stale or "
                             "incomplete\n",
                             net.name.c_str(), q ? "int8" : "fp",
                             static_cast<unsigned long long>(probes),
                             probed);
                ++failures;
            }
        }
    }
    if (verify && failures == 0)
        std::printf("verify OK: zero cold probes across the matrix\n");
    return failures ? 1 : 0;
}
