/**
 * @file
 * twq_e2e: the client-observed serving benchmark, one workload per
 * process.
 *
 *   twq_e2e --workload NAME --seed N [--seconds S] [--trace FILE]
 *   twq_e2e --selftest [--benchmark BENCHMARK.json]
 *
 * An untraced run measures for S seconds, split over trials that each
 * start a fresh server process, and prints every end-to-end metric.
 * `--trace` instead runs one untraced and one timed trial, replays the
 * sessions layer by layer and stage by stage, prints every per-layer
 * metric and writes the spans to FILE as Chrome-trace JSON. The last
 * line of standard output is always one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Load comes from this process alone, on at most two client threads
 * and two connections; the server runs in a child process (serve.cc).
 */

#include <csignal>
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/stats.hh"
#include "e2e.hh"

namespace e2e
{

const std::vector<MetricDecl> &
endToEndDecls()
{
    static const std::vector<MetricDecl> d = {
        {"setup_s", "s"},
        {"latency_p50_ms", "ms"},
        {"latency_p90_ms", "ms"},
        {"throughput_rps", "responses/s"},
        {"peak_rss_mb", "MiB"},
    };
    return d;
}

std::vector<MetricDecl>
perLayerDecls()
{
    std::vector<MetricDecl> d = {
        {"loadgen.offered_rps", "requests/s"},
        {"loadgen.late_p99_ms", "ms"},
        {"net.wire_ms.p50", "ms"},
        {"net.wire_ms.p99", "ms"},
        {"runtime.queue_ms.p50", "ms"},
        {"runtime.queue_ms.p99", "ms"},
        {"runtime.batch_ms.p50", "ms"},
        {"runtime.compute_ms.p50", "ms"},
        {"runtime.compute_ms.p99", "ms"},
        {"runtime.batch_size.mean", "count"},
        {"runtime.compute_overhead_ms", "ms"},
        {"session.run_ms.b1", "ms"},
        {"session.run_ms.b8", "ms"},
        {"session.convert_ms", "ms"},
    };
    for (const twq::NetworkDesc &n : {cifar20(), wide64x4(), micro8()})
        for (const twq::ConvLayerDesc &l : n.expandedLayers())
            d.push_back({"layer." + n.name + "." + l.name + "_ms", "ms"});
    for (const char *s : {"gather", "in_xform", "tap_gemm", "out_xform",
                          "untile", "quantize", "rescale", "dequant",
                          "im2col"})
        d.push_back({std::string("stage.") + s + "_ms", "ms"});
    d.push_back({"host.stream_gbps", "GB/s"});
    d.push_back({"host.fma_gflops", "GFLOP/s"});
    for (const char *s : {"gather", "untile", "quantize", "rescale",
                          "dequant"})
        d.push_back({std::string("stage.") + s + ".gbps", "GB/s"});
    for (const char *s : {"in_xform", "tap_gemm", "out_xform", "im2col"})
        d.push_back({std::string("stage.") + s + ".gflops", "GFLOP/s"});
    d.push_back({"setup.session_build_s", "s"});
    d.push_back({"setup.server_start_s", "s"});
    d.push_back({"setup.warmup_s", "s"});
    for (const NetSetup &n : coldstartSetups())
        d.push_back({"plan.build_s." + n.key, "s"});
    d.push_back({"plan.layers_probed", "count"});
    d.push_back({"trace.overhead_pct", "%"});
    return d;
}

} // namespace e2e

namespace
{

using namespace e2e;
using twq::Session;

constexpr std::size_t kCorpus = 64;       ///< distinct inputs, cycled
constexpr std::size_t kWarmup = 32;       ///< requests before timing
/// Verified per cold build: enough that p90 of one cold start keeps ten
/// samples beyond it.
constexpr std::size_t kColdRequests = 100;
constexpr std::uint64_t kWatchdogS = 170;
constexpr std::size_t kTracedRequests = 2000; ///< written to a trace
/// Target length of one pinned trial. Each trial starts a fresh server
/// process whose threads the OS places anew, and placement moves these
/// workloads by up to a fifth on a small shared host; many short
/// trials pooled average that out instead of sampling it once.
constexpr double kTrialSeconds = 2.0;

struct Options
{
    std::string self; ///< this binary, re-run for server processes
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    std::string trace;
    bool selftest = false;
    std::string benchmark = "BENCHMARK.json";
    // --serve: this process is a trial's server (serve.cc).
    std::string serve;
    std::size_t net = 0;
    std::size_t expect = 0;
    bool profile = false;
};

/** Requests attempted and failed, plus the in-process checks. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool checksOk = true;

    void
    add(const LoadResult &r)
    {
        attempted += r.attempted;
        failed += r.failed();
    }
};

/** Ends the process if no result is printed in time. */
class Watchdog
{
  public:
    explicit Watchdog(std::uint64_t seconds)
        : thread_([this, seconds] {
              std::unique_lock<std::mutex> lock(mu_);
              if (!cv_.wait_for(lock, std::chrono::seconds(seconds),
                                [this] { return done_; })) {
                  std::fprintf(stderr,
                               "twq_e2e: no result after %llu s\n",
                               static_cast<unsigned long long>(seconds));
                  std::_Exit(3);
              }
          })
    {}

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            done_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    std::thread thread_;
};

std::vector<double>
latenciesMs(const LoadResult &r)
{
    std::vector<double> v;
    v.reserve(r.ok.size());
    for (const Sample &s : r.ok)
        v.push_back(nsToMs(static_cast<double>(s.doneNs - s.dueNs)));
    return v;
}

double
throughput(const LoadResult &r)
{
    return r.windowNs ? static_cast<double>(r.ok.size()) /
                            nsToS(static_cast<double>(r.windowNs))
                      : 0.0;
}

void
merge(LoadResult &into, const LoadResult &r, std::uint64_t idBase)
{
    for (Sample s : r.ok) {
        s.id += idBase;
        into.ok.push_back(s);
    }
    into.lateMs.insert(into.lateMs.end(), r.lateMs.begin(),
                       r.lateMs.end());
    into.attempted += r.attempted;
    into.shed += r.shed;
    into.error += r.error;
    into.wrong += r.wrong;
    into.windowNs += r.windowNs;
}

double
ratio(std::uint64_t a, std::uint64_t b)
{
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

// ----------------------------------------------------- pinned trials

struct Trial
{
    double buildS = 0.0;  ///< Session build, in the server
    double startS = 0.0;  ///< server and front-door start, in the server
    double warmupS = 0.0; ///< verified warm-up requests
    double rssMb = 0.0;   ///< the server process's peak resident set
    double batchMean = 0.0;
    SessionTimes session; ///< the served session, timed trials only
    LoadResult load;

    /// Set-up as the library incurs it; starting the process that
    /// hosts the server is packaging, not set-up, and is left out.
    double
    setupS() const
    {
        return buildS + startS + warmupS;
    }
};

/**
 * One trial: start a fresh server process, warm it up with verified
 * requests (together the set-up), then drive the load. A timed trial
 * sends InferTimed frames and has the server time its session first.
 */
Trial
runTrial(const Options &o, const Workload &w, const Corpus &corpus,
         double seconds, std::uint64_t seed, bool timed, Tally &tally)
{
    Trial t;
    ServerProcess server(o.self, w.name, 0, 0, 0, timed);
    const std::uint64_t t1 = nowNs();
    const LoadResult warm =
        runSequential(server.port(), corpus, kWarmup, false);
    const std::uint64_t t2 = nowNs();
    tally.add(warm);
    t.buildS = server.buildS();
    t.startS = server.startS();
    t.warmupS = nsToS(static_cast<double>(t2 - t1));

    const auto [done0, batches0] = server.counts();
    t.load = runLoad(w.load, server.port(), corpus, seconds, seed, timed);
    const auto [done1, batches1] = server.counts();
    tally.add(t.load);
    t.batchMean = ratio(done1 - done0, batches1 - batches0);
    t.session = server.session();
    t.rssMb = server.stop();
    return t;
}

void
printTrial(const char *label, double setupS, double rssMb,
           const LoadResult &r)
{
    const std::vector<double> lat = latenciesMs(r);
    std::printf("%s: setup %.4f s rss %.1f MiB | attempted %llu ok %zu "
                "failed %llu | p50 %.4f ms p90 %.4f ms p99 %.4f ms | "
                "%.2f resp/s\n",
                label, setupS, rssMb,
                static_cast<unsigned long long>(r.attempted), r.ok.size(),
                static_cast<unsigned long long>(r.failed()),
                twq::percentile(lat, 0.50), twq::percentile(lat, 0.90),
                twq::percentile(lat, 0.99), throughput(r));
}

// ------------------------------------------------------- cold start

struct ColdStart
{
    std::map<std::string, double> buildS; ///< per net key
    double startS = 0.0; ///< server and front-door starts
    double firstS = 0.0; ///< first verified response of each net
    double rssMb = 0.0;  ///< largest server process
    std::size_t probed = 0;
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    LoadResult load; ///< every net's verified requests, pooled
    /// Per input, the round trips of the nets summed: what a client
    /// that sends each input to every freshly built net in turn waits.
    /// Pooled, the requests' median would be the median of whichever
    /// net is middle in speed, and so swing with that net's plan alone.
    std::vector<double> chainMs;
    /// The paper's configuration as autoSelect built it (timed cold
    /// starts): its session times, its own requests, its batches.
    SessionTimes paperSession;
    LoadResult paperLoad;
    double paperBatchMean = 0.0;

    double
    setupS() const
    {
        double s = 0.0;
        for (const auto &[k, v] : buildS)
            s += v;
        return s;
    }
};

/**
 * Build each cold-start net with autoSelect and no plan cache in a
 * fresh server process, which checks the plans it picked against the
 * fp64 reference before it serves, then send it kColdRequests requests
 * checked against that server session's own in-process outputs.
 */
ColdStart
runColdStart(const Options &o, std::uint64_t seed, bool timed,
             Tally &tally)
{
    const Workload &w = *findWorkload("coldstart-autoselect");
    ColdStart c;
    for (std::size_t k = 0; k < w.nets.size(); ++k) {
        const NetSetup &ns = w.nets[k];
        const bool paper = quantized(ns.cfg);
        ServerProcess server(o.self, w.name, k, kColdRequests, seed + k,
                             timed && paper);
        c.buildS[ns.key] = server.buildS();
        c.startS += server.startS();
        c.probed += server.probed();
        tally.checksOk = tally.checksOk && server.accurate();
        Corpus corpus;
        corpus.inputs =
            makeInputs(inputShape(ns.net), kColdRequests, seed + k);
        corpus.expect = server.expect();
        corpus.outShape = outputShape(ns.net);
        const LoadResult r =
            runSequential(server.port(), corpus, kColdRequests, timed);
        // Sequential requests: ok[i] answers input i unless an earlier
        // one failed, and any failure makes the run incorrect anyway.
        const std::vector<double> lat = latenciesMs(r);
        if (k == 0)
            c.chainMs = lat;
        c.chainMs.resize(std::min(c.chainMs.size(), lat.size()));
        for (std::size_t i = 0; k > 0 && i < c.chainMs.size(); ++i)
            c.chainMs[i] += lat[i];
        if (!r.ok.empty())
            c.firstS += nsToS(
                static_cast<double>(r.ok[0].doneNs - r.ok[0].sentNs));
        const auto [completed, batches] = server.counts();
        c.completed += completed;
        c.batches += batches;
        if (paper) {
            c.paperSession = server.session();
            c.paperLoad = r;
            c.paperBatchMean = ratio(completed, batches);
        }
        c.rssMb = std::max(c.rssMb, server.stop());
        tally.add(r);
        merge(c.load, r, (k + 1) << 32);
    }
    return c;
}

// ---------------------------------------------------------- output

/**
 * Print the result line. Every declared metric must have been
 * measured; a missing one is a benchmark bug and ends the run without
 * a result.
 */
int
emit(const std::vector<MetricDecl> &decls, const Metrics &m,
     const Tally &tally)
{
    std::string body;
    for (const MetricDecl &d : decls) {
        const auto it =
            std::find_if(m.begin(), m.end(),
                         [&](const Metric &x) { return x.name == d.name; });
        if (it == m.end() || it->unit != d.unit ||
            !std::isfinite(it->value)) {
            std::fprintf(stderr, "twq_e2e: metric %s not measured\n",
                         d.name.c_str());
            return 1;
        }
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                      body.empty() ? "" : ", ", d.name.c_str(),
                      it->value, d.unit.c_str());
        body += buf;
    }
    for (const Metric &x : m)
        std::printf("metric %-34s %14.6g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
    const bool correct = tally.checksOk && tally.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                body.c_str());
    return 0;
}

void
printSpread(const char *what, const std::vector<double> &v)
{
    double q1 = 0.0, q3 = 0.0;
    quartiles(v, &q1, &q3);
    std::printf("# %s over %zu trials: median %.6g q1 %.6g q3 %.6g\n",
                what, v.size(), median(v), q1, q3);
}

/** A run's end-to-end readings, one entry per trial or cold start. */
struct Readings
{
    std::vector<double> setupS, rssMb, p50Ms, p90Ms, rps;

    void
    add(double setup, double rss, const std::vector<double> &latMs,
        double responsesPerS)
    {
        setupS.push_back(setup);
        rssMb.push_back(rss);
        p50Ms.push_back(twq::percentile(latMs, 0.50));
        p90Ms.push_back(twq::percentile(latMs, 0.90));
        rps.push_back(responsesPerS);
    }
};

/**
 * End-to-end metrics of a run: each the median of its per-trial
 * readings. A trial that lands in a slow stretch of the host then moves
 * the result no more than any other trial; pooled, its requests would
 * fill most of the tail beyond p90.
 */
int
emitEndToEnd(const Readings &r, const Tally &tally)
{
    printSpread("setup_s", r.setupS);
    printSpread("latency_p50_ms", r.p50Ms);
    printSpread("latency_p90_ms", r.p90Ms);
    printSpread("throughput_rps", r.rps);
    printSpread("peak_rss_mb", r.rssMb);
    return emit(endToEndDecls(),
                {
                    {"setup_s", median(r.setupS), "s"},
                    {"latency_p50_ms", median(r.p50Ms), "ms"},
                    {"latency_p90_ms", median(r.p90Ms), "ms"},
                    {"throughput_rps", median(r.rps), "responses/s"},
                    {"peak_rss_mb", median(r.rssMb), "MiB"},
                },
                tally);
}

// ---------------------------------------------------- traced runs

/** The serving-side split of a traced load phase. */
void
servingMetrics(Metrics &m, const LoadResult &r, double offeredRps,
               double batchMean)
{
    std::vector<double> wire, queue, batch, compute;
    for (const Sample &s : r.ok) {
        const std::uint64_t rtt = s.doneNs - s.sentNs;
        const std::uint64_t server = s.queueNs + s.batchNs + s.computeNs;
        wire.push_back(
            nsToMs(rtt > server ? static_cast<double>(rtt - server) : 0.0));
        queue.push_back(nsToMs(static_cast<double>(s.queueNs)));
        batch.push_back(nsToMs(static_cast<double>(s.batchNs)));
        compute.push_back(nsToMs(static_cast<double>(s.computeNs)));
    }
    const auto p = [](const std::vector<double> &v, double q) {
        return twq::percentile(v, q);
    };
    m.insert(m.end(),
             {
                 {"loadgen.offered_rps", offeredRps, "requests/s"},
                 {"loadgen.late_p99_ms", p(r.lateMs, 0.99), "ms"},
                 {"net.wire_ms.p50", p(wire, 0.50), "ms"},
                 {"net.wire_ms.p99", p(wire, 0.99), "ms"},
                 {"runtime.queue_ms.p50", p(queue, 0.50), "ms"},
                 {"runtime.queue_ms.p99", p(queue, 0.99), "ms"},
                 {"runtime.batch_ms.p50", p(batch, 0.50), "ms"},
                 {"runtime.compute_ms.p50", p(compute, 0.50), "ms"},
                 {"runtime.compute_ms.p99", p(compute, 0.99), "ms"},
                 {"runtime.batch_size.mean", batchMean, "count"},
             });
}

/**
 * Request spans of a traced load phase, at most kTracedRequests of
 * them, evenly spaced: a closed loop on a small net answers hundreds
 * of thousands of requests, more than a trace viewer loads with ease.
 */
void
logRequests(SpanLog &log, const LoadResult &r)
{
    const std::size_t stride = (r.ok.size() + kTracedRequests - 1) /
                               kTracedRequests;
    for (std::size_t i = 0; i < r.ok.size(); i += std::max<std::size_t>(
                                                    stride, 1))
        logRequest(log, r.ok[i]);
}

/**
 * session.* metrics of the served session, and the share of the
 * server's compute window beyond it: the median compute of `r`'s
 * requests less the session's own time at the served mean batch
 * (interpolated between the two measured batches).
 */
void
sessionMetrics(Metrics &m, const SessionTimes &st, const LoadResult &r,
               double batchMean)
{
    std::vector<double> compute;
    for (const Sample &s : r.ok)
        compute.push_back(nsToMs(static_cast<double>(s.computeNs)));
    const double atMean =
        st.b1Ms +
        (std::max(batchMean, 1.0) - 1.0) / 7.0 * (st.b8Ms - st.b1Ms);
    m.insert(m.end(),
             {
                 {"session.run_ms.b1", st.b1Ms, "ms"},
                 {"session.run_ms.b8", st.b8Ms, "ms"},
                 {"session.convert_ms", st.convertMs, "ms"},
                 {"runtime.compute_overhead_ms",
                  twq::percentile(compute, 0.5) - atMean, "ms"},
             });
}

/** plan.* metrics: the autoSelect builds of the cold-start nets. */
void
planMetrics(Metrics &m, const ColdStart &c)
{
    for (const auto &[key, s] : c.buildS)
        m.push_back({"plan.build_s." + key, s, "s"});
    m.push_back(
        {"plan.layers_probed", static_cast<double>(c.probed), "count"});
}

/** Tracing cost: the relative change of `traced` against `plain`. */
double
overheadPct(double plain, double traced, bool higherIsBetter)
{
    return 100.0 * (higherIsBetter ? plain - traced : traced - plain) /
           plain;
}

int
finishTrace(const Metrics &m, const SpanLog &log, const Options &o,
            const Tally &tally)
{
    if (!log.writeJson(o.trace)) {
        std::fprintf(stderr, "twq_e2e: cannot write %s\n",
                     o.trace.c_str());
        return 1;
    }
    std::printf("# trace: %zu spans written to %s\n", log.spans().size(),
                o.trace.c_str());
    return emit(perLayerDecls(), m, tally);
}

// ----------------------------------------------------------- runs

int
runPinned(const Options &o, const Workload &w)
{
    const NetSetup &ns = w.nets[0];
    Tally tally;
    Corpus corpus;
    {
        // A session with the same config (so the same weights and
        // plan) gives every input's expected output before any timing.
        const Session ref(ns.net, ns.cfg);
        corpus = makeCorpus(ref, kCorpus, o.seed);
        tally.checksOk = checkAccuracy(ref, ns);
    }

    const bool traced = !o.trace.empty();
    const int trials =
        traced ? 2 : std::max(3, static_cast<int>(o.seconds / kTrialSeconds));
    const double perTrial = o.seconds / trials;
    std::vector<Trial> runs;
    Readings readings;
    for (int k = 0; k < trials; ++k) {
        // The traced run's second trial carries InferTimed frames.
        const bool timed = traced && k == 1;
        runs.push_back(runTrial(o, w, corpus, perTrial,
                                o.seed * 1000 + k, timed, tally));
        const Trial &t = runs.back();
        char label[32];
        std::snprintf(label, sizeof(label), "trial %d%s", k,
                      timed ? " (timed)" : "");
        printTrial(label, t.setupS(), t.rssMb, t.load);
        readings.add(t.setupS(), t.rssMb, latenciesMs(t.load),
                     throughput(t.load));
    }
    if (!traced)
        return emitEndToEnd(readings, tally);

    const Trial &plain = runs[0], &timed = runs[1];
    Metrics m;
    SpanLog log;
    logRequests(log, timed.load);
    servingMetrics(m, timed.load,
                   w.load.kind == LoadKind::OpenPoisson
                       ? static_cast<double>(timed.load.attempted) /
                             perTrial
                       : throughput(timed.load),
                   timed.batchMean);
    sessionMetrics(m, timed.session, timed.load, timed.batchMean);
    profileAll(m, log, ns.key);
    m.push_back({"setup.session_build_s", timed.buildS, "s"});
    m.push_back({"setup.server_start_s", timed.startS, "s"});
    m.push_back({"setup.warmup_s", timed.warmupS, "s"});
    planMetrics(m, runColdStart(o, o.seed, false, tally));
    const bool bulk = w.load.kind == LoadKind::ClosedWindow;
    m.push_back(
        {"trace.overhead_pct",
         bulk ? overheadPct(throughput(plain.load), throughput(timed.load),
                            true)
              : overheadPct(twq::percentile(latenciesMs(plain.load), 0.5),
                            twq::percentile(latenciesMs(timed.load), 0.5),
                            false),
         "%"});
    return finishTrace(m, log, o, tally);
}

int
runColdstart(const Options &o)
{
    Tally tally;
    const bool traced = !o.trace.empty();
    std::vector<ColdStart> runs;
    Readings readings;
    // Cold starts repeat until the measuring time is spent, and at
    // least twice, so set-up time is never a single sample.
    const std::uint64_t t0 = nowNs();
    do {
        const bool timed = traced && runs.size() == 1;
        runs.push_back(
            runColdStart(o, o.seed * 1000 + runs.size(), timed, tally));
        const ColdStart &c = runs.back();
        for (const auto &[key, s] : c.buildS)
            std::printf("# cold start %zu: %s built in %.4f s\n",
                        runs.size() - 1, key.c_str(), s);
        std::printf("# cold start %zu: %zu inputs through every net, "
                    "p50 %.4f ms p90 %.4f ms\n",
                    runs.size() - 1, c.chainMs.size(),
                    twq::percentile(c.chainMs, 0.50),
                    twq::percentile(c.chainMs, 0.90));
        printTrial(timed ? "cold start (timed)" : "cold start",
                   c.setupS(), c.rssMb, c.load);
        readings.add(c.setupS(), c.rssMb, c.chainMs, throughput(c.load));
    } while (runs.size() < 2 ||
             (!traced &&
              nsToS(static_cast<double>(nowNs() - t0)) < o.seconds));
    if (!traced)
        return emitEndToEnd(readings, tally);

    const ColdStart &plain = runs[0], &timed = runs[1];
    Metrics m;
    SpanLog log;
    logRequests(log, timed.load);
    servingMetrics(m, timed.load, throughput(timed.load),
                   ratio(timed.completed, timed.batches));
    // session.* and the compute overhead describe the paper's
    // configuration as autoSelect built it in this cold start.
    sessionMetrics(m, timed.paperSession, timed.paperLoad,
                   timed.paperBatchMean);
    profileAll(m, log, "");
    m.push_back({"setup.session_build_s", timed.setupS(), "s"});
    m.push_back({"setup.server_start_s", timed.startS, "s"});
    m.push_back({"setup.warmup_s", timed.firstS, "s"});
    planMetrics(m, timed);
    m.push_back({"trace.overhead_pct",
                 overheadPct(twq::percentile(latenciesMs(plain.load), 0.5),
                             twq::percentile(latenciesMs(timed.load), 0.5),
                             false),
                 "%"});
    return finishTrace(m, log, o, tally);
}

bool
parse(int argc, char **argv, Options &o)
{
    o.self = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--selftest" || a == "--profile") {
            (a == "--selftest" ? o.selftest : o.profile) = true;
            continue;
        }
        if (!v) {
            std::fprintf(stderr, "%s needs a value\n", a.c_str());
            return false;
        }
        ++i;
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
            if (!(o.seconds > 0.0 && o.seconds <= 120.0))
                return false;
        } else if (a == "--trace") {
            o.trace = v;
        } else if (a == "--benchmark") {
            o.benchmark = v;
        } else if (a == "--serve") {
            o.serve = v;
        } else if (a == "--net") {
            o.net = std::strtoull(v, &end, 10);
        } else if (a == "--expect") {
            o.expect = std::strtoull(v, &end, 10);
        } else {
            std::fprintf(stderr, "unknown flag %s\n", a.c_str());
            return false;
        }
        if (end && *end) {
            std::fprintf(stderr, "bad value for %s: %s\n", a.c_str(), v);
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parse(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: twq_e2e --workload NAME --seed N "
                     "[--seconds S] [--trace FILE]\n"
                     "       twq_e2e --selftest [--benchmark FILE]\n");
        return 2;
    }
    // A server process that dies must not take its client with it.
    std::signal(SIGPIPE, SIG_IGN);
    Watchdog watchdog(kWatchdogS);
    if (!o.serve.empty())
        return serveMain(o.serve, o.net, o.expect, o.seed, o.profile);
    if (o.selftest)
        return runSelftest(o.benchmark, o.self);
    const Workload *w = findWorkload(o.workload);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     o.workload.c_str());
        return 2;
    }
    std::printf("# twq_e2e workload=%s seed=%llu seconds=%g traced=%d\n",
                w->name.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace.empty() ? 0 : 1);
    try {
        return w->coldStart ? runColdstart(o) : runPinned(o, *w);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "twq_e2e: %s\n", e.what());
        return 1;
    }
}
