/**
 * @file
 * Shared pieces of twq_e2e, the client-observed serving benchmark.
 *
 * The benchmark drives the real serving stack over loopback — Session
 * -> InferenceServer -> net::NetServer, called through net::Client —
 * and reports what a client sees (latency, throughput, set-up time,
 * memory). A traced run additionally splits the round trip by layer:
 * wire, queue, batch and compute from the timed protocol, then a
 * replay of the same sessions split into layers and the paper's
 * Fig. 5 stage categories, timed from outside through public calls.
 * Every span is recorded by the benchmark itself; nothing is added to
 * the library.
 */

#ifndef TWQ_BENCH_E2E_E2E_HH
#define TWQ_BENCH_E2E_E2E_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "models/zoo.hh"
#include "net/server.hh"
#include "runtime/server.hh"
#include "runtime/session.hh"

namespace e2e
{

/** Steady-clock nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
nsToMs(double ns)
{
    return ns * 1e-6;
}

inline double
nsToS(double ns)
{
    return ns * 1e-9;
}

/** One reported number, with its name and unit as in BENCHMARK.json. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

/** Median of a sample (mean of the middle pair); 0 when empty. */
double median(std::vector<double> v);

/** First and third quartile, interpolated as Python's
 * statistics.quantiles(v, n=4) does ("exclusive" method). */
void quartiles(std::vector<double> v, double *q1, double *q3);

// ------------------------------------------------------------- nets

/**
 * A net with its serving configuration. Only defaultEngine, variant
 * and autoSelect are set on `cfg`; every other SessionConfig field
 * keeps its default, so a changed default shows in the benchmark.
 */
struct NetSetup
{
    std::string key;
    twq::NetworkDesc net;
    twq::SessionConfig cfg;
    /// Batch the per-layer profile times this net at.
    std::size_t layerBatch = 1;
};

/** ResNet-20's conv shapes without residual adds and projections. */
twq::NetworkDesc cifar20();
/** Four 64->64 3x3 convs at 32x32. */
twq::NetworkDesc wide64x4();
/** microServeNet(8, 4). */
twq::NetworkDesc micro8();

/** cifar20 on blocked int8 F4 (strided layers on im2col-int8). */
NetSetup cifarInt8Pinned();
/** wide64x4 on blocked FP F4. */
NetSetup wideFpPinned();
/** micro8 on blocked FP F2. */
NetSetup microFpPinned();
/** The three autoSelect builds of the cold-start workload. */
std::vector<NetSetup> coldstartSetups();

/** Request and response shapes of a chainable conv net, [1, C, H, W]. */
twq::Shape inputShape(const twq::NetworkDesc &net);
twq::Shape outputShape(const twq::NetworkDesc &net);

// ------------------------------------------------ inputs and checks

/**
 * A 64-bit FNV-style hash over the words of a response payload; any
 * flipped bit changes it.
 */
std::uint64_t payloadHash(const double *p, std::size_t n);

/**
 * The distinct request inputs of a workload and the hash of each one's
 * in-process single-request Session::run output — a served response
 * is correct only when it hashes the same (bit-identical).
 */
struct Corpus
{
    std::vector<twq::TensorD> inputs; ///< [1, C, H, W], N(0, 1)
    std::vector<std::uint64_t> expect;
    twq::Shape outShape;
};

/** `n` N(0, 1) request tensors of `shape`, drawn from `seed`. */
std::vector<twq::TensorD> makeInputs(const twq::Shape &shape,
                                     std::size_t n, std::uint64_t seed);

/** Draw `n` inputs for `session` from `seed` and record expectations. */
Corpus makeCorpus(const twq::Session &session, std::size_t n,
                  std::uint64_t seed);

/** Whether `cfg` plans an integer engine. */
bool quantized(const twq::SessionConfig &cfg);

/**
 * Pooled relative L2 error of the paper's blocked int8 F4 plan of
 * cifar20 on the accuracy inputs (0.8094), plus 1%. Every int8 scheme
 * autoSelect may pick on that net is at least as accurate: F2 reads
 * 0.205, im2col-int8 0.076, the NCHW int8 engines match the blocked ones.
 */
constexpr double kInt8RelErrCeiling = 0.8175;

/**
 * Whether a plan's error against the fp64 reference passes: an FP plan
 * within 1e-9 relative on every input (`worst`), a quantized one with a
 * pooled error (`pooled`) no higher than kInt8RelErrCeiling.
 */
bool accuracyOk(bool quantizedPlan, double pooled, double worst);

/**
 * Compare `session`, built from `ns`, with an fp64 im2col session on
 * the same weights over 16 fixed inputs (the same in every run, so the
 * error of a plan is one number), print a `# accuracy` line with the
 * pooled error (out_rel_err, the paper's accuracy axis) and return
 * accuracyOk.
 */
bool checkAccuracy(const twq::Session &session, const NetSetup &ns);

// ---------------------------------------------------------- load

/** One request as the client saw it (nanoseconds, steady clock). */
struct Sample
{
    std::uint64_t dueNs = 0;  ///< scheduled send (open loop) or send
    std::uint64_t sentNs = 0; ///< send() began
    std::uint64_t doneNs = 0; ///< response decoded
    /// Server-side breakdown from a timed response (traced runs).
    std::uint64_t queueNs = 0;
    std::uint64_t batchNs = 0;
    std::uint64_t computeNs = 0;
    std::uint64_t id = 0; ///< per-run request id
};

/** Outcome of one load phase. */
struct LoadResult
{
    std::vector<Sample> ok; ///< Ok and bit-identical responses
    std::uint64_t attempted = 0;
    std::uint64_t shed = 0;  ///< Status::Shed
    std::uint64_t error = 0; ///< other non-Ok status or no response
    std::uint64_t wrong = 0; ///< Ok but not bit-identical
    std::uint64_t windowNs = 0; ///< first send to last response
    /// How late each send ran: behind its schedule in an open loop,
    /// after the previous response in a closed one.
    std::vector<double> lateMs;

    std::uint64_t
    failed() const
    {
        return shed + error + wrong;
    }
};

enum class LoadKind
{
    OpenPoisson,  ///< Poisson arrivals at `rate`, sender + receiver
    ClosedWindow, ///< one connection keeps `depth` requests in flight
    ClosedLoop,   ///< `clients` connections, one request in flight each
};

struct LoadSpec
{
    LoadKind kind = LoadKind::ClosedLoop;
    double rate = 0.0;
    std::size_t depth = 1;
    std::size_t clients = 1;
};

/**
 * A traffic mix: the nets it serves (one for a pinned workload, built
 * in turn for the cold start) and the load it drives. Why each one
 * exists is recorded beside its name in BENCHMARK.json and README.md.
 */
struct Workload
{
    std::string name;
    std::vector<NetSetup> nets;
    LoadSpec load;
    bool coldStart = false;
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** The workload named `name`, or null. */
const Workload *findWorkload(const std::string &name);

/**
 * Arrival offsets (ns from the start) of a Poisson process at `rate`
 * per second over `seconds`, conditioned on its expected count (so
 * every seed offers the same load), drawn from `seed`.
 */
std::vector<std::uint64_t> poissonSchedule(double rate, double seconds,
                                           std::uint64_t seed);

/**
 * Drive `port` with `spec` for `seconds`, cycling through the corpus
 * and verifying every response. `timed` sends InferTimed frames so
 * every sample carries the server-side breakdown.
 */
LoadResult runLoad(const LoadSpec &spec, std::uint16_t port,
                   const Corpus &corpus, double seconds,
                   std::uint64_t seed, bool timed);

/** `count` sequential verified requests on one connection. */
LoadResult runSequential(std::uint16_t port, const Corpus &corpus,
                         std::size_t count, bool timed);

/** Classify one response against the corpus entry it answers. */
enum class Verdict
{
    Ok,
    Shed,
    Error,
    Wrong,
};

Verdict judge(int status, const twq::Shape &shape,
              const std::vector<double> &data, const Corpus &corpus,
              std::size_t index);

// ---------------------------------------------------------- spans

/**
 * In-memory span log written as Chrome-trace JSON (Perfetto loads it).
 * Request spans are async events keyed by request id, so overlapping
 * requests each get their own track; replay spans are complete events
 * on one lane.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t startNs = 0;
        std::uint64_t durNs = 0;
        std::uint64_t requestId = 0; ///< 0 = replay lane
    };

    void
    add(std::string name, std::uint64_t startNs, std::uint64_t durNs,
        std::uint64_t requestId = 0)
    {
        spans_.push_back({std::move(name), startNs, durNs, requestId});
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write the log as Chrome-trace JSON; false on I/O failure. */
    bool writeJson(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/**
 * Record one traced request: `client.rtt` over the client's round
 * trip with `server.queue`, `server.batch` and `server.compute` laid
 * inside it from the timing block (durations exact; the server window
 * is centred, since the wire time on either side is not separable).
 */
void logRequest(SpanLog &log, const Sample &s);

// ---------------------------------------------------------- profile

/** One named call of a timed sequence. */
struct Step
{
    std::string span;
    std::function<void()> fn;
};

/**
 * Median wall time (ms) of each step when the steps run in order, pass
 * after pass: one warm-up pass, then at least five timed passes and
 * more until `budgetMs` is spent. Timing a pipeline in its own order
 * leaves each step the cache state the pipeline itself leaves it. The
 * first passes are logged as spans when `log` is set.
 */
std::vector<double> timeSteps(const std::vector<Step> &steps,
                              double budgetMs, SpanLog *log);

/** Tight-loop wall times of a session, ms. */
struct SessionTimes
{
    double b1Ms = 0.0;
    double b8Ms = 0.0;
    double convertMs = 0.0; ///< NCHW->NCHWc8 ingress + egress, batch 1
};

SessionTimes timeSession(const twq::Session &session, SpanLog *log,
                         double budgetMs);

/** One Fig. 5 stage of one layer, with its analytic work. */
struct StageTime
{
    const char *stage;
    double ms = 0.0;
    double flops = 0.0; ///< 0 for pure data movement
    double bytes = 0.0; ///< computed from buffer sizes
};

/** One layer of a session, timed through its planned backend. */
struct LayerTime
{
    std::string name;
    twq::ConvEngine engine = twq::ConvEngine::Im2col;
    double macs = 0.0; ///< at the profiled batch
    double ms = 0.0;
    std::vector<StageTime> stages; ///< blocked Winograd layers only

    double
    stageMs() const
    {
        double s = 0.0;
        for (const StageTime &st : stages)
            s += st.ms;
        return s;
    }
};

/** A session and its layers, timed in one interleaved loop. */
struct NetProfile
{
    double sessionMs = 0.0; ///< the whole Session::runInto
    std::vector<LayerTime> layers;
};

/**
 * Time `session` at `batch`, and every layer through the backend the
 * session planned for it, prepared on He-scaled weights; with
 * `stages`, also split each blocked Winograd layer into its stages.
 * `budgetMs` bounds the whole loop (at least five passes run).
 */
NetProfile profileNet(const twq::Session &session, std::size_t batch,
                      bool stages, double budgetMs, SpanLog *log);

/** Host streaming bandwidth (GB/s, copy) and FMA peak (GFLOP/s). */
double hostStreamGbps();
double hostFmaGflops();

/**
 * The replay profile of every traced run: each pinned net's layers,
 * the FP stage split of wide64x4, the int8 stage split and im2col
 * layers of cifar20, the host peaks and each stage's achieved rate,
 * appended to `m`. The split of the net keyed `libraryKey` is also
 * printed beside the library's own tracer totals for it.
 */
void profileAll(Metrics &m, SpanLog &log, const std::string &libraryKey);

// ---------------------------------------------------------- serving

/**
 * A session behind a fresh InferenceServer (two workers, every other
 * RuntimeConfig field at its default) and a loopback front door with
 * default NetConfig. Destruction drains and joins both.
 */
class Serving
{
  public:
    explicit Serving(std::shared_ptr<const twq::Session> session);
    ~Serving();

    Serving(const Serving &) = delete;
    Serving &operator=(const Serving &) = delete;

    std::uint16_t port() const { return port_; }
    twq::InferenceServer &server() { return server_; }

  private:
    twq::InferenceServer server_;
    twq::net::NetServer front_;
    std::uint16_t port_ = 0;
};

/**
 * A server in its own process: this binary re-run in `--serve` mode
 * (serveMain), which builds net `net` of `workload`, starts a Serving
 * on an ephemeral loopback port and reports on its standard output.
 * The client side of a trial then runs in this process, as it would
 * against a real deployment, and the server's peak resident set is
 * its own. The constructor returns once the server accepts requests.
 */
class ServerProcess
{
  public:
    /**
     * `expect` > 0 also asks for the hashes of the server session's
     * own outputs on makeInputs(inputShape, expect, seed): an
     * autoSelect session picks its plans while it builds, so only the
     * server knows what it will answer. `profile` has the server time
     * its session in tight loops (timeSession) before it serves.
     */
    ServerProcess(const std::string &self, const std::string &workload,
                  std::size_t net, std::size_t expect = 0,
                  std::uint64_t seed = 0, bool profile = false);
    ~ServerProcess();

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    std::uint16_t port() const { return port_; }
    double buildS() const { return buildS_; }   ///< Session build
    double startS() const { return startS_; }   ///< server + front door
    std::size_t probed() const { return probed_; } ///< layers raced
    /// False when the server's autoSelect plan failed checkAccuracy.
    bool accurate() const { return accurate_; }
    const std::vector<std::uint64_t> &expect() const { return expect_; }
    const SessionTimes &session() const { return session_; }

    /** Requests completed and batches executed so far. */
    std::pair<std::uint64_t, std::uint64_t> counts();

    /** Drain and stop the server; its peak resident set in MiB. */
    double stop();

  private:
    void handshake(std::size_t expect);
    std::string line();
    void release();

    int pid_ = -1;
    std::FILE *in_ = nullptr;  ///< the server's standard input
    std::FILE *out_ = nullptr; ///< the server's standard output
    std::uint16_t port_ = 0;
    double buildS_ = 0.0;
    double startS_ = 0.0;
    std::size_t probed_ = 0;
    bool accurate_ = false;
    std::vector<std::uint64_t> expect_;
    SessionTimes session_;
};

/** The `--serve` side of ServerProcess; returns the exit code. */
int serveMain(const std::string &workload, std::size_t net,
              std::size_t expect, std::uint64_t seed, bool profile);

// ---------------------------------------------------------- metrics

/** A metric name and unit as BENCHMARK.json declares it. */
struct MetricDecl
{
    std::string name;
    std::string unit;
};

/** Printed by every untraced run, in this order. */
const std::vector<MetricDecl> &endToEndDecls();

/** Printed by every traced run, in this order. */
std::vector<MetricDecl> perLayerDecls();

/**
 * The `--selftest` checks against `benchmarkJson`; `self` is this
 * binary, spawned as a server. Returns the process exit code.
 */
int runSelftest(const std::string &benchmarkJson, const std::string &self);

} // namespace e2e

#endif // TWQ_BENCH_E2E_E2E_HH
