/**
 * @file
 * The server side of a trial, in its own process.
 *
 * ServerProcess spawns this binary as `twq_e2e --serve WORKLOAD --net
 * K [--expect N --seed S] [--profile]` with pipes on its standard input and
 * output, and serveMain answers with one line per event:
 *
 *   # plan ...                       the session's per-layer plan
 *   # accuracy ...                   autoSelect sessions: the plan
 *                                    against the fp64 reference
 *   session B1_MS B8_MS CONVERT_MS   when --profile was given
 *   ready PORT BUILD_NS START_NS PROBED ACCURATE
 *   expect H1 ... HN                 when --expect N was given
 *   counts COMPLETED BATCHES         in reply to "counts" on stdin
 *   done PEAK_RSS_KIB                after stdin closes and it drained
 *
 * The server dies with its parent (PR_SET_PDEATHSIG), so a benchmark
 * that is killed leaves no server behind.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "e2e.hh"

extern char **environ;

namespace e2e
{

namespace
{

/** Wait for `pid` up to `seconds`, then kill it; always reaps. */
void
reap(int pid, double seconds)
{
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    while (nowNs() < deadline) {
        if (waitpid(pid, nullptr, WNOHANG) == pid)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
}

/**
 * Peak resident set of this process's own address space (VmHWM), in
 * KiB. getrusage's ru_maxrss will not do: Linux folds the high-water
 * mark of the address space an exec replaces into it, so a spawned
 * server would report its parent's peak.
 */
long
peakRssKib()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    long kib = 0;
    while (std::fgets(line, sizeof(line), f))
        if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1)
            break;
    std::fclose(f);
    return kib;
}

} // namespace

Serving::Serving(std::shared_ptr<const twq::Session> session)
    : server_(std::move(session),
              [] {
                  twq::RuntimeConfig c;
                  c.threads = 2;
                  return c;
              }()),
      front_(server_, twq::net::NetConfig{})
{
    port_ = front_.start();
}

Serving::~Serving()
{
    front_.shutdown();
    server_.shutdown();
}

ServerProcess::ServerProcess(const std::string &self,
                             const std::string &workload, std::size_t net,
                             std::size_t expect, std::uint64_t seed,
                             bool profile)
{
    int toChild[2], fromChild[2];
    if (pipe2(toChild, O_CLOEXEC) != 0)
        throw std::runtime_error("pipe2 failed");
    if (pipe2(fromChild, O_CLOEXEC) != 0) {
        close(toChild[0]);
        close(toChild[1]);
        throw std::runtime_error("pipe2 failed");
    }
    std::vector<std::string> args = {self, "--serve", workload, "--net",
                                     std::to_string(net)};
    if (expect) {
        args.insert(args.end(), {"--expect", std::to_string(expect),
                                 "--seed", std::to_string(seed)});
    }
    if (profile)
        args.push_back("--profile");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    // dup2 leaves the new descriptors open across exec; every pipe
    // end itself is close-on-exec.
    posix_spawn_file_actions_adddup2(&fa, toChild[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&fa, fromChild[1], STDOUT_FILENO);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, self.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(toChild[0]);
    close(fromChild[1]);
    in_ = fdopen(toChild[1], "w");
    out_ = fdopen(fromChild[0], "r");
    pid_ = rc == 0 ? pid : -1;
    try {
        if (rc != 0 || !in_ || !out_)
            throw std::runtime_error("cannot start a server process: " +
                                     std::string(std::strerror(rc)));
        handshake(expect);
    } catch (...) {
        release();
        throw;
    }
}

void
ServerProcess::handshake(std::size_t expect)
{
    std::string l = line();
    for (;; l = line()) {
        if (l.rfind("# ", 0) == 0) // plan lines, passed through
            std::fputs(l.c_str(), stdout);
        else if (std::sscanf(l.c_str(), "session %lf %lf %lf",
                             &session_.b1Ms, &session_.b8Ms,
                             &session_.convertMs) != 3)
            break;
    }
    unsigned port = 0, accurate = 0;
    unsigned long long build = 0, start = 0, probed = 0;
    if (std::sscanf(l.c_str(), "ready %u %llu %llu %llu %u", &port, &build,
                    &start, &probed, &accurate) != 5)
        throw std::runtime_error("server process failed to start");
    port_ = static_cast<std::uint16_t>(port);
    buildS_ = nsToS(static_cast<double>(build));
    startS_ = nsToS(static_cast<double>(start));
    probed_ = probed;
    accurate_ = accurate != 0;
    if (!expect)
        return;
    std::istringstream hashes(line().substr(std::strlen("expect")));
    std::uint64_t h = 0;
    while (hashes >> h)
        expect_.push_back(h);
    if (expect_.size() != expect)
        throw std::runtime_error("server process sent no expectations");
}

void
ServerProcess::release()
{
    if (in_)
        std::fclose(in_); // end of input: the server drains and exits
    if (out_)
        std::fclose(out_);
    if (pid_ > 0)
        reap(pid_, 30.0);
    in_ = out_ = nullptr;
    pid_ = -1;
}

ServerProcess::~ServerProcess()
{
    release();
}

std::string
ServerProcess::line()
{
    char buf[1 << 14];
    std::string l;
    while (std::fgets(buf, sizeof(buf), out_)) {
        l += buf;
        if (!l.empty() && l.back() == '\n')
            return l;
    }
    if (l.empty())
        throw std::runtime_error("server process exited early");
    return l;
}

std::pair<std::uint64_t, std::uint64_t>
ServerProcess::counts()
{
    std::fputs("counts\n", in_);
    std::fflush(in_);
    unsigned long long completed = 0, batches = 0;
    if (std::sscanf(line().c_str(), "counts %llu %llu", &completed,
                    &batches) != 2)
        throw std::runtime_error("bad counts reply");
    return {completed, batches};
}

double
ServerProcess::stop()
{
    std::fclose(in_);
    in_ = nullptr;
    long kib = 0;
    if (std::sscanf(line().c_str(), "done %ld", &kib) != 1)
        throw std::runtime_error("bad done reply");
    return static_cast<double>(kib) / 1024.0;
}

int
serveMain(const std::string &workload, std::size_t net, std::size_t expect,
          std::uint64_t seed, bool profile)
{
#if defined(__linux__)
    prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
    const Workload *w = findWorkload(workload);
    if (!w || net >= w->nets.size()) {
        std::fprintf(stderr, "twq_e2e --serve: no net %zu in '%s'\n", net,
                     workload.c_str());
        return 2;
    }
    const NetSetup &ns = w->nets[net];
    const std::uint64_t t0 = nowNs();
    auto session = std::make_shared<const twq::Session>(ns.net, ns.cfg);
    const std::uint64_t t1 = nowNs();
    std::size_t probed = 0;
    std::printf("# plan %s:", ns.key.c_str());
    for (std::size_t i = 0; i < session->layerCount(); ++i) {
        const twq::LayerPlanInfo p = session->layerPlan(i);
        probed += std::strcmp(p.source, "probed") == 0;
        std::printf(" %s=%s/%s/%s", p.name.c_str(),
                    twq::convEngineName(p.engine), twq::winoName(p.variant),
                    twq::actLayoutName(session->layerLayout(i).in));
    }
    std::printf("\n");
    // A pinned plan is checked by the client, on a session of its own
    // with the same plan; an autoSelect plan exists only here.
    const bool accurate =
        !ns.cfg.autoSelect || checkAccuracy(*session, ns);
    if (profile) {
        const SessionTimes st = timeSession(*session, nullptr, 1000.0);
        std::printf("session %.9g %.9g %.9g\n", st.b1Ms, st.b8Ms,
                    st.convertMs);
    }
    std::vector<std::uint64_t> hashes;
    if (expect)
        hashes = makeCorpus(*session, expect, seed).expect;
    {
        const std::uint64_t t2 = nowNs();
        Serving serving(session);
        const std::uint64_t t3 = nowNs();
        std::printf("ready %u %llu %llu %zu %d\n", serving.port(),
                    static_cast<unsigned long long>(t1 - t0),
                    static_cast<unsigned long long>(t3 - t2), probed,
                    accurate ? 1 : 0);
        if (expect) {
            std::printf("expect");
            for (std::uint64_t h : hashes)
                std::printf(" %llu", static_cast<unsigned long long>(h));
            std::printf("\n");
        }
        std::fflush(stdout);
        char cmd[64];
        while (std::fgets(cmd, sizeof(cmd), stdin)) {
            if (std::strncmp(cmd, "counts", 6) != 0)
                continue;
            const twq::ServerStats st = serving.server().stats();
            std::printf("counts %llu %llu\n",
                        static_cast<unsigned long long>(st.completed),
                        static_cast<unsigned long long>(st.batches));
            std::fflush(stdout);
        }
    }
    std::printf("done %ld\n", peakRssKib());
    std::fflush(stdout);
    return 0;
}

} // namespace e2e
