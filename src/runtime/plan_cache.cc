#include "runtime/plan_cache.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "gemm/gemm.hh"
#include "layout/kernels_f16.hh"
#include "layout/wino_blocked.hh"
#include "obs/metrics.hh"

namespace twq
{

namespace
{

constexpr const char *kMagic = "twq-plan-cache";
constexpr const char *kVersion = "v5";

/// Upper bound on a sane candidate-table length: engines × variants
/// is single digits today; anything larger is a corrupt line.
constexpr std::size_t kMaxTable = 64;

bool
variantFromName(const std::string &name, WinoVariant *out)
{
    for (WinoVariant v : kAllWinoVariants) {
        if (name == winoName(v)) {
            *out = v;
            return true;
        }
    }
    return false;
}

} // namespace

std::string
PlanCache::layerKey(const ConvLayerDesc &desc, std::size_t probeBatch,
                    bool quantized)
{
    std::ostringstream key;
    key << 'c' << desc.cin << 'o' << desc.cout << 'k' << desc.kernel
        << 's' << desc.stride << 'h' << desc.height << 'w'
        << desc.width << 'b' << probeBatch;
    if (quantized)
        key << "q8";
    return key.str();
}

std::string
PlanCache::signature()
{
    std::string sig = "sig=";
    sig += gemm::kernelName();
    sig += '/';
    sig += gemm::int8KernelName();
    sig += '/';
    sig += gemm::int8PairKernelName();
    sig += '/';
    sig += layoutKernelName();
    sig += '/';
    sig += layout::f16KernelName();
    return sig;
}

bool
PlanCache::lookup(const std::string &key, Decision *out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    *out = it->second;
    return true;
}

void
PlanCache::store(const std::string &key, const Decision &d)
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_[key] = d;
    ++revision_;
}

std::size_t
PlanCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

std::uint64_t
PlanCache::revision() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return revision_;
}

std::string
PlanCache::serialize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream out;
    out << kMagic << ' ' << kVersion << ' ' << signature() << '\n';
    for (const auto &[key, d] : entries_) {
        out << key << ' ' << convEngineName(d.engine) << ' '
            << winoName(d.variant) << ' ' << d.probeNs << ' '
            << d.cycles << ' ' << d.instructions << ' '
            << d.cacheRefs << ' ' << d.cacheMisses << ' '
            << d.table.size();
        for (const Cand &c : d.table)
            out << ' ' << convEngineName(c.engine) << ' '
                << winoName(c.variant) << ' ' << c.ns;
        out << '\n';
    }
    return out.str();
}

bool
PlanCache::deserialize(const std::string &text)
{
    // Parse fully before touching the cache: stale or malformed
    // input (an older format version, plans measured under a
    // different kernel table / CPU, a corrupted line) must not
    // disturb valid plans already measured in this process — the
    // cache may be shared across sessions, and a bad FILE is no
    // reason to throw away good MEMORY. Rejected input simply means
    // the affected layers re-probe. serialize() ends every line in
    // '\n', so text without one is a file cut short — its last
    // number may have lost digits and still parse.
    if (text.empty() || text.back() != '\n')
        return false;
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line))
        return false;
    {
        std::istringstream header(line);
        std::string magic, version, sig;
        if (!(header >> magic >> version >> sig) ||
            magic != kMagic || version != kVersion ||
            sig != signature()) {
            // Stale or foreign plan file: the affected layers
            // re-probe. Counted so operators can spot a cache that
            // never survives restarts (e.g. a kernel-table change).
            obs::Registry::global()
                .counter("plan_cache.stale_reject")
                .inc();
            return false;
        }
    }
    std::map<std::string, Decision> parsed;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream fields(line);
        std::string key, engine, variant;
        Decision d;
        std::size_t nCand = 0;
        if (!(fields >> key >> engine >> variant >> d.probeNs >>
              d.cycles >> d.instructions >> d.cacheRefs >>
              d.cacheMisses >> nCand) ||
            nCand > kMaxTable ||
            !convEngineFromName(engine, &d.engine) ||
            !variantFromName(variant, &d.variant))
            return false;
        d.table.reserve(nCand);
        for (std::size_t i = 0; i < nCand; ++i) {
            Cand c;
            if (!(fields >> engine >> variant >> c.ns) ||
                !convEngineFromName(engine, &c.engine) ||
                !variantFromName(variant, &c.variant))
                return false;
            d.table.push_back(c);
        }
        parsed[key] = std::move(d);
    }
    // Merge (file entries win per key) so a shared in-memory cache
    // keeps measurements the file does not know about.
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[key, d] : parsed)
        entries_[key] = d;
    ++revision_;
    return true;
}

bool
PlanCache::loadFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return deserialize(text);
}

bool
PlanCache::saveFile(const std::string &path) const
{
    std::string tmp = path + ".XXXXXX";
    const int fd = ::mkstemp(tmp.data());
    if (fd < 0)
        return false;
    const std::string text = serialize();
    std::size_t done = 0;
    while (done < text.size()) {
        const ssize_t n =
            ::write(fd, text.data() + done, text.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        done += static_cast<std::size_t>(n);
    }
    // mkstemp creates the file 0600; a plan cache is readable like
    // any other file the process would have created.
    bool ok = done == text.size() && ::fchmod(fd, 0644) == 0;
    ok = ::close(fd) == 0 && ok;
    ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok)
        std::remove(tmp.c_str());
    return ok;
}

} // namespace twq
