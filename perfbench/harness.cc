#include "harness.hh"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/buildinfo.hh"
#include "core/registry.hh"
#include "core/resultcache.hh"
#include "obs/metrics.hh"

namespace perfbench {

// ------------------------------------------------------------ samples

Summary
summarize(std::vector<double> values)
{
    Summary s;
    s.count = values.size();
    if (values.empty())
        return s;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    s.median = n % 2 ? values[n / 2]
                     : (values[n / 2 - 1] + values[n / 2]) / 2.0;
    if (n == 1) {
        s.q1 = s.q3 = values[0];
        return s;
    }
    // statistics.quantiles(method="exclusive"), n=4.
    const std::size_t m = n + 1;
    auto quartile = [&](std::size_t i) {
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        const double delta =
            static_cast<double>(i * m) - static_cast<double>(j * 4);
        return (values[j - 1] * (4.0 - delta) + values[j] * delta) /
            4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

std::string
describe(const Summary &s)
{
    std::ostringstream os;
    os.precision(6);
    os << "median " << s.median << " (q1 " << s.q1 << ", q3 " << s.q3
       << ", n=" << s.count << ")";
    return os.str();
}

// ------------------------------------------------------------ digests

std::string
digestHex(std::string_view text)
{
    const penelope::Hash128 h =
        penelope::murmur3_128(text.data(), text.size());
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(h.hi),
                  static_cast<unsigned long long>(h.lo));
    return buf;
}

bool
PinnedDigests::load(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read " + path;
        return false;
    }
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, experiment, digest, extra;
        if (!(fields >> workload >> experiment >> digest) ||
            (fields >> extra) || digest.size() != 32) {
            *error = path + ":" + std::to_string(lineno) +
                ": expected '<workload> <experiment> <digest>'";
            return false;
        }
        pins_[{workload, experiment}] = digest;
    }
    return true;
}

const std::string *
PinnedDigests::find(const std::string &workload,
                    const std::string &experiment) const
{
    const auto it = pins_.find({workload, experiment});
    return it == pins_.end() ? nullptr : &it->second;
}

DigestCheck
checkDigest(const std::string &digest, const std::string *pinned,
            const std::string *reference)
{
    if (pinned && digest != *pinned)
        return {false, "differs from the pinned digest " + *pinned};
    if (reference && digest != *reference)
        return {false, "differs from the reference run " + *reference};
    return {};
}

// ------------------------------------------------------------ metrics

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) ||
            c == '_' || c == '.' || c == '-';
    });
}

void
MetricSet::add(const std::string &name, const std::string &unit,
               double value)
{
    entries_.push_back({name, unit, value});
}

void
MetricSet::missing(const std::string &name, const std::string &reason)
{
    missing_.emplace_back(name, reason);
}

bool
MetricSet::wellFormed(std::string *error) const
{
    std::set<std::string> seen;
    for (const Entry &e : entries_) {
        if (!validMetricName(e.name)) {
            *error = "invalid metric name '" + e.name + "'";
            return false;
        }
        if (!seen.insert(e.name).second) {
            *error = "duplicate metric '" + e.name + "'";
            return false;
        }
        if (!std::isfinite(e.value)) {
            *error = "metric '" + e.name + "' is not finite";
            return false;
        }
    }
    return true;
}

std::string
formatNumber(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
MetricSet::json() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        out += (i ? ", " : "") + jsonString(e.name) +
            ": {\"value\": " + formatNumber(e.value) +
            ", \"unit\": " + jsonString(e.unit) + "}";
    }
    return out + "}";
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const MetricSet &metrics)
{
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) +
        ", \"metrics\": " + metrics.json() + "}";
}

// -------------------------------------------------------------- spans

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

std::int64_t
SpanRecorder::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
SpanRecorder::begin(std::string name, int parent, unsigned iteration)
{
    spans_.push_back({std::move(name), now(), -1, parent, iteration});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanRecorder::end(int id)
{
    spans_[static_cast<std::size_t>(id)].endNs = now();
}

double
SpanRecorder::seconds(int id) const
{
    const Span &s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.endNs - s.startNs) * 1e-9;
}

double
SpanRecorder::coveredSeconds(std::vector<int> ids, int clip) const
{
    const Span &c = spans_[static_cast<std::size_t>(clip)];
    std::sort(ids.begin(), ids.end(), [&](int a, int b) {
        return spans_[static_cast<std::size_t>(a)].startNs <
            spans_[static_cast<std::size_t>(b)].startNs;
    });
    std::int64_t covered = 0;
    std::int64_t reach = c.startNs;
    for (const int id : ids) {
        const Span &k = spans_[static_cast<std::size_t>(id)];
        const std::int64_t from = std::max(k.startNs, reach);
        const std::int64_t to = std::min(k.endNs, c.endNs);
        if (to > from) {
            covered += to - from;
            reach = to;
        }
    }
    return static_cast<double>(covered) * 1e-9;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path,
                               std::string *error) const
{
    std::ofstream out(path);
    if (!out) {
        *error = "cannot write " + path;
        return false;
    }
    // The obs::Tracer layout: "[", one complete event per line with
    // a trailing comma, then a "{}" sentinel and "]".
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"name\":" << jsonString(s.name)
            << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":"
            << formatNumber(static_cast<double>(s.startNs) / 1e3)
            << ",\"dur\":"
            << formatNumber(static_cast<double>(s.endNs - s.startNs) /
                            1e3)
            << ",\"pid\":1,\"tid\":1,\"args\":{\"span\":" << i
            << ",\"parent\":" << s.parent
            << ",\"iteration\":" << s.iteration << "}},\n";
    }
    out << "{}\n]\n";
    if (!out) {
        *error = "short write to " + path;
        return false;
    }
    return true;
}

// -------------------------------------------------------- experiments

void
runExperiments(const std::vector<std::string> &names,
               const penelope::WorkloadSet &workload,
               const penelope::ExperimentOptions &options,
               const SpanScope &scope, Iteration &it)
{
    using penelope::ExperimentRegistry;
    std::string all;
    for (const std::string &name : names) {
        std::ostringstream os;
        std::string error;
        {
            const ScopedSpan span(scope.spans, "exp." + name,
                                  scope.parent, scope.iteration);
            try {
                const penelope::Experiment *e =
                    ExperimentRegistry::instance().find(name);
                if (!e)
                    throw std::runtime_error("unknown experiment");
                e->run(penelope::ExperimentContext{workload, options,
                                                   os});
            } catch (const std::exception &ex) {
                error = std::string("threw: ") + ex.what();
            } catch (...) {
                error = "threw a non-exception";
            }
        }
        if (!scope.traced() && penelope::obs::enabled())
            it.invariant = kObsOnInTimedRun;
        it.digests.push_back(digestHex(os.str()));
        it.errors.push_back(error);
        all += os.str();
    }
    it.allDigest = digestHex(all);
}

// -------------------------------------------------------- host / time

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

bool
setAffinity(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus)
        CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0;
}

} // namespace

std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
        }
    }
    return cpus;
}

ScopedCpuPin::ScopedCpuPin(int cpu) : saved_(allowedCpus())
{
    if (saved_.empty() || !setAffinity({cpu}))
        saved_.clear();
}

ScopedCpuPin::~ScopedCpuPin()
{
    if (!saved_.empty())
        setAffinity(saved_);
}

std::vector<double>
stolenSeconds()
{
    std::vector<double> stolen;
    std::ifstream in("/proc/stat");
    const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    std::string line;
    while (std::getline(in, line)) {
        // "cpuN user nice system idle iowait irq softirq steal ..."
        if (line.rfind("cpu", 0) != 0 || line.size() < 4 ||
            !std::isdigit(static_cast<unsigned char>(line[3])))
            continue;
        std::istringstream fields(line.substr(3));
        unsigned cpu = 0;
        double ticks[8] = {};
        fields >> cpu;
        for (double &t : ticks)
            fields >> t;
        if (!fields || tick <= 0 || cpu >= CPU_SETSIZE)
            return {};
        if (stolen.size() <= cpu)
            stolen.resize(cpu + 1, 0.0);
        stolen[cpu] = ticks[7] / tick;
    }
    return stolen;
}

double
stealShare(const std::vector<double> &before,
           const std::vector<double> &after,
           const std::vector<int> &cpus, double wall)
{
    double stolen = 0.0;
    for (const int cpu : cpus) {
        const auto c = static_cast<std::size_t>(cpu);
        if (c < before.size() && c < after.size())
            stolen += after[c] - before[c];
    }
    return cpus.empty() || wall <= 0.0
        ? 0.0
        : stolen / (wall * static_cast<double>(cpus.size()));
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
            static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

std::string
buildType()
{
    return PERFBENCH_BUILD_TYPE;
}

bool
isReleaseBuild()
{
#ifdef NDEBUG
    return buildType() == "Release";
#else
    return false;
#endif
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace

std::vector<std::pair<std::string, std::string>>
hostContext(const std::string &commit)
{
    std::vector<std::pair<std::string, std::string>> ctx;
    ctx.emplace_back("nproc",
                     std::to_string(std::thread::hardware_concurrency()));
    ctx.emplace_back("cpu", cpuModel());
    ctx.emplace_back("compiler", PERFBENCH_COMPILER);
    ctx.emplace_back("build_type", buildType());
    ctx.emplace_back("commit", commit);
    std::istringstream info(penelope::buildInfoText());
    std::string line;
    while (std::getline(info, line)) {
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::string key = line.substr(0, colon);
        key.erase(0, key.find_first_not_of(' '));
        const auto v = line.find_first_not_of(' ', colon + 1);
        ctx.emplace_back("build." + key,
                         v == std::string::npos ? "" : line.substr(v));
    }
    return ctx;
}

} // namespace perfbench
