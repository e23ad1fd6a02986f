/**
 * @file
 * The experiment multiplexer: one binary for the whole evaluation.
 *
 *   penelope_bench --list
 *   penelope_bench fig5 --stride 4 --jobs 8
 *   penelope_bench table4 sec11 --full
 *   penelope_bench --all --jobs 4
 *
 * Every run memoises: one run-scoped ResultCache (resultcache.hh)
 * serves each per-trace result the run already computed, so table4
 * and sec11 re-use the fig5/fig6/fig8 results of the same run.
 * --cache-dir only attaches a disk store to it:
 *
 *   penelope_bench --all --cache-dir .penelope-cache [--cache-gc]
 *   penelope_bench --all --shard 0/2 --shard-out s0.bin
 *   penelope_bench --all --merge s0.bin s1.bin
 *   penelope_bench --all --serve 9077 --workers-expected 2
 *   penelope_bench --worker host:9077
 *
 * A warm store replays near-instantly; shards and networked workers
 * (src/net/coordinator.hh) simulate round-robin slices of the trace
 * set, and --merge or the coordinator renders stdout byte-identical
 * to a plain run.
 *
 * A command line selects one mode: a local run (which covers
 * --merge), --shard, --serve or --worker.  One option
 * table gives each flag's parsing, bounds, valid modes and help
 * text; --help is generated from it, and a flag given in a mode its
 * row does not list exits 2 instead of being silently ignored.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/buildinfo.hh"
#include "common/shutdown.hh"
#include "common/threadpool.hh"
#include "core/registry.hh"
#include "core/resultcache.hh"
#include "core/shardplan.hh"
#include "net/coordinator.hh"
#include "net/faultinject.hh"
#include "net/worker.hh"
#include "obs/exposition.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace penelope;

namespace {

/** The mode a command line selects (an option row lists the modes
 *  it is valid in). */
enum Mode : unsigned
{
    Local = 1,   ///< run (or --merge) experiments, render here
    Shard = 2,   ///< --shard: simulate a slice, write a shard file
    Serve = 4,   ///< --serve: coordinate workers, then render
    Worker = 8,  ///< --worker: run slices a coordinator assigns
};
constexpr unsigned kRuns = Local | Shard | Serve;
constexpr unsigned kAll = kRuns | Worker; ///< every mode simulates

/** The flags that select a mode, in precedence order: when several
 *  are given the first wins, and the others fail its mode rule. */
constexpr struct
{
    Mode mode;
    const char *flag;
} kModeFlags[] = {{Worker, "--worker"}, {Serve, "--serve"},
                  {Shard, "--shard"}};

/**
 * Everything a command line sets.  Option actions write straight
 * into the library structs, so each default lives in its struct;
 * the CLI only moves the experiment scale (stride 16, 40000 uops).
 */
struct Settings
{
    ExperimentOptions options = [] {
        ExperimentOptions o;
        o.traceStride = 16;
        o.uopsPerTrace = o.cacheUops = 40'000;
        return o;
    }();
    net::CoordinatorConfig coordinator;
    net::WorkerConfig worker;

    Mode mode = Local;
    bool done = false;      ///< --help/--version/--list answered
    std::vector<std::string> names;
    bool all = false;
    bool full = false;
    bool uopsSet = false;
    std::string cacheDir;
    bool cacheGc = false;
    std::string shardOut;
    std::vector<std::string> mergeFiles;
    unsigned slices = 0; ///< 0 = derive from workers-expected
    bool metricsDump = false;
    std::optional<std::uint16_t> metricsPort;
    std::string traceOut;
};

/**
 * Parse a decimal option value with bounds checking.  Unlike the
 * old harness's atoi, rejects junk ("4x", "", "-2") and values
 * outside [min, max] with a real error message.
 */
bool
parseCount(const char *flag, const char *text, std::uint64_t min,
           std::uint64_t max, std::uint64_t &out)
{
    if (!text || !*text) {
        std::cerr << "penelope_bench: " << flag
                  << " requires a value\n";
        return false;
    }
    std::uint64_t value = 0;
    for (const char *p = text; *p; ++p) {
        if (*p < '0' || *p > '9') {
            std::cerr << "penelope_bench: " << flag
                      << " expects a non-negative integer, got '"
                      << text << "'\n";
            return false;
        }
        const std::uint64_t digit =
            static_cast<std::uint64_t>(*p - '0');
        if (value > (UINT64_MAX - digit) / 10) {
            std::cerr << "penelope_bench: " << flag
                      << " value '" << text << "' is too large\n";
            return false;
        }
        value = value * 10 + digit;
    }
    if (value < min || value > max) {
        std::cerr << "penelope_bench: " << flag << " must be in ["
                  << min << ", " << max << "], got " << value
                  << "\n";
        return false;
    }
    out = value;
    return true;
}

/** Parse "I/N" for --shard. */
bool
parseShard(const char *text, unsigned &index, unsigned &count)
{
    if (!text) {
        std::cerr << "penelope_bench: --shard requires I/N\n";
        return false;
    }
    const char *slash = std::strchr(text, '/');
    if (!slash || slash == text || !slash[1]) {
        std::cerr << "penelope_bench: --shard expects I/N, got '"
                  << text << "'\n";
        return false;
    }
    const std::string i_text(text, slash);
    std::uint64_t i = 0;
    std::uint64_t n = 0;
    if (!parseCount("--shard", i_text.c_str(), 0, 530, i) ||
        !parseCount("--shard", slash + 1, 1, 531, n))
        return false;
    if (i >= n) {
        std::cerr << "penelope_bench: --shard index " << i
                  << " out of range for " << n << " shards\n";
        return false;
    }
    index = static_cast<unsigned>(i);
    count = static_cast<unsigned>(n);
    return true;
}

/** Parse "HOST:PORT" for --worker. */
bool
parseHostPort(const char *flag, const char *text,
              std::string &host, std::uint16_t &port)
{
    if (!text || !*text) {
        std::cerr << "penelope_bench: " << flag
                  << " requires HOST:PORT\n";
        return false;
    }
    const char *colon = std::strrchr(text, ':');
    if (!colon || colon == text || !colon[1]) {
        std::cerr << "penelope_bench: " << flag
                  << " expects HOST:PORT, got '" << text << "'\n";
        return false;
    }
    std::uint64_t value = 0;
    if (!parseCount(flag, colon + 1, 1, 65535, value))
        return false;
    host.assign(text, colon);
    port = static_cast<std::uint16_t>(value);
    return true;
}

/** Parse a decimal factor in [min, max]. */
bool
parseFactor(const char *flag, const char *text, double min,
            double max, double &out)
{
    if (!text || !*text) {
        std::cerr << "penelope_bench: " << flag
                  << " requires a value\n";
        return false;
    }
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    // Written so that NaN, which compares false, is rejected.
    if (!end || *end != '\0' || !(value >= min && value <= max)) {
        std::cerr << "penelope_bench: " << flag
                  << " expects a number in [" << min << ", " << max
                  << "], got '" << text << "'\n";
        return false;
    }
    out = value;
    return true;
}

/** How a flag's value is parsed: none, a number in [lo, hi],
 *  HOST:PORT, I/N, a string, or every remaining argument (>= 1). */
enum Kind { Switch, Count, Factor, HostPort, ShardSpec, Path, Files };

/** A parsed flag value: the fields its Kind fills. */
struct Value
{
    const char *text = nullptr;    ///< Path, Files
    std::uint64_t n = 0;           ///< Count
    double x = 0.0;                ///< Factor
    std::string host;              ///< HostPort
    std::uint16_t port = 0;        ///< HostPort
    unsigned index = 0, count = 0; ///< ShardSpec
};

/** One command-line flag. */
struct Option
{
    const char *flag;
    const char *metavar; ///< value placeholder in --help
    unsigned modes;      ///< Mode mask the flag is valid in
    Kind kind;
    double lo, hi; ///< bounds of a Count or Factor
    const char *help;
    void (*apply)(Settings &s, const Value &v);
};

void
listExperiments(std::ostream &os)
{
    os << "registered experiments:\n";
    const auto &experiments =
        ExperimentRegistry::instance().experiments();
    std::size_t name_width = 0;
    for (const Experiment &e : experiments)
        name_width = std::max(name_width, e.name.size());
    for (const Experiment &e : experiments) {
        os << "  " << e.name
           << std::string(name_width + 1 - e.name.size(), ' ')
           << e.title << " - " << e.description << "\n";
    }
}

void usage(std::ostream &os);

const Option kOptions[] = {
    {"--list", nullptr, kAll, Switch, 0, 0,
     "list registered experiments and exit",
     [](auto &s, auto &) { listExperiments(std::cout); s.done = true; }},
    {"--all", nullptr, kRuns, Switch, 0, 0, "run every registered experiment",
     [](auto &s, auto &) { s.all = true; }},
    {"--stride", "N", kRuns, Count, 1, 531,
     "use every N-th of the 531 traces (N >= 1, default 16)",
     [](auto &s, auto &v) { s.options.traceStride = v.n; }},
    {"--uops", "N", kRuns, Count, 1, 1e9,
     "uops per trace (N >= 1, default 40000)",
     [](auto &s, auto &v) {
         s.options.uopsPerTrace = s.options.cacheUops = v.n;
         s.uopsSet = true;
     }},
    {"--jobs", "N", kAll, Count, 0, 4096,
     "worker threads for per-trace simulation (N >= 1, default 1; "
     "0 = all hardware threads; statistics are identical for any N)",
     [](auto &s, auto &v) { s.options.jobs = v.n ? v.n : defaultJobs(); }},
    {"--full", nullptr, kRuns, Switch, 0, 0,
     "full workload (stride 1) at paper-scale uop counts",
     [](auto &s, auto &) { s.full = true; }},
    {"--surrogate-audit", "F", Local, Factor, 0, 1,
     "seeded audit fraction of pruned candidates to exact-evaluate "
     "anyway (default 0.03; 1.0 = full audit: every candidate is "
     "priced exactly and the surrogate is bypassed; local runs "
     "only: a served plan searches at the default)",
     [](auto &s, auto &v) { s.options.surrogateAuditFraction = v.x; }},
    {"--cache-dir", "DIR", kAll, Path, 0, 0,
     "attach a persistent store to the run's result cache: per-trace "
     "results are looked up before simulating and stored after; "
     "statistics (and stdout) are byte-identical with a cold store, "
     "a warm store, or none",
     [](auto &s, auto &v) { s.cacheDir = v.text; }},
    {"--cache-gc", nullptr, Local, Switch, 0, 0,
     "after the run, compact the --cache-dir store down to the "
     "entries this run touched (a warm run touches every entry the "
     "current salt and options can produce, so entries from retired "
     "salts or changed options are dropped)",
     [](auto &s, auto &) { s.cacheGc = true; }},
    {"--shard", "I/N", Shard, ShardSpec, 0, 0,
     "simulate only the I-th of N round-robin slices of the trace "
     "set and write the results as a merge-ready shard file (stdout "
     "stays empty)",
     [](auto &s, auto &v) {
         s.options.shardIndex = v.index;
         s.options.shardCount = v.count;
     }},
    {"--shard-out", "FILE", Shard, Path, 0, 0,
     "shard file path (default penelope_shard_I_of_N.bin)",
     [](auto &s, auto &v) { s.shardOut = v.text; }},
    {"--merge", "F...", Local, Files, 0, 0,
     "import shard files (all remaining arguments) and render the "
     "full statistics from them, bit-identical to an unsharded run",
     [](auto &s, auto &v) { s.mergeFiles.push_back(v.text); }},
    {"--serve", "PORT", Serve, Count, 0, 65535,
     "coordinate a distributed run: carve the experiments into "
     "slices, assign them to connecting --worker processes, reassign "
     "the slices of workers that disconnect or time out, then render "
     "the full statistics (byte-identical to an unsharded run); port "
     "0 picks an ephemeral port (printed on stderr); --cache-dir "
     "keeps every collected entry.  SIGINT/SIGTERM stops it early: "
     "in-flight slices drain (bounded), the incomplete slices are "
     "listed on stderr and it exits 0 without rendering",
     [](auto &s, auto &v) { s.coordinator.port = v.n; }},
    {"--workers-expected", "N", Serve, Count, 1, 1024,
     "workers the operator will attach (default 1; sizes the default "
     "slice carving; the run completes with any number)",
     [](auto &s, auto &v) { s.coordinator.workersExpected = v.n; }},
    {"--slices", "N", Serve, Count, 1, 531,
     "slice count for --serve (default 4x "
     "workers-expected, clamped to [workers-expected, 32])",
     [](auto &s, auto &v) { s.slices = v.n; }},
    {"--slice-timeout", "SECONDS", Serve, Count, 1, 86'400,
     "reassign a slice not completed within this budget (default "
     "600)",
     [](auto &s, auto &v) { s.coordinator.sliceTimeoutMs = v.n * 1000; }},
    {"--worker", "HOST:PORT", Worker, HostPort, 0, 0,
     "run as a worker for the coordinator at HOST:PORT (experiment "
     "names/options come from the wire; local flags --jobs and "
     "--cache-dir still apply)",
     [](auto &s, auto &v) { s.worker.host = v.host; s.worker.port = v.port; }},
    {"--retry-budget", "N", Serve, Count, 0, 100,
     "re-dispatches allowed per slice before the job degrades to a "
     "partial result with an explicit incomplete-slice manifest "
     "(default 3)",
     [](auto &s, auto &v) { s.coordinator.retryBudget = v.n; }},
    {"--heartbeat-timeout", "MS", Serve, Count, 1, 3'600'000,
     "forfeit a slice whose worker went silent this long (default "
     "5000; workers heartbeat while running)",
     [](auto &s, auto &v) { s.coordinator.heartbeatTimeoutMs = v.n; }},
    {"--heartbeat-interval", "MS", Worker, Count, 1, 3'600'000,
     "worker heartbeat cadence (default 1000)",
     [](auto &s, auto &v) { s.worker.heartbeatIntervalMs = v.n; }},
    {"--worker-reconnect", "MS", Worker, Count, 0, 3'600'000,
     "worker budget for re-connecting after a lost coordinator "
     "(survives coordinator restarts; 0 = exit on loss, default)",
     [](auto &s, auto &v) { s.worker.reconnectBudgetMs = v.n; }},
    {"--connect-budget", "MS", Worker, Count, 1, 3'600'000,
     "total wall-clock budget for the worker's initial connect loop "
     "(default 30000)",
     [](auto &s, auto &v) { s.worker.connectBudgetMs = v.n; }},
    {"--metrics-dump", nullptr, kAll, Switch, 0, 0,
     "enable the metrics registry and print a sorted 'obs: name "
     "value' snapshot to stderr after the run (stdout is unchanged)",
     [](auto &s, auto &) { s.metricsDump = true; }},
    {"--metrics-port", "PORT", kAll, Count, 0, 65535,
     "serve Prometheus text exposition over HTTP while running (0 = "
     "ephemeral; the port is announced on stderr); under --serve the "
     "exposition includes per-worker series",
     [](auto &s, auto &v) { s.metricsPort = v.n; }},
    {"--trace-out", "FILE", kAll, Path, 0, 0,
     "write a Chrome trace_event JSON span trace (load it in "
     "Perfetto or chrome://tracing)",
     [](auto &s, auto &v) { s.traceOut = v.text; }},
    {"--version", nullptr, kAll, Switch, 0, 0,
     "print the build configuration and exit",
     [](auto &s, auto &) { std::cout << buildInfoText(); s.done = true; }},
    {"--help", nullptr, kAll, Switch, 0, 0, "this message",
     [](auto &s, auto &) { usage(std::cout); s.done = true; }},
};

/** --help, generated from kOptions: each row's help text wrapped
 *  at column 78 beside a 15-column flag gutter. */
void
usage(std::ostream &os)
{
    os << "usage: penelope_bench [experiment...] [options]\n"
          "       penelope_bench --list\n\noptions:\n";
    constexpr std::size_t kGutter = 15;
    constexpr std::size_t kWidth = 78;
    for (const Option &o : kOptions) {
        std::string line = std::string("  ") + o.flag;
        if (o.metavar)
            line += std::string(" ") + o.metavar;
        if (line.size() >= kGutter) {
            os << line << '\n';
            line.clear();
        }
        std::istringstream words(o.help);
        std::string word;
        while (words >> word) {
            if (line.size() > kGutter &&
                line.size() + 1 + word.size() > kWidth) {
                os << line << '\n';
                line.clear();
            }
            line.resize(std::max(line.size() + 1, kGutter), ' ');
            line += word;
        }
        os << line << '\n';
    }
}


/** Parse @p text (null when missing) as @p o's value; false after
 *  printing an error naming the flag. */
bool
parseValue(const Option &o, const char *text, Value &v)
{
    v.text = text;
    switch (o.kind) {
      case Switch:
        return true;
      case Count:
        return parseCount(o.flag, text, o.lo, o.hi, v.n);
      case Factor:
        return parseFactor(o.flag, text, o.lo, o.hi, v.x);
      case HostPort:
        return parseHostPort(o.flag, text, v.host, v.port);
      case ShardSpec:
        return parseShard(text, v.index, v.count);
      case Path:
      case Files:
        break;
    }
    if (!text) {
        std::cerr << "penelope_bench: " << o.flag << " requires "
                  << (o.kind == Path ? "a path"
                                     : "at least one shard file")
                  << "\n";
    }
    return text;
}

/**
 * Parse argv into @p s and apply the mode rule: a flag whose row
 * does not list the selected mode exits 2, naming the flag.
 * Returns an exit code when the command line is finished (an error,
 * or --help/--version/--list answered), or -1 to go on and run.
 */
int
parseArgs(int argc, char **argv, Settings &s)
{
    std::vector<const Option *> given;
    unsigned given_modes = 0;
    for (int i = 1; i < argc; ++i) {
        const Option *opt = nullptr;
        for (const Option &o : kOptions) {
            if (!std::strcmp(argv[i], o.flag))
                opt = &o;
        }
        if (!opt && argv[i][0] == '-') {
            std::cerr << "penelope_bench: unknown option '" << argv[i]
                      << "'\n";
            usage(std::cerr);
            return 2;
        }
        if (!opt) {
            s.names.push_back(argv[i]);
            continue;
        }
        given.push_back(opt);
        for (const auto &m : kModeFlags) {
            if (!std::strcmp(opt->flag, m.flag))
                given_modes |= m.mode;
        }
        do {
            Value v;
            const char *text =
                opt->kind != Switch && i + 1 < argc ? argv[++i]
                                                    : nullptr;
            if (!parseValue(*opt, text, v))
                return 2;
            opt->apply(s, v);
        } while (opt->kind == Files && i + 1 < argc);
        if (s.done)
            return 0;
    }

    const char *mode_flag = nullptr;
    for (const auto &m : kModeFlags) {
        if (given_modes & m.mode) {
            s.mode = m.mode;
            mode_flag = m.flag;
            break;
        }
    }
    for (const Option *opt : given) {
        if (opt->modes & s.mode)
            continue;
        std::cerr << "penelope_bench: " << opt->flag;
        if (s.mode == Local) {
            const char *sep = " requires ";
            for (const auto &m : kModeFlags) {
                if (opt->modes & m.mode) {
                    std::cerr << sep << m.flag;
                    sep = " or ";
                }
            }
        } else {
            std::cerr << " cannot be combined with " << mode_flag;
        }
        std::cerr << "\n";
        return 2;
    }
    if (!(s.mode & kRuns) && !s.names.empty()) {
        std::cerr << "penelope_bench: " << mode_flag
                  << " takes no experiment names\n";
        return 2;
    }
    if (s.cacheGc && s.cacheDir.empty()) {
        std::cerr << "penelope_bench: --cache-gc requires "
                     "--cache-dir DIR\n";
        return 2;
    }

    // Expand --all and check every name before running anything.
    const ExperimentRegistry &registry =
        ExperimentRegistry::instance();
    if (s.all) {
        s.names.clear();
        for (const Experiment &e : registry.experiments())
            s.names.push_back(e.name);
    }
    if (s.names.empty() && (s.mode & kRuns)) {
        std::cerr << "penelope_bench: no experiment given\n\n";
        listExperiments(std::cerr);
        std::cerr << '\n';
        usage(std::cerr);
        return 2;
    }
    bool unknown = false;
    for (const std::string &name : s.names) {
        if (!registry.find(name)) {
            std::cerr << "penelope_bench: unknown experiment '"
                      << name << "'\n";
            unknown = true;
        }
    }
    if (unknown) {
        std::cerr << '\n';
        listExperiments(std::cerr);
        return 2;
    }

    if (s.full) {
        s.options.traceStride = 1;
        s.options.mechanismTimeScale = 0.2;
        if (!s.uopsSet)
            s.options.uopsPerTrace = s.options.cacheUops = 200'000;
    }
    return -1;
}

/** One stderr line of fired-fault accounting when injection is on
 *  (CI's chaos step asserts the chaos actually happened). */
void
printFaultSummary()
{
    const net::FaultInjector &injector = net::FaultInjector::instance();
    if (!injector.enabled())
        return;
    const net::FaultStats s = injector.stats();
    std::cerr << "penelope_bench: fault injection: " << s.total()
              << " faults fired (" << s.drops << " drops, "
              << s.flips << " flips, " << s.truncates
              << " truncates, " << s.halfCloses << " half-closes, "
              << s.delays << " delays, " << s.stalls
              << " stalls)\n";
}

/** The run's result-cache accounting.  Stats go to stderr: stdout
 *  must stay byte-identical across cold, warm and sharded runs. */
void
printCacheStats(ResultCache &cache)
{
    const ResultCache::Stats s = cache.stats();
    std::cerr << "penelope_bench: result cache: " << s.hits
              << " hits, " << s.misses << " misses, " << s.stores
              << " stores";
    if (s.decodeFailures || s.badRecords) {
        std::cerr << ", " << s.decodeFailures
                  << " undecodable payloads, " << s.badRecords
                  << " bad records dropped";
    }
    std::cerr << "\n";
}

/**
 * The observability session: off unless a flag asks for it, and
 * never writing to stdout.  Its destructor tears everything down on
 * every exit path, joining the metrics server before the
 * coordinator it reports on unwinds.
 */
struct ObsSession
{
    /** The serving coordinator, for per-worker exposition. */
    std::atomic<net::Coordinator *> coordinator{nullptr};
    bool dump = false;
    obs::MetricsServer server;

    ObsSession() = default;
    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;
    ~ObsSession()
    {
        server.stop();
        obs::Tracer::instance().close();
        if (dump) {
            std::cerr << obs::renderDump(
                obs::Registry::instance().scrape());
        }
    }

    /** Turn on what @p s asks for; false after printing an error. */
    bool
    start(const Settings &s)
    {
        dump = s.metricsDump;
        if (s.metricsDump || s.metricsPort || !s.traceOut.empty())
            obs::Registry::instance().setEnabled(true);
        std::string error;
        if (!s.traceOut.empty() &&
            !obs::Tracer::instance().open(s.traceOut, &error)) {
            std::cerr << "penelope_bench: --trace-out: " << error
                      << "\n";
            return false;
        }
        if (!s.metricsPort)
            return true;
        const auto provider = [this]() -> obs::LabeledSnapshots {
            net::Coordinator *c =
                coordinator.load(std::memory_order_acquire);
            return c ? c->workerSnapshots() : obs::LabeledSnapshots{};
        };
        if (!server.start(*s.metricsPort, provider, &error)) {
            std::cerr << "penelope_bench: --metrics-port: " << error
                      << "\n";
            return false;
        }
        std::cerr << "penelope_bench: metrics on port "
                  << server.port() << "\n";
        return true;
    }
};

/**
 * Render the experiments to stdout through the run's result cache
 * (which serves what shard files, workers or earlier experiments
 * of this run left there), then report the cache on stderr.
 */
int
render(const Settings &s, ResultCache &cache)
{
    const WorkloadSet workload;
    for (const std::string &name : s.names) {
        const ExperimentContext ctx{workload, s.options, std::cout};
        const bool timed = obs::enabled();
        const std::uint64_t t0 =
            timed ? obs::monotonicMicros() : 0;
        {
            const obs::ScopedSpan span(name, "experiment");
            ExperimentRegistry::instance().find(name)->run(ctx);
        }
        if (timed) {
            PENELOPE_OBS_HISTOGRAM("engine.experiment_latency",
                                   "us")
                .record(obs::monotonicMicros() - t0);
        }
    }
    if (s.cacheGc) {
        // The experiments above touched every entry the current
        // salt/options can key; everything else is unreachable.
        if (!s.all) {
            std::cerr << "penelope_bench: cache-gc: note: "
                         "liveness is THIS run's experiment "
                         "selection; entries of experiments not "
                         "run are dropped (use --all to keep the "
                         "whole catalog warm)\n";
        }
        const std::size_t dropped = cache.compact();
        std::cerr << "penelope_bench: cache-gc: kept "
                  << cache.size() << " entries, dropped " << dropped
                  << "\n";
    }
    printCacheStats(cache);
    printFaultSummary();
    return 0;
}

/**
 * --shard I/N: run slice I through the worker's slice executor,
 * whose ShardPlan is the one definition of "slice i of N of this
 * run" for the manual and the distributed path alike, then write
 * the cache entries as a merge-ready shard file.
 */
int
runShard(const Settings &s, ResultCache &cache)
{
    const ExperimentOptions &o = s.options;
    const ShardPlan plan =
        ShardPlan::fromOptions(s.names, o, o.shardCount);
    runPlanSlice(WorkloadSet(), plan, o.shardIndex, o.jobs, o.pool,
                 cache);
    const std::string out = !s.shardOut.empty()
        ? s.shardOut
        : "penelope_shard_" + std::to_string(o.shardIndex) + "_of_" +
            std::to_string(o.shardCount) + ".bin";
    if (!cache.exportTo(out)) {
        std::cerr << "penelope_bench: failed to write shard file '"
                  << out << "'\n";
        return 1;
    }
    std::cerr << "penelope_bench: wrote " << cache.size()
              << " entries to " << out
              << " (merge with: penelope_bench ... --merge " << out
              << " ...)\n";
    printCacheStats(cache);
    printFaultSummary();
    return 0;
}

/**
 * The plan --serve carves.  4 slices per worker smooths
 * load imbalance and shrinks the redo unit when a worker dies,
 * without inflating per-slice shared-phase overhead.  More than 531
 * (the trace count) would fail every worker's validation.
 */
ShardPlan
carvePlan(const Settings &s)
{
    const unsigned workers = s.coordinator.workersExpected;
    const unsigned slices =
        s.slices ? s.slices : std::min(4 * workers, 32u);
    return ShardPlan::fromOptions(
        s.names, s.options,
        std::min(std::max(slices, workers), 531u));
}

/** --worker: run the slices a coordinator assigns until released. */
int
runWorker(Settings &s, ResultCache &cache)
{
    installShutdownHandlers();
    net::WorkerConfig &config = s.worker;
    config.jobs = s.options.jobs;
    config.pool = s.options.pool;
    config.hostCpus = defaultJobs();
    config.stopRequested = [] { return shutdownRequested(); };

    // With --cache-dir a restarted worker answers re-assigned
    // slices from its store.
    const WorkloadSet workload;
    net::WorkerStats stats;
    std::string error;
    const net::WorkerOutcome outcome =
        net::runWorker(config, workload, cache, &stats, &error);
    std::cerr << "penelope_bench: worker: ran " << stats.slicesRun
              << " slices in " << stats.simSeconds << " s, sent "
              << stats.sentBytes << " entry bytes ("
              << stats.fullExportBytes << " if resent in full), "
              << stats.heartbeatsSent << " heartbeats, "
              << stats.reconnects << " reconnects\n";
    printFaultSummary();
    switch (outcome) {
      case net::WorkerOutcome::Finished:
        return 0;
      case net::WorkerOutcome::Drained:
        std::cerr << "penelope_bench: worker: drained after stop "
                     "request\n";
        return 0;
      case net::WorkerOutcome::ConnectFailed:
        // Distinct from protocol-level rejection: the operator
        // fixes an address/firewall here, a version skew there.
        std::cerr << "penelope_bench: worker: coordinator "
                     "unreachable: "
                  << error << "\n";
        return 4;
      case net::WorkerOutcome::BadAssignment:
        std::cerr << "penelope_bench: worker: protocol rejection: "
                  << error << "\n";
        return 5;
      case net::WorkerOutcome::ConnectionLost:
        break;
    }
    std::cerr << "penelope_bench: worker: " << error << "\n";
    return 1;
}

/**
 * --serve: coordinate a run, then render it from the collected
 * entries (a Partial job's missing slices recompute locally).  A
 * run stopped by SIGINT/SIGTERM does not render.
 */
int
runServe(Settings &s, ResultCache &cache, ObsSession &obs)
{
    installShutdownHandlers();
    net::CoordinatorConfig &config = s.coordinator;
    config.stopRequested = [] { return shutdownRequested(); };

    const ShardPlan plan = carvePlan(s);
    net::Coordinator coordinator(plan, cache, config);
    obs.coordinator.store(&coordinator, std::memory_order_release);
    std::string error;
    if (!coordinator.start(&error)) {
        std::cerr << "penelope_bench: --serve: " << error << "\n";
        return 1;
    }
    std::cerr << "penelope_bench: coordinator listening on port "
              << coordinator.port() << " (" << plan.sliceCount
              << " slices, expecting " << config.workersExpected
              << " workers; attach with: penelope_bench "
                 "--worker <host>:"
              << coordinator.port() << ")\n";
    coordinator.run();

    // The coordinator leaves scope on both exits below: stop
    // serving its per-worker view first (stop() joins, so no
    // provider call is in flight afterwards).
    obs.coordinator.store(nullptr, std::memory_order_release);
    obs.server.stop();

    const net::CoordinatorStats &cs = coordinator.stats();
    const std::vector<std::uint32_t> manifest =
        coordinator.incompleteSlices();
    std::cerr << "penelope_bench: coordinator: "
              << cs.slices - manifest.size() << " of " << cs.slices
              << " slices done, " << cs.assignments
              << " assignments (" << cs.reassignments
              << " reassigned, " << cs.duplicateResults
              << " duplicate results), " << cs.workersSeen
              << " workers (host_cpus:";
    for (std::uint32_t cpus : cs.workerCpus)
        std::cerr << ' ' << cpus;
    std::cerr << "), " << cs.resultBytes << " entry bytes received\n";
    std::cerr << "penelope_bench: coordinator: wall "
              << cs.wallSeconds << " s, worker simulation "
              << cs.workerSimSeconds << " s, entry import "
              << cs.importSeconds
              << " s (local host_cpus: " << defaultJobs() << ")\n";
    std::cerr << "penelope_bench: coordinator: " << cs.heartbeats
              << " heartbeats, " << cs.hungForfeits
              << " hung-worker forfeits, " << cs.slicesFailed
              << " slices failed (retry budget "
              << config.retryBudget << ")\n";
    const bool stopped = shutdownRequested();
    if (!manifest.empty()) {
        std::cerr << "penelope_bench: coordinator: partial "
                     "result; incomplete slices:";
        for (const std::uint32_t slice : manifest)
            std::cerr << ' ' << slice;
        std::cerr << (stopped ? " (stopped; not rendered)\n"
                              : " (recomputed locally below)\n");
    }
    // Imported entries live in memory only: persist what was
    // collected (when --cache-dir is attached), so a rerun with the
    // same store starts warm, whether or not this run renders.
    const std::size_t flushed = cache.flushToDisk();
    if (flushed) {
        std::cerr << "penelope_bench: coordinator: flushed " << flushed
                  << " imported entries to the cache store\n";
    }
    if (stopped) {
        printFaultSummary();
        return 0;
    }
    return render(s, cache);
}

} // namespace

int
main(int argc, char **argv)
{
    registerBuiltinExperiments();
    std::string fault_error;
    if (!net::FaultInjector::instance().configureFromEnv(&fault_error)) {
        std::cerr << "penelope_bench: PENELOPE_FAULTS: " << fault_error
                  << "\n";
        return 2;
    }

    Settings s;
    if (const int rc = parseArgs(argc, argv, s); rc >= 0)
        return rc;

    ObsSession obs;
    if (!obs.start(s))
        return 2;

    // One persistent worker pool for the whole run: every parallel
    // region of every experiment reuses it instead of spinning its
    // own (measurable for --all, which strings many small regions
    // together).  jobs <= 1 stays a true serial run with no pool.
    std::optional<ThreadPool> pool;
    if (s.options.jobs > 1)
        s.options.pool = &pool.emplace(s.options.jobs);

    // The run's memo: every mode looks per-trace results up here
    // before simulating and stores them after, so experiments that
    // share work compute it once.  It lives exactly as long as this
    // run; --cache-dir only attaches a disk store.
    ResultCache cache(s.cacheDir);
    s.options.cache = &cache;

    switch (s.mode) {
      case Worker: return runWorker(s, cache);
      case Serve: return runServe(s, cache, obs);
      case Shard: return runShard(s, cache);
      default: break;
    }
    for (const std::string &file : s.mergeFiles) {
        if (!cache.importFrom(file)) {
            // A missing/foreign shard file only costs recompute
            // time; the merged statistics stay correct.
            std::cerr << "penelope_bench: warning: could not import "
                         "shard file '"
                      << file << "' (entries will be recomputed)\n";
        }
    }
    // Imports live in memory only: persist them (when --cache-dir
    // is attached), as runServe does, so a rerun starts warm.
    cache.flushToDisk();
    return render(s, cache);
}
