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
 *
 * A warm store replays near-instantly; each shard simulates one
 * round-robin slice of the trace set (on this host or another), and
 * --merge renders stdout byte-identical to a plain run.
 *
 * A command line selects one of two modes: a local run (which covers
 * --merge) or --shard.  One option table gives each flag's parsing,
 * bounds, valid modes and help text; --help is generated from it,
 * and a flag given in a mode its row does not list exits 2 instead
 * of being silently ignored.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/buildinfo.hh"
#include "common/threadpool.hh"
#include "core/registry.hh"
#include "core/resultcache.hh"
#include "core/shardplan.hh"
#include "obs/exposition.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace penelope;

namespace {

/** The mode a command line selects (an option row lists the modes
 *  it is valid in). */
enum Mode : unsigned
{
    Local = 1, ///< run (or --merge) experiments, render here
    Shard = 2, ///< --shard: simulate a slice, write a shard file
};
constexpr unsigned kAll = Local | Shard;

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
    bool metricsDump = false;
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

/** How a flag's value is parsed: none, a number in [lo, hi], I/N,
 *  a string, or every remaining argument (>= 1). */
enum Kind { Switch, Count, Factor, ShardSpec, Path, Files };

/** A parsed flag value: the fields its Kind fills. */
struct Value
{
    const char *text = nullptr;    ///< Path, Files
    std::uint64_t n = 0;           ///< Count
    double x = 0.0;                ///< Factor
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
    {"--all", nullptr, kAll, Switch, 0, 0, "run every registered experiment",
     [](auto &s, auto &) { s.all = true; }},
    {"--stride", "N", kAll, Count, 1, 531,
     "use every N-th of the 531 traces (N >= 1, default 16)",
     [](auto &s, auto &v) { s.options.traceStride = v.n; }},
    {"--uops", "N", kAll, Count, 1, 1e9,
     "uops per trace (N >= 1, default 40000)",
     [](auto &s, auto &v) {
         s.options.uopsPerTrace = s.options.cacheUops = v.n;
         s.uopsSet = true;
     }},
    {"--jobs", "N", kAll, Count, 0, 4096,
     "worker threads for per-trace simulation (N >= 1, default 1; "
     "0 = all hardware threads; statistics are identical for any N)",
     [](auto &s, auto &v) { s.options.jobs = v.n ? v.n : defaultJobs(); }},
    {"--full", nullptr, kAll, Switch, 0, 0,
     "full workload (stride 1) at paper-scale uop counts",
     [](auto &s, auto &) { s.full = true; }},
    {"--surrogate-audit", "F", Local, Factor, 0, 1,
     "seeded audit fraction of pruned candidates to exact-evaluate "
     "anyway (default 0.03; 1.0 = full audit: every candidate is "
     "priced exactly and the surrogate is bypassed; local runs "
     "only: a shard searches at the default)",
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
         s.mode = Shard;
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
    {"--metrics-dump", nullptr, kAll, Switch, 0, 0,
     "enable the metrics registry and print a sorted 'obs: name "
     "value' snapshot to stderr after the run (stdout is unchanged)",
     [](auto &s, auto &) { s.metricsDump = true; }},
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

    // --shard selects the Shard mode; a flag valid in one mode only
    // is rejected in the other.
    for (const Option *opt : given) {
        if (opt->modes & s.mode)
            continue;
        std::cerr << "penelope_bench: " << opt->flag
                  << (s.mode == Local ? " requires --shard\n"
                                      : " cannot be combined with "
                                        "--shard\n");
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
    if (s.names.empty()) {
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
 * never writing to stdout.  Its destructor closes the trace and
 * prints the dump on every exit path.
 */
struct ObsSession
{
    bool dump = false;

    ObsSession() = default;
    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;
    ~ObsSession()
    {
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
        if (s.metricsDump || !s.traceOut.empty())
            obs::Registry::instance().setEnabled(true);
        std::string error;
        if (!s.traceOut.empty() &&
            !obs::Tracer::instance().open(s.traceOut, &error)) {
            std::cerr << "penelope_bench: --trace-out: " << error
                      << "\n";
            return false;
        }
        return true;
    }
};

/**
 * Render the experiments to stdout through the run's result cache
 * (which serves what shard files or earlier experiments of this run
 * left there), then report the cache on stderr.
 */
int
render(const Settings &s, ResultCache &cache)
{
    const WorkloadSet workload;
    for (const std::string &name : s.names) {
        const ExperimentContext ctx{workload, s.options, std::cout};
        const obs::ScopedSpan span(name, "experiment");
        ExperimentRegistry::instance().find(name)->run(ctx);
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
    return 0;
}

/**
 * --shard I/N: run slice I of this run's ShardPlan through
 * runPlanSlice, then write the cache entries as a merge-ready shard
 * file.
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
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    registerBuiltinExperiments();

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

    if (s.mode == Shard)
        return runShard(s, cache);
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
    // is attached), so a rerun starts warm.
    cache.flushToDisk();
    return render(s, cache);
}
