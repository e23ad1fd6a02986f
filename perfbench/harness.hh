/**
 * @file
 * Workload-independent pieces of the benchmark driver: sample
 * summaries, output digests, the metric set printed as the result
 * line, an in-memory span recorder, process resource usage and the
 * host/build context every result carries.
 *
 * Nothing here touches the simulator beyond its public headers; the
 * driver (driver.cc) and the probes (probes.cc) build on it, and
 * selftest.cc checks it.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiments.hh"

namespace perfbench {

// ------------------------------------------------------------ samples

/** Median and quartiles of a sample, with its size.  The quartiles
 *  follow Python's statistics.quantiles(values, n=4) (the
 *  "exclusive" method), so the driver's figures and a reviewer's
 *  recomputation agree. */
struct Summary
{
    std::size_t count = 0;
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
};

Summary summarize(std::vector<double> values);

/** "median 1.23 (q1 1.2, q3 1.3, n=5)". */
std::string describe(const Summary &s);

// ------------------------------------------------------------ digests

/** 32 hex digits of the MurmurHash3 x64/128 digest of @p text (the
 *  result cache's key hash, reused as a content fingerprint). */
std::string digestHex(std::string_view text);

/**
 * Digests of every experiment's stdout per workload, pinned for the
 * default seed.  File format: one "<workload> <experiment> <digest>"
 * per line; '#' starts a comment.
 */
class PinnedDigests
{
  public:
    /** False when the file cannot be read or a line is malformed. */
    bool load(const std::string &path, std::string *error);

    /** nullptr when nothing is pinned for the pair. */
    const std::string *find(const std::string &workload,
                            const std::string &experiment) const;

  private:
    std::map<std::pair<std::string, std::string>, std::string> pins_;
};

/** Outcome of checking one experiment output against references. */
struct DigestCheck
{
    bool ok = true;
    std::string reason; ///< why it failed (empty when ok)
};

/** Compare @p digest with each non-null reference in turn. */
DigestCheck checkDigest(const std::string &digest,
                        const std::string *pinned,
                        const std::string *reference);

// ------------------------------------------------------------ metrics

/** Metric names are [A-Za-z0-9_.-]+ and start alphanumeric. */
bool validMetricName(std::string_view name);

/** Ordered metric set; the result line prints it as JSON. */
class MetricSet
{
  public:
    void add(const std::string &name, const std::string &unit,
             double value);

    /** A metric that this build or run cannot produce.  It is
     *  left out of the result line and listed with its reason. */
    void missing(const std::string &name, const std::string &reason);

    struct Entry
    {
        std::string name;
        std::string unit;
        double value = 0.0;
    };

    const std::vector<Entry> &entries() const { return entries_; }
    const std::vector<std::pair<std::string, std::string>> &
    missingEntries() const
    {
        return missing_;
    }

    /** Every name valid, unique and every value finite. */
    bool wellFormed(std::string *error) const;

    /** `{"name": {"value": v, "unit": "u"}, ...}`. */
    std::string json() const;

  private:
    std::vector<Entry> entries_;
    std::vector<std::pair<std::string, std::string>> missing_;
};

/** Shortest round-trip decimal form of @p v. */
std::string formatNumber(double v);

/** JSON string literal (quotes included). */
std::string jsonString(std::string_view s);

/** The last stdout line the benchmark prints. */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricSet &metrics);

// -------------------------------------------------------------- spans

using Clock = std::chrono::steady_clock;

/**
 * Spans the driver records around its own calls into the library:
 * name, start, end, parent and the iteration they belong to.  Kept
 * in memory and written out once, in the Chrome trace_event format
 * the library's obs::Tracer also emits.
 */
class SpanRecorder
{
  public:
    SpanRecorder();

    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = -1; ///< -1 while open
        int parent = -1;
        unsigned iteration = 0;
    };

    /** Open a span; returns its id. */
    int begin(std::string name, int parent, unsigned iteration);
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    double seconds(int id) const;

    /** Seconds of span @p clip covered by the union of @p ids (a
     *  span's self time is its length minus its children's cover). */
    double coveredSeconds(std::vector<int> ids, int clip) const;

    bool writeChromeTrace(const std::string &path,
                          std::string *error) const;

  private:
    std::int64_t now() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** RAII span; a null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, std::string name, int parent,
               unsigned iteration)
        : recorder_(recorder),
          id_(recorder ? recorder->begin(std::move(name), parent,
                                         iteration)
                       : -1)
    {
    }
    ~ScopedSpan()
    {
        if (recorder_)
            recorder_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanRecorder *recorder_;
    int id_;
};

// -------------------------------------------------------- experiments

/** Where an iteration's spans go; a null recorder = timed run. */
struct SpanScope
{
    SpanRecorder *spans = nullptr;
    int parent = -1;
    unsigned iteration = 0;

    bool traced() const { return spans != nullptr; }
};

/** Outputs of one iteration, one entry per experiment. */
struct Iteration
{
    std::vector<std::string> digests;
    std::vector<std::string> errors; ///< exception text; empty = ok
    std::string allDigest;           ///< of the concatenated stdout
    std::string invariant;           ///< broken invariant; empty = ok
};

inline constexpr const char *kObsOnInTimedRun =
    "observability was on during a timed iteration";

/**
 * Run the registered experiments @p names in order through
 * ExperimentRegistry::find(name)->run(ctx), each into its own output
 * stream, with an "exp.<name>" span around each when @p scope is
 * traced.  An untraced run that finds observability on after an
 * experiment records kObsOnInTimedRun as a broken invariant.
 */
void runExperiments(const std::vector<std::string> &names,
                    const penelope::WorkloadSet &workload,
                    const penelope::ExperimentOptions &options,
                    const SpanScope &scope, Iteration &it);

// -------------------------------------------------------- host / time

double secondsSince(Clock::time_point t0);

/** The CPUs this process may run on. */
std::vector<int> allowedCpus();

/**
 * Pins the calling thread to one CPU while alive, then restores its
 * previous affinity.  Rotating single-threaded iterations over the
 * CPUs makes one run sample every CPU of a shared host, instead of
 * whichever one the scheduler left the thread on.
 */
class ScopedCpuPin
{
  public:
    explicit ScopedCpuPin(int cpu);
    ~ScopedCpuPin();
    ScopedCpuPin(const ScopedCpuPin &) = delete;
    ScopedCpuPin &operator=(const ScopedCpuPin &) = delete;

  private:
    std::vector<int> saved_;
};

/** Per-CPU seconds the hypervisor ran something else while this
 *  guest wanted the CPU (the steal column of /proc/stat), indexed
 *  by CPU number; empty when unavailable. */
std::vector<double> stolenSeconds();

/** Share of @p cpus' time stolen between two stolenSeconds()
 *  readings @p wall seconds apart. */
double stealShare(const std::vector<double> &before,
                  const std::vector<double> &after,
                  const std::vector<int> &cpus, double wall);

/** User + system CPU seconds of this process (all threads). */
double processCpuSeconds();

/** ru_maxrss of this process in MB. */
double peakRssMb();

/** Build type the driver was compiled as (CMAKE_BUILD_TYPE). */
std::string buildType();

/** True for an optimized build with assertions off. */
bool isReleaseBuild();

/** nproc, CPU model, compiler, build type, the library's
 *  buildInfoText() and @p commit, as "key: value" lines. */
std::vector<std::pair<std::string, std::string>>
hostContext(const std::string &commit);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
