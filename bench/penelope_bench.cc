/**
 * @file
 * The experiment multiplexer: one binary for the whole evaluation.
 *
 *   penelope_bench --list
 *   penelope_bench fig5 --stride 4 --jobs 8
 *   penelope_bench table4 sec11 --full
 *   penelope_bench --all --jobs 4
 *
 * Incremental re-runs and scale-out (see resultcache.hh):
 *
 *   penelope_bench --all --cache-dir .penelope-cache
 *       first run simulates and fills the cache; re-runs with the
 *       same options are near-instant and byte-identical.
 *
 *   penelope_bench --all --cache-dir .penelope-cache --cache-gc
 *       same (warm) run, then compacts the store down to the
 *       entries the run touched: entries keyed by a retired
 *       kResultCacheSalt or an options mix that no longer occurs
 *       are dropped (long-lived CI caches stay small).
 *
 *   penelope_bench --all --shard 0/2 --shard-out s0.bin
 *   penelope_bench --all --shard 1/2 --shard-out s1.bin   # elsewhere
 *   penelope_bench --all --merge s0.bin s1.bin
 *       each shard simulates its slice of the trace set and writes
 *       a merge-ready file of cache entries; --merge folds the
 *       shard files into statistics bit-identical to an unsharded
 *       run.
 *
 * Networked scale-out (see src/net/coordinator.hh): the same
 * slices, assigned and collected over TCP instead of by hand.
 *
 *   penelope_bench --all --serve 9077 --workers-expected 2
 *       carve the run into slices, serve them to connecting
 *       workers, reassign the slices of workers that die, then
 *       render the full statistics -- stdout is byte-identical to
 *       an unsharded run.
 *
 *   penelope_bench --worker host:9077
 *       connect to a coordinator and run assigned slices until
 *       released (experiment names and options come from the wire).
 *
 * Replaces the thirteen per-figure benchmark binaries.  Option
 * values are validated (the old harness fed `--stride x` through
 * atoi and silently ran with stride 0).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "adder/adder.hh"
#include "circuit/netlist_opt.hh"
#include "common/buildinfo.hh"
#include "common/shutdown.hh"
#include "common/threadpool.hh"
#include "core/registry.hh"
#include "core/resultcache.hh"
#include "core/shardplan.hh"
#include "core/surrogate_sweep.hh"
#include "net/coordinator.hh"
#include "net/faultinject.hh"
#include "net/worker.hh"
#include "obs/exposition.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace penelope;

namespace {

int
usage(std::ostream &os, int exit_code)
{
    os << "usage: penelope_bench [experiment...] [options]\n"
          "       penelope_bench --list\n"
          "\n"
          "options:\n"
          "  --list       list registered experiments and exit\n"
          "  --all        run every registered experiment\n"
          "  --stride N   use every N-th of the 531 traces "
          "(N >= 1, default 16)\n"
          "  --uops N     uops per trace (N >= 1, default 40000)\n"
          "  --jobs N     worker threads for per-trace simulation\n"
          "               (N >= 1, default 1; 0 = all hardware "
          "threads;\n"
          "               statistics are identical for any N)\n"
          "  --full       full workload (stride 1) at paper-scale "
          "uop counts\n"
          "  --netlist-opt-stats\n"
          "               print per-adder-topology op-count "
          "accounting of the\n"
          "               optimizing compiler and exit (CI parses "
          "this for its\n"
          "               reduction floor)\n"
          "  --no-surrogate\n"
          "               disable surrogate triage: candidate "
          "sweeps price every\n"
          "               candidate with the exact engine.  "
          "Printed statistics come\n"
          "               from the exact engine in every mode; "
          "triage only decides\n"
          "               what to evaluate\n"
          "  --surrogate-audit F\n"
          "               seeded audit fraction of pruned "
          "candidates to exact-\n"
          "               evaluate anyway (default 0.03; 1.0 = "
          "full audit, which\n"
          "               bypasses the surrogate and is "
          "byte-identical to\n"
          "               --no-surrogate)\n"
          "  --surrogate-stats\n"
          "               print the fitted surrogate's "
          "coefficients, errors, triage\n"
          "               accounting, per-candidate costs and a "
          "same-run exhaustive\n"
          "               vs pruned sweep, then exit (cache-free; "
          "CI parses the\n"
          "               speedup floors)\n"
          "  --cache-dir DIR\n"
          "               content-addressed result cache: "
          "per-trace results are looked\n"
          "               up before simulating and stored after; "
          "statistics (and stdout)\n"
          "               are byte-identical with a cold cache, a "
          "warm cache, or none\n"
          "  --cache-gc   after the run, compact the --cache-dir "
          "store down to the\n"
          "               entries this run touched (a warm run "
          "touches every entry the\n"
          "               current salt and options can produce, so "
          "entries from retired\n"
          "               salts or changed options are dropped)\n"
          "  --shard I/N  simulate only the I-th of N round-robin "
          "slices of the trace\n"
          "               set and write the results as a "
          "merge-ready shard file\n"
          "               (this run's own stdout is partial)\n"
          "  --shard-out FILE\n"
          "               shard file path (default "
          "penelope_shard_I_of_N.bin)\n"
          "  --merge F... import shard files (all remaining "
          "arguments) and render the\n"
          "               full statistics from them, bit-identical "
          "to an unsharded run\n"
          "  --serve PORT\n"
          "               coordinate a distributed run: carve the "
          "experiments into\n"
          "               slices, assign them to connecting "
          "--worker processes,\n"
          "               reassign the slices of workers that "
          "disconnect or time out,\n"
          "               then render the full statistics "
          "(byte-identical to an\n"
          "               unsharded run); port 0 picks an "
          "ephemeral port (printed on\n"
          "               stderr)\n"
          "  --workers-expected N\n"
          "               workers the operator will attach "
          "(default 1; sizes the\n"
          "               default slice carving; the run completes "
          "with any number)\n"
          "  --slices N   slice count for --serve (default "
          "4x workers-expected,\n"
          "               clamped to [workers-expected, 32])\n"
          "  --slice-timeout SECONDS\n"
          "               reassign a slice not completed within "
          "this budget\n"
          "               (default 600)\n"
          "  --worker HOST:PORT\n"
          "               run as a worker for the coordinator at "
          "HOST:PORT\n"
          "               (experiment names/options come from the "
          "wire; local flags\n"
          "               --jobs and --cache-dir still apply)\n"
          "  --worker-abort-after N\n"
          "               testing hook: drop the connection on "
          "receiving the N-th\n"
          "               assignment without replying (exercises "
          "reassignment)\n"
          "\n"
          "service mode (see src/net/coordinator.hh):\n"
          "  --serve PORT with no experiments named runs a "
          "resident service: jobs\n"
          "  arrive from --client processes and the service runs "
          "until SIGINT/SIGTERM\n"
          "  (drains bounded, flushes --cache-dir, exits 0).\n"
          "  --client HOST:PORT\n"
          "               submit the selected experiments as a job "
          "to a coordinator,\n"
          "               stream partial results, then render "
          "locally -- stdout is\n"
          "               byte-identical to a local run\n"
          "  --retry-budget N\n"
          "               re-dispatches allowed per slice before "
          "the job degrades to\n"
          "               a partial result with an explicit "
          "incomplete-slice manifest\n"
          "               (default 3)\n"
          "  --heartbeat-timeout MS\n"
          "               forfeit a slice whose worker went silent "
          "this long\n"
          "               (default 5000; workers heartbeat while "
          "running)\n"
          "  --heartbeat-interval MS\n"
          "               worker heartbeat cadence (default 1000)\n"
          "  --drain-timeout MS\n"
          "               shutdown grace for in-flight slices "
          "(default 5000)\n"
          "  --worker-reconnect MS\n"
          "               worker budget for re-connecting after a "
          "lost coordinator\n"
          "               (survives coordinator restarts; 0 = exit "
          "on loss, default)\n"
          "  --connect-budget MS\n"
          "               total wall-clock budget for the worker's "
          "initial connect\n"
          "               loop (default 30000)\n"
          "  --worker-hang-after N\n"
          "               testing hook: go silent on the N-th "
          "assignment, keeping the\n"
          "               connection open (only a heartbeat "
          "deadline catches this)\n"
          "  --worker-slow-factor F\n"
          "               testing hook: stretch each slice by F "
          "while heartbeating\n"
          "               (a slow-but-healthy worker must NOT be "
          "forfeited)\n"
          "  --fault-inject SPEC\n"
          "               deterministic protocol fault injection "
          "(also via the\n"
          "               PENELOPE_FAULTS env var), e.g. "
          "'seed=7,drop=0.03,flip=0.02'\n"
          "  --metrics-dump\n"
          "               enable the metrics registry and print a "
          "sorted 'obs: name value'\n"
          "               snapshot to stderr after the run (stdout "
          "is unchanged)\n"
          "  --metrics-port PORT\n"
          "               serve Prometheus text exposition over "
          "HTTP while running\n"
          "               (0 = ephemeral; the port is announced on "
          "stderr); under --serve\n"
          "               the exposition includes per-worker "
          "series\n"
          "  --trace-out FILE\n"
          "               write a Chrome trace_event JSON span "
          "trace (load it in\n"
          "               Perfetto or chrome://tracing)\n"
          "  --metrics-query HOST:PORT\n"
          "               fetch a running coordinator's aggregated "
          "metrics as\n"
          "               Prometheus text on stdout, then exit\n"
          "  --version    print the build configuration and exit\n"
          "  --help       this message\n";
    return exit_code;
}

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

/** Parse "HOST:PORT" for --worker / --client. */
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

/** Parse a decimal factor in [min, max] for --worker-slow-factor. */
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
    if (!end || *end != '\0' || value < min || value > max) {
        std::cerr << "penelope_bench: " << flag
                  << " expects a number in [" << min << ", " << max
                  << "], got '" << text << "'\n";
        return false;
    }
    out = value;
    return true;
}

const char *
jobStateName(net::JobState state)
{
    switch (state) {
      case net::JobState::Rejected: return "rejected";
      case net::JobState::Accepted: return "accepted";
      case net::JobState::Running: return "running";
      case net::JobState::Complete: return "complete";
      case net::JobState::Partial: return "partial";
      case net::JobState::Cancelled: return "cancelled";
    }
    return "unknown";
}

/** One stderr line of fired-fault accounting when injection is on
 *  (CI's chaos step asserts the chaos actually happened). */
void
printFaultSummary()
{
    const net::FaultInjector &injector =
        net::FaultInjector::instance();
    if (!injector.enabled())
        return;
    const net::FaultStats s = net::FaultInjector::instance().stats();
    std::cerr << "penelope_bench: fault injection: " << s.total()
              << " faults fired (" << s.drops << " drops, "
              << s.flips << " flips, " << s.truncates
              << " truncates, " << s.halfCloses << " half-closes, "
              << s.delays << " delays, " << s.stalls
              << " stalls)\n";
}

/**
 * The --client conversation: submit @p plan as one job, import the
 * streamed entry payloads into @p cache, report progress on
 * stderr.  Returns 0 when the caller should render (including a
 * lost coordinator: whatever arrived renders and the rest
 * recomputes locally, keeping stdout byte-identical), or a
 * non-zero exit code for hard failures.
 */
int
runClient(const std::string &host, std::uint16_t port,
          const ShardPlan &plan, ResultCache &cache)
{
    std::string error;
    net::Socket sock = net::Socket::connectTo(host, port, &error);
    if (!sock.valid()) {
        std::cerr << "penelope_bench: --client: " << error << "\n";
        return 4;
    }
    net::SubmitJobMessage submit;
    submit.plan = plan;
    ByteWriter w;
    submit.encode(w);
    if (!net::sendFrame(sock, net::MessageType::SubmitJob,
                        w.view())) {
        std::cerr
            << "penelope_bench: --client: submitting job failed\n";
        return 1;
    }
    for (;;) {
        if (shutdownRequested()) {
            std::cerr << "penelope_bench: client: interrupted; "
                         "rendering what arrived\n";
            return 0;
        }
        if (!sock.waitReadable(100))
            continue;
        net::Frame frame;
        if (net::recvFrame(sock, frame, 30'000) !=
            net::RecvStatus::Ok) {
            std::cerr
                << "penelope_bench: client: connection to "
                   "coordinator lost; rendering what arrived "
                   "(missing entries recompute locally)\n";
            return 0;
        }
        if (frame.type != net::MessageType::JobUpdate)
            continue;
        net::JobUpdateMessage update;
        ByteReader r(frame.payload);
        if (!update.decode(r))
            continue;
        if (update.state == net::JobState::Rejected) {
            std::cerr << "penelope_bench: --client: job rejected "
                         "by coordinator\n";
            return 5;
        }
        if (!update.entries.empty())
            cache.importFromBytes(update.entries);
        std::cerr << "penelope_bench: client: job " << update.jobId
                  << " " << jobStateName(update.state) << ", "
                  << update.slicesDone << "/" << update.slicesTotal
                  << " slices, " << update.retries << " retries\n";
        if (net::jobStateFinal(update.state)) {
            if (update.state == net::JobState::Partial) {
                std::cerr << "penelope_bench: client: partial "
                             "result; incomplete slices:";
                for (const std::uint32_t s :
                     update.incompleteSlices)
                    std::cerr << ' ' << s;
                std::cerr << " (recomputed locally)\n";
            }
            return 0;
        }
    }
}

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
        os << "  " << e.name;
        for (std::size_t pad = e.name.size(); pad <= name_width;
             ++pad)
            os << ' ';
        os << e.title << " - " << e.description << "\n";
    }
}

/**
 * The --netlist-opt-stats report: one parsable line per adder
 * topology with the optimizing compiler's per-pass accounting.
 */
void
printNetlistOptStats(std::ostream &os)
{
    LadnerFischerAdder lf(32);
    RippleCarryAdder rc(32);
    KoggeStoneAdder ks(32);
    for (const Adder *adder :
         {static_cast<const Adder *>(&lf),
          static_cast<const Adder *>(&rc),
          static_cast<const Adder *>(&ks)}) {
        const Netlist &n = adder->netlist();
        const NetlistOptStats &s = n.optStats();
        char reduction[32];
        std::snprintf(reduction, sizeof reduction, "%.1f",
                      s.reductionPercent());
        char dist[32];
        std::snprintf(dist, sizeof dist, "%.1f",
                      s.avgOperandDistance);
        os << "netlist-opt " << adder->name()
           << " gates=" << n.numGates()
           << " ops-before=" << s.opsBaseline
           << " ops-after=" << s.opsFinal
           << " reduction=" << reduction << "%"
           << " cse=" << s.cseReused
           << " const-folded=" << s.constFolded
           << " inv-fused=" << s.invFused
           << " inv-materialized=" << s.invMaterialized
           << " avg-operand-distance=" << dist << "\n";
    }
}

/**
 * The --surrogate-stats report: parsable one-line records of the
 * fitted duty -> degradation surrogate.  Everything runs
 * cache-free so the same-run exhaustive-vs-pruned sweep pays its
 * true simulation cost on both arms (CI parses the speedup floors
 * and the argmax-coverage flag from these lines).  Honors
 * --surrogate-audit and --jobs; coefficients are printed in full
 * -- no silent caps anywhere in the surrogate path.
 */
void
printSurrogateStats(std::ostream &os,
                    const ExperimentOptions &options)
{
    using clock = std::chrono::steady_clock;
    const auto ms = [](clock::duration d) {
        return std::chrono::duration<double, std::milli>(d)
            .count();
    };
    char buf[64];
    const auto num = [&buf](const char *fmt, double v) {
        std::snprintf(buf, sizeof buf, fmt, v);
        return std::string(buf);
    };

    const Engine engine(options.jobs);
    LadnerFischerAdder adder(32);
    const GuardbandModel model = GuardbandModel::paperCalibrated();
    AdderAgingAnalysis analysis(adder, model);
    const std::size_t exact_samples =
        options.attackSearchExactSamples;

    // Fit (timed): the training replays an attack-search run
    // amortises over every generation.
    TriageStats stats;
    SurrogateFitConfig fit_config;
    fit_config.seed = mixSeed(options.surrogateSeed, 0xf17);
    const auto t_fit0 = clock::now();
    const SurrogateFit fit = trainAttackSurrogate(
        analysis, options.surrogateTrainCandidates, fit_config,
        exact_samples, engine, nullptr, stats);
    const auto t_fit1 = clock::now();

    os << "surrogate-fit adder=" << adder.name()
       << " features=" << fit.featureCount()
       << " train=" << fit.trainCount
       << " holdout=" << fit.holdoutCount
       << " train-rmse=" << num("%.6f", fit.trainRmse)
       << " holdout-rmse=" << num("%.6f", fit.holdoutRmse)
       << " fit-ms=" << num("%.2f", ms(t_fit1 - t_fit0)) << "\n";
    os << "surrogate-coeffs";
    for (std::size_t c = 0; c < fit.coeffs.size(); ++c)
        os << " c" << c << "=" << num("%.6g", fit.coeffs[c]);
    os << "\n";

    // Per-candidate costs: the exact replay vs the cheap tier
    // (feature extraction + closed-form predict).
    Rng probe_rng(mixSeed(options.surrogateSeed, 0xbe9c4));
    const AttackConfig probe = randomAttackCandidate(probe_rng);
    const std::vector<double> probe_features =
        candidateFeatures(probe, adder.width());

    constexpr unsigned kExactReps = 16;
    const auto t_exact0 = clock::now();
    double exact_sink = 0.0;
    for (unsigned r = 0; r < kExactReps; ++r) {
        exact_sink += evaluateCandidateExact(analysis, probe,
                                             exact_samples)
                          .score;
    }
    const auto t_exact1 = clock::now();

    constexpr unsigned kFeatureReps = 256;
    const auto t_feat0 = clock::now();
    double feature_sink = 0.0;
    for (unsigned r = 0; r < kFeatureReps; ++r)
        feature_sink +=
            candidateFeatures(probe, adder.width()).front();
    const auto t_feat1 = clock::now();

    constexpr unsigned kPredictReps = 1 << 18;
    const auto t_pred0 = clock::now();
    double predict_sink = 0.0;
    for (unsigned r = 0; r < kPredictReps; ++r)
        predict_sink += fit.predict(probe_features);
    const auto t_pred1 = clock::now();

    const double exact_ns =
        ms(t_exact1 - t_exact0) * 1e6 / kExactReps;
    const double feature_ns =
        ms(t_feat1 - t_feat0) * 1e6 / kFeatureReps;
    const double predict_ns =
        ms(t_pred1 - t_pred0) * 1e6 / kPredictReps;
    os << "surrogate-cost exact-ns=" << num("%.0f", exact_ns)
       << " feature-ns=" << num("%.0f", feature_ns)
       << " predict-ns=" << num("%.1f", predict_ns)
       << " predict-speedup=" << num("%.1f", exact_ns / predict_ns)
       << " cheap-tier-speedup="
       << num("%.1f", exact_ns / (feature_ns + predict_ns))
       << " sink=" << num("%.3g", exact_sink + feature_sink +
                                      predict_sink)
       << "\n";

    // Same-run sweep: one candidate pool, exhaustive then pruned,
    // no cache on either arm.
    constexpr std::size_t kSweepPool = 1024;
    std::vector<AttackConfig> pool;
    pool.reserve(kSweepPool);
    for (std::size_t i = 0; i < kSweepPool; ++i) {
        Rng rng(mixSeed(options.surrogateSeed,
                        0x9001'0000ULL + i));
        pool.push_back(randomAttackCandidate(rng));
    }

    CandidateSweepConfig exhaustive_config;
    exhaustive_config.triage = false;
    exhaustive_config.exactSamples = exact_samples;

    CandidateSweepConfig pruned_config = exhaustive_config;
    pruned_config.triage = true;
    pruned_config.triageConfig.topK = options.surrogateTopK;
    pruned_config.triageConfig.auditFraction =
        options.surrogateAuditFraction;
    pruned_config.triageConfig.auditSeed =
        mixSeed(options.surrogateSeed, 0xa0d17);

    const auto t_ex0 = clock::now();
    const CandidateSweepResult exhaustive = sweepAttackCandidates(
        analysis, pool, nullptr, exhaustive_config, engine,
        nullptr);
    const auto t_ex1 = clock::now();

    const auto t_pr0 = clock::now();
    const CandidateSweepResult pruned = sweepAttackCandidates(
        analysis, pool, &fit, pruned_config, engine, nullptr);
    const auto t_pr1 = clock::now();
    stats.merge(pruned.stats);

    const bool covered =
        std::find(pruned.evaluated.begin(), pruned.evaluated.end(),
                  exhaustive.bestIndex) != pruned.evaluated.end();
    const double exhaustive_ms = ms(t_ex1 - t_ex0);
    const double pruned_ms = ms(t_pr1 - t_pr0);
    const double pruned_with_fit_ms =
        pruned_ms + ms(t_fit1 - t_fit0);
    os << "surrogate-sweep pool=" << kSweepPool
       << " exhaustive-evals=" << exhaustive.evaluated.size()
       << " pruned-evals=" << pruned.evaluated.size()
       << " exhaustive-ms=" << num("%.2f", exhaustive_ms)
       << " pruned-ms=" << num("%.2f", pruned_ms)
       << " pruned-with-fit-ms="
       << num("%.2f", pruned_with_fit_ms)
       << " speedup=" << num("%.2f", exhaustive_ms / pruned_ms)
       << " speedup-with-fit="
       << num("%.2f", exhaustive_ms / pruned_with_fit_ms)
       << " argmax-covered=" << (covered ? "yes" : "no")
       << " best-score-match="
       << (pruned.best.score == exhaustive.best.score ? "yes"
                                                      : "no")
       << "\n";

    os << "surrogate-triage scored=" << stats.candidatesScored
       << " pruned=" << stats.pruned
       << " exact=" << stats.exactEvaluated
       << " audited=" << stats.audited
       << " train=" << stats.trainEvaluated << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    registerBuiltinExperiments();
    {
        std::string fault_error;
        if (!net::FaultInjector::instance().configureFromEnv(
                &fault_error)) {
            std::cerr << "penelope_bench: PENELOPE_FAULTS: "
                      << fault_error << "\n";
            return 2;
        }
    }

    ExperimentOptions options;
    options.traceStride = 16;
    options.uopsPerTrace = 40'000;
    options.cacheUops = 40'000;

    std::vector<std::string> names;
    std::vector<std::string> merge_files;
    std::string cache_dir;
    std::string shard_out;
    bool run_all = false;
    bool uops_set = false;
    bool full = false;
    bool shard_mode = false;
    bool merge_mode = false;
    bool cache_gc = false;
    bool opt_stats_mode = false;
    bool surrogate_stats_mode = false;

    bool serve_mode = false;
    std::uint16_t serve_port = 0;
    unsigned workers_expected = 1;
    unsigned slices = 0; // 0 = derive from workers_expected
    int slice_timeout_ms = 600'000;

    bool worker_mode = false;
    std::string worker_host;
    std::uint16_t worker_port = 0;
    unsigned worker_abort_after = 0;
    unsigned worker_hang_after = 0;
    double worker_slow_factor = 1.0;
    int worker_reconnect_ms = 0;
    int connect_budget_ms = 30'000;

    bool client_mode = false;
    std::string client_host;
    std::uint16_t client_port = 0;

    unsigned retry_budget = 3;
    int heartbeat_timeout_ms = 5'000;
    int heartbeat_interval_ms = 1'000;
    int drain_timeout_ms = 5'000;

    bool metrics_dump = false;
    bool metrics_port_set = false;
    std::uint16_t metrics_port = 0;
    std::string trace_out;
    bool metrics_query_mode = false;
    std::string metrics_query_host;
    std::uint16_t metrics_query_port = 0;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::uint64_t value = 0;
        if (!std::strcmp(arg, "--help")) {
            return usage(std::cout, 0);
        } else if (!std::strcmp(arg, "--version")) {
            std::cout << buildInfoText();
            return 0;
        } else if (!std::strcmp(arg, "--metrics-dump")) {
            metrics_dump = true;
        } else if (!std::strcmp(arg, "--metrics-port")) {
            if (!parseCount("--metrics-port",
                            i + 1 < argc ? argv[++i] : nullptr, 0,
                            65535, value))
                return 2;
            metrics_port = static_cast<std::uint16_t>(value);
            metrics_port_set = true;
        } else if (!std::strcmp(arg, "--trace-out")) {
            if (i + 1 >= argc) {
                std::cerr << "penelope_bench: --trace-out "
                             "requires a path\n";
                return 2;
            }
            trace_out = argv[++i];
        } else if (!std::strcmp(arg, "--metrics-query")) {
            if (!parseHostPort("--metrics-query",
                               i + 1 < argc ? argv[++i] : nullptr,
                               metrics_query_host,
                               metrics_query_port))
                return 2;
            metrics_query_mode = true;
        } else if (!std::strcmp(arg, "--list")) {
            listExperiments(std::cout);
            return 0;
        } else if (!std::strcmp(arg, "--all")) {
            run_all = true;
        } else if (!std::strcmp(arg, "--full")) {
            full = true;
        } else if (!std::strcmp(arg, "--stride")) {
            if (!parseCount("--stride", i + 1 < argc ? argv[++i]
                                                     : nullptr,
                            1, 531, value))
                return 2;
            options.traceStride = static_cast<unsigned>(value);
        } else if (!std::strcmp(arg, "--uops")) {
            if (!parseCount("--uops", i + 1 < argc ? argv[++i]
                                                   : nullptr,
                            1, 1'000'000'000, value))
                return 2;
            options.uopsPerTrace =
                static_cast<std::size_t>(value);
            options.cacheUops = options.uopsPerTrace;
            uops_set = true;
        } else if (!std::strcmp(arg, "--jobs")) {
            if (!parseCount("--jobs", i + 1 < argc ? argv[++i]
                                                   : nullptr,
                            0, 4096, value))
                return 2;
            options.jobs = value == 0
                ? defaultJobs()
                : static_cast<unsigned>(value);
        } else if (!std::strcmp(arg, "--netlist-opt-stats")) {
            opt_stats_mode = true;
        } else if (!std::strcmp(arg, "--no-surrogate")) {
            options.surrogateEnabled = false;
        } else if (!std::strcmp(arg, "--surrogate-audit")) {
            if (!parseFactor("--surrogate-audit",
                             i + 1 < argc ? argv[++i] : nullptr,
                             0.0, 1.0,
                             options.surrogateAuditFraction))
                return 2;
        } else if (!std::strcmp(arg, "--surrogate-stats")) {
            surrogate_stats_mode = true;
        } else if (!std::strcmp(arg, "--cache-dir")) {
            if (i + 1 >= argc) {
                std::cerr << "penelope_bench: --cache-dir "
                             "requires a path\n";
                return 2;
            }
            cache_dir = argv[++i];
        } else if (!std::strcmp(arg, "--cache-gc")) {
            cache_gc = true;
        } else if (!std::strcmp(arg, "--shard")) {
            if (!parseShard(i + 1 < argc ? argv[++i] : nullptr,
                            options.shardIndex,
                            options.shardCount))
                return 2;
            shard_mode = true;
        } else if (!std::strcmp(arg, "--shard-out")) {
            if (i + 1 >= argc) {
                std::cerr << "penelope_bench: --shard-out "
                             "requires a path\n";
                return 2;
            }
            shard_out = argv[++i];
        } else if (!std::strcmp(arg, "--serve")) {
            if (!parseCount("--serve", i + 1 < argc ? argv[++i]
                                                    : nullptr,
                            0, 65535, value))
                return 2;
            serve_port = static_cast<std::uint16_t>(value);
            serve_mode = true;
        } else if (!std::strcmp(arg, "--workers-expected")) {
            if (!parseCount("--workers-expected",
                            i + 1 < argc ? argv[++i] : nullptr, 1,
                            1024, value))
                return 2;
            workers_expected = static_cast<unsigned>(value);
        } else if (!std::strcmp(arg, "--slices")) {
            if (!parseCount("--slices", i + 1 < argc ? argv[++i]
                                                     : nullptr,
                            1, 531, value))
                return 2;
            slices = static_cast<unsigned>(value);
        } else if (!std::strcmp(arg, "--slice-timeout")) {
            if (!parseCount("--slice-timeout",
                            i + 1 < argc ? argv[++i] : nullptr, 1,
                            86'400, value))
                return 2;
            slice_timeout_ms = static_cast<int>(value) * 1000;
        } else if (!std::strcmp(arg, "--worker")) {
            if (!parseHostPort("--worker",
                               i + 1 < argc ? argv[++i] : nullptr,
                               worker_host, worker_port))
                return 2;
            worker_mode = true;
        } else if (!std::strcmp(arg, "--worker-abort-after")) {
            if (!parseCount("--worker-abort-after",
                            i + 1 < argc ? argv[++i] : nullptr, 1,
                            1'000, value))
                return 2;
            worker_abort_after = static_cast<unsigned>(value);
        } else if (!std::strcmp(arg, "--worker-hang-after")) {
            if (!parseCount("--worker-hang-after",
                            i + 1 < argc ? argv[++i] : nullptr, 1,
                            1'000, value))
                return 2;
            worker_hang_after = static_cast<unsigned>(value);
        } else if (!std::strcmp(arg, "--worker-slow-factor")) {
            if (!parseFactor("--worker-slow-factor",
                             i + 1 < argc ? argv[++i] : nullptr,
                             1.0, 100.0, worker_slow_factor))
                return 2;
        } else if (!std::strcmp(arg, "--worker-reconnect")) {
            if (!parseCount("--worker-reconnect",
                            i + 1 < argc ? argv[++i] : nullptr, 0,
                            3'600'000, value))
                return 2;
            worker_reconnect_ms = static_cast<int>(value);
        } else if (!std::strcmp(arg, "--connect-budget")) {
            if (!parseCount("--connect-budget",
                            i + 1 < argc ? argv[++i] : nullptr, 1,
                            3'600'000, value))
                return 2;
            connect_budget_ms = static_cast<int>(value);
        } else if (!std::strcmp(arg, "--client")) {
            if (!parseHostPort("--client",
                               i + 1 < argc ? argv[++i] : nullptr,
                               client_host, client_port))
                return 2;
            client_mode = true;
        } else if (!std::strcmp(arg, "--retry-budget")) {
            if (!parseCount("--retry-budget",
                            i + 1 < argc ? argv[++i] : nullptr, 0,
                            100, value))
                return 2;
            retry_budget = static_cast<unsigned>(value);
        } else if (!std::strcmp(arg, "--heartbeat-timeout")) {
            if (!parseCount("--heartbeat-timeout",
                            i + 1 < argc ? argv[++i] : nullptr, 1,
                            3'600'000, value))
                return 2;
            heartbeat_timeout_ms = static_cast<int>(value);
        } else if (!std::strcmp(arg, "--heartbeat-interval")) {
            if (!parseCount("--heartbeat-interval",
                            i + 1 < argc ? argv[++i] : nullptr, 1,
                            3'600'000, value))
                return 2;
            heartbeat_interval_ms = static_cast<int>(value);
        } else if (!std::strcmp(arg, "--drain-timeout")) {
            if (!parseCount("--drain-timeout",
                            i + 1 < argc ? argv[++i] : nullptr, 0,
                            3'600'000, value))
                return 2;
            drain_timeout_ms = static_cast<int>(value);
        } else if (!std::strcmp(arg, "--fault-inject")) {
            if (i + 1 >= argc) {
                std::cerr << "penelope_bench: --fault-inject "
                             "requires a spec\n";
                return 2;
            }
            net::FaultConfig fault_config;
            std::string fault_error;
            if (!net::FaultConfig::parse(argv[++i], fault_config,
                                         &fault_error)) {
                std::cerr << "penelope_bench: --fault-inject: "
                          << fault_error << "\n";
                return 2;
            }
            net::FaultInjector::instance().configure(fault_config);
        } else if (!std::strcmp(arg, "--merge")) {
            // --merge consumes every remaining argument as a
            // shard file (experiment names go before it).
            if (i + 1 >= argc) {
                std::cerr << "penelope_bench: --merge requires "
                             "at least one shard file\n";
                return 2;
            }
            while (++i < argc)
                merge_files.push_back(argv[i]);
            merge_mode = true;
        } else if (arg[0] == '-') {
            std::cerr << "penelope_bench: unknown option '" << arg
                      << "'\n";
            return usage(std::cerr, 2);
        } else {
            names.push_back(arg);
        }
    }

    // Observability session: emission stays runtime-off unless a
    // flag asks for it, and every sink writes to stderr, a file or
    // a socket -- stdout carries only experiment statistics either
    // way.  The guard tears everything down on *every* exit path
    // (worker, serve, client, local) in declaration order:
    // coordinator_for_metrics outlives the guard, whose destructor
    // joins the server thread before anything else unwinds.
    std::atomic<net::Coordinator *> coordinator_for_metrics{
        nullptr};
    struct ObsGuard
    {
        bool dump = false;
        obs::MetricsServer server;
        ~ObsGuard()
        {
            server.stop();
            obs::Tracer::instance().close();
            if (dump) {
                std::cerr << obs::renderDump(
                    obs::Registry::instance().scrape());
            }
        }
    } obs_guard;
    obs_guard.dump = metrics_dump;
    if (metrics_dump || metrics_port_set || !trace_out.empty())
        obs::Registry::instance().setEnabled(true);
    if (!trace_out.empty()) {
        std::string error;
        if (!obs::Tracer::instance().open(trace_out, &error)) {
            std::cerr << "penelope_bench: --trace-out: " << error
                      << "\n";
            return 2;
        }
    }
    if (metrics_port_set) {
        std::string error;
        const auto provider =
            [&coordinator_for_metrics]() -> obs::LabeledSnapshots {
            net::Coordinator *c = coordinator_for_metrics.load(
                std::memory_order_acquire);
            return c ? c->workerSnapshots()
                     : obs::LabeledSnapshots{};
        };
        if (!obs_guard.server.start(metrics_port, provider,
                                    &error)) {
            std::cerr << "penelope_bench: --metrics-port: "
                      << error << "\n";
            return 2;
        }
        std::cerr << "penelope_bench: metrics on port "
                  << obs_guard.server.port() << "\n";
    }

    if (metrics_query_mode) {
        std::string error;
        net::Socket sock = net::Socket::connectTo(
            metrics_query_host, metrics_query_port, &error);
        if (!sock.valid()) {
            std::cerr << "penelope_bench: --metrics-query: "
                      << error << "\n";
            return 4;
        }
        net::MetricsQueryMessage query;
        ByteWriter w;
        query.encode(w);
        if (!net::sendFrame(sock, net::MessageType::MetricsQuery,
                            w.view())) {
            std::cerr << "penelope_bench: --metrics-query: send "
                         "failed\n";
            return 1;
        }
        net::Frame frame;
        if (net::recvFrame(sock, frame, 10'000) !=
                net::RecvStatus::Ok ||
            frame.type != net::MessageType::MetricsSnapshot) {
            std::cerr << "penelope_bench: --metrics-query: no "
                         "snapshot (coordinator without metrics "
                         "support?)\n";
            return 1;
        }
        net::MetricsSnapshotMessage snapshot;
        ByteReader r(frame.payload);
        if (!snapshot.decode(r)) {
            std::cerr << "penelope_bench: --metrics-query: "
                         "undecodable snapshot\n";
            return 1;
        }
        std::cout << snapshot.text;
        return 0;
    }

    if (opt_stats_mode) {
        printNetlistOptStats(std::cout);
        return 0;
    }

    if (surrogate_stats_mode) {
        // After the parse loop so --jobs/--surrogate-audit apply
        // in any argument order.
        printSurrogateStats(std::cout, options);
        return 0;
    }

    if (full) {
        options.traceStride = 1;
        options.mechanismTimeScale = 0.2;
        if (!uops_set) {
            options.uopsPerTrace = 200'000;
            options.cacheUops = 200'000;
        }
    }

    if (worker_mode) {
        // A worker's run is defined entirely by the coordinator:
        // local experiment selection or scale-out flags would be
        // silently ignored, so reject them loudly instead.
        if (!names.empty() || run_all || shard_mode ||
            merge_mode || serve_mode || client_mode || cache_gc) {
            std::cerr << "penelope_bench: --worker takes no "
                         "experiment names and cannot be combined "
                         "with --all/--shard/--merge/--serve/"
                         "--client/--cache-gc (the coordinator "
                         "decides the run)\n";
            return 2;
        }
        installShutdownHandlers();
        std::optional<ThreadPool> worker_pool;
        if (options.jobs > 1)
            worker_pool.emplace(options.jobs);

        net::WorkerConfig config;
        config.host = worker_host;
        config.port = worker_port;
        config.jobs = options.jobs;
        config.pool = worker_pool ? &*worker_pool : nullptr;
        config.hostCpus = defaultJobs();
        config.connectBudgetMs = connect_budget_ms;
        config.heartbeatIntervalMs = heartbeat_interval_ms;
        config.reconnectBudgetMs = worker_reconnect_ms;
        config.stopRequested = [] { return shutdownRequested(); };
        config.abortAfterAssignments = worker_abort_after;
        config.hangAfterAssignments = worker_hang_after;
        config.slowFactor = worker_slow_factor;

        // Disk-backed when --cache-dir is given: a restarted
        // worker then answers re-assigned slices from its store.
        ResultCache cache(cache_dir);
        const WorkloadSet workload;
        net::WorkerStats stats;
        std::string error;
        const net::WorkerOutcome outcome = net::runWorker(
            config, workload, cache, &stats, &error);
        std::cerr << "penelope_bench: worker: ran "
                  << stats.slicesRun << " slices in "
                  << stats.simSeconds << " s, sent "
                  << stats.sentBytes << " entry bytes ("
                  << stats.fullExportBytes
                  << " if resent in full), "
                  << stats.heartbeatsSent << " heartbeats, "
                  << stats.reconnects << " reconnects\n";
        printFaultSummary();
        switch (outcome) {
          case net::WorkerOutcome::Finished:
            return 0;
          case net::WorkerOutcome::Drained:
            std::cerr << "penelope_bench: worker: drained after "
                         "stop request\n";
            return 0;
          case net::WorkerOutcome::Aborted:
          case net::WorkerOutcome::Hung:
            std::cerr << "penelope_bench: worker: " << error
                      << "\n";
            return 3;
          case net::WorkerOutcome::ConnectFailed:
            // Distinct from protocol-level rejection: the operator
            // fixes an address/firewall here, a version skew there.
            std::cerr << "penelope_bench: worker: coordinator "
                         "unreachable: "
                      << error << "\n";
            return 4;
          case net::WorkerOutcome::BadAssignment:
            std::cerr << "penelope_bench: worker: protocol "
                         "rejection: "
                      << error << "\n";
            return 5;
          case net::WorkerOutcome::ConnectionLost:
            break;
        }
        std::cerr << "penelope_bench: worker: " << error << "\n";
        return 1;
    }

    // --serve with no experiments named: a resident service.  No
    // plan of its own -- every job arrives over the wire via
    // --client -- and it runs until SIGINT/SIGTERM.
    const bool resident_serve =
        serve_mode && names.empty() && !run_all;

    const ExperimentRegistry &registry =
        ExperimentRegistry::instance();
    if (run_all) {
        names.clear();
        for (const Experiment &e : registry.experiments())
            names.push_back(e.name);
    }
    if (names.empty() && !resident_serve) {
        std::cerr << "penelope_bench: no experiment given\n\n";
        listExperiments(std::cerr);
        std::cerr << '\n';
        return usage(std::cerr, 2);
    }

    // Validate every name before running anything.
    bool unknown = false;
    for (const std::string &name : names) {
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

    if (shard_mode && merge_mode) {
        std::cerr << "penelope_bench: --shard and --merge are "
                     "mutually exclusive\n";
        return 2;
    }
    if (serve_mode && (shard_mode || merge_mode || cache_gc)) {
        std::cerr << "penelope_bench: --serve cannot be combined "
                     "with --shard/--merge/--cache-gc (the "
                     "coordinator carves and merges itself)\n";
        return 2;
    }
    if (client_mode &&
        (serve_mode || shard_mode || merge_mode || cache_gc)) {
        std::cerr << "penelope_bench: --client cannot be combined "
                     "with --serve/--shard/--merge/--cache-gc "
                     "(the coordinator carves and the client "
                     "merges from the stream)\n";
        return 2;
    }
    if (!shard_out.empty() && !shard_mode) {
        std::cerr << "penelope_bench: --shard-out requires "
                     "--shard I/N\n";
        return 2;
    }
    if (cache_gc && cache_dir.empty()) {
        std::cerr << "penelope_bench: --cache-gc requires "
                     "--cache-dir DIR\n";
        return 2;
    }
    if (cache_gc && shard_mode) {
        // A shard run only touches its own slice of the trace set;
        // GC'ing on its liveness would wipe every other shard's
        // entries from a shared store.
        std::cerr << "penelope_bench: --cache-gc cannot be "
                     "combined with --shard (a shard run touches "
                     "only its slice)\n";
        return 2;
    }

    // A shard run's statistic-steering options flow through the
    // same ShardPlan the networked coordinator ships to workers:
    // one definition of "slice i of N of this run" for the manual
    // and the distributed path alike.
    if (shard_mode) {
        const ShardPlan plan = ShardPlan::fromOptions(
            names, options, options.shardCount);
        ExperimentOptions derived =
            plan.sliceOptions(options.shardIndex);
        derived.jobs = options.jobs;
        options = derived;
    }

    // One persistent worker pool for the whole run: every parallel
    // region of every experiment reuses it instead of spinning its
    // own (measurable for --all, which strings many small regions
    // together).  jobs <= 1 stays a true serial run with no pool.
    std::optional<ThreadPool> pool;
    if (options.jobs > 1) {
        pool.emplace(options.jobs);
        options.pool = &*pool;
    }

    // The content-addressed result layer: disk-backed for
    // --cache-dir, memory-backed for shard/merge/serve runs (whose
    // entries travel through shard files or the wire instead).
    // Without any of the flags the run is cache-free,
    // byte-identical to the cached paths by the resultcache.hh
    // contract.
    std::optional<ResultCache> cache;
    if (!cache_dir.empty() || shard_mode || merge_mode ||
        serve_mode || client_mode) {
        cache.emplace(cache_dir);
        options.cache = &*cache;
    }
    for (const std::string &file : merge_files) {
        if (!cache->importFrom(file)) {
            // A missing/foreign shard file only costs recompute
            // time; the merged statistics stay correct.
            std::cerr << "penelope_bench: warning: could not "
                         "import shard file '"
                      << file << "' (entries will be "
                                 "recomputed)\n";
        }
    }

    if (serve_mode) {
        installShutdownHandlers();

        net::CoordinatorConfig config;
        config.port = serve_port;
        config.workersExpected = workers_expected;
        config.sliceTimeoutMs = slice_timeout_ms;
        config.heartbeatTimeoutMs = heartbeat_timeout_ms;
        config.retryBudget = retry_budget;
        config.drainTimeoutMs = drain_timeout_ms;
        config.stopRequested = [] { return shutdownRequested(); };

        std::optional<net::Coordinator> coordinator;
        if (resident_serve) {
            coordinator.emplace(*cache, config);
        } else {
            // Carve the run.  More slices than workers smooths
            // load imbalance and shrinks the redo unit when a
            // worker dies; 4x is plenty without inflating
            // per-slice shared-phase overhead (workers cache
            // shared phases across slices).  Capped at the trace
            // count's slice bound (531): a plan with more slices
            // would fail every worker's validation.
            if (slices == 0)
                slices = std::min(4 * workers_expected, 32u);
            slices = std::min(std::max(slices, workers_expected),
                              531u);
            const ShardPlan plan =
                ShardPlan::fromOptions(names, options, slices);
            coordinator.emplace(plan, *cache, config);
        }

        coordinator_for_metrics.store(&*coordinator,
                                      std::memory_order_release);
        std::string error;
        if (!coordinator->start(&error)) {
            std::cerr << "penelope_bench: --serve: " << error
                      << "\n";
            return 1;
        }
        std::cerr << "penelope_bench: coordinator listening on "
                     "port "
                  << coordinator->port();
        if (resident_serve) {
            std::cerr << " (resident service; submit jobs with: "
                         "penelope_bench <experiments> --client "
                         "<host>:"
                      << coordinator->port()
                      << "; stop with SIGINT/SIGTERM)";
        } else {
            std::cerr << " (" << slices << " slices, expecting "
                      << workers_expected
                      << " workers; attach with: penelope_bench "
                         "--worker <host>:"
                      << coordinator->port() << ")";
        }
        std::cerr << "\n";
        coordinator->run();

        // The coordinator leaves scope on both exits below: stop
        // serving its per-worker view first (stop() joins, so no
        // provider call is in flight afterwards).
        coordinator_for_metrics.store(nullptr,
                                      std::memory_order_release);
        obs_guard.server.stop();

        const net::CoordinatorStats &cs = coordinator->stats();
        std::cerr << "penelope_bench: coordinator: " << cs.slices
                  << " slices done, " << cs.assignments
                  << " assignments (" << cs.reassignments
                  << " reassigned, " << cs.duplicateResults
                  << " duplicate results), " << cs.workersSeen
                  << " workers (host_cpus:";
        for (std::uint32_t cpus : cs.workerCpus)
            std::cerr << ' ' << cpus;
        std::cerr << "), " << cs.resultBytes
                  << " entry bytes received\n";
        std::cerr << "penelope_bench: coordinator: wall "
                  << cs.wallSeconds << " s, worker simulation "
                  << cs.workerSimSeconds << " s, entry import "
                  << cs.importSeconds
                  << " s (local host_cpus: " << defaultJobs()
                  << ")\n";
        std::cerr << "penelope_bench: coordinator: "
                  << cs.heartbeats << " heartbeats, "
                  << cs.hungForfeits << " hung-worker forfeits, "
                  << cs.slicesFailed
                  << " slices failed (retry budget "
                  << retry_budget << "), " << cs.jobsSubmitted
                  << " jobs submitted, " << cs.jobsFinished
                  << " finished\n";
        if (!resident_serve) {
            const std::vector<std::uint32_t> manifest =
                coordinator->incompleteSlices(0);
            if (!manifest.empty()) {
                std::cerr << "penelope_bench: coordinator: "
                             "partial result; incomplete slices:";
                for (const std::uint32_t s : manifest)
                    std::cerr << ' ' << s;
                std::cerr << " (recomputed locally below)\n";
            }
        }
        if (resident_serve || shutdownRequested()) {
            // Graceful service exit: everything collected so far
            // is persisted (when --cache-dir is attached), so a
            // restarted service serves it warm; no local render.
            const std::size_t flushed = cache->flushToDisk();
            if (flushed)
                std::cerr << "penelope_bench: coordinator: "
                             "flushed "
                          << flushed
                          << " imported entries to the cache "
                             "store\n";
            printFaultSummary();
            return 0;
        }
        // Fall through: the render below draws every per-trace
        // result from the collected entries (the --merge path), so
        // stdout is byte-identical to an unsharded run -- even for
        // a Partial job, whose missing slices recompute locally.
    }

    if (client_mode) {
        if (slices == 0)
            slices = std::min(4 * workers_expected, 32u);
        slices = std::min(std::max(slices, workers_expected),
                          531u);
        const ShardPlan plan =
            ShardPlan::fromOptions(names, options, slices);
        installShutdownHandlers();
        const int rc =
            runClient(client_host, client_port, plan, *cache);
        if (rc != 0)
            return rc;
        // Fall through to the render: streamed entries serve as
        // the cache, anything missing recomputes locally.
    }

    const WorkloadSet workload;
    for (const std::string &name : names) {
        const Experiment *experiment = registry.find(name);
        const ExperimentContext ctx{workload, options, std::cout};
        const bool timed = obs::enabled();
        const std::uint64_t t0 =
            timed ? obs::monotonicMicros() : 0;
        {
            const obs::ScopedSpan span(name, "experiment");
            experiment->run(ctx);
        }
        if (timed) {
            PENELOPE_OBS_HISTOGRAM("engine.experiment_latency",
                                   "us")
                .record(obs::monotonicMicros() - t0);
        }
    }

    if (shard_mode) {
        if (shard_out.empty()) {
            shard_out = "penelope_shard_" +
                std::to_string(options.shardIndex) + "_of_" +
                std::to_string(options.shardCount) + ".bin";
        }
        if (!cache->exportTo(shard_out)) {
            std::cerr << "penelope_bench: failed to write shard "
                         "file '"
                      << shard_out << "'\n";
            return 1;
        }
        std::cerr << "penelope_bench: wrote "
                  << cache->size() << " entries to " << shard_out
                  << " (merge with: penelope_bench ... --merge "
                  << shard_out << " ...)\n";
    }
    if (cache_gc) {
        // The experiments above touched every entry the current
        // salt/options can key; everything else is unreachable.
        if (!run_all) {
            std::cerr << "penelope_bench: cache-gc: note: "
                         "liveness is THIS run's experiment "
                         "selection; entries of experiments not "
                         "run are dropped (use --all to keep the "
                         "whole catalog warm)\n";
        }
        const std::size_t dropped = cache->compact();
        std::cerr << "penelope_bench: cache-gc: kept "
                  << cache->size() << " entries, dropped "
                  << dropped << "\n";
    }
    if (cache) {
        // Stats go to stderr: stdout must stay byte-identical
        // across cold, warm, sharded and cache-free runs.
        const ResultCache::Stats s = cache->stats();
        std::cerr << "penelope_bench: result cache: " << s.hits
                  << " hits, " << s.misses << " misses, "
                  << s.stores << " stores";
        if (s.decodeFailures || s.badRecords) {
            std::cerr << ", " << s.decodeFailures
                      << " undecodable payloads, " << s.badRecords
                      << " bad records dropped";
        }
        std::cerr << "\n";
    }
    printFaultSummary();
    return 0;
}
