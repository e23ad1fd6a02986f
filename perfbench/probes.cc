#include "probes.hh"

#include <algorithm>

#include "adder/adder.hh"
#include "adder/analysis.hh"
#include "cache/timing.hh"
#include "circuit/aging.hh"
#include "circuit/netlist.hh"
#include "common/rng.hh"
#include "core/engine.hh"
#include "core/surrogate_sweep.hh"
#include "pipeline/pipeline.hh"
#include "regfile/driver.hh"
#include "scheduler/driver.hh"
#include "trace/workload.hh"

namespace perfbench {

namespace {

using namespace penelope;

constexpr std::size_t kUops = 20'000;  ///< uops per trace probe
constexpr unsigned kTraces = 4;        ///< traces per probe
constexpr unsigned kReps = 5;          ///< repetitions (median)

/** Median wall seconds of @p reps calls of @p body. */
template <class Body>
double
medianSeconds(unsigned reps, Body &&body)
{
    std::vector<double> times;
    for (unsigned r = 0; r < reps; ++r) {
        const Clock::time_point t0 = Clock::now();
        body();
        times.push_back(secondsSince(t0));
    }
    return summarize(times).median;
}

/** A materialised trace as a uop source, so a replay's time
 *  excludes trace generation. */
struct UopSource
{
    const std::vector<Uop> &uops;
    std::size_t next_ = 0;

    Uop next() { return uops[next_++ % uops.size()]; }
};

/** Keeps a result alive so the optimizer cannot drop its work. */
template <class T>
void
keep(const T &value)
{
    asm volatile("" : : "r"(&value) : "memory");
}

} // namespace

void
runProbes(const ProbeInputs &in, MetricSet &metrics)
{
    std::vector<unsigned> traces(
        in.traces.begin(),
        in.traces.begin() +
            std::min<std::size_t>(kTraces, in.traces.size()));
    const double uops =
        static_cast<double>(kUops) * static_cast<double>(traces.size());

    // Trace generation; per-trace times are subtracted below from
    // the consumers that pull uops straight from a generator.
    std::vector<double> gen_s;
    for (const unsigned t : traces) {
        gen_s.push_back(medianSeconds(kReps, [&] {
            TraceGenerator gen = in.workload.generator(t);
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < kUops; ++i)
                acc += static_cast<std::uint64_t>(gen.next().cls);
            keep(acc);
        }));
    }
    double gen_total = 0.0;
    for (const double s : gen_s)
        gen_total += s;
    metrics.add("trace.gen_ns_per_uop", "ns/uop", gen_total * 1e9 / uops);

    double sched_s = 0.0;
    double regfile_s = 0.0;
    double memsim_s = 0.0;
    double pipeline_s = 0.0;
    for (std::size_t k = 0; k < traces.size(); ++k) {
        const Trace trace = in.workload.generate(traces[k], kUops);
        sched_s += medianSeconds(kReps, [&] {
            Scheduler sched{SchedulerConfig{}};
            SchedulerReplay replay(sched, SchedReplayConfig{});
            UopSource src{trace.uops};
            keep(replay.run(src, kUops));
        });
        regfile_s += medianSeconds(kReps, [&] {
            RegisterFile rf{RegFileConfig()};
            rf.enableIsv(true);
            RegFileReplay replay(rf, RegReplayConfig{});
            UopSource src{trace.uops};
            keep(replay.run(src, kUops));
        });
        // These two pull from a generator themselves: self time is
        // the run minus generating the same uops.
        memsim_s += medianSeconds(kReps, [&] {
            MemTimingSim sim(CacheConfig(), CacheConfig::tlb(128, 8),
                             MemTimingParams(),
                             MechanismKind::LineFixed50,
                             MechanismKind::None, 0.05);
            TraceGenerator gen = in.workload.generator(traces[k]);
            keep(sim.run(gen, kUops));
        }) - gen_s[k];
        pipeline_s += medianSeconds(kReps, [&] {
            Pipeline pipe{PipelineConfig{}};
            TraceGenerator gen = in.workload.generator(traces[k]);
            keep(pipe.run(gen, kUops));
        }) - gen_s[k];
    }
    metrics.add("scheduler.replay_ns_per_uop", "ns/uop",
                sched_s * 1e9 / uops);
    metrics.add("regfile.replay_ns_per_uop", "ns/uop",
                regfile_s * 1e9 / uops);
    metrics.add("cache.memsim_ns_per_uop", "ns/uop",
                memsim_s * 1e9 / uops);
    metrics.add("pipeline.ns_per_uop", "ns/uop", pipeline_s * 1e9 / uops);

    // Netlist evaluation on the workload's adder operands, in the
    // lane width the library prefers on this host.
    const unsigned net_w = Netlist::preferredBatchWords();
    const std::size_t lanes = 64 * net_w;
    TraceGenerator op_gen = in.workload.generator(traces.front());
    const std::vector<OperandSample> ops =
        collectAdderOperands(op_gen, 16'384);
    const std::size_t batches = ops.size() / lanes;
    std::vector<std::uint64_t> a(ops.size()), b(ops.size());
    std::vector<std::uint64_t> cin(batches * net_w, 0);
    for (std::size_t i = 0; i < batches * lanes; ++i) {
        a[i] = ops[i].a;
        b[i] = ops[i].b;
        if (ops[i].cin)
            cin[i / 64] |= std::uint64_t(1) << (i % 64);
    }
    // The 32-bit adders of Figures 4 and 5.
    const LadnerFischerAdder lf(32);
    const KoggeStoneAdder ks(32);
    double netlist_s = 0.0;
    for (const Adder *adder :
         {static_cast<const Adder *>(&lf),
          static_cast<const Adder *>(&ks)}) {
        std::vector<std::uint64_t> words;
        netlist_s += medianSeconds(kReps, [&] {
            for (std::size_t k = 0; k < batches; ++k) {
                adder->evaluateBatchWide(&a[k * lanes], &b[k * lanes],
                                         &cin[k * net_w], net_w,
                                         words);
            }
            keep(words);
        });
    }
    metrics.add("netlist.vectors_per_s", "vectors/s",
                2.0 * static_cast<double>(batches * lanes) / netlist_s);

    constexpr unsigned kTrackers = 200;
    std::vector<PmosAgingTracker> trackers;
    trackers.reserve(kTrackers);
    const double ctor_s = medianSeconds(kReps, [&] {
        trackers.clear();
        for (unsigned i = 0; i < kTrackers; ++i)
            trackers.emplace_back(lf.netlist());
    });
    metrics.add("aging.tracker_ctor_us", "us",
                ctor_s * 1e6 / kTrackers);

    const AdderAgingAnalysis analysis(lf,
                                      GuardbandModel::paperCalibrated());
    const double probs_s = medianSeconds(
        kReps, [&] { keep(analysis.zeroProbsForOperands(ops)); });
    metrics.add("adder.operand_samples_per_s", "samples/s",
                static_cast<double>(ops.size()) / probs_s);

    // The candidate and fit streams attack-search itself draws from.
    const std::uint64_t surrogate_seed = ExperimentOptions{}.surrogateSeed;
    Rng rng(mixSeed(surrogate_seed, 0xbe9c4));
    const AttackConfig attack = randomAttackCandidate(rng);
    constexpr unsigned kCandidates = 10;
    const double exact_s = medianSeconds(kReps, [&] {
        for (unsigned i = 0; i < kCandidates; ++i)
            keep(evaluateCandidateExact(analysis, attack, 2048));
    });
    metrics.add("adder.exact_candidate_us", "us",
                exact_s * 1e6 / kCandidates);

    SurrogateFitConfig fit_config;
    fit_config.seed = mixSeed(surrogate_seed, 0xf17);
    TriageStats triage;
    const SurrogateFit fit = trainAttackSurrogate(
        analysis, 32, fit_config, 2048, Engine(1), nullptr, triage);
    const std::vector<double> features = candidateFeatures(attack, 32);
    constexpr unsigned kPredicts = 100'000;
    const double predict_s = medianSeconds(kReps, [&] {
        double sink = 0.0;
        for (unsigned i = 0; i < kPredicts; ++i) {
            sink += fit.predict(features);
            keep(sink);
        }
    });
    metrics.add("surrogate.predict_ns", "ns", predict_s * 1e9 / kPredicts);
}

} // namespace perfbench
