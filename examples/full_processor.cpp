/**
 * @file
 * Whole-processor walkthrough: the Section-4.7 measurement flow on a
 * single trace.  The out-of-order pipeline with LineFixed50% caches
 * gives the timing (CPI, DL0 invert ratio, adder utilisation); the
 * structure replays give the per-bit bias of a casuistic-protected
 * scheduler and an ISV-protected integer register file.
 */

#include <iostream>

#include "core/experiments.hh"

using namespace penelope;

int
main()
{
    WorkloadSet workload;
    constexpr unsigned kTrace = 42;
    constexpr std::size_t kUops = 150'000;

    // Timing under cache inversion.
    PipelineConfig config;
    config.dl0Mechanism = MechanismKind::LineFixed50;
    config.dtlbMechanism = MechanismKind::LineFixed50;
    Pipeline pipeline(config);
    TraceGenerator gen = workload.generator(kTrace);
    const PipelineStats stats = pipeline.run(gen, kUops);

    std::cout << "pipeline run: " << stats.uops << " uops in "
              << stats.cycles << " cycles (CPI "
              << stats.cpi << ")\n";
    std::cout << "DL0: " << stats.dl0Hits << " hits / "
              << stats.dl0Misses << " misses, invert ratio "
              << pipeline.dl0().invertRatio() << "\n";
    std::cout << "adder utilisation:";
    for (double u : stats.adderUtilization)
        std::cout << " " << u * 100 << "%";
    std::cout << "\n";

    // Scheduler protection profiled on a sample of traces (the
    // paper profiles 100 of its 531), then replayed on this one.
    const SchedulerProfile profile = profileScheduler(
        workload, workload.sampleIndices(8, 0xbead), 30'000);
    Scheduler sched{SchedulerConfig{}};
    sched.configureProtection(decideProtection(profile.bits));
    sched.enableProtection(true);
    SchedulerReplay sched_replay(sched, SchedReplayConfig{});
    TraceGenerator sched_gen = workload.replayGenerator(kTrace);
    const Cycle sched_cycles = sched_replay.run(sched_gen, kUops).cycles;
    const double sched_stress = sched.worstFigure8Bias(sched_cycles);

    // The integer register file with ISV.
    RegisterFile int_rf{RegFileConfig{}};
    int_rf.enableIsv(true);
    RegFileReplay rf_replay(int_rf, RegReplayConfig{});
    TraceGenerator rf_gen = workload.replayGenerator(kTrace);
    const Cycle rf_cycles = rf_replay.run(rf_gen, kUops).cycles;
    const double int_stress =
        int_rf.finalizeBias(rf_cycles).maxWorstCaseStress();

    const GuardbandModel model = GuardbandModel::paperCalibrated();
    std::cout << "INT RF worst stress " << int_stress * 100
              << "% -> guardband "
              << model.guardbandForZeroProb(int_stress) * 100
              << "%\n";
    std::cout << "scheduler worst stress " << sched_stress * 100
              << "% (paper: 63.2%) -> guardband "
              << model.guardbandForZeroProb(sched_stress) * 100
              << "%\n";

    // Roll up with equations 2-4.
    ProcessorCost cost(1.0);
    cost.addBlock({"register file", 1.0,
                   model.guardbandForZeroProb(int_stress), 1.01,
                   1.0});
    cost.addBlock({"scheduler", 1.0,
                   model.guardbandForZeroProb(sched_stress), 1.02,
                   1.0});
    cost.addBlock({"DL0", 1.0, model.balancedGuardband(), 1.01,
                   1.0});
    std::cout << "NBTIefficiency of this three-block subset: "
              << cost.efficiency() << " (baseline "
              << nbtiEfficiency(1.0, 0.20, 1.0) << ")\n";
    return 0;
}
