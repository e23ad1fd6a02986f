/**
 * @file
 * Explicitly-managed block walkthrough (Section 4.5).
 *
 * Profiles the scheduler on a handful of traces, lets the Figure-3
 * casuistic pick a repair technique per field bit, and compares the
 * per-field worst-case bias with and without protection.
 */

#include <iostream>

#include "scheduler/driver.hh"
#include "scheduler/profile.hh"
#include "trace/workload.hh"

using namespace penelope;

int
main()
{
    WorkloadSet workload;

    // Profile a few traces with protection off (the paper profiles
    // 100 of the 531 to choose the K duty factors).
    const SchedulerProfile profile = profileScheduler(
        workload, workload.sampleIndices(8, 0xbead), 30'000);
    const auto decisions = decideProtection(profile.bits);

    std::cout << "techniques chosen by the Figure-3 casuistic:\n";
    for (const auto &t : summarizeDecisions(decisions)) {
        std::cout << "  " << t.fieldName << ": "
                  << techniqueName(t.dominantTechnique);
        if (t.maxK > 0.0)
            std::cout << " (K " << t.minK * 100 << "-"
                      << t.maxK * 100 << "%)";
        std::cout << "\n";
    }

    // Evaluate with and without the techniques.
    auto worst = [&](bool protect) {
        Scheduler sched{SchedulerConfig{}};
        if (protect) {
            sched.configureProtection(decisions);
            sched.enableProtection(true);
        }
        SchedulerReplay replay(sched, SchedReplayConfig{});
        Cycle clock = 0;
        for (unsigned index : workload.firstPerSuite()) {
            TraceGenerator gen = workload.generator(index);
            clock = replay.run(gen, 30'000).cycles;
        }
        std::cout << "  occupancy "
                  << sched.occupancy(clock) * 100 << "%\n";
        return sched.snapshotStress(clock).worstFigure8Bias();
    };

    std::cout << "\nbaseline run:\n";
    const double baseline = worst(false);
    std::cout << "worst bit bias: " << baseline * 100 << "%\n";

    std::cout << "\nprotected run:\n";
    const double protected_bias = worst(true);
    std::cout << "worst bit bias: " << protected_bias * 100
              << "% (paper: 63.2%; the residue is the ALL1 bits "
                 "and the unprotectable valid bit)\n";
    return 0;
}
