/**
 * @file
 * Combinational-block protection walkthrough (Section 4.3).
 *
 * Builds the gate-level 32-bit Ladner-Fischer adder, searches the
 * 28 synthetic input pairs for the one that balances PMOS stress
 * best, and shows how injecting that pair during idle cycles cuts
 * the required guardband at different adder utilisations.
 */

#include <cstdint>
#include <iostream>
#include <vector>

#include "adder/adder.hh"
#include "adder/analysis.hh"
#include "trace/workload.hh"

using namespace penelope;

int
main()
{
    LadnerFischerAdder adder(32);
    std::cout << "Ladner-Fischer adder: "
              << adder.netlist().numGates() << " gates, "
              << adder.netlist().numPmos() << " PMOS, depth "
              << adder.netlist().depth() << "\n";

    // Sanity: the netlist really adds.  One batched pass with the
    // operands in lane 0; bit 0 of each sum net's lane word is that
    // sum bit.
    const std::uint64_t a[64] = {1234567};
    const std::uint64_t b[64] = {7654321};
    const std::uint64_t cin_mask = 0;
    std::vector<std::uint64_t> words;
    adder.evaluateBatchWide(a, b, &cin_mask, 1, words);
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < adder.width(); ++i) {
        const std::uint64_t lanes =
            adder.netlist().laneWord(words.data(), adder.sumSignals()[i]);
        sum |= (lanes & 1) << i;
    }
    std::cout << "1234567 + 7654321 = " << sum << "\n\n";

    const GuardbandModel model = GuardbandModel::paperCalibrated();
    AdderAgingAnalysis analysis(adder, model);

    // Search the idle-input pair space (Figure 4).
    const auto sweep = analysis.sweepPairs();
    const InputPair best = bestPair(sweep);
    std::cout << "best idle-input pair: " << pairLabel(best)
              << " (paper picks 1+8 from its electrical model)\n";
    for (const auto &entry : sweep) {
        if (entry.narrowFullyStressedFraction < 0.001)
            std::cout << "  pair " << pairLabel(entry.pair)
                      << " leaves no narrow PMOS fully stressed\n";
    }

    // Age the adder with real operands sampled from the workload.
    WorkloadSet workload;
    TraceGenerator gen = workload.generator(0);
    const auto operands = collectAdderOperands(gen, 3000);
    const auto real = analysis.zeroProbsForOperands(operands);
    std::cout << "\nguardband with real inputs only: "
              << analysis.baselineGuardband(real) * 100 << "%\n";

    // Figure 5: mix real inputs with the idle pair.
    for (double util : {0.30, 0.21, 0.11}) {
        std::cout << "guardband at " << util * 100
                  << "% utilisation + idle pair: "
                  << analysis.scenarioGuardband(real, util, best) *
                100
                  << "%\n";
    }
    return 0;
}
