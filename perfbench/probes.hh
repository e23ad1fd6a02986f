/**
 * @file
 * Short per-module probes for the traced run.  Each probe calls one
 * module's public function on the workload's own inputs (its seeded
 * WorkloadSet and evaluation traces, its surrogate seed) and reports
 * the module's self time per unit of work, with observability off.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <vector>

#include "harness.hh"

namespace perfbench {

struct ProbeInputs
{
    const penelope::WorkloadSet &workload;
    /** The workload's evaluation traces (probes use the first few). */
    std::vector<unsigned> traces;
};

/** Run every probe and add its metric to @p metrics. */
void runProbes(const ProbeInputs &inputs, MetricSet &metrics);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
