/**
 * @file
 * The text rendering of a metric snapshot: renderDump(), the sorted
 * human-readable `obs: name value` listing `--metrics-dump` prints
 * to stderr after a run -- never to stdout, which carries the
 * byte-identical experiment statistics.
 */

#ifndef PENELOPE_OBS_EXPOSITION_HH
#define PENELOPE_OBS_EXPOSITION_HH

#include <string>

#include "obs/metrics.hh"

namespace penelope {
namespace obs {

/** Sorted `prefix name value` lines (one metric per line;
 *  histograms as `.count` / `.sum`). */
std::string renderDump(const Snapshot &snap,
                       const std::string &prefix = "obs: ");

} // namespace obs
} // namespace penelope

#endif // PENELOPE_OBS_EXPOSITION_HH
