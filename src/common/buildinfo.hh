/**
 * @file
 * Build-configuration introspection for `penelope_bench
 * --version`: whether the observability layer is compiled in, and
 * the result-cache salt -- enough to attribute a BENCH_perf.json
 * row or a metrics snapshot to a binary configuration.
 */

#ifndef PENELOPE_COMMON_BUILDINFO_HH
#define PENELOPE_COMMON_BUILDINFO_HH

#include <string>

namespace penelope {

struct BuildInfo
{
    bool obsCompiled = false;     ///< observability layer present
    std::string cacheSalt;        ///< kResultCacheSalt
};

BuildInfo buildInfo();

/** The multi-line text `--version` prints. */
std::string buildInfoText();

} // namespace penelope

#endif // PENELOPE_COMMON_BUILDINFO_HH
