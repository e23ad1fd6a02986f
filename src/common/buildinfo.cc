#include "common/buildinfo.hh"

#include "core/resultcache.hh"
#include "obs/metrics.hh"

namespace penelope {

BuildInfo
buildInfo()
{
    BuildInfo info;
    info.obsCompiled = obs::kCompiledIn;
    info.cacheSalt = kResultCacheSalt;
    return info;
}

std::string
buildInfoText()
{
    const BuildInfo info = buildInfo();
    std::string out = "penelope_bench\n";
    out += "  obs:        ";
    out += info.obsCompiled ? "compiled in" : "compiled out";
    out += "\n";
    out += "  cache-salt: " + info.cacheSalt + "\n";
    return out;
}

} // namespace penelope
