#include "obs/exposition.hh"

namespace penelope {
namespace obs {

std::string
renderDump(const Snapshot &snap, const std::string &prefix)
{
    std::string out;
    for (const auto &m : snap.metrics) {
        if (m.kind == MetricKind::Histogram) {
            out += prefix + m.name +
                ".count " + std::to_string(m.count()) + "\n";
            out += prefix + m.name + ".sum " +
                std::to_string(m.sum()) + " " + m.unit + "\n";
            continue;
        }
        out += prefix + m.name + " ";
        if (m.kind == MetricKind::Gauge)
            out += std::to_string(
                static_cast<std::int64_t>(m.scalar()));
        else
            out += std::to_string(m.scalar());
        if (m.unit != "1")
            out += " " + m.unit;
        out.push_back('\n');
    }
    return out;
}

} // namespace obs
} // namespace penelope
