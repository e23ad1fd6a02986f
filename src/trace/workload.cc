#include "workload.hh"

#include <algorithm>
#include <cassert>

#include "common/rng.hh"

namespace penelope {

namespace {

/** SplitMix-style seed mixer for (base, suite, index). */
std::uint64_t
mixSeed(std::uint64_t base, unsigned suite, unsigned index)
{
    std::uint64_t x = base ^ (std::uint64_t(suite) << 32) ^
        (std::uint64_t(index) + 1);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

} // namespace

WorkloadSet::WorkloadSet(std::uint64_t base_seed)
    : baseSeed_(base_seed)
{
    std::size_t total = 0;
    for (const auto &suite : allSuites())
        total += suite.numTraces;
    specs_.reserve(total);
    for (const auto &suite : allSuites()) {
        for (unsigned i = 0; i < suite.numTraces; ++i) {
            TraceSpec spec;
            spec.suite = suite.id;
            spec.indexInSuite = i;
            spec.seed = mixSeed(
                baseSeed_, static_cast<unsigned>(suite.id), i);
            specs_.push_back(spec);
        }
    }
}

const TraceSpec &
WorkloadSet::spec(unsigned index) const
{
    return specs_.at(index);
}

std::vector<unsigned>
WorkloadSet::indicesForSuite(SuiteId id) const
{
    std::vector<unsigned> out;
    for (unsigned i = 0; i < specs_.size(); ++i)
        if (specs_[i].suite == id)
            out.push_back(i);
    return out;
}

Trace
WorkloadSet::generate(unsigned index, std::size_t num_uops) const
{
    TraceGenerator gen(specs_.at(index));
    return gen.generate(num_uops);
}

TraceGenerator
WorkloadSet::generator(unsigned index) const
{
    return TraceGenerator(specs_.at(index));
}

TraceGenerator
WorkloadSet::replayGenerator(unsigned index) const
{
    return TraceGenerator(specs_.at(index), false);
}

std::vector<unsigned>
WorkloadSet::sampleIndices(unsigned count, std::uint64_t seed) const
{
    assert(count <= specs_.size());
    std::vector<unsigned> all(specs_.size());
    for (unsigned i = 0; i < all.size(); ++i)
        all[i] = i;
    // Fisher-Yates prefix shuffle with a deterministic Rng.
    Rng rng(seed);
    for (unsigned i = 0; i < count; ++i) {
        const unsigned j =
            i + static_cast<unsigned>(rng.nextInt(all.size() - i));
        std::swap(all[i], all[j]);
    }
    all.resize(count);
    std::sort(all.begin(), all.end());
    return all;
}

std::vector<unsigned>
WorkloadSet::complement(const std::vector<unsigned> &subset) const
{
    std::vector<bool> in_subset(specs_.size(), false);
    for (unsigned idx : subset)
        in_subset.at(idx) = true;
    std::vector<unsigned> out;
    for (unsigned i = 0; i < specs_.size(); ++i)
        if (!in_subset[i])
            out.push_back(i);
    return out;
}

std::vector<unsigned>
WorkloadSet::firstPerSuite() const
{
    std::vector<unsigned> out;
    SuiteId last = SuiteId::Encoder;
    bool first = true;
    for (unsigned i = 0; i < specs_.size(); ++i) {
        if (first || specs_[i].suite != last) {
            out.push_back(i);
            last = specs_[i].suite;
            first = false;
        }
    }
    return out;
}

std::vector<unsigned>
WorkloadSet::strided(unsigned stride) const
{
    assert(stride >= 1);
    std::vector<unsigned> out;
    for (unsigned i = 0; i < specs_.size(); i += stride)
        out.push_back(i);
    return out;
}

} // namespace penelope
