#include "analysis.hh"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hh"

namespace penelope {

std::vector<OperandSample>
collectAdderOperands(TraceGenerator &gen, std::size_t count)
{
    return collectAdderOperandsFrom(gen, count);
}

namespace {

/** Hit counts of the first kSubtractPrefix subtract draws, and the
 *  stream right after them. */
struct SubtractPrefix
{
    std::uint16_t hits[kSubtractPrefix + 1] = {};
    Rng tail{kSubtractSeed};

    SubtractPrefix()
    {
        for (std::uint64_t k = 0; k < kSubtractPrefix; ++k) {
            hits[k + 1] = static_cast<std::uint16_t>(
                hits[k] + (tail.nextBool(kSubtractShare) ? 1 : 0));
        }
    }
};

} // namespace

std::uint64_t
subtractCount(std::uint64_t samples)
{
    // A function-local static: initialised once, thread-safely, on
    // first use by whichever engine worker gets there first.
    static const SubtractPrefix prefix;
    if (samples <= kSubtractPrefix)
        return prefix.hits[samples];
    Rng rng = prefix.tail;
    std::uint64_t hits = prefix.hits[kSubtractPrefix];
    for (std::uint64_t k = kSubtractPrefix; k < samples; ++k)
        hits += rng.nextBool(kSubtractShare) ? 1 : 0;
    return hits;
}

AdderAgingAnalysis::AdderAgingAnalysis(const Adder &adder,
                                       const GuardbandModel &model)
    : adder_(adder), model_(model)
{
}

namespace {

/** Operand triple of synthetic input @p index for @p adder. */
void
syntheticOperands(const Adder &adder, unsigned index,
                  std::uint64_t &a, std::uint64_t &b, bool &cin)
{
    assert(index < 8);
    const SyntheticInput &in = syntheticInputs()[index];
    const std::uint64_t ones = adder.width() >= 64
        ? ~std::uint64_t(0)
        : (std::uint64_t(1) << adder.width()) - 1;
    a = in.inputA ? ones : 0;
    b = in.inputB ? ones : 0;
    cin = in.carryIn;
}

/** One batched pass over all eight synthetic inputs: lane l holds
 *  the netlist under synthetic input l. */
void
evaluateSyntheticLanes(const Adder &adder,
                       std::vector<std::uint64_t> &net_words)
{
    std::uint64_t a[64] = {};
    std::uint64_t b[64] = {};
    std::uint64_t cin_mask = 0;
    for (unsigned l = 0; l < 8; ++l) {
        bool cin = false;
        syntheticOperands(adder, l, a[l], b[l], cin);
        if (cin)
            cin_mask |= std::uint64_t(1) << l;
    }
    adder.evaluateBatchWide(a, b, &cin_mask, 1, net_words);
}

std::vector<double>
trackerProbs(const PmosAgingTracker &tracker)
{
    std::vector<double> probs(tracker.numDevices());
    for (std::size_t i = 0; i < probs.size(); ++i)
        probs[i] = tracker.zeroProb(i);
    return probs;
}

} // namespace

std::vector<double>
AdderAgingAnalysis::zeroProbsForInput(unsigned index) const
{
    return zeroProbsForInputs({index});
}

std::vector<double>
AdderAgingAnalysis::zeroProbsForPair(const InputPair &pair) const
{
    return zeroProbsForInputs({pair.first, pair.second});
}

std::vector<double>
AdderAgingAnalysis::zeroProbsForInputs(
    const std::vector<unsigned> &indices) const
{
    assert(!indices.empty() && indices.size() <= 64);
    std::vector<std::uint64_t> words;
    evaluateSyntheticLanes(adder_, words);
    // Round-robin over the requested inputs: each occurrence
    // selects its synthetic lane once (a repeated index charges its
    // lane repeatedly, matching one scalar observe per occurrence:
    // the integer sums are identical).
    PmosAgingTracker tracker(adder_.netlist());
    for (unsigned index : indices) {
        assert(index < 8);
        const std::uint64_t lane = std::uint64_t(1) << index;
        tracker.observeBatch(words.data(), lane);
    }
    return trackerProbs(tracker);
}

namespace {

/**
 * Evaluate @p count operand lanes (a[l], b[l], bit l of @p cin_mask)
 * in one netlist pass and charge each to @p tracker once.
 */
void
chargeLanes(const Adder &adder, PmosAgingTracker &tracker,
            const std::uint64_t *a, const std::uint64_t *b,
            std::uint64_t cin_mask, unsigned count,
            std::vector<std::uint64_t> &words)
{
    PENELOPE_OBS_COUNTER("netlist.lanes_used", "lanes").add(count);
    adder.evaluateBatchWide(a, b, &cin_mask, 1, words);
    tracker.observeBatch(words.data(),
                         count == 64 ? ~std::uint64_t(0)
                                     : (std::uint64_t(1) << count) - 1);
}

} // namespace

std::vector<double>
AdderAgingAnalysis::zeroProbsForOperands(
    const std::vector<OperandSample> &ops) const
{
    PmosAgingTracker tracker(adder_.netlist());
    std::vector<std::uint64_t> words;
    std::uint64_t a[64] = {};
    std::uint64_t b[64] = {};
    std::uint64_t cin_mask = 0;
    unsigned count = 0;
    for (const OperandSample &op : ops) {
        a[count] = op.a;
        b[count] = op.b;
        if (op.cin)
            cin_mask |= std::uint64_t(1) << count;
        if (++count == 64) {
            chargeLanes(adder_, tracker, a, b, cin_mask, count, words);
            cin_mask = 0;
            count = 0;
        }
    }
    if (count != 0)
        chargeLanes(adder_, tracker, a, b, cin_mask, count, words);
    return trackerProbs(tracker);
}

StreamAging
AdderAgingAnalysis::twoVectorAging(const OperandSample &first,
                                   std::uint64_t first_count,
                                   const OperandSample &second,
                                   std::uint64_t second_count) const
{
    // Lane 0 is the first vector, lane 1 the second.
    std::uint64_t a[64] = {first.a, second.a};
    std::uint64_t b[64] = {first.b, second.b};
    const std::uint64_t cin_mask = (first.cin ? 1u : 0u) |
        (second.cin ? 2u : 0u);
    std::vector<std::uint64_t> words;
    PENELOPE_OBS_COUNTER("netlist.lanes_used", "lanes").add(2);
    adder_.evaluateBatchWide(a, b, &cin_mask, 1, words);

    // Zero probability per class (bit 0: gate at 0 under the first
    // vector, bit 1: under the second): the zero-time a tracker
    // would hold over the total time, as PmosAgingTracker::zeroProb
    // divides them.
    const std::uint64_t total = first_count + second_count;
    double class_prob[4];
    for (unsigned c = 0; c < 4; ++c) {
        const std::uint64_t zero = ((c & 1) ? first_count : 0) +
            ((c & 2) ? second_count : 0);
        class_prob[c] = total == 0
            ? 0.5
            : static_cast<double>(zero) / static_cast<double>(total);
    }

    // Slot classes, partition by partition (PmosSlotMap): a plain
    // slot is at 0 where its word is clear, a complemented one where
    // it is set, const-0 always and const-1 never.
    const PmosSlotMap &slots = adder_.netlist().pmosSlots();
    std::vector<std::uint8_t> slot_class(slots.numSlots(), 0);
    for (std::size_t s = 0; s < slots.wordEnd; ++s)
        slot_class[s] = static_cast<std::uint8_t>(
            ~words[slots.slotWord[s]] & 3);
    for (std::size_t s = slots.wordEnd; s < slots.invEnd; ++s)
        slot_class[s] =
            static_cast<std::uint8_t>(words[slots.slotWord[s]] & 3);
    for (std::size_t s = slots.invEnd; s < slots.const0End; ++s)
        slot_class[s] = 3;

    // Per (class, width): the device guardband.
    double guardband[4][2];
    for (unsigned c = 0; c < 4; ++c) {
        guardband[c][0] = model_.guardbandForZeroProb(
            class_prob[c], WidthClass::Narrow);
        guardband[c][1] = model_.guardbandForZeroProb(
            class_prob[c], WidthClass::Wide);
    }

    // One walk in device order: the mean's sum adds the same
    // doubles in the same order as meanDeviceGuardband, and the
    // rest are a max and counts.
    const auto &devices = adder_.netlist().pmosDevices();
    StreamAging out;
    if (devices.empty())
        return out;
    double sum = 0.0;
    std::size_t count[4][2] = {};
    for (std::size_t i = 0; i < devices.size(); ++i) {
        const unsigned c = slot_class[slots.deviceSlot[i]];
        const unsigned wide =
            devices[i].width == WidthClass::Wide ? 1 : 0;
        sum += guardband[c][wide];
        ++count[c][wide];
    }
    std::size_t wide = 0;
    std::size_t wide_full = 0;
    std::size_t narrow_full = 0;
    for (unsigned c = 0; c < 4; ++c) {
        for (unsigned w = 0; w < 2; ++w) {
            if (count[c][w] != 0)
                out.guardband = std::max(out.guardband, guardband[c][w]);
        }
        wide += count[c][1];
        if (class_prob[c] >= kFullyStressedZeroProb) {
            narrow_full += count[c][0];
            wide_full += count[c][1];
        }
    }
    const double n = static_cast<double>(devices.size());
    out.score = sum / n;
    out.narrowFullyStressed = static_cast<double>(narrow_full) / n;
    out.wideFullyStressed = wide == 0
        ? 0.0
        : static_cast<double>(wide_full) / static_cast<double>(wide);
    return out;
}

std::vector<PairSweepEntry>
AdderAgingAnalysis::sweepPairs() const
{
    // One batched netlist pass covers all eight synthetic inputs;
    // each pair then reduces its two lanes.  The per-pair counts
    // (and therefore the Figure-4 fractions) are exactly those of
    // 28 independent two-input trackers.
    std::vector<std::uint64_t> words;
    evaluateSyntheticLanes(adder_, words);
    std::vector<PairSweepEntry> entries;
    PmosAgingTracker tracker(adder_.netlist());
    for (const InputPair &pair : allInputPairs()) {
        tracker.reset();
        const std::uint64_t lanes = (std::uint64_t(1) << pair.first) |
            (std::uint64_t(1) << pair.second);
        tracker.observeBatch(words.data(), lanes);
        const AgingSummary s = summarize(trackerProbs(tracker));
        entries.push_back({pair, s.narrowFullyStressedFraction});
    }
    return entries;
}

InputPair
bestPair(const std::vector<PairSweepEntry> &sweep)
{
    assert(!sweep.empty());
    const auto it = std::min_element(
        sweep.begin(), sweep.end(),
        [](const PairSweepEntry &x, const PairSweepEntry &y) {
            return x.narrowFullyStressedFraction <
                y.narrowFullyStressedFraction;
        });
    return it->pair;
}

double
AdderAgingAnalysis::scenarioGuardband(
    const std::vector<double> &real_probs, double utilization,
    const InputPair &pair) const
{
    assert(utilization >= 0.0 && utilization <= 1.0);
    const auto pair_probs = zeroProbsForPair(pair);
    assert(pair_probs.size() == real_probs.size());
    std::vector<double> mixed(real_probs.size());
    for (std::size_t i = 0; i < mixed.size(); ++i) {
        mixed[i] = utilization * real_probs[i] +
            (1.0 - utilization) * pair_probs[i];
    }
    return summarize(mixed).guardband;
}

double
AdderAgingAnalysis::baselineGuardband(
    const std::vector<double> &real_probs) const
{
    return summarize(real_probs).guardband;
}

double
AdderAgingAnalysis::meanDeviceGuardband(
    const std::vector<double> &zero_probs) const
{
    const auto &devices = adder_.netlist().pmosDevices();
    assert(zero_probs.size() == devices.size());
    if (devices.empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        sum += model_.guardbandForZeroProb(zero_probs[i],
                                           devices[i].width);
    }
    return sum / static_cast<double>(devices.size());
}

double
AdderAgingAnalysis::wideFullyStressedFraction(
    const std::vector<double> &zero_probs) const
{
    const auto &devices = adder_.netlist().pmosDevices();
    assert(zero_probs.size() == devices.size());
    std::size_t wide = 0;
    std::size_t full = 0;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        if (devices[i].width != WidthClass::Wide)
            continue;
        ++wide;
        if (zero_probs[i] >= kFullyStressedZeroProb)
            ++full;
    }
    return wide == 0
        ? 0.0
        : static_cast<double>(full) / static_cast<double>(wide);
}

AgingSummary
AdderAgingAnalysis::summarize(
    const std::vector<double> &zero_probs) const
{
    return PmosAgingTracker::summarizeZeroProbs(
        adder_.netlist(), zero_probs, model_);
}

} // namespace penelope
