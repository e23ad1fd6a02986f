#include "analysis.hh"

#include <algorithm>
#include <cassert>

#include "common/bitword.hh"
#include "common/duty.hh"
#include "obs/metrics.hh"

namespace penelope {

std::vector<OperandSample>
collectAdderOperands(TraceGenerator &gen, std::size_t count)
{
    return collectAdderOperandsFrom(gen, count);
}

std::vector<double>
operandDutyFeatures(const std::vector<OperandSample> &ops,
                    unsigned width)
{
    assert(width <= 32);
    // One BitBiasTracker bit per input signal: a-bits, b-bits,
    // carry-in.  Each 64-sample chunk is transposed into the
    // lane-word layout observeBatch consumes, so the per-bit duty
    // sums cost one popcount per input bit per chunk.
    BitBiasTracker tracker(operandFeatureCount(width));
    std::vector<std::uint64_t> words(operandFeatureCount(width));
    std::uint64_t ta[64];
    std::uint64_t tb[64];
    for (std::size_t begin = 0; begin < ops.size(); begin += 64) {
        const std::size_t count =
            std::min<std::size_t>(64, ops.size() - begin);
        std::uint64_t cin_mask = 0;
        for (std::size_t l = 0; l < count; ++l) {
            const OperandSample &op = ops[begin + l];
            ta[l] = op.a;
            tb[l] = op.b;
            if (op.cin)
                cin_mask |= std::uint64_t(1) << l;
        }
        std::fill(ta + count, ta + 64, 0);
        std::fill(tb + count, tb + 64, 0);
        transpose64x64(ta);
        transpose64x64(tb);
        for (unsigned bit = 0; bit < width; ++bit) {
            words[bit] = ta[bit];
            words[width + bit] = tb[bit];
        }
        words[2 * width] = cin_mask;
        const std::uint64_t lane_mask = count == 64
            ? ~std::uint64_t(0)
            : (std::uint64_t(1) << count) - 1;
        tracker.observeBatch(words.data(), lane_mask);
    }
    return tracker.biasVector();
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
    // lane repeatedly, matching one applyInput per occurrence --
    // one observe per occurrence keeps the integer sums identical).
    PmosAgingTracker tracker(adder_.netlist());
    for (unsigned index : indices) {
        assert(index < 8);
        const std::uint64_t lane = std::uint64_t(1) << index;
        tracker.observeBatchWide(words.data(), 1, &lane);
    }
    return trackerProbs(tracker);
}

namespace {

/** Distinct operand vectors that get a weighted lane of their own:
 *  an attack stream holds two, its pinned vector {a, imm, 0} and
 *  the subtract twin {a, ~imm, 1}. */
constexpr std::size_t kOperandSlots = 2;

/** Samples the prefix scan reads before choosing weighted lanes. */
constexpr std::size_t kOperandProbe = 64;

/** Index of @p op among the first @p n of @p slots, or @p n. */
std::size_t
findOperands(const OperandSample *slots, std::size_t n,
             const OperandSample &op)
{
    std::size_t k = 0;
    while (k < n && !(slots[k].a == op.a && slots[k].b == op.b &&
                      slots[k].cin == op.cin))
        ++k;
    return k;
}

/** True when the first kOperandProbe samples of @p ops hold at most
 *  kOperandSlots distinct vectors. */
bool
repetitivePrefix(const std::vector<OperandSample> &ops)
{
    OperandSample seen[kOperandSlots] = {};
    std::size_t distinct = 0;
    const std::size_t probe = std::min(ops.size(), kOperandProbe);
    for (std::size_t i = 0; i < probe; ++i) {
        if (findOperands(seen, distinct, ops[i]) < distinct)
            continue;
        if (distinct == kOperandSlots)
            return false;
        seen[distinct++] = ops[i];
    }
    return true;
}

/**
 * Evaluate @p count operand lanes (a[l], b[l], bit l of the
 * cin_masks words) in one netlist pass and charge each to
 * @p tracker once.  Up to 64 lanes are evaluated as one word, a
 * quarter of a full pass.
 */
void
chargeLanes(const Adder &adder, PmosAgingTracker &tracker,
            const std::uint64_t *a, const std::uint64_t *b,
            const std::uint64_t *cin_masks, unsigned count,
            std::vector<std::uint64_t> &words)
{
    const unsigned net_w =
        count <= 64 ? 1 : Netlist::preferredBatchWords();
    PENELOPE_OBS_COUNTER("netlist.lanes_used", "lanes").add(count);
    adder.evaluateBatchWide(a, b, cin_masks, net_w, words);
    std::uint64_t lane_masks[4];
    for (unsigned w = 0; w < net_w; ++w) {
        const unsigned lanes =
            count > 64 * w ? std::min(64u, count - 64 * w) : 0;
        lane_masks[w] = lanes == 64 ? ~std::uint64_t(0)
                                    : (std::uint64_t(1) << lanes) - 1;
    }
    tracker.observeBatchWide(words.data(), net_w, lane_masks);
}

} // namespace

std::vector<double>
AdderAgingAnalysis::zeroProbsForOperands(
    const std::vector<OperandSample> &ops) const
{
    // Repeated vectors share a slot and its count, and the slots
    // are charged last as weighted lanes.  Samples that find no
    // slot -- all of them when the prefix scan sees a mostly
    // distinct stream -- are lanes of weight 1, 64 *
    // preferredBatchWords() per pass.
    const std::size_t capacity =
        repetitivePrefix(ops) ? kOperandSlots : 0;
    OperandSample slot[kOperandSlots] = {};
    std::uint64_t weight[kOperandSlots] = {};
    std::size_t slots = 0;
    const unsigned net_w = Netlist::preferredBatchWords();
    assert(net_w <= 4);
    const unsigned chunk = 64 * net_w;
    PmosAgingTracker tracker(adder_.netlist());
    std::vector<std::uint64_t> words;
    std::uint64_t a[256] = {};
    std::uint64_t b[256] = {};
    std::uint64_t cin_masks[4] = {};
    unsigned count = 0;
    for (const OperandSample &op : ops) {
        // Loop-invariant, so a per-sample stream pays no lookup.
        if (capacity != 0) {
            const std::size_t k = findOperands(slot, slots, op);
            if (k < slots) {
                ++weight[k];
                continue;
            }
            if (slots < capacity) {
                slot[slots] = op;
                weight[slots++] = 1;
                continue;
            }
        }
        a[count] = op.a;
        b[count] = op.b;
        if (op.cin)
            cin_masks[count / 64] |= std::uint64_t(1) << (count % 64);
        if (++count == chunk) {
            chargeLanes(adder_, tracker, a, b, cin_masks, count, words);
            std::fill(cin_masks, cin_masks + net_w, 0);
            count = 0;
        }
    }
    if (count != 0)
        chargeLanes(adder_, tracker, a, b, cin_masks, count, words);
    if (slots != 0) {
        // One word evaluates every slot; slot k is then charged
        // alone with its count as the observe's dt.
        std::uint64_t cin_mask = 0;
        for (std::size_t k = 0; k < slots; ++k) {
            a[k] = slot[k].a;
            b[k] = slot[k].b;
            if (slot[k].cin)
                cin_mask |= std::uint64_t(1) << k;
        }
        PENELOPE_OBS_COUNTER("netlist.lanes_used", "lanes").add(slots);
        adder_.evaluateBatchWide(a, b, &cin_mask, 1, words);
        for (std::size_t k = 0; k < slots; ++k) {
            const std::uint64_t lane = std::uint64_t(1) << k;
            tracker.observeBatchWide(words.data(), 1, &lane, weight[k]);
        }
    }
    return trackerProbs(tracker);
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
        tracker.observeBatchWide(words.data(), 1, &lanes);
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
        if (zero_probs[i] >= 0.9999)
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
