#include "aging.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <vector>

namespace penelope {

PmosAgingTracker::PmosAgingTracker(const Netlist &netlist)
    : netlist_(netlist), slots_(netlist.pmosSlots()),
      slotZeroTime_(slots_.numSlots(), 0)
{
}

void
PmosAgingTracker::observe(const std::vector<std::uint8_t> &signals,
                          std::uint64_t dt)
{
    for (std::size_t s = 0; s < slots_.numSlots(); ++s) {
        if (!signals[slots_.slotNet[s]])
            slotZeroTime_[s] += dt;
    }
    totalTime_ += dt;
}

void
PmosAgingTracker::observeBatchWide(const std::uint64_t *net_words,
                                   unsigned net_w,
                                   const std::uint64_t *lane_masks,
                                   std::uint64_t dt)
{
    std::uint64_t lanes = 0;
    for (unsigned w = 0; w < net_w; ++w) {
        lanes += static_cast<std::uint64_t>(
            std::popcount(lane_masks[w]));
    }
    if (lanes == 0 || dt == 0)
        return;
    // One branch-free sweep per partition: a slot's zero lanes are
    // the clear bits of its words (plain), the set bits
    // (complemented), or every valid lane (const-0); const-1 slots
    // never charge.  Locals, not members: the uint64_t zero-time
    // stores may alias the size_t partition ends.
    const std::uint32_t *slot_word = slots_.slotWord.data();
    std::uint64_t *zero_time = slotZeroTime_.data();
    const std::size_t word_end = slots_.wordEnd;
    const std::size_t inv_end = slots_.invEnd;
    const std::size_t const0_end = slots_.const0End;
    for (std::size_t s = 0; s < word_end; ++s) {
        const std::uint64_t *words =
            net_words + std::size_t(slot_word[s]) * net_w;
        std::uint64_t zeros = 0;
        for (unsigned w = 0; w < net_w; ++w) {
            zeros += static_cast<std::uint64_t>(
                std::popcount(~words[w] & lane_masks[w]));
        }
        zero_time[s] += zeros * dt;
    }
    for (std::size_t s = word_end; s < inv_end; ++s) {
        const std::uint64_t *words =
            net_words + std::size_t(slot_word[s]) * net_w;
        std::uint64_t zeros = 0;
        for (unsigned w = 0; w < net_w; ++w) {
            zeros += static_cast<std::uint64_t>(
                std::popcount(words[w] & lane_masks[w]));
        }
        zero_time[s] += zeros * dt;
    }
    for (std::size_t s = inv_end; s < const0_end; ++s)
        zero_time[s] += lanes * dt;
    totalTime_ += lanes * dt;
}

void
PmosAgingTracker::applyInput(const std::vector<bool> &input_values,
                             std::uint64_t dt)
{
    netlist_.evaluate(input_values, scratch_);
    observe(scratch_, dt);
}

double
PmosAgingTracker::zeroProb(std::size_t i) const
{
    if (totalTime_ == 0)
        return 0.5;
    return static_cast<double>(
               slotZeroTime_[slots_.deviceSlot.at(i)]) /
        static_cast<double>(totalTime_);
}

AgingSummary
PmosAgingTracker::summarize(const GuardbandModel &model,
                            double fully_stressed_threshold) const
{
    std::vector<double> probs(slots_.deviceSlot.size());
    for (std::size_t i = 0; i < probs.size(); ++i)
        probs[i] = zeroProb(i);
    return summarizeZeroProbs(netlist_, probs, model,
                              fully_stressed_threshold);
}

AgingSummary
PmosAgingTracker::summarizeZeroProbs(
    const Netlist &netlist, const std::vector<double> &zero_probs,
    const GuardbandModel &model, double fully_stressed_threshold)
{
    const auto &devices = netlist.pmosDevices();
    assert(zero_probs.size() == devices.size());

    AgingSummary s;
    s.numDevices = devices.size();
    std::size_t narrow_full = 0;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        const double p = zero_probs[i];
        const bool narrow = devices[i].width == WidthClass::Narrow;
        if (narrow) {
            ++s.numNarrow;
            s.worstNarrowZeroProb =
                std::max(s.worstNarrowZeroProb, p);
            if (p >= fully_stressed_threshold)
                ++narrow_full;
        } else {
            ++s.numWide;
            s.worstWideZeroProb = std::max(s.worstWideZeroProb, p);
        }
        s.guardband = std::max(
            s.guardband,
            model.guardbandForZeroProb(p, devices[i].width));
    }
    if (s.numDevices > 0) {
        s.narrowFullyStressedFraction =
            static_cast<double>(narrow_full) /
            static_cast<double>(s.numDevices);
    }
    return s;
}

void
PmosAgingTracker::reset()
{
    std::fill(slotZeroTime_.begin(), slotZeroTime_.end(), 0);
    totalTime_ = 0;
}

} // namespace penelope
