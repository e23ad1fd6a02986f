#include "aging.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <vector>

namespace penelope {

PmosAgingTracker::PmosAgingTracker(const Netlist &netlist)
    : netlist_(netlist)
{
    // Devices whose gate nets resolve to the same canonical NetRef
    // share one zero-time slot: equal refs mean provably equal
    // values under every input (CSE/aliasing of the optimizing
    // compiler, or simple net sharing), so the per-device counters
    // of the scalar form were always duplicates.  Slots are laid
    // out partitioned by ref kind and sorted by word index inside
    // each partition, so the batch observe loops sweep the word
    // array in order with no per-slot branching.
    const auto &devices = netlist.pmosDevices();
    deviceSlot_.reserve(devices.size());

    // Rank keys so the sorted order is exactly the partition order:
    // plain words, complemented words, const-0, const-1.
    auto rankOf = [](NetRef r) -> std::uint64_t {
        switch (r.kind) {
          case NetRefKind::Word:
            return 0;
          case NetRefKind::InvWord:
            return 1;
          case NetRefKind::Const0:
            return 2;
          default:
            return 3;
        }
    };
    auto keyOf = [&](NetRef r) {
        const bool has_word = r.kind == NetRefKind::Word ||
            r.kind == NetRefKind::InvWord;
        return (rankOf(r) << 32) | (has_word ? r.word : 0u);
    };

    // Sort-based grouping rather than a map: the tracker is rebuilt
    // per analysis call, so construction cost is on the measured
    // path, and the optimizer's schedule renumbers words into an
    // order that defeats a node-based tree's nearly-sorted-insert
    // fast path.  Sorting a flat key array yields the same ascending
    // key order, hence the same slot numbering and bit-identical
    // statistics.
    std::vector<std::uint64_t> keys(devices.size());
    for (std::size_t i = 0; i < devices.size(); ++i)
        keys[i] = keyOf(netlist.ref(devices[i].gateSignal));
    std::vector<std::uint64_t> uniq(keys);
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    for (std::uint64_t key : uniq) {
        const auto rank = key >> 32;
        if (rank == 0)
            ++wordEnd_;
        if (rank <= 1)
            ++invEnd_;
        if (rank <= 2)
            ++const0End_;
    }

    slotNet_.assign(uniq.size(), invalidSignal);
    slotWord_.assign(uniq.size(), 0);
    for (std::size_t i = 0; i < devices.size(); ++i) {
        const std::uint32_t slot = static_cast<std::uint32_t>(
            std::lower_bound(uniq.begin(), uniq.end(), keys[i]) -
            uniq.begin());
        if (slotNet_[slot] == invalidSignal) {
            slotNet_[slot] = devices[i].gateSignal;
            slotWord_[slot] = static_cast<std::uint32_t>(
                keys[i] & 0xffffffffu);
        }
        deviceSlot_.push_back(slot);
    }
    slotZeroTime_.assign(uniq.size(), 0);
}

void
PmosAgingTracker::observe(const std::vector<std::uint8_t> &signals,
                          std::uint64_t dt)
{
    for (std::size_t s = 0; s < slotNet_.size(); ++s) {
        if (!signals[slotNet_[s]])
            slotZeroTime_[s] += dt;
    }
    totalTime_ += dt;
}

void
PmosAgingTracker::observeBatch(const std::uint64_t *net_words,
                               std::uint64_t lane_mask,
                               std::uint64_t dt)
{
    // One branch-free sweep per partition: a slot's zero lanes are
    // the clear bits of its word (plain), the set bits
    // (complemented), or every valid lane (const-0); const-1 slots
    // never charge.
    for (std::size_t s = 0; s < wordEnd_; ++s) {
        slotZeroTime_[s] += static_cast<std::uint64_t>(std::popcount(
                                ~net_words[slotWord_[s]] &
                                lane_mask)) *
            dt;
    }
    for (std::size_t s = wordEnd_; s < invEnd_; ++s) {
        slotZeroTime_[s] += static_cast<std::uint64_t>(std::popcount(
                                net_words[slotWord_[s]] &
                                lane_mask)) *
            dt;
    }
    const std::uint64_t lane_time =
        static_cast<std::uint64_t>(std::popcount(lane_mask)) * dt;
    for (std::size_t s = invEnd_; s < const0End_; ++s)
        slotZeroTime_[s] += lane_time;
    totalTime_ += lane_time;
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
    for (std::size_t s = 0; s < wordEnd_; ++s) {
        const std::uint64_t *words =
            net_words + std::size_t(slotWord_[s]) * net_w;
        std::uint64_t zeros = 0;
        for (unsigned w = 0; w < net_w; ++w) {
            zeros += static_cast<std::uint64_t>(
                std::popcount(~words[w] & lane_masks[w]));
        }
        slotZeroTime_[s] += zeros * dt;
    }
    for (std::size_t s = wordEnd_; s < invEnd_; ++s) {
        const std::uint64_t *words =
            net_words + std::size_t(slotWord_[s]) * net_w;
        std::uint64_t zeros = 0;
        for (unsigned w = 0; w < net_w; ++w) {
            zeros += static_cast<std::uint64_t>(
                std::popcount(words[w] & lane_masks[w]));
        }
        slotZeroTime_[s] += zeros * dt;
    }
    for (std::size_t s = invEnd_; s < const0End_; ++s)
        slotZeroTime_[s] += lanes * dt;
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
               slotZeroTime_[deviceSlot_.at(i)]) /
        static_cast<double>(totalTime_);
}

AgingSummary
PmosAgingTracker::summarize(const GuardbandModel &model,
                            double fully_stressed_threshold) const
{
    std::vector<double> probs(deviceSlot_.size());
    for (std::size_t i = 0; i < probs.size(); ++i)
        probs[i] = zeroProb(i);
    return summarizeZeroProbs(netlist_, probs, model,
                              fully_stressed_threshold);
}

std::vector<double>
PmosAgingTracker::combinedZeroProbs(const PmosAgingTracker &other,
                                    double self_weight) const
{
    assert(&other.netlist_ == &netlist_);
    assert(self_weight >= 0.0 && self_weight <= 1.0);
    std::vector<double> out(deviceSlot_.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = self_weight * zeroProb(i) +
            (1.0 - self_weight) * other.zeroProb(i);
    }
    return out;
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
