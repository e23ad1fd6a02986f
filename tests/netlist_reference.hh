/**
 * @file
 * Reference model of netlist evaluation: a scalar gate-list
 * interpreter, the adder and synthetic-input vectors it reads, and a
 * per-device aging tracker fed by it.  Production has one evaluator,
 * the compiled 64-lane op stream (Netlist::evaluateBatch,
 * PmosAgingTracker::observeBatch); the identity tests hold it to this
 * model bit for bit.  The interpreter walks the gate list and never
 * reads the compiled stream, and the tracker counts zero-time per
 * device from its own gate net, so neither shares the compiler's
 * word aliasing or slot grouping.
 */

#ifndef PENELOPE_TESTS_NETLIST_REFERENCE_HH
#define PENELOPE_TESTS_NETLIST_REFERENCE_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "adder/adder.hh"
#include "adder/idle_inputs.hh"
#include "circuit/aging.hh"
#include "circuit/netlist.hh"

namespace penelope::reference {

/**
 * Evaluate @p n on one input vector by interpreting its gate list.
 * @p input_values supplies one value per primary input, in creation
 * order; @p signals is resized to numSignals() and receives every
 * net's value.  Valid before finalize() too.
 */
inline void
evaluate(const Netlist &n, const std::vector<bool> &input_values,
         std::vector<std::uint8_t> &signals)
{
    assert(input_values.size() == n.numInputs());
    signals.resize(n.numSignals());
    std::size_t next_input = 0;
    for (std::size_t i = 0; i < n.numGates(); ++i) {
        const Netlist::Gate &g = n.gate(i);
        switch (g.type) {
          case GateType::Input:
            signals[g.output] = input_values[next_input++] ? 1 : 0;
            break;
          case GateType::Const0:
            signals[g.output] = 0;
            break;
          case GateType::Const1:
            signals[g.output] = 1;
            break;
          case GateType::Inv:
            signals[g.output] = signals[g.inputs[0]] ^ 1;
            break;
          case GateType::Nand: {
            std::uint8_t all = 1;
            for (auto s : g.inputs)
                all &= signals[s];
            signals[g.output] = all ^ 1;
            break;
          }
          case GateType::Nor: {
            std::uint8_t any = 0;
            for (auto s : g.inputs)
                any |= signals[s];
            signals[g.output] = any ^ 1;
            break;
          }
          case GateType::TgPass:
            signals[g.output] =
                signals[g.inputs[0]] ^ signals[g.inputs[1]];
            break;
        }
    }
}

/** Pack (a, b, cin) into @p adder's primary-input vector (inputs
 *  a[0..w-1], b[0..w-1], cin in creation order) in a caller-owned
 *  buffer. */
inline void
fillInputVector(const Adder &adder, std::vector<bool> &in,
                std::uint64_t a, std::uint64_t b, bool cin)
{
    const unsigned width = adder.width();
    in.resize(2 * width + 1);
    for (unsigned i = 0; i < width; ++i) {
        in[i] = (a >> i) & 1;
        in[width + i] = (b >> i) & 1;
    }
    in[2 * width] = cin;
}

/** Scalar sum of @p adder's netlist (width bits); carry-out via
 *  @p cout if non-null. */
inline std::uint64_t
evaluate(const Adder &adder, std::uint64_t a, std::uint64_t b,
         bool cin, bool *cout = nullptr)
{
    std::vector<bool> in;
    fillInputVector(adder, in, a, b, cin);
    thread_local std::vector<std::uint8_t> values;
    evaluate(adder.netlist(), in, values);
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < adder.width(); ++i)
        if (values[adder.sumSignals()[i]])
            sum |= std::uint64_t(1) << i;
    if (cout)
        *cout = values[adder.coutSignal()] != 0;
    return sum;
}

/** Input vector of synthetic input @p index (0-based: 0..7), each
 *  operand field replicated across all bits. */
inline void
syntheticVector(const Adder &adder, unsigned index,
                std::vector<bool> &in)
{
    assert(index < 8);
    const SyntheticInput &s = syntheticInputs()[index];
    const std::uint64_t ones = adder.width() >= 64
        ? ~std::uint64_t(0)
        : (std::uint64_t(1) << adder.width()) - 1;
    fillInputVector(adder, in, s.inputA ? ones : 0,
                    s.inputB ? ones : 0, s.carryIn);
}

inline std::vector<bool>
syntheticVector(const Adder &adder, unsigned index)
{
    std::vector<bool> in;
    syntheticVector(adder, index, in);
    return in;
}

/**
 * Per-device scalar aging tracker: one zero-time counter per PMOS
 * device, charged from the device's own gate net under one
 * interpreted vector at a time.
 */
class AgingTracker
{
  public:
    /** @p netlist must be finalized (devices are extracted then). */
    explicit AgingTracker(const Netlist &netlist)
        : netlist_(netlist),
          zeroTime_(netlist.pmosDevices().size(), 0)
    {
    }

    /** Account @p dt time units with the given net values. */
    void
    observe(const std::vector<std::uint8_t> &signals,
            std::uint64_t dt = 1)
    {
        const auto &devices = netlist_.pmosDevices();
        for (std::size_t i = 0; i < devices.size(); ++i) {
            if (!signals[devices[i].gateSignal])
                zeroTime_[i] += dt;
        }
        totalTime_ += dt;
    }

    /** Interpret and observe an input vector in one step. */
    void
    applyInput(const std::vector<bool> &input_values,
               std::uint64_t dt = 1)
    {
        evaluate(netlist_, input_values, scratch_);
        observe(scratch_, dt);
    }

    /** Zero-signal probability of device @p i (0.5 if never
     *  observed), the ratio PmosAgingTracker::zeroProb divides. */
    double
    zeroProb(std::size_t i) const
    {
        if (totalTime_ == 0)
            return 0.5;
        return static_cast<double>(zeroTime_.at(i)) /
            static_cast<double>(totalTime_);
    }

    std::size_t numDevices() const { return zeroTime_.size(); }

    AgingSummary
    summarize(const GuardbandModel &model) const
    {
        std::vector<double> probs(zeroTime_.size());
        for (std::size_t i = 0; i < probs.size(); ++i)
            probs[i] = zeroProb(i);
        return PmosAgingTracker::summarizeZeroProbs(netlist_, probs,
                                                    model);
    }

  private:
    const Netlist &netlist_;
    std::vector<std::uint64_t> zeroTime_; ///< per device
    std::uint64_t totalTime_ = 0;
    std::vector<std::uint8_t> scratch_; ///< applyInput net values
};

/**
 * Charge one input vector to the production @p tracker through the
 * batch path: the vector fills lane 0 of a one-word pass and only
 * that lane is observed.
 */
inline void
observeVector(PmosAgingTracker &tracker,
              const std::vector<bool> &input_values,
              std::uint64_t dt = 1)
{
    const Netlist &n = tracker.netlist();
    assert(input_values.size() == n.numInputs());
    std::vector<std::uint64_t> input_words(n.numInputs());
    for (std::size_t i = 0; i < input_words.size(); ++i)
        input_words[i] = input_values[i] ? 1 : 0;
    std::vector<std::uint64_t> words;
    n.evaluateBatch(input_words.data(), words);
    tracker.observeBatch(words.data(), 1, dt);
}

} // namespace penelope::reference

#endif // PENELOPE_TESTS_NETLIST_REFERENCE_HH
