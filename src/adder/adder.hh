/**
 * @file
 * Common interface for gate-level adders.
 *
 * The Penelope case study uses a 32-bit Ladner-Fischer adder
 * (Section 4.3); ripple-carry and Kogge-Stone implementations are
 * provided as ablation baselines with identical interfaces so the
 * idle-input methodology can be evaluated on different topologies.
 */

#ifndef PENELOPE_ADDER_ADDER_HH
#define PENELOPE_ADDER_ADDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/netlist.hh"

namespace penelope {

/**
 * Base class owning the netlist and the input/output pin maps.
 *
 * Input creation order (relevant for input vectors): a[0..w-1],
 * b[0..w-1], cin.
 */
class Adder
{
  public:
    virtual ~Adder() = default;

    unsigned width() const { return width_; }

    Netlist &netlist() { return netlist_; }
    const Netlist &netlist() const { return netlist_; }

    /** Topology name for reports. */
    virtual const char *name() const = 0;

    /** Pack (a, b, cin) into a primary-input vector. */
    std::vector<bool> makeInputVector(std::uint64_t a,
                                      std::uint64_t b,
                                      bool cin) const;

    /** makeInputVector into a caller-owned buffer (no per-call
     *  allocation; @p in is resized once and reused). */
    void fillInputVector(std::vector<bool> &in, std::uint64_t a,
                         std::uint64_t b, bool cin) const;

    /**
     * Functionally evaluate the netlist.
     * @return sum (width bits); carry-out via @p cout if non-null.
     */
    std::uint64_t evaluate(std::uint64_t a, std::uint64_t b, bool cin,
                           bool *cout = nullptr) const;

    /**
     * Evaluate 64 * @p net_w operand triples in one netlist pass.
     * @p a and @p b hold net_w * 64 operand values (word w covers
     * lanes [w * 64, w * 64 + 64), lane l of word w uses bit l of
     * @p cin_masks[w]); pad unused lanes with zeros.  The operands
     * are bit-transposed into per-input lane words and run through
     * Netlist::evaluateBatchWide; @p net_words receives net_w
     * interleaved lane words per physical word of the compiled
     * stream (resolve a net with Netlist::laneWordWide), ready for
     * PmosAgingTracker::observeBatchWide.  @p net_w must be 1 or
     * Netlist::preferredBatchWords().
     */
    void evaluateBatchWide(const std::uint64_t *a,
                           const std::uint64_t *b,
                           const std::uint64_t *cin_masks,
                           unsigned net_w,
                           std::vector<std::uint64_t> &net_words)
        const;

    const std::vector<SignalId> &sumSignals() const { return sum_; }
    SignalId coutSignal() const { return cout_; }

  protected:
    explicit Adder(unsigned width);

    /** Create the a/b/cin primary inputs (call first in builders). */
    void buildInputs();

    unsigned width_;
    Netlist netlist_;
    std::vector<SignalId> a_;
    std::vector<SignalId> b_;
    SignalId cin_ = invalidSignal;
    std::vector<SignalId> sum_;
    SignalId cout_ = invalidSignal;

    // Evaluation scratch lives in thread_local buffers inside the
    // eval methods (not here): a const Adder shared across the
    // engine's worker threads must evaluate concurrently without
    // racing on scratch state.
};

/** 32-bit (or any width) Ladner-Fischer parallel-prefix adder. */
class LadnerFischerAdder : public Adder
{
  public:
    explicit LadnerFischerAdder(unsigned width = 32);
    const char *name() const override { return "ladner-fischer"; }
};

/** Ripple-carry adder (area-minimal baseline). */
class RippleCarryAdder : public Adder
{
  public:
    explicit RippleCarryAdder(unsigned width = 32);
    const char *name() const override { return "ripple-carry"; }
};

/** Kogge-Stone parallel-prefix adder (fanout-minimal baseline). */
class KoggeStoneAdder : public Adder
{
  public:
    explicit KoggeStoneAdder(unsigned width = 32);
    const char *name() const override { return "kogge-stone"; }
};

} // namespace penelope

#endif // PENELOPE_ADDER_ADDER_HH
