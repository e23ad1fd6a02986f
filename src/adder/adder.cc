#include "adder.hh"

#include <algorithm>
#include <cassert>

#include "common/bitword.hh"

namespace penelope {

namespace {

/** (generate, propagate) pair for prefix networks. */
struct GP
{
    SignalId g;
    SignalId p;
};

/** AND built from upsized (wide) devices: carry-merge sizing. */
SignalId
wideAnd(Netlist &n, SignalId a, SignalId b)
{
    const SignalId t = n.addNand({a, b});
    n.markWide(t);
    const SignalId out = n.addInv(t);
    n.markWide(out);
    return out;
}

/** OR built from upsized (wide) devices. */
SignalId
wideOr(Netlist &n, SignalId a, SignalId b)
{
    const SignalId t = n.addNor({a, b});
    n.markWide(t);
    const SignalId out = n.addInv(t);
    n.markWide(out);
    return out;
}

/**
 * Prefix combine: (g2,p2) o (g1,p1), segment 2 more significant.
 * Carry-merge cells drive long wires and further tree levels, so a
 * real layout upsizes them; all their devices are wide.
 */
GP
combine(Netlist &n, const GP &hi, const GP &lo)
{
    GP out;
    out.g = wideOr(n, hi.g, wideAnd(n, hi.p, lo.g));
    out.p = wideAnd(n, hi.p, lo.p);
    return out;
}

/**
 * Ladner-Fischer divide-and-conquer: on return, pre[j] holds the
 * prefix over [lo..j] for every j in [lo, hi].  The lower half is
 * solved recursively; every upper-half prefix then combines with the
 * single lower-half result pre[mid] -- the high-fanout node that is
 * the LF signature.
 */
void
buildLadnerFischer(Netlist &n, std::vector<GP> &pre, unsigned lo,
                   unsigned hi)
{
    if (lo >= hi)
        return;
    const unsigned mid = lo + (hi - lo) / 2;
    buildLadnerFischer(n, pre, lo, mid);
    buildLadnerFischer(n, pre, mid + 1, hi);
    for (unsigned j = mid + 1; j <= hi; ++j)
        pre[j] = combine(n, pre[j], pre[mid]);
}

} // namespace

Adder::Adder(unsigned width)
    : width_(width)
{
    assert(width_ >= 1 && width_ <= 64);
}

void
Adder::buildInputs()
{
    a_.reserve(width_);
    b_.reserve(width_);
    for (unsigned i = 0; i < width_; ++i)
        a_.push_back(netlist_.addInput());
    for (unsigned i = 0; i < width_; ++i)
        b_.push_back(netlist_.addInput());
    cin_ = netlist_.addInput();
}

void
Adder::evaluateBatchWide(const std::uint64_t *a,
                         const std::uint64_t *b,
                         const std::uint64_t *cin_masks,
                         [[maybe_unused]] unsigned net_w,
                         std::vector<std::uint64_t> &net_words) const
{
    assert(net_w == 1);
    // Per-thread scratch: a const Adder is shared across the
    // engine's worker threads (transpose64x64 is destructive, so
    // operands are copied into the block first).
    thread_local std::vector<std::uint64_t> input_words;
    std::uint64_t block[64];
    input_words.resize(2 * width_ + 1);
    std::copy(a, a + 64, block);
    transpose64x64(block);
    std::copy(block, block + width_, input_words.begin());
    std::copy(b, b + 64, block);
    transpose64x64(block);
    std::copy(block, block + width_, input_words.begin() + width_);
    input_words[2 * width_] = cin_masks[0];
    netlist_.evaluateBatch(input_words.data(), net_words);
}

LadnerFischerAdder::LadnerFischerAdder(unsigned width)
    : Adder(width)
{
    buildInputs();

    // Preprocessing: per-bit propagate/generate.  Propagate uses
    // the datapath-standard transmission-gate XOR cell.
    std::vector<GP> pre(width_);
    std::vector<SignalId> p(width_);
    for (unsigned i = 0; i < width_; ++i) {
        p[i] = netlist_.addTgXor(a_[i], b_[i]);
        pre[i].p = p[i];
        pre[i].g = netlist_.addAnd(a_[i], b_[i]);
    }

    // Parallel-prefix tree over the bit generates/propagates.
    buildLadnerFischer(netlist_, pre, 0, width_ - 1);

    // Fold the carry-in: c_{i+1} = G[0..i] | (P[0..i] & cin).
    // The carry chain is wide (sized like the merge cells).
    std::vector<SignalId> carry(width_ + 1);
    carry[0] = cin_;
    for (unsigned i = 0; i < width_; ++i) {
        carry[i + 1] = wideOr(
            netlist_, pre[i].g,
            wideAnd(netlist_, pre[i].p, cin_));
    }

    // Sum: s_i = p_i XOR c_i.
    sum_.reserve(width_);
    for (unsigned i = 0; i < width_; ++i)
        sum_.push_back(netlist_.addTgXor(p[i], carry[i]));
    cout_ = carry[width_];

    netlist_.finalize();
}

RippleCarryAdder::RippleCarryAdder(unsigned width)
    : Adder(width)
{
    buildInputs();

    SignalId carry = cin_;
    sum_.reserve(width_);
    for (unsigned i = 0; i < width_; ++i) {
        const SignalId p = netlist_.addTgXor(a_[i], b_[i]);
        const SignalId g = netlist_.addAnd(a_[i], b_[i]);
        sum_.push_back(netlist_.addTgXor(p, carry));
        carry = wideOr(netlist_, g,
                       wideAnd(netlist_, p, carry));
    }
    cout_ = carry;

    netlist_.finalize();
}

KoggeStoneAdder::KoggeStoneAdder(unsigned width)
    : Adder(width)
{
    buildInputs();

    std::vector<GP> cur(width_);
    std::vector<SignalId> p(width_);
    for (unsigned i = 0; i < width_; ++i) {
        p[i] = netlist_.addTgXor(a_[i], b_[i]);
        cur[i].p = p[i];
        cur[i].g = netlist_.addAnd(a_[i], b_[i]);
    }

    for (unsigned d = 1; d < width_; d <<= 1) {
        std::vector<GP> next = cur;
        for (unsigned i = d; i < width_; ++i)
            next[i] = combine(netlist_, cur[i], cur[i - d]);
        cur = std::move(next);
    }

    std::vector<SignalId> carry(width_ + 1);
    carry[0] = cin_;
    for (unsigned i = 0; i < width_; ++i) {
        carry[i + 1] = wideOr(
            netlist_, cur[i].g,
            wideAnd(netlist_, cur[i].p, cin_));
    }

    sum_.reserve(width_);
    for (unsigned i = 0; i < width_; ++i)
        sum_.push_back(netlist_.addTgXor(p[i], carry[i]));
    cout_ = carry[width_];

    netlist_.finalize();
}

} // namespace penelope
