#include "netlist.hh"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hh"

namespace penelope {

namespace {

/** File-scope handles: evaluateBatch runs ~10^5-10^6 times per
 *  second, so the emission cost budget here is two relaxed adds
 *  (and a single relaxed bool when disabled).  Lane utilization
 *  is lanes-used (reported by the feeding drivers) over
 *  lane-capacity (64 per pass, charged here). */
const obs::Counter g_batchEvals =
    obs::Registry::instance().counter("netlist.batch_evals");
const obs::Counter g_laneCapacity =
    obs::Registry::instance().counter("netlist.lane_capacity",
                                      "lanes");

} // namespace

SignalId
Netlist::newSignal(std::uint32_t producer_gate)
{
    const SignalId id = static_cast<SignalId>(producers_.size());
    producers_.push_back(producer_gate);
    return id;
}

SignalId
Netlist::addInput()
{
    assert(!finalized_);
    Gate g;
    g.type = GateType::Input;
    const auto gate_index = static_cast<std::uint32_t>(gates_.size());
    g.output = newSignal(gate_index);
    gates_.push_back(std::move(g));
    inputs_.push_back(gates_.back().output);
    return gates_.back().output;
}

SignalId
Netlist::addConst(bool value)
{
    assert(!finalized_);
    Gate g;
    g.type = value ? GateType::Const1 : GateType::Const0;
    const auto gate_index = static_cast<std::uint32_t>(gates_.size());
    g.output = newSignal(gate_index);
    gates_.push_back(std::move(g));
    return gates_.back().output;
}

SignalId
Netlist::addInv(SignalId a)
{
    assert(!finalized_);
    assert(a < producers_.size());
    Gate g;
    g.type = GateType::Inv;
    g.inputs = {a};
    const auto gate_index = static_cast<std::uint32_t>(gates_.size());
    g.output = newSignal(gate_index);
    gates_.push_back(std::move(g));
    return gates_.back().output;
}

SignalId
Netlist::addNand(const std::vector<SignalId> &inputs)
{
    assert(!finalized_);
    assert(inputs.size() >= 2);
    for ([[maybe_unused]] auto s : inputs)
        assert(s < producers_.size());
    Gate g;
    g.type = GateType::Nand;
    g.inputs = inputs;
    const auto gate_index = static_cast<std::uint32_t>(gates_.size());
    g.output = newSignal(gate_index);
    gates_.push_back(std::move(g));
    return gates_.back().output;
}

SignalId
Netlist::addNor(const std::vector<SignalId> &inputs)
{
    assert(!finalized_);
    assert(inputs.size() >= 2);
    for ([[maybe_unused]] auto s : inputs)
        assert(s < producers_.size());
    Gate g;
    g.type = GateType::Nor;
    g.inputs = inputs;
    const auto gate_index = static_cast<std::uint32_t>(gates_.size());
    g.output = newSignal(gate_index);
    gates_.push_back(std::move(g));
    return gates_.back().output;
}

SignalId
Netlist::addBuf(SignalId a)
{
    return addInv(addInv(a));
}

SignalId
Netlist::addAnd(SignalId a, SignalId b)
{
    return addInv(addNand({a, b}));
}

SignalId
Netlist::addOr(SignalId a, SignalId b)
{
    return addInv(addNor({a, b}));
}

SignalId
Netlist::addXor(SignalId a, SignalId b)
{
    // Standard 4-NAND XOR.
    const SignalId n1 = addNand({a, b});
    const SignalId n2 = addNand({a, n1});
    const SignalId n3 = addNand({b, n1});
    return addNand({n2, n3});
}

SignalId
Netlist::addXnor(SignalId a, SignalId b)
{
    return addInv(addXor(a, b));
}

SignalId
Netlist::addMux(SignalId sel, SignalId a, SignalId b)
{
    // out = (a NAND sel) NAND (b NAND !sel)
    const SignalId nsel = addInv(sel);
    const SignalId t1 = addNand({a, sel});
    const SignalId t2 = addNand({b, nsel});
    return addNand({t1, t2});
}

SignalId
Netlist::addTgXor(SignalId a, SignalId b)
{
    assert(!finalized_);
    const SignalId na = addInv(a); // PMOS gated by a
    const SignalId nb = addInv(b); // PMOS gated by b
    // TG pair: PMOS devices gated by na and nb; logically a XOR b.
    Gate g;
    g.type = GateType::TgPass;
    g.inputs = {a, b, na, nb};
    const auto gate_index = static_cast<std::uint32_t>(gates_.size());
    g.output = newSignal(gate_index);
    gates_.push_back(std::move(g));
    return gates_.back().output;
}

void
Netlist::markWide(SignalId s)
{
    assert(!finalized_);
    assert(s < producers_.size());
    forcedWide_.push_back(producers_[s]);
}

void
Netlist::evaluateBatch(const std::uint64_t *input_words,
                       std::vector<std::uint64_t> &net_words) const
{
    assert(finalized_);
    g_batchEvals.add();
    g_laneCapacity.add(64);
    net_words.resize(wordCount_);
    // One switch over the compiled stream.  The optimizing compiler
    // emits outputs in strictly increasing slot order with
    // depth-first operand locality, so the store stream is
    // sequential and operands are usually still L1-resident.
    std::uint64_t *w = net_words.data();
    for (const CompiledOp &op : ops_) {
        std::uint64_t &out = w[op.out];
        switch (op.kind) {
          case CompiledOp::Kind::Input:
            out = input_words[op.a];
            break;
          case CompiledOp::Kind::Inv:
            out = ~w[op.a];
            break;
          case CompiledOp::Kind::Nand2:
            out = ~(w[op.a] & w[op.b]);
            break;
          case CompiledOp::Kind::NandK: {
            std::uint64_t all = w[op.a] & w[op.b];
            for (std::uint32_t e = 0; e < op.extraCount; ++e)
                all &= w[extraFanins_[op.extra + e]];
            out = ~all;
            break;
          }
          case CompiledOp::Kind::NorK: {
            std::uint64_t any = w[op.a] | w[op.b];
            for (std::uint32_t e = 0; e < op.extraCount; ++e)
                any |= w[extraFanins_[op.extra + e]];
            out = ~any;
            break;
          }
          case CompiledOp::Kind::TgPass:
            out = w[op.a] ^ w[op.b];
            break;
          case CompiledOp::Kind::Nand2ca:
            out = w[op.a] | ~w[op.b];
            break;
          case CompiledOp::Kind::Or2:
            out = w[op.a] | w[op.b];
            break;
        }
    }
}

void
Netlist::finalize(unsigned wide_fanout)
{
    // Idempotent: a second finalize() (defensive wrappers, shared
    // netlists) must not double-extract PMOS devices or recompile
    // the op stream.
    if (finalized_)
        return;

    fanout_.assign(producers_.size(), 0);
    for (const Gate &g : gates_)
        for (auto s : g.inputs)
            ++fanout_[s];

    // Width classes: a gate driving >= wide_fanout consumers is
    // implemented with upsized transistors, as are gates the
    // builder explicitly marked (carry-merge chains).
    for (Gate &g : gates_) {
        if (g.type == GateType::Input || g.type == GateType::Const0 ||
            g.type == GateType::Const1) {
            continue;
        }
        g.width = fanout_[g.output] >= wide_fanout
            ? WidthClass::Wide : WidthClass::Narrow;
    }
    for (auto gate_index : forcedWide_)
        gates_.at(gate_index).width = WidthClass::Wide;

    // PMOS extraction: one device per primitive-gate input, tied to
    // that input signal, sized with the owning gate's class.  A
    // TG-XOR's pass devices are gated by the operand complements
    // (inputs 2 and 3 of the TgPass record).
    pmos_.clear();
    for (std::size_t i = 0; i < gates_.size(); ++i) {
        const Gate &g = gates_[i];
        if (g.type == GateType::Inv || g.type == GateType::Nand ||
            g.type == GateType::Nor) {
            for (auto s : g.inputs) {
                pmos_.push_back(
                    {s, static_cast<std::uint32_t>(i), g.width});
            }
        } else if (g.type == GateType::TgPass) {
            pmos_.push_back(
                {g.inputs[2], static_cast<std::uint32_t>(i),
                 g.width});
            pmos_.push_back(
                {g.inputs[3], static_cast<std::uint32_t>(i),
                 g.width});
        }
    }

    // Logic depth.
    std::vector<unsigned> sig_depth(producers_.size(), 0);
    depth_ = 0;
    for (const Gate &g : gates_) {
        if (g.type == GateType::Input || g.type == GateType::Const0 ||
            g.type == GateType::Const1) {
            sig_depth[g.output] = 0;
            continue;
        }
        unsigned d = 0;
        for (auto s : g.inputs)
            d = std::max(d, sig_depth[s]);
        sig_depth[g.output] = d + 1;
        depth_ = std::max(depth_, d + 1);
    }

    compile();
    buildPmosSlots();
    finalized_ = true;
}

void
Netlist::buildPmosSlots()
{
    // Rank keys so the sorted order is exactly the partition order:
    // plain words, complemented words, const-0, const-1.
    auto keyOf = [](NetRef r) -> std::uint64_t {
        switch (r.kind) {
          case NetRefKind::Word:
            return r.word;
          case NetRefKind::InvWord:
            return (std::uint64_t(1) << 32) | r.word;
          case NetRefKind::Const0:
            return std::uint64_t(2) << 32;
          default:
            return std::uint64_t(3) << 32;
        }
    };

    // Sort-based grouping rather than a map: the optimizer's
    // schedule renumbers words into an order that defeats a
    // node-based tree's nearly-sorted-insert fast path.  Built once
    // here, so every tracker on this netlist shares the layout and
    // costs one zero-time allocation to construct.
    PmosSlotMap &m = pmosSlots_;
    std::vector<std::uint64_t> keys(pmos_.size());
    for (std::size_t i = 0; i < pmos_.size(); ++i)
        keys[i] = keyOf(refs_[pmos_[i].gateSignal]);
    std::vector<std::uint64_t> uniq(keys);
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    for (std::uint64_t key : uniq) {
        const auto rank = key >> 32;
        if (rank == 0)
            ++m.wordEnd;
        if (rank <= 1)
            ++m.invEnd;
        if (rank <= 2)
            ++m.const0End;
    }

    m.slotWord.resize(uniq.size());
    for (std::size_t slot = 0; slot < uniq.size(); ++slot)
        m.slotWord[slot] =
            static_cast<std::uint32_t>(uniq[slot] & 0xffffffffu);
    m.deviceSlot.resize(pmos_.size());
    for (std::size_t i = 0; i < pmos_.size(); ++i) {
        m.deviceSlot[i] = static_cast<std::uint32_t>(
            std::lower_bound(uniq.begin(), uniq.end(), keys[i]) -
            uniq.begin());
    }
}

const std::vector<PmosDevice> &
Netlist::pmosDevices() const
{
    assert(finalized_);
    return pmos_;
}

const PmosSlotMap &
Netlist::pmosSlots() const
{
    assert(finalized_);
    return pmosSlots_;
}

SignalId
buildFigure2Circuit(Netlist &netlist)
{
    const SignalId a = netlist.addInput();
    const SignalId b = netlist.addInput();
    const SignalId c = netlist.addInput();
    const SignalId nand_ab = netlist.addNand({a, b});
    const SignalId nor_out = netlist.addNor({nand_ab, c});
    return netlist.addInv(nor_out);
}

} // namespace penelope
