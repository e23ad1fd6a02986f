/**
 * @file
 * Adversarial trace generation: the wearout-attack workload.
 *
 * Related work on targeted wearout attacks observes that a hostile
 * instruction stream can pin chosen storage bits at one logic value
 * for almost all of their lifetime, aging the corresponding PMOS
 * devices far faster than any SPEC-like workload would.  This
 * module synthesises such a stream against the Table-2 scheduler
 * layout: every uop carries identical captured source data, an
 * identical immediate and identical control state, so each targeted
 * field stores the same value in every busy slot, cycle after
 * cycle.  Combined with a dispatch rate high enough to keep the
 * scheduler saturated, the targeted bits' duty cycles approach
 * occupancy x 100%.
 *
 * The generator produces ordinary Uop records and plugs into the
 * same SchedulerReplay (and the same parallel engine plumbing) as
 * the workload traces: only the uop *content* is adversarial, so
 * baseline-vs-attack comparisons isolate the data effect.
 */

#ifndef PENELOPE_TRACE_ATTACK_HH
#define PENELOPE_TRACE_ATTACK_HH

#include <algorithm>
#include <cstdint>

#include "common/types.hh"
#include "uop.hh"

namespace penelope {

/** What the adversarial stream pins each targeted field to. */
struct AttackConfig
{
    /** Value captured into both source-data fields (32 bits live in
     *  the scheduler slot).  0 stresses the "0"-storing PMOS of
     *  every data bit; ~0 stresses the complementary device. */
    Word dataValue = 0;

    /** Immediate pinned into the 16-bit Imm field. */
    std::uint16_t imm = 0;

    /** Constant control state (latency/port/MOB id/flags/opcode). */
    std::uint8_t latency = 1;
    std::uint8_t port = 0;
    std::uint8_t mobId = 0;
    std::uint8_t flags = 0;
    std::uint16_t opcode = 0;

    /** Branch outcome for the periodic branch uops. */
    bool taken = false;

    /** Every n-th uop is a branch so the Taken bit sees live data
     *  (0 disables branches entirely). */
    unsigned branchPeriod = 8;

    /**
     * Architectural registers the stream cycles through (0 = all
     * of them, the scheduler-attack default).  A small window is
     * the register-file variant of the attack: the hot registers
     * are overwritten with the pinned value on almost every cycle,
     * so their physical registers hold it for their entire
     * renaming lifetime while the rest of the file idles at
     * whatever it last held.
     */
    unsigned hotRegs = 0;
};

/**
 * Deterministic adversarial uop stream (drop-in for TraceGenerator
 * in any driver templated on the source's `Uop next()`).
 *
 * Uop n (0-based) is a branch when n % branchPeriod ==
 * branchPeriod - 1 and otherwise an IntAlu op; its destination is
 * register (n + 1) % span of the rotation window, its sources the
 * next two round the window.  next() is inline: pricing an attack
 * candidate reads only the class and values of thousands of uops,
 * and inlined there the register rotation's divisions drop out.
 */
class AttackTraceGenerator
{
  public:
    explicit AttackTraceGenerator(const AttackConfig &config)
        : config_(config)
    {
    }

    /** Produce the next adversarial uop. */
    Uop
    next()
    {
        Uop uop;
        const bool branch = config_.branchPeriod != 0 &&
            (count_ % config_.branchPeriod) ==
                config_.branchPeriod - 1;
        ++count_;

        uop.cls = branch ? UopClass::Branch : UopClass::IntAlu;
        uop.latency = config_.latency;
        uop.port = config_.port;
        uop.taken = branch && config_.taken;
        uop.mobId = config_.mobId;
        uop.tos = 0;
        uop.flags = config_.flags;
        uop.shift1 = false;
        uop.shift2 = false;

        // Rotate the architectural registers minimally so renaming
        // stays plausible; the *values* are what the attack pins.
        // A hotRegs window narrows the rotation to the targeted
        // registers (register-file attack); 0 keeps the full
        // rotation (scheduler attack, the original behaviour).
        const unsigned span = config_.hotRegs != 0
            ? std::min(config_.hotRegs, numArchIntRegs)
            : numArchIntRegs;
        const std::uint8_t reg =
            static_cast<std::uint8_t>(count_ % span);
        uop.dstReg = reg;
        uop.srcReg1 = static_cast<std::uint8_t>((reg + 1) % span);
        uop.srcReg2 = static_cast<std::uint8_t>((reg + 2) % span);

        uop.srcVal1 = config_.dataValue;
        uop.srcVal2 = config_.dataValue;
        uop.imm = config_.imm;
        uop.hasImm = true;
        uop.dstVal = config_.dataValue;
        uop.opcode = config_.opcode;
        return uop;
    }

    const AttackConfig &config() const { return config_; }

  private:
    AttackConfig config_;
    std::uint64_t count_ = 0;
};

} // namespace penelope

#endif // PENELOPE_TRACE_ATTACK_HH
