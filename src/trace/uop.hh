/**
 * @file
 * Micro-operation (uop) model.
 *
 * The paper's simulator consumes IA32 traces cracked into uops; the
 * scheduler fields of Table 2 (latency, port, taken, MOB id, tos,
 * flags, shift bits, register tags, ready bits, captured source data,
 * immediate, opcode) are all visible on each uop.  This struct is the
 * unit record every Penelope simulator consumes.
 */

#ifndef PENELOPE_TRACE_UOP_HH
#define PENELOPE_TRACE_UOP_HH

#include <cstdint>

#include "common/types.hh"

namespace penelope {

/** Functional class of a uop. */
enum class UopClass : std::uint8_t
{
    IntAlu,   ///< single-cycle integer ALU op (uses an adder)
    IntMul,   ///< multi-cycle integer multiply
    FpAdd,    ///< floating-point add
    FpMul,    ///< floating-point multiply
    Load,     ///< memory load (address generation uses an adder)
    Store,    ///< memory store (address generation uses an adder)
    Branch,   ///< conditional/unconditional branch
    Nop,      ///< no-op / fence
};

/** Number of UopClass values (for iteration). */
inline constexpr unsigned numUopClasses = 8;

/** True when the class reads or writes memory.  Inline, like the
 *  other class predicates: the replay loops test every uop. */
inline bool
isMemory(UopClass cls)
{
    return cls == UopClass::Load || cls == UopClass::Store;
}

/** True when the class operates on FP registers. */
inline bool
isFp(UopClass cls)
{
    return cls == UopClass::FpAdd || cls == UopClass::FpMul;
}

/** True when an integer adder performs the op or its address
 *  generation.  Integer ALU ops execute on an adder; loads and
 *  stores use one for address generation (the paper assumes an
 *  adder in each integer and address-generation port). */
inline bool
usesAdder(UopClass cls)
{
    return cls == UopClass::IntAlu || cls == UopClass::Load ||
        cls == UopClass::Store;
}

/**
 * One micro-operation, as delivered by a trace.
 *
 * Register identifiers are architectural; renaming happens in the
 * pipeline model.  Source *values* are carried in the trace (the
 * paper's scheduler is a data-capture design).
 */
struct Uop
{
    UopClass cls = UopClass::Nop;

    /** Execution latency in cycles (Table 2 'Latency', 5 bits). */
    std::uint8_t latency = 1;

    /** Issue port the uop is bound to (Table 2 'Port', one-hot of
     *  5 in hardware; stored as index here). */
    std::uint8_t port = 0;

    /** Branch outcome (Table 2 'Taken'). */
    bool taken = false;

    /** Memory Order Buffer identifier (Table 2, 6 bits). */
    std::uint8_t mobId = 0;

    /** FP top-of-stack position (Table 2 'tos', 3 bits). */
    std::uint8_t tos = 0;

    /** Flag bits produced/consumed (Table 2 'Flags', 6 bits). */
    std::uint8_t flags = 0;

    /** Source high-byte shift selectors (AH/BH/CH/DH). */
    bool shift1 = false;
    bool shift2 = false;

    /** Architectural register operands; 0xff = unused. */
    std::uint8_t dstReg = 0xff;
    std::uint8_t srcReg1 = 0xff;
    std::uint8_t srcReg2 = 0xff;

    /** Captured source data values. */
    Word srcVal1 = 0;
    Word srcVal2 = 0;

    /** Immediate operand (16 bits in the scheduler). */
    std::uint16_t imm = 0;
    bool hasImm = false;

    /** Result value written to dstReg (trace-supplied). */
    Word dstVal = 0;

    /** Bits 64..79 of an FP (x87 extended) result; zero for
     *  integer uops. */
    std::uint16_t dstValHi = 0;

    /** Effective address for loads/stores. */
    Addr addr = 0;

    /** Opcode (Table 2, 12 bits). */
    std::uint16_t opcode = 0;

    bool usesSrc1() const { return srcReg1 != 0xff; }
    bool usesSrc2() const { return srcReg2 != 0xff; }
    bool writesReg() const { return dstReg != 0xff; }
};

/** Architectural register file sizes used by the trace generator. */
inline constexpr unsigned numArchIntRegs = 16;
inline constexpr unsigned numArchFpRegs = 8;

} // namespace penelope

#endif // PENELOPE_TRACE_UOP_HH
