/**
 * @file
 * Reference model of a scheduler slot's field contents: which
 * Table-2 fields a uop occupies and the value each one holds, field
 * by field from the layout spec.  Production composes the whole
 * 144-bit image in one fused deposit (Scheduler::allocate); the
 * scheduler tests hold that deposit to this model.
 */

#ifndef PENELOPE_TESTS_SCHEDULER_REFERENCE_HH
#define PENELOPE_TESTS_SCHEDULER_REFERENCE_HH

#include <cstdint>

#include "common/bitword.hh"
#include "scheduler/fields.hh"
#include "trace/uop.hh"

namespace penelope::reference {

/** Whether @p field carries live data for @p uop (unused fields are
 *  free to hold repair values even while the slot is busy).  The
 *  rename tags matter for the data-capture fields: an operand that
 *  was ready at allocation is read from the register file, so its
 *  capture field stays free. */
inline bool
fieldUsedByUop(FieldId field, const Uop &uop, const RenameTags &tags)
{
    // Almost every field holds live data whenever the slot is busy
    // (a 0 in 'taken' for a non-branch is a live 0: the bit cell
    // stores it).  Only the captured source data and the immediate
    // "remain unused beyond the allocation or are not used at all
    // for some instructions" (Section 4.5) and may hold repair
    // values while the slot is busy: an operand already ready at
    // allocation never occupies its capture field.
    switch (field) {
      case FieldId::Src1Data:
        return uop.usesSrc1() && !tags.ready1;
      case FieldId::Src2Data:
        return uop.usesSrc2() && !tags.ready2;
      case FieldId::Imm:
        return uop.hasImm;
      default:
        return true;
    }
}

/** Program value of @p field for @p uop (width-matched BitWord). */
inline BitWord
fieldValue(FieldId field, const Uop &uop, const RenameTags &tags)
{
    const unsigned width = fieldLayout().spec(field).width;
    switch (field) {
      case FieldId::Valid:
        return BitWord(width, 1);
      case FieldId::Latency:
        return BitWord(width, uop.latency);
      case FieldId::Port:
        return BitWord(width, std::uint64_t(1) << uop.port);
      case FieldId::Taken:
        return BitWord(width, uop.taken ? 1 : 0);
      case FieldId::MobId:
        return BitWord(width, uop.mobId);
      case FieldId::Tos:
        return BitWord(width, uop.tos);
      case FieldId::Flags:
        return BitWord(width, uop.flags);
      case FieldId::Shift1:
        return BitWord(width, uop.shift1 ? 1 : 0);
      case FieldId::Shift2:
        return BitWord(width, uop.shift2 ? 1 : 0);
      case FieldId::DstTag:
        return BitWord(width, tags.dstTag);
      case FieldId::Src1Tag:
        return BitWord(width, tags.src1Tag);
      case FieldId::Src2Tag:
        return BitWord(width, tags.src2Tag);
      case FieldId::Ready1:
        return BitWord(width, tags.ready1 ? 1 : 0);
      case FieldId::Ready2:
        return BitWord(width, tags.ready2 ? 1 : 0);
      case FieldId::Src1Data:
        return BitWord(width, uop.srcVal1 & 0xffffffffULL);
      case FieldId::Src2Data:
        return BitWord(width, uop.srcVal2 & 0xffffffffULL);
      case FieldId::Imm:
        return BitWord(width, uop.imm);
      case FieldId::Opcode:
        return BitWord(width, uop.opcode);
    }
    return BitWord(width);
}

} // namespace penelope::reference

#endif // PENELOPE_TESTS_SCHEDULER_REFERENCE_HH
