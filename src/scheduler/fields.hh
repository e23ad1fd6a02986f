/**
 * @file
 * Scheduler entry field layout (paper Table 2).
 *
 * Every scheduler slot holds 18 fields totalling 144 bits (132
 * excluding the opcode, which Figure 8 omits).  Fields are the unit
 * at which protection techniques are applied; bits are the unit at
 * which bias is measured and ALL1-K% duty factors are chosen.
 */

#ifndef PENELOPE_SCHEDULER_FIELDS_HH
#define PENELOPE_SCHEDULER_FIELDS_HH

#include <cstdint>
#include <string>
#include <vector>


namespace penelope {

/** Field identifiers in Table-2 order. */
enum class FieldId : std::uint8_t
{
    Valid,    ///< 1 bit: slot is valid
    Latency,  ///< 5 bits: uop latency
    Port,     ///< 5 bits: issue port (one-hot)
    Taken,    ///< 1 bit: branch taken
    MobId,    ///< 6 bits: memory order buffer id
    Tos,      ///< 3 bits: FP top-of-stack
    Flags,    ///< 6 bits: uop flags
    Shift1,   ///< 1 bit: source 1 high-byte shift
    Shift2,   ///< 1 bit: source 2 high-byte shift
    DstTag,   ///< 7 bits: destination physical tag
    Src1Tag,  ///< 7 bits: source 1 physical tag
    Src2Tag,  ///< 7 bits: source 2 physical tag
    Ready1,   ///< 1 bit: source 1 ready
    Ready2,   ///< 1 bit: source 2 ready
    Src1Data, ///< 32 bits: captured source 1 data
    Src2Data, ///< 32 bits: captured source 2 data
    Imm,      ///< 16 bits: immediate
    Opcode,   ///< 12 bits: opcode (not shown in Figure 8)
};

inline constexpr unsigned numFields = 18;

/** Static description of one field. */
struct FieldSpec
{
    FieldId id;
    const char *name;
    unsigned width;

    /** Bit offset in the concatenated layout. */
    unsigned offset;

    /** Shown in the paper's Figure 8? (opcode is not). */
    bool inFigure8;
};

/** The full Table-2 layout. */
class FieldLayout
{
  public:
    FieldLayout();

    const FieldSpec &spec(FieldId id) const;
    const FieldSpec &spec(unsigned index) const;
    unsigned count() const { return numFields; }

    /** Total bits (144). */
    unsigned totalBits() const { return totalBits_; }

    /** Total bits shown in Figure 8 (132). */
    unsigned figure8Bits() const { return figure8Bits_; }

  private:
    std::vector<FieldSpec> specs_;
    unsigned totalBits_;
    unsigned figure8Bits_;
};

/** Singleton layout accessor. */
const FieldLayout &fieldLayout();

/**
 * Renamed-tag context supplied by the pipeline/driver when a uop is
 * written into a scheduler slot.
 */
struct RenameTags
{
    std::uint8_t dstTag = 0;
    std::uint8_t src1Tag = 0;
    std::uint8_t src2Tag = 0;
    bool ready1 = true;
    bool ready2 = true;
};

} // namespace penelope

#endif // PENELOPE_SCHEDULER_FIELDS_HH
