#include "fields.hh"

#include <cassert>

namespace penelope {

FieldLayout::FieldLayout()
{
    struct Raw
    {
        FieldId id;
        const char *name;
        unsigned width;
        bool inFigure8;
    };
    const Raw raw[] = {
        {FieldId::Valid, "valid", 1, true},
        {FieldId::Latency, "latency", 5, true},
        {FieldId::Port, "port", 5, true},
        {FieldId::Taken, "taken", 1, true},
        {FieldId::MobId, "MOBid", 6, true},
        {FieldId::Tos, "tos", 3, true},
        {FieldId::Flags, "flags", 6, true},
        {FieldId::Shift1, "shift1", 1, true},
        {FieldId::Shift2, "shift2", 1, true},
        {FieldId::DstTag, "DSTtag", 7, true},
        {FieldId::Src1Tag, "SRC1tag", 7, true},
        {FieldId::Src2Tag, "SRC2tag", 7, true},
        {FieldId::Ready1, "ready1", 1, true},
        {FieldId::Ready2, "ready2", 1, true},
        {FieldId::Src1Data, "SRC1data", 32, true},
        {FieldId::Src2Data, "SRC2data", 32, true},
        {FieldId::Imm, "immediate", 16, true},
        {FieldId::Opcode, "opcode", 12, false},
    };
    unsigned offset = 0;
    unsigned fig8 = 0;
    for (const Raw &r : raw) {
        specs_.push_back({r.id, r.name, r.width, offset,
                          r.inFigure8});
        offset += r.width;
        if (r.inFigure8)
            fig8 += r.width;
    }
    totalBits_ = offset;
    figure8Bits_ = fig8;
    assert(specs_.size() == numFields);
    assert(totalBits_ == 144);
    assert(figure8Bits_ == 132);
}

const FieldSpec &
FieldLayout::spec(FieldId id) const
{
    const auto &s = specs_.at(static_cast<unsigned>(id));
    assert(s.id == id);
    return s;
}

const FieldSpec &
FieldLayout::spec(unsigned index) const
{
    return specs_.at(index);
}

const FieldLayout &
fieldLayout()
{
    static const FieldLayout layout;
    return layout;
}

} // namespace penelope
