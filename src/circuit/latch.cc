#include "latch.hh"

namespace penelope {

LatchBank::LatchBank(unsigned width)
    : bias_(width)
{
}

void
LatchBank::hold(const BitWord &value, std::uint64_t dt)
{
    bias_.observe(value, dt);
}

void
LatchBank::hold(Word value, std::uint64_t dt)
{
    bias_.observe(value, dt);
}

double
LatchBank::worstCaseStress() const
{
    return bias_.maxWorstCaseStress();
}

double
LatchBank::guardband(const GuardbandModel &model) const
{
    return model.guardbandForZeroProb(worstCaseStress(),
                                      WidthClass::Wide);
}

bool
LatchBank::needsMitigation(const GuardbandModel &model) const
{
    // Latch mitigation is needed only when, despite the wide
    // sizing, a latch cell requires more margin than a perfectly
    // balanced narrow device (Section 3.3).
    return guardband(model) > model.balancedGuardband();
}

} // namespace penelope
