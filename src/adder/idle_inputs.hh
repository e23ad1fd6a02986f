/**
 * @file
 * Synthetic idle-input methodology for combinational blocks
 * (Section 3.1 / 4.3).
 *
 * During idle cycles the adder's input latches are loaded with one
 * of eight synthetic inputs <InputA, InputB, CarryIn> (each operand
 * all-zeros or all-ones), alternated round-robin.  This module
 * defines the inputs and the 28 unordered pairs the paper sweeps in
 * Figure 4.
 */

#ifndef PENELOPE_ADDER_IDLE_INPUTS_HH
#define PENELOPE_ADDER_IDLE_INPUTS_HH

#include <array>
#include <string>
#include <vector>

namespace penelope {

/** One synthetic input: each field replicated across all bits. */
struct SyntheticInput
{
    bool inputA;
    bool inputB;
    bool carryIn;
};

/**
 * The eight synthetic inputs in the paper's numbering: input 1 is
 * <0,0,0>, input 2 is <0,0,1>, ..., input 8 is <1,1,1>
 * (<InputA, InputB, CarryIn> in ascending binary order).
 */
const std::array<SyntheticInput, 8> &syntheticInputs();

/** Unordered pair of synthetic inputs (0-based indices). */
struct InputPair
{
    unsigned first;
    unsigned second;

    bool operator==(const InputPair &o) const
    {
        return first == o.first && second == o.second;
    }
};

/** All 28 unordered pairs in Figure-4 order (1+2, 1+3, ... 7+8). */
std::vector<InputPair> allInputPairs();

/** Paper-style label, e.g.\ "1+8" (1-based numbering). */
std::string pairLabel(const InputPair &pair);

} // namespace penelope

#endif // PENELOPE_ADDER_IDLE_INPUTS_HH
