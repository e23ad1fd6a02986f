#include "idle_inputs.hh"

namespace penelope {

const std::array<SyntheticInput, 8> &
syntheticInputs()
{
    static const std::array<SyntheticInput, 8> inputs = {{
        {false, false, false}, // 1: <0,0,0>
        {false, false, true},  // 2: <0,0,1>
        {false, true, false},  // 3: <0,1,0>
        {false, true, true},   // 4: <0,1,1>
        {true, false, false},  // 5: <1,0,0>
        {true, false, true},   // 6: <1,0,1>
        {true, true, false},   // 7: <1,1,0>
        {true, true, true},    // 8: <1,1,1>
    }};
    return inputs;
}

std::vector<InputPair>
allInputPairs()
{
    std::vector<InputPair> pairs;
    for (unsigned i = 0; i < 8; ++i)
        for (unsigned j = i + 1; j < 8; ++j)
            pairs.push_back({i, j});
    return pairs;
}

std::string
pairLabel(const InputPair &pair)
{
    return std::to_string(pair.first + 1) + "+" +
        std::to_string(pair.second + 1);
}

} // namespace penelope
