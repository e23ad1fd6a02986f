/**
 * @file
 * Seeded byte mutation for the decoder fuzz tests: every test that
 * feeds untrusted bytes to a decoder (frames, snapshots, shard
 * plans, result payloads, cache store and shard files) draws its
 * mutants from these, so a failing iteration reproduces from its
 * seed.
 */

#ifndef PENELOPE_TESTS_FUZZ_HH
#define PENELOPE_TESTS_FUZZ_HH

#include <cstdint>
#include <string>

namespace penelope {

/** xorshift64: a tiny seeded stream, independent of the library's
 *  Rng so a change there never moves a fuzz corpus. */
struct FuzzRng
{
    std::uint64_t state;

    explicit FuzzRng(std::uint64_t seed) : state(seed ? seed : 1) {}

    std::uint64_t
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }

    std::uint32_t
    below(std::uint32_t n)
    {
        return n ? static_cast<std::uint32_t>(next() % n) : 0;
    }
};

/** A seeded mutant of @p bytes: a strict prefix one time in four,
 *  otherwise one to three bit flips. */
inline std::string
mutate(std::string bytes, FuzzRng &rng)
{
    const auto size = static_cast<std::uint32_t>(bytes.size());
    if (rng.below(4) == 0) {
        bytes.resize(rng.below(size));
        return bytes;
    }
    for (unsigned f = 1 + rng.below(3); f > 0; --f)
        bytes[rng.below(size)] ^= static_cast<char>(1u << rng.below(8));
    return bytes;
}

} // namespace penelope

#endif // PENELOPE_TESTS_FUZZ_HH
