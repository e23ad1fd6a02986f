/**
 * @file
 * Synthetic trace generator.
 *
 * Produces deterministic uop traces from a (suite, index) pair: the
 * same TraceSpec always yields bit-identical uops.  The generator
 * maintains architectural register images so captured source values
 * have realistic temporal correlation (a register read returns the
 * value most recently written to it), which matters for the register
 * file and scheduler bias experiments.
 *
 * Replay traces (WorkloadSet::replayGenerator) omit the address
 * stream: the register-file and scheduler replays never read
 * Uop::addr, and building it costs a Zipf table per trace plus a
 * draw per memory uop.  Addresses come from their own Rng, so every
 * other Uop field of a replay trace equals the full trace's; addr
 * stays 0.
 */

#ifndef PENELOPE_TRACE_GENERATOR_HH
#define PENELOPE_TRACE_GENERATOR_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <vector>

#include "suite.hh"
#include "uop.hh"
#include "value_gen.hh"

namespace penelope {

/** Identity of one trace in the workload set. */
struct TraceSpec
{
    SuiteId suite = SuiteId::Encoder;
    unsigned indexInSuite = 0;
    std::uint64_t seed = 0;
};

/** Per-trace parameters resolved from the suite profile + seed. */
struct TraceParams
{
    std::uint64_t wssBytes = 64 * 1024;
    double zipfExponent = 0.8;
    double sequentialFraction = 0.4;
    double takenProb = 0.55;
};

/** A fully materialised trace. */
struct Trace
{
    TraceSpec spec;
    TraceParams params;
    std::vector<Uop> uops;
};

/**
 * Fixed-capacity newest-first ring of recently written registers.
 *
 * Replaces a vector with insert-at-begin/pop-at-end (which shifted
 * the whole pool on every uop) with O(1) pushes; contents and
 * indexing order are identical.  N must be a power of two.
 */
template <unsigned N>
class RecentRing
{
    static_assert((N & (N - 1)) == 0, "N must be a power of two");

  public:
    void
    assign(std::initializer_list<std::uint8_t> init)
    {
        head_ = 0;
        size_ = 0;
        for (auto it = std::rbegin(init); it != std::rend(init);
             ++it)
            pushFront(*it);
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Element @p back positions behind the newest (0 = newest). */
    std::uint8_t
    operator[](std::size_t back) const
    {
        return buf_[(head_ + back) % N];
    }

    /** Insert the newest element (oldest drops off at capacity). */
    void
    pushFront(std::uint8_t value)
    {
        head_ = (head_ + N - 1) % N;
        buf_[head_] = value;
        if (size_ < N)
            ++size_;
    }

  private:
    std::uint8_t buf_[N] = {};
    unsigned head_ = 0;
    unsigned size_ = 0;
};

/**
 * Deterministic uop trace generator for one TraceSpec.
 *
 * Usage: construct, then call generate(n) once, or next() repeatedly
 * for streaming consumption without materialising the whole trace.
 */
class TraceGenerator
{
  public:
    /** With @p addresses false the stream leaves Uop::addr at 0 and
     *  never builds the address generator (see the file comment). */
    explicit TraceGenerator(const TraceSpec &spec,
                            bool addresses = true);

    /** Produce the next uop of the stream. */
    Uop next();

    /** Materialise @p num_uops into a Trace. */
    Trace generate(std::size_t num_uops);

    const TraceParams &params() const { return params_; }
    const SuiteProfile &profile() const { return profile_; }

  private:
    UopClass pickClass();
    std::uint8_t pickPort(UopClass cls) const;
    std::uint8_t latencyFor(UopClass cls) const;
    std::uint16_t opcodeFor(UopClass cls);
    std::uint8_t pickSourceReg(bool fp);
    std::uint8_t pickDestReg(bool fp);
    std::uint8_t computeFlags(Word result) const;

    TraceSpec spec_;
    const SuiteProfile &profile_;
    TraceParams params_;

    /** Precomputed 1 / max(1, ilpDistance) (same double as the
     *  per-call expression; hoisted off the per-uop path). */
    double srcGeomP_;
    Rng rng_;
    IntValueGen intValues_;
    FpValueGen fpValues_;
    std::optional<AddressGen> addresses_;

    /** Architectural register images (values last written). */
    Word intRegs_[numArchIntRegs];
    BitWord fpRegs_[numArchFpRegs];

    /** Recently written registers, newest first (dependency pool). */
    RecentRing<16> recentInt_;
    RecentRing<8> recentFp_;

    std::uint8_t mobCounter_;
    std::uint8_t tos_;
};

/** Uops generated per chunk of a streamed trace pass. */
constexpr std::size_t kFeedChunk = 1024;

/**
 * Pull @p num_uops uops from @p source (any type with a `Uop next()`
 * member) in chunks of kFeedChunk, handing each chunk to
 * @p sink(const Uop *, n).  Whole traces are never materialised.
 */
template <class Source, class Sink>
void
streamChunks(Source &source, std::size_t num_uops, Sink &&sink)
{
    std::vector<Uop> chunk(std::min(num_uops, kFeedChunk));
    for (std::size_t done = 0; done < num_uops;) {
        const std::size_t n = std::min(num_uops - done, kFeedChunk);
        for (std::size_t i = 0; i < n; ++i)
            chunk[i] = source.next();
        sink(chunk.data(), n);
        done += n;
    }
}

} // namespace penelope

#endif // PENELOPE_TRACE_GENERATOR_HH
