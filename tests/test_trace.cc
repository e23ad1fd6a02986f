/**
 * @file
 * Tests for the trace library: value generators, suite profiles,
 * the trace generator, the 531-trace workload set and the
 * adversarial attack stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/duty.hh"
#include "common/stats.hh"
#include "trace/attack.hh"
#include "trace/generator.hh"
#include "trace/suite.hh"
#include "trace/value_gen.hh"
#include "trace/workload.hh"

namespace penelope {
namespace {

// ------------------------------------------------------ ValueGens

TEST(IntValueGen, ZeroFractionMatchesProfile)
{
    IntValueProfile p;
    p.zeroProb = 0.30;
    IntValueGen gen(p, Rng(1));
    int zeros = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        zeros += gen.next() == 0;
    EXPECT_NEAR(static_cast<double>(zeros) / n, 0.30, 0.02);
}

TEST(IntValueGen, ValuesAre32Bit)
{
    IntValueGen gen(IntValueProfile{}, Rng(2));
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(gen.next() >> 32, 0u);
}

TEST(IntValueGen, BiasLandsInPaperRange)
{
    // Section 1.1: INT per-bit zero probability 65-90%.
    IntValueGen gen(IntValueProfile{}, Rng(3));
    BitBiasTracker bias(32);
    for (int i = 0; i < 50000; ++i)
        bias.observe(gen.next());
    EXPECT_GT(bias.minZeroProbability(), 0.55);
    EXPECT_LT(bias.maxZeroProbability(), 0.97);
    EXPECT_GT(bias.maxZeroProbability(), 0.80);
}

TEST(FpValueGen, EncodeZero)
{
    const BitWord w = FpValueGen::encode(0.0);
    EXPECT_EQ(w.popcount(), 0u);
}

TEST(FpValueGen, EncodeOne)
{
    // 1.0 = sign 0, exponent 16383, integer bit set.
    const BitWord w = FpValueGen::encode(1.0);
    EXPECT_FALSE(w.bit(79));          // sign
    EXPECT_TRUE(w.bit(63));           // explicit integer bit
    EXPECT_EQ(w.hi() & 0x7fff, 16383u);
    EXPECT_EQ(w.lo(), 0x8000000000000000ULL); // fraction zero
}

TEST(FpValueGen, EncodeSignAndMagnitude)
{
    const BitWord pos = FpValueGen::encode(2.5);
    const BitWord neg = FpValueGen::encode(-2.5);
    EXPECT_FALSE(pos.bit(79));
    EXPECT_TRUE(neg.bit(79));
    // Same exponent/mantissa.
    EXPECT_EQ(pos.lo(), neg.lo());
    EXPECT_EQ(pos.hi() & 0x7fff, neg.hi() & 0x7fff);
}

TEST(FpValueGen, ExponentOrdering)
{
    const BitWord small = FpValueGen::encode(0.5);
    const BitWord large = FpValueGen::encode(1024.0);
    EXPECT_LT(small.hi() & 0x7fff, large.hi() & 0x7fff);
}

TEST(FpValueGen, PopulationBiasReasonable)
{
    FpValueGen gen(FpValueProfile{}, Rng(5));
    BitBiasTracker bias(80);
    for (int i = 0; i < 20000; ++i)
        bias.observe(gen.next());
    // Sign bit mostly 0.
    EXPECT_GT(bias.zeroProbability(79), 0.85);
    // No bit permanently stuck at one.
    EXPECT_GT(bias.minZeroProbability(), 0.02);
}

TEST(AddressGen, StaysInWorkingSetPages)
{
    AddressProfile p;
    p.workingSetBytes = 64 * 1024;
    AddressGen gen(p, Rng(7));
    const std::uint64_t lines = p.workingSetBytes / p.lineBytes;
    const std::uint64_t pages =
        (lines + p.linesPerPage - 1) / p.linesPerPage;
    for (int i = 0; i < 10000; ++i) {
        const Addr a = gen.next();
        EXPECT_GE(a, p.base);
        EXPECT_LT((a - p.base) / 4096, pages);
    }
}

TEST(AddressGen, PageFootprintSparse)
{
    AddressProfile p;
    p.workingSetBytes = 32 * 1024; // 512 lines
    AddressGen gen(p, Rng(11));
    std::set<Addr> pages;
    for (int i = 0; i < 50000; ++i)
        pages.insert(gen.next() / 4096);
    // 512 lines at 8 lines/page = 64 pages, far more than the
    // 8 pages dense packing would give.
    EXPECT_GT(pages.size(), 30u);
    EXPECT_LE(pages.size(), 64u);
}

TEST(AddressGen, SpatialLocality)
{
    AddressGen gen(AddressProfile{}, Rng(13));
    std::uint64_t same_line = 0;
    const int n = 20000;
    Addr prev = gen.next();
    for (int i = 0; i < n; ++i) {
        const Addr a = gen.next();
        same_line += (a / 64) == (prev / 64);
        prev = a;
    }
    // meanAccessesPerLine = 4 -> ~3/4 of consecutive pairs share.
    EXPECT_GT(static_cast<double>(same_line) / n, 0.5);
}

TEST(AddressGen, CacheSetsCovered)
{
    AddressGen gen(AddressProfile{}, Rng(17));
    std::set<std::uint64_t> sets;
    for (int i = 0; i < 50000; ++i)
        sets.insert((gen.next() / 64) % 64);
    EXPECT_GT(sets.size(), 48u); // near-uniform over 64 sets
}

// ---------------------------------------------------------- Suite

TEST(Suite, TableOneTotals)
{
    EXPECT_EQ(totalTraceCount(), 531u);
    EXPECT_EQ(allSuites().size(), numSuites);
}

TEST(Suite, TraceCountsMatchTableOne)
{
    const std::map<std::string, unsigned> expected = {
        {"Encoder", 62},      {"SpecFP2000", 41},
        {"SpecINT2000", 33},  {"Kernels", 53},
        {"Multimedia", 85},   {"Office", 75},
        {"Productivity", 45}, {"Server", 55},
        {"Workstation", 49},  {"SPEC2006", 33},
    };
    for (const auto &suite : allSuites()) {
        auto it = expected.find(suite.name);
        ASSERT_NE(it, expected.end()) << suite.name;
        EXPECT_EQ(suite.numTraces, it->second) << suite.name;
    }
}

TEST(Suite, ProfileLookupConsistent)
{
    for (const auto &suite : allSuites())
        EXPECT_EQ(&suiteProfile(suite.id), &suite);
}

TEST(Suite, MixesAreProbabilities)
{
    for (const auto &s : allSuites()) {
        EXPECT_GT(s.loadFrac, 0.0);
        EXPECT_LT(s.loadFrac + s.storeFrac + s.branchFrac, 1.0);
        EXPECT_GE(s.fpFrac, 0.0);
        EXPECT_LE(s.fpFrac, 1.0);
        EXPECT_LT(s.wssBytesMin, s.wssBytesMax);
    }
}

// ------------------------------------------------------ Generator

TEST(Generator, Deterministic)
{
    TraceSpec spec{SuiteId::Office, 3, 12345};
    TraceGenerator a(spec);
    TraceGenerator b(spec);
    for (int i = 0; i < 500; ++i) {
        const Uop x = a.next();
        const Uop y = b.next();
        EXPECT_EQ(static_cast<int>(x.cls), static_cast<int>(y.cls));
        EXPECT_EQ(x.dstVal, y.dstVal);
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.opcode, y.opcode);
    }
}

TEST(Generator, MixMatchesProfile)
{
    const SuiteProfile &profile = suiteProfile(SuiteId::Server);
    TraceSpec spec{SuiteId::Server, 0, 999};
    TraceGenerator gen(spec);
    std::map<UopClass, int> counts;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[gen.next().cls];
    EXPECT_NEAR(static_cast<double>(counts[UopClass::Load]) / n,
                profile.loadFrac, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[UopClass::Store]) / n,
                profile.storeFrac, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[UopClass::Branch]) / n,
                profile.branchFrac, 0.02);
}

TEST(Generator, SourceValuesTrackRegisterImages)
{
    TraceSpec spec{SuiteId::SpecInt2000, 1, 77};
    TraceGenerator gen(spec);
    Word images[numArchIntRegs] = {};
    for (int i = 0; i < 5000; ++i) {
        const Uop uop = gen.next();
        if (uop.cls == UopClass::IntAlu ||
            uop.cls == UopClass::IntMul ||
            uop.cls == UopClass::Branch) {
            if (uop.usesSrc1()) {
                EXPECT_EQ(uop.srcVal1, images[uop.srcReg1]);
            }
        }
        if (uop.writesReg() && !isFp(uop.cls))
            images[uop.dstReg] = uop.dstVal;
    }
}

TEST(Generator, MemoryOpsHaveAddressesAndMobIds)
{
    TraceSpec spec{SuiteId::Kernels, 2, 31};
    TraceGenerator gen(spec);
    std::uint8_t last_mob = 0xff;
    for (int i = 0; i < 5000; ++i) {
        const Uop uop = gen.next();
        if (!isMemory(uop.cls))
            continue;
        EXPECT_NE(uop.addr, 0u);
        if (last_mob != 0xff) {
            EXPECT_EQ(uop.mobId, (last_mob + 1) & 0x3f);
        }
        last_mob = uop.mobId;
    }
}

TEST(Generator, LatenciesMatchClasses)
{
    TraceSpec spec{SuiteId::Workstation, 0, 55};
    TraceGenerator gen(spec);
    for (int i = 0; i < 5000; ++i) {
        const Uop uop = gen.next();
        switch (uop.cls) {
          case UopClass::IntAlu:
            EXPECT_EQ(uop.latency, 1);
            break;
          case UopClass::FpMul:
            EXPECT_EQ(uop.latency, 5);
            break;
          case UopClass::Load:
            EXPECT_EQ(uop.latency, 3);
            break;
          default:
            EXPECT_GE(uop.latency, 1);
        }
    }
}

TEST(Generator, FpValuesCarryHighBits)
{
    TraceSpec spec{SuiteId::SpecFp2000, 0, 21};
    TraceGenerator gen(spec);
    bool saw_high = false;
    for (int i = 0; i < 20000 && !saw_high; ++i) {
        const Uop uop = gen.next();
        if (isFp(uop.cls) && uop.dstValHi != 0)
            saw_high = true;
    }
    EXPECT_TRUE(saw_high);
}

TEST(Generator, UopHelpers)
{
    EXPECT_TRUE(isMemory(UopClass::Load));
    EXPECT_TRUE(isMemory(UopClass::Store));
    EXPECT_FALSE(isMemory(UopClass::IntAlu));
    EXPECT_TRUE(isFp(UopClass::FpAdd));
    EXPECT_FALSE(isFp(UopClass::Branch));
    EXPECT_TRUE(usesAdder(UopClass::IntAlu));
    EXPECT_TRUE(usesAdder(UopClass::Load));
    EXPECT_FALSE(usesAdder(UopClass::FpMul));
}

// ------------------------------------------------------- Workload

TEST(Workload, Has531Traces)
{
    WorkloadSet w;
    EXPECT_EQ(w.size(), 531u);
}

TEST(Workload, SeedsUniquePerTrace)
{
    WorkloadSet w;
    std::set<std::uint64_t> seeds;
    for (unsigned i = 0; i < w.size(); ++i)
        seeds.insert(w.spec(i).seed);
    EXPECT_EQ(seeds.size(), w.size());
}

TEST(Workload, SuiteIndexing)
{
    WorkloadSet w;
    const auto office = w.indicesForSuite(SuiteId::Office);
    EXPECT_EQ(office.size(), 75u);
    for (unsigned idx : office)
        EXPECT_EQ(static_cast<int>(w.spec(idx).suite),
                  static_cast<int>(SuiteId::Office));
}

TEST(Workload, GenerateIsReproducible)
{
    WorkloadSet w;
    const Trace a = w.generate(100, 50);
    const Trace b = w.generate(100, 50);
    ASSERT_EQ(a.uops.size(), b.uops.size());
    for (std::size_t i = 0; i < a.uops.size(); ++i)
        EXPECT_EQ(a.uops[i].dstVal, b.uops[i].dstVal);
}

TEST(Workload, SampleIndicesDeterministicAndUnique)
{
    WorkloadSet w;
    const auto s1 = w.sampleIndices(100, 42);
    const auto s2 = w.sampleIndices(100, 42);
    EXPECT_EQ(s1, s2);
    std::set<unsigned> unique(s1.begin(), s1.end());
    EXPECT_EQ(unique.size(), 100u);
    const auto s3 = w.sampleIndices(100, 43);
    EXPECT_NE(s1, s3);
}

TEST(Workload, ComplementPartitions)
{
    WorkloadSet w;
    const auto subset = w.sampleIndices(100, 7);
    const auto rest = w.complement(subset);
    EXPECT_EQ(subset.size() + rest.size(), w.size());
    std::set<unsigned> all(subset.begin(), subset.end());
    all.insert(rest.begin(), rest.end());
    EXPECT_EQ(all.size(), w.size());
}

TEST(Workload, FirstPerSuiteCoversAllSuites)
{
    WorkloadSet w;
    const auto firsts = w.firstPerSuite();
    EXPECT_EQ(firsts.size(), numSuites);
    std::set<int> suites;
    for (unsigned idx : firsts)
        suites.insert(static_cast<int>(w.spec(idx).suite));
    EXPECT_EQ(suites.size(), numSuites);
}

TEST(Workload, StridedSubset)
{
    WorkloadSet w;
    const auto s = w.strided(10);
    EXPECT_EQ(s.size(), 54u); // ceil(531/10)
    EXPECT_EQ(s.front(), 0u);
    EXPECT_EQ(s[1], 10u);
}

// ------------------------------------------------ AttackTrace

/** The attack stream's uop @p n (0-based) by the modulo formula:
 *  branch when n % period == period - 1, destination register
 *  (n + 1) % span, sources one and two further round the window. */
Uop
attackUopByModulo(const AttackConfig &config, std::uint64_t n)
{
    Uop uop;
    const bool branch = config.branchPeriod != 0 &&
        (n % config.branchPeriod) == config.branchPeriod - 1;
    uop.cls = branch ? UopClass::Branch : UopClass::IntAlu;
    uop.latency = config.latency;
    uop.port = config.port;
    uop.taken = branch && config.taken;
    uop.mobId = config.mobId;
    uop.tos = 0;
    uop.flags = config.flags;
    uop.shift1 = false;
    uop.shift2 = false;
    const unsigned span = config.hotRegs != 0
        ? std::min(config.hotRegs, numArchIntRegs)
        : numArchIntRegs;
    const auto reg = static_cast<std::uint8_t>((n + 1) % span);
    uop.dstReg = reg;
    uop.srcReg1 = static_cast<std::uint8_t>((reg + 1) % span);
    uop.srcReg2 = static_cast<std::uint8_t>((reg + 2) % span);
    uop.srcVal1 = config.dataValue;
    uop.srcVal2 = config.dataValue;
    uop.imm = config.imm;
    uop.hasImm = true;
    uop.dstVal = config.dataValue;
    uop.opcode = config.opcode;
    return uop;
}

/** Every Uop field equal. */
bool
sameUop(const Uop &x, const Uop &y)
{
    return x.cls == y.cls && x.latency == y.latency &&
        x.port == y.port && x.taken == y.taken &&
        x.mobId == y.mobId && x.tos == y.tos && x.flags == y.flags &&
        x.shift1 == y.shift1 && x.shift2 == y.shift2 &&
        x.dstReg == y.dstReg && x.srcReg1 == y.srcReg1 &&
        x.srcReg2 == y.srcReg2 && x.srcVal1 == y.srcVal1 &&
        x.srcVal2 == y.srcVal2 && x.imm == y.imm &&
        x.hasImm == y.hasImm && x.dstVal == y.dstVal &&
        x.dstValHi == y.dstValHi && x.addr == y.addr &&
        x.opcode == y.opcode;
}

TEST(AttackTrace, UopsFollowModuloFormula)
{
    // The stream the class comment documents, field for field, at
    // every branch spacing and register window, including a window
    // wider than the register file: cached attack results and the
    // exact pricing anchor rest on this sequence.
    for (const unsigned period : {0u, 1u, 2u, 3u, 8u, 32u}) {
        for (const unsigned hot : {0u, 1u, 3u, 16u, 40u}) {
            AttackConfig config;
            config.dataValue = 0x1234'5678'9abc'def0ull;
            config.imm = 0xbeef;
            config.latency = 3;
            config.port = 2;
            config.mobId = 17;
            config.flags = 0x2a;
            config.opcode = 0x5c1;
            config.taken = true;
            config.branchPeriod = period;
            config.hotRegs = hot;
            AttackTraceGenerator gen(config);
            for (std::uint64_t n = 0; n < 10000; ++n) {
                const Uop got = gen.next();
                const Uop want = attackUopByModulo(config, n);
                ASSERT_TRUE(sameUop(got, want))
                    << "period " << period << " hotRegs " << hot
                    << " uop " << n;
            }
        }
    }
}

/** Parameterised sweep: every suite generates valid traces. */
class SuiteTraceTest
    : public ::testing::TestWithParam<unsigned>
{};

TEST_P(SuiteTraceTest, GeneratesConsistentUops)
{
    const auto suite_id = static_cast<SuiteId>(GetParam());
    TraceSpec spec{suite_id, 0, 1000 + GetParam()};
    TraceGenerator gen(spec);
    for (int i = 0; i < 2000; ++i) {
        const Uop uop = gen.next();
        EXPECT_LT(uop.port, 5);
        EXPECT_LE(uop.latency, 8);
        if (uop.writesReg()) {
            if (isFp(uop.cls))
                EXPECT_LT(uop.dstReg, numArchFpRegs);
            else
                EXPECT_LT(uop.dstReg, numArchIntRegs);
        }
        if (uop.hasImm) {
            EXPECT_TRUE(uop.cls == UopClass::IntAlu ||
                        uop.cls == UopClass::IntMul);
        }
        EXPECT_LT(uop.mobId, 64);
        EXPECT_LT(uop.tos, 8);
        EXPECT_LT(uop.opcode, 1u << 12);
    }
}

INSTANTIATE_TEST_SUITE_P(AllSuites, SuiteTraceTest,
                         ::testing::Range(0u, numSuites));

} // namespace
} // namespace penelope
