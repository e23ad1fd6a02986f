#include "generator.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace penelope {

namespace {

/** Resolve the per-trace parameter jitter from the trace seed. */
TraceParams
resolveParams(const SuiteProfile &profile, std::uint64_t seed)
{
    Rng rng(seed ^ 0x4444);
    TraceParams p;
    const double lo = std::log(
        static_cast<double>(profile.wssBytesMin));
    const double hi = std::log(
        static_cast<double>(profile.wssBytesMax));
    p.wssBytes = static_cast<std::uint64_t>(
        std::exp(lo + (hi - lo) * rng.nextDouble()));
    p.wssBytes = std::max<std::uint64_t>(p.wssBytes, 4096);
    p.zipfExponent =
        profile.zipfExponent * (0.85 + 0.30 * rng.nextDouble());
    p.sequentialFraction = std::clamp(
        profile.sequentialFraction * (0.8 + 0.4 * rng.nextDouble()),
        0.0, 1.0);
    p.takenProb = std::clamp(
        profile.takenProb + 0.16 * (rng.nextDouble() - 0.5),
        0.05, 0.95);
    return p;
}

AddressProfile
makeAddressProfile(const TraceParams &params)
{
    AddressProfile ap;
    ap.workingSetBytes = params.wssBytes;
    ap.zipfExponent = params.zipfExponent;
    ap.sequentialFraction = params.sequentialFraction;
    return ap;
}

/**
 * Per-class opcode pools (12-bit).  Encodings are deliberately
 * bit-diverse ("smart encoding", Section 4.5) so no opcode bit is
 * stuck near 0 or 1 across the population.
 */
const std::uint16_t intAluOpcodes[] = {
    0x0a5, 0x953, 0x36a, 0xc9c, 0x5f0, 0xa0f, 0x6c6, 0x339,
};
const std::uint16_t intMulOpcodes[] = {0x595, 0xa6a, 0x3c3, 0xcbc};
const std::uint16_t fpAddOpcodes[] = {0x655, 0x9aa, 0x3d2, 0xc2d};
const std::uint16_t fpMulOpcodes[] = {0x765, 0x89a, 0x5b4, 0xa4b};
const std::uint16_t loadOpcodes[] = {0x1e9, 0xe16, 0x78c, 0x873};
const std::uint16_t storeOpcodes[] = {0x2d9, 0xd26, 0x6b5, 0x94a};
const std::uint16_t branchOpcodes[] = {0x4e3, 0xb1c, 0x2f5, 0xd0a};
const std::uint16_t nopOpcodes[] = {0x000};

} // namespace

TraceGenerator::TraceGenerator(const TraceSpec &spec, bool addresses)
    : spec_(spec),
      profile_(suiteProfile(spec.suite)),
      params_(resolveParams(profile_, spec.seed)),
      srcGeomP_(1.0 / std::max(1.0, profile_.ilpDistance)),
      rng_(spec.seed),
      intValues_(profile_.intValues, Rng(spec.seed ^ 0x1111)),
      fpValues_(profile_.fpValues, Rng(spec.seed ^ 0x2222)),
      mobCounter_(0),
      tos_(0)
{
    if (addresses)
        addresses_.emplace(makeAddressProfile(params_),
                           Rng(spec.seed ^ 0x3333));
    for (auto &r : intRegs_)
        r = 0;
    for (auto &r : fpRegs_)
        r = BitWord(FpValueGen::fpWidth);
    recentInt_.assign({0, 1, 2, 3});
    recentFp_.assign({0, 1});
}

UopClass
TraceGenerator::pickClass()
{
    const double u = rng_.nextDouble();
    double acc = profile_.loadFrac;
    if (u < acc)
        return UopClass::Load;
    acc += profile_.storeFrac;
    if (u < acc)
        return UopClass::Store;
    acc += profile_.branchFrac;
    if (u < acc)
        return UopClass::Branch;
    // Compute uop: FP vs integer, multiply vs add.
    const bool fp = rng_.nextBool(profile_.fpFrac);
    const bool mul = rng_.nextBool(profile_.mulFrac);
    if (fp)
        return mul ? UopClass::FpMul : UopClass::FpAdd;
    return mul ? UopClass::IntMul : UopClass::IntAlu;
}

std::uint8_t
TraceGenerator::pickPort(UopClass cls) const
{
    // Intel Core style binding: 0/1 integer execute, 2 load AGU,
    // 3 store AGU, 4 FP stack.  The pipeline may rebind IntAlu
    // between ports 0/1 according to its allocation policy.
    switch (cls) {
      case UopClass::IntAlu:
        return 0;
      case UopClass::IntMul:
        return 1;
      case UopClass::Load:
        return 2;
      case UopClass::Store:
        return 3;
      case UopClass::FpAdd:
      case UopClass::FpMul:
        return 4;
      case UopClass::Branch:
        return 1;
      case UopClass::Nop:
      default:
        return 0;
    }
}

std::uint8_t
TraceGenerator::latencyFor(UopClass cls) const
{
    switch (cls) {
      case UopClass::IntAlu:
        return 1;
      case UopClass::IntMul:
        return 3;
      case UopClass::FpAdd:
        return 3;
      case UopClass::FpMul:
        return 5;
      case UopClass::Load:
        return 3;
      case UopClass::Store:
        return 1;
      case UopClass::Branch:
        return 1;
      case UopClass::Nop:
      default:
        return 1;
    }
}

std::uint16_t
TraceGenerator::opcodeFor(UopClass cls)
{
    auto pick = [&](const std::uint16_t *pool, std::size_t n) {
        return pool[rng_.nextInt(n)];
    };
    switch (cls) {
      case UopClass::IntAlu:
        return pick(intAluOpcodes, std::size(intAluOpcodes));
      case UopClass::IntMul:
        return pick(intMulOpcodes, std::size(intMulOpcodes));
      case UopClass::FpAdd:
        return pick(fpAddOpcodes, std::size(fpAddOpcodes));
      case UopClass::FpMul:
        return pick(fpMulOpcodes, std::size(fpMulOpcodes));
      case UopClass::Load:
        return pick(loadOpcodes, std::size(loadOpcodes));
      case UopClass::Store:
        return pick(storeOpcodes, std::size(storeOpcodes));
      case UopClass::Branch:
        return pick(branchOpcodes, std::size(branchOpcodes));
      case UopClass::Nop:
      default:
        return nopOpcodes[0];
    }
}

std::uint8_t
TraceGenerator::pickSourceReg(bool fp)
{
    const std::size_t pool =
        fp ? recentFp_.size() : recentInt_.size();
    const unsigned arch_regs = fp ? numArchFpRegs : numArchIntRegs;
    if (pool == 0)
        return static_cast<std::uint8_t>(rng_.nextInt(arch_regs));
    // Geometric dependency distance: mean ilpDistance positions back.
    const std::size_t back = std::min<std::size_t>(
        rng_.nextGeometric(srcGeomP_), pool - 1);
    return fp ? recentFp_[back] : recentInt_[back];
}

std::uint8_t
TraceGenerator::pickDestReg(bool fp)
{
    if (fp) {
        // x87: results go near the top of stack.
        return static_cast<std::uint8_t>(
            (tos_ + rng_.nextInt(2)) % numArchFpRegs);
    }
    // Hot subset: 60% of writes hit registers 0..7.
    if (rng_.nextBool(0.6))
        return static_cast<std::uint8_t>(rng_.nextInt(8));
    return static_cast<std::uint8_t>(rng_.nextInt(numArchIntRegs));
}

std::uint8_t
TraceGenerator::computeFlags(Word result) const
{
    // Bits: 0 CF, 1 PF, 2 AF, 3 ZF, 4 SF, 5 OF.  Most flags are
    // rarely set; ZF/SF follow the result, matching the "some flags
    // are almost 100% biased" observation in Section 4.5.
    std::uint8_t flags = 0;
    if ((result & 0xffffffffULL) == 0)
        flags |= 1 << 3;
    if (result & 0x80000000ULL)
        flags |= 1 << 4;
    // Pseudo CF/PF/AF/OF from low-entropy result bits.
    if ((result & 0x3f) == 0x21)
        flags |= 1 << 0;
    if ((result & 0x55) == 0x44)
        flags |= 1 << 1;
    if ((result & 0xff) == 0x18)
        flags |= 1 << 2;
    if ((result & 0x7f) == 0x7f)
        flags |= 1 << 5;
    return flags;
}

Uop
TraceGenerator::next()
{
    Uop uop;
    uop.cls = pickClass();
    uop.latency = latencyFor(uop.cls);
    uop.port = pickPort(uop.cls);
    uop.opcode = opcodeFor(uop.cls);

    const bool fp = isFp(uop.cls);

    switch (uop.cls) {
      case UopClass::IntAlu:
      case UopClass::IntMul: {
        uop.srcReg1 = pickSourceReg(false);
        uop.srcVal1 = intRegs_[uop.srcReg1];
        uop.hasImm = rng_.nextBool(profile_.immFrac);
        if (uop.hasImm) {
            uop.imm = static_cast<std::uint16_t>(
                rng_.nextGeometric(1.0 / 24.0) + 1);
        } else {
            uop.srcReg2 = pickSourceReg(false);
            uop.srcVal2 = intRegs_[uop.srcReg2];
        }
        Word result = 0;
        if (rng_.nextBool(0.25)) {
            // Fresh value injection keeps the register population
            // from drifting away from the suite's value profile.
            result = intValues_.next();
        } else if (uop.cls == UopClass::IntMul) {
            result = (uop.srcVal1 *
                      (uop.hasImm ? uop.imm : uop.srcVal2)) &
                0xffffffffULL;
        } else {
            result = (uop.srcVal1 +
                      (uop.hasImm ? uop.imm : uop.srcVal2)) &
                0xffffffffULL;
        }
        uop.dstReg = pickDestReg(false);
        uop.dstVal = result;
        uop.flags = computeFlags(result);
        uop.shift1 = rng_.nextBool(0.02);
        uop.shift2 = rng_.nextBool(0.01);
        intRegs_[uop.dstReg] = result;
        recentInt_.pushFront(uop.dstReg);
        break;
      }
      case UopClass::FpAdd:
      case UopClass::FpMul: {
        uop.srcReg1 = pickSourceReg(true);
        uop.srcVal1 = fpRegs_[uop.srcReg1].lo();
        uop.srcReg2 = pickSourceReg(true);
        uop.srcVal2 = fpRegs_[uop.srcReg2].lo();
        const BitWord result = fpValues_.next();
        uop.dstReg = pickDestReg(true);
        uop.dstVal = result.lo();
        uop.dstValHi = static_cast<std::uint16_t>(result.hi());
        uop.tos = tos_;
        // Occasional stack motion.
        if (rng_.nextBool(0.3))
            tos_ = (tos_ + 1) % numArchFpRegs;
        else if (tos_ > 0 && rng_.nextBool(0.3))
            --tos_;
        fpRegs_[uop.dstReg] = result;
        recentFp_.pushFront(uop.dstReg);
        break;
      }
      case UopClass::Load: {
        uop.srcReg1 = pickSourceReg(false); // base register
        uop.srcVal1 = intRegs_[uop.srcReg1];
        if (addresses_)
            uop.addr = addresses_->next();
        uop.mobId = mobCounter_;
        mobCounter_ = (mobCounter_ + 1) & 0x3f;
        const Word result = intValues_.next();
        uop.dstReg = pickDestReg(false);
        uop.dstVal = result;
        intRegs_[uop.dstReg] = result;
        recentInt_.pushFront(uop.dstReg);
        break;
      }
      case UopClass::Store: {
        uop.srcReg1 = pickSourceReg(false); // data register
        uop.srcVal1 = intRegs_[uop.srcReg1];
        uop.srcReg2 = pickSourceReg(false); // base register
        uop.srcVal2 = intRegs_[uop.srcReg2];
        if (addresses_)
            uop.addr = addresses_->next();
        uop.mobId = mobCounter_;
        mobCounter_ = (mobCounter_ + 1) & 0x3f;
        break;
      }
      case UopClass::Branch: {
        uop.srcReg1 = pickSourceReg(false);
        uop.srcVal1 = intRegs_[uop.srcReg1];
        uop.taken = rng_.nextBool(params_.takenProb);
        break;
      }
      case UopClass::Nop:
      default:
        break;
    }

    if (fp)
        uop.tos = tos_;
    return uop;
}

Trace
TraceGenerator::generate(std::size_t num_uops)
{
    Trace trace;
    trace.spec = spec_;
    trace.params = params_;
    trace.uops.reserve(num_uops);
    for (std::size_t i = 0; i < num_uops; ++i)
        trace.uops.push_back(next());
    return trace;
}

} // namespace penelope
