#include "scheduler.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/bitword.hh"
#include "obs/metrics.hh"

namespace penelope {

namespace {

/** Batch drains of the 64-record slot-image accumulator.
 *  File-scope handle: a drain runs once per 64 slot flushes, and
 *  the disabled cost must stay one relaxed branch. */
const obs::Counter g_schedulerDrains =
    obs::Registry::instance().counter("scheduler.drains");

/**
 * Table-2 layout constants for the fused allocate path: the packed
 * offset of every field is fixed (fields.cc asserts the 144/132-bit
 * totals), so one uop's whole 144-bit image can be composed with
 * shifts into three words instead of 18 spec lookups and
 * read-modify-write deposits.  The Scheduler constructor asserts
 * each offset against the authoritative layout.
 */
constexpr unsigned kValidOff = 0;    // 1 bit
constexpr unsigned kLatencyOff = 1;  // 5 bits
constexpr unsigned kPortOff = 6;     // 5 bits
constexpr unsigned kTakenOff = 11;   // 1 bit
constexpr unsigned kMobIdOff = 12;   // 6 bits
constexpr unsigned kTosOff = 18;     // 3 bits
constexpr unsigned kFlagsOff = 21;   // 6 bits
constexpr unsigned kShift1Off = 27;  // 1 bit
constexpr unsigned kShift2Off = 28;  // 1 bit
constexpr unsigned kDstTagOff = 29;  // 7 bits
constexpr unsigned kSrc1TagOff = 36; // 7 bits
constexpr unsigned kSrc2TagOff = 43; // 7 bits
constexpr unsigned kReady1Off = 50;  // 1 bit
constexpr unsigned kReady2Off = 51;  // 1 bit
constexpr unsigned kSrc1DataOff = 52; // 32 bits (straddles w0/w1)
constexpr unsigned kSrc2DataOff = 84; // 32 bits (in w1)
constexpr unsigned kImmOff = 116;     // 16 bits (straddles w1/w2)
constexpr unsigned kOpcodeOff = 132;  // 12 bits (in w2)

constexpr unsigned kSrc1DataField = 14;
constexpr unsigned kSrc2DataField = 15;
constexpr unsigned kImmField = 16;

/** Bit f = field f, for every field of the layout. */
constexpr std::uint32_t kAllFields = (std::uint32_t(1) << numFields) - 1;

/** Every field except the three conditionally-used capture fields
 *  (Src1Data / Src2Data / Imm) holds live data in a busy slot. */
constexpr std::uint32_t kAlwaysUsedFields = kAllFields &
    ~((std::uint32_t(1) << kSrc1DataField) |
      (std::uint32_t(1) << kSrc2DataField) |
      (std::uint32_t(1) << kImmField));

// Per-word bit masks of the always-used fields and of each
// conditional field, in the packed layout.
constexpr std::uint64_t kAlwaysMaskW0 =
    (std::uint64_t(1) << kSrc1DataOff) - 1; // bits 0..51
constexpr std::uint64_t kAlwaysMaskW2 = 0xfffull << 4; // opcode
constexpr std::uint64_t kSrc1MaskW0 = ~kAlwaysMaskW0; // bits 52..63
constexpr std::uint64_t kSrc1MaskW1 = (std::uint64_t(1) << 20) - 1;
constexpr std::uint64_t kSrc2MaskW1 = 0xffffffffull << 20;
constexpr std::uint64_t kImmMaskW1 = 0xfffull << 52;
constexpr std::uint64_t kImmMaskW2 = 0xfull;

/** Per-bit in-use words of a busy slot whose in-use fields are
 *  @p uf: the always-used group (the fused allocate deposits it
 *  whole) plus whichever capture fields are live. */
std::array<std::uint64_t, 3>
inUseMask(std::uint32_t uf)
{
    assert((uf & kAlwaysUsedFields) == kAlwaysUsedFields);
    const bool s1 = uf & (std::uint32_t(1) << kSrc1DataField);
    const bool s2 = uf & (std::uint32_t(1) << kSrc2DataField);
    const bool imm = uf & (std::uint32_t(1) << kImmField);
    return {kAlwaysMaskW0 | (s1 ? kSrc1MaskW0 : 0u),
            (s1 ? kSrc1MaskW1 : 0u) | (s2 ? kSrc2MaskW1 : 0u) |
                (imm ? kImmMaskW1 : 0u),
            kAlwaysMaskW2 | (imm ? kImmMaskW2 : 0u)};
}

} // namespace

Scheduler::Scheduler(const SchedulerConfig &config)
    : config_(config),
      pool_(config.numEntries),
      zeroTotal_(fieldLayout().totalBits()),
      busyZero_(fieldLayout().totalBits())
{
    // The replay driver's calendar wheel keeps one bit per entry in
    // a 64-bit mask word.
    if (config_.numEntries < 1 || config_.numEntries > 64)
        throw std::invalid_argument(
            "SchedulerConfig::numEntries must be in [1, 64], got " +
            std::to_string(config_.numEntries));
    const FieldLayout &layout = fieldLayout();
    assert(layout.totalBits() <= MaskedTimeAccumulator::kMaxWidth);
    assert(layout.count() <= 32); // holdsInverted is a 32-bit mask
    entries_.resize(config_.numEntries);

    decisions_.assign(layout.totalBits(), BitDecision{});
    dutyGens_.assign(layout.totalBits(), DutyGenerator(1.0));

    fieldInvertedTime_.assign(layout.count(), 0);
    rebuildRepairPlans();

    // The fused allocate path composes images from the layout
    // constants above; pin them to the authoritative layout.
    assert(layout.spec(FieldId::Valid).offset == kValidOff);
    assert(layout.spec(FieldId::Latency).offset == kLatencyOff);
    assert(layout.spec(FieldId::Port).offset == kPortOff);
    assert(layout.spec(FieldId::Taken).offset == kTakenOff);
    assert(layout.spec(FieldId::MobId).offset == kMobIdOff);
    assert(layout.spec(FieldId::Tos).offset == kTosOff);
    assert(layout.spec(FieldId::Flags).offset == kFlagsOff);
    assert(layout.spec(FieldId::Shift1).offset == kShift1Off);
    assert(layout.spec(FieldId::Shift2).offset == kShift2Off);
    assert(layout.spec(FieldId::DstTag).offset == kDstTagOff);
    assert(layout.spec(FieldId::Src1Tag).offset == kSrc1TagOff);
    assert(layout.spec(FieldId::Src2Tag).offset == kSrc2TagOff);
    assert(layout.spec(FieldId::Ready1).offset == kReady1Off);
    assert(layout.spec(FieldId::Ready2).offset == kReady2Off);
    assert(layout.spec(FieldId::Src1Data).offset == kSrc1DataOff);
    assert(layout.spec(FieldId::Src2Data).offset == kSrc2DataOff);
    assert(layout.spec(FieldId::Imm).offset == kImmOff);
    assert(layout.spec(FieldId::Opcode).offset == kOpcodeOff);
    assert(static_cast<unsigned>(FieldId::Src1Data) ==
           kSrc1DataField);
    assert(static_cast<unsigned>(FieldId::Src2Data) ==
           kSrc2DataField);
    assert(static_cast<unsigned>(FieldId::Imm) == kImmField);
    assert(layout.spec(FieldId::Valid).width == 1);
}

void
Scheduler::configureProtection(std::vector<BitDecision> decisions)
{
    assert(decisions.size() == fieldLayout().totalBits());
    foldBatch();
    decisions_ = std::move(decisions);
    for (unsigned b = 0; b < decisions_.size(); ++b)
        dutyGens_[b].setK(decisions_[b].k);
    rebuildRepairPlans();
}

void
Scheduler::rebuildRepairPlans()
{
    const FieldLayout &layout = fieldLayout();
    repairKeep_ = repairAll1_ = repairIsv_ = rinvSample_ = LayoutWords{};
    isvFields_.clear();
    isvFieldBits_ = 0;
    kBits_.clear();
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        kBegin_[f] = static_cast<std::uint16_t>(kBits_.size());
        LayoutWords isv{};
        LayoutWords whole{};
        for (unsigned b = 0; b < spec.width; ++b) {
            const unsigned global = spec.offset + b;
            const std::uint64_t bit = std::uint64_t(1) << (global % 64);
            whole[global / 64] |= bit;
            // The valid bit's contents are always live: never
            // repaired, whatever its decision says.
            const Technique t = f == static_cast<unsigned>(FieldId::Valid)
                ? Technique::None : decisions_[global].technique;
            switch (t) {
              case Technique::All1:
                repairAll1_[global / 64] |= bit;
                break;
              case Technique::All0:
                break; // uncovered bits come out 0
              case Technique::All1K:
              case Technique::All0K:
                kBits_.push_back({static_cast<std::uint16_t>(global),
                                  t == Technique::All0K});
                break;
              case Technique::Isv:
                isv[global / 64] |= bit;
                break;
              case Technique::None:
              case Technique::Unprotectable:
                repairKeep_[global / 64] |= bit;
                break;
            }
        }
        if ((isv[0] | isv[1] | isv[2]) != 0) {
            isvFields_.push_back({f, isv});
            isvFieldBits_ |= std::uint32_t(1) << f;
            for (unsigned w = 0; w < kLayoutWords; ++w) {
                repairIsv_[w] |= isv[w];
                rinvSample_[w] |= whole[w];
            }
        }
    }
    kBegin_[layout.count()] = static_cast<std::uint16_t>(kBits_.size());
}

void
Scheduler::enableProtection(bool enabled)
{
    protectionEnabled_ = enabled;
}

void
Scheduler::flushEntry(Entry &e, Cycle now)
{
    if (now <= e.since)
        return;
    const std::uint64_t dt = now - e.since;
    // Defer the wide accumulator adds: park the record in the batch.
    // Everything a decision reads mid-run (entryTime_, the ISV
    // balance meters, the timestamp) is charged eagerly, so repair
    // behaviour -- and with it the RNG draw stream -- never depends
    // on drain timing.
    appendRecord(e.image, dt, e.inUseFields);
    entryTime_ += dt;
    for (std::uint32_t m = e.holdsInverted; m; m &= m - 1)
        fieldInvertedTime_[static_cast<unsigned>(std::countr_zero(m))] += dt;
    e.since = now;
}

void
Scheduler::appendRecord(const LayoutWords &image, std::uint64_t dt,
                        std::uint32_t uf)
{
    assert(dt != 0);
    const unsigned v = batchCount_;
    const std::uint64_t lane = std::uint64_t(1) << v;
    for (unsigned w = 0; w < kLayoutWords; ++w)
        batchImage_[v][w] = image[w];
    // The duration enters its bit-planes here, one OR per set bit,
    // so the drain never transposes a duration column.
    dtGrand_ += dt;
    dtOr_ |= dt;
    for (std::uint64_t m = dt; m; m &= m - 1)
        dtPlane_[std::countr_zero(m)] |= lane;
    if (uf) {
        // Fields are used whole, so the in-use time sums are one
        // per capture field plus one shared by every other field.
        const LayoutWords used = inUseMask(uf);
        for (unsigned w = 0; w < kLayoutWords; ++w)
            batchZero_[v][w] = ~image[w] & used[w];
        busyLanes_ |= lane;
        busyDtGrand_ += dt;
        if (uf & (std::uint32_t(1) << kSrc1DataField))
            s1DtGrand_ += dt;
        if (uf & (std::uint32_t(1) << kSrc2DataField))
            s2DtGrand_ += dt;
        if (uf & (std::uint32_t(1) << kImmField))
            immDtGrand_ += dt;
    }
    if (++batchCount_ == kBatchDepth)
        drainBatch();
}

namespace {

/** Levels of a plane counter: 64 lanes need 7 bits. */
constexpr unsigned kMaxCountLevels = 7;

/** Carry-save add, bitwise: @p low + @p a + @p b leaves the sum
 *  bit in @p low and returns the carry. */
inline std::uint64_t
csa(std::uint64_t &low, std::uint64_t a, std::uint64_t b)
{
    const std::uint64_t u = low ^ a;
    const std::uint64_t carry = (low & a) | (u & b);
    low = u ^ b;
    return carry;
}

/**
 * Add the rows of every lane in @p lanes into a bit-sliced counter
 * bank at weight 2^@p level.
 *
 * The rows are first counted in a register counter whose depth is
 * the bit width of the lane count: no per-bit count can exceed the
 * number of lanes, so fixed-depth ripples through those levels are
 * exact, with no data-dependent loop.  Rows enter four at a time
 * through a Harley-Seal carry-save step on levels 0 and 1, so only
 * its fours carry ripples.  The count then joins the bank in one
 * ripple-carry add; carries past level 63 drop -- the counters sum
 * mod 2^64, the same wrap-around the accumulators have.
 */
inline void
addPlane(std::uint64_t (*bank)[3], unsigned level, std::uint64_t lanes,
         const std::uint64_t (*rows)[3])
{
    unsigned idx[64];
    unsigned n = 0;
    for (std::uint64_t m = lanes; m; m &= m - 1)
        idx[n++] = static_cast<unsigned>(std::countr_zero(m));
    const unsigned depth = static_cast<unsigned>(std::bit_width(n));
    std::uint64_t cnt[kMaxCountLevels][3] = {};
    const auto ripple = [&](unsigned from, std::uint64_t *c) {
        for (unsigned k = from; k < depth; ++k) {
            for (unsigned w = 0; w < 3; ++w) {
                const std::uint64_t t = cnt[k][w] & c[w];
                cnt[k][w] ^= c[w];
                c[w] = t;
            }
        }
    };
    unsigned i = 0;
    for (; i + 4 <= n; i += 4) {
        const std::uint64_t *a = rows[idx[i]];
        const std::uint64_t *b = rows[idx[i + 1]];
        const std::uint64_t *c = rows[idx[i + 2]];
        const std::uint64_t *d = rows[idx[i + 3]];
        std::uint64_t fours[3];
        for (unsigned w = 0; w < 3; ++w) {
            const std::uint64_t twos_ab = csa(cnt[0][w], a[w], b[w]);
            const std::uint64_t twos_cd = csa(cnt[0][w], c[w], d[w]);
            fours[w] = csa(cnt[1][w], twos_ab, twos_cd);
        }
        ripple(2, fours);
    }
    for (; i < n; ++i) {
        std::uint64_t row[3] = {rows[idx[i]][0], rows[idx[i]][1],
                                rows[idx[i]][2]};
        ripple(0, row);
    }

    std::uint64_t carry[3] = {};
    for (unsigned k = 0, l = level;
         l < 64 && (k < depth || (carry[0] | carry[1] | carry[2]));
         ++k, ++l) {
        for (unsigned w = 0; w < 3; ++w)
            carry[w] = csa(bank[l][w], k < depth ? cnt[k][w] : 0,
                           carry[w]);
    }
}

} // namespace

void
Scheduler::drainBatch()
{
    if (batchCount_ == 0)
        return;
    g_schedulerDrains.add();
    batchCount_ = 0;

    // Plane-major accumulation: plane l of the duration column is
    // the lane set whose records carry weight 2^l, so every record
    // in it adds its image into the level-l counters, and every busy
    // one its zeroed in-use complement.
    const unsigned num_planes =
        static_cast<unsigned>(std::bit_width(dtOr_));
    for (unsigned l = 0; l < num_planes; ++l) {
        if (dtPlane_[l]) {
            addPlane(oneBank_, l, dtPlane_[l], batchImage_);
            if (dtPlane_[l] & busyLanes_) {
                addPlane(busyZeroBank_, l, dtPlane_[l] & busyLanes_,
                         batchZero_);
            }
        }
        dtPlane_[l] = 0;
    }
    dtOr_ = busyLanes_ = 0;
}

void
Scheduler::foldBatch()
{
    drainBatch();
    if (dtGrand_ == 0)
        return;

    const FieldLayout &layout = fieldLayout();
    const unsigned total_bits = layout.totalBits();

    // zeroTotal_: charge every bit the grand duration total minus
    // its banked one-time (modular, like every accumulator add).
    // Transposing a bank word's 64 levels yields each bit's exact
    // total directly: transposed word b has bit l set iff level l
    // held bit b, i.e. it *is* sum_l 2^l.
    for (unsigned w = 0; w < kLayoutWords; ++w) {
        std::uint64_t col[64];
        for (unsigned l = 0; l < 64; ++l) {
            col[l] = oneBank_[l][w];
            oneBank_[l][w] = 0;
        }
        transpose64x64(col);
        const unsigned hi = std::min(64u, total_bits - w * 64);
        for (unsigned b = 0; b < hi; ++b)
            zeroTotal_.addBit(w * 64 + b, dtGrand_ - col[b]);

        for (unsigned l = 0; l < 64; ++l) {
            col[l] = busyZeroBank_[l][w];
            busyZeroBank_[l][w] = 0;
        }
        transpose64x64(col);
        for (unsigned b = 0; b < hi; ++b) {
            if (col[b])
                busyZero_.addBit(w * 64 + b, col[b]);
        }
    }

    dtGrand_ = 0;

    // In-use time: fields are used whole, so the always-used group
    // shares one duration sum and each capture field has its own.
    for (std::uint32_t m = kAlwaysUsedFields; m; m &= m - 1) {
        fieldBusyTime_[static_cast<unsigned>(std::countr_zero(m))] +=
            busyDtGrand_;
    }
    fieldBusyTime_[kSrc1DataField] += s1DtGrand_;
    fieldBusyTime_[kSrc2DataField] += s2DtGrand_;
    fieldBusyTime_[kImmField] += immDtGrand_;
    busyDtGrand_ = s1DtGrand_ = s2DtGrand_ = immDtGrand_ = 0;
}

void
Scheduler::flushAll(Cycle now)
{
    for (Entry &e : entries_)
        flushEntry(e, now);
    foldBatch();
    pool_.flush(now);
}

Scheduler::LayoutWords
Scheduler::repairImage(const LayoutWords &current,
                       std::uint32_t write_isv, std::uint32_t fields,
                       const LayoutWords &live)
{
    LayoutWords out;
    for (unsigned w = 0; w < kLayoutWords; ++w) {
        out[w] = (current[w] & (repairKeep_[w] | live[w])) |
            (repairAll1_[w] & ~live[w]);
    }
    // The balance meter alternates polarity so entries hold
    // inverted contents 50% of the overall time: write the
    // inverted sample, or the plain (re-inverted) sample when
    // inverted residence already leads.
    for (const IsvField &f : isvFields_) {
        if (!((fields >> f.field) & 1))
            continue;
        const std::uint64_t flip =
            (write_isv >> f.field) & 1 ? 0 : ~std::uint64_t(0);
        for (unsigned w = 0; w < kLayoutWords; ++w)
            out[w] |= (rinv_[w] ^ flip) & f.mask[w];
    }
    for (std::uint32_t m = fields; m; m &= m - 1) {
        const unsigned f = static_cast<unsigned>(std::countr_zero(m));
        for (unsigned k = kBegin_[f]; k < kBegin_[f + 1]; ++k) {
            const KBit &kb = kBits_[k];
            const bool one = dutyGens_[kb.global].next() != kb.inverted;
            out[kb.global / 64] |= std::uint64_t(one) << (kb.global % 64);
        }
    }
    return out;
}

std::uint32_t
Scheduler::isvPolarity(std::uint32_t fields) const
{
    std::uint32_t out = 0;
    for (std::uint32_t m = fields & isvFieldBits_; m; m &= m - 1) {
        const unsigned f = static_cast<unsigned>(std::countr_zero(m));
        if (entryTime_ - fieldInvertedTime_[f] >= fieldInvertedTime_[f])
            out |= std::uint32_t(1) << f;
    }
    return out;
}

int
Scheduler::allocate(const Uop &uop, const RenameTags &tags,
                    Cycle now)
{
    const int slot = pool_.allocate(now);
    if (slot < 0)
        return -1;
    const unsigned idx = static_cast<unsigned>(slot);
    Entry &e = entries_[idx];

    flushEntry(e, now);

    // Fused field deposit: compose the uop's whole 144-bit image
    // and in-use mask with shifts against the constant layout, then
    // merge in one read-modify-write per word.  Field for field
    // this is fieldUsedByUop / fieldValue, values masked to their
    // field widths, without touching the spec table.
    const bool use_s1 = uop.usesSrc1() && !tags.ready1;
    const bool use_s2 = uop.usesSrc2() && !tags.ready2;
    const bool use_imm = uop.hasImm;
    const std::uint32_t used = kAlwaysUsedFields |
        (use_s1 ? std::uint32_t(1) << kSrc1DataField : 0u) |
        (use_s2 ? std::uint32_t(1) << kSrc2DataField : 0u) |
        (use_imm ? std::uint32_t(1) << kImmField : 0u);

    const std::uint64_t s1 = uop.srcVal1 & 0xffffffffull;
    const std::uint64_t s2 = uop.srcVal2 & 0xffffffffull;
    const std::uint64_t imm = uop.imm;

    const std::uint64_t b0 = (std::uint64_t(1) << kValidOff) |
        (std::uint64_t(uop.latency & 0x1f) << kLatencyOff) |
        (((std::uint64_t(1) << uop.port) & 0x1f) << kPortOff) |
        (std::uint64_t(uop.taken) << kTakenOff) |
        (std::uint64_t(uop.mobId & 0x3f) << kMobIdOff) |
        (std::uint64_t(uop.tos & 0x7) << kTosOff) |
        (std::uint64_t(uop.flags & 0x3f) << kFlagsOff) |
        (std::uint64_t(uop.shift1) << kShift1Off) |
        (std::uint64_t(uop.shift2) << kShift2Off) |
        (std::uint64_t(tags.dstTag & 0x7f) << kDstTagOff) |
        (std::uint64_t(tags.src1Tag & 0x7f) << kSrc1TagOff) |
        (std::uint64_t(tags.src2Tag & 0x7f) << kSrc2TagOff) |
        (std::uint64_t(tags.ready1) << kReady1Off) |
        (std::uint64_t(tags.ready2) << kReady2Off) |
        (s1 << (kSrc1DataOff % 64));
    const std::uint64_t b1 = (s1 >> (64 - kSrc1DataOff % 64)) |
        (s2 << (kSrc2DataOff % 64)) | (imm << (kImmOff % 64));
    const std::uint64_t b2 = (imm >> (64 - kImmOff % 64)) |
        (std::uint64_t(uop.opcode & 0xfff) << (kOpcodeOff % 64));

    const LayoutWords image{b0, b1, b2};
    const LayoutWords um = inUseMask(used);
    for (unsigned w = 0; w < kLayoutWords; ++w)
        e.image[w] = (e.image[w] & ~um[w]) | (image[w] & um[w]);
    e.inUseFields = used;
    e.holdsInverted &= ~used;

    if (protectionEnabled_) {
        // ISV fields of RINV take the inversion of the values
        // flowing through the allocate port (Section 4.5: register
        // file reads/bypasses and instruction immediates), whole
        // fields, and only those the uop populates: inverting a
        // don't-care zero would bias RINV to all ones.
        if (allocCount_ % config_.isvSampleInterval == 0) {
            for (unsigned w = 0; w < kLayoutWords; ++w) {
                const std::uint64_t m = rinvSample_[w] & um[w];
                rinv_[w] = (rinv_[w] & ~m) | (~image[w] & m);
            }
        }
        // Unused fields of a busy slot may hold repair values (they
        // are written through the allocate port anyway).
        const std::uint32_t unused = kAllFields & ~used;
        const std::uint32_t write_isv = isvPolarity(unused);
        e.image = repairImage(e.image, write_isv, unused, um);
        e.holdsInverted =
            (e.holdsInverted & ~(unused & isvFieldBits_)) | write_isv;
    }
    ++allocCount_;
    return static_cast<int>(idx);
}

void
Scheduler::release(unsigned entry, Cycle now)
{
    assert(entry < entries_.size());
    Entry &e = entries_[entry];
    pool_.release(entry, now);
    flushEntry(e, now);
    e.inUseFields = 0;

    // The valid bit drops to 0 on release; its contents are always
    // live, so it is never repaired (repairKeep_ holds it).
    e.image[0] &= ~(std::uint64_t(1) << kValidOff);

    if (!protectionEnabled_)
        return;
    const std::uint32_t write_isv = isvPolarity(kAllFields);
    e.image = repairImage(e.image, write_isv, kAllFields, LayoutWords{});
    e.holdsInverted = (e.holdsInverted & ~isvFieldBits_) | write_isv;
}

SchedulerStress
Scheduler::snapshotStress(Cycle now)
{
    flushAll(now);
    SchedulerStress s;
    s.numEntries = config_.numEntries;
    s.cycles = now;
    s.busyIntegral = pool_.busyIntegral();

    // Materialise the per-field tracker views from the 144-bit
    // sliced accumulators.  Within a field every bit shares the
    // same total/in-use time (fields are used whole), so the
    // shared-total tracker representation is exact.
    const FieldLayout &layout = fieldLayout();
    const std::vector<std::uint64_t> &zero_total =
        zeroTotal_.times();
    const std::vector<std::uint64_t> &busy_zero = busyZero_.times();
    s.totalBias.reserve(layout.count());
    s.busyBias.reserve(layout.count());
    s.fieldUseTime.reserve(layout.count());
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        const std::uint64_t use_time = fieldBusyTime_[f];
        s.totalBias.push_back(BitBiasTracker::fromTimes(
            spec.width, &zero_total[spec.offset], entryTime_));
        s.busyBias.push_back(BitBiasTracker::fromTimes(
            spec.width, &busy_zero[spec.offset], use_time));
        s.fieldUseTime.push_back(use_time);
    }
    return s;
}

void
SchedulerStress::merge(const SchedulerStress &other)
{
    assert(numEntries == other.numEntries);
    assert(totalBias.size() == other.totalBias.size());
    cycles += other.cycles;
    busyIntegral += other.busyIntegral;
    for (std::size_t f = 0; f < totalBias.size(); ++f) {
        totalBias[f].merge(other.totalBias[f]);
        busyBias[f].merge(other.busyBias[f]);
        fieldUseTime[f] += other.fieldUseTime[f];
    }
}

double
SchedulerStress::occupancy() const
{
    if (cycles == 0)
        return 0.0;
    return busyIntegral / (static_cast<double>(numEntries) *
                           static_cast<double>(cycles));
}

std::vector<double>
SchedulerStress::biasVector() const
{
    std::vector<double> out;
    out.reserve(fieldLayout().totalBits());
    for (const BitBiasTracker &field : totalBias) {
        const auto v = field.biasVector();
        out.insert(out.end(), v.begin(), v.end());
    }
    return out;
}

std::vector<BitProfile>
SchedulerStress::bitProfiles() const
{
    const FieldLayout &layout = fieldLayout();
    std::vector<BitProfile> out;
    out.reserve(layout.totalBits());
    const double denom = static_cast<double>(numEntries) *
        static_cast<double>(cycles);
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        const double occ = denom > 0.0
            ? static_cast<double>(fieldUseTime[f]) / denom : 0.0;
        for (unsigned b = 0; b < spec.width; ++b) {
            BitProfile p;
            p.occupancy = occ;
            p.bias0Busy = busyBias[f].zeroProbability(b);
            out.push_back(p);
        }
    }
    return out;
}

double
SchedulerStress::worstFigure8Bias() const
{
    const auto bias = biasVector();
    const FieldLayout &layout = fieldLayout();
    double worst = 0.5;
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        if (!spec.inFigure8)
            continue;
        for (unsigned b = 0; b < spec.width; ++b) {
            const double p = bias[spec.offset + b];
            worst = std::max(worst, std::max(p, 1.0 - p));
        }
    }
    return worst;
}

} // namespace penelope
