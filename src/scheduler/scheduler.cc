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

/** Every field except the three conditionally-used capture fields
 *  (Src1Data / Src2Data / Imm) holds live data in a busy slot. */
constexpr std::uint32_t kAlwaysUsedFields = 0x3ffffu &
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
    // Per-entry state lives in one 64-bit mask word (deferred
    // releases here, the replay driver's calendar wheel).
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

    slots_.reserve(layout.count());
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        assert(spec.width >= 1 && spec.width < 64);
        FieldSlot s;
        s.widthMask = (std::uint64_t(1) << spec.width) - 1;
        s.word0 = spec.offset / 64;
        s.shift0 = spec.offset % 64;
        s.bitsInWord0 = std::min(spec.width, 64 - s.shift0);
        s.straddles = s.bitsInWord0 < spec.width;
        slots_.push_back(s);
    }

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
    repairKeep_ = repairAll1_ = repairIsv_ = LayoutWords{};
    isvFields_.clear();
    isvFieldBits_ = 0;
    kBits_.clear();
    for (unsigned f = 0; f < layout.count(); ++f) {
        const FieldSpec &spec = layout.spec(f);
        kBegin_[f] = static_cast<std::uint16_t>(kBits_.size());
        LayoutWords isv{};
        for (unsigned b = 0; b < spec.width; ++b) {
            const unsigned global = spec.offset + b;
            const std::uint64_t bit = std::uint64_t(1) << (global % 64);
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
            for (unsigned w = 0; w < kLayoutWords; ++w)
                repairIsv_[w] |= isv[w];
        }
    }
    kBegin_[layout.count()] = static_cast<std::uint16_t>(kBits_.size());
}

void
Scheduler::enableProtection(bool enabled)
{
    protectionEnabled_ = enabled;
}

std::uint64_t
Scheduler::extractField(const LayoutWords &image,
                        unsigned field) const
{
    const FieldSlot &s = slots_[field];
    std::uint64_t v = image[s.word0] >> s.shift0;
    if (s.straddles)
        v |= image[s.word0 + 1] << s.bitsInWord0;
    return v & s.widthMask;
}

void
Scheduler::depositField(LayoutWords &image, unsigned field,
                        std::uint64_t value)
{
    const FieldSlot &s = slots_[field];
    value &= s.widthMask;
    image[s.word0] = (image[s.word0] & ~(s.widthMask << s.shift0)) |
        (value << s.shift0);
    if (s.straddles) {
        image[s.word0 + 1] =
            (image[s.word0 + 1] & ~(s.widthMask >> s.bitsInWord0)) |
            (value >> s.bitsInWord0);
    }
}

void
Scheduler::flushEntry(Entry &e, Cycle now)
{
    const std::uint64_t dt = now > e.since ? now - e.since : 0;
    const std::uint64_t pend = e.pendingBusyDt;
    if (dt == 0 && pend == 0)
        return;
    // Defer the wide accumulator adds: park the record in the batch.
    // Everything a decision reads mid-run (entryTime_, the ISV
    // balance meters, the timestamp) is charged eagerly, so repair
    // behaviour -- and with it the RNG draw stream -- never depends
    // on drain timing.
    const std::uint32_t uf = e.inUseFields;
    if (pend) {
        // Merged record: the deferred busy span plus the idle span
        // since.  The parked image (valid still up) stands for both
        // -- an unprotected release changes nothing else -- and the
        // valid bit's idle zero-time is credited at fold.
        // Converting the entry here is the release epilogue an
        // undeferred release runs at release time.
        assert(uf != 0);
        appendRecord(e.image, pend + dt, pend, uf);
        validIdleGrand_ += dt;
        e.pendingBusyDt = 0;
        pendingMask_ &= ~(std::uint64_t(1) << (&e - entries_.data()));
        e.inUseFields = 0;
        e.image[0] &= ~std::uint64_t(1); // valid drop (bit 0)
    } else {
        appendRecord(e.image, dt, uf ? dt : 0, uf);
    }
    entryTime_ += dt;
    if (dt) {
        for (std::uint32_t m = e.holdsInverted; m; m &= m - 1) {
            fieldInvertedTime_[static_cast<unsigned>(
                std::countr_zero(m))] += dt;
        }
    }
    e.since = now;
}

void
Scheduler::appendRecord(const LayoutWords &image, std::uint64_t dt,
                        std::uint64_t busy_dt, std::uint32_t uf) const
{
    assert(dt != 0 && (uf != 0) == (busy_dt != 0));
    const unsigned v = batchCount_;
    const std::uint64_t lane = std::uint64_t(1) << v;
    for (unsigned w = 0; w < kLayoutWords; ++w)
        batchImage_[v][w] = image[w];
    // The durations enter their bit-planes here, one OR per set
    // bit, so the drain never transposes a duration column.
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
        busyDtGrand_ += busy_dt;
        if (uf & (std::uint32_t(1) << kSrc1DataField))
            s1DtGrand_ += busy_dt;
        if (uf & (std::uint32_t(1) << kSrc2DataField))
            s2DtGrand_ += busy_dt;
        if (uf & (std::uint32_t(1) << kImmField))
            immDtGrand_ += busy_dt;
        busyDtOr_ |= busy_dt;
        for (std::uint64_t m = busy_dt; m; m &= m - 1)
            busyPlane_[std::countr_zero(m)] |= lane;
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
Scheduler::drainBatch() const
{
    if (batchCount_ == 0)
        return;
    g_schedulerDrains.add();
    batchCount_ = 0;

    // Plane-major accumulation: plane l of a duration column is the
    // lane set whose records carry weight 2^l, so every record in it
    // adds its image into the level-l counters; the busy-span planes
    // do the same with the zeroed in-use complements (their lanes
    // are busy by construction -- an idle record's busy span is 0).
    const unsigned num_planes =
        static_cast<unsigned>(std::bit_width(dtOr_));
    for (unsigned l = 0; l < num_planes; ++l) {
        if (dtPlane_[l])
            addPlane(oneBank_, l, dtPlane_[l], batchImage_);
        dtPlane_[l] = 0;
    }
    const unsigned num_busy_planes =
        static_cast<unsigned>(std::bit_width(busyDtOr_));
    for (unsigned l = 0; l < num_busy_planes; ++l) {
        if (busyPlane_[l])
            addPlane(busyZeroBank_, l, busyPlane_[l], batchZero_);
        busyPlane_[l] = 0;
    }
    dtOr_ = busyDtOr_ = 0;
}

void
Scheduler::sweepPending() const
{
    // Emit the busy-only record an undeferred release would have
    // emitted at release time for every parked release, and run the
    // release epilogue (valid drop, in-use clear).  The entry's
    // timestamp is untouched: its idle span keeps accruing and
    // flushes as a plain idle record later -- the same two records,
    // split where an undeferred release splits them.
    for (std::uint64_t p = pendingMask_; p; p &= p - 1) {
        Entry &e = entries_[static_cast<unsigned>(
            std::countr_zero(p))];
        assert(e.pendingBusyDt != 0 && e.inUseFields != 0);
        appendRecord(e.image, e.pendingBusyDt, e.pendingBusyDt,
                     e.inUseFields);
        e.pendingBusyDt = 0;
        e.inUseFields = 0;
        e.image[0] &= ~std::uint64_t(1); // valid drop (bit 0)
    }
    pendingMask_ = 0;
}

void
Scheduler::foldBatch() const
{
    sweepPending();
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
    if (validIdleGrand_) {
        // Merged records keep valid = 1 over their idle span;
        // credit the one bit their release would have dropped.
        zeroTotal_.addBit(kValidOff, validIdleGrand_);
        validIdleGrand_ = 0;
    }
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

std::uint64_t
Scheduler::repairBits(unsigned field, std::uint64_t current,
                      bool write_isv)
{
    std::uint64_t out = (current & extractField(repairKeep_, field)) |
        extractField(repairAll1_, field);
    // The balance meter alternates polarity so entries hold
    // inverted contents 50% of the overall time: write the
    // inverted sample, or the plain (re-inverted) sample when
    // inverted residence already leads.
    const std::uint64_t rinv = extractField(rinv_, field);
    out |= (write_isv ? rinv : ~rinv) & extractField(repairIsv_, field);
    const unsigned offset = fieldLayout().spec(field).offset;
    for (unsigned k = kBegin_[field]; k < kBegin_[field + 1]; ++k) {
        const bool one =
            dutyGens_[kBits_[k].global].next() != kBits_[k].inverted;
        out |= std::uint64_t(one) << (kBits_[k].global - offset);
    }
    return out;
}

BitWord
Scheduler::repairValue(unsigned field, const BitWord &current,
                       bool write_isv)
{
    return BitWord(fieldLayout().spec(field).width,
                   repairBits(field, current.lo(), write_isv));
}

Scheduler::LayoutWords
Scheduler::repairImage(const LayoutWords &current,
                       std::uint32_t write_isv)
{
    LayoutWords out;
    for (unsigned w = 0; w < kLayoutWords; ++w)
        out[w] = (current[w] & repairKeep_[w]) | repairAll1_[w];
    for (const IsvField &f : isvFields_) {
        const std::uint64_t flip =
            (write_isv >> f.field) & 1 ? 0 : ~std::uint64_t(0);
        for (unsigned w = 0; w < kLayoutWords; ++w)
            out[w] |= (rinv_[w] ^ flip) & f.mask[w];
    }
    for (const KBit &kb : kBits_) {
        const bool one = dutyGens_[kb.global].next() != kb.inverted;
        out[kb.global / 64] |= std::uint64_t(one) << (kb.global % 64);
    }
    return out;
}

void
Scheduler::applyRepair(Entry &e, unsigned field)
{
    // ISV balance meter (timestamps, Section 3.2.2): write inverted
    // contents while non-inverted residence leads, plain samples
    // otherwise, so entries hold inverted values 50% of the
    // overall time.
    const std::uint32_t bit = std::uint32_t(1) << field;
    const bool write_isv =
        (isvFieldBits_ & bit) && meterWantsInverted(field);
    depositField(e.image, field,
                 repairBits(field, extractField(e.image, field),
                            write_isv));
    if (isvFieldBits_ & bit)
        e.holdsInverted = write_isv ? e.holdsInverted | bit
                                    : e.holdsInverted & ~bit;
}

void
Scheduler::sampleRinv(const Uop &uop, const RenameTags &tags)
{
    // ISV fields of RINV are refreshed with the inversion of values
    // flowing through the allocate port (Section 4.5: sampled from
    // register file reads/bypasses and instruction immediates).
    // Only fields the sampled uop actually populates are refreshed:
    // inverting a dont-care zero would bias RINV to all-ones.
    for (std::uint32_t m = isvFieldBits_; m; m &= m - 1) {
        const unsigned f = static_cast<unsigned>(std::countr_zero(m));
        const FieldSpec &spec = fieldLayout().spec(f);
        if (fieldUsedByUop(spec.id, uop, tags))
            depositField(rinv_, f, ~fieldValue(spec.id, uop, tags).lo());
    }
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

    if (protectionEnabled_ &&
        (allocCount_ % config_.isvSampleInterval) == 0) {
        sampleRinv(uop, tags);
    }
    ++allocCount_;

    flushEntry(e, now);

    // Fused field deposit: compose the uop's whole 144-bit image
    // and in-use mask with shifts against the constant layout, then
    // merge in one read-modify-write per word.  Field for field
    // this deposits exactly what the spec-driven loop
    // (fieldUsedByUop / fieldValue / depositField / setFieldInUse)
    // would -- values are masked to their field widths the same way
    // depositField does -- it just never touches the spec table.
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

    const LayoutWords um = inUseMask(used);
    e.image[0] = (e.image[0] & ~um[0]) | (b0 & um[0]);
    e.image[1] = (e.image[1] & ~um[1]) | (b1 & um[1]);
    e.image[2] = (e.image[2] & ~um[2]) | (b2 & um[2]);
    e.inUseFields = used;
    e.holdsInverted &= ~used;

    // Unused fields of a busy slot may hold repair values (they are
    // written through the allocate port anyway).  Ascending field
    // order, like the spec-driven loop, so the per-bit duty
    // generators advance in the same sequence.
    if (protectionEnabled_) {
        for (std::uint32_t m = ~used & 0x3ffffu; m; m &= m - 1) {
            applyRepair(e, static_cast<unsigned>(
                               std::countr_zero(m)));
        }
    }
    return static_cast<int>(idx);
}

void
Scheduler::release(unsigned entry, Cycle now)
{
    assert(entry < entries_.size());
    Entry &e = entries_[entry];
    assert(e.pendingBusyDt == 0);
    pool_.release(entry, now);

    // Unprotected release: the only image change is the valid drop,
    // so park the busy span and let the next flush of this entry
    // emit one merged busy+idle record.  The decision-feeding state
    // (entryTime_, ISV meters, timestamp) is still charged eagerly,
    // exactly like a flush.
    if (!protectionEnabled_ && now > e.since) {
        const std::uint64_t dt = now - e.since;
        e.pendingBusyDt = dt;
        pendingMask_ |= std::uint64_t(1) << entry;
        entryTime_ += dt;
        for (std::uint32_t m = e.holdsInverted; m; m &= m - 1) {
            fieldInvertedTime_[static_cast<unsigned>(
                std::countr_zero(m))] += dt;
        }
        e.since = now;
        return;
    }

    flushEntry(e, now);
    e.inUseFields = 0;

    // The valid bit drops to 0 on release; its contents are always
    // live, so it cannot be repaired.
    e.image[0] &= ~(std::uint64_t(1) << kValidOff);
    e.holdsInverted &=
        ~(std::uint32_t(1) << static_cast<unsigned>(FieldId::Valid));

    if (!protectionEnabled_)
        return;
    // Every other field at once: the meters do not move during a
    // release, so each ISV field's polarity is read up front.
    std::uint32_t write_isv = 0;
    for (const IsvField &f : isvFields_) {
        if (meterWantsInverted(f.field))
            write_isv |= std::uint32_t(1) << f.field;
    }
    e.image = repairImage(e.image, write_isv);
    e.holdsInverted = (e.holdsInverted & ~isvFieldBits_) | write_isv;
}

double
Scheduler::fieldOccupancy(FieldId f, Cycle now) const
{
    if (now == 0)
        return 0.0;
    foldBatch();
    return static_cast<double>(
               fieldBusyTime_[static_cast<unsigned>(f)]) /
        (static_cast<double>(config_.numEntries) *
         static_cast<double>(now));
}

std::vector<double>
Scheduler::biasVector(Cycle now)
{
    return snapshotStress(now).biasVector();
}

std::vector<BitProfile>
Scheduler::bitProfiles(Cycle now)
{
    return snapshotStress(now).bitProfiles();
}

double
Scheduler::worstFigure8Bias(Cycle now)
{
    return snapshotStress(now).worstFigure8Bias();
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
