#include "resultcache.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace penelope {

namespace {

/** File-scope handles (no per-call static guard): lookup/store
 *  run once per simulated (trace, options) point. */
struct CacheMetrics
{
    obs::Counter hits, misses, stores;
    obs::Histogram lookupUs, storeUs;

    CacheMetrics()
    {
        auto &reg = obs::Registry::instance();
        hits = reg.counter("cache.hits");
        misses = reg.counter("cache.misses");
        stores = reg.counter("cache.stores");
        lookupUs = reg.histogram("cache.lookup_latency", "us");
        storeUs = reg.histogram("cache.store_latency", "us");
    }
};

const CacheMetrics g_cacheMetrics{};

inline std::uint64_t
rotl64(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

inline std::uint64_t
fmix64(std::uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
}

/** Little-endian 64-bit load (keys hash identically on any host). */
inline std::uint64_t
load64le(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

Hash128
murmur3_128(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    const std::size_t nblocks = len / 16;

    std::uint64_t h1 = seed;
    std::uint64_t h2 = seed;
    const std::uint64_t c1 = 0x87c37b91114253d5ULL;
    const std::uint64_t c2 = 0x4cf5ad432745937fULL;

    for (std::size_t i = 0; i < nblocks; ++i) {
        std::uint64_t k1 = load64le(bytes + 16 * i);
        std::uint64_t k2 = load64le(bytes + 16 * i + 8);

        k1 *= c1;
        k1 = rotl64(k1, 31);
        k1 *= c2;
        h1 ^= k1;
        h1 = rotl64(h1, 27);
        h1 += h2;
        h1 = h1 * 5 + 0x52dce729;

        k2 *= c2;
        k2 = rotl64(k2, 33);
        k2 *= c1;
        h2 ^= k2;
        h2 = rotl64(h2, 31);
        h2 += h1;
        h2 = h2 * 5 + 0x38495ab5;
    }

    const std::uint8_t *tail = bytes + 16 * nblocks;
    std::uint64_t k1 = 0;
    std::uint64_t k2 = 0;
    switch (len & 15) {
      case 15: k2 ^= std::uint64_t(tail[14]) << 48; [[fallthrough]];
      case 14: k2 ^= std::uint64_t(tail[13]) << 40; [[fallthrough]];
      case 13: k2 ^= std::uint64_t(tail[12]) << 32; [[fallthrough]];
      case 12: k2 ^= std::uint64_t(tail[11]) << 24; [[fallthrough]];
      case 11: k2 ^= std::uint64_t(tail[10]) << 16; [[fallthrough]];
      case 10: k2 ^= std::uint64_t(tail[9]) << 8; [[fallthrough]];
      case 9:
        k2 ^= std::uint64_t(tail[8]);
        k2 *= c2;
        k2 = rotl64(k2, 33);
        k2 *= c1;
        h2 ^= k2;
        [[fallthrough]];
      case 8: k1 ^= std::uint64_t(tail[7]) << 56; [[fallthrough]];
      case 7: k1 ^= std::uint64_t(tail[6]) << 48; [[fallthrough]];
      case 6: k1 ^= std::uint64_t(tail[5]) << 40; [[fallthrough]];
      case 5: k1 ^= std::uint64_t(tail[4]) << 32; [[fallthrough]];
      case 4: k1 ^= std::uint64_t(tail[3]) << 24; [[fallthrough]];
      case 3: k1 ^= std::uint64_t(tail[2]) << 16; [[fallthrough]];
      case 2: k1 ^= std::uint64_t(tail[1]) << 8; [[fallthrough]];
      case 1:
        k1 ^= std::uint64_t(tail[0]);
        k1 *= c1;
        k1 = rotl64(k1, 31);
        k1 *= c2;
        h1 ^= k1;
        break;
      default:
        break;
    }

    h1 ^= static_cast<std::uint64_t>(len);
    h2 ^= static_cast<std::uint64_t>(len);
    h1 += h2;
    h2 += h1;
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 += h2;
    h2 += h1;
    return {h1, h2};
}

// --------------------------------------------------- CacheKeyBuilder

namespace {

enum KeyTag : std::uint8_t
{
    kTagU64 = 1,
    kTagU32 = 2,
    kTagBool = 3,
    kTagF64 = 4,
    kTagStr = 5,
};

} // namespace

CacheKeyBuilder::CacheKeyBuilder(std::string_view domain)
{
    str(kResultCacheSalt);
    str(domain);
}

void
CacheKeyBuilder::tag(std::uint8_t t)
{
    bytes_.push_back(t);
}

void
CacheKeyBuilder::raw64(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        bytes_.push_back(
            static_cast<std::uint8_t>(value >> (8 * i)));
}

CacheKeyBuilder &
CacheKeyBuilder::u64(std::uint64_t value)
{
    tag(kTagU64);
    raw64(value);
    return *this;
}

CacheKeyBuilder &
CacheKeyBuilder::u32(std::uint32_t value)
{
    tag(kTagU32);
    raw64(value);
    return *this;
}

CacheKeyBuilder &
CacheKeyBuilder::b(bool value)
{
    tag(kTagBool);
    bytes_.push_back(value ? 1 : 0);
    return *this;
}

CacheKeyBuilder &
CacheKeyBuilder::f64(double value)
{
    tag(kTagF64);
    raw64(std::bit_cast<std::uint64_t>(value));
    return *this;
}

CacheKeyBuilder &
CacheKeyBuilder::str(std::string_view s)
{
    tag(kTagStr);
    raw64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
    return *this;
}

Hash128
CacheKeyBuilder::digest() const
{
    return murmur3_128(bytes_.data(), bytes_.size());
}

// ------------------------------------------------------- ResultCache

namespace {

constexpr char kMagic[4] = {'P', 'N', 'L', 'C'};

/** Sanity cap on a single payload (entries are small; anything
 *  larger is a corrupt length field). */
constexpr std::uint32_t kMaxPayload = 1u << 26;

/** Per-record checksum keyed by the record's own key, so a flipped
 *  key bit invalidates the record too. */
std::uint64_t
recordChecksum(const Hash128 &key, std::string_view payload)
{
    return murmur3_128(payload.data(), payload.size(),
                       key.lo ^ rotl64(key.hi, 32))
        .lo;
}

std::string
fileHeader()
{
    ByteWriter w;
    w.bytes(kMagic, sizeof(kMagic));
    w.u32(ResultCache::kFormatVersion);
    return w.data();
}

std::string
encodeRecord(const Hash128 &key, std::string_view payload)
{
    ByteWriter w;
    w.u64(key.lo);
    w.u64(key.hi);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.bytes(payload.data(), payload.size());
    w.u64(recordChecksum(key, payload));
    return w.data();
}

/**
 * Parse a store/shard file body (header already verified) record by
 * record, invoking @p sink(key, payload) for every intact record.
 * A record with a bad checksum is skipped; a truncated or
 * implausible tail ends parsing.  Returns the number of dropped
 * records/tails and, via @p parsed_end, the offset just past the
 * last structurally parseable record -- the stripe store truncates
 * a damaged file there so later appends stay reachable.
 */
template <class Sink>
std::uint64_t
parseRecords(std::string_view body, Sink &&sink,
             std::size_t &parsed_end)
{
    std::uint64_t dropped = 0;
    ByteReader r(body);
    parsed_end = 0;
    while (!r.atEnd()) {
        Hash128 key;
        key.lo = r.u64();
        key.hi = r.u64();
        const std::uint32_t len = r.u32();
        if (!r.ok() || len > kMaxPayload) {
            ++dropped; // truncated header / corrupt length
            return dropped;
        }
        const std::string_view payload = r.bytesView(len);
        const std::uint64_t checksum = r.u64();
        if (!r.ok()) {
            ++dropped; // truncated payload/checksum
            return dropped;
        }
        if (checksum == recordChecksum(key, payload))
            sink(key, payload);
        else
            ++dropped; // bit-flipped record: skip, keep parsing
        parsed_end = r.pos();
    }
    return dropped;
}

} // namespace

struct ResultCache::Stripe
{
    /** One cached payload plus its GC mark: an entry is live once
     *  this process has looked it up or stored it (see compact()).
     *  onDisk tracks whether the attached stripe file already holds
     *  the record (loads and store() appends do; imports do not
     *  until flushToDisk()). */
    struct Entry
    {
        std::string payload;
        bool live = false;
        bool onDisk = false;
    };

    std::mutex mutex;
    std::unordered_map<Hash128, Entry, Hash128Hasher> map;

    /** Disk file consulted (or found unusable) already? */
    bool loaded = false;

    /** Append stream for new entries (disk mode only; null when the
     *  stripe file is foreign/unwritable). */
    std::FILE *append = nullptr;
};

ResultCache::ResultCache(std::string dir)
    : dir_(std::move(dir)), stripes_(kStripes)
{
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        dir_.clear(); // degrade to memory-only, never an error
}

ResultCache::~ResultCache()
{
    for (Stripe &stripe : stripes_) {
        if (stripe.append)
            std::fclose(stripe.append);
    }
}

ResultCache::Stripe &
ResultCache::stripeFor(const Hash128 &key)
{
    return stripes_[key.hi >> 60];
}

std::string
ResultCache::stripePath(unsigned index) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "shard_%02x.bin", index);
    return dir_ + "/" + name;
}

void
ResultCache::ensureLoaded(unsigned index, Stripe &stripe)
{
    if (stripe.loaded || dir_.empty())
        return;
    stripe.loaded = true;

    const std::string path = stripePath(index);
    const std::string header = fileHeader();
    std::uint64_t dropped = 0;
    bool foreign = false;
    bool fresh = true; ///< header must be (re)written on append
    {
        std::ifstream in(path, std::ios::binary);
        if (in) {
            std::string contents(
                (std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
            if (contents.empty()) {
                // A 0-byte file (e.g. an interrupted creation) is
                // as good as absent: rewrite the header below.
            } else if (contents.size() >= header.size() &&
                       contents.compare(0, header.size(),
                                        header) == 0) {
                fresh = false;
                std::size_t parsed_end = 0;
                const std::string_view body =
                    std::string_view(contents)
                        .substr(header.size());
                dropped = parseRecords(
                    body,
                    [&](const Hash128 &key,
                        std::string_view payload) {
                        stripe.map.emplace(
                            key,
                            Stripe::Entry{std::string(payload),
                                          false, true});
                    },
                    parsed_end);
                if (parsed_end < body.size()) {
                    // Damaged tail: cut the file back to the last
                    // intact record so appended entries land in
                    // front of the parse horizon instead of being
                    // re-dropped (and re-appended) forever.
                    std::error_code ec;
                    std::filesystem::resize_file(
                        path, header.size() + parsed_end, ec);
                    if (ec)
                        foreign = true; // read-only: don't append
                }
            } else {
                // Foreign or version-mismatched file: every lookup
                // misses and we leave the file alone.
                foreign = true;
            }
        }
    }
    if (dropped || foreign) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.badRecords += dropped + (foreign ? 1 : 0);
    }
    if (foreign)
        return;

    // Attach the append stream (creating the file, with its
    // header, when absent, empty or unreadable).
    stripe.append = std::fopen(path.c_str(), "ab");
    if (stripe.append && fresh) {
        if (std::fwrite(header.data(), 1, header.size(),
                        stripe.append) != header.size()) {
            std::fclose(stripe.append);
            stripe.append = nullptr;
        }
    }
}

bool
ResultCache::lookup(const Hash128 &key, std::string &payload)
{
    const bool timed = obs::enabled();
    const std::uint64_t t0 = timed ? obs::monotonicMicros() : 0;
    Stripe &stripe = stripeFor(key);
    bool hit = false;
    {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        ensureLoaded(
            static_cast<unsigned>(&stripe - stripes_.data()),
            stripe);
        const auto it = stripe.map.find(key);
        if (it != stripe.map.end()) {
            payload = it->second.payload;
            it->second.live = true;
            hit = true;
        }
    }
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        if (hit)
            ++stats_.hits;
        else
            ++stats_.misses;
    }
    if (timed) {
        (hit ? g_cacheMetrics.hits : g_cacheMetrics.misses).add();
        g_cacheMetrics.lookupUs.record(obs::monotonicMicros() -
                                       t0);
    }
    return hit;
}

void
ResultCache::store(const Hash128 &key, std::string_view payload)
{
    const bool timed = obs::enabled();
    const std::uint64_t t0 = timed ? obs::monotonicMicros() : 0;
    Stripe &stripe = stripeFor(key);
    {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        ensureLoaded(
            static_cast<unsigned>(&stripe - stripes_.data()),
            stripe);
        const auto [it, inserted] = stripe.map.emplace(
            key, Stripe::Entry{std::string(payload), true});
        if (!inserted) {
            // First write wins; same key = same payload.  The
            // attempt still proves the entry is reachable by the
            // current configuration.
            it->second.live = true;
            return;
        }
        if (stripe.append) {
            const std::string record = encodeRecord(key, payload);
            if (std::fwrite(record.data(), 1, record.size(),
                            stripe.append) != record.size()) {
                // Disk full or similar: stop persisting this
                // stripe; in-memory operation continues.
                std::fclose(stripe.append);
                stripe.append = nullptr;
            } else {
                std::fflush(stripe.append);
                it->second.onDisk = true;
            }
        }
    }
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.stores;
    }
    if (timed) {
        g_cacheMetrics.stores.add();
        g_cacheMetrics.storeUs.record(obs::monotonicMicros() -
                                      t0);
    }
}

void
ResultCache::exportToBytes(std::string &out)
{
    out = fileHeader();
    for (unsigned i = 0; i < kStripes; ++i) {
        Stripe &stripe = stripes_[i];
        std::lock_guard<std::mutex> lock(stripe.mutex);
        ensureLoaded(i, stripe);
        for (const auto &[key, entry] : stripe.map)
            out += encodeRecord(key, entry.payload);
    }
}

void
ResultCache::exportNewEntries(
    std::unordered_set<Hash128, Hash128Hasher> &already,
    std::string &out)
{
    out = fileHeader();
    for (unsigned i = 0; i < kStripes; ++i) {
        Stripe &stripe = stripes_[i];
        std::lock_guard<std::mutex> lock(stripe.mutex);
        ensureLoaded(i, stripe);
        for (const auto &[key, entry] : stripe.map) {
            if (!already.insert(key).second)
                continue;
            out += encodeRecord(key, entry.payload);
        }
    }
}

std::size_t
ResultCache::exportByteSize()
{
    // Header + per-record framing: key (16) + length (4) +
    // checksum (8) around each payload (see encodeRecord).
    std::size_t bytes = fileHeader().size();
    for (unsigned i = 0; i < kStripes; ++i) {
        Stripe &stripe = stripes_[i];
        std::lock_guard<std::mutex> lock(stripe.mutex);
        ensureLoaded(i, stripe);
        for (const auto &[key, entry] : stripe.map)
            bytes += 28 + entry.payload.size();
    }
    return bytes;
}

std::size_t
ResultCache::flushToDisk()
{
    obs::ScopedSpan span("cache.flush", "cache-io");
    if (dir_.empty())
        return 0;
    std::size_t appended = 0;
    for (unsigned i = 0; i < kStripes; ++i) {
        Stripe &stripe = stripes_[i];
        std::lock_guard<std::mutex> lock(stripe.mutex);
        ensureLoaded(i, stripe);
        if (!stripe.append)
            continue;
        bool dirty = false;
        for (auto &[key, entry] : stripe.map) {
            if (entry.onDisk)
                continue;
            const std::string record =
                encodeRecord(key, entry.payload);
            if (std::fwrite(record.data(), 1, record.size(),
                            stripe.append) != record.size()) {
                std::fclose(stripe.append);
                stripe.append = nullptr;
                break;
            }
            entry.onDisk = true;
            dirty = true;
            ++appended;
        }
        if (dirty && stripe.append)
            std::fflush(stripe.append);
    }
    return appended;
}

bool
ResultCache::exportTo(const std::string &path)
{
    obs::ScopedSpan span("cache.export", "cache-io");
    std::string bytes;
    exportToBytes(bytes);
    std::ofstream out(path,
                      std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    return static_cast<bool>(out);
}

bool
ResultCache::importFromBytes(std::string_view bytes)
{
    const std::string header = fileHeader();
    if (bytes.size() < header.size() ||
        bytes.compare(0, header.size(), header) != 0) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.badRecords;
        return false;
    }
    std::size_t parsed_end = 0;
    const std::uint64_t dropped = parseRecords(
        bytes.substr(header.size()),
        [&](const Hash128 &key, std::string_view payload) {
            Stripe &stripe = stripeFor(key);
            std::lock_guard<std::mutex> lock(stripe.mutex);
            ensureLoaded(
                static_cast<unsigned>(&stripe - stripes_.data()),
                stripe);
            stripe.map.emplace(
                key, Stripe::Entry{std::string(payload), false});
        },
        parsed_end);
    if (dropped) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        stats_.badRecords += dropped;
    }
    return true;
}

bool
ResultCache::importFrom(const std::string &path)
{
    obs::ScopedSpan span("cache.import", "cache-io");
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    const std::string contents(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return importFromBytes(contents);
}

std::size_t
ResultCache::compact()
{
    obs::ScopedSpan span("cache.compact", "cache-io");
    std::size_t dropped = 0;
    for (unsigned i = 0; i < kStripes; ++i) {
        Stripe &stripe = stripes_[i];
        std::lock_guard<std::mutex> lock(stripe.mutex);
        ensureLoaded(i, stripe);

        std::size_t stripe_dropped = 0;
        for (auto it = stripe.map.begin();
             it != stripe.map.end();) {
            if (it->second.live) {
                ++it;
            } else {
                it = stripe.map.erase(it);
                ++stripe_dropped;
            }
        }
        dropped += stripe_dropped;

        // Rewrite the disk stripe down to the survivors.  A
        // foreign/read-only stripe (append == nullptr after a load
        // attempt) is left untouched: we never read its entries, so
        // there is nothing of ours to compact there.
        if (dir_.empty() || !stripe.append)
            continue;
        std::fclose(stripe.append);
        stripe.append = nullptr;

        const std::string path = stripePath(i);
        const std::string tmp = path + ".gc";
        bool rewritten = false;
        {
            std::ofstream out(tmp,
                              std::ios::binary | std::ios::trunc);
            if (out) {
                const std::string header = fileHeader();
                out.write(header.data(),
                          static_cast<std::streamsize>(
                              header.size()));
                for (const auto &[key, entry] : stripe.map) {
                    const std::string record =
                        encodeRecord(key, entry.payload);
                    out.write(record.data(),
                              static_cast<std::streamsize>(
                                  record.size()));
                }
                out.flush();
                rewritten = static_cast<bool>(out);
            }
        }
        std::error_code ec;
        if (rewritten) {
            std::filesystem::rename(tmp, path, ec);
            if (ec)
                rewritten = false;
        }
        if (rewritten) {
            // The rewrite persisted every survivor, including ones
            // that had only been imported into memory before.
            for (auto &[key, entry] : stripe.map)
                entry.onDisk = true;
        }
        if (!rewritten) {
            // The original (uncompacted) file still holds every
            // entry; drop the partial temp and keep appending to
            // the original.  A later GC can retry.
            std::filesystem::remove(tmp, ec);
        }
        stripe.append = std::fopen(path.c_str(), "ab");
    }
    return dropped;
}

std::size_t
ResultCache::size()
{
    std::size_t n = 0;
    for (Stripe &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        n += stripe.map.size();
    }
    return n;
}

ResultCache::Stats
ResultCache::stats()
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

void
ResultCache::noteDecodeFailure()
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    ++stats_.decodeFailures;
}

} // namespace penelope
