#include "resultcache.hh"

#include <cstdio>
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
 * last structurally parseable record -- the store truncates a
 * damaged file there so later appends stay reachable.
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

/** Read all of @p path into @p out; false when it cannot be
 *  opened. */
bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return true;
}

/** Replace @p path with @p bytes; false when it cannot be written. */
bool
writeFile(const std::string &path, std::string_view bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    return static_cast<bool>(out);
}

} // namespace

ResultCache::ResultCache(std::string dir)
{
    if (dir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return; // degrade to memory-only, never an error
    path_ = dir + "/results.bin";

    const std::string header = fileHeader();
    bool fresh = true; ///< header must be (re)written on append
    std::string contents;
    if (readFile(path_, contents) && !contents.empty()) {
        // (A 0-byte file, e.g. an interrupted creation, is as good
        // as absent: the header is rewritten below.)
        if (!contents.starts_with(header)) {
            // Foreign or version-mismatched file: every lookup
            // misses and we leave the file alone.
            ++stats_.badRecords;
            return;
        }
        fresh = false;
        std::size_t parsed_end = 0;
        const std::string_view body =
            std::string_view(contents).substr(header.size());
        stats_.badRecords += parseRecords(
            body,
            [&](const Hash128 &key, std::string_view payload) {
                map_.emplace(key,
                             Entry{std::string(payload), false, true});
            },
            parsed_end);
        if (parsed_end < body.size()) {
            // Damaged tail: cut the file back to the last intact
            // record so appended entries land in front of the parse
            // horizon instead of being re-dropped (and re-appended)
            // forever.
            std::filesystem::resize_file(
                path_, header.size() + parsed_end, ec);
            if (ec) {
                ++stats_.badRecords; // read-only: don't append
                return;
            }
        }
    }

    // Attach the append stream (creating the file, with its header,
    // when absent, empty or unreadable).
    file_ = std::fopen(path_.c_str(), "ab");
    if (file_ && fresh &&
        std::fwrite(header.data(), 1, header.size(), file_) !=
            header.size()) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

ResultCache::~ResultCache()
{
    if (file_)
        std::fclose(file_);
}

bool
ResultCache::appendRecord(const Hash128 &key, std::string_view payload)
{
    const std::string record = encodeRecord(key, payload);
    if (std::fwrite(record.data(), 1, record.size(), file_) ==
        record.size())
        return true;
    // Disk full or similar: stop persisting; in-memory operation
    // continues.
    std::fclose(file_);
    file_ = nullptr;
    return false;
}

bool
ResultCache::lookup(const Hash128 &key, std::string &payload)
{
    const bool timed = obs::enabled();
    const std::uint64_t t0 = timed ? obs::monotonicMicros() : 0;
    bool hit = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = map_.find(key);
        hit = it != map_.end();
        if (hit) {
            payload = it->second.payload;
            it->second.live = true;
            ++stats_.hits;
        } else {
            ++stats_.misses;
        }
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
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto [it, inserted] = map_.try_emplace(key);
        // First write wins; same key = same payload.  A repeated
        // store still proves the entry is reachable by the current
        // configuration.
        it->second.live = true;
        if (!inserted)
            return;
        it->second.payload = payload;
        if (file_ && appendRecord(key, payload)) {
            std::fflush(file_);
            it->second.onDisk = true;
        }
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
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[key, entry] : map_)
        out += encodeRecord(key, entry.payload);
}

void
ResultCache::exportNewEntries(
    std::unordered_set<Hash128, Hash128Hasher> &already,
    std::string &out)
{
    out = fileHeader();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[key, entry] : map_) {
        if (already.insert(key).second)
            out += encodeRecord(key, entry.payload);
    }
}

std::size_t
ResultCache::exportByteSize()
{
    // Header + per-record framing: key (16) + length (4) +
    // checksum (8) around each payload (see encodeRecord).
    std::size_t bytes = fileHeader().size();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[key, entry] : map_)
        bytes += 28 + entry.payload.size();
    return bytes;
}

std::size_t
ResultCache::flushToDisk()
{
    obs::ScopedSpan span("cache.flush", "cache-io");
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t appended = 0;
    for (auto &[key, entry] : map_) {
        if (entry.onDisk)
            continue;
        if (!file_ || !appendRecord(key, entry.payload))
            break;
        entry.onDisk = true;
        ++appended;
    }
    if (appended && file_)
        std::fflush(file_);
    return appended;
}

bool
ResultCache::exportTo(const std::string &path)
{
    obs::ScopedSpan span("cache.export", "cache-io");
    std::string bytes;
    exportToBytes(bytes);
    return writeFile(path, bytes);
}

bool
ResultCache::importFromBytes(std::string_view bytes)
{
    const std::string header = fileHeader();
    if (!bytes.starts_with(header)) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.badRecords;
        return false;
    }
    // Parse, checksum and copy outside the lock: a large entry
    // stream must not stall the lookups and stores of other
    // threads.
    std::vector<std::pair<Hash128, std::string>> records;
    std::size_t parsed_end = 0;
    const std::uint64_t dropped = parseRecords(
        bytes.substr(header.size()),
        [&](const Hash128 &key, std::string_view payload) {
            records.emplace_back(key, payload);
        },
        parsed_end);
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[key, payload] : records)
        map_.try_emplace(key, Entry{std::move(payload)});
    stats_.badRecords += dropped;
    return true;
}

bool
ResultCache::importFrom(const std::string &path)
{
    obs::ScopedSpan span("cache.import", "cache-io");
    std::string contents;
    return readFile(path, contents) && importFromBytes(contents);
}

std::size_t
ResultCache::compact()
{
    obs::ScopedSpan span("cache.compact", "cache-io");
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t dropped = std::erase_if(
        map_, [](const auto &kv) { return !kv.second.live; });

    // Rewrite the store file down to the survivors.  A foreign or
    // read-only file (no append stream) is left untouched: none of
    // its entries were read, so there is nothing of ours to
    // compact there.
    if (!file_)
        return dropped;
    std::fclose(file_);

    std::string bytes = fileHeader();
    for (const auto &[key, entry] : map_)
        bytes += encodeRecord(key, entry.payload);
    const std::string tmp = path_ + ".gc";
    std::error_code ec;
    bool rewritten = writeFile(tmp, bytes);
    if (rewritten) {
        std::filesystem::rename(tmp, path_, ec);
        rewritten = !ec;
    }
    if (rewritten) {
        // The rewrite persisted every survivor, including ones that
        // had only been imported into memory before.
        for (auto &[key, entry] : map_)
            entry.onDisk = true;
    } else {
        // The original (uncompacted) file still holds every entry;
        // drop the partial temp and keep appending to the original.
        // A later GC can retry.
        std::filesystem::remove(tmp, ec);
    }
    file_ = std::fopen(path_.c_str(), "ab");
    return dropped;
}

std::size_t
ResultCache::size()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
}

ResultCache::Stats
ResultCache::stats()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
ResultCache::noteDecodeFailure()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.decodeFailures;
}

} // namespace penelope
