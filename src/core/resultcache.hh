/**
 * @file
 * Content-addressed result cache for the experiment engine.
 *
 * Every per-(trace, options) simulation in this reproduction is
 * pure: the same inputs always produce bit-identical statistics.
 * That makes each per-trace result addressable by a 128-bit content
 * hash over everything that determines it -- the computation kind,
 * the trace identity (index and seed), every option field the
 * runner consumes, and a code-version salt -- and makes re-running
 * an unchanged sweep a pure lookup exercise.
 *
 * Three cooperating pieces live here:
 *
 *  - CacheKeyBuilder: accumulates tagged, endian-fixed key material
 *    (integers, doubles, strings) and digests it into a Hash128
 *    with MurmurHash3 x64/128.  Every key is salted with
 *    kResultCacheSalt; bump that constant whenever a simulator or a
 *    payload codec changes behaviour, and every stale entry turns
 *    into a miss.
 *
 *  - ByteWriter / ByteReader: explicit little-endian payload
 *    (de)serialization with bounds checking.  Decoders never trust
 *    stored bytes: a short, corrupt or inconsistent payload fails
 *    decode and the caller recomputes (see serialize.hh).
 *
 *  - ResultCache: one in-memory map behind one mutex, optionally
 *    backed by one on-disk store file (`DIR/results.bin`, read once
 *    by the constructor, appended on store).  A corrupt, truncated
 *    or version-mismatched record/file is treated as a miss, never
 *    an error and never a wrong result.  exportTo()/importFrom()
 *    move entries through standalone shard files, which is what
 *    `penelope_bench --shard i/N` / `--merge` build on.  A store
 *    file, a shard file and a wire entry stream share one format:
 *    a header, then checksummed records.
 */

#ifndef PENELOPE_CORE_RESULTCACHE_HH
#define PENELOPE_CORE_RESULTCACHE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace penelope {

/**
 * Code-version salt mixed into every cache key.  Bump the trailing
 * version whenever simulator behaviour or a payload codec changes:
 * old entries (in-memory, --cache-dir stores and shard files alike)
 * then miss instead of resurrecting stale statistics.
 */
inline constexpr std::string_view kResultCacheSalt =
    "penelope-result-cache-v1";

/** 128-bit content hash. */
struct Hash128
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool operator==(const Hash128 &) const = default;
};

/** Hasher for unordered containers keyed by Hash128. */
struct Hash128Hasher
{
    std::size_t
    operator()(const Hash128 &h) const
    {
        // The key is already a high-quality hash; fold the halves.
        return static_cast<std::size_t>(h.lo ^ (h.hi * 0x9e3779b97f4a7c15ULL));
    }
};

/** MurmurHash3 x64/128 of a byte buffer (the key digest). */
Hash128 murmur3_128(const void *data, std::size_t len,
                    std::uint64_t seed = 0);

/**
 * Accumulates key material and digests it into a Hash128.
 *
 * Every append is framed (a one-byte type tag, and a length prefix
 * for strings) so distinct field sequences can never collide by
 * concatenation.  Construction appends kResultCacheSalt and the
 * domain string, so two computation kinds sharing parameter values
 * still key apart.
 */
class CacheKeyBuilder
{
  public:
    explicit CacheKeyBuilder(std::string_view domain);

    CacheKeyBuilder &u64(std::uint64_t value);
    CacheKeyBuilder &u32(std::uint32_t value);
    CacheKeyBuilder &b(bool value);
    CacheKeyBuilder &f64(double value); ///< exact bit pattern
    CacheKeyBuilder &str(std::string_view s);

    Hash128 digest() const;

  private:
    void tag(std::uint8_t t);
    void raw64(std::uint64_t value);

    std::vector<std::uint8_t> bytes_;
};

/** Endian-fixed (little-endian) payload writer. */
class ByteWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        bytes_.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    bytes(const void *data, std::size_t size)
    {
        bytes_.append(static_cast<const char *>(data), size);
    }

    const std::string &data() const { return bytes_; }
    std::string_view view() const { return bytes_; }

  private:
    std::string bytes_;
};

/**
 * Bounds-checked little-endian payload reader.  Reads past the end
 * clear ok() and return zero; decoders check ok() && atEnd() (and
 * their own semantic invariants) before trusting anything.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

    std::uint8_t
    u8()
    {
        if (pos_ >= bytes_.size()) {
            ok_ = false;
            return 0;
        }
        return static_cast<std::uint8_t>(bytes_[pos_++]);
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(u8()) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(u8()) << (8 * i);
        return v;
    }

    double f64() { return std::bit_cast<double>(u64()); }

    /** View of the next @p n raw bytes (empty view on underflow). */
    std::string_view
    bytesView(std::size_t n)
    {
        if (bytes_.size() - pos_ < n) {
            ok_ = false;
            return {};
        }
        const std::string_view v = bytes_.substr(pos_, n);
        pos_ += n;
        return v;
    }

    bool ok() const { return ok_; }
    bool atEnd() const { return pos_ == bytes_.size(); }

    /** Current read offset (record framing uses this to find the
     *  last intact record of a damaged store file). */
    std::size_t pos() const { return pos_; }

    /** Mark the payload semantically invalid (decoder-side). */
    void fail() { ok_ = false; }

  private:
    std::string_view bytes_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * The content-addressed store: Hash128 key -> payload bytes.
 *
 * Thread-safe under one mutex (the engine looks up and stores from
 * worker threads).  A `--all --stride 4 --uops 10000 --jobs 4` run
 * spends about 20 ms of its ~4 s of thread time in lookup() and
 * store(), waiting for the lock included.
 */
class ResultCache
{
  public:
    /** On-disk format version (files with any other version are
     *  ignored wholesale, i.e.\ every lookup misses). */
    static constexpr std::uint32_t kFormatVersion = 1;

    /**
     * @param dir directory for the persistent store ("" = memory
     *        only).  Created if missing; an uncreatable directory
     *        degrades to memory-only operation (a cache must never
     *        turn a run into an error).  An existing store file is
     *        read here, once.
     */
    explicit ResultCache(std::string dir = {});
    ~ResultCache();

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** Fetch the payload for @p key; false = miss. */
    bool lookup(const Hash128 &key, std::string &payload);

    /** Insert @p payload under @p key (and append it to the store
     *  file when a directory is attached).  First write wins;
     *  identical keys always carry identical payloads. */
    void store(const Hash128 &key, std::string_view payload);

    /** Write every in-memory entry to one standalone shard file
     *  (same record format as the store file).  Returns false
     *  when the file cannot be written. */
    bool exportTo(const std::string &path);

    /** Load a shard file's entries into memory.  Corrupt or
     *  truncated tails are dropped silently; returns false only
     *  when the file cannot be opened or has a foreign header. */
    bool importFrom(const std::string &path);

    /** Serialize every in-memory entry into @p out in the shard
     *  file format (header + records).  This is the merge-ready
     *  byte stream `--shard` writes to disk and the networked
     *  coordinator/worker protocol carries over the wire. */
    void exportToBytes(std::string &out);

    /**
     * Delta variant: serialize only the entries whose key is not in
     * @p already, and add every exported key to @p already.  The
     * worker protocol uses this to resend, per connection, only
     * what the coordinator has not acknowledged yet (a received
     * Result on a live connection is the acknowledgement, and
     * duplicates deduplicate on import).
     */
    void exportNewEntries(
        std::unordered_set<Hash128, Hash128Hasher> &already,
        std::string &out);

    /** Serialized size of exportToBytes() without building it
     *  (accounting: what a full resend would have cost). */
    std::size_t exportByteSize();

    /** Import entries from a shard-format byte buffer: the memory
     *  side of importFrom(), with the same contract (corrupt or
     *  truncated tails dropped, duplicate keys deduplicated
     *  first-write-wins, false only on a foreign header). */
    bool importFromBytes(std::string_view bytes);

    /**
     * Append every entry that is not yet in the attached store file
     * to it.  store() persists as it goes, but
     * imported entries (importFrom/importFromBytes -- the
     * coordinator's collected worker results) live in memory only;
     * a coordinator stopped before its render flushes them, so a
     * rerun with the same store serves them warm.  No-op without a
     * directory.  Returns the
     * number of entries appended.
     */
    std::size_t flushToDisk();

    /**
     * Garbage-collect the store: drop every entry that has not
     * been touched (looked up or stored) in this process, and
     * compact the attached store file down to the survivors.
     *
     * Keys are opaque content hashes -- a stale salt or option
     * digest cannot be recognised from the key bits -- so liveness
     * is established by replay: run the workload first (a warm run
     * touches exactly the entries the current code and options can
     * ever produce keys for; entries keyed by a retired salt or an
     * options mix that no longer occurs are never looked up), then
     * compact.  `penelope_bench --cache-gc` wraps exactly that
     * sequence.  Returns the number of entries dropped.
     *
     * Two caveats follow from liveness-by-replay: (1) the kept set
     * is what *this process* replayed -- GC after a partial
     * workload (a subset of experiments, or a `--shard` slice)
     * drops other workloads' still-valid entries, so compact a
     * shared store only after the full workload; and (2) the
     * rewrite replaces the file wholesale, so unlike the
     * append-only store/lookup paths it must not run concurrently
     * with other *writer processes* on the same directory (their
     * in-flight appends would land in the replaced file).  GC is a
     * maintenance pass; run it alone.
     */
    std::size_t compact();

    /** Number of entries currently in memory. */
    std::size_t size();

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
        std::uint64_t decodeFailures = 0; ///< payload failed decode
        std::uint64_t badRecords = 0;     ///< dropped while loading
    };

    Stats stats();

    /** Count a payload that was present but failed to decode (the
     *  engine recomputes; see Engine::mapCached). */
    void noteDecodeFailure();

  private:
    /** One cached payload plus its GC mark: an entry is live once
     *  this process has looked it up or stored it (see compact()).
     *  onDisk tracks whether the store file already holds the
     *  record (loads and store() appends do; imports do not until
     *  flushToDisk()). */
    struct Entry
    {
        std::string payload;
        bool live = false;
        bool onDisk = false;
    };

    /** Append one record to file_ (non-null); false, with the file
     *  detached, on a short write. */
    bool appendRecord(const Hash128 &key, std::string_view payload);

    std::string path_; ///< store file ("" = memory only)
    std::mutex mutex_;
    std::unordered_map<Hash128, Entry, Hash128Hasher> map_;
    /** Append stream (null when memory-only, or when the store file
     *  is foreign or unwritable). */
    std::FILE *file_ = nullptr;
    Stats stats_;
};

} // namespace penelope

#endif // PENELOPE_CORE_RESULTCACHE_HH
