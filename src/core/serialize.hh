/**
 * @file
 * Versioned binary codecs for the mergeable per-trace result types
 * the result cache stores (see resultcache.hh).
 *
 * Every codec writes a one-byte type tag and a one-byte payload
 * version before its fields, in explicit little-endian byte order,
 * so entries are unambiguous across machines and across format
 * evolution.  Decoders validate everything they read -- tag,
 * version, sizes, and semantic invariants such as per-bit zero-time
 * never exceeding total time -- and return false on any
 * inconsistency; the engine treats a failed decode exactly like a
 * miss and recomputes (a corrupt cache can cost time, never
 * correctness).
 *
 * The overload set is what Engine::mapCached resolves against: add
 * an encodeResult/decodeResult pair here (or next to a runner-local
 * shard type) to make a new result type cacheable.
 *
 * The key recipes below are the one place each configuration that
 * result keys cover is mixed into a CacheKeyBuilder.
 */

#ifndef PENELOPE_CORE_SERIALIZE_HH
#define PENELOPE_CORE_SERIALIZE_HH

#include <vector>

#include "adder/analysis.hh"
#include "cache/timing.hh"
#include "common/duty.hh"
#include "core/resultcache.hh"
#include "pipeline/pipeline.hh"
#include "regfile/driver.hh"
#include "regfile/regfile.hh"
#include "scheduler/scheduler.hh"

namespace penelope {

void encodeResult(ByteWriter &w, const IsvStats &v);
bool decodeResult(ByteReader &r, IsvStats &v);

void encodeResult(ByteWriter &w, const BitBiasTracker &v);
bool decodeResult(ByteReader &r, BitBiasTracker &v);

void encodeResult(ByteWriter &w, const RegFileShard &v);
bool decodeResult(ByteReader &r, RegFileShard &v);

void encodeResult(ByteWriter &w, const SchedulerStress &v);
bool decodeResult(ByteReader &r, SchedulerStress &v);

void encodeResult(ByteWriter &w, const PipelineStats &v);
bool decodeResult(ByteReader &r, PipelineStats &v);

void encodeResult(ByteWriter &w, const MemLossSample &v);
bool decodeResult(ByteReader &r, MemLossSample &v);

void encodeResult(ByteWriter &w,
                  const std::vector<OperandSample> &v);
bool decodeResult(ByteReader &r, std::vector<OperandSample> &v);

/** Mix a cache geometry into @p key: every field that can steer a
 *  simulation (the name string never does, so it is excluded). */
void keyCacheConfig(CacheKeyBuilder &key, const CacheConfig &config);

/** Mix one register-file replay setup into @p key: the file, the
 *  replay driver, whether ISV runs, and the uops per trace. */
void keyRegFileSetup(CacheKeyBuilder &key, const RegFileConfig &rf_config,
                     const RegReplayConfig &replay_config, bool isv,
                     std::size_t uops);

} // namespace penelope

#endif // PENELOPE_CORE_SERIALIZE_HH
