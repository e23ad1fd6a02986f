/**
 * @file
 * The parallel experiment engine: fans per-trace simulation work
 * across a thread pool and folds per-trace results in trace order.
 *
 * The contract that makes every experiment deterministic
 * independently of the worker count:
 *
 *  1. each trace index gets a self-contained simulation (own
 *     models, own Rng seeded by mixSeed(seed, trace index));
 *  2. per-trace results are written into a slot reserved for that
 *     trace, never into a shared accumulator;
 *  3. after the parallel phase the caller merges the slots in
 *     trace order on the calling thread.
 *
 * Given 1-3, `--jobs N` produces bit-identical statistics to
 * `--jobs 1` for any N.
 *
 * Both entry points put a content-addressed result layer in front
 * of the simulation: each per-trace slot is looked up in a
 * ResultCache before simulating and stored after.  Because a key identifies the computation
 * completely (see resultcache.hh) and a hit deserializes the exact
 * bytes a previous identical computation produced, the trace-order
 * merge -- and therefore every printed statistic -- is bit-identical
 * with a cold cache, a warm cache, or (for library callers that pass
 * none; the CLI always passes its run-scoped memo) no cache at all.
 *
 * mapCached() runs one computation per trace.  streamCached() is
 * the streamed pass for simulations that replay a trace: each trace
 * carries several result slots (say a register file with ISV off
 * and on), each with its own key.  One task per trace looks every
 * distinct key up and, if some missed, asks the caller for one
 * *pass* over the missing slots: a single object that simulates all
 * of them, typically on one shared replay timeline (SchedulerPass,
 * RegFilePass, the Table-3 miss streams).  The task generates the
 * trace once, in kFeedChunk chunks, feeds every chunk to the pass,
 * and stores the result the pass returns for each missing slot.
 * A pass seeds any Rng it draws from the item alone, as a
 * one-slot run would, and sees exactly the uop sequence a private
 * generator would have produced.  So where no slot's simulation
 * depends on which other slots share its pass (the replay timelines
 * depend on no arm), a slot's result -- and its cached payload --
 * is bit-identical to running that slot alone.  Whole traces are
 * never materialised.
 */

#ifndef PENELOPE_CORE_ENGINE_HH
#define PENELOPE_CORE_ENGINE_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/threadpool.hh"
#include "core/resultcache.hh"
#include "obs/metrics.hh"
#include "trace/generator.hh"

namespace penelope {

/**
 * Runs trace-shaped work in parallel.  A thin, copyable handle:
 * with a shared ThreadPool attached every parallel region reuses
 * the resident workers; without one a pool lives only for the
 * duration of each call.
 */
class Engine
{
  public:
    explicit Engine(unsigned jobs = 1, ThreadPool *pool = nullptr)
        : jobs_(jobs ? jobs : 1), pool_(pool)
    {
    }

    /**
     * Materialise fn(item, slot) for every item, in parallel, with
     * a content-addressed cache in front of fn; results are
     * returned in item order.  fn must be pure in the engine sense:
     * no shared mutable state.
     *
     * keyOf(item, slot) must return a Hash128 covering everything
     * that determines fn's result (the ResultCache key contract);
     * R must have encodeResult/decodeResult codecs (serialize.hh).
     * On a hit the stored payload is decoded into the slot; a miss
     * -- including a payload that fails to decode -- simulates and
     * stores.  With a null cache every slot misses.  Items with
     * equal keys simulate once: only the first of them is looked up
     * (and simulated on a miss), and the rest copy its result, so
     * the cache's hit/miss split is the same for any job count.
     */
    template <class R, class Items, class KeyFn, class Fn>
    std::vector<R>
    mapCached(const Items &items, ResultCache *cache, KeyFn &&keyOf,
              Fn &&fn) const
    {
        std::vector<Hash128> keys(items.size());
        std::vector<std::size_t> first(items.size());
        std::vector<std::size_t> distinct;
        std::unordered_map<Hash128, std::size_t, Hash128Hasher> seen;
        for (std::size_t k = 0; k < items.size(); ++k) {
            keys[k] = keyOf(items[k], k);
            const auto [it, fresh] = seen.emplace(keys[k], k);
            first[k] = it->second;
            if (fresh)
                distinct.push_back(k);
        }
        std::vector<R> out(items.size());
        parallelFor(
            distinct.size(), jobs_,
            [&](std::size_t d) {
                PENELOPE_OBS_COUNTER("engine.tasks", "1").add();
                const std::size_t k = distinct[d];
                if (lookup(cache, keys[k], out[k]))
                    return;
                out[k] = fn(items[k], k);
                store(cache, keys[k], out[k]);
            },
            pool_);
        for (std::size_t k = 0; k < items.size(); ++k) {
            if (first[k] != k)
                out[k] = out[first[k]];
        }
        return out;
    }

    /**
     * One streamed pass per item for @p num_slots result slots (see
     * the file comment); results are returned as [slot][item].
     *
     * keyOf(item, slot) follows the mapCached() key contract; slots
     * with equal keys simulate once.  When some of an item's distinct
     * keys miss, passOf(item, missing) is called once with the
     * missing slots in slot order and returns one pass with
     * feed(const Uop *, n) and results(), which returns a
     * std::vector<R> holding one result per missing slot, in that
     * order.  sourceOf(item) returns the uop source (anything with
     * `Uop next()`), of which @p num_uops are streamed to the pass.
     * An item whose keys all hit builds no pass and no source.
     */
    template <class R, class Items, class KeyFn, class SourceFn,
              class PassFn>
    std::vector<std::vector<R>>
    streamCached(const Items &items, std::size_t num_slots,
                 std::size_t num_uops, ResultCache *cache,
                 KeyFn &&keyOf, SourceFn &&sourceOf,
                 PassFn &&passOf) const
    {
        std::vector<std::vector<R>> out(num_slots,
                                        std::vector<R>(items.size()));
        parallelFor(
            items.size(), jobs_,
            [&](std::size_t k) {
                PENELOPE_OBS_COUNTER("engine.tasks", "1").add();
                std::vector<Hash128> keys(num_slots);
                std::vector<std::size_t> first(num_slots);
                std::vector<std::size_t> missing;
                for (std::size_t s = 0; s < num_slots; ++s) {
                    keys[s] = keyOf(items[k], s);
                    first[s] = static_cast<std::size_t>(
                        std::find(keys.begin(), keys.end(), keys[s]) -
                        keys.begin());
                    if (first[s] == s &&
                        !lookup(cache, keys[s], out[s][k]))
                        missing.push_back(s);
                }
                if (!missing.empty()) {
                    auto pass = passOf(items[k], missing);
                    auto source = sourceOf(items[k]);
                    streamChunks(source, num_uops,
                                 [&](const Uop *uops, std::size_t n) {
                                     pass.feed(uops, n);
                                 });
                    std::vector<R> results = pass.results();
                    assert(results.size() == missing.size());
                    for (std::size_t m = 0; m < missing.size(); ++m) {
                        R &slot = out[missing[m]][k];
                        slot = std::move(results[m]);
                        store(cache, keys[missing[m]], slot);
                    }
                }
                for (std::size_t s = 0; s < num_slots; ++s)
                    if (first[s] != s)
                        out[s][k] = out[first[s]][k];
            },
            pool_);
        return out;
    }

  private:
    /** Decode @p key's cached payload into @p out; false on a miss
     *  or a payload that fails to decode (counted, then a miss). */
    template <class R>
    static bool
    lookup(ResultCache *cache, const Hash128 &key, R &out)
    {
        std::string payload;
        if (!cache || !cache->lookup(key, payload))
            return false;
        ByteReader reader(payload);
        R value{};
        if (decodeResult(reader, value) && reader.atEnd()) {
            out = std::move(value);
            return true;
        }
        cache->noteDecodeFailure();
        return false;
    }

    template <class R>
    static void
    store(ResultCache *cache, const Hash128 &key, const R &value)
    {
        if (!cache)
            return;
        ByteWriter writer;
        encodeResult(writer, value);
        cache->store(key, writer.view());
    }

    unsigned jobs_;
    ThreadPool *pool_;
};

} // namespace penelope

#endif // PENELOPE_CORE_ENGINE_HH
