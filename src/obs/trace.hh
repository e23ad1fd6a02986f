/**
 * @file
 * Span tracer emitting Chrome `trace_event` JSON (one event per
 * line), loadable by Perfetto / chrome://tracing.
 *
 * The file is a JSON array written incrementally: the opening
 * `[` on its own line, then one complete-event object (`"ph":"X"`)
 * per line with a trailing comma, and on clean close a final `{}`
 * sentinel plus `]` -- so a closed trace is *strictly valid JSON*
 * (jq-parseable, CI asserts it) while a crashed run still leaves
 * a file the Chrome trace importer accepts (it tolerates the
 * missing terminator).
 *
 * Every timestamp comes from the one process-wide monotonic clock
 * (obs::monotonicMicros), so spans from the coordinator handler
 * threads, the worker replay, and cache I/O all line up on a
 * shared axis.  Thread ids are small dense integers assigned per
 * thread on first emission.
 *
 * Cost discipline matches the metrics registry: inactive tracer =
 * one relaxed bool per span site; PENELOPE_NO_OBS compiles span
 * bodies out entirely (open/close stay, producing a valid empty
 * trace so the CLI surface keeps working).
 */

#ifndef PENELOPE_OBS_TRACE_HH
#define PENELOPE_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hh"

namespace penelope {
namespace obs {

class Tracer
{
  public:
    static Tracer &instance();

    /** Open @p path and write the array header; enables span
     *  emission.  False (with @p error filled) on I/O failure. */
    bool open(const std::string &path, std::string *error);

    /** Write the close sentinel and `]`, flush, disable emission.
     *  Idempotent; safe with no open() ever. */
    void close();

    bool
    active() const
    {
        return active_.load(std::memory_order_relaxed);
    }

    /** Emit one complete event: [ts, ts+dur) microseconds on the
     *  shared monotonic clock.  @p name and @p cat must be plain
     *  ASCII without quotes/backslashes (they are event labels,
     *  not user data; a defensive escape is applied anyway). */
    void complete(std::string_view name, std::string_view cat,
                  std::uint64_t ts_us, std::uint64_t dur_us);

  private:
    Tracer() = default;
    std::atomic<bool> active_{false};
};

/** RAII span: stamps begin at construction, emits a complete
 *  event at destruction.  Inactive tracer: one relaxed load. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string_view name,
                        std::string_view cat = "penelope")
    {
#ifndef PENELOPE_NO_OBS
        if (Tracer::instance().active()) {
            name_ = name;
            cat_ = cat;
            begin_ = monotonicMicros();
            armed_ = true;
        }
#else
        (void)name;
        (void)cat;
#endif
    }

    ~ScopedSpan()
    {
#ifndef PENELOPE_NO_OBS
        if (armed_) {
            const std::uint64_t end = monotonicMicros();
            Tracer::instance().complete(
                name_, cat_, begin_,
                end > begin_ ? end - begin_ : 0);
        }
#endif
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
#ifndef PENELOPE_NO_OBS
    std::string_view name_;
    std::string_view cat_;
    std::uint64_t begin_ = 0;
    bool armed_ = false;
#endif
};

} // namespace obs
} // namespace penelope

#endif // PENELOPE_OBS_TRACE_HH
