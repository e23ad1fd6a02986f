#include "obs/trace.hh"

#include <cstdio>
#include <mutex>

namespace penelope {
namespace obs {
namespace {

struct TracerState
{
    std::mutex mutex;
    std::FILE *file = nullptr;
    std::atomic<std::uint32_t> nextTid{1};
};

TracerState &
tracerState()
{
    static TracerState s;
    return s;
}

/** Small dense per-thread id for the "tid" field. */
[[maybe_unused]] std::uint32_t
threadTid()
{
    static thread_local std::uint32_t tid = 0;
    if (tid == 0)
        tid = tracerState().nextTid.fetch_add(
            1, std::memory_order_relaxed);
    return tid;
}

/** Defensive label escape: drop anything that would need JSON
 *  escaping (labels are compile-time-ish identifiers). */
[[maybe_unused]] void
appendEscaped(std::string &out, std::string_view s)
{
    for (const char c : s) {
        if (c == '"' || c == '\\' || static_cast<unsigned char>(c)
                                         < 0x20)
            continue;
        out.push_back(c);
    }
}

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer t;
    return t;
}

bool
Tracer::open(const std::string &path, std::string *error)
{
    TracerState &s = tracerState();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.file != nullptr) {
        if (error != nullptr)
            *error = "trace already open";
        return false;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        if (error != nullptr)
            *error = "cannot open trace file: " + path;
        return false;
    }
    std::fputs("[\n", f);
    s.file = f;
    active_.store(true, std::memory_order_relaxed);
    return true;
}

void
Tracer::close()
{
    TracerState &s = tracerState();
    std::lock_guard<std::mutex> lock(s.mutex);
    active_.store(false, std::memory_order_relaxed);
    if (s.file == nullptr)
        return;
    // The `{}` sentinel absorbs the previous line's trailing
    // comma, closing the array into strictly valid JSON.
    std::fputs("{}\n]\n", s.file);
    std::fclose(s.file);
    s.file = nullptr;
}

void
Tracer::complete(std::string_view name, std::string_view cat,
                 std::uint64_t ts_us, std::uint64_t dur_us)
{
#ifdef PENELOPE_NO_OBS
    (void)name;
    (void)cat;
    (void)ts_us;
    (void)dur_us;
#else
    if (!active())
        return;
    const std::uint32_t tid = threadTid();
    std::string line;
    line.reserve(96 + name.size() + cat.size());
    line += "{\"name\":\"";
    appendEscaped(line, name);
    line += "\",\"cat\":\"";
    appendEscaped(line, cat);
    line += "\",\"ph\":\"X\",\"ts\":";
    line += std::to_string(ts_us);
    line += ",\"dur\":";
    line += std::to_string(dur_us);
    line += ",\"pid\":1,\"tid\":";
    line += std::to_string(tid);
    line += "},\n";

    TracerState &s = tracerState();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.file == nullptr)
        return;
    std::fwrite(line.data(), 1, line.size(), s.file);
#endif
}

} // namespace obs
} // namespace penelope
