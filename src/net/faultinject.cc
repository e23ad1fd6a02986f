#include "faultinject.hh"

#include <cstdlib>

#include "core/resultcache.hh"
#include "obs/metrics.hh"

namespace penelope {
namespace net {

namespace {

/** Fired-vs-passed decision accounting: fault activity must be
 *  visible, not only survivable. */
struct FaultMetrics
{
    obs::Counter passed;
    obs::Counter firedDrop, firedFlip, firedTruncate;
    obs::Counter firedHalfClose, firedDelay, firedStall;

    FaultMetrics()
    {
        auto &reg = obs::Registry::instance();
        passed = reg.counter("net.fault.passed");
        firedDrop = reg.counter("net.fault.fired.drop");
        firedFlip = reg.counter("net.fault.fired.flip");
        firedTruncate = reg.counter("net.fault.fired.truncate");
        firedHalfClose = reg.counter("net.fault.fired.halfclose");
        firedDelay = reg.counter("net.fault.fired.delay");
        firedStall = reg.counter("net.fault.fired.stall");
    }
};

const FaultMetrics g_faultMetrics{};

/** Deterministic draw stream for one (conn, op) pair: @p lane
 *  separates independent decisions taken for the same operation. */
std::uint64_t
drawBits(const FaultConfig &config, std::uint64_t conn_id,
         std::uint64_t op_index, std::uint64_t lane)
{
    const std::uint64_t key[3] = {conn_id, op_index, lane};
    return murmur3_128(key, sizeof(key), config.seed).lo;
}

double
drawUnit(const FaultConfig &config, std::uint64_t conn_id,
         std::uint64_t op_index, std::uint64_t lane)
{
    return static_cast<double>(
               drawBits(config, conn_id, op_index, lane) >> 11) *
        0x1.0p-53;
}

bool
parseUnitProb(std::string_view text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const std::string copy(text);
    const double value = std::strtod(copy.c_str(), &end);
    if (!end || *end != '\0' || !(value >= 0.0) || !(value <= 1.0))
        return false;
    out = value;
    return true;
}

bool
parseU64(std::string_view text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t digit =
            static_cast<std::uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

} // namespace

bool
FaultConfig::active() const
{
    return dropP > 0.0 || flipP > 0.0 || truncateP > 0.0 ||
        halfCloseP > 0.0 || delayP > 0.0 || stallAfterOps > 0;
}

bool
FaultConfig::parse(std::string_view spec, FaultConfig &out,
                   std::string *error)
{
    const auto fail = [&](std::string_view what) {
        if (error)
            *error = "fault spec: bad field '" +
                std::string(what) + "'";
        return false;
    };

    FaultConfig parsed;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string_view::npos)
            comma = spec.size();
        const std::string_view field =
            spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (field.empty())
            continue;

        const std::size_t eq = field.find('=');
        if (eq == std::string_view::npos)
            return fail(field);
        const std::string_view key = field.substr(0, eq);
        const std::string_view value = field.substr(eq + 1);

        std::uint64_t n = 0;
        if (key == "seed") {
            if (!parseU64(value, n))
                return fail(field);
            parsed.seed = n;
        } else if (key == "drop") {
            if (!parseUnitProb(value, parsed.dropP))
                return fail(field);
        } else if (key == "flip") {
            if (!parseUnitProb(value, parsed.flipP))
                return fail(field);
        } else if (key == "truncate") {
            if (!parseUnitProb(value, parsed.truncateP))
                return fail(field);
        } else if (key == "halfclose") {
            if (!parseUnitProb(value, parsed.halfCloseP))
                return fail(field);
        } else if (key == "delay") {
            // P:MS (MS optional, defaults to 20).
            const std::size_t colon = value.find(':');
            const std::string_view prob =
                value.substr(0, colon == std::string_view::npos
                                    ? value.size()
                                    : colon);
            if (!parseUnitProb(prob, parsed.delayP))
                return fail(field);
            if (colon != std::string_view::npos) {
                if (!parseU64(value.substr(colon + 1), n) ||
                    n == 0 || n > 60'000)
                    return fail(field);
                parsed.delayMs = static_cast<int>(n);
            }
        } else if (key == "stall-after") {
            if (!parseU64(value, n))
                return fail(field);
            parsed.stallAfterOps = n;
        } else if (key == "stall-ms") {
            if (!parseU64(value, n) || n == 0 || n > 600'000)
                return fail(field);
            parsed.stallMs = static_cast<int>(n);
        } else {
            return fail(field);
        }
    }

    // The combined per-op fault probability must leave room for
    // the no-fault outcome, or no frame ever arrives intact.
    const double sum = parsed.dropP + parsed.flipP +
        parsed.truncateP + parsed.halfCloseP;
    if (sum > 0.9) {
        if (error)
            *error = "fault spec: drop+flip+truncate+halfclose "
                     "must sum to <= 0.9";
        return false;
    }

    out = parsed;
    return true;
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::configure(const FaultConfig &config)
{
    config_ = config;
    enabled_.store(config.active(), std::memory_order_release);
}

void
FaultInjector::disable()
{
    enabled_.store(false, std::memory_order_release);
}

FaultAction
FaultInjector::sendAction(std::uint64_t conn_id,
                          std::uint64_t op_index,
                          std::size_t frameBytes,
                          std::size_t &cut)
{
    if (!enabled())
        return FaultAction::None;

    if (config_.stallAfterOps &&
        op_index >= config_.stallAfterOps)
        return FaultAction::Stall;

    const double u = drawUnit(config_, conn_id, op_index, 0);
    double edge = config_.dropP;
    if (u < edge)
        return FaultAction::Drop;
    edge += config_.flipP;
    if (u < edge && frameBytes > 0) {
        // Flip inside the frame; the checksum (or magic/type
        // validation) catches it on the peer.
        cut = static_cast<std::size_t>(
            drawBits(config_, conn_id, op_index, 1) % frameBytes);
        return FaultAction::Flip;
    }
    edge += config_.truncateP;
    if (u < edge && frameBytes > 1) {
        cut = 1 +
            static_cast<std::size_t>(
                drawBits(config_, conn_id, op_index, 2) %
                (frameBytes - 1));
        return FaultAction::Truncate;
    }
    edge += config_.halfCloseP;
    if (u < edge)
        return FaultAction::HalfClose;
    edge += config_.delayP;
    if (u < edge)
        return FaultAction::Delay;
    return FaultAction::None;
}

FaultAction
FaultInjector::recvAction(std::uint64_t conn_id,
                          std::uint64_t op_index)
{
    if (!enabled())
        return FaultAction::None;
    // Lane 3: independent of the peer's send-side draws.
    if (drawUnit(config_, conn_id, op_index, 3) < config_.delayP)
        return FaultAction::Delay;
    return FaultAction::None;
}

void
FaultInjector::note(FaultAction action)
{
    switch (action) {
      case FaultAction::Drop:
        ++drops_;
        g_faultMetrics.firedDrop.add();
        break;
      case FaultAction::Flip:
        ++flips_;
        g_faultMetrics.firedFlip.add();
        break;
      case FaultAction::Truncate:
        ++truncates_;
        g_faultMetrics.firedTruncate.add();
        break;
      case FaultAction::HalfClose:
        ++halfCloses_;
        g_faultMetrics.firedHalfClose.add();
        break;
      case FaultAction::Delay:
        ++delays_;
        g_faultMetrics.firedDelay.add();
        break;
      case FaultAction::Stall:
        ++stalls_;
        g_faultMetrics.firedStall.add();
        break;
      case FaultAction::None:
        g_faultMetrics.passed.add();
        break;
    }
}

FaultStats
FaultInjector::stats() const
{
    FaultStats s;
    s.drops = drops_.load();
    s.flips = flips_.load();
    s.truncates = truncates_.load();
    s.halfCloses = halfCloses_.load();
    s.delays = delays_.load();
    s.stalls = stalls_.load();
    return s;
}

} // namespace net
} // namespace penelope
