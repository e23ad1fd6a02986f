/**
 * @file
 * Self-tests of the benchmark harness.
 *
 *   perfbench_selftest BENCHMARK_JSON OUT_DIR
 *
 * Checks that the digest check fires on a perturbed output, that
 * metric names are well formed (including every name listed in
 * BENCHMARK_JSON), that summaries carry their sample counts and
 * match Python's statistics.quantiles, that an untraced experiment
 * run notices observability being on, and that span arithmetic
 * makes experiment spans plus the unattributed remainder add up to
 * the iteration.  Exits 0 when every check passes.
 */

#include <cmath>
#include <fstream>
#include <iostream>
#include <regex>
#include <sstream>
#include <thread>

#include "core/registry.hh"
#include "harness.hh"
#include "obs/metrics.hh"
#include "trace/workload.hh"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                    \
    do {                                                               \
        if (!(cond)) {                                                 \
            std::cerr << __FILE__ << ":" << __LINE__                   \
                      << ": check failed: " #cond "\n";                \
            ++g_failures;                                              \
        }                                                              \
    } while (0)

bool
near(double a, double b)
{
    return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b));
}

void
digestChecks()
{
    const std::string out = "Figure 5: adder guardband\n  7.4%\n";
    const std::string pinned = digestHex(out);
    CHECK(pinned.size() == 32);
    CHECK(checkDigest(digestHex(out), &pinned, nullptr).ok);
    CHECK(checkDigest(digestHex(out), &pinned, &pinned).ok);

    std::string perturbed = out;
    perturbed[perturbed.size() - 3] = '5'; // 7.4% -> 7.5%
    CHECK(!checkDigest(digestHex(perturbed), &pinned, nullptr).ok);
    CHECK(!checkDigest(digestHex(out + "\n"), nullptr, &pinned).ok);
    CHECK(!checkDigest(digestHex(""), &pinned, nullptr).ok);
}

void
pinnedFileChecks(const std::string &dir)
{
    const std::string path = dir + "/selftest-pins.txt";
    std::ofstream(path) << "# comment\ncatalog-cold fig1 "
                        << digestHex("x") << "\n";
    PinnedDigests pins;
    std::string error;
    CHECK(pins.load(path, &error));
    CHECK(pins.find("catalog-cold", "fig1") &&
          *pins.find("catalog-cold", "fig1") == digestHex("x"));
    CHECK(!pins.find("catalog-cold", "fig3"));

    std::ofstream(path) << "catalog-cold fig1\n";
    PinnedDigests broken;
    CHECK(!broken.load(path, &error));
}

void
nameChecks(const std::string &benchmark_json)
{
    CHECK(validMetricName("exp.attack-search_s"));
    CHECK(validMetricName("setup_s"));
    CHECK(!validMetricName(""));
    CHECK(!validMetricName("iter s"));
    CHECK(!validMetricName(".hidden"));
    CHECK(!validMetricName("a/b"));
    CHECK(!validMetricName(std::string(65, 'a')));

    std::string error;
    MetricSet bad;
    bad.add("a b", "s", 1.0);
    CHECK(!bad.wellFormed(&error));
    MetricSet dup;
    dup.add("x", "s", 1.0);
    dup.add("x", "s", 2.0);
    CHECK(!dup.wellFormed(&error));
    MetricSet nan;
    nan.add("x", "s", std::nan(""));
    CHECK(!nan.wellFormed(&error));
    MetricSet good;
    good.add("iter_s", "s", 1.25);
    CHECK(good.wellFormed(&error));
    CHECK(good.json() == "{\"iter_s\": {\"value\": 1.25, \"unit\": \"s\"}}");

    // Every name BENCHMARK.json lists (workloads and metrics).
    std::ifstream in(benchmark_json);
    std::stringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]*)\"");
    unsigned names = 0;
    for (auto it = std::sregex_iterator(s.begin(), s.end(), name_re);
         it != std::sregex_iterator(); ++it) {
        ++names;
        if (!validMetricName((*it)[1].str())) {
            std::cerr << "invalid name in " << benchmark_json << ": "
                      << (*it)[1].str() << "\n";
            ++g_failures;
        }
    }
    CHECK(names > 0);
}

void
summaryChecks()
{
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    Summary s = summarize({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    CHECK(s.count == 10);
    CHECK(near(s.median, 5.5));
    CHECK(near(s.q1, 2.75));
    CHECK(near(s.q3, 8.25));
    CHECK(describe(s).find("n=10") != std::string::npos);

    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    s = summarize({5, 1, 4, 2, 3});
    CHECK(s.count == 5 && near(s.median, 3) && near(s.q1, 1.5) &&
          near(s.q3, 4.5));

    // statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
    s = summarize({2.0, 1.0});
    CHECK(s.count == 2 && near(s.q1, 0.75) && near(s.q3, 2.25));

    s = summarize({3.0});
    CHECK(s.count == 1 && s.median == 3.0 && s.q1 == 3.0);
    CHECK(summarize({}).count == 0);
}

void
obsChecks()
{
    penelope::registerBuiltinExperiments();
    const penelope::WorkloadSet workload;
    const penelope::ExperimentOptions options;

    Iteration off;
    runExperiments({"fig1"}, workload, options, {}, off);
    CHECK(off.invariant.empty());
    CHECK(off.errors.size() == 1 && off.errors[0].empty());

    if (penelope::obs::kCompiledIn) {
        const penelope::obs::ScopedEnable on(true);
        Iteration timed;
        runExperiments({"fig1"}, workload, options, {}, timed);
        CHECK(timed.invariant == kObsOnInTimedRun);
        CHECK(timed.digests == off.digests);

        // A traced run is allowed to have it on.
        SpanRecorder spans;
        Iteration traced;
        runExperiments({"fig1"}, workload, options,
                       {&spans, -1, 1}, traced);
        CHECK(traced.invariant.empty());
        CHECK(spans.spans().size() == 1 &&
              spans.spans()[0].name == "exp.fig1");
    }
    CHECK(!penelope::obs::enabled());

    Iteration unknown;
    runExperiments({"no-such-experiment"}, workload, options, {},
                   unknown);
    CHECK(!unknown.errors[0].empty());
}

void
pause()
{
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

void
spanChecks(const std::string &dir)
{
    SpanRecorder r;
    const int root = r.begin("iteration", -1, 1);
    pause();
    const int a = r.begin("exp.a", root, 1);
    pause();
    r.end(a);
    pause();
    const int b = r.begin("exp.b", root, 1);
    const int inner = r.begin("inner", b, 1);
    pause();
    r.end(inner);
    r.end(b);
    pause();
    r.end(root);

    const double iter = r.seconds(root);
    const double sum = r.seconds(a) + r.seconds(b);
    const double unattributed = iter - r.coveredSeconds({a, b}, root);
    CHECK(unattributed > 0.0);
    CHECK(std::abs(sum + unattributed - iter) < 1e-9);
    CHECK(r.coveredSeconds({inner}, b) < r.seconds(b));
    CHECK(r.spans()[static_cast<std::size_t>(inner)].parent == b);

    // Overlapping experiment spans break the identity, which the
    // traced run reports as a failure.
    SpanRecorder o;
    const int top = o.begin("iteration", -1, 1);
    const int x = o.begin("exp.x", top, 1);
    pause();
    const int y = o.begin("exp.y", top, 1);
    pause();
    o.end(x);
    pause();
    o.end(y);
    o.end(top);
    const double o_sum = o.seconds(x) + o.seconds(y);
    const double o_un = o.seconds(top) - o.coveredSeconds({x, y}, top);
    CHECK(std::abs(o_sum + o_un - o.seconds(top)) > 1e-4);

    std::string error;
    const std::string path = dir + "/selftest-trace.json";
    CHECK(r.writeChromeTrace(path, &error));
    std::ifstream in(path);
    std::string first, line, last;
    std::getline(in, first);
    unsigned events = 0;
    while (std::getline(in, line)) {
        if (line.find("\"ph\":\"X\"") != std::string::npos)
            ++events;
        last = line;
    }
    CHECK(first == "[" && last == "]" && events == 4);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::cerr << "usage: perfbench_selftest BENCHMARK_JSON OUT_DIR\n";
        return 2;
    }
    digestChecks();
    pinnedFileChecks(argv[2]);
    nameChecks(argv[1]);
    summaryChecks();
    obsChecks();
    spanChecks(argv[2]);
    if (g_failures) {
        std::cerr << "perfbench_selftest: " << g_failures
                  << " check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench_selftest: all checks passed\n";
    return 0;
}
