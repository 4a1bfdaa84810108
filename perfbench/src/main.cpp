/**
 * @file
 * Benchmark driver entry point.
 *
 *   perfbench --workload paper-sweep|backlog-traced|fleet-day
 *             --seed N --seconds S --trace 0|1
 *             [--scenarios DIR] [--smoke] [--inject KIND]
 *
 * --trace 0 measures the end-to-end metrics with no layer timers;
 * --trace 1 runs the layer-traced passes and reports the per-layer
 * metrics. Both check every output they measure. A human-readable
 * summary goes to stderr; the last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "common.hpp"
#include "layers.hpp"
#include "timer.hpp"

namespace {

using namespace perfbench;

const std::vector<MetricName> kEndToEnd = {
    {"setup_s", "s"},
    {"device_days_per_s", "device-days/s"},
    {"peak_rss_mb", "MiB"},
    {"discard_pct", "%"},
    {"hq_share_pct", "%"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper-sweep|backlog-traced|fleet-day --seed N "
                 "--seconds S --trace 0|1 [--scenarios DIR] [--smoke] "
                 "[--inject metrics|snapshot]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    const auto number = [](const std::string &flag,
                           const std::string &text) {
        char *end = nullptr;
        const double value = std::strtod(text.c_str(), &end);
        if (text.empty() || *end != '\0' || !std::isfinite(value) ||
            value < 0)
            usage(flag + " needs a non-negative number, got '" + text +
                  "'");
        return value;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            options.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = static_cast<std::uint64_t>(number(flag, value));
        } else if (flag == "--seconds") {
            options.seconds = number(flag, value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            options.trace = value == "1";
        } else if (flag == "--scenarios") {
            options.scenarios = value;
        } else if (flag == "--inject") {
            if (value == "metrics")
                options.inject = Inject::Metrics;
            else if (value == "snapshot")
                options.inject = Inject::Snapshot;
            else
                usage("unknown --inject kind '" + value + "'");
        } else {
            usage("unknown flag '" + flag + "'");
        }
    }
    if (options.workload.empty())
        usage("--workload is required");
    const unsigned hw = std::thread::hardware_concurrency();
    options.jobs = std::clamp(hw, 1u, 4u);
    return options;
}

/**
 * Order the workload's metrics by the reported list; layers the
 * workload never reaches read 0 (no calls, no time).
 */
std::vector<Metric>
reportOrder(const Result &result, const std::vector<MetricName> &names)
{
    std::map<std::string, const Metric *> byName;
    for (const Metric &metric : result.metrics)
        byName[metric.name] = &metric;
    std::vector<Metric> ordered;
    for (const MetricName &wanted : names) {
        const auto it = byName.find(wanted.name);
        if (it != byName.end() && it->second->unit != wanted.unit) {
            std::fprintf(stderr, "perfbench: %s reported in %s, not %s\n",
                         wanted.name, it->second->unit.c_str(),
                         wanted.unit);
            std::exit(1);
        }
        ordered.push_back({wanted.name,
                           it == byName.end() ? 0.0 : it->second->value,
                           wanted.unit});
        if (it != byName.end())
            byName.erase(it);
    }
    if (!byName.empty()) {
        std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                     byName.begin()->first.c_str());
        std::exit(1);
    }
    return ordered;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);
    LayerClock::calibrate();
    Result result;
    try {
        if (options.workload == "paper-sweep")
            result = runPaperSweep(options);
        else if (options.workload == "backlog-traced")
            result = runBacklogTraced(options);
        else if (options.workload == "fleet-day")
            result = runFleetDay(options);
        else
            usage("unknown workload '" + options.workload + "'");
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }

    const std::vector<Metric> metrics =
        reportOrder(result, options.trace ? layerMetrics() : kEndToEnd);
    const bool correct = result.attempted > 0 && result.failed == 0;

    std::fprintf(stderr, "%s seed=%llu trace=%d jobs=%u\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 options.trace ? 1 : 0, options.jobs);
    for (const Metric &metric : metrics)
        std::fprintf(stderr, "  %-28s %.6g %s\n", metric.name.c_str(),
                     metric.value, metric.unit.c_str());
    std::fprintf(stderr, "  %-28s %.6g %% (%llu of %llu checked)\n",
                 "failed_pct",
                 result.attempted > 0
                     ? 100.0 * static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted)
                     : 0.0,
                 static_cast<unsigned long long>(result.failed),
                 static_cast<unsigned long long>(result.attempted));

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}
