/**
 * @file
 * Shared plumbing of the benchmark driver: command-line options, the
 * result every workload returns, host clocks and small statistics.
 *
 * Vocabulary kept apart throughout: "telemetry" is the program's own
 * obs feature (part of a workload); "layer trace" is the benchmark's
 * own timers around calls into each module (the --trace 1 run).
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/metrics.hpp"

namespace perfbench {

/** Deliberately wrong outputs the self-test injects into a check. */
enum class Inject {
    None,
    Metrics,  ///< flip one Metrics field of one simulator run
    Snapshot, ///< corrupt one byte of one fleet snapshot
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny inputs, for the self-test only. */
    bool smoke = false;
    Inject inject = Inject::None;
    /** Directory holding the committed scenario files. */
    std::string scenarios = "scenarios";
    /** Worker threads: min(4, hardware threads). */
    unsigned jobs = 1;
};

/** One named, unit-carrying number of the final JSON line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload reports: its checks and its metrics. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

Result runPaperSweep(const Options &options);
Result runBacklogTraced(const Options &options);
Result runFleetDay(const Options &options);

/** Monotonic host clock in seconds. */
inline double
hostSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * How much slower the host runs right now than the reference host:
 * the wall time of a fixed integer kernel on `jobs` threads, divided
 * by its time on the reference host (1.0 there; 2.0 at half speed).
 *
 * The shared VMs this benchmark runs on drift between speed phases of
 * up to 2x that last tens of seconds, longer than a run. On the
 * CPU-bound workloads (paper-sweep, fleet-day) the end-to-end times
 * (setup_s, device_days_per_s) are therefore measured per rep next to
 * this kernel and reported at reference host speed: a run in a slow
 * phase reads what it would on the reference host, and only a change
 * in the program moves the number.
 */
double hostSlowdown(unsigned jobs);

/** Median of the samples (0 when empty). */
double median(std::vector<double> samples);

/** Nearest-rank percentile, p in [0, 100] (0 when empty). */
double percentile(std::vector<double> samples, double p);

/** Peak resident set (VmHWM) of this process, in MiB. */
double peakRssMb();

/** Simulated device-days covered by a run's simulated time. */
double deviceDays(const quetzal::sim::Metrics &m);

/** Field-for-field equality of two runs' metrics. */
bool sameMetrics(const quetzal::sim::Metrics &a,
                 const quetzal::sim::Metrics &b);

/** The injected wrong output: one counter off by one. */
void flipOneField(quetzal::sim::Metrics &m);

/**
 * Redirect the process's stdout (the program's report writers print
 * there) to /dev/null or stderr for the guard's lifetime, so the
 * driver's own stdout carries only the final JSON line.
 */
class StdoutRedirect
{
  public:
    enum class To { Null, Stderr };
    explicit StdoutRedirect(To to);
    ~StdoutRedirect();
    StdoutRedirect(const StdoutRedirect &) = delete;
    StdoutRedirect &operator=(const StdoutRedirect &) = delete;

  private:
    int saved = -1;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
