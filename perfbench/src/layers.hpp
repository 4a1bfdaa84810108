/**
 * @file
 * Layer-trace aggregation shared by the simulator workloads. The
 * timers themselves live where the calls are made (assemble.cpp and
 * the workload files); they accumulate in memory per run and are
 * turned into metrics here, once, after the measured loop.
 *
 * Reporting rule: counts, and ratios of counts, come from the first
 * traced rep (seed = --seed), so they are deterministic per seed and
 * catch complexity regressions on any host; times are medians (or
 * percentiles) over every traced rep.
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "assemble.hpp"
#include "common.hpp"

namespace perfbench {

/** Set-up layers of one rep: scenario, trace and energy builds. */
struct SetupTrace
{
    double seconds = 0.0; ///< whole set-up, wall
    double loadMs = 0.0;
    double compileMs = 0.0;
    double eventsMs = 0.0;
    double powerMs = 0.0;
    std::uint64_t events = 0;   ///< sensing events generated
    std::uint64_t segments = 0; ///< harvested-power trace segments
};

/** One traced rep of simulator runs, in run order. */
struct SimRep
{
    std::vector<RunTrace> runs;
    std::vector<quetzal::sim::Metrics> metrics;
};

/** scenario.*, trace.* and energy.* from the traced reps' set-ups. */
void addSetupLayers(Result &result, const std::vector<SetupTrace> &reps);

/** sim.*, core.* and queueing.* from the traced reps. */
void addSimLayers(Result &result, const std::vector<SimRep> &reps);

/**
 * trace_overhead_pct: how much slower the traced reps ran than the
 * untraced ones, from the medians of their device-days per second.
 */
void addTraceOverhead(Result &result, const std::vector<double> &untraced,
                      const std::vector<double> &traced);

/** A reported metric's name and unit. */
struct MetricName
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in report order. */
const std::vector<MetricName> &layerMetrics();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
