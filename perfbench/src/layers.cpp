#include "layers.hpp"

#include <algorithm>

namespace perfbench {

void
addSetupLayers(Result &result, const std::vector<SetupTrace> &reps)
{
    std::vector<double> load, compile, events, power;
    for (const SetupTrace &rep : reps) {
        load.push_back(rep.loadMs);
        compile.push_back(rep.compileMs);
        events.push_back(rep.eventsMs);
        power.push_back(rep.powerMs);
    }
    result.add("scenario.load_ms", median(load), "ms");
    result.add("scenario.compile_ms", median(compile), "ms");
    result.add("trace.events_ms", median(events), "ms");
    result.add("trace.events",
               reps.empty() ? 0.0 : static_cast<double>(reps[0].events),
               "count");
    result.add("energy.power_ms", median(power), "ms");
    result.add("energy.segments",
               reps.empty() ? 0.0
                            : static_cast<double>(reps[0].segments),
               "count");
}

void
addSimLayers(Result &result, const std::vector<SimRep> &reps)
{
    std::vector<double> runMs, selfMs, schedMs, iboMs, estimateMs;
    double totalRunMs = 0.0;
    double totalCaptures = 0.0;
    for (const SimRep &rep : reps) {
        double repRun = 0.0, repCore = 0.0;
        double repSched = 0.0, repIbo = 0.0, repEstimate = 0.0;
        for (std::size_t i = 0; i < rep.runs.size(); ++i) {
            const RunTrace &run = rep.runs[i];
            runMs.push_back(run.runMs);
            repRun += run.runMs;
            totalCaptures += static_cast<double>(rep.metrics[i].captures);
            if (!run.quetzal)
                continue;
            repCore += run.coreMs();
            repSched += run.sched.ms();
            repIbo += run.ibo.ms();
            repEstimate += run.estimateMs();
        }
        totalRunMs += repRun;
        selfMs.push_back(repRun - repCore);
        schedMs.push_back(repSched);
        iboMs.push_back(repIbo);
        estimateMs.push_back(repEstimate);
    }

    // Counts from the first traced rep (deterministic per seed).
    double runs = 0, captures = 0, failures = 0, drops = 0;
    double schedCalls = 0, iboCalls = 0, degraded = 0, estimateCalls = 0;
    double occupancySum = 0, occupancySamples = 0, occupancyMax = 0;
    if (!reps.empty()) {
        const SimRep &first = reps.front();
        for (std::size_t i = 0; i < first.runs.size(); ++i) {
            const RunTrace &run = first.runs[i];
            const quetzal::sim::Metrics &m = first.metrics[i];
            ++runs;
            captures += static_cast<double>(m.captures);
            failures += static_cast<double>(m.powerFailures);
            drops += static_cast<double>(m.iboDropsInteresting +
                                         m.iboDropsUninteresting);
            if (run.decorated) {
                occupancySum += run.occupancySum;
                occupancySamples += static_cast<double>(run.sched.count());
                occupancyMax = std::max(
                    occupancyMax, static_cast<double>(run.occupancyMax));
            }
            if (run.quetzal) {
                schedCalls += static_cast<double>(run.sched.count());
                iboCalls += static_cast<double>(run.ibo.count());
                degraded += static_cast<double>(run.iboDegraded);
                estimateCalls += static_cast<double>(run.estimateCalls());
            }
        }
    }

    result.add("sim.runs", runs, "count");
    result.add("sim.run_ms_p50", percentile(runMs, 50), "ms");
    result.add("sim.run_ms_p95", percentile(runMs, 95), "ms");
    result.add("sim.captures", captures, "count");
    result.add("sim.ns_per_capture",
               totalCaptures > 0 ? totalRunMs * 1e6 / totalCaptures : 0.0,
               "ns");
    result.add("sim.self_ms", median(selfMs), "ms");
    result.add("sim.power_failures", failures, "count");
    result.add("core.sched.calls", schedCalls, "count");
    result.add("core.sched.ms", median(schedMs), "ms");
    result.add("core.ibo.calls", iboCalls, "count");
    result.add("core.ibo.ms", median(iboMs), "ms");
    result.add("core.ibo.degrade_ratio",
               iboCalls > 0 ? degraded / iboCalls : 0.0, "ratio");
    result.add("core.estimate.calls", estimateCalls, "count");
    result.add("core.estimate.ms", median(estimateMs), "ms");
    result.add("queueing.occupancy_mean",
               occupancySamples > 0 ? occupancySum / occupancySamples
                                    : 0.0,
               "inputs");
    result.add("queueing.occupancy_max", occupancyMax, "inputs");
    result.add("queueing.ibo_drops", drops, "count");
}

void
addTraceOverhead(Result &result, const std::vector<double> &untraced,
                 const std::vector<double> &traced)
{
    const double base = median(untraced);
    const double withTrace = median(traced);
    result.add("trace_overhead_pct",
               withTrace > 0 ? 100.0 * (base / withTrace - 1.0) : 0.0,
               "%");
}

const std::vector<MetricName> &
layerMetrics()
{
    static const std::vector<MetricName> metrics = {
        {"scenario.load_ms", "ms"},
        {"scenario.compile_ms", "ms"},
        {"trace.events_ms", "ms"},
        {"trace.events", "count"},
        {"energy.power_ms", "ms"},
        {"energy.segments", "count"},
        {"sim.runs", "count"},
        {"sim.run_ms_p50", "ms"},
        {"sim.run_ms_p95", "ms"},
        {"sim.captures", "count"},
        {"sim.ns_per_capture", "ns"},
        {"sim.self_ms", "ms"},
        {"sim.power_failures", "count"},
        {"core.sched.calls", "count"},
        {"core.sched.ms", "ms"},
        {"core.ibo.calls", "count"},
        {"core.ibo.ms", "ms"},
        {"core.ibo.degrade_ratio", "ratio"},
        {"core.estimate.calls", "count"},
        {"core.estimate.ms", "ms"},
        {"queueing.occupancy_mean", "inputs"},
        {"queueing.occupancy_max", "inputs"},
        {"queueing.ibo_drops", "count"},
        {"obs.events", "count"},
        {"obs.bytes", "B"},
        {"obs.record_ms", "ms"},
        {"obs.ns_per_event", "ns"},
        {"fleet.slab_ms_p50", "ms"},
        {"fleet.slab_ms_p95", "ms"},
        {"fleet.barriers", "count"},
        {"fleet.snapshot.encode_ms", "ms"},
        {"fleet.snapshot.decode_ms", "ms"},
        {"fleet.snapshot.bytes", "B"},
        {"fleet.ckpt_overhead_pct", "%"},
        {"fleet.jobs_completed", "count"},
        {"fleet.drops", "count"},
        {"fleet.state_bytes_per_device", "B"},
        {"trace_overhead_pct", "%"},
    };
    return metrics;
}

} // namespace perfbench
