/**
 * @file
 * Incumbent-equivalence and determinism differentials for the policy
 * layer.
 *
 *  - The ported incumbent (--policy sjf-ibo) reproduces the
 *    pre-refactor controller (ControllerKind::Quetzal) byte-for-byte:
 *    identical metrics and an identical full-telemetry JSONL stream
 *    on fig09-, fig12- and fault_sweep-style configurations.
 *    Its checkpoint blobs equal QZ's at every checkpoint.
 *  - Every registered policy produces byte-identical telemetry
 *    across --jobs 1 / --jobs 4 ensemble execution, and resumes
 *    from a mid-run checkpoint into the straight run's suffix.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "policy/registry.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"

namespace quetzal {
namespace policy {
namespace {

/** Serialize one run's full telemetry to a JSONL string. */
std::string
traceOf(sim::ExperimentConfig config)
{
    obs::VectorSink sink;
    config.obsLevel = obs::ObsLevel::Full;
    config.obsSink = &sink;
    (void)sim::runExperiment(config);
    std::ostringstream out;
    obs::writeJsonlHeader(out);
    obs::writeJsonl(out, sink.events(), 0);
    return out.str();
}

void
expectIdenticalMetrics(const sim::Metrics &a, const sim::Metrics &b)
{
    EXPECT_EQ(a.interestingDiscardedTotal(),
              b.interestingDiscardedTotal());
    EXPECT_EQ(a.iboDropsInteresting, b.iboDropsInteresting);
    EXPECT_EQ(a.iboDropsUninteresting, b.iboDropsUninteresting);
    EXPECT_EQ(a.txInterestingHq, b.txInterestingHq);
    EXPECT_EQ(a.txInterestingLq, b.txInterestingLq);
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
    EXPECT_EQ(a.degradedJobs, b.degradedJobs);
    EXPECT_EQ(a.powerFailures, b.powerFailures);
    EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
    EXPECT_EQ(a.energyWastedJoules, b.energyWastedJoules);
    EXPECT_EQ(a.simulatedTicks, b.simulatedTicks);
}

struct EquivalenceCase
{
    const char *name;
    sim::ExperimentConfig config;
};

/** Small-event variants of the committed scenario families. */
std::vector<EquivalenceCase>
equivalenceCases()
{
    std::vector<EquivalenceCase> cases;

    // fig09-style: the headline environment sweep cell.
    sim::ExperimentConfig fig09;
    fig09.environment = trace::EnvironmentPreset::Crowded;
    fig09.eventCount = 30;
    fig09.seed = 42;
    fig09.sim.bufferCapacity = 10;
    cases.push_back({"fig09", fig09});

    // fig12-style: MSP430 device, short environment, smaller buffer.
    sim::ExperimentConfig fig12;
    fig12.device = app::DeviceKind::Msp430;
    fig12.environment = trace::EnvironmentPreset::Msp430Short;
    fig12.eventCount = 30;
    fig12.seed = 5;
    fig12.sim.bufferCapacity = 6;
    cases.push_back({"fig12", fig12});

    // fault_sweep-style: power dropouts/spikes plus arrival bursts.
    sim::ExperimentConfig faulted;
    faulted.environment = trace::EnvironmentPreset::Crowded;
    faulted.eventCount = 30;
    faulted.seed = 7;
    faulted.sim.bufferCapacity = 8;
    faulted.faults.seed = 11;
    faulted.faults.powerTrace.dropoutsPerHour = 12.0;
    faulted.faults.powerTrace.dropoutSeconds = 5.0;
    faulted.faults.powerTrace.spikesPerHour = 12.0;
    faulted.faults.powerTrace.spikeSeconds = 2.0;
    faulted.faults.powerTrace.spikeFactor = 3.0;
    faulted.faults.arrivals.burstsPerHour = 12.0;
    faulted.faults.arrivals.burstSeconds = 10.0;
    cases.push_back({"fault_sweep", faulted});

    return cases;
}

TEST(PolicyEquivalence, PortedIncumbentMatchesLegacyControllerExactly)
{
    for (const EquivalenceCase &c : equivalenceCases()) {
        SCOPED_TRACE(c.name);

        sim::ExperimentConfig legacy = c.config;
        legacy.controller = sim::ControllerKind::Quetzal;
        sim::ExperimentConfig ported = c.config;
        ported.policyName = "sjf-ibo";

        expectIdenticalMetrics(sim::runExperiment(legacy),
                               sim::runExperiment(ported));
        const std::string legacyTrace = traceOf(legacy);
        ASSERT_FALSE(legacyTrace.empty());
        EXPECT_EQ(legacyTrace, traceOf(ported));
    }
}

TEST(PolicyEquivalence, EveryPolicyIsByteIdenticalAcrossJobCounts)
{
    // One run per registered policy, executed as an ensemble on one
    // worker and on four; the serialized streams must agree run for
    // run (the contract scripts/check_scenarios.sh enforces for the
    // committed tournament).
    const std::vector<std::string> &names = registeredPolicyNames();

    const auto traceAll = [&](unsigned jobs) {
        std::vector<obs::VectorSink> sinks(names.size());
        std::vector<sim::ExperimentConfig> configs;
        for (std::size_t i = 0; i < names.size(); ++i) {
            sim::ExperimentConfig config;
            config.policyName = names[i];
            config.eventCount = 30;
            config.seed = 42;
            config.sim.bufferCapacity = 8;
            config.obsLevel = obs::ObsLevel::Full;
            config.obsSink = &sinks[i];
            configs.push_back(std::move(config));
        }
        sim::ParallelRunner runner(jobs);
        (void)runner.runBatch(configs);
        std::vector<std::string> traces;
        for (std::size_t i = 0; i < sinks.size(); ++i) {
            std::ostringstream out;
            obs::writeJsonl(out, sinks[i].events(), i);
            traces.push_back(out.str());
        }
        return traces;
    };

    const std::vector<std::string> serial = traceAll(1);
    const std::vector<std::string> parallel = traceAll(4);
    ASSERT_EQ(serial.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        SCOPED_TRACE(names[i]);
        ASSERT_FALSE(serial[i].empty());
        EXPECT_EQ(serial[i], parallel[i]);
    }
}

/** A checkpoint/resume differential: where to save, which to keep. */
struct ResumeCase
{
    const char *name;
    sim::ExperimentConfig config;
    std::uint64_t checkpointEveryCaptures;
    /** 1-based index of the checkpoint the resumed run starts from. */
    std::size_t resumeFrom;
};

std::vector<ResumeCase>
resumeCases()
{
    std::vector<ResumeCase> cases;

    sim::ExperimentConfig early;
    early.eventCount = 30;
    early.seed = 42;
    early.sim.bufferCapacity = 8;
    cases.push_back({"crowded/early", early, 20, 2});

    // A small buffer under heavy load: drops build Zygarde's overflow
    // pressure and drive the IBO engine's per-task options, both of
    // which must cross the checkpoint.
    sim::ExperimentConfig overloaded;
    overloaded.environment = trace::EnvironmentPreset::MoreCrowded;
    overloaded.eventCount = 300;
    overloaded.seed = 7;
    overloaded.sim.bufferCapacity = 5;
    cases.push_back({"more-crowded/overloaded", overloaded, 10, 43});

    return cases;
}

TEST(PolicyEquivalence, EveryPolicyResumesFromACheckpoint)
{
    // Each policy's decision state crosses a mid-run checkpoint: the
    // resumed run must finish with the straight run's metrics and
    // replay exactly its telemetry from the boundary on.
    for (const ResumeCase &c : resumeCases()) {
        for (const std::string &name : registeredPolicyNames()) {
            SCOPED_TRACE(std::string(c.name) + " " + name);
            sim::ExperimentConfig config = c.config;
            config.policyName = name;
            config.obsLevel = obs::ObsLevel::Full;

            obs::VectorSink straightSink;
            sim::ExperimentConfig straightCfg = config;
            straightCfg.obsSink = &straightSink;
            const sim::Metrics straight = sim::runExperiment(straightCfg);

            // The chosen checkpoint's state, and how many events the
            // saving run had emitted when it fired (the exact split).
            std::string state;
            std::size_t eventsBefore = 0;
            std::size_t saves = 0;
            obs::VectorSink saveSink;
            sim::ExperimentConfig saveCfg = config;
            saveCfg.obsSink = &saveSink;
            saveCfg.sim.checkpointEveryCaptures = c.checkpointEveryCaptures;
            saveCfg.sim.checkpointSink = [&](std::string &&blob, Tick) {
                if (++saves == c.resumeFrom) {
                    state = std::move(blob);
                    eventsBefore = saveSink.events().size();
                }
            };
            (void)sim::runExperiment(saveCfg);
            ASSERT_GE(saves, c.resumeFrom);

            obs::VectorSink resumedSink;
            sim::ExperimentConfig resumeCfg = config;
            resumeCfg.obsSink = &resumedSink;
            resumeCfg.sim.resumeState = &state;
            expectIdenticalMetrics(straight,
                                   sim::runExperiment(resumeCfg));

            ASSERT_LT(eventsBefore, straightSink.events().size());
            const std::vector<obs::Event> suffix(
                straightSink.events().begin() +
                    static_cast<std::ptrdiff_t>(eventsBefore),
                straightSink.events().end());
            std::ostringstream expected;
            obs::writeJsonl(expected, suffix, 0);
            std::ostringstream actual;
            obs::writeJsonl(actual, resumedSink.events(), 0);
            EXPECT_EQ(expected.str(), actual.str());
        }
    }
}

/** Every checkpoint blob a run saves, in order. */
std::vector<std::string>
checkpointsOf(sim::ExperimentConfig config)
{
    std::vector<std::string> blobs;
    config.sim.checkpointEveryCaptures = 10;
    config.sim.checkpointSink = [&](std::string &&blob, Tick) {
        blobs.push_back(std::move(blob));
    };
    (void)sim::runExperiment(config);
    return blobs;
}

TEST(PolicyEquivalence, PortedIncumbentCheckpointsMatchLegacyController)
{
    // sjf-ibo is QZ's own scheduler/adaptation pair, so its state
    // blobs — the IBO engine's per-task options included — must be
    // QZ's, byte for byte, at every checkpoint.
    sim::ExperimentConfig config;
    config.environment = trace::EnvironmentPreset::MoreCrowded;
    config.eventCount = 100;
    config.seed = 7;
    config.sim.bufferCapacity = 5;

    sim::ExperimentConfig legacy = config;
    legacy.controller = sim::ControllerKind::Quetzal;
    sim::ExperimentConfig ported = config;
    ported.policyName = "sjf-ibo";

    const std::vector<std::string> expected = checkpointsOf(legacy);
    const std::vector<std::string> actual = checkpointsOf(ported);
    ASSERT_FALSE(expected.empty());
    ASSERT_EQ(expected.size(), actual.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < expected.size(); ++i)
        differing += expected[i] != actual[i] ? 1 : 0;
    EXPECT_EQ(differing, 0u) << "of " << expected.size() << " checkpoints";
}

} // namespace
} // namespace policy
} // namespace quetzal
