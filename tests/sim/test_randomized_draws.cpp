/**
 * @file
 * Randomized-draw contracts of the simulation loop: experiment
 * configurations drawn over environments, controllers, buffer sizes
 * and fault models (fault timing consumes RNG draws, which is where
 * an ordering bug surfaces first) must
 *  - serialize to the same bytes on one worker and on four,
 *  - resume from a mid-run checkpoint into exactly the straight
 *    run's suffix, and
 *  - consume execution jitter from the seeded stream: reruns agree,
 *    and the jitter visibly changes the run.
 * The fingerprint folds every Metrics field the event stream cannot
 * carry (e.g. scheduler overhead accounting) into the trace bytes.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"

namespace quetzal {
namespace sim {
namespace {

/** One randomized fault model; case 0 is the inert spec. */
fault::FaultSpec
drawFaultSpec(std::mt19937_64 &rng)
{
    fault::FaultSpec spec;
    spec.seed = rng() % 1000 + 1;
    switch (rng() % 6) {
    case 0: // inert: the clean path must hold too
        break;
    case 1:
        spec.measurement.biasWatts = 0.002;
        spec.measurement.noiseSigma = 0.1;
        break;
    case 2:
        spec.adc.flipMask = 0x04;
        spec.adc.stuckHighMask = 0x01;
        break;
    case 3:
        spec.powerTrace.dropoutsPerHour = 40.0;
        spec.powerTrace.dropoutSeconds = 2.0;
        spec.powerTrace.spikesPerHour = 20.0;
        spec.powerTrace.spikeSeconds = 1.0;
        spec.powerTrace.spikeFactor = 3.0;
        break;
    case 4:
        spec.arrivals.burstsPerHour = 30.0;
        spec.arrivals.burstSeconds = 3.0;
        spec.arrivals.captureJitterMs = 120;
        break;
    case 5:
        spec.execution.overrunProbability = 0.2;
        spec.execution.overrunFactor = 1.8;
        break;
    }
    return spec;
}

/** `count` reproducible draws over the experiment space. */
std::vector<ExperimentConfig>
drawConfigs(std::size_t count)
{
    const trace::EnvironmentPreset presets[] = {
        trace::EnvironmentPreset::MoreCrowded,
        trace::EnvironmentPreset::Crowded,
        trace::EnvironmentPreset::LessCrowded,
        trace::EnvironmentPreset::Msp430Short,
    };
    const ControllerKind controllers[] = {
        ControllerKind::Quetzal,   ControllerKind::QuetzalFcfs,
        ControllerKind::QuetzalLcfs, ControllerKind::NoAdapt,
        ControllerKind::CatNap,    ControllerKind::Ideal,
    };

    std::mt19937_64 rng(20260807);
    std::vector<ExperimentConfig> configs;
    for (std::size_t draw = 0; draw < count; ++draw) {
        ExperimentConfig config;
        config.environment = presets[rng() % 4];
        config.controller = controllers[rng() % 6];
        config.eventCount = 10 + rng() % 30;
        config.seed = rng() % 10000 + 1;
        config.sim.bufferCapacity = 4 + rng() % 12;
        config.sim.drainTicks = 30 * kTicksPerSecond;
        config.faults = drawFaultSpec(rng);
        config.obsLevel = obs::ObsLevel::Full;
        configs.push_back(std::move(config));
    }
    return configs;
}

std::string
describe(const ExperimentConfig &config)
{
    std::ostringstream out;
    out << "env=" << trace::environmentName(config.environment)
        << " ctl=" << controllerKindName(config.controller)
        << " events=" << config.eventCount << " seed=" << config.seed
        << " cap=" << config.sim.bufferCapacity
        << " faults=";
    const fault::FaultSpec &f = config.faults;
    if (f.inert())
        out << "none";
    out << (f.measurement.active() ? "measurement," : "")
        << (f.adc.active() ? "adc," : "")
        << (f.powerTrace.active() ? "power," : "")
        << (f.arrivals.active() ? "arrivals," : "")
        << (f.execution.active() ? "execution," : "");
    return out.str();
}

/** A run's event stream plus every Metrics field, serialized. */
std::string
fingerprint(const std::vector<obs::Event> &events, const Metrics &m)
{
    std::ostringstream out;
    obs::writeJsonlHeader(out);
    obs::writeJsonl(out, events, 0);
    out << m.eventsTotal << ' ' << m.eventsInteresting << ' '
        << m.captures << ' ' << m.storedInputs << ' '
        << m.iboDropsInteresting << ' ' << m.iboDropsUninteresting
        << ' ' << m.fnDiscards << ' ' << m.fpPositives << ' '
        << m.txInterestingHq << ' ' << m.txInterestingLq << ' '
        << m.txUninterestingHq << ' ' << m.txUninterestingLq << ' '
        << m.jobsCompleted << ' ' << m.degradedJobs << ' '
        << m.iboPredictions << ' ' << m.powerFailures << ' '
        << m.checkpointSaves << ' ' << m.rechargeTicks << ' '
        << m.activeTicks << ' ' << m.rolledBackTicks << ' '
        << m.simulatedTicks << ' ' << m.deadlineMisses << ' '
        << m.energyWastedJoules << ' ' << m.schedulerOverheadSeconds
        << ' ' << m.schedulerOverheadEnergy << ' '
        << m.jobServiceSeconds.count() << ' '
        << m.jobServiceSeconds.sum() << ' '
        << m.predictionErrorSeconds.count() << ' '
        << m.predictionErrorSeconds.sum() << '\n';
    return out.str();
}

/** Every draw run as one batch on `jobs` workers, fingerprinted. */
std::vector<std::string>
batchFingerprints(std::vector<ExperimentConfig> configs, unsigned jobs)
{
    std::vector<obs::VectorSink> sinks(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i)
        configs[i].obsSink = &sinks[i];
    ParallelRunner runner(jobs);
    const std::vector<Metrics> metrics = runner.runBatch(configs);
    std::vector<std::string> prints;
    for (std::size_t i = 0; i < configs.size(); ++i)
        prints.push_back(fingerprint(sinks[i].events(), metrics[i]));
    return prints;
}

TEST(RandomizedDraws, IdenticalAcrossJobCounts)
{
    const std::vector<ExperimentConfig> configs = drawConfigs(12);
    const std::vector<std::string> serial = batchFingerprints(configs, 1);
    const std::vector<std::string> parallel =
        batchFingerprints(configs, 4);
    ASSERT_EQ(serial.size(), configs.size());
    ASSERT_EQ(parallel.size(), configs.size());

    std::uint64_t totalJobs = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(describe(configs[i]));
        EXPECT_EQ(serial[i], parallel[i]);
        totalJobs += runExperiment(configs[i]).jobsCompleted;
    }
    // Draws that never complete a job would vacuously agree; the
    // battery must contain real work.
    EXPECT_GT(totalJobs, 100u);
}

TEST(RandomizedDraws, ResumeAtACheckpointReplaysTheStraightRun)
{
    std::size_t resumed = 0;
    for (const ExperimentConfig &config : drawConfigs(12)) {
        SCOPED_TRACE(describe(config));
        obs::VectorSink straightSink;
        ExperimentConfig straightCfg = config;
        straightCfg.obsSink = &straightSink;
        const Metrics straight = runExperiment(straightCfg);

        // Each checkpoint remembers how many events the saving run had
        // emitted: events of the boundary tick can fall on either side
        // of it, so the split is by count, not by tick.
        struct Saved
        {
            std::string state;
            std::size_t eventsBefore;
        };
        std::vector<Saved> checkpoints;
        obs::VectorSink saveSink;
        ExperimentConfig saveCfg = config;
        saveCfg.obsSink = &saveSink;
        saveCfg.sim.checkpointEveryCaptures = 10;
        saveCfg.sim.checkpointSink = [&](std::string &&state, Tick) {
            checkpoints.push_back(
                {std::move(state), saveSink.events().size()});
        };
        (void)runExperiment(saveCfg);
        if (checkpoints.empty())
            continue; // too few captures for one boundary

        // Resume from the middle boundary: both halves of the run
        // carry RNG and fault state across it.
        const Saved &saved = checkpoints[checkpoints.size() / 2];
        obs::VectorSink resumedSink;
        ExperimentConfig resumeCfg = config;
        resumeCfg.obsSink = &resumedSink;
        resumeCfg.sim.resumeState = &saved.state;
        const Metrics after = runExperiment(resumeCfg);

        ASSERT_LE(saved.eventsBefore, straightSink.events().size());
        const std::vector<obs::Event> suffix(
            straightSink.events().begin() +
                static_cast<std::ptrdiff_t>(saved.eventsBefore),
            straightSink.events().end());
        EXPECT_EQ(fingerprint(suffix, straight),
                  fingerprint(resumedSink.events(), after));
        ++resumed;
    }
    EXPECT_GE(resumed, 6u);
}

TEST(RandomizedDraws, ExecutionJitterIsSeededAndConsumed)
{
    // Per-task execution jitter draws from the run RNG on every
    // dispatch: reruns must agree byte for byte, and the draws must
    // actually reach the timeline.
    ExperimentConfig config;
    config.environment = trace::EnvironmentPreset::Crowded;
    config.eventCount = 30;
    config.seed = 11;
    config.obsLevel = obs::ObsLevel::Full;

    const auto run = [](ExperimentConfig cfg) {
        obs::VectorSink sink;
        cfg.obsSink = &sink;
        const Metrics m = runExperiment(cfg);
        return std::make_pair(fingerprint(sink.events(), m),
                              m.jobsCompleted);
    };
    const auto plain = run(config);
    config.sim.executionJitterSigma = 0.05;
    const auto jittered = run(config);
    const auto rerun = run(config);

    EXPECT_GT(jittered.second, 0u);
    EXPECT_EQ(jittered.first, rerun.first);
    EXPECT_NE(jittered.first, plain.first);
}

} // namespace
} // namespace sim
} // namespace quetzal
