/**
 * @file
 * Tests for the Controller glue: selection pipeline, feedback loops,
 * PID wiring and statistics.
 */

#include <gtest/gtest.h>

#include "app/person_detection.hpp"
#include "core/runtime.hpp"
#include "core_test_fixtures.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"

namespace quetzal {
namespace core {
namespace {

using testing_fixtures::CountingEstimator;
using testing_fixtures::makeSmallSystem;
using testing_fixtures::pushInput;

TEST(Controller, QuetzalFactoryAssemblesPieces)
{
    auto controller = makeQuetzalController();
    EXPECT_EQ(controller->name(), "Quetzal");
    EXPECT_EQ(controller->scheduler().name(), "energy-aware-sjf");
    EXPECT_EQ(controller->adaptation().name(), "ibo-engine");
    EXPECT_EQ(controller->estimator().name(), "energy-aware(circuit)");
    EXPECT_EQ(controller->pidCorrection(), 0.0);
}

TEST(Controller, SelectReturnsNothingOnEmptyBuffer)
{
    auto s = makeSmallSystem();
    auto controller = makeQuetzalController();
    queueing::InputBuffer buffer(10);
    EXPECT_FALSE(
        controller->selectJob(*s.system, buffer, 10e-3).has_value());
    EXPECT_EQ(controller->stats().invocations, 1u);
}

TEST(Controller, SelectionCarriesOptions)
{
    auto s = makeSmallSystem();
    QuetzalOptions options;
    options.useCircuit = false;
    auto controller = makeQuetzalController(options);
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.classifyJob);
    const auto selection =
        controller->selectJob(*s.system, buffer, 1.0);
    ASSERT_TRUE(selection.has_value());
    EXPECT_EQ(selection->jobId, s.classifyJob);
    ASSERT_EQ(selection->optionPerTask.size(), 1u);
    EXPECT_GT(selection->predictedServiceSeconds, 0.0);
}

TEST(Controller, CompletionFeedsProbabilityTrackers)
{
    auto s = makeSmallSystem();
    auto controller = makeQuetzalController();
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.classifyJob);
    const auto selection =
        controller->selectJob(*s.system, buffer, 10e-3);
    ASSERT_TRUE(selection.has_value());
    controller->onJobComplete(*s.system, *selection, {false}, 1.0);
    EXPECT_DOUBLE_EQ(s.system->executionProbability(s.mlTask), 0.0);
    EXPECT_EQ(controller->stats().jobsCompleted, 1u);
}

TEST(Controller, PidRespondsToPredictionError)
{
    auto s = makeSmallSystem();
    QuetzalOptions options;
    options.useCircuit = false;
    // Crank the gains so the effect is visible in a couple of steps.
    options.pidConfig.kp = 0.5;
    options.pidConfig.ki = 0.0;
    options.pidConfig.kd = 0.0;
    auto controller = makeQuetzalController(options);

    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.classifyJob);
    const auto selection =
        controller->selectJob(*s.system, buffer, 1.0);
    ASSERT_TRUE(selection.has_value());
    // Job took 10 s longer than predicted: the correction inflates.
    controller->onJobComplete(
        *s.system, *selection, {true},
        selection->predictedServiceSeconds + 10.0);
    EXPECT_NEAR(controller->pidCorrection(), 5.0, 1e-9);
    EXPECT_EQ(controller->stats().predictionError.count(), 1u);
    EXPECT_NEAR(controller->stats().predictionError.mean(), 10.0,
                1e-9);
}

TEST(Controller, NoPidMeansZeroCorrection)
{
    auto s = makeSmallSystem();
    QuetzalOptions options;
    options.usePid = false;
    auto controller = makeQuetzalController(options);
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.classifyJob);
    const auto selection =
        controller->selectJob(*s.system, buffer, 10e-3);
    ASSERT_TRUE(selection.has_value());
    controller->onJobComplete(*s.system, *selection, {true}, 100.0);
    EXPECT_EQ(controller->pidCorrection(), 0.0);
}

TEST(Controller, TaskObservationsFeedAverageEstimator)
{
    auto s = makeSmallSystem();
    auto controller = std::make_unique<Controller>(
        "avg", std::make_unique<EnergyAwareSjfPolicy>(),
        std::make_unique<IboReactionEngine>(),
        std::make_unique<AverageServiceTimeEstimator>());
    controller->onTaskComplete(*s.system, s.mlTask, 0, 7.0);
    const auto &avg = static_cast<AverageServiceTimeEstimator &>(
        controller->estimator());
    EXPECT_EQ(
        avg.observationCount(s.system->task(s.mlTask).option(0)), 1u);
}

TEST(Controller, DegradationCountsInStats)
{
    auto s = makeSmallSystem();
    QuetzalOptions options;
    options.useCircuit = false;
    options.usePid = false;
    auto controller = makeQuetzalController(options);
    // High lambda + heavy transmit backlog at low power: must degrade.
    for (int i = 0; i < 64; ++i)
        s.system->recordCapture(true);
    queueing::InputBuffer buffer(10);
    for (std::uint64_t i = 0; i < 4; ++i)
        pushInput(buffer, s, i, 0, s.transmitJob);
    const auto selection =
        controller->selectJob(*s.system, buffer, 10e-3);
    ASSERT_TRUE(selection.has_value());
    EXPECT_TRUE(selection->degraded);
    EXPECT_EQ(controller->stats().degradedJobs, 1u);
    EXPECT_EQ(controller->stats().iboPredictions, 1u);
}

/** Work counts of one QZ run with a counted estimator. */
struct CountedRun
{
    std::uint64_t decisions = 0;
    std::uint64_t estimates = 0;
    std::uint64_t versions = 0;
    std::uint64_t powerKeys = 0;
};

/**
 * A host-independent work counter for the decision path: QZ on the
 * more-crowded environment (40 events, seed 1), its estimator wrapped
 * in a counter.
 */
CountedRun
runCountedQuetzal()
{
    sim::ExperimentConfig config;
    config.environment = trace::EnvironmentPreset::MoreCrowded;
    config.eventCount = 40;
    config.seed = 1;
    const trace::EventTrace events = sim::buildEventTrace(config);
    const energy::PowerTrace watts = sim::buildPowerTrace(config, events);
    const app::DeviceProfile profile = app::deviceProfile(config.device);
    SystemConfig systemConfig = config.system;
    systemConfig.captureHz = static_cast<double>(kTicksPerSecond) /
        static_cast<double>(config.sim.capturePeriod);
    TaskSystem system(systemConfig);
    const app::ApplicationModel appModel =
        app::buildPersonDetectionApp(system, profile);

    auto counting = std::make_unique<CountingEstimator>(
        std::make_unique<EnergyAwareEstimator>(true));
    const CountingEstimator &counter = *counting;
    Controller controller("QZ-counted",
                          std::make_unique<EnergyAwareSjfPolicy>(),
                          std::make_unique<IboReactionEngine>(),
                          std::move(counting), config.pid);
    sim::Simulator simulator(config.sim, profile, appModel, system,
                             controller, watts, events);
    simulator.run();
    return CountedRun{controller.stats().invocations, counter.calls(),
                      counter.versions(), counter.powerKeys()};
}

TEST(Controller, DecisionsReadCachedServiceTerms)
{
    // Alg. 1 and Alg. 2 read E[S] terms that are re-derived only when
    // the power code or a probability changes, so a run needs a small
    // fraction of one estimate() per decision (a per-decision
    // re-derivation costs two or more).
    const CountedRun run = runCountedQuetzal();
    ASSERT_GT(run.decisions, 1000u);
    EXPECT_LE(static_cast<double>(run.estimates),
              0.2 * static_cast<double>(run.decisions))
        << run.estimates << " estimate() calls over " << run.decisions
        << " decisions";
}

TEST(Controller, RoundsDeriveTheTermKeyOnce)
{
    // Every E[S] read of one decision shares the round's estimator and
    // reading, so the table's key (version(), powerKey()) is derived
    // at most once per decision however many jobs Alg. 1 ranks and
    // options Alg. 2 walks (keying every read costs about 4.5).
    const CountedRun run = runCountedQuetzal();
    ASSERT_GT(run.decisions, 1000u);
    const auto decisions = static_cast<double>(run.decisions);
    EXPECT_LE(static_cast<double>(run.versions), decisions)
        << run.versions << " version() calls over " << run.decisions
        << " decisions";
    EXPECT_LE(static_cast<double>(run.powerKeys), decisions)
        << run.powerKeys << " powerKey() calls over " << run.decisions
        << " decisions";
}

TEST(ControllerDeathTest, MissingCollaboratorsFatal)
{
    EXPECT_EXIT(Controller("broken", nullptr, nullptr, nullptr),
                ::testing::ExitedWithCode(1), "requires");
}

} // namespace
} // namespace core
} // namespace quetzal
