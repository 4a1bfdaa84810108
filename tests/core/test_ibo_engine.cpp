/**
 * @file
 * Tests for the IBO-detection and reaction engine (paper Algorithm 2
 * with the backlog-drain horizon, DESIGN.md section 4).
 */

#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "core/ibo_engine.hpp"
#include "core_test_fixtures.hpp"

namespace quetzal {
namespace core {
namespace {

using testing_fixtures::makeMixedSystem;
using testing_fixtures::makeSmallSystem;
using testing_fixtures::pushInput;

/** Fill the arrival tracker to a steady rate of `stored` per capture. */
void
primeArrivals(TaskSystem &system, double rate, int periods = 64)
{
    for (int i = 0; i < periods; ++i) {
        const bool stored =
            (static_cast<double>(i % 100) / 100.0) < rate;
        system.recordCapture(stored);
    }
}

TEST(IboEngine, NoPressureKeepsFullQuality)
{
    auto s = makeSmallSystem();
    primeArrivals(*s.system, 0.1);
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.classifyJob);
    IboReactionEngine engine;
    EnergyAwareEstimator exact(false);
    const auto decision =
        engine.adapt(*s.system, s.system->job(s.classifyJob), buffer,
                     exact, {1.0, 255}, 0.0);
    EXPECT_FALSE(decision.iboPredicted);
    EXPECT_FALSE(decision.degraded);
    EXPECT_EQ(decision.optionPerTask, std::vector<std::size_t>{0});
    EXPECT_TRUE(decision.overflowAvoided);
}

TEST(IboEngine, UnsustainableRateForcesDegradation)
{
    auto s = makeSmallSystem();
    // Every capture stored: lambda = 1/s.
    primeArrivals(*s.system, 1.0);
    queueing::InputBuffer buffer(10);
    // A backlog of transmit inputs at 10 mW: radio-high needs
    // 80 mJ -> 8 s each; rho >> 1 at full quality. radio-low is
    // 0.5 s each: drain horizon 4 s < headroom 6 -> avoids.
    for (std::uint64_t i = 0; i < 4; ++i)
        pushInput(buffer, s, i, 0, s.transmitJob);
    IboReactionEngine engine;
    EnergyAwareEstimator exact(false);
    const auto decision =
        engine.adapt(*s.system, s.system->job(s.transmitJob), buffer,
                     exact, {10e-3, 0}, 0.0);
    EXPECT_TRUE(decision.iboPredicted);
    EXPECT_TRUE(decision.degraded);
    // radio-low: 5 mJ -> 0.5 s at 10 mW: sustainable, so it avoids.
    EXPECT_EQ(decision.optionPerTask, std::vector<std::size_t>{1});
    EXPECT_TRUE(decision.overflowAvoided);
}

TEST(IboEngine, PicksHighestQualityOptionThatAvoids)
{
    auto s = makeSmallSystem();
    primeArrivals(*s.system, 1.0);
    queueing::InputBuffer buffer(10);
    pushInput(buffer, s, 1, 0, s.transmitJob);
    IboReactionEngine engine;
    EnergyAwareEstimator exact(false);
    // At 1 W even radio-high is compute-bound (0.8 s < 1 s arrival
    // period): full quality already avoids -> no degradation.
    const auto decision =
        engine.adapt(*s.system, s.system->job(s.transmitJob), buffer,
                     exact, {1.0, 255}, 0.0);
    EXPECT_FALSE(decision.degraded);
    EXPECT_TRUE(decision.overflowAvoided);
}

TEST(IboEngine, FullBufferAlwaysPredicts)
{
    auto s = makeSmallSystem();
    primeArrivals(*s.system, 0.05); // nearly idle lambda
    queueing::InputBuffer buffer(3);
    for (std::uint64_t i = 0; i < 3; ++i)
        pushInput(buffer, s, i, 0, s.classifyJob);
    ASSERT_TRUE(buffer.full());
    IboReactionEngine engine;
    EnergyAwareEstimator exact(false);
    const auto decision =
        engine.adapt(*s.system, s.system->job(s.classifyJob), buffer,
                     exact, {1.0, 255}, 0.0);
    // Headroom zero: overflow predicted regardless of lambda, and no
    // option can avoid it -> fastest option chosen.
    EXPECT_TRUE(decision.iboPredicted);
    EXPECT_FALSE(decision.overflowAvoided);
    EXPECT_EQ(decision.optionPerTask, std::vector<std::size_t>{1});
}

TEST(IboEngine, FallbackPicksFastestWhenNothingAvoids)
{
    auto s = makeSmallSystem();
    primeArrivals(*s.system, 1.0);
    queueing::InputBuffer buffer(4);
    for (std::uint64_t i = 0; i < 4; ++i)
        pushInput(buffer, s, i, 0, s.transmitJob);
    IboReactionEngine engine;
    EnergyAwareEstimator exact(false);
    // At 1 mW even radio-low (5 mJ -> 5 s) cannot keep up with
    // 1 arrival/s: nothing avoids, fastest option is still chosen.
    const auto decision =
        engine.adapt(*s.system, s.system->job(s.transmitJob), buffer,
                     exact, {1e-3, 0}, 0.0);
    EXPECT_TRUE(decision.iboPredicted);
    EXPECT_FALSE(decision.overflowAvoided);
    EXPECT_EQ(decision.optionPerTask, std::vector<std::size_t>{1});
}

TEST(IboEngine, RemembersOtherTasksQuality)
{
    auto s = makeSmallSystem();
    primeArrivals(*s.system, 1.0);
    queueing::InputBuffer buffer(10);
    for (std::uint64_t i = 0; i < 3; ++i)
        pushInput(buffer, s, i, 0, s.transmitJob);
    pushInput(buffer, s, 10, 0, s.classifyJob);
    IboReactionEngine engine;
    EnergyAwareEstimator exact(false);
    const PowerReading power{40e-3, 0};

    // First, the transmit decision degrades the radio (radio-high is
    // 2 s per entry at 40 mW: rho > 1).
    const auto radioDecision =
        engine.adapt(*s.system, s.system->job(s.transmitJob), buffer,
                     exact, power, 0.0);
    ASSERT_TRUE(radioDecision.degraded);

    // Now the classify decision prices the transmit backlog at the
    // degraded radio quality: ml-high (0.5 s at 40 mW) plus 3
    // radio-low (0.125 s each) drains fast, so ML stays full quality.
    const auto mlDecision =
        engine.adapt(*s.system, s.system->job(s.classifyJob), buffer,
                     exact, power, 0.0);
    EXPECT_FALSE(mlDecision.degraded);
}

TEST(IboEngine, RecoversQualityWhenPressureClears)
{
    auto s = makeSmallSystem();
    primeArrivals(*s.system, 1.0);
    queueing::InputBuffer buffer(10);
    for (std::uint64_t i = 0; i < 5; ++i)
        pushInput(buffer, s, i, 0, s.transmitJob);
    IboReactionEngine engine;
    EnergyAwareEstimator exact(false);
    // Degrade under pressure at 10 mW...
    const auto pressured =
        engine.adapt(*s.system, s.system->job(s.transmitJob), buffer,
                     exact, {10e-3, 0}, 0.0);
    EXPECT_TRUE(pressured.degraded);
    // ...then power returns and the backlog clears: full quality again.
    queueing::InputBuffer calm(10);
    pushInput(calm, s, 99, 0, s.transmitJob);
    const auto recovered =
        engine.adapt(*s.system, s.system->job(s.transmitJob), calm,
                     exact, {1.0, 255}, 0.0);
    EXPECT_FALSE(recovered.degraded);
}

TEST(IboEngine, NonDegradableJobDetectsOnly)
{
    auto s = makeSmallSystem();
    const TaskId fixed = s.system->addTask("fixed", {{"only", 500,
                                                      10e-3}});
    const JobId fixedJob = s.system->addJob("fixed-job", {fixed});
    primeArrivals(*s.system, 1.0);
    queueing::InputBuffer buffer(2);
    pushInput(buffer, s, 1, 0, fixedJob);
    pushInput(buffer, s, 2, 0, fixedJob);
    IboReactionEngine engine;
    EnergyAwareEstimator exact(false);
    const auto decision =
        engine.adapt(*s.system, s.system->job(fixedJob), buffer, exact,
                     {1e-3, 0}, 0.0);
    EXPECT_TRUE(decision.iboPredicted);
    EXPECT_FALSE(decision.degraded);
    EXPECT_FALSE(decision.overflowAvoided);
}

TEST(IboEngine, BacklogServiceMatchesRecomputation)
{
    TaskSystem system = makeMixedSystem();
    EnergyAwareEstimator circuit(true);
    EnergyAwareEstimator exact(false);
    AverageServiceTimeEstimator average;
    const ServiceTimeEstimator *estimators[] = {&circuit, &exact,
                                                &average};
    const PowerReading readings[] = {
        {2e-3, 40}, {2e-3, 41}, {9e-3, 41}, {50e-3, 200}};
    queueing::InputBuffer buffer(48);
    IboReactionEngine engine;
    // The engine's per-task quality memory, mirrored from its
    // decisions.
    std::vector<std::size_t> current(system.taskCount(), 0);

    std::mt19937_64 rng(0xba1a5ceull);
    std::string saved;
    system.saveCheckpoint(saved);
    std::uint64_t nextId = 0;
    for (int step = 0; step < 4000; ++step) {
        const ServiceTimeEstimator &estimator = *estimators[rng() % 3];
        const PowerReading power = readings[rng() % 4];
        const auto roll = rng() % 100;
        if (roll < 35) {
            system.recordCapture(true);
            queueing::InputRecord record;
            record.id = nextId++;
            record.captureTick = record.enqueueTick =
                static_cast<Tick>(step);
            record.jobId = static_cast<JobId>(rng() % system.jobCount());
            buffer.tryPush(record);
        } else if (roll < 55) {
            if (const auto slot = buffer.oldestSchedulable()) {
                buffer.markInFlight(*slot);
                buffer.releaseSlot(*slot);
            }
        } else if (roll < 65) {
            const Job &job = system.job(rng() % system.jobCount());
            std::vector<bool> executed;
            for (std::size_t i = 0; i < job.tasks.size(); ++i)
                executed.push_back(rng() % 4 != 0);
            system.recordJobCompletion(job, executed);
        } else if (roll < 70) {
            const Task &task = system.task(rng() % system.taskCount());
            average.recordObservation(
                task.option(rng() % task.optionCount()),
                0.01 * static_cast<double>(1 + rng() % 500));
        } else if (roll < 72) {
            saved.clear();
            system.saveCheckpoint(saved);
        } else if (roll < 74) {
            util::wire::Reader in(saved);
            ASSERT_TRUE(system.loadCheckpoint(in));
        } else {
            const Job &job = system.job(rng() % system.jobCount());
            const AdaptationDecision decision = engine.adapt(
                system, job, buffer, estimator, power,
                0.01 * static_cast<double>(rng() % 5));
            if (job.degradableIndex) {
                const std::size_t at = *job.degradableIndex;
                current[job.tasks[at]] = decision.optionPerTask[at];
            }
        }

        const auto overrideTask =
            static_cast<TaskId>(rng() % system.taskCount());
        const std::size_t overrideOption =
            rng() % system.task(overrideTask).optionCount();
        double expected = 0.0;
        buffer.forEachFifo([&](queueing::SlotId,
                               const queueing::InputRecord &rec) {
            for (const TaskId taskId : system.job(rec.jobId).tasks) {
                const std::size_t option = taskId == overrideTask ?
                    overrideOption : current[taskId];
                expected += system.executionProbability(taskId) *
                    estimator.estimate(system.task(taskId).option(option),
                                       power);
            }
        });
        ASSERT_EQ(std::bit_cast<std::uint64_t>(engine.backlogServiceSeconds(
                      system, buffer, estimator, power, overrideTask,
                      overrideOption)),
                  std::bit_cast<std::uint64_t>(expected))
            << "step " << step;
    }
    EXPECT_GT(nextId, 1000u);
}

} // namespace
} // namespace core
} // namespace quetzal
