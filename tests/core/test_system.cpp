/**
 * @file
 * Tests for TaskSystem registration, tracking and E[S] computation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "core_test_fixtures.hpp"

namespace quetzal {
namespace core {
namespace {

using testing_fixtures::CountingEstimator;
using testing_fixtures::makeMixedSystem;
using testing_fixtures::makeSmallSystem;
using testing_fixtures::referenceService;

TEST(TaskSystem, RegistersTasksAndJobs)
{
    auto s = makeSmallSystem();
    EXPECT_EQ(s.system->taskCount(), 2u);
    EXPECT_EQ(s.system->jobCount(), 2u);
    const Job &classify = s.system->job(s.classifyJob);
    EXPECT_EQ(classify.tasks.size(), 1u);
    ASSERT_TRUE(classify.degradableIndex.has_value());
    EXPECT_EQ(*classify.degradableIndex, 0u);
    ASSERT_TRUE(classify.onPositive.has_value());
    EXPECT_EQ(*classify.onPositive, s.transmitJob);
}

TEST(TaskSystem, ProfilesOptionsThroughCircuit)
{
    auto s = makeSmallSystem();
    const Task &radio = s.system->task(s.radioTask);
    // Higher power options get higher diode codes.
    EXPECT_GT(radio.option(0).hwProfile.execCode, 0);
    const Task &ml = s.system->task(s.mlTask);
    EXPECT_GT(radio.option(0).hwProfile.execCode,
              ml.option(1).hwProfile.execCode);
    // Premult tables are filled.
    EXPECT_EQ(ml.option(0).hwProfile.premultTicks[0], 1000u);
}

TEST(TaskSystem, ArrivalTrackingWithSpawns)
{
    auto s = makeSmallSystem();
    for (int i = 0; i < 8; ++i) {
        s.system->recordCapture(true);
        if (i % 2 == 0)
            s.system->recordSpawn();
    }
    EXPECT_NEAR(s.system->arrivalsPerSecond(), 1.5, 1e-12);
}

TEST(TaskSystem, ExecutionProbabilityConditionalOnJob)
{
    auto s = makeSmallSystem();
    const Job &classify = s.system->job(s.classifyJob);
    // classify completes 4 times, ml ran each time.
    for (int i = 0; i < 4; ++i)
        s.system->recordJobCompletion(classify, {true});
    EXPECT_DOUBLE_EQ(s.system->executionProbability(s.mlTask), 1.0);
    // The radio task was never part of those completions: its
    // probability stays at the conservative default.
    EXPECT_DOUBLE_EQ(s.system->executionProbability(s.radioTask), 1.0);
    // A skipped execution dilutes the estimate.
    s.system->recordJobCompletion(classify, {false});
    EXPECT_DOUBLE_EQ(s.system->executionProbability(s.mlTask), 0.8);
}

TEST(TaskSystem, MeasureInputPowerProducesCodeAndWatts)
{
    auto s = makeSmallSystem();
    const PowerReading low = s.system->measureInputPower(1e-3);
    const PowerReading high = s.system->measureInputPower(50e-3);
    EXPECT_DOUBLE_EQ(low.watts, 1e-3);
    EXPECT_DOUBLE_EQ(high.watts, 50e-3);
    EXPECT_GT(high.code, low.code);
}

TEST(TaskSystem, ExpectedJobServiceWeightsByProbability)
{
    auto s = makeSmallSystem();
    EnergyAwareEstimator exact(false);
    const PowerReading power{1.0, 255}; // 1 W: compute bound
    const Job &classify = s.system->job(s.classifyJob);

    // Probability defaults to 1.0: E[S] = ml-high latency = 1 s.
    EXPECT_NEAR(s.system->expectedJobService(classify, exact, power),
                1.0, 1e-9);

    // Dilute ml probability to 0.5.
    for (int i = 0; i < 2; ++i)
        s.system->recordJobCompletion(classify, {i == 0});
    EXPECT_NEAR(s.system->expectedJobService(classify, exact, power),
                0.5, 1e-9);

    // Option override: ml-low latency = 0.1 s, weighted 0.5.
    EXPECT_NEAR(s.system->expectedJobService(classify, exact, power,
                                             {1}),
                0.05, 1e-9);
}

TEST(TaskSystem, ExpectedJobServiceScalesWithPower)
{
    auto s = makeSmallSystem();
    EnergyAwareEstimator exact(false);
    const Job &transmit = s.system->job(s.transmitJob);
    // radio-high: 0.8 s, 80 mJ. At 8 mW input: 10 s energy-bound.
    const PowerReading low{8e-3, 0};
    EXPECT_NEAR(s.system->expectedJobService(transmit, exact, low),
                10.0, 1e-9);
    // At 200 mW: compute bound, 0.8 s.
    const PowerReading high{200e-3, 0};
    EXPECT_NEAR(s.system->expectedJobService(transmit, exact, high),
                0.8, 1e-9);
}

TEST(TaskSystem, ExpectedJobServiceMatchesRecomputation)
{
    TaskSystem system = makeMixedSystem();
    EnergyAwareEstimator circuit(true);
    EnergyAwareEstimator exact(false);
    AverageServiceTimeEstimator average;
    const ServiceTimeEstimator *estimators[] = {&circuit, &exact,
                                                &average};
    // Equal watts with different codes and equal codes with different
    // watts, so each estimator's powerKey() is exercised both ways.
    const PowerReading readings[] = {
        {2e-3, 40}, {2e-3, 41}, {9e-3, 41}, {50e-3, 200}};

    std::mt19937_64 rng(0x5e2eull);
    std::string saved;
    system.saveCheckpoint(saved);
    int probabilityChanges = 0;
    for (int step = 0; step < 5000; ++step) {
        const auto roll = rng() % 100;
        if (roll < 10) {
            const Job &job = system.job(rng() % system.jobCount());
            std::vector<bool> executed;
            for (std::size_t i = 0; i < job.tasks.size(); ++i)
                executed.push_back(rng() % 4 != 0);
            const double before =
                system.executionProbability(job.tasks[0]);
            system.recordJobCompletion(job, executed);
            probabilityChanges +=
                system.executionProbability(job.tasks[0]) != before;
        } else if (roll < 15) {
            const Task &task = system.task(rng() % system.taskCount());
            average.recordObservation(
                task.option(rng() % task.optionCount()),
                0.01 * static_cast<double>(1 + rng() % 500));
        } else if (roll < 17) {
            saved.clear();
            system.saveCheckpoint(saved);
        } else if (roll < 19) {
            util::wire::Reader in(saved);
            ASSERT_TRUE(system.loadCheckpoint(in));
        }

        const Job &job = system.job(rng() % system.jobCount());
        const ServiceTimeEstimator &estimator = *estimators[rng() % 3];
        const PowerReading power = readings[rng() % 4];
        OptionVec options;
        const auto shape = rng() % 3;
        if (shape > 0) {
            for (const TaskId taskId : job.tasks)
                options.push_back(shape == 1 ? 0 :
                                  rng() % system.task(taskId).optionCount());
        }
        ASSERT_EQ(std::bit_cast<std::uint64_t>(system.expectedJobService(
                      job, estimator, power, options)),
                  std::bit_cast<std::uint64_t>(referenceService(
                      system, job, estimator, power, options)))
            << "step " << step;
    }
    EXPECT_GT(probabilityChanges, 100);
}

TEST(TaskSystem, ServiceTermsChangeOnlyWithTheirInputs)
{
    auto s = makeSmallSystem();
    CountingEstimator counting(std::make_unique<EnergyAwareEstimator>(true));
    const Job &classify = s.system->job(s.classifyJob);
    const Job &transmit = s.system->job(s.transmitJob);
    const PowerReading low{5e-3, 60};
    // One derivation estimates every option of every task.
    const std::uint64_t table = 4;

    s.system->expectedJobService(classify, counting, low);
    EXPECT_EQ(counting.calls(), table);
    // Repeats, other option vectors, another job and another reading
    // with the same code are all table reads.
    for (int i = 0; i < 5; ++i) {
        s.system->expectedJobService(classify, counting, low);
        s.system->expectedJobService(classify, counting, low, {0});
        s.system->expectedJobService(classify, counting, {7e-3, 60}, {1});
        s.system->expectedJobService(transmit, counting, low, {1});
    }
    EXPECT_EQ(counting.calls(), table);

    // A completion that leaves every probability at 1.0 keeps the
    // table; one that skips the task moves it and derives it again.
    s.system->recordJobCompletion(classify, {true});
    s.system->expectedJobService(classify, counting, low);
    EXPECT_EQ(counting.calls(), table);
    s.system->recordJobCompletion(classify, {false});
    s.system->expectedJobService(classify, counting, low);
    EXPECT_EQ(counting.calls(), 2 * table);

    // So do a new power code and a restore.
    s.system->expectedJobService(transmit, counting, {5e-3, 61});
    EXPECT_EQ(counting.calls(), 3 * table);
    std::string saved;
    s.system->saveCheckpoint(saved);
    util::wire::Reader in(saved);
    ASSERT_TRUE(s.system->loadCheckpoint(in));
    s.system->expectedJobService(transmit, counting, {5e-3, 61});
    EXPECT_EQ(counting.calls(), 4 * table);
}

/** Every entry of `terms` is the product a fresh table would hold. */
void
expectFreshTerms(const TaskSystem &system, const double *terms,
                 const ServiceTimeEstimator &estimator,
                 const PowerReading &power)
{
    for (const Task &task : system.tasks()) {
        for (std::size_t opt = 0; opt < task.optionCount(); ++opt) {
            const double fresh = system.executionProbability(task.id()) *
                estimator.estimate(task.option(opt), power);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(
                          terms[system.serviceTermIndex(task.id(), opt)]),
                      std::bit_cast<std::uint64_t>(fresh))
                << task.name() << " option " << opt;
        }
    }
}

TEST(TaskSystem, RoundScopeFallsBackForOtherInputs)
{
    TaskSystem system = makeMixedSystem();
    for (const Job &job : system.jobs()) {
        std::vector<bool> executed(job.tasks.size(), true);
        executed.back() = false;
        system.recordJobCompletion(job, executed);
    }
    CountingEstimator counted(std::make_unique<EnergyAwareEstimator>(true));
    EnergyAwareEstimator twin(true); // same estimates, other instance
    AverageServiceTimeEstimator average;
    average.recordObservation(system.task(1).option(0), 3.5);
    const PowerReading roundPower{2e-3, 40};
    const PowerReading otherCode{2e-3, 90};
    const PowerReading otherWatts{7e-3, 40};

    {
        const TaskSystem::ServiceRound round(system, counted, roundPower);
        expectFreshTerms(system, system.serviceTerms(counted, roundPower),
                         counted, roundPower);
        EXPECT_EQ(counted.versions(), 1u);
        expectFreshTerms(system, system.serviceTerms(counted, roundPower),
                         counted, roundPower);
        EXPECT_EQ(counted.versions(), 1u) << "in-round read keyed again";

        // Another estimator instance, then the round's inputs again:
        // the fallback re-derived the table, so the round must too.
        expectFreshTerms(system, system.serviceTerms(average, roundPower),
                         average, roundPower);
        expectFreshTerms(system, system.serviceTerms(counted, roundPower),
                         counted, roundPower);
        expectFreshTerms(system, system.serviceTerms(twin, otherCode),
                         twin, otherCode);
        expectFreshTerms(system, system.serviceTerms(counted, roundPower),
                         counted, roundPower);

        // Other readings with the round's estimator: another code
        // keys another table; equal code with other watts keys the
        // round's table, but still takes the full check.
        const std::uint64_t keyed = counted.powerKeys();
        expectFreshTerms(system, system.serviceTerms(counted, otherCode),
                         counted, otherCode);
        expectFreshTerms(system, system.serviceTerms(counted, otherWatts),
                         counted, otherWatts);
        EXPECT_EQ(counted.powerKeys(), keyed + 2);
        expectFreshTerms(system, system.serviceTerms(counted, roundPower),
                         counted, roundPower);

        // A probability that moves inside a round is seen.
        system.recordJobCompletion(system.job(2), {true});
        expectFreshTerms(system, system.serviceTerms(counted, roundPower),
                         counted, roundPower);
    }
    // Closed: every call keys again.
    const std::uint64_t versions = counted.versions();
    system.serviceTerms(counted, roundPower);
    system.serviceTerms(counted, roundPower);
    EXPECT_EQ(counted.versions(), versions + 2);
}

TEST(TaskSystem, CompletionEpochMatchesTwoFractionReference)
{
    // The epoch moves when some probability's *value* moves, decided
    // from window counts; the reference compares the two fractions as
    // doubles. Epoch bumps are observed as term-table re-derivations.
    for (const std::uint32_t window : {1u, 7u, 64u, 4096u}) {
        SCOPED_TRACE(::testing::Message() << "window " << window);
        SystemConfig config;
        config.taskWindow = window;
        const auto build = [&config] {
            auto system = std::make_unique<TaskSystem>(config);
            const TaskId a = system->addTask(
                "a", {{"a-high", 300, 9e-3}, {"a-low", 40, 9e-3}});
            const TaskId b = system->addTask("b", {{"b", 120, 4e-3}});
            system->addJob("ab", {a, b});
            system->addJob("b", {b});
            return system;
        };
        auto system = build();
        CountingEstimator counted(
            std::make_unique<EnergyAwareEstimator>(true));
        const PowerReading power{3e-3, 70};
        system->serviceTerms(counted, power);

        std::vector<std::deque<bool>> history(2);
        const auto reference = [&history](std::size_t task) {
            const std::deque<bool> &bits = history[task];
            if (bits.empty())
                return 1.0;
            const auto ones = std::count(bits.begin(), bits.end(), true);
            return static_cast<double>(ones) /
                static_cast<double>(bits.size());
        };

        std::mt19937_64 rng(0xe90c + window);
        const std::size_t steps = 3 * std::size_t{window} + 200;
        // Phases of always-run, never-run and mixed flags, so all-ones
        // and all-zeros windows (no move) and wrap-around both occur.
        const std::uint64_t skipOdds[] = {0, 1000, 8, 2, 1000, 0};
        std::size_t moves = 0;
        for (std::size_t step = 0; step < steps; ++step) {
            if (step == steps / 2) {
                std::string saved;
                system->saveCheckpoint(saved);
                system = build();
                util::wire::Reader in(saved);
                ASSERT_TRUE(system->loadCheckpoint(in));
                system->serviceTerms(counted, power); // restore drops it
            }
            const std::uint64_t odds = skipOdds[step * 6 / steps];
            const JobId jobId = rng() % 3 == 0 ? 1 : 0;
            const Job &job = system->job(jobId);
            std::vector<bool> executed;
            for (std::size_t i = 0; i < job.tasks.size(); ++i)
                executed.push_back(odds == 0 ? true
                                   : odds == 1000 ? false
                                                  : rng() % odds != 0);
            bool moved = false;
            for (std::size_t i = 0; i < job.tasks.size(); ++i) {
                const TaskId task = job.tasks[i];
                const double before = reference(task);
                history[task].push_back(executed[i]);
                if (history[task].size() > window)
                    history[task].pop_front();
                moved = moved || reference(task) != before;
            }
            const bool allRan = std::all_of(executed.begin(),
                                            executed.end(),
                                            [](bool ran) { return ran; });
            if (allRan && rng() % 2 == 0)
                system->recordJobCompletion(job);
            else
                system->recordJobCompletion(job, executed);

            const std::uint64_t before = counted.calls();
            system->serviceTerms(counted, power);
            ASSERT_EQ(counted.calls() != before, moved) << "step " << step;
            moves += moved;
            for (std::size_t task = 0; task < 2; ++task)
                ASSERT_EQ(std::bit_cast<std::uint64_t>(
                              system->executionProbability(
                                  static_cast<TaskId>(task))),
                          std::bit_cast<std::uint64_t>(reference(task)))
                    << "step " << step << " task " << task;
        }
        EXPECT_GT(moves, 0u);
        EXPECT_LT(moves, steps);
    }
}

TEST(TaskSystem, LoadCheckpointRejectsArrivalCursorOutsideTheWindow)
{
    SystemConfig config;
    config.arrivalWindow = 4;
    auto s = makeSmallSystem(config);
    for (int i = 0; i < 6; ++i)
        s.system->recordCapture(true);
    std::string saved;
    s.system->saveCheckpoint(saved);
    // Circuit state (4 doubles and a byte), then the window size 4
    // and its four counts: the arrival cursor follows.
    const std::size_t cursorAt = 4 * 8 + 1 + 1 + 4;
    ASSERT_EQ(saved[cursorAt], 1);
    saved[cursorAt] = 4;
    util::wire::Reader in(saved);
    EXPECT_FALSE(s.system->loadCheckpoint(in));
}

TEST(TaskSystem, LoadCheckpointRejectsWindowStateThatDoesNotFit)
{
    // A 128-bit window after 100 completions: cursor at bit 100.
    SystemConfig wide;
    wide.taskWindow = 128;
    auto s = makeSmallSystem(wide);
    for (int i = 0; i < 100; ++i)
        s.system->recordJobCompletion(s.system->job(s.classifyJob));
    std::string saved;
    s.system->saveCheckpoint(saved);

    // A 100-bit window has as many words but no bit 100; a 64-bit
    // one has fewer words. The window that wrote it takes it.
    for (const std::uint32_t window : {100u, 64u, 128u}) {
        SystemConfig config;
        config.taskWindow = window;
        auto restored = makeSmallSystem(config);
        util::wire::Reader in(saved);
        EXPECT_EQ(restored.system->loadCheckpoint(in), window == 128)
            << "window " << window;
    }
}

TEST(TaskSystemDeathTest, RegistrationValidation)
{
    auto s = makeSmallSystem();
    EXPECT_EXIT(s.system->addJob("bad", {}),
                ::testing::ExitedWithCode(1), "needs tasks");
    EXPECT_EXIT(s.system->addJob("bad", {99}),
                ::testing::ExitedWithCode(1), "unknown");
    // Two degradable tasks in one job violate the paper's constraint.
    EXPECT_EXIT(s.system->addJob("bad", {s.mlTask, s.radioTask}),
                ::testing::ExitedWithCode(1), "more than");
}

TEST(TaskSystemDeathTest, TaskLimitEnforced)
{
    TaskSystem system;
    for (std::size_t i = 0; i < kMaxTasks; ++i)
        system.addTask("t", {{"o", 10, 1e-3}});
    EXPECT_EXIT(system.addTask("over", {{"o", 10, 1e-3}}),
                ::testing::ExitedWithCode(1), "task limit");
}

} // namespace
} // namespace core
} // namespace quetzal
