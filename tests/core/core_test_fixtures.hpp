/**
 * @file
 * Shared fixtures for the core-module tests: a small two-job system
 * mirroring the person-detection shape (classify spawns transmit),
 * with costs chosen to make expected values easy to verify by hand.
 */

#ifndef QUETZAL_TESTS_CORE_TEST_FIXTURES_HPP
#define QUETZAL_TESTS_CORE_TEST_FIXTURES_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "core/system.hpp"
#include "queueing/input_buffer.hpp"

namespace quetzal {
namespace core {
namespace testing_fixtures {

/** Ids of the small reference system. */
struct SmallSystem
{
    std::unique_ptr<TaskSystem> system;
    TaskId mlTask = 0;
    TaskId radioTask = 0;
    JobId classifyJob = 0;
    JobId transmitJob = 0;
};

/**
 * Build the reference system:
 *  ml-task:    high = 1000 ticks @ 20 mW (20 mJ),
 *              low  =  100 ticks @ 10 mW (1 mJ)
 *  radio-task: high =  800 ticks @ 100 mW (80 mJ),
 *              low  =   50 ticks @ 100 mW (5 mJ)
 *  classify = [ml-task] -> transmit on positive
 *  transmit = [radio-task]
 */
inline SmallSystem
makeSmallSystem(const SystemConfig &config = {})
{
    SmallSystem s;
    s.system = std::make_unique<TaskSystem>(config);
    s.mlTask = s.system->addTask(
        "ml-task", {{"ml-high", 1000, 20e-3}, {"ml-low", 100, 10e-3}});
    s.radioTask = s.system->addTask(
        "radio-task",
        {{"radio-high", 800, 100e-3}, {"radio-low", 50, 100e-3}});
    s.transmitJob = s.system->addJob("transmit", {s.radioTask});
    s.classifyJob = s.system->addJob("classify", {s.mlTask},
                                     s.transmitJob);
    return s;
}

/**
 * Alg. 1's E[S] recomputed from scratch: P(task) x estimate in task
 * order, the walk the term table must reproduce bit for bit.
 */
inline double
referenceService(const TaskSystem &system, const Job &job,
                 const ServiceTimeEstimator &estimator,
                 const PowerReading &power, const OptionVec &options)
{
    double expected = 0.0;
    for (std::size_t i = 0; i < job.tasks.size(); ++i) {
        const Task &task = system.task(job.tasks[i]);
        expected += system.executionProbability(task.id()) *
            estimator.estimate(task.option(options.empty() ? 0 : options[i]),
                               power);
    }
    return expected;
}

/** Jobs over shared tasks with one, two and three options. */
inline TaskSystem
makeMixedSystem()
{
    SystemConfig config;
    config.taskWindow = 8; // short windows: probabilities move often
    TaskSystem system(config);
    const TaskId sense = system.addTask("sense", {{"s", 40, 2e-3}});
    const TaskId classify = system.addTask(
        "classify", {{"c-high", 900, 25e-3},
                     {"c-mid", 300, 18e-3},
                     {"c-low", 60, 9e-3}});
    const TaskId compress = system.addTask(
        "compress", {{"z-high", 200, 12e-3}, {"z-low", 30, 12e-3}});
    const TaskId radio = system.addTask("radio", {{"r", 500, 90e-3}});
    system.addJob("detect", {sense, classify, radio});
    system.addJob("archive", {sense, compress});
    system.addJob("send", {radio});
    system.addJob("reclassify", {classify, sense});
    return system;
}

/**
 * Estimator decorator that counts estimate(), version() and
 * powerKey() calls and forwards everything, so the decorated
 * estimator caches exactly like the inner one.
 */
class CountingEstimator final : public ServiceTimeEstimator
{
  public:
    explicit CountingEstimator(std::unique_ptr<ServiceTimeEstimator> inner_)
        : inner(std::move(inner_))
    {
    }

    double
    estimate(const DegradationOption &option,
             const PowerReading &power) const override
    {
        ++estimateCalls;
        return inner->estimate(option, power);
    }

    void
    recordObservation(const DegradationOption &option,
                      double observedSeconds) override
    {
        inner->recordObservation(option, observedSeconds);
    }

    std::string name() const override { return inner->name(); }

    std::uint64_t
    version() const override
    {
        ++versionCalls;
        return inner->version();
    }

    std::uint64_t
    powerKey(const PowerReading &power) const override
    {
        ++powerKeyCalls;
        return inner->powerKey(power);
    }

    void saveState(std::string &out) const override { inner->saveState(out); }
    bool loadState(util::wire::Reader &in) override
    {
        return inner->loadState(in);
    }

    /** estimate() calls so far. */
    std::uint64_t calls() const { return estimateCalls; }

    /** version() calls so far. */
    std::uint64_t versions() const { return versionCalls; }

    /** powerKey() calls so far. */
    std::uint64_t powerKeys() const { return powerKeyCalls; }

  private:
    std::unique_ptr<ServiceTimeEstimator> inner;
    mutable std::uint64_t estimateCalls = 0;
    mutable std::uint64_t versionCalls = 0;
    mutable std::uint64_t powerKeyCalls = 0;
};

/** Push a classify-stage input with the given id/capture time. */
inline void
pushInput(queueing::InputBuffer &buffer, const SmallSystem &s,
          std::uint64_t id, Tick captureTick, JobId job,
          bool interesting = true)
{
    (void)s;
    queueing::InputRecord record;
    record.id = id;
    record.captureTick = captureTick;
    record.enqueueTick = captureTick;
    record.jobId = job;
    record.interesting = interesting;
    buffer.tryPush(record);
}

} // namespace testing_fixtures
} // namespace core
} // namespace quetzal

#endif // QUETZAL_TESTS_CORE_TEST_FIXTURES_HPP
