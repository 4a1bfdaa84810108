/**
 * @file
 * TaskSystem: the registry and shared runtime state every controller
 * (Quetzal and all baselines) operates on.
 *
 * Owns the registered tasks and jobs, the power-measurement circuit
 * (used at profile time to record execution-power codes and at run
 * time to read input power), the arrival-rate tracker, and the
 * per-task execution-probability trackers. This is the software
 * library of paper section 5.1, host-side.
 */

#ifndef QUETZAL_CORE_SYSTEM_HPP
#define QUETZAL_CORE_SYSTEM_HPP

#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "core/job.hpp"
#include "core/service_time.hpp"
#include "core/task.hpp"
#include "hw/power_monitor_circuit.hpp"
#include "queueing/rate_tracker.hpp"
#include "util/types.hpp"

namespace quetzal {
namespace core {

/** Configuration for a TaskSystem. */
struct SystemConfig
{
    std::uint32_t taskWindow = 64;     ///< paper Table 1
    std::uint32_t arrivalWindow = 256; ///< paper Table 1
    double captureHz = 1.0;            ///< capture attempts per second
    hw::CircuitConfig circuit;         ///< measurement hardware
};

/**
 * Registry plus live trackers. Mutation discipline: tasks/jobs are
 * registered up front; during a run only the trackers and circuit
 * state change.
 */
class TaskSystem
{
  public:
    explicit TaskSystem(const SystemConfig &config = {});

    /** Static configuration. */
    const SystemConfig &config() const { return cfg; }

    /** @name Registration (setup phase) */
    /// @{
    /**
     * Register a task with quality-ordered degradation options.
     * Profiles each option through the circuit (records its
     * execution-power ADC code and premultiplied latency table).
     */
    TaskId addTask(const std::string &name,
                   const std::vector<DegradationOptionSpec> &options);

    /**
     * Register a job over previously registered tasks. Validates the
     * paper's constraint of at most one degradable task per job.
     * @param onPositive successor job spawned on a positive outcome
     */
    JobId addJob(const std::string &name,
                 const std::vector<TaskId> &tasks,
                 std::optional<JobId> onPositive = std::nullopt);
    /// @}

    /** @name Lookup */
    /// @{
    const Task &
    task(TaskId id) const
    {
        if (id >= taskList.size())
            badId("task", id);
        return taskList[id];
    }

    const Job &
    job(JobId id) const
    {
        if (id >= jobList.size())
            badId("job", id);
        return jobList[id];
    }
    const std::vector<Task> &tasks() const { return taskList; }
    const std::vector<Job> &jobs() const { return jobList; }
    std::size_t taskCount() const { return taskList.size(); }
    std::size_t jobCount() const { return jobList.size(); }
    /// @}

    /** @name Live tracking */
    /// @{
    /** Record a capture attempt (stored into the buffer or not). */
    void recordCapture(bool stored);

    /**
     * Record a spawn re-insertion (section 3.1): one job re-entered
     * its input into the buffer for a successor job. Spawns occupy
     * buffer slots, so they count as queue arrivals for lambda.
     */
    void recordSpawn();

    /** Current lambda estimate (arrivals per second). */
    double arrivalsPerSecond() const;

    /**
     * Record a completed job: atomically appends one bit to each of
     * the job's tasks' execution windows (1 if the task ran for this
     * input, 0 if it was skipped), the paper's bit-vector update.
     * The resulting estimate is the probability a task executes
     * given its job is scheduled — the weight Alg. 1 uses.
     */
    void recordJobCompletion(const Job &job,
                             const std::vector<bool> &executedPerTask);

    /** recordJobCompletion() for a job whose every task ran. */
    void recordJobCompletion(const Job &job);

    /** Execution-probability estimate for a task. */
    double
    executionProbability(TaskId id) const
    {
        if (id >= probTrackers.size())
            badId("task", id);
        return probTrackers[id].probability();
    }

    /**
     * Measure input power through the circuit: updates the physical
     * side and returns both the exact watts and the ADC code.
     */
    PowerReading measureInputPower(Watts truePower);

    /** Mutable circuit access (simulator drives temperature etc.). */
    hw::PowerMonitorCircuit &circuit() { return monitor; }
    const hw::PowerMonitorCircuit &circuit() const { return monitor; }
    /// @}

    /**
     * Alg. 1's per-task terms, P(task) x estimator.estimate(option,
     * power), one per task option: read terms[serviceTermIndex(task,
     * option)]. The table is derived again only when one of its
     * inputs changed since the last call: the estimator instance, its
     * version(), its powerKey(power), or some execution probability.
     * Inside a ServiceRound, calls with the round's estimator and
     * reading check that key once and then read the table directly.
     * Each entry is the very double a fresh product gives, so every
     * sum over the table is bit-identical to recomputing it. The
     * pointer is valid until the next call.
     */
    const double *
    serviceTerms(const ServiceTimeEstimator &estimator,
                 const PowerReading &power) const
    {
        // Inside a round the key cannot change, so once it has been
        // checked the table is read as it stands.
        if (round.keyChecked && roundInputs(estimator, power))
            return termTable.data();
        return checkedTerms(estimator, power);
    }

    /**
     * One scheduling round's scope over serviceTerms(). A decision
     * reads the table under one estimator and one power reading, and
     * neither the estimator's history nor any execution probability
     * can change before it ends (policies see both as const), so the
     * key is checked on the round's first serviceTerms() call only.
     * A call with another estimator instance or another reading takes
     * the full key check. Closes when it goes out of scope.
     */
    class ServiceRound
    {
      public:
        ServiceRound(TaskSystem &system,
                     const ServiceTimeEstimator &estimator,
                     const PowerReading &power)
            : owner(system)
        {
            // Field by field: an aggregate copy of the padded Round
            // goes through a stack temporary whose overlapping loads
            // stall store forwarding on every decision.
            owner.round.estimator = &estimator;
            owner.round.watts = std::bit_cast<std::uint64_t>(power.watts);
            owner.round.code = power.code;
            owner.round.keyChecked = false;
        }
        ~ServiceRound() { owner.round.estimator = nullptr; }
        ServiceRound(const ServiceRound &) = delete;
        ServiceRound &operator=(const ServiceRound &) = delete;

      private:
        TaskSystem &owner;
    };

    /** Where serviceTerms() keeps a task option's term. */
    std::size_t
    serviceTermIndex(TaskId id, std::size_t option) const
    {
        if (option >= task(id).optionCount())
            badId("option", option);
        return termOffset[id] + option;
    }

    /**
     * Expected service seconds of a whole job: per-task S_e2e
     * weighted by execution probability (Alg. 1 line 7), using the
     * given estimator and per-task option choices: the job's
     * serviceTerms() summed in task order.
     * @param optionPerTask option index per position in job.tasks;
     *        pass {} for all-highest-quality
     */
    double
    expectedJobService(const Job &job, const ServiceTimeEstimator &estimator,
                       const PowerReading &power,
                       const OptionVec &optionPerTask = {}) const
    {
        if (!optionPerTask.empty() &&
            optionPerTask.size() != job.tasks.size())
            badOptionCount();
        const double *terms = serviceTerms(estimator, power);
        double expected = 0.0;
        for (std::size_t i = 0; i < job.tasks.size(); ++i)
            expected += terms[serviceTermIndex(
                job.tasks[i], optionPerTask.empty() ? 0 : optionPerTask[i])];
        return expected;
    }

    /**
     * @name Checkpoint
     * Serialize / restore the live trackers, circuit physical state
     * and revision counter. The registry (tasks, jobs) and config are
     * configuration: the restoring system must be built identically,
     * and loadCheckpoint() returns false when the tracker count
     * disagrees with the registered tasks (or on malformed bytes).
     * The term table and the measurement memo are caches, dropped on
     * restore — a miss recomputes the exact double a hit would have
     * replayed, so this is byte-inert.
     */
    /// @{
    void saveCheckpoint(std::string &out) const;
    bool loadCheckpoint(util::wire::Reader &in);
    /// @}

  private:
    /** Cold panic paths kept out of line so the lookups inline. */
    [[noreturn]] static void badId(const char *what, std::uint64_t id);
    [[noreturn]] static void badOptionCount();

    /**
     * serviceTerms() past the in-round fast path: check the key,
     * re-derive the table when it changed, and mark the round's key
     * checked when the call carries the round's inputs.
     */
    const double *checkedTerms(const ServiceTimeEstimator &estimator,
                               const PowerReading &power) const;

    /** Everything a term depends on besides its task and option. */
    struct TermKey
    {
        std::uint64_t estimatorId = 0;
        std::uint64_t estimatorVersion = 0;
        std::uint64_t powerKey = 0;
        std::uint64_t probabilityEpoch = 0;
        bool operator==(const TermKey &) const = default;
    };

    SystemConfig cfg;
    hw::PowerMonitorCircuit monitor;
    std::vector<Task> taskList;
    std::vector<Job> jobList;
    queueing::ArrivalRateTracker arrivalTracker;
    std::vector<queueing::ExecutionProbabilityTracker> probTrackers;
    /**
     * Counts completions and registrations; serialized so checkpoint
     * archives keep their layout, but no cache keys on it.
     */
    std::uint64_t stateRevision = 0;

    /**
     * Advances whenever some execution probability *value* may have
     * changed (task registration, a completion that moved a window's
     * fraction, a restore). Completions that leave every probability
     * where it was — every task executed and its window already all
     * ones — keep the term table.
     */
    std::uint64_t probabilityEpoch = 0;

    /** Both recordJobCompletion()s; nullptr flags: every task ran. */
    void appendCompletion(const Job &job,
                          const std::vector<bool> *executedPerTask);

    /**
     * The open ServiceRound (estimator == nullptr when none).
     * keyChecked: the table holds the terms of the round's key, so
     * in-round calls can skip the key check. A key check sets it when
     * the call carries the round's inputs and clears it otherwise; a
     * probability-epoch move clears it too.
     */
    struct Round
    {
        const ServiceTimeEstimator *estimator = nullptr;
        std::uint64_t watts = 0; ///< the reading's watts, as bits
        std::uint8_t code = 0;
        bool keyChecked = false;
    };
    mutable Round round;

    /** Does a serviceTerms() call carry the open round's inputs? */
    bool
    roundInputs(const ServiceTimeEstimator &estimator,
                const PowerReading &power) const
    {
        return round.estimator == &estimator &&
            round.watts == std::bit_cast<std::uint64_t>(power.watts) &&
            round.code == power.code;
    }

    /** First serviceTerms() entry of each task. */
    std::vector<std::size_t> termOffset;
    /** The terms, and the key they were derived under. */
    mutable std::vector<double> termTable;
    mutable std::optional<TermKey> termKey;

    /**
     * Memo of the last input-power measurement. The harvested power
     * is piecewise-constant over multi-second trace segments while
     * jobs are scheduled every few milliseconds, so consecutive
     * measurements overwhelmingly repeat the same watts. The ADC
     * code is pure in (power, junction temperature, circuit config),
     * so replaying the cached code is bit-identical to re-measuring;
     * a temperature change invalidates the memo.
     */
    Watts lastMeasureWatts = 0.0;
    Kelvin lastMeasureTemperature = 0.0;
    std::uint8_t lastMeasureCode = 0;
    bool measureMemoValid = false;
};

} // namespace core
} // namespace quetzal

#endif // QUETZAL_CORE_SYSTEM_HPP
