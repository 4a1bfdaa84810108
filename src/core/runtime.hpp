/**
 * @file
 * Controller: the runtime object that glues a scheduling policy, an
 * adaptation policy, a service-time estimator and (optionally) the
 * PID error-mitigation loop into the decision pipeline of Figure 5:
 *
 *   input leaves queue -> scheduler selects job -> adaptation picks
 *   degradation options -> job runs -> completion feeds the trackers,
 *   the estimator and the PID controller.
 *
 * Quetzal itself is one Controller configuration (Energy-aware SJF +
 * IBO engine + energy-aware estimator + PID); every baseline in the
 * paper is another configuration of the same machinery, which is what
 * makes the head-to-head experiments apples-to-apples.
 */

#ifndef QUETZAL_CORE_RUNTIME_HPP
#define QUETZAL_CORE_RUNTIME_HPP

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ibo_engine.hpp"
#include "core/pid.hpp"
#include "core/scheduler.hpp"
#include "core/system.hpp"
#include "obs/trace_sink.hpp"
#include "util/stats.hpp"
#include "util/wire.hpp"

namespace quetzal {
namespace core {

/** The full decision for one job execution. */
struct JobSelection
{
    JobId jobId = 0;
    queueing::SlotId slot = 0; ///< buffer slot of the consumed input
    OptionVec optionPerTask;
    double predictedServiceSeconds = 0.0;
    /** Policy-declared energy bound for the job (0 = no bound). */
    double energyBoundJoules = 0.0;
    bool iboPredicted = false;
    bool degraded = false;
    /**
     * Sequence number of the scheduling round that produced this
     * selection (0-based, counts successful selections). Links a
     * decision's trace events (schedule, per-task E[S] terms, PID
     * update) to the observed outcome the simulator reports.
     */
    std::uint64_t decisionSeq = 0;
};

/** Aggregate counters a controller accumulates over a run. */
struct ControllerStats
{
    std::uint64_t invocations = 0;
    std::uint64_t iboPredictions = 0;
    std::uint64_t degradedJobs = 0;
    std::uint64_t jobsCompleted = 0;
    /** observed - predicted E[S] (only when a prediction was made). */
    util::RunningStats predictionError;
};

/**
 * Policy bundle + runtime feedback loops.
 */
class Controller
{
  public:
    /**
     * @param pidConfig enable the section-4.3 PID loop when present
     */
    Controller(std::string name,
               std::unique_ptr<SchedulerPolicy> scheduler,
               std::unique_ptr<AdaptationPolicy> adaptation,
               std::unique_ptr<ServiceTimeEstimator> estimator,
               std::optional<PidConfig> pidConfig = std::nullopt);

    /** Display name (used in benchmark tables). */
    const std::string &name() const { return controllerName; }

    /**
     * Run one scheduling round: measure power, select a job, choose
     * degradation options. Returns nullopt when nothing is queued.
     * Both policies run inside one TaskSystem::ServiceRound over the
     * controller's estimator and the measured reading.
     * @param runtime device-state snapshot forwarded to both policies
     *        via observe() (default empty keeps legacy callers valid)
     */
    std::optional<JobSelection>
    selectJob(TaskSystem &system, const queueing::InputBuffer &buffer,
              Watts truePower, const RuntimeObservation &runtime = {});

    /**
     * Report a capture dropped on buffer overflow; forwards to the
     * adaptation policy's onBufferOverflow hook (no-op for the
     * incumbent policies).
     */
    void onInputDropped(const TaskSystem &system,
                        const queueing::InputBuffer &buffer,
                        const queueing::InputRecord &dropped, Tick now);

    /**
     * Report one task execution's observed end-to-end time (feeds
     * history-based estimators).
     */
    void onTaskComplete(const TaskSystem &system, TaskId task,
                        std::size_t optionIndex, double observedSeconds);

    /**
     * Report job completion: updates execution-probability windows
     * and advances the PID loop with the prediction error.
     * @param executedPerTask which of the job's tasks actually ran
     */
    void onJobComplete(TaskSystem &system, const JobSelection &selection,
                       const std::vector<bool> &executedPerTask,
                       double observedSeconds);

    /** onJobComplete() for a job whose every task ran. */
    void onJobComplete(TaskSystem &system, const JobSelection &selection,
                       double observedSeconds);

    /** Current PID output (0 when the loop is disabled). */
    double pidCorrection() const;

    /**
     * Attach a telemetry recorder (see obs::Recorder). The recorder
     * must outlive the controller's use; pass nullptr to detach.
     * Decision events (scheduler pick with per-task E[S] terms, IBO
     * prediction, degradation choice, PID error/output) are recorded
     * against the recorder's run clock.
     */
    void setObserver(obs::Recorder *recorder) { observer = recorder; }

    /** Counters accumulated so far. */
    const ControllerStats &stats() const { return runStats; }

    /** Collaborator access (tests and benches). */
    const SchedulerPolicy &scheduler() const { return *schedPolicy; }
    const AdaptationPolicy &adaptation() const { return *adaptPolicy; }
    ServiceTimeEstimator &estimator() { return *serviceEstimator; }

    /**
     * @name Checkpoint
     * Serialize / restore the controller's mutable runtime state:
     * counters, the PID loop, and the estimator's / adaptation
     * policy's histories (via their saveState hooks). The policy
     * bundle itself is configuration — the restoring controller must
     * be built identically. loadCheckpoint() returns false on
     * malformed bytes or a PID-presence mismatch.
     */
    /// @{
    void saveCheckpoint(std::string &out) const;
    bool loadCheckpoint(util::wire::Reader &in);
    /// @}

  private:
    /** Counters and the PID loop; the windows are already updated. */
    void feedBackCompletion(const JobSelection &selection,
                            double observedSeconds);

    std::string controllerName;
    std::unique_ptr<SchedulerPolicy> schedPolicy;
    std::unique_ptr<AdaptationPolicy> adaptPolicy;
    std::unique_ptr<ServiceTimeEstimator> serviceEstimator;
    std::optional<PidController> pid;
    ControllerStats runStats;
    obs::Recorder *observer = nullptr;
    std::uint64_t decisionCounter = 0;
};

/** Options for the stock Quetzal controller. */
struct QuetzalOptions
{
    bool useCircuit = true; ///< Alg. 3 codes vs exact float power
    bool usePid = true;     ///< section 4.3 error mitigation
    PidConfig pidConfig;    ///< Table 1 gains by default
};

/**
 * The paper's Quetzal: Energy-aware SJF + IBO engine + energy-aware
 * estimator + PID.
 */
std::unique_ptr<Controller>
makeQuetzalController(const QuetzalOptions &options = {});

} // namespace core
} // namespace quetzal

#endif // QUETZAL_CORE_RUNTIME_HPP
