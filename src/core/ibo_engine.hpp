/**
 * @file
 * Adaptation-policy interface and Quetzal's IBO-detection and
 * reaction engine (paper Algorithm 2).
 *
 * After the scheduler picks a job, an adaptation policy decides at
 * what quality to run the job's degradable task. Quetzal's engine
 * predicts the buffer occupancy at job completion with Little's Law;
 * if an overflow is imminent it walks the quality-ordered option
 * list and selects the *highest-quality* option that avoids the
 * predicted overflow, falling back to the option with the lowest
 * S_e2e when none does. Baseline adaptation policies (NoAdapt,
 * AlwaysDegrade, buffer/power thresholds) live in
 * baselines/adaptation.hpp.
 */

#ifndef QUETZAL_CORE_IBO_ENGINE_HPP
#define QUETZAL_CORE_IBO_ENGINE_HPP

#include <string>
#include <vector>

#include "core/observation.hpp"
#include "core/system.hpp"
#include "queueing/input_buffer.hpp"

namespace quetzal {
namespace core {

/** An adaptation policy's quality decision for one job execution. */
struct AdaptationDecision
{
    /** Option index per position in job.tasks (0 == full quality). */
    OptionVec optionPerTask;
    /** E[S] of the job as configured (0 if the policy has no model). */
    double predictedServiceSeconds = 0.0;
    /** True when Little's Law predicted an overflow before reaction. */
    bool iboPredicted = false;
    /** True when any task was degraded below full quality. */
    bool degraded = false;
    /**
     * True when the chosen configuration is predicted to avoid the
     * overflow (always true when none was predicted).
     */
    bool overflowAvoided = true;
};

/**
 * Strategy interface for quality adaptation.
 */
class AdaptationPolicy
{
  public:
    virtual ~AdaptationPolicy() = default;

    /**
     * Decide the degradation options for a scheduled job.
     * @param pidCorrection seconds added to E[S] predictions
     */
    virtual AdaptationDecision
    adapt(const TaskSystem &system, const Job &job,
          const queueing::InputBuffer &buffer,
          const ServiceTimeEstimator &estimator, const PowerReading &power,
          double pidCorrection) = 0;

    /**
     * Device-state snapshot for the upcoming round. Called before
     * adapt(); the default ignores it (byte-inert for legacy
     * policies).
     */
    virtual void observe(const RuntimeObservation &) {}

    /**
     * Notification that a capture was dropped because the input
     * buffer was full. Reactive policies can use it as overflow
     * pressure; the default ignores it.
     */
    virtual void onBufferOverflow(const TaskSystem &,
                                  const queueing::InputBuffer &,
                                  const queueing::InputRecord &, Tick)
    {
    }

    /** Human-readable policy name. */
    virtual std::string name() const = 0;

    /**
     * @name Checkpoint hooks
     * Serialize / restore mutable adaptation state (see
     * ServiceTimeEstimator's hooks). Stateless policies keep the
     * no-op defaults; loadState() returns false on malformed bytes.
     */
    /// @{
    virtual void saveState(std::string &out) const { (void)out; }
    virtual bool loadState(util::wire::Reader &in)
    {
        (void)in;
        return true;
    }
    /// @}
};

/**
 * The paper's IBO-detection and reaction engine (Algorithm 2).
 *
 * Little's Law is evaluated over the *backlog-drain horizon*: the
 * expected arrivals while the device works through everything
 * currently buffered (each input's service estimated at its tasks'
 * current quality settings). With sub-second jobs, the horizon of a
 * single job cannot anticipate an overflow that builds across the
 * next several arrivals; the drain horizon can, which is what lets
 * the engine degrade early enough — and only as much as required —
 * to avoid the overflow (section 4.2). The engine keeps per-task
 * quality state so one job's decision prices the other jobs'
 * buffered work realistically; every evaluation starts back at full
 * quality, so recovery is automatic.
 */
class IboReactionEngine : public AdaptationPolicy
{
  public:
    AdaptationDecision
    adapt(const TaskSystem &system, const Job &job,
          const queueing::InputBuffer &buffer,
          const ServiceTimeEstimator &estimator, const PowerReading &power,
          double pidCorrection) override;

    std::string name() const override { return "ibo-engine"; }

    /** Serializes the per-task current-option settings. */
    void saveState(std::string &out) const override;
    bool loadState(util::wire::Reader &in) override;

    /**
     * Expected seconds to serve every buffered input at the tasks'
     * current quality settings, with one task's option overridden
     * (the candidate under evaluation): the FIFO-order sum of each
     * record's TaskSystem::serviceTerms().
     */
    double backlogServiceSeconds(const TaskSystem &system,
                                 const queueing::InputBuffer &buffer,
                                 const ServiceTimeEstimator &estimator,
                                 const PowerReading &power,
                                 TaskId overrideTask,
                                 std::size_t overrideOption) const;

  private:
    /** Last option the engine chose per task (lazily sized). */
    std::vector<std::size_t> currentOption;

    /**
     * Per-task E[S] terms at the options of one backlogServiceSeconds
     * call, gathered from the system's term table so the per-record
     * loop indexes one flat array.
     */
    mutable std::vector<double> taskTermScratch;
};

} // namespace core
} // namespace quetzal

#endif // QUETZAL_CORE_IBO_ENGINE_HPP
