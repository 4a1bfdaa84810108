/**
 * @file
 * Scheduling-policy interface and the Energy-aware SJF policy
 * (paper Algorithm 1).
 *
 * A policy inspects the input buffer and picks which job to run next
 * (and which buffered input it consumes). Energy-aware SJF selects
 * the job with the smallest expected *end-to-end* service time at
 * the measured input power — including energy-recharge time — which
 * minimizes mean wait across buffered inputs and so relieves buffer
 * pressure. Ties break toward the job holding the older input
 * (section 4.1). FCFS/LCFS comparison policies live in
 * baselines/policies.hpp.
 */

#ifndef QUETZAL_CORE_SCHEDULER_HPP
#define QUETZAL_CORE_SCHEDULER_HPP

#include <optional>
#include <string>

#include "core/observation.hpp"
#include "core/system.hpp"
#include "queueing/input_buffer.hpp"

namespace quetzal {
namespace core {

/** A policy's choice of what to run next. */
struct SchedulerDecision
{
    JobId jobId = 0;              ///< job class to execute
    queueing::SlotId slot = 0;    ///< buffer slot of the input it consumes
    /**
     * The policy's E[S] estimate for the chosen job (0 for policies
     * that do not estimate service times, e.g. FCFS).
     */
    double expectedServiceSeconds = 0.0;
    /**
     * Energy the policy claims the chosen job needs (0 when the
     * policy states no bound). A nonzero bound must never exceed the
     * stored energy it observed — the invariant harness enforces it.
     */
    double energyBoundJoules = 0.0;
};

/**
 * Strategy interface (Alg. 1's hook). select() is const: all mutable
 * history lives in TaskSystem / estimators, and the only thing a
 * policy may keep between calls is the snapshot observe() hands it
 * for the round being decided.
 */
class SchedulerPolicy
{
  public:
    virtual ~SchedulerPolicy() = default;

    /**
     * Pick the next job, or nullopt when the buffer holds no input.
     * @param pidCorrection seconds added to each job's E[S]
     *        prediction (the PID mitigation of section 4.3; 0 for
     *        policies that do not predict)
     */
    virtual std::optional<SchedulerDecision>
    select(const TaskSystem &system, const queueing::InputBuffer &buffer,
           const ServiceTimeEstimator &estimator,
           const PowerReading &power, double pidCorrection) const = 0;

    /**
     * Device-state snapshot for the upcoming round (stored energy,
     * capacity, current tick). Called before select(); the default
     * ignores it, which keeps legacy policies byte-identical.
     */
    virtual void observe(const RuntimeObservation &) {}

    /** Human-readable policy name. */
    virtual std::string name() const = 0;
};

/**
 * The paper's Energy-aware SJF (Algorithm 1).
 */
class EnergyAwareSjfPolicy : public SchedulerPolicy
{
  public:
    std::optional<SchedulerDecision>
    select(const TaskSystem &system, const queueing::InputBuffer &buffer,
           const ServiceTimeEstimator &estimator,
           const PowerReading &power, double pidCorrection) const override;

    std::string name() const override { return "energy-aware-sjf"; }
};

} // namespace core
} // namespace quetzal

#endif // QUETZAL_CORE_SCHEDULER_HPP
