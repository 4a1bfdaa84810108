/**
 * @file
 * The pluggable scheduling-policy interface (the policy zoo).
 *
 * A policy::SchedulingPolicy bundles the three decision points the
 * paper splits across Scheduler and ReactionEngine: candidate
 * ranking (which buffered input runs next), admission/degradation
 * (at what quality it runs) and the IBO reaction hook (what to do
 * when a capture is dropped). The incumbent SJF+IBO pipeline is one
 * implementation (policy::CompositePolicy over the legacy pair);
 * competitors from the related work — Zygarde-style deadline-aware
 * EDF and Delgado & Famaey-style energy-optimal lookahead — are
 * others. Policies plug into the unchanged core::Controller through
 * the bridge adapters in bridge.hpp, so the simulator and every
 * existing experiment driver run any registered policy without
 * modification.
 */

#ifndef QUETZAL_POLICY_POLICY_HPP
#define QUETZAL_POLICY_POLICY_HPP

#include <optional>
#include <string>

#include "core/ibo_engine.hpp"
#include "core/observation.hpp"
#include "core/scheduler.hpp"
#include "core/system.hpp"
#include "queueing/input_buffer.hpp"

namespace quetzal {
namespace policy {

/**
 * Everything a policy may observe when making a decision. References
 * are valid only for the duration of the call.
 */
struct PolicyContext
{
    const core::TaskSystem &system;
    const queueing::InputBuffer &buffer;
    const core::ServiceTimeEstimator &estimator;
    const core::PowerReading &power;
    /** PID correction in seconds (0 when the loop is disabled). */
    double pidCorrection = 0.0;
    /** Device-state snapshot (stored energy, capacity, tick). */
    core::RuntimeObservation runtime;
};

/**
 * A complete scheduling policy: ranking + admission + IBO reaction.
 *
 * Decisions must be a pure function of the observable state (the
 * context plus any internal state that itself evolved only from
 * prior contexts/overflow notifications) — the invariant harness in
 * verify.hpp enforces this by replaying identical walks.
 */
class SchedulingPolicy
{
  public:
    virtual ~SchedulingPolicy() = default;

    /** Registry name ("sjf-ibo", "zygarde", ...). */
    virtual std::string name() const = 0;

    /**
     * Rank the buffered candidates and pick what runs next, or
     * nullopt when nothing is schedulable. A nonzero
     * energyBoundJoules in the decision must not exceed
     * ctx.runtime.storedEnergy.
     */
    virtual std::optional<core::SchedulerDecision>
    rank(const PolicyContext &ctx) = 0;

    /**
     * Admission/degradation decision for the job rank() chose: at
     * what quality each of its tasks runs.
     */
    virtual core::AdaptationDecision
    admit(const PolicyContext &ctx, const core::Job &job) = 0;

    /** IBO reaction hook: a capture was dropped. Default: ignore. */
    virtual void onBufferOverflow(const core::TaskSystem &,
                                  const queueing::InputBuffer &,
                                  const queueing::InputRecord &, Tick)
    {
    }

    /**
     * Names reported through Controller::scheduler()/adaptation()
     * (legacy tests pin the incumbent's component names). Default:
     * the policy name for both halves.
     */
    virtual std::string selectorName() const { return name(); }
    virtual std::string adaptationName() const { return name(); }
};

} // namespace policy
} // namespace quetzal

#endif // QUETZAL_POLICY_POLICY_HPP
