#include "policy/zoo.hpp"

#include <algorithm>
#include <limits>

#include "util/wire.hpp"

namespace quetzal {
namespace policy {

namespace {

/**
 * Everything one zoo decision reads: the Controller's select/adapt
 * arguments plus the device snapshot the half kept from observe().
 * References are valid only for the duration of the call.
 */
struct Context
{
    const core::TaskSystem &system;
    const queueing::InputBuffer &buffer;
    const core::ServiceTimeEstimator &estimator;
    const core::PowerReading &power;
    double pidCorrection;
    core::RuntimeObservation runtime;
};

/** The staleness bound shared with Metrics::deadlineMisses: the time
 *  the buffer takes to cycle once at the nominal capture rate. */
double
deadlineSeconds(const Context &ctx)
{
    const double hz = ctx.system.config().captureHz;
    return static_cast<double>(ctx.buffer.capacity()) /
           (hz > 0.0 ? hz : 1.0);
}

/**
 * E[S] of a job (with options) plus the PID correction, unclamped.
 * Comparisons between options must use this form: once the correction
 * saturates negative, the clamped services of every option collapse
 * to 0 and become indistinguishable.
 */
double
rawService(const Context &ctx, const core::Job &job,
           const core::OptionVec &options = {})
{
    return ctx.system.expectedJobService(job, ctx.estimator, ctx.power,
                                         options) +
        ctx.pidCorrection;
}

/** rawService() clamped for reporting as a predicted service time. */
double
predictedService(const Context &ctx, const core::Job &job,
                 const core::OptionVec &options = {})
{
    return std::max(0.0, rawService(ctx, job, options));
}

/**
 * Execution-probability-weighted energy of one job run, with the
 * degradable task (if any) at the given option index.
 */
Joules
jobEnergy(const core::TaskSystem &system, const core::Job &job,
          std::size_t degOption)
{
    Joules total = 0.0;
    for (std::size_t i = 0; i < job.tasks.size(); ++i) {
        const core::TaskId taskId = job.tasks[i];
        const core::Task &task = system.task(taskId);
        const std::size_t optionIndex =
            (job.degradableIndex && *job.degradableIndex == i) ? degOption
                                                               : 0;
        total += system.executionProbability(taskId) *
                 task.option(optionIndex).energy();
    }
    return total;
}

/** Cheapest-config energy of a job and the option that achieves it. */
std::pair<Joules, std::size_t>
minimalJobEnergy(const core::TaskSystem &system, const core::Job &job)
{
    std::size_t bestOption = 0;
    Joules best = jobEnergy(system, job, 0);
    if (job.degradableIndex) {
        const core::Task &deg =
            system.task(job.tasks[*job.degradableIndex]);
        for (std::size_t o = 1; o < deg.optionCount(); ++o) {
            const Joules e = jobEnergy(system, job, o);
            if (e < best) {
                best = e;
                bestOption = o;
            }
        }
    }
    return {best, bestOption};
}

} // namespace

std::optional<core::SchedulerDecision>
ZygardeScheduler::select(const core::TaskSystem &system,
                         const queueing::InputBuffer &buffer,
                         const core::ServiceTimeEstimator &estimator,
                         const core::PowerReading &power,
                         double pidCorrection) const
{
    const Context ctx{system, buffer, estimator, power, pidCorrection, {}};
    // Earliest deadline first == oldest capture first: every input
    // carries the same relative deadline, so urgency is input age.
    std::optional<core::SchedulerDecision> best;
    Tick bestCaptureTick = 0;
    for (const core::Job &job : ctx.system.jobs()) {
        const auto slot = ctx.buffer.oldestSlotForJob(job.id);
        if (!slot)
            continue;
        const Tick captureTick = ctx.buffer.record(*slot).captureTick;
        if (best && captureTick >= bestCaptureTick)
            continue;
        core::SchedulerDecision decision;
        decision.jobId = job.id;
        decision.slot = *slot;
        decision.expectedServiceSeconds = predictedService(ctx, job);
        best = decision;
        bestCaptureTick = captureTick;
    }
    return best;
}

core::AdaptationDecision
ZygardeAdmission::adapt(const core::TaskSystem &system,
                        const core::Job &job,
                        const queueing::InputBuffer &buffer,
                        const core::ServiceTimeEstimator &estimator,
                        const core::PowerReading &power,
                        double pidCorrection)
{
    const Context ctx{system, buffer, estimator, power, pidCorrection,
                      runtime};
    double age = 0.0;
    if (const auto slot = ctx.buffer.oldestSlotForJob(job.id)) {
        age = ticksToSeconds(ctx.runtime.now -
                             ctx.buffer.record(*slot).captureTick);
    }
    const double slack = deadlineSeconds(ctx) - age - overflowPressure;
    overflowPressure *= 0.5;

    core::AdaptationDecision decision;
    decision.optionPerTask.assign(job.tasks.size(), 0);
    const double fullRaw = rawService(ctx, job);
    decision.predictedServiceSeconds = std::max(0.0, fullRaw);
    decision.iboPredicted = fullRaw > slack;
    decision.overflowAvoided = !decision.iboPredicted;
    if (!decision.iboPredicted || !job.degradableIndex)
        return decision;

    // Highest quality first: the first option whose predicted service
    // fits the remaining slack wins; when none fits, run the option
    // with the smallest prediction (accuracy yields to the deadline).
    const std::size_t degIndex = *job.degradableIndex;
    const core::Task &deg = ctx.system.task(job.tasks[degIndex]);
    std::size_t fallback = 0;
    double fallbackRaw = fullRaw;
    for (std::size_t o = 1; o < deg.optionCount(); ++o) {
        decision.optionPerTask[degIndex] = o;
        const double raw =
            rawService(ctx, job, decision.optionPerTask);
        if (raw <= slack) {
            decision.predictedServiceSeconds = std::max(0.0, raw);
            decision.degraded = true;
            decision.overflowAvoided = true;
            return decision;
        }
        if (raw < fallbackRaw) {
            fallback = o;
            fallbackRaw = raw;
        }
    }
    decision.optionPerTask[degIndex] = fallback;
    decision.predictedServiceSeconds = std::max(0.0, fallbackRaw);
    decision.degraded = fallback != 0;
    return decision;
}

void
ZygardeAdmission::onBufferOverflow(const core::TaskSystem &system,
                                   const queueing::InputBuffer &,
                                   const queueing::InputRecord &, Tick)
{
    const double hz = system.config().captureHz;
    overflowPressure += 1.0 / (hz > 0.0 ? hz : 1.0);
}

void
ZygardeAdmission::saveState(std::string &out) const
{
    util::wire::putDouble(out, overflowPressure);
}

bool
ZygardeAdmission::loadState(util::wire::Reader &in)
{
    return in.getDouble(overflowPressure);
}

std::optional<core::SchedulerDecision>
EnergyLookaheadScheduler::select(const core::TaskSystem &system,
                                 const queueing::InputBuffer &buffer,
                                 const core::ServiceTimeEstimator &estimator,
                                 const core::PowerReading &power,
                                 double pidCorrection) const
{
    const Context ctx{system, buffer, estimator, power, pidCorrection,
                      runtime};
    // No runtime snapshot (storage unknown) means no energy
    // constraint: the policy degenerates to cheapest-job-first.
    const bool haveRuntime = ctx.runtime.storedEnergy > 0.0 ||
                             ctx.runtime.storageCapacity > 0.0;

    std::optional<core::SchedulerDecision> best;
    bool bestFits = false;
    Joules bestEnergy = 0.0;
    Tick bestCaptureTick = 0;
    for (const core::Job &job : ctx.system.jobs()) {
        const auto slot = ctx.buffer.oldestSlotForJob(job.id);
        if (!slot)
            continue;
        const double expected = predictedService(ctx, job);
        // Lookahead budget: what is stored now plus what the current
        // harvest delivers while the job runs.
        const Joules budget = haveRuntime
            ? ctx.runtime.storedEnergy + ctx.power.watts * expected
            : std::numeric_limits<Joules>::infinity();
        const Joules eMin = minimalJobEnergy(ctx.system, job).first;
        const bool fits = eMin <= budget;
        const Tick captureTick = ctx.buffer.record(*slot).captureTick;
        const bool better = !best || (fits && !bestFits) ||
            (fits == bestFits &&
             (eMin < bestEnergy ||
              (eMin == bestEnergy && captureTick < bestCaptureTick)));
        if (!better)
            continue;
        core::SchedulerDecision decision;
        decision.jobId = job.id;
        decision.slot = *slot;
        decision.expectedServiceSeconds = expected;
        // Declare the bound only when the stored energy alone covers
        // it — the invariant the harness checks against storedEnergy.
        if (fits && eMin <= ctx.runtime.storedEnergy)
            decision.energyBoundJoules = eMin;
        best = decision;
        bestFits = fits;
        bestEnergy = eMin;
        bestCaptureTick = captureTick;
    }
    return best;
}

core::AdaptationDecision
EnergyLookaheadAdmission::adapt(const core::TaskSystem &system,
                                const core::Job &job,
                                const queueing::InputBuffer &buffer,
                                const core::ServiceTimeEstimator &estimator,
                                const core::PowerReading &power,
                                double pidCorrection)
{
    const Context ctx{system, buffer, estimator, power, pidCorrection,
                      runtime};
    const bool haveRuntime = ctx.runtime.storedEnergy > 0.0 ||
                             ctx.runtime.storageCapacity > 0.0;

    core::AdaptationDecision decision;
    decision.optionPerTask.assign(job.tasks.size(), 0);
    if (job.degradableIndex) {
        const std::size_t degIndex = *job.degradableIndex;
        const core::Task &deg = ctx.system.task(job.tasks[degIndex]);
        const Joules budget = haveRuntime
            ? ctx.runtime.storedEnergy +
                ctx.power.watts * predictedService(ctx, job)
            : std::numeric_limits<Joules>::infinity();
        std::size_t chosen = minimalJobEnergy(ctx.system, job).second;
        for (std::size_t o = 0; o < deg.optionCount(); ++o) {
            if (jobEnergy(ctx.system, job, o) <= budget) {
                chosen = o;
                break;
            }
        }
        decision.optionPerTask[degIndex] = chosen;
        decision.degraded = chosen != 0;
    }
    decision.predictedServiceSeconds =
        predictedService(ctx, job, decision.optionPerTask);
    return decision;
}

std::optional<core::SchedulerDecision>
GreedyFcfsScheduler::select(const core::TaskSystem &,
                            const queueing::InputBuffer &buffer,
                            const core::ServiceTimeEstimator &,
                            const core::PowerReading &, double) const
{
    const auto slot = buffer.oldestSchedulable();
    if (!slot)
        return std::nullopt;
    core::SchedulerDecision decision;
    decision.jobId = buffer.record(*slot).jobId;
    decision.slot = *slot;
    return decision;
}

core::AdaptationDecision
GreedyFcfsAdmission::adapt(const core::TaskSystem &, const core::Job &,
                           const queueing::InputBuffer &,
                           const core::ServiceTimeEstimator &,
                           const core::PowerReading &, double)
{
    // Full quality, no prediction, no prevention: the Controller
    // fills the all-zero option vector from the empty default.
    return {};
}

} // namespace policy
} // namespace quetzal
