/**
 * @file
 * Competing policies from the related work (the policy zoo), each a
 * core::SchedulerPolicy + core::AdaptationPolicy pair.
 *
 * - Zygarde: deadline/accuracy-aware scheduling in the spirit of
 *   Zygarde (intermittently-powered DNN inference): EDF ranking over
 *   input age, with the degradable task's quality chosen as the
 *   highest one whose predicted service fits the input's remaining
 *   slack; dropped captures add overflow pressure that temporarily
 *   tightens the slack.
 * - EnergyLookahead: energy-optimal task selection after Delgado &
 *   Famaey (batteryless IoT): ranks candidates by minimum execution
 *   energy against the stored-energy + expected-harvest budget, and
 *   declares the energy bound it scheduled under.
 * - GreedyFcfs: the strawman — oldest input first, always full
 *   quality, no overflow prevention at all. Exists so the tournament
 *   has a floor.
 *
 * Both halves of a pair report the policy's registry name. A half
 * that reads the device snapshot keeps the one observe() hands it
 * for the round being decided.
 */

#ifndef QUETZAL_POLICY_ZOO_HPP
#define QUETZAL_POLICY_ZOO_HPP

#include "core/ibo_engine.hpp"
#include "core/scheduler.hpp"

namespace quetzal {
namespace policy {

/** Zygarde ranking: earliest deadline (oldest capture) first. */
class ZygardeScheduler : public core::SchedulerPolicy
{
  public:
    std::optional<core::SchedulerDecision>
    select(const core::TaskSystem &system,
           const queueing::InputBuffer &buffer,
           const core::ServiceTimeEstimator &estimator,
           const core::PowerReading &power,
           double pidCorrection) const override;

    std::string name() const override { return "zygarde"; }
};

/** Zygarde admission: the highest quality that fits the slack. */
class ZygardeAdmission : public core::AdaptationPolicy
{
  public:
    core::AdaptationDecision
    adapt(const core::TaskSystem &system, const core::Job &job,
          const queueing::InputBuffer &buffer,
          const core::ServiceTimeEstimator &estimator,
          const core::PowerReading &power, double pidCorrection) override;

    void observe(const core::RuntimeObservation &rt) override { runtime = rt; }

    void onBufferOverflow(const core::TaskSystem &system,
                          const queueing::InputBuffer &buffer,
                          const queueing::InputRecord &dropped,
                          Tick now) override;

    std::string name() const override { return "zygarde"; }

    /** Serializes overflowPressure (bit-exact). */
    void saveState(std::string &out) const override;
    bool loadState(util::wire::Reader &in) override;

  private:
    core::RuntimeObservation runtime;
    /**
     * Seconds of extra urgency from recent drops; grows by one
     * capture period per overflow, halves at each admission.
     */
    double overflowPressure = 0.0;
};

/** Delgado & Famaey ranking: cheapest job that fits the budget. */
class EnergyLookaheadScheduler : public core::SchedulerPolicy
{
  public:
    std::optional<core::SchedulerDecision>
    select(const core::TaskSystem &system,
           const queueing::InputBuffer &buffer,
           const core::ServiceTimeEstimator &estimator,
           const core::PowerReading &power,
           double pidCorrection) const override;

    void observe(const core::RuntimeObservation &rt) override { runtime = rt; }

    std::string name() const override { return "delgado-famaey"; }

  private:
    core::RuntimeObservation runtime;
};

/** Delgado & Famaey admission: highest quality within the budget. */
class EnergyLookaheadAdmission : public core::AdaptationPolicy
{
  public:
    core::AdaptationDecision
    adapt(const core::TaskSystem &system, const core::Job &job,
          const queueing::InputBuffer &buffer,
          const core::ServiceTimeEstimator &estimator,
          const core::PowerReading &power, double pidCorrection) override;

    void observe(const core::RuntimeObservation &rt) override { runtime = rt; }

    std::string name() const override { return "delgado-famaey"; }

  private:
    core::RuntimeObservation runtime;
};

/** Greedy ranking: the oldest schedulable input. */
class GreedyFcfsScheduler : public core::SchedulerPolicy
{
  public:
    std::optional<core::SchedulerDecision>
    select(const core::TaskSystem &system,
           const queueing::InputBuffer &buffer,
           const core::ServiceTimeEstimator &estimator,
           const core::PowerReading &power,
           double pidCorrection) const override;

    std::string name() const override { return "greedy-fcfs"; }
};

/** Greedy admission: full quality, no prediction, no prevention. */
class GreedyFcfsAdmission : public core::AdaptationPolicy
{
  public:
    core::AdaptationDecision
    adapt(const core::TaskSystem &system, const core::Job &job,
          const queueing::InputBuffer &buffer,
          const core::ServiceTimeEstimator &estimator,
          const core::PowerReading &power, double pidCorrection) override;

    std::string name() const override { return "greedy-fcfs"; }
};

} // namespace policy
} // namespace quetzal

#endif // QUETZAL_POLICY_ZOO_HPP
