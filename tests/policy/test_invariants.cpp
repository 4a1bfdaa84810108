/**
 * @file
 * Policy-invariant property suite. Two halves:
 *
 *  1. Every registered policy survives the verify.hpp walk with zero
 *     violations and produces bit-identical decision streams from
 *     fresh instances (decisions are a pure function of observable
 *     state).
 *  2. The harness itself is demonstrated sharp: deliberately broken
 *     policies — scheduling an in-flight slot, overclaiming the
 *     energy bound, mismatching the slot's job, malformed option
 *     vectors, negative predictions, hidden mutable state — are each
 *     flagged with the expected violation class.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "policy/registry.hpp"
#include "policy/verify.hpp"
#include "policy/zoo.hpp"

namespace quetzal {
namespace policy {
namespace {

std::string
joined(const std::vector<std::string> &violations)
{
    std::string out;
    for (const std::string &v : violations)
        out += v + "\n";
    return out;
}

bool
anyContains(const std::vector<std::string> &violations,
            const std::string &needle)
{
    for (const std::string &v : violations) {
        if (v.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

TEST(PolicyInvariants, EveryRegisteredPolicyPassesTheWalk)
{
    for (const std::string &name : registeredPolicyNames()) {
        SCOPED_TRACE(name);
        const PolicyPair policy = makePolicy(name);
        const VerifyReport report =
            verifyPolicy(*policy.scheduler, *policy.adaptation);
        EXPECT_TRUE(report.ok()) << joined(report.violations);
        // A walk that never exercised the policy proves nothing.
        EXPECT_GT(report.decisions, 50u);
    }
}

TEST(PolicyInvariants, EveryRegisteredPolicyPassesAlternateWalks)
{
    VerifyOptions options;
    options.seed = 99;
    options.rounds = 200;
    options.bufferCapacity = 3;  // tighter buffer, more overflows
    options.serviceRounds = 4;   // longer in-flight windows
    for (const std::string &name : registeredPolicyNames()) {
        SCOPED_TRACE(name);
        const PolicyPair policy = makePolicy(name);
        const VerifyReport report =
            verifyPolicy(*policy.scheduler, *policy.adaptation, options);
        EXPECT_TRUE(report.ok()) << joined(report.violations);
    }
}

/** The decision stream of a fresh instance of a registered policy. */
std::vector<std::string>
freshStream(const std::string &name, const VerifyOptions &options = {})
{
    const PolicyPair policy = makePolicy(name);
    return decisionStream(*policy.scheduler, *policy.adaptation, options);
}

TEST(PolicyInvariants, DecisionsArePureFunctionsOfObservableState)
{
    for (const std::string &name : registeredPolicyNames()) {
        SCOPED_TRACE(name);
        // Two fresh instances replay the identical walk: any hidden
        // state not derived from observations diverges the streams.
        const std::vector<std::string> a = freshStream(name);
        const std::vector<std::string> b = freshStream(name);
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b);
    }
}

TEST(PolicyInvariants, DecisionStreamsRespondToTheSeed)
{
    // Sanity check on the harness: different walks must actually
    // differ, or the purity test above would be vacuous.
    VerifyOptions other;
    other.seed = 2;
    EXPECT_NE(freshStream("sjf-ibo"), freshStream("sjf-ibo", other));
}

// --- Deliberately broken policies: the harness must flag each. -----

/** Schedules the FIFO head even while it is in flight. */
class DoubleReleaseScheduler : public core::SchedulerPolicy
{
  public:
    std::string name() const override { return "broken-in-flight"; }

    std::optional<core::SchedulerDecision>
    select(const core::TaskSystem &, const queueing::InputBuffer &buffer,
           const core::ServiceTimeEstimator &, const core::PowerReading &,
           double) const override
    {
        std::optional<core::SchedulerDecision> decision;
        buffer.forEachFifo([&](queueing::SlotId slot,
                               const queueing::InputRecord &rec) {
            if (decision)
                return;
            core::SchedulerDecision d;
            d.jobId = rec.jobId;
            d.slot = slot;
            decision = d;
        });
        return decision;
    }
};

/** Declares an energy bound above the observed stored energy. */
class OverclaimScheduler : public GreedyFcfsScheduler
{
  public:
    std::string name() const override { return "broken-overclaim"; }

    void observe(const core::RuntimeObservation &rt) override
    {
        runtime = rt;
    }

    std::optional<core::SchedulerDecision>
    select(const core::TaskSystem &system,
           const queueing::InputBuffer &buffer,
           const core::ServiceTimeEstimator &estimator,
           const core::PowerReading &power,
           double pidCorrection) const override
    {
        auto decision = GreedyFcfsScheduler::select(
            system, buffer, estimator, power, pidCorrection);
        if (decision)
            decision->energyBoundJoules = runtime.storedEnergy * 2.0 + 1.0;
        return decision;
    }

  private:
    core::RuntimeObservation runtime;
};

/** Names a job other than the one in the chosen slot's record. */
class WrongJobScheduler : public GreedyFcfsScheduler
{
  public:
    std::string name() const override { return "broken-wrong-job"; }

    std::optional<core::SchedulerDecision>
    select(const core::TaskSystem &system,
           const queueing::InputBuffer &buffer,
           const core::ServiceTimeEstimator &estimator,
           const core::PowerReading &power,
           double pidCorrection) const override
    {
        auto decision = GreedyFcfsScheduler::select(
            system, buffer, estimator, power, pidCorrection);
        if (decision)
            decision->jobId = (decision->jobId + 1) % system.jobCount();
        return decision;
    }
};

/** Admits with an out-of-range degradation option index. */
class BadOptionAdmission : public GreedyFcfsAdmission
{
  public:
    std::string name() const override { return "broken-option"; }

    core::AdaptationDecision
    adapt(const core::TaskSystem &, const core::Job &job,
          const queueing::InputBuffer &, const core::ServiceTimeEstimator &,
          const core::PowerReading &, double) override
    {
        core::AdaptationDecision decision;
        decision.optionPerTask.assign(job.tasks.size(), 99);
        return decision;
    }
};

/** Predicts a negative service time. */
class NegativePredictionAdmission : public GreedyFcfsAdmission
{
  public:
    std::string name() const override { return "broken-negative"; }

    core::AdaptationDecision
    adapt(const core::TaskSystem &, const core::Job &,
          const queueing::InputBuffer &, const core::ServiceTimeEstimator &,
          const core::PowerReading &, double) override
    {
        core::AdaptationDecision decision;
        decision.predictedServiceSeconds = -1.0;
        return decision;
    }
};

/** Decisions depend on a process-global counter, not observations. */
class HiddenStateScheduler : public GreedyFcfsScheduler
{
  public:
    std::string name() const override { return "broken-hidden"; }

    std::optional<core::SchedulerDecision>
    select(const core::TaskSystem &system,
           const queueing::InputBuffer &buffer,
           const core::ServiceTimeEstimator &estimator,
           const core::PowerReading &power,
           double pidCorrection) const override
    {
        // Modulus chosen not to divide the walk length, so the
        // counter's phase differs between two consecutive walks.
        if (++counter() % 7 == 0)
            return std::nullopt;
        return GreedyFcfsScheduler::select(system, buffer, estimator,
                                           power, pidCorrection);
    }

  private:
    static int &counter()
    {
        static int value = 0;
        return value;
    }
};

TEST(PolicyInvariants, HarnessFlagsInFlightScheduling)
{
    DoubleReleaseScheduler broken;
    GreedyFcfsAdmission admission;
    const VerifyReport report = verifyPolicy(broken, admission);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(anyContains(report.violations, "in-flight slot"))
        << joined(report.violations);
}

TEST(PolicyInvariants, HarnessFlagsEnergyBoundOverclaim)
{
    OverclaimScheduler broken;
    GreedyFcfsAdmission admission;
    const VerifyReport report = verifyPolicy(broken, admission);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(anyContains(report.violations, "energy bound"))
        << joined(report.violations);
}

TEST(PolicyInvariants, HarnessFlagsJobSlotMismatch)
{
    WrongJobScheduler broken;
    GreedyFcfsAdmission admission;
    const VerifyReport report = verifyPolicy(broken, admission);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(anyContains(report.violations, "does not match"))
        << joined(report.violations);
}

TEST(PolicyInvariants, HarnessFlagsOutOfRangeOptions)
{
    GreedyFcfsScheduler scheduler;
    BadOptionAdmission broken;
    const VerifyReport report = verifyPolicy(scheduler, broken);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(anyContains(report.violations, "option index"))
        << joined(report.violations);
}

TEST(PolicyInvariants, HarnessFlagsNegativePredictions)
{
    GreedyFcfsScheduler scheduler;
    NegativePredictionAdmission broken;
    const VerifyReport report = verifyPolicy(scheduler, broken);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(
        anyContains(report.violations, "negative service prediction"))
        << joined(report.violations);
}

TEST(PolicyInvariants, PurityCheckCatchesHiddenState)
{
    // The counter is shared across instances, so the second stream
    // starts from a different parity than the first: exactly the
    // divergence the registered-policy purity test would report.
    HiddenStateScheduler first;
    HiddenStateScheduler second;
    GreedyFcfsAdmission admission;
    EXPECT_NE(decisionStream(first, admission),
              decisionStream(second, admission));
}

} // namespace
} // namespace policy
} // namespace quetzal
