/**
 * @file
 * Tests for the intermittent device model, including the Eq. (1)
 * service-time property, equivalence with a naive per-tick
 * reference stepper, and bit-identity of advance()'s brown-out
 * cycle skip with the plain plan/commit loop.
 */

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <utility>
#include <vector>

#include "sim/device.hpp"

namespace quetzal {
namespace sim {
namespace {

app::DeviceProfile
profile()
{
    return app::apollo4Device();
}

TEST(Device, StartsIdleAndFull)
{
    const auto watts = energy::PowerTrace::constant(10e-3);
    Device device(profile(), watts);
    EXPECT_EQ(device.phase(), DevicePhase::Idle);
    EXPECT_FALSE(device.taskActive());
    EXPECT_NEAR(device.energy(), device.store().capacity(), 1e-12);
}

TEST(Device, ComputeBoundTaskFinishesOnTime)
{
    // Harvest exceeds draw: the task takes exactly t_exe.
    const auto watts = energy::PowerTrace::constant(50e-3);
    Device device(profile(), watts);
    device.startTask(10e-3, 500);
    const Tick done = device.advance(0, 10'000);
    EXPECT_EQ(done, 500);
    EXPECT_FALSE(device.taskActive());
    EXPECT_EQ(device.stats().powerFailures, 0u);
    EXPECT_EQ(device.stats().activeTicks, 500);
}

TEST(Device, EnergyBoundTaskApproachesEq1)
{
    // Big task from a full store at low power: the end-to-end time
    // approaches E_exe / P_in (paper Eq. 1).
    const Watts pin = 5e-3;
    const Watts pexe = 100e-3;
    const Tick exeTicks = 20'000; // 2 J >> 0.126 J capacity
    const auto watts = energy::PowerTrace::constant(pin);
    Device device(profile(), watts);
    device.startTask(pexe, exeTicks);
    const Tick done = device.advance(0, 100'000'000);
    EXPECT_FALSE(device.taskActive());
    const double expected =
        ticksToSeconds(exeTicks) * pexe / pin; // 400 s
    // Within 20 %: checkpoint overheads and the initial full store
    // shift the exact value.
    EXPECT_NEAR(ticksToSeconds(done), expected, 0.2 * expected);
    EXPECT_GT(device.stats().powerFailures, 0u);
    EXPECT_GT(device.stats().rechargeTicks, 0);
}

TEST(Device, IdleHarvestsAndClampsAtCapacity)
{
    const auto watts = energy::PowerTrace::constant(10e-3);
    Device device(profile(), watts);
    device.drawInstantaneous(device.energy()); // empty it
    EXPECT_NEAR(device.energy(), 0.0, 1e-12);
    device.advance(0, 60'000); // 60 s of 10 mW minus sleep
    EXPECT_GT(device.energy(), 0.0);
    device.advance(60'000, 600'000'000);
    EXPECT_NEAR(device.energy(), device.store().capacity(), 1e-9);
}

TEST(Device, AdvanceStopsAtTaskCompletion)
{
    const auto watts = energy::PowerTrace::constant(50e-3);
    Device device(profile(), watts);
    device.startTask(10e-3, 123);
    const Tick done = device.advance(0, 1'000'000);
    EXPECT_EQ(done, 123);
}

TEST(Device, ZeroPowerNeverCompletesEnergyBoundTask)
{
    const auto watts = energy::PowerTrace::constant(0.0);
    Device device(profile(), watts);
    // Drain the store with a big task: it must stall forever.
    device.startTask(100e-3, 1'000'000);
    const Tick reached = device.advance(0, 10'000'000);
    EXPECT_EQ(reached, 10'000'000);
    EXPECT_TRUE(device.taskActive());
}

TEST(Device, InstantaneousDrawDuringRunTriggersCheckpoint)
{
    const auto watts = energy::PowerTrace::constant(1e-3);
    Device device(profile(), watts);
    device.startTask(10e-3, 5'000);
    device.advance(0, 100);
    ASSERT_EQ(device.phase(), DevicePhase::Running);
    device.drawInstantaneous(device.energy() + 1.0);
    EXPECT_EQ(device.phase(), DevicePhase::CheckpointSave);
}

TEST(Device, TaskCostConservation)
{
    // Accounting identity: initial + harvested = final + consumed,
    // approximated through the run (checkpoint + task + sleep draws).
    const Watts pin = 20e-3;
    const auto watts = energy::PowerTrace::constant(pin);
    Device device(profile(), watts);
    const Joules before = device.energy();
    device.startTask(100e-3, 1'000); // 0.1 J task
    const Tick done = device.advance(0, 10'000'000);
    const Joules harvested = pin * ticksToSeconds(done);
    const Joules consumed = before + harvested - device.energy();
    // Must at least cover the task energy, plus bounded overheads.
    EXPECT_GE(consumed, 0.1 - 1e-9);
    EXPECT_LE(consumed, 0.1 + 0.05);
}

/**
 * Reference stepper: literal 1 ms ticks, no batching. The batched
 * device must agree on completion time and stats.
 */
struct NaiveResult
{
    Tick completion = 0;
    std::uint64_t failures = 0;
};

NaiveResult
naiveRun(const app::DeviceProfile &dev, const energy::PowerTrace &watts,
         Watts taskPower, Tick exeTicks)
{
    energy::EnergyStorage store(dev.storage);
    NaiveResult result;
    Tick remaining = exeTicks;
    Tick now = 0;
    enum { Run, Save, Charge, Restore } phase = Run;
    Tick phaseLeft = 0;
    while (remaining > 0 && now < 100'000'000) {
        const Watts pin = watts.valueAt(now);
        switch (phase) {
          case Run: {
            const Joules need = energyOver(taskPower, 1);
            if (store.energy() < need) {
                phase = Save;
                phaseLeft = dev.checkpoint.saveTicks;
                break;
            }
            store.draw(need);
            store.harvest(energyOver(pin, 1));
            --remaining;
            ++now;
            break;
          }
          case Save:
            store.harvest(energyOver(pin, 1));
            store.draw(energyOver(dev.checkpoint.savePower, 1));
            ++now;
            if (--phaseLeft == 0) {
                ++result.failures;
                phase = Charge;
            }
            break;
          case Charge:
            store.harvest(energyOver(pin, 1));
            ++now;
            if (store.deficitToRestart() <= 0.0) {
                phase = Restore;
                phaseLeft = dev.checkpoint.restoreTicks;
            }
            break;
          case Restore:
            store.harvest(energyOver(pin, 1));
            store.draw(energyOver(dev.checkpoint.restorePower, 1));
            ++now;
            if (--phaseLeft == 0)
                phase = Run;
            break;
        }
    }
    result.completion = now;
    return result;
}

class DeviceEquivalence
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(DeviceEquivalence, BatchedMatchesNaiveStepper)
{
    const auto [pinMw, pexeMw] = GetParam();
    const auto watts = energy::PowerTrace::constant(pinMw * 1e-3);
    const Tick exeTicks = 3'000;

    Device device(profile(), watts);
    device.startTask(pexeMw * 1e-3, exeTicks);
    const Tick batched = device.advance(0, 100'000'000);

    const NaiveResult naive =
        naiveRun(profile(), watts, pexeMw * 1e-3, exeTicks);

    // The naive stepper interleaves harvest and draw within a tick
    // slightly differently (it requires the gross per-tick energy up
    // front where the batched engine funds the net), so completion
    // and failure counts agree to within a small per-cycle rounding.
    const double tolerance =
        std::max(5.0, 0.02 * static_cast<double>(naive.completion));
    EXPECT_NEAR(static_cast<double>(batched),
                static_cast<double>(naive.completion), tolerance);
    EXPECT_NEAR(static_cast<double>(device.stats().powerFailures),
                static_cast<double>(naive.failures),
                2.0 + 0.05 * static_cast<double>(naive.failures));
}

INSTANTIATE_TEST_SUITE_P(
    PowerPoints, DeviceEquivalence,
    ::testing::Values(std::make_pair(50.0, 10.0), // compute bound
                      std::make_pair(10.0, 10.0), // boundary
                      std::make_pair(5.0, 20.0),  // mild deficit
                      std::make_pair(2.0, 100.0), // deep deficit
                      std::make_pair(25.0, 100.0)));

/**
 * Device::advance without its cycle skip: the plain planStep /
 * commitStep loop with the same stopping rules.
 */
Tick
plainAdvance(Device &device, Tick now, Tick limit)
{
    while (now < limit) {
        const bool wasActive = device.taskActive();
        const StepPlan plan = device.planStep(now, limit);
        device.commitStep(plan);
        now += plan.run;
        if (wasActive && !device.taskActive())
            return now;
    }
    return now;
}

void
expectSameState(const Device &skipped, const Device &plain)
{
    const Device::CheckpointState a = skipped.exportCheckpoint();
    const Device::CheckpointState b = plain.exportCheckpoint();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.energy),
              std::bit_cast<std::uint64_t>(b.energy));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rejectedHarvest),
              std::bit_cast<std::uint64_t>(b.rejectedHarvest));
    EXPECT_EQ(a.phase, b.phase);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.taskPower),
              std::bit_cast<std::uint64_t>(b.taskPower));
    EXPECT_EQ(a.remainingTaskTicks, b.remainingTaskTicks);
    EXPECT_EQ(a.remainingPhaseTicks, b.remainingPhaseTicks);
    EXPECT_EQ(a.progressSinceSave, b.progressSinceSave);
    EXPECT_EQ(a.periodicSaveInProgress, b.periodicSaveInProgress);
    EXPECT_EQ(a.cursorIndex, b.cursorIndex);
    EXPECT_EQ(a.stats.powerFailures, b.stats.powerFailures);
    EXPECT_EQ(a.stats.checkpointSaves, b.stats.checkpointSaves);
    EXPECT_EQ(a.stats.rechargeTicks, b.stats.rechargeTicks);
    EXPECT_EQ(a.stats.activeTicks, b.stats.activeTicks);
    EXPECT_EQ(a.stats.rolledBackTicks, b.stats.rolledBackTicks);
}

TEST(DeviceCycleSkip, MatchesPlainStepLoop)
{
    std::mt19937_64 rng(0x5c1e5eedull);
    auto real = [&](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    auto ticks = [&](Tick lo, Tick hi) {
        return std::uniform_int_distribution<Tick>(lo, hi)(rng);
    };

    for (int trial = 0; trial < 48; ++trial) {
        SCOPED_TRACE(trial);
        // Harvest spans both sides of the 5 mW save power, so the
        // just-in-time save clamps the store to empty in some cycles
        // and leaves charge in others. Odd trials walk multi-segment
        // traces (night segments included); every fourth trial runs
        // the Periodic policy, which must never skip.
        energy::PowerTrace watts;
        if (trial % 2 == 0) {
            watts = energy::PowerTrace::constant(real(0.5e-3, 9e-3));
        } else {
            // Values repeat across segments, so some cycles straddle
            // a boundary with the same power on both sides.
            const double levels[] = {0.0, 2e-3, 3.5e-3, 7e-3};
            std::vector<double> samples(
                static_cast<std::size_t>(ticks(2, 12)));
            for (double &sample : samples)
                sample = ticks(0, 1) == 0
                    ? levels[static_cast<std::size_t>(ticks(0, 3))]
                    : real(0.5e-3, 9e-3);
            watts = energy::PowerTrace::fromSamples(
                samples, ticks(5'000, 90'000));
        }
        app::DeviceProfile dev = trial % 4 == 3 ? app::msp430Device()
                                                : profile();
        if (trial % 4 == 3)
            dev.checkpoint.policy = app::CheckpointPolicy::Periodic;

        // One skipping device plays every device of a small "fleet":
        // importState between calls rehydrates another device's
        // state into it, so one memo serves many devices.
        Device skipped(dev, watts);
        Device plain(dev, watts);
        std::vector<std::pair<Device::State, Watts>> fleet;
        Tick now = 0;
        for (int call = 0; call < 80; ++call) {
            SCOPED_TRACE(call);
            const Tick action = ticks(0, 9);
            if (action <= 1 && !fleet.empty()) {
                const auto &[state, power] = fleet[static_cast<
                    std::size_t>(ticks(0, static_cast<Tick>(
                                              fleet.size()) - 1))];
                skipped.importState(state, power);
                plain.importState(state, power);
            } else if (action == 2) {
                const Joules amount = real(0.0, 0.03);
                skipped.drawInstantaneous(amount);
                plain.drawInstantaneous(amount);
            }
            if (!skipped.taskActive()) {
                const Watts power = real(6e-3, 40e-3);
                const Tick exeTicks = ticks(1'000, 300'000);
                skipped.startTask(power, exeTicks);
                plain.startTask(power, exeTicks);
            }
            // Limits from 1 ms to 3 min cut cycles at every point.
            const Tick limit = now + ticks(1, 180'000);
            const Tick reached = skipped.advance(now, limit);
            ASSERT_EQ(reached, plainAdvance(plain, now, limit));
            expectSameState(skipped, plain);
            if (::testing::Test::HasFailure())
                return;
            fleet.emplace_back(skipped.exportState(),
                               skipped.exportCheckpoint().taskPower);
            now = reached;
        }
    }
}

TEST(DeviceCycleSkip, MatchesPlainStepLoopAtCycleEdges)
{
    // One steady brown-out cycle at 2 mW harvest and a 12 mW task:
    // from an empty, recharging store back to the next save, which
    // clamps the store to empty again.
    const Watts pin = 2e-3;
    const Watts power = 12e-3;
    Device::State empty;
    empty.phase = DevicePhase::Recharging;
    empty.remainingTaskTicks = 10'000'000;
    const auto steady = energy::PowerTrace::constant(pin);
    Device probe(profile(), steady);
    probe.importState(empty, power);
    Tick length = 0;
    do {
        const StepPlan plan = probe.planStep(length, 10'000'000);
        probe.commitStep(plan);
        length += plan.run;
    } while (probe.stats().powerFailures == 0);
    const Tick active = probe.stats().activeTicks;
    ASSERT_GT(active, 0);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(probe.energy()), 0u);

    // Task ends, limits and segment ends at whole multiples of the
    // cycle and one tick either side, and phase timers left over
    // from before the state was saved.
    const auto split = energy::PowerTrace::fromSamples(
        {pin, 3e-3, pin}, 3 * length + 1);
    const auto repeated = energy::PowerTrace::fromSamples(
        {pin, pin, pin, pin}, 2 * length + length / 2);
    for (const energy::PowerTrace *watts : {&steady, &split, &repeated}) {
        Device skipped(profile(), *watts);
        for (const Tick cycles : {Tick{1}, Tick{2}, Tick{7}}) {
            for (const Tick edge : {Tick{-1}, Tick{0}, Tick{1}}) {
                for (const Tick phaseTicks : {Tick{0}, Tick{3}}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "cycles " << cycles << " edge "
                                 << edge << " phase " << phaseTicks);
                    Device::State state = empty;
                    state.remainingTaskTicks = cycles * active + edge;
                    state.remainingPhaseTicks = phaseTicks;
                    Device plain(profile(), *watts);
                    skipped.importState(state, power);
                    plain.importState(state, power);
                    Tick now = 0;
                    for (const Tick limit : {cycles * length + edge,
                                             (cycles + 3) * length - edge,
                                             Tick{12} * length}) {
                        if (limit <= now)
                            continue;
                        const Tick reached = skipped.advance(now, limit);
                        ASSERT_EQ(reached,
                                  plainAdvance(plain, now, limit));
                        expectSameState(skipped, plain);
                        now = reached;
                    }
                }
            }
        }
    }

    // A task too costly to fund one tick, with a save that always
    // empties the store: the device brown-outs forever with no
    // progress, returning to the same anchor every cycle. That is
    // not a cycle to skip.
    app::DeviceProfile costly = profile();
    costly.checkpoint.savePower = 10.0;
    Device skipped(costly, steady);
    Device plain(costly, steady);
    skipped.importState(empty, 100.0);
    plain.importState(empty, 100.0);
    ASSERT_EQ(skipped.advance(0, 20 * length),
              plainAdvance(plain, 0, 20 * length));
    expectSameState(skipped, plain);
    EXPECT_GT(skipped.stats().powerFailures, 2u);
}

TEST(DeviceDeathTest, StartWhileActivePanics)
{
    const auto watts = energy::PowerTrace::constant(10e-3);
    Device device(profile(), watts);
    device.startTask(10e-3, 100);
    EXPECT_DEATH(device.startTask(10e-3, 100), "active");
}

TEST(DeviceDeathTest, NonPositiveCostPanics)
{
    const auto watts = energy::PowerTrace::constant(10e-3);
    Device device(profile(), watts);
    EXPECT_DEATH(device.startTask(0.0, 100), "cost");
    EXPECT_DEATH(device.startTask(1e-3, 0), "cost");
}

TEST(DeviceDeathTest, ZeroProgressCyclePanics)
{
    // Malformed profile: free checkpoints plus a task whose per-tick
    // energy (100 W x 1 ms = 0.1 J) exceeds the restart energy
    // (~0.026 J), so once depleted the device cycles Restoring ->
    // Running (fails immediately) -> CheckpointSave -> Recharging
    // without ever advancing time. The guard must panic instead of
    // spinning forever.
    app::DeviceProfile broken = profile();
    broken.checkpoint.saveTicks = 0;
    broken.checkpoint.restoreTicks = 0;
    const auto watts = energy::PowerTrace::constant(1e-3);
    Device device(broken, watts);
    device.drawInstantaneous(device.energy()); // deplete the store
    device.startTask(100.0, 100);
    EXPECT_DEATH(device.advance(0, 1'000'000), "no time progress");
}

} // namespace
} // namespace sim
} // namespace quetzal
