/**
 * @file
 * Tests for the intermittent device model, including the Eq. (1)
 * service-time property, equivalence with a naive per-tick
 * reference stepper, and bit-identity of advance()'s brown-out
 * cycle skip and folded power-failure step with the plain
 * plan/commit loop.
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
 * Device::advance without its cycle skip or failure fold: the plain
 * planStep / commitStep loop with the same stopping rules. Adds the
 * steps it takes to `steps` when given.
 */
Tick
plainAdvance(Device &device, Tick now, Tick limit,
             std::uint64_t *steps = nullptr)
{
    while (now < limit) {
        const bool wasActive = device.taskActive();
        const StepPlan plan = device.planStep(now, limit);
        device.commitStep(plan);
        if (steps != nullptr)
            ++*steps;
        now += plan.run;
        if (wasActive && !device.taskActive())
            return now;
    }
    return now;
}

/** A recharging, empty device with a long task loaded. */
Device::State
emptyRecharging()
{
    Device::State state;
    state.phase = DevicePhase::Recharging;
    state.remainingTaskTicks = 10'000'000;
    return state;
}

/** The first brown-out cycle from an empty, recharging store. */
struct CycleShape
{
    Tick length = 0; ///< recharge to the end of the save
    Tick active = 0; ///< Running ticks
    Tick failAt = 0; ///< the Running step that cannot fund a tick
    Joules energy = 0.0; ///< stored energy after the save
};

CycleShape
steadyCycle(Watts pin, Watts power)
{
    const auto steady = energy::PowerTrace::constant(pin);
    Device probe(profile(), steady);
    probe.importState(emptyRecharging(), power);
    CycleShape cycle;
    do {
        const StepPlan plan = probe.planStep(cycle.length, 10'000'000);
        if (plan.phase == DevicePhase::Running && plan.run == 0)
            cycle.failAt = cycle.length;
        probe.commitStep(plan);
        cycle.length += plan.run;
    } while (probe.stats().powerFailures == 0);
    cycle.active = probe.stats().activeTicks;
    cycle.energy = probe.energy();
    return cycle;
}

/** Bit-compare everything exportCheckpoint() carries. */
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
    const Device::State empty = emptyRecharging();
    const auto steady = energy::PowerTrace::constant(pin);
    const CycleShape cycle = steadyCycle(pin, power);
    const Tick length = cycle.length;
    const Tick active = cycle.active;
    ASSERT_GT(active, 0);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(cycle.energy), 0u);

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

/**
 * Run an empty, recharging device through `limits` with advance()
 * and with the plain loop, comparing every call; returns how many
 * steps advance() saved.
 */
std::uint64_t
expectSameAdvance(const energy::PowerTrace &watts, Watts power,
                  const std::vector<Tick> &limits)
{
    Device skipped(profile(), watts);
    Device plain(profile(), watts);
    skipped.importState(emptyRecharging(), power);
    plain.importState(emptyRecharging(), power);
    std::uint64_t plainSteps = 0;
    Tick now = 0;
    for (const Tick limit : limits) {
        if (limit <= now)
            continue;
        const Tick reached = skipped.advance(now, limit);
        EXPECT_EQ(reached, plainAdvance(plain, now, limit, &plainSteps));
        expectSameState(skipped, plain);
        now = reached;
    }
    EXPECT_LE(skipped.steps(), plainSteps);
    return plainSteps - skipped.steps();
}

TEST(DeviceCycleSkip, FoldedFailureMatchesPlainStepLoop)
{
    // advance() folds the zero-length Running step that fails into
    // the Running step before it. The fold must see what that step
    // would: a power change exactly at the failure tick (to a level
    // that still fails, one that funds a tick, one that covers the
    // task, and an equal-valued neighbour), a limit exactly at the
    // failure tick (no failure yet), and the same tick one either
    // side, in the first cycle and after skipped ones. In the last
    // cycle before `end` (k = 11) an equal-valued neighbour starts
    // around the final save, so a skip that ends at the limit must
    // leave the cursor where the plain loop's last step began.
    const Watts pin = 2e-3;
    const Watts power = 12e-3;
    const CycleShape cycle = steadyCycle(pin, power);
    ASSERT_GT(cycle.failAt, 0);
    const Tick end = 12 * cycle.length;
    std::uint64_t folded = 0;
    for (const Tick k : {Tick{0}, Tick{1}, Tick{3}, Tick{11}}) {
        for (const Tick edge : {Tick{-1}, Tick{0}, Tick{1}}) {
            const Tick at = cycle.failAt + k * cycle.length + edge;
            for (const double after : {3e-3, 11.9e-3, 20e-3, pin}) {
                SCOPED_TRACE(::testing::Message()
                             << "k " << k << " edge " << edge
                             << " after " << after);
                const energy::PowerTrace watts(
                    {{0, pin}, {at, after}, {at + 5 * cycle.length, pin}});
                folded += expectSameAdvance(watts, power, {end});
                folded += expectSameAdvance(watts, power,
                                            {at, at + 1, end});
            }
        }
    }
    EXPECT_GT(folded, 0u);
}

TEST(DeviceCycleSkip, TrailingCursorFromOlderSnapshotsResumesIdentically)
{
    // Snapshots taken before skips re-sought the cursor can hold a
    // position that trails the plain loop's across equal-valued
    // segments. The position is only where the next walk starts, so
    // resuming from it reaches the same state as from the exact one.
    const Watts pin = 2e-3;
    const Watts power = 12e-3;
    const CycleShape cycle = steadyCycle(pin, power);
    const energy::PowerTrace watts({{0, pin},
                                    {3 * cycle.length + 1, pin},
                                    {5 * cycle.length + 7, pin},
                                    {9 * cycle.length, 3e-3}});
    Device plain(profile(), watts);
    plain.importState(emptyRecharging(), power);
    const Tick half = plainAdvance(plain, 0, 6 * cycle.length);
    Device::State exact = plain.exportState();
    ASSERT_GT(exact.cursorIndex, 0u);
    for (std::size_t trailing = 0; trailing <= exact.cursorIndex;
         ++trailing) {
        SCOPED_TRACE(::testing::Message() << "cursor " << trailing);
        Device::State state = exact;
        state.cursorIndex = trailing;
        Device resumed(profile(), watts);
        Device reference(profile(), watts);
        resumed.importState(state, power);
        reference.importState(exact, power);
        const Tick end = 14 * cycle.length;
        ASSERT_EQ(resumed.advance(half, end), plainAdvance(reference, half,
                                                           end));
        expectSameState(resumed, reference);
    }
}

TEST(DeviceCycleSkip, StoreThatStillFundsATickIsNotFolded)
{
    // A Running step bounded by floor(E / perTick) can leave a store
    // that funds one more tick, because the commit's energyOver()
    // rounds differently from the plan's division. The fold must
    // recompute the test on the committed store and keep running.
    const Watts power = 12e-3;
    int found = 0;
    for (int i = 0; i < 20000 && found < 8; ++i) {
        const Watts pin = 1e-3 + 1e-7 * i;
        const Joules perTick = energyOver(power - pin, 1);
        const auto ticks = static_cast<Tick>(3 + i % 97);
        const Joules energy = static_cast<double>(ticks) * perTick;
        Device::State state;
        state.phase = DevicePhase::Running;
        state.energy = energy;
        state.remainingTaskTicks = 1'000'000;
        const auto watts = energy::PowerTrace::constant(pin);
        Device probe(profile(), watts);
        probe.importState(state, power);
        const StepPlan first = probe.planStep(0, 1'000'000);
        probe.commitStep(first);
        if (first.run <= 0 || probe.planStep(first.run, 1'000'000).run <= 0)
            continue;
        ++found;
        SCOPED_TRACE(i);
        Device skipped(profile(), watts);
        Device plain(profile(), watts);
        skipped.importState(state, power);
        plain.importState(state, power);
        Tick now = 0;
        for (const Tick limit : {first.run + 1, Tick{400'000}}) {
            const Tick reached = skipped.advance(now, limit);
            ASSERT_EQ(reached, plainAdvance(plain, now, limit));
            expectSameState(skipped, plain);
            now = reached;
        }
    }
    EXPECT_GT(found, 0);
}

TEST(DeviceCycleSkip, PeriodicPolicyIsNeitherSkippedNorFolded)
{
    app::DeviceProfile dev = app::msp430Device();
    dev.checkpoint.policy = app::CheckpointPolicy::Periodic;
    const auto watts = energy::PowerTrace::fromSamples(
        {2e-3, 3e-3, 0.0, 2e-3}, 40'000);
    Device skipped(dev, watts);
    Device plain(dev, watts);
    skipped.importState(emptyRecharging(), 12e-3);
    plain.importState(emptyRecharging(), 12e-3);
    std::uint64_t plainSteps = 0;
    Tick now = 0;
    for (const Tick limit : {Tick{7}, Tick{60'000}, Tick{500'000}}) {
        const Tick reached = skipped.advance(now, limit);
        ASSERT_EQ(reached, plainAdvance(plain, now, limit, &plainSteps));
        expectSameState(skipped, plain);
        now = reached;
    }
    EXPECT_GT(skipped.stats().powerFailures, 2u);
    EXPECT_EQ(skipped.steps(), plainSteps);
}

TEST(DeviceCycleSkip, MemoHitWithNoWholeCycleToSkip)
{
    // The memo records at the second anchor of a call; where no
    // whole cycle fits from there, nothing is skipped and the
    // anchor is dropped. The span bound: a limit or a power change
    // less than one cycle past that anchor. The task bound: fewer
    // task ticks left there than one cycle runs. Later calls reuse
    // the memo with the same bounds.
    const Watts pin = 2e-3;
    const Watts power = 12e-3;
    const CycleShape cycle = steadyCycle(pin, power);
    const Tick length = cycle.length;
    const auto steady = energy::PowerTrace::constant(pin);
    const auto change = energy::PowerTrace::fromSamples(
        {pin, 3e-3}, 2 * length + length / 2);
    struct Case
    {
        const energy::PowerTrace *watts;
        Tick taskTicks;
        Tick limit;
    };
    for (const Case c : {Case{&steady, 10'000'000, 2 * length - 1},
                         Case{&steady, 10'000'000, 2 * length},
                         Case{&change, 10'000'000, 10 * length},
                         Case{&steady, 2 * cycle.active - 1, 10 * length},
                         Case{&steady, 2 * cycle.active, 10 * length}}) {
        SCOPED_TRACE(::testing::Message()
                     << "task " << c.taskTicks << " limit " << c.limit);
        Device::State state = emptyRecharging();
        state.remainingTaskTicks = c.taskTicks;
        Device skipped(profile(), *c.watts);
        Device plain(profile(), *c.watts);
        skipped.importState(state, power);
        plain.importState(state, power);
        Tick now = 0;
        for (const Tick limit : {c.limit, c.limit + length / 3,
                                 c.limit + 3 * length}) {
            const Tick reached = skipped.advance(now, limit);
            ASSERT_EQ(reached, plainAdvance(plain, now, limit));
            expectSameState(skipped, plain);
            now = reached;
            if (!skipped.taskActive()) {
                skipped.importState(state, power);
                plain.importState(state, power);
            }
        }
    }
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

TEST(DeviceDeathTest, FoldedFailureCountsAsANoProgressStep)
{
    // Free saves, a 5-tick restore and an 80 W task: from a full
    // store the task runs one tick and leaves more than the restart
    // energy but less than a tick's worth. The plain loop then takes
    // three steps without progress (failure, save, recharge) and the
    // guard fires at tick 1 in Restoring. Folding the failure must
    // not give the device a fourth step, which would run the restore
    // and panic later.
    app::DeviceProfile broken = profile();
    broken.checkpoint.saveTicks = 0;
    broken.checkpoint.restoreTicks = 5;
    const auto watts = energy::PowerTrace::constant(1e-3);
    Device device(broken, watts);
    device.startTask(80.0, 100);
    EXPECT_DEATH(device.advance(0, 1'000),
                 "no time progress for 3 iterations at tick 1 "
                 "\\(limit 1000, phase 4");
}

} // namespace
} // namespace sim
} // namespace quetzal
