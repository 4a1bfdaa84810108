#include "sim/device.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.hpp"

namespace quetzal {
namespace sim {

Device::Device(const app::DeviceProfile &profile_,
               const energy::PowerTrace &watts_)
    : profile(profile_), watts(watts_), powerCursor(watts_.cursor()),
      storage(profile_.storage)
{
}

Device::State
Device::exportState() const
{
    State state;
    state.energy = storage.energy();
    state.phase = currentPhase;
    state.remainingTaskTicks = remainingTaskTicks;
    state.remainingPhaseTicks = remainingPhaseTicks;
    state.progressSinceSave = progressSinceSave;
    state.periodicSaveInProgress = periodicSaveInProgress;
    state.cursorIndex = powerCursor.position();
    return state;
}

void
Device::importState(const State &state, Watts power)
{
    storage.restore(state.energy);
    currentPhase = state.phase;
    taskPower = power;
    remainingTaskTicks = state.remainingTaskTicks;
    remainingPhaseTicks = state.remainingPhaseTicks;
    progressSinceSave = state.progressSinceSave;
    periodicSaveInProgress = state.periodicSaveInProgress;
    powerCursor.restore(state.cursorIndex);
    deviceStats = DeviceStats{};
}

Device::CheckpointState
Device::exportCheckpoint() const
{
    CheckpointState snapshot;
    snapshot.energy = storage.energy();
    snapshot.rejectedHarvest = storage.rejectedHarvest();
    snapshot.phase = currentPhase;
    snapshot.taskPower = taskPower;
    snapshot.remainingTaskTicks = remainingTaskTicks;
    snapshot.remainingPhaseTicks = remainingPhaseTicks;
    snapshot.progressSinceSave = progressSinceSave;
    snapshot.periodicSaveInProgress = periodicSaveInProgress;
    snapshot.cursorIndex = powerCursor.position();
    snapshot.stats = deviceStats;
    return snapshot;
}

void
Device::importCheckpoint(const CheckpointState &snapshot)
{
    storage.restoreExact(snapshot.energy, snapshot.rejectedHarvest);
    currentPhase = snapshot.phase;
    taskPower = snapshot.taskPower;
    remainingTaskTicks = snapshot.remainingTaskTicks;
    remainingPhaseTicks = snapshot.remainingPhaseTicks;
    progressSinceSave = snapshot.progressSinceSave;
    periodicSaveInProgress = snapshot.periodicSaveInProgress;
    powerCursor.restore(snapshot.cursorIndex);
    deviceStats = snapshot.stats;
}

void
Device::startTask(Watts power, Tick exeTicks)
{
    if (taskActive())
        util::panic("Device::startTask while a task is active");
    if (power <= 0.0 || exeTicks <= 0)
        util::panic("Device::startTask with non-positive cost");
    taskPower = power;
    remainingTaskTicks = exeTicks;
    // A depleted device must recharge before it can begin.
    currentPhase = storage.depleted() ? DevicePhase::Recharging
                                      : DevicePhase::Running;
}

void
Device::onPowerFailure()
{
    if (profile.checkpoint.policy == app::CheckpointPolicy::JustInTime) {
        // Save exactly now (the voltage-warning margin funds it),
        // then recharge with no work lost.
        currentPhase = DevicePhase::CheckpointSave;
        remainingPhaseTicks = profile.checkpoint.saveTicks;
        return;
    }
    // Periodic policy: state was last persisted progressSinceSave
    // ticks ago; that work re-executes after restart.
    remainingTaskTicks += progressSinceSave;
    deviceStats.rolledBackTicks += progressSinceSave;
    progressSinceSave = 0;
    ++deviceStats.powerFailures;
    currentPhase = DevicePhase::Recharging;
}

void
Device::drawInstantaneous(Joules amount)
{
    storage.draw(amount);
    if (storage.depleted() && currentPhase == DevicePhase::Running) {
        // The draw brown-outs a running task.
        onPowerFailure();
    }
}

void
Device::applyNet(Watts net, Tick span)
{
    const Joules delta = energyOver(net, span);
    if (delta >= 0.0)
        storage.harvest(delta);
    else
        storage.draw(-delta);
}

Tick
Device::fundableTicks(Watts pin) const
{
    const Watts net = pin - taskPower;
    if (!(net < 0.0))
        return kTickNever;
    // Ticks until the store can no longer fund a whole tick.
    const Joules perTick = energyOver(-net, 1);
    return static_cast<Tick>(std::floor(storage.energy() / perTick));
}

StepPlan
Device::planStep(Tick now, Tick limit)
{
    // The span available inside the current power-trace segment,
    // before the bounds below shorten it.
    const Tick span =
        std::min(limit, powerCursor.nextChangeAfter(now)) - now;

    StepPlan plan;
    plan.pin = powerCursor.valueAt(now);
    plan.phase = currentPhase;

    switch (currentPhase) {
      case DevicePhase::Idle: {
        plan.run = span;
        return plan;
      }

      case DevicePhase::Running: {
        Tick run = std::min(span, remainingTaskTicks);
        if (profile.checkpoint.policy ==
            app::CheckpointPolicy::Periodic) {
            // Stop at the next scheduled checkpoint.
            run = std::min(run, profile.checkpoint.periodicInterval -
                                    progressSinceSave);
        }
        // run <= 0: the store cannot fund the next tick, a power
        // failure (an immediate transition; the commit consumes no
        // time).
        plan.run = std::max<Tick>(std::min(run, fundableTicks(plan.pin)),
                                  0);
        return plan;
      }

      case DevicePhase::CheckpointSave:
      case DevicePhase::Restoring: {
        plan.run = std::min(remainingPhaseTicks, span);
        return plan;
      }

      case DevicePhase::Recharging: {
        const Joules deficit = storage.deficitToRestart();
        if (deficit <= 0.0) {
            // Already above the restart threshold: immediate
            // transition to Restoring.
            plan.run = 0;
            return plan;
        }
        Tick run = span;
        if (plan.pin > 0.0) {
            // Closed-form threshold solve within this segment: the
            // first tick count whose harvested energy covers the
            // deficit.
            const Joules perTick = energyOver(plan.pin, 1);
            const auto needed = static_cast<Tick>(
                std::ceil(deficit / perTick));
            const Tick bound = std::max<Tick>(needed, 1);
            run = std::min(run, bound);
        }
        plan.run = run;
        return plan;
      }
    }
    util::panic("invalid device phase");
}

void
Device::commitStep(const StepPlan &plan)
{
    if (plan.phase != currentPhase)
        util::panic("Device::commitStep with a stale plan");
    const Tick run = plan.run;

    switch (currentPhase) {
      case DevicePhase::Idle: {
        applyNet(plan.pin - profile.sleepPower, run);
        return;
      }

      case DevicePhase::Running: {
        if (run <= 0) {
            // Cannot fund the next tick: power failure.
            onPowerFailure();
            return;
        }
        const bool periodic = profile.checkpoint.policy ==
            app::CheckpointPolicy::Periodic;
        applyNet(plan.pin - taskPower, run);
        remainingTaskTicks -= run;
        deviceStats.activeTicks += run;
        if (periodic)
            progressSinceSave += run;
        if (remainingTaskTicks == 0) {
            taskPower = 0.0;
            progressSinceSave = 0;
            currentPhase = DevicePhase::Idle;
        } else if (periodic && progressSinceSave >=
                                   profile.checkpoint.periodicInterval) {
            periodicSaveInProgress = true;
            currentPhase = DevicePhase::CheckpointSave;
            remainingPhaseTicks = profile.checkpoint.saveTicks;
        }
        return;
      }

      case DevicePhase::CheckpointSave: {
        applyNet(plan.pin - profile.checkpoint.savePower, run);
        remainingPhaseTicks -= run;
        if (remainingPhaseTicks == 0) {
            ++deviceStats.checkpointSaves;
            if (periodicSaveInProgress) {
                // Proactive save: progress is persisted, keep going.
                periodicSaveInProgress = false;
                progressSinceSave = 0;
                currentPhase = DevicePhase::Running;
            } else {
                ++deviceStats.powerFailures;
                currentPhase = DevicePhase::Recharging;
            }
        }
        return;
      }

      case DevicePhase::Recharging: {
        if (run <= 0) {
            currentPhase = DevicePhase::Restoring;
            remainingPhaseTicks = profile.checkpoint.restoreTicks;
            return;
        }
        applyNet(plan.pin, run);
        deviceStats.rechargeTicks += run;
        if (storage.deficitToRestart() <= 0.0) {
            currentPhase = DevicePhase::Restoring;
            remainingPhaseTicks = profile.checkpoint.restoreTicks;
        }
        return;
      }

      case DevicePhase::Restoring: {
        applyNet(plan.pin - profile.checkpoint.restorePower, run);
        remainingPhaseTicks -= run;
        if (remainingPhaseTicks == 0)
            currentPhase = DevicePhase::Running;
        return;
      }
    }
    util::panic("invalid device phase");
}

Tick
Device::skipCycles(Tick now, Tick limit)
{
    const CycleKey key{
        std::bit_cast<std::uint64_t>(powerCursor.valueAt(now)),
        std::bit_cast<std::uint64_t>(taskPower),
        std::bit_cast<std::uint64_t>(storage.energy())};
    if (remainingTaskTicks < anchor.taskTicks && anchor.key == key &&
        anchor.segment == powerCursor.position() &&
        anchor.rejected == storage.rejectedHarvest()) {
        cycle.key = key;
        cycle.length = now - anchor.now;
        cycle.tail = now - lastRunStart;
        cycle.activeTicks =
            deviceStats.activeTicks - anchor.stats.activeTicks;
        cycle.rechargeTicks =
            deviceStats.rechargeTicks - anchor.stats.rechargeTicks;
        cycle.powerFailures =
            deviceStats.powerFailures - anchor.stats.powerFailures;
        cycle.checkpointSaves =
            deviceStats.checkpointSaves - anchor.stats.checkpointSaves;
    }
    if (cycle.length > 0 && cycle.key == key) {
        // From an anchor with this key, planStep and commitStep read
        // only the key, the profile, the span bounds and
        // remainingTaskTicks (as a min bound). n cycles end by the
        // segment end and the limit and leave at least one task
        // tick, so none of their steps is cut short and each replays
        // the memo exactly.
        const Tick span =
            std::min(limit, powerCursor.nextChangeAfter(now)) - now;
        const Tick n = std::min(span / cycle.length,
                                (remainingTaskTicks - 1) /
                                    cycle.activeTicks);
        if (n > 0) {
            const auto times = static_cast<std::uint64_t>(n);
            remainingTaskTicks -= n * cycle.activeTicks;
            // Every cycle ends on a completed save.
            remainingPhaseTicks = 0;
            deviceStats.activeTicks += n * cycle.activeTicks;
            deviceStats.rechargeTicks += n * cycle.rechargeTicks;
            deviceStats.powerFailures += times * cycle.powerFailures;
            deviceStats.checkpointSaves += times * cycle.checkpointSaves;
            // The next anchor is this one, moved: no cycle closes
            // there.
            anchor.taskTicks = 0;
            // Leave the cursor where the plain loop's last query
            // would: at the start of the last cycle's last step that
            // runs time. The skip stays on one power value, so this
            // only walks over equal-valued segment starts, and is a
            // range check when there are none.
            const Tick reached = now + n * cycle.length;
            (void)powerCursor.valueAt(reached - cycle.tail);
            return reached;
        }
        // No whole cycle fits, so the next anchor with this key lies
        // past the limit, the segment end or the task's completion:
        // no cycle can close against this anchor.
        anchor.taskTicks = 0;
        return now;
    }
    anchor = CycleAnchor{key,
                         now,
                         powerCursor.position(),
                         storage.rejectedHarvest(),
                         remainingTaskTicks,
                         deviceStats};
    return now;
}

Tick
Device::advance(Tick now, Tick limit)
{
    // A cycle is recorded only between anchors of one call.
    anchor.taskTicks = 0;
    int zeroProgressStreak = 0;
    while (now < limit) {
        if (atCycleAnchor()) {
            const Tick reached = skipCycles(now, limit);
            if (reached > now) {
                now = reached;
                zeroProgressStreak = 0;
                continue;
            }
        }

        const bool wasActive = taskActive();

        const StepPlan plan = planStep(now, limit);
        commitStep(plan);
        ++stepCount;
        const Tick consumed = plan.run;
        if (consumed > 0)
            lastRunStart = now;
        now += consumed;

        // Stop exactly at task completion so the caller can observe
        // the completion tick.
        if (wasActive && !taskActive())
            return now;

        // A just-in-time run that leaves the task loaded usually
        // stops because the store can no longer fund a tick; then
        // the next step would be a zero-length Running step whose
        // commit is the power failure. Run that step's test here, on
        // the post-commit store and the pin at the new tick (its
        // span is at least 1, since now < limit), and fail inline.
        if (plan.phase == DevicePhase::Running &&
            currentPhase == DevicePhase::Running && now < limit &&
            profile.checkpoint.policy ==
                app::CheckpointPolicy::JustInTime &&
            fundableTicks(powerCursor.valueAt(now)) <= 0) {
            onPowerFailure();
            // The plain loop counts that step as one without progress.
            zeroProgressStreak = 1;
            continue;
        }

        // A zero-consumption step is a pure phase transition
        // (Running -> CheckpointSave, Recharging -> Restoring); the
        // next iteration makes time progress in the new phase. A
        // malformed profile (e.g. a restart threshold that cannot
        // fund a single tick of work) would cycle through phases
        // forever without advancing time — panic instead of spinning.
        if (consumed > 0) {
            zeroProgressStreak = 0;
        } else if (++zeroProgressStreak > 2) {
            util::panic(util::msg(
                "Device::advance made no time progress for ",
                zeroProgressStreak, " iterations at tick ", now,
                " (limit ", limit, ", phase ",
                static_cast<int>(currentPhase), ", energy ",
                storage.energy(), " J, task ticks left ",
                remainingTaskTicks,
                "): malformed device/power profile"));
        }
    }
    return now;
}

} // namespace sim
} // namespace quetzal
