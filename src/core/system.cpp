#include "core/system.hpp"

#include "hw/ratio_engine.hpp"
#include "util/logging.hpp"

namespace quetzal {
namespace core {

TaskSystem::TaskSystem(const SystemConfig &config)
    : cfg(config), monitor(config.circuit),
      arrivalTracker(config.arrivalWindow, config.captureHz)
{
}

TaskId
TaskSystem::addTask(const std::string &name,
                    const std::vector<DegradationOptionSpec> &options)
{
    if (taskList.size() >= kMaxTasks)
        util::fatal(util::msg("task limit of ", kMaxTasks, " exceeded"));
    if (options.empty())
        util::fatal(util::msg("task '", name, "' needs options"));

    std::vector<DegradationOption> profiled;
    profiled.reserve(options.size());
    for (const auto &spec : options) {
        DegradationOption opt;
        opt.name = spec.name;
        opt.exeTicks = spec.exeTicks;
        opt.execPower = spec.execPower;
        // Profile phase (paper section 4.1): run the option while the
        // circuit measures its execution power; record the ADC code
        // and fill the premultiplied latency table.
        monitor.setExecutionPower(spec.execPower);
        const std::uint8_t code = monitor.measureExecutionCode();
        opt.hwProfile = hw::RatioEngine::makeProfile(spec.exeTicks, code);
        profiled.push_back(std::move(opt));
    }

    const auto id = static_cast<TaskId>(taskList.size());
    taskList.emplace_back(id, name, std::move(profiled));
    probTrackers.emplace_back(cfg.taskWindow);
    termOffset.push_back(termTable.size());
    termTable.resize(termTable.size() + options.size());
    ++stateRevision;
    ++probabilityEpoch;
    round.keyChecked = false;
    return id;
}

JobId
TaskSystem::addJob(const std::string &name,
                   const std::vector<TaskId> &tasks,
                   std::optional<JobId> onPositive)
{
    if (tasks.empty())
        util::fatal(util::msg("job '", name, "' needs tasks"));

    Job job;
    job.id = static_cast<JobId>(jobList.size());
    job.name = name;
    job.tasks = tasks;
    job.onPositive = onPositive;

    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (tasks[i] >= taskList.size())
            util::fatal(util::msg("job '", name, "' references unknown "
                                  "task ", tasks[i]));
        if (taskList[tasks[i]].degradable()) {
            if (job.degradableIndex)
                util::fatal(util::msg("job '", name, "' has more than "
                                      "one degradable task"));
            job.degradableIndex = i;
        }
    }

    jobList.push_back(std::move(job));
    return jobList.back().id;
}

void
TaskSystem::badId(const char *what, std::uint64_t id)
{
    util::panic(util::msg("unknown ", what, " id ", id));
}

void
TaskSystem::badOptionCount()
{
    util::panic("option choices do not match job task count");
}

void
TaskSystem::recordCapture(bool stored)
{
    arrivalTracker.recordCapture(stored);
}

void
TaskSystem::recordSpawn()
{
    arrivalTracker.recordInsertion();
}

double
TaskSystem::arrivalsPerSecond() const
{
    return arrivalTracker.arrivalsPerSecond();
}

void
TaskSystem::recordJobCompletion(const Job &job,
                                const std::vector<bool> &executedPerTask)
{
    if (executedPerTask.size() != job.tasks.size())
        util::panic("executed flags do not match job task count");
    appendCompletion(job, &executedPerTask);
}

void
TaskSystem::recordJobCompletion(const Job &job)
{
    appendCompletion(job, nullptr);
}

void
TaskSystem::appendCompletion(const Job &job,
                             const std::vector<bool> *executedPerTask)
{
    // Atomic window update (paper section 5.1): one bit per task of
    // the completed job. The estimate is the probability a task runs
    // *given its job was scheduled* — exactly the weight Alg. 1 needs
    // (conditional tasks inside a job dilute its E[S]; tasks of other
    // jobs are not diluted by this job's completions).
    bool probabilityMoved = false;
    for (std::size_t i = 0; i < job.tasks.size(); ++i) {
        const bool executed =
            executedPerTask == nullptr || (*executedPerTask)[i];
        probabilityMoved =
            probTrackers[job.tasks[i]].recordExecution(executed) ||
            probabilityMoved;
    }
    ++stateRevision;
    if (probabilityMoved) {
        ++probabilityEpoch;
        round.keyChecked = false;
    }
}

PowerReading
TaskSystem::measureInputPower(Watts truePower)
{
    monitor.setInputPower(truePower);
    PowerReading reading;
    reading.watts = truePower;
    if (measureMemoValid && truePower == lastMeasureWatts &&
        monitor.temperature() == lastMeasureTemperature) {
        // Keep the digital-side state identical to a real read.
        monitor.select(hw::Channel::Vin);
        reading.code = lastMeasureCode;
        return reading;
    }
    reading.code = monitor.measureInputCode();
    lastMeasureWatts = truePower;
    lastMeasureTemperature = monitor.temperature();
    lastMeasureCode = reading.code;
    measureMemoValid = true;
    return reading;
}

const double *
TaskSystem::checkedTerms(const ServiceTimeEstimator &estimator,
                         const PowerReading &power) const
{
    // Estimators declare what their estimates depend on (version(),
    // powerKey()); between two captures on one trace segment every
    // decision repeats the same key, so the terms are derived once
    // and then only read.
    const TermKey key{estimator.instanceId(), estimator.version(),
                      estimator.powerKey(power), probabilityEpoch};
    if (termKey != key) {
        termKey = key;
        for (const Task &t : taskList) {
            for (std::size_t opt = 0; opt < t.optionCount(); ++opt)
                termTable[termOffset[t.id()] + opt] =
                    executionProbability(t.id()) *
                    estimator.estimate(t.option(opt), power);
        }
    }
    // The table now holds this call's key; it is the round's key
    // exactly when the call carries the round's inputs.
    round.keyChecked = roundInputs(estimator, power);
    return termTable.data();
}

void
TaskSystem::saveCheckpoint(std::string &out) const
{
    namespace wire = util::wire;
    const hw::PowerMonitorCircuit::State circuitState =
        monitor.exportState();
    wire::putDouble(out, circuitState.inputPower);
    wire::putDouble(out, circuitState.executionPower);
    wire::putDouble(out, circuitState.capVoltage);
    wire::putDouble(out, circuitState.temperature);
    out.push_back(static_cast<char>(circuitState.selected));

    const queueing::ArrivalRateTracker::State arrivals =
        arrivalTracker.exportState();
    wire::putVarint(out, arrivals.counts.size());
    for (const auto count : arrivals.counts)
        wire::putVarint(out, count);
    wire::putVarint(out, arrivals.cursor);
    wire::putVarint(out, arrivals.filledPeriods);
    wire::putVarint(out, arrivals.runningSum);

    wire::putVarint(out, probTrackers.size());
    for (const auto &tracker : probTrackers) {
        const queueing::BitVectorWindow::State window =
            tracker.exportState();
        wire::putVarint(out, window.filledBits);
        wire::putVarint(out, window.onesCount);
        wire::putVarint(out, window.cursor);
        wire::putVarint(out, window.words.size());
        for (const std::uint64_t word : window.words)
            wire::putFixed64(out, word);
    }
    wire::putVarint(out, stateRevision);
}

bool
TaskSystem::loadCheckpoint(util::wire::Reader &in)
{
    namespace wire = util::wire;
    hw::PowerMonitorCircuit::State circuitState;
    if (!in.getDouble(circuitState.inputPower) ||
        !in.getDouble(circuitState.executionPower) ||
        !in.getDouble(circuitState.capVoltage) ||
        !in.getDouble(circuitState.temperature) ||
        !in.getByte(circuitState.selected))
        return false;

    queueing::ArrivalRateTracker::State arrivals;
    std::uint64_t periods = 0;
    if (!in.getVarint(periods) || periods > in.remaining() ||
        periods != arrivalTracker.exportState().counts.size())
        return false; // window size is configuration; must match
    arrivals.counts.reserve(static_cast<std::size_t>(periods));
    for (std::uint64_t i = 0; i < periods; ++i) {
        std::uint64_t count = 0;
        if (!in.getVarint(count) || count > 0xFF)
            return false;
        arrivals.counts.push_back(static_cast<std::uint8_t>(count));
    }
    std::uint64_t cursor = 0;
    std::uint64_t filled = 0;
    std::uint64_t sum = 0;
    if (!in.getVarint(cursor) || !in.getVarint(filled) ||
        !in.getVarint(sum) || cursor >= periods || filled > periods)
        return false;
    arrivals.cursor = static_cast<std::uint32_t>(cursor);
    arrivals.filledPeriods = static_cast<std::uint32_t>(filled);
    arrivals.runningSum = static_cast<std::uint32_t>(sum);

    std::uint64_t trackerCount = 0;
    if (!in.getVarint(trackerCount) ||
        trackerCount != probTrackers.size())
        return false; // tracker count is fixed by task registration
    std::vector<queueing::BitVectorWindow::State> windows;
    windows.reserve(static_cast<std::size_t>(trackerCount));
    for (std::uint64_t i = 0; i < trackerCount; ++i) {
        queueing::BitVectorWindow::State window;
        std::uint64_t bits = 0;
        std::uint64_t ones = 0;
        std::uint64_t windowCursor = 0;
        std::uint64_t words = 0;
        if (!in.getVarint(bits) || !in.getVarint(ones) ||
            !in.getVarint(windowCursor) || !in.getVarint(words) ||
            words > in.remaining() / 8)
            return false;
        // The window size is configuration; a state that does not fit
        // it would send the append cursor past the words.
        if (words != (std::uint64_t{cfg.taskWindow} + 63) / 64 ||
            windowCursor >= cfg.taskWindow || bits > cfg.taskWindow ||
            ones > bits)
            return false;
        window.filledBits = static_cast<std::uint32_t>(bits);
        window.onesCount = static_cast<std::uint32_t>(ones);
        window.cursor = static_cast<std::uint32_t>(windowCursor);
        window.words.reserve(static_cast<std::size_t>(words));
        for (std::uint64_t w = 0; w < words; ++w) {
            std::uint64_t word = 0;
            if (!in.getFixed64(word))
                return false;
            window.words.push_back(word);
        }
        windows.push_back(std::move(window));
    }
    std::uint64_t revision = 0;
    if (!in.getVarint(revision))
        return false;

    monitor.importState(circuitState);
    arrivalTracker.importState(arrivals);
    for (std::size_t i = 0; i < probTrackers.size(); ++i)
        probTrackers[i].importState(windows[i]);
    stateRevision = revision;
    // Drop the caches: a miss recomputes the exact double a hit would
    // have replayed, so this cannot change any output byte.
    ++probabilityEpoch;
    round.keyChecked = false;
    measureMemoValid = false;
    return true;
}

} // namespace core
} // namespace quetzal
