#include "core/service_time.hpp"

#include <atomic>
#include <bit>
#include <cmath>

#include "hw/ratio_engine.hpp"

namespace quetzal {
namespace core {

namespace {

std::uint64_t
nextEstimatorId()
{
    // Atomic: controllers (and their estimators) are constructed on
    // parallel experiment-runner worker threads.
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

ServiceTimeEstimator::ServiceTimeEstimator()
    : uniqueId(nextEstimatorId())
{
}

std::uint64_t
ServiceTimeEstimator::powerKey(const PowerReading &power) const
{
    // Conservative default: key on the full reading so an estimator
    // that uses both fields still memoizes correctly.
    return std::bit_cast<std::uint64_t>(power.watts) ^
           (static_cast<std::uint64_t>(power.code) << 1);
}

EnergyAwareEstimator::EnergyAwareEstimator(bool useCircuit)
    : circuitPath(useCircuit)
{
}

std::uint64_t
EnergyAwareEstimator::powerKey(const PowerReading &power) const
{
    if (circuitPath)
        return static_cast<std::uint64_t>(power.code);
    return std::bit_cast<std::uint64_t>(power.watts);
}

double
EnergyAwareEstimator::estimate(const DegradationOption &option,
                               const PowerReading &power) const
{
    if (circuitPath) {
        const Tick ticks =
            hw::RatioEngine::serviceTicks(option.hwProfile, power.code);
        if (ticks == kTickNever) {
            // Saturated shift: effectively no harvestable power.
            return 1e9;
        }
        return ticksToSeconds(ticks);
    }
    const double exact = hw::RatioEngine::exactServiceSeconds(
        option.exeSeconds(), option.execPower, power.watts);
    return std::isinf(exact) ? 1e9 : exact;
}

std::string
EnergyAwareEstimator::name() const
{
    return circuitPath ? "energy-aware(circuit)" : "energy-aware(exact)";
}

AverageServiceTimeEstimator::Key
AverageServiceTimeEstimator::keyFor(const DegradationOption &option)
{
    return {option.exeTicks,
            static_cast<long long>(std::llround(option.execPower * 1e9))};
}

double
AverageServiceTimeEstimator::estimate(const DegradationOption &option,
                                      const PowerReading &power) const
{
    (void)power; // deliberately power-blind (the paper's Avg. S_e2e)
    const auto it = history.find(keyFor(option));
    if (it == history.end() || it->second.count() == 0)
        return option.exeSeconds();
    return it->second.mean();
}

void
AverageServiceTimeEstimator::recordObservation(
        const DegradationOption &option, double observedSeconds)
{
    history[keyFor(option)].add(observedSeconds);
    ++revision;
}

std::string
AverageServiceTimeEstimator::name() const
{
    return "avg-se2e";
}

std::size_t
AverageServiceTimeEstimator::observationCount(
        const DegradationOption &option) const
{
    const auto it = history.find(keyFor(option));
    return it == history.end() ? 0 : it->second.count();
}

void
AverageServiceTimeEstimator::saveState(std::string &out) const
{
    namespace wire = util::wire;
    wire::putVarint(out, revision);
    wire::putVarint(out, history.size());
    for (const auto &[key, stats] : history) {
        wire::putZigzag(out, static_cast<std::int64_t>(key.first));
        wire::putZigzag(out, static_cast<std::int64_t>(key.second));
        util::putRunningStats(out, stats);
    }
}

bool
AverageServiceTimeEstimator::loadState(util::wire::Reader &in)
{
    std::uint64_t savedRevision = 0;
    std::uint64_t entries = 0;
    if (!in.getVarint(savedRevision) || !in.getVarint(entries))
        return false;
    if (entries > in.remaining())
        return false; // each entry costs well over one byte
    std::map<Key, util::RunningStats> restored;
    for (std::uint64_t i = 0; i < entries; ++i) {
        std::int64_t tick = 0;
        std::int64_t power = 0;
        util::RunningStats stats;
        if (!in.getZigzag(tick) || !in.getZigzag(power) ||
            !util::getRunningStats(in, stats))
            return false;
        const Key key{static_cast<Tick>(tick),
                      static_cast<long long>(power)};
        restored.emplace(key, stats);
    }
    history = std::move(restored);
    revision = savedRevision;
    return true;
}

} // namespace core
} // namespace quetzal
