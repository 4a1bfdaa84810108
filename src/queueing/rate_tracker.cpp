#include "queueing/rate_tracker.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace quetzal {
namespace queueing {

ArrivalRateTracker::ArrivalRateTracker(std::uint32_t windowPeriods,
                                       double captureHz_)
    : counts(windowPeriods, 0), captureHz(captureHz_)
{
    if (windowPeriods == 0)
        util::fatal("arrival window must be positive");
    if (captureHz <= 0.0)
        util::fatal("capture rate must be positive");
}

void
ArrivalRateTracker::beginPeriod()
{
    const auto size = static_cast<std::uint32_t>(counts.size());
    if (filledPeriods == size) {
        cursor = cursor + 1 == size ? 0 : cursor + 1;
        // The burst window slides by one: the period burstSpan() back
        // leaves it. With a window of at most kBurstPeriods that is
        // the slot being recycled, so read it before clearing.
        const std::uint32_t span = burstSpan();
        burstSum -= counts[cursor >= span ? cursor - span
                                          : cursor + size - span];
        runningSum -= counts[cursor];
        counts[cursor] = 0;
    } else {
        // Window not yet warm: the cursor stays on the next fresh
        // slot (slots are zero-initialized).
        cursor = filledPeriods;
        ++filledPeriods;
        if (filledPeriods > kBurstPeriods)
            burstSum -= counts[cursor - kBurstPeriods];
        burstSum += counts[cursor];
    }
}

void
ArrivalRateTracker::recordInsertion()
{
    if (filledPeriods == 0)
        beginPeriod();
    if (counts[cursor] < 255) {
        ++counts[cursor];
        ++runningSum;
        ++burstSum;
    }
}

void
ArrivalRateTracker::recordCapture(bool stored)
{
    beginPeriod();
    if (stored)
        recordInsertion();
}

double
ArrivalRateTracker::insertionsPerPeriod() const
{
    if (filledPeriods == 0)
        return 1.0; // conservative before any observation
    return static_cast<double>(runningSum) /
        static_cast<double>(filledPeriods);
}

double
ArrivalRateTracker::burstInsertionsPerPeriod() const
{
    if (filledPeriods == 0)
        return 1.0; // conservative before any observation
    return static_cast<double>(burstSum) /
        static_cast<double>(burstSpan());
}

double
ArrivalRateTracker::arrivalsPerSecond() const
{
    return std::max(insertionsPerPeriod(), burstInsertionsPerPeriod()) *
        captureHz;
}

void
ArrivalRateTracker::clear()
{
    for (auto &count : counts)
        count = 0;
    cursor = 0;
    filledPeriods = 0;
    runningSum = 0;
    burstSum = 0;
}

void
ArrivalRateTracker::importState(const State &snapshot)
{
    counts = snapshot.counts;
    cursor = snapshot.cursor;
    filledPeriods = snapshot.filledPeriods;
    runningSum = snapshot.runningSum;
    const auto size = static_cast<std::uint32_t>(counts.size());
    burstSum = 0;
    for (std::uint32_t back = 0; back < burstSpan(); ++back)
        burstSum += counts[(cursor + size - back) % size];
}

ExecutionProbabilityTracker::ExecutionProbabilityTracker(
        std::uint32_t windowBits)
    : window(windowBits)
{
}

bool
ExecutionProbabilityTracker::recordExecution(bool executed)
{
    const std::uint32_t filledBefore = window.filled();
    const std::uint32_t onesBefore = window.ones();
    window.append(executed);
    if (filledBefore == 0)
        return !executed; // the 1.0 prior becomes 1/1 or 0/1
    if (window.filled() == filledBefore)
        return window.ones() != onesBefore; // warm: evicted != appended
    // Warm-up: o/f == (o + b)/(f + 1) exactly when o == b * f, i.e.
    // an all-ones window gains a one or an all-zeros window a zero.
    return onesBefore != (executed ? filledBefore : 0);
}

double
ExecutionProbabilityTracker::probability() const
{
    return window.fraction(1.0);
}

} // namespace queueing
} // namespace quetzal
