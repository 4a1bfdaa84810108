/**
 * @file
 * Tests for the lambda and execution-probability trackers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>

#include "queueing/rate_tracker.hpp"

namespace quetzal {
namespace queueing {
namespace {

TEST(ArrivalRateTracker, ConservativeBeforeObservations)
{
    ArrivalRateTracker tracker(256, 1.0);
    EXPECT_DOUBLE_EQ(tracker.arrivalsPerSecond(), 1.0);
}

TEST(ArrivalRateTracker, TracksStoredFraction)
{
    ArrivalRateTracker tracker(8, 1.0);
    for (int i = 0; i < 4; ++i)
        tracker.recordCapture(true);
    for (int i = 0; i < 4; ++i)
        tracker.recordCapture(false);
    EXPECT_DOUBLE_EQ(tracker.insertionsPerPeriod(), 0.5);
    EXPECT_DOUBLE_EQ(tracker.arrivalsPerSecond(), 0.5);
}

TEST(ArrivalRateTracker, ScalesWithCaptureRate)
{
    ArrivalRateTracker tracker(8, 4.0); // 4 captures per second
    for (int i = 0; i < 8; ++i)
        tracker.recordCapture(i % 2 == 0);
    EXPECT_DOUBLE_EQ(tracker.arrivalsPerSecond(), 2.0);
}

TEST(ArrivalRateTracker, SpawnsCountAsArrivals)
{
    ArrivalRateTracker tracker(4, 1.0);
    // Every capture stored, plus one spawn per capture: two arrivals
    // per period.
    for (int i = 0; i < 4; ++i) {
        tracker.recordCapture(true);
        tracker.recordInsertion();
    }
    EXPECT_DOUBLE_EQ(tracker.arrivalsPerSecond(), 2.0);
}

TEST(ArrivalRateTracker, WindowEvictsOldPeriods)
{
    ArrivalRateTracker tracker(4, 1.0);
    for (int i = 0; i < 4; ++i)
        tracker.recordCapture(true);
    EXPECT_DOUBLE_EQ(tracker.arrivalsPerSecond(), 1.0);
    for (int i = 0; i < 4; ++i)
        tracker.recordCapture(false);
    EXPECT_DOUBLE_EQ(tracker.arrivalsPerSecond(), 0.0);
}

TEST(ArrivalRateTracker, LagBoundedByWindow)
{
    // After a burst starts, the estimate converges within one window.
    ArrivalRateTracker tracker(16, 1.0);
    for (int i = 0; i < 64; ++i)
        tracker.recordCapture(false);
    for (int i = 0; i < 16; ++i)
        tracker.recordCapture(true);
    EXPECT_DOUBLE_EQ(tracker.arrivalsPerSecond(), 1.0);
}

TEST(ArrivalRateTracker, ClearResets)
{
    ArrivalRateTracker tracker(8, 1.0);
    tracker.recordCapture(true);
    tracker.clear();
    EXPECT_EQ(tracker.filled(), 0u);
    EXPECT_DOUBLE_EQ(tracker.arrivalsPerSecond(), 1.0); // conservative
}

/**
 * The burst mean recomputed from the exported counts: the last
 * min(filled, kBurstPeriods) periods ending at the cursor, summed
 * back to front.
 */
double
bruteForceBurst(const ArrivalRateTracker &tracker)
{
    const ArrivalRateTracker::State state = tracker.exportState();
    if (state.filledPeriods == 0)
        return 1.0;
    const auto size = static_cast<std::uint32_t>(state.counts.size());
    const std::uint32_t span =
        std::min(state.filledPeriods, ArrivalRateTracker::kBurstPeriods);
    std::uint32_t sum = 0;
    for (std::uint32_t back = 0; back < span; ++back)
        sum += state.counts[(state.cursor + size - back) % size];
    return static_cast<double>(sum) / static_cast<double>(span);
}

TEST(ArrivalRateTracker, IncrementalBurstMatchesBruteForce)
{
    std::mt19937_64 rng(0xb0257ull);
    for (const std::uint32_t window : {1u, 8u, 15u, 16u, 17u, 256u}) {
        SCOPED_TRACE(::testing::Message() << "window " << window);
        ArrivalRateTracker tracker(window, 2.0);
        // Carries unrelated history, so an import must replace it.
        ArrivalRateTracker other(window, 2.0);
        int saturated = 0;
        int imports = 0;
        for (int step = 0; step < 6000; ++step) {
            const auto roll = rng() % 1000;
            if (roll < 400) {
                tracker.recordCapture(roll < 250);
            } else if (roll < 550) {
                tracker.beginPeriod();
            } else if (roll < 980) {
                // Mostly a few insertions; now and then enough to
                // pin the period's count at 255.
                const auto burst = rng() % 16 == 0 ? 300 : rng() % 4;
                for (std::uint64_t i = 0; i < burst; ++i)
                    tracker.recordInsertion();
            } else if (roll < 985) {
                tracker.clear();
            } else {
                for (int i = 0; i < 40; ++i)
                    other.recordCapture(rng() % 2 == 0);
                other.importState(tracker.exportState());
                std::swap(tracker, other);
                ++imports;
            }
            const ArrivalRateTracker::State state = tracker.exportState();
            saturated += std::count(state.counts.begin(),
                                    state.counts.end(), 255) > 0;
            const double burst = bruteForceBurst(tracker);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(
                          tracker.burstInsertionsPerPeriod()),
                      std::bit_cast<std::uint64_t>(burst))
                << "step " << step;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(
                          tracker.arrivalsPerSecond()),
                      std::bit_cast<std::uint64_t>(
                          std::max(tracker.insertionsPerPeriod(), burst) *
                          2.0))
                << "step " << step;
        }
        EXPECT_GT(saturated, 0);
        EXPECT_GT(imports, 0);
    }
}

TEST(ExecutionProbabilityTracker, ConservativeDefault)
{
    ExecutionProbabilityTracker tracker(64);
    EXPECT_DOUBLE_EQ(tracker.probability(), 1.0);
}

TEST(ExecutionProbabilityTracker, TracksFraction)
{
    ExecutionProbabilityTracker tracker(8);
    for (int i = 0; i < 6; ++i)
        tracker.recordExecution(i < 3);
    EXPECT_DOUBLE_EQ(tracker.probability(), 0.5);
}

TEST(ExecutionProbabilityTracker, SlidesWithWindow)
{
    ExecutionProbabilityTracker tracker(4);
    for (int i = 0; i < 4; ++i)
        tracker.recordExecution(true);
    for (int i = 0; i < 4; ++i)
        tracker.recordExecution(false);
    EXPECT_DOUBLE_EQ(tracker.probability(), 0.0);
}

} // namespace
} // namespace queueing
} // namespace quetzal
