/**
 * @file
 * Tests for the synthetic event generator and environment presets,
 * including parameterized sweeps over all presets.
 */

#include <gtest/gtest.h>

#include "trace/event_generator.hpp"
#include "trace/trace_stats.hpp"

namespace quetzal {
namespace trace {
namespace {

TEST(EventGenerator, Deterministic)
{
    const auto cfg = EventGeneratorConfig::forPreset(
        EnvironmentPreset::Crowded, 100, 5);
    const EventTrace a = EventGenerator(cfg).generate();
    const EventTrace b = EventGenerator(cfg).generate();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.at(i).start, b.at(i).start);
        EXPECT_EQ(a.at(i).duration, b.at(i).duration);
        EXPECT_EQ(a.at(i).interesting, b.at(i).interesting);
    }
}

TEST(EventGenerator, SeedChangesTrace)
{
    auto cfg = EventGeneratorConfig::forPreset(
        EnvironmentPreset::Crowded, 100, 5);
    const EventTrace a = EventGenerator(cfg).generate();
    cfg.seed = 6;
    const EventTrace b = EventGenerator(cfg).generate();
    bool different = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        different = different || a.at(i).start != b.at(i).start;
    EXPECT_TRUE(different);
}

TEST(EventGenerator, MoreCrowdedHasLongerEvents)
{
    const auto more = computeStats(
        EventGenerator(EventGeneratorConfig::forPreset(
                           EnvironmentPreset::MoreCrowded, 500, 5))
            .generate());
    const auto less = computeStats(
        EventGenerator(EventGeneratorConfig::forPreset(
                           EnvironmentPreset::LessCrowded, 500, 5))
            .generate());
    EXPECT_GT(more.meanDurationSeconds, less.meanDurationSeconds);
    EXPECT_GT(more.activityDutyCycle, less.activityDutyCycle);
}

TEST(EventGenerator, EnvironmentFromNameCoversEveryPreset)
{
    EXPECT_EQ(environmentFromName("more-crowded"),
              EnvironmentPreset::MoreCrowded);
    EXPECT_EQ(environmentFromName("crowded"), EnvironmentPreset::Crowded);
    EXPECT_EQ(environmentFromName("less-crowded"),
              EnvironmentPreset::LessCrowded);
    EXPECT_EQ(environmentFromName("msp430"),
              EnvironmentPreset::Msp430Short);
    // Only the flag spellings; display names and other text are not.
    EXPECT_FALSE(environmentFromName("Crowded").has_value());
    EXPECT_FALSE(environmentFromName("mars").has_value());
    EXPECT_FALSE(environmentFromName("").has_value());
}

TEST(TraceStats, ExpectedStoredInputsScalesWithRate)
{
    const auto stats = computeStats(
        EventGenerator(EventGeneratorConfig::forPreset(
                           EnvironmentPreset::Crowded, 200, 5))
            .generate());
    EXPECT_NEAR(stats.expectedStoredInputs(2.0),
                2.0 * stats.expectedStoredInputs(1.0), 1e-9);
}

/** Parameterized sweep: invariants hold for every preset. */
class PresetProperty
    : public ::testing::TestWithParam<EnvironmentPreset>
{
};

TEST_P(PresetProperty, EventCountAndOrdering)
{
    const auto cfg = EventGeneratorConfig::forPreset(GetParam(), 300, 7);
    const EventTrace trace = EventGenerator(cfg).generate();
    ASSERT_EQ(trace.size(), 300u);
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace.at(i).start, trace.at(i - 1).end());
}

TEST_P(PresetProperty, DurationsRespectCaps)
{
    const auto cfg = EventGeneratorConfig::forPreset(GetParam(), 500, 7);
    const EventTrace trace = EventGenerator(cfg).generate();
    for (const auto &event : trace.data()) {
        const double capSeconds = event.interesting ?
            cfg.maxInterestingSeconds : cfg.maxUninterestingSeconds;
        EXPECT_LE(ticksToSeconds(event.duration), capSeconds + 1e-9);
        EXPECT_GE(ticksToSeconds(event.duration),
                  cfg.minDurationSeconds - 1e-9);
    }
}

TEST_P(PresetProperty, InterestingMixNearConfigured)
{
    const auto cfg = EventGeneratorConfig::forPreset(GetParam(), 2000, 7);
    const EventTrace trace = EventGenerator(cfg).generate();
    const double fraction =
        static_cast<double>(trace.interestingCount()) /
        static_cast<double>(trace.size());
    EXPECT_NEAR(fraction, cfg.interestingProbability, 0.05);
}

TEST_P(PresetProperty, MeanGapNearConfigured)
{
    const auto cfg = EventGeneratorConfig::forPreset(GetParam(), 2000, 7);
    const auto stats =
        computeStats(EventGenerator(cfg).generate());
    EXPECT_NEAR(stats.meanGapSeconds, cfg.meanInterarrivalSeconds,
                0.15 * cfg.meanInterarrivalSeconds);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, PresetProperty,
    ::testing::Values(EnvironmentPreset::MoreCrowded,
                      EnvironmentPreset::Crowded,
                      EnvironmentPreset::LessCrowded,
                      EnvironmentPreset::Msp430Short),
    [](const auto &info) { return environmentName(info.param); });

TEST(EventGeneratorDeathTest, InvalidConfigIsFatal)
{
    EventGeneratorConfig bad;
    bad.eventCount = 0;
    EXPECT_EXIT(EventGenerator{bad}, ::testing::ExitedWithCode(1),
                "count");
}

} // namespace
} // namespace trace
} // namespace quetzal
