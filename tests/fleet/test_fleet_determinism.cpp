/**
 * @file
 * The fleet determinism contract (DESIGN.md section 15): a seeded
 * 10k-device fleet produces byte-identical rollup text and telemetry
 * streams for every --jobs value and every shard count, and the
 * per-shard integer totals sum exactly to the fleet rollup — the
 * property that makes "how the fleet was partitioned" unobservable
 * in every output.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fleet/fleet.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_sink.hpp"

namespace {

using namespace quetzal;

/** Four policy cohorts x 2500 devices on the stress workload. */
fleet::FleetConfig
tenKConfig(unsigned shards)
{
    static const char *const kPolicies[] = {
        "sjf-ibo", "greedy-fcfs", "zygarde", "delgado-famaey"};

    fleet::FleetConfig config;
    config.shards = shards;
    config.slabTicks = 600 * kTicksPerSecond;
    config.horizonTicks = 7200 * kTicksPerSecond;
    config.rollupTicks = 3600 * kTicksPerSecond;
    for (const char *policy : kPolicies) {
        fleet::CohortConfig cohort;
        cohort.name = policy;
        cohort.policy = policy;
        cohort.devices = 2500;
        cohort.seed = 7;
        cohort.harvesterCells = 1;
        cohort.capturePeriod = 60 * kTicksPerSecond;
        cohort.bufferCapacity = 4;
        cohort.taskTicks = 90 * kTicksPerSecond;
        config.cohorts.push_back(cohort);
    }
    return config;
}

struct Observed
{
    std::string rollupText;
    std::string traceText;
    fleet::FleetResult result;
};

Observed
runOnce(unsigned shards, unsigned jobs)
{
    Observed observed;
    obs::VectorSink sink;
    std::ostringstream text;

    fleet::FleetOptions options;
    options.jobs = jobs;
    options.sink = &sink;
    options.out = &text;
    observed.result = fleet::runFleet(tenKConfig(shards), options);
    observed.rollupText = text.str();

    std::ostringstream trace;
    obs::writeJsonl(trace, sink.events(), 0);
    observed.traceText = trace.str();
    return observed;
}

void
expectCountersEqual(const fleet::CohortCounters &a,
                    const fleet::CohortCounters &b)
{
    EXPECT_EQ(a.captures, b.captures);
    EXPECT_EQ(a.missedCaptures, b.missedCaptures);
    EXPECT_EQ(a.storedInputs, b.storedInputs);
    EXPECT_EQ(a.dropsInteresting, b.dropsInteresting);
    EXPECT_EQ(a.dropsUninteresting, b.dropsUninteresting);
    EXPECT_EQ(a.jobsCompleted, b.jobsCompleted);
    EXPECT_EQ(a.degradedJobs, b.degradedJobs);
    EXPECT_EQ(a.powerFailures, b.powerFailures);
    EXPECT_EQ(a.checkpointSaves, b.checkpointSaves);
    EXPECT_EQ(a.rechargeTicks, b.rechargeTicks);
    EXPECT_EQ(a.activeTicks, b.activeTicks);
    EXPECT_EQ(a.chargeNanojoules, b.chargeNanojoules);
    EXPECT_EQ(a.wastedNanojoules, b.wastedNanojoules);
    EXPECT_EQ(a.occupancySum, b.occupancySum);
    EXPECT_EQ(a.devicesOff, b.devicesOff);
}

TEST(FleetDeterminism, RollupAndTraceAreByteIdenticalAcrossJobs)
{
    const Observed serial = runOnce(/*shards=*/4, /*jobs=*/1);
    const Observed parallel = runOnce(/*shards=*/4, /*jobs=*/4);

    EXPECT_FALSE(serial.rollupText.empty());
    EXPECT_FALSE(serial.traceText.empty());
    EXPECT_EQ(serial.rollupText, parallel.rollupText);
    EXPECT_EQ(serial.traceText, parallel.traceText);
    expectCountersEqual(serial.result.fleetTotals,
                        parallel.result.fleetTotals);
}

TEST(FleetDeterminism, RollupAndTraceAreByteIdenticalAcrossShards)
{
    const Observed one = runOnce(/*shards=*/1, /*jobs=*/4);
    const Observed four = runOnce(/*shards=*/4, /*jobs=*/4);
    const Observed sixteen = runOnce(/*shards=*/16, /*jobs=*/4);

    EXPECT_EQ(one.rollupText, four.rollupText);
    EXPECT_EQ(four.rollupText, sixteen.rollupText);
    EXPECT_EQ(one.traceText, four.traceText);
    EXPECT_EQ(four.traceText, sixteen.traceText);
    expectCountersEqual(one.result.fleetTotals,
                        sixteen.result.fleetTotals);
}

TEST(FleetDeterminism, ShardTotalsSumExactlyToFleetRollup)
{
    const Observed observed = runOnce(/*shards=*/16, /*jobs=*/4);
    const fleet::FleetResult &result = observed.result;

    ASSERT_EQ(result.shardTotals.size(), 16u);
    fleet::CohortCounters sum;
    for (const fleet::CohortCounters &shard : result.shardTotals)
        sum.add(shard);
    expectCountersEqual(sum, result.fleetTotals);

    // Cohort totals are the same partition along the other axis.
    fleet::CohortCounters cohortSum;
    for (const fleet::CohortResult &cohort : result.cohorts)
        cohortSum.add(cohort.totals);
    expectCountersEqual(cohortSum, result.fleetTotals);
}

TEST(FleetDeterminism, StateStaysCompact)
{
    const Observed observed = runOnce(/*shards=*/16, /*jobs=*/2);
    EXPECT_EQ(observed.result.devices, 10000u);
    EXPECT_EQ(observed.result.stateBytes, 29u * 10000u);

    // The run actually exercised the stress regime: jobs completed,
    // captures missed while off, and at least one cohort dropped
    // inputs at a full buffer.
    EXPECT_GT(observed.result.fleetTotals.jobsCompleted, 0u);
    EXPECT_GT(observed.result.fleetTotals.missedCaptures, 0u);
    EXPECT_GT(observed.result.fleetTotals.dropsInteresting, 0u);
    EXPECT_GT(observed.result.fleetTotals.degradedJobs, 0u);
}

TEST(FleetDeterminism, DeviceStepCountIsPinned)
{
    // The device work counter is host-independent: a fixed shape
    // executes exactly this many plan/commit steps at any --jobs. A
    // change that makes the device advance do more (or less) work
    // moves it; update the pin only with the reason.
    fleet::FleetConfig config = tenKConfig(/*shards=*/4);
    for (fleet::CohortConfig &cohort : config.cohorts)
        cohort.devices = 250;
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(jobs);
        fleet::FleetOptions options;
        options.jobs = jobs;
        const fleet::FleetResult result = fleet::runFleet(config, options);
        EXPECT_EQ(result.deviceSteps, 773297u);
    }
}

} // namespace
