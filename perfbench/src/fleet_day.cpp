/**
 * @file
 * fleet-day: the scenarios/fleet_day.json shape (four policy
 * cohorts, 1 cell, 90 s jobs at 12 mW, 60 s captures, buffer 4,
 * 600 s slabs, one simulated day) scaled up in device count, on 16
 * shards, snapshotting at every barrier into an in-memory
 * checkpointSink. Fleet advance, the coordinator and snapshot encode
 * do the work; core and obs do none.
 */

#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "common.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/fleet.hpp"
#include "layers.hpp"
#include "scenario/engine.hpp"
#include "scenario/spec.hpp"

namespace perfbench {

namespace {

using namespace quetzal;

constexpr std::size_t kDevicesPerCohort = 2000;
constexpr std::size_t kFidelityReps = 16;

/**
 * runFleet's text stream: discarded, but the time of its first byte
 * (the "== fleet" header, written once the shard states are
 * allocated, right before the first slab) ends the set-up.
 */
class FirstWriteClock final : public std::streambuf
{
  public:
    double firstWrite = 0.0;

  protected:
    int overflow(int c) override
    {
        mark();
        return traits_type::not_eof(c);
    }
    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        mark();
        return n;
    }

  private:
    void mark()
    {
        if (firstWrite == 0.0)
            firstWrite = hostSeconds();
    }
};

bool
sameCounters(const fleet::CohortCounters &a, const fleet::CohortCounters &b)
{
    return a.captures == b.captures &&
        a.missedCaptures == b.missedCaptures &&
        a.storedInputs == b.storedInputs &&
        a.dropsInteresting == b.dropsInteresting &&
        a.dropsUninteresting == b.dropsUninteresting &&
        a.jobsCompleted == b.jobsCompleted &&
        a.degradedJobs == b.degradedJobs &&
        a.powerFailures == b.powerFailures &&
        a.checkpointSaves == b.checkpointSaves &&
        a.rechargeTicks == b.rechargeTicks &&
        a.activeTicks == b.activeTicks &&
        a.chargeNanojoules == b.chargeNanojoules &&
        a.wastedNanojoules == b.wastedNanojoules &&
        a.occupancySum == b.occupancySum && a.devicesOff == b.devicesOff;
}

/** shard-sum == total, for every counter. */
bool
shardSumMatches(const std::vector<fleet::CohortCounters> &shards,
                const fleet::CohortCounters &total)
{
    fleet::CohortCounters sum;
    for (const fleet::CohortCounters &shard : shards)
        sum.add(shard);
    return sameCounters(sum, total);
}

/** How a rep runs: checkpointing (and checked) or clean. */
enum class Mode { Checkpoint, Clean };

/** One runFleet call, with its barrier checks and timings. */
struct Rep
{
    double setupSeconds = 0.0;
    double loadMs = 0.0;
    double compileMs = 0.0;
    double simulateSeconds = 0.0; ///< first slab to return, less checks
    double deviceDays = 0.0;
    std::uint64_t barriers = 0;
    std::uint64_t failedBarriers = 0;
    std::vector<double> slabMs, decodeMs, encodeMs;
    double snapshotBytes = 0.0;
    fleet::FleetResult result;
};

Rep
runRep(const Options &options, std::uint64_t seed, Mode mode, bool inject)
{
    Rep rep;
    const double start = hostSeconds();
    double t = hostSeconds();
    auto spec = scenario::loadScenarioFile(options.scenarios +
                                           "/fleet_day.json");
    rep.loadMs = (hostSeconds() - t) * 1e3;
    if (!spec.ok())
        throw std::runtime_error("cannot load fleet_day.json");
    t = hostSeconds();
    fleet::FleetConfig config = scenario::buildFleetConfig(*spec.value);
    for (fleet::CohortConfig &cohort : config.cohorts) {
        cohort.devices = options.smoke ? 50 : kDevicesPerCohort;
        cohort.seed = seed;
    }
    const std::uint64_t fingerprint = fleet::fleetFingerprint(config);
    rep.compileMs = (hostSeconds() - t) * 1e3;

    FirstWriteClock clock;
    std::ostream text(&clock);
    fleet::FleetOptions fleetOptions;
    fleetOptions.jobs = options.jobs;
    fleetOptions.out = &text;
    double checkSeconds = 0.0;
    double lastBarrier = 0.0;
    if (mode == Mode::Checkpoint) {
        fleetOptions.checkpointEverySlabs = 1;
        fleetOptions.checkpointSink = [&](std::string &&blob, Tick) {
            const double arrival = hostSeconds();
            rep.slabMs.push_back(
                (arrival - (lastBarrier > 0 ? lastBarrier
                                            : clock.firstWrite)) *
                1e3);
            if (inject && rep.barriers == 0)
                blob[blob.size() / 2] ^= 0x40;
            ++rep.barriers;
            fleet::FleetSnapshot snap;
            std::string error;
            double c = hostSeconds();
            const bool decoded =
                fleet::decodeFleetState(blob, config, snap, error);
            rep.decodeMs.push_back((hostSeconds() - c) * 1e3);
            bool ok = decoded;
            if (decoded) {
                c = hostSeconds();
                const std::string again =
                    fleet::encodeFleetState(snap, fingerprint);
                rep.encodeMs.push_back((hostSeconds() - c) * 1e3);
                fleet::CohortCounters cohortSum;
                for (const fleet::CohortCounters &cohort :
                     snap.cohortTotals)
                    cohortSum.add(cohort);
                ok = again == blob &&
                    shardSumMatches(snap.shardTotals, cohortSum);
            }
            rep.failedBarriers += ok ? 0 : 1;
            rep.snapshotBytes += static_cast<double>(blob.size());
            lastBarrier = hostSeconds();
            checkSeconds += lastBarrier - arrival;
        };
    }
    rep.result = fleet::runFleet(config, fleetOptions);
    const double end = hostSeconds();

    rep.setupSeconds = clock.firstWrite - start;
    rep.simulateSeconds = end - clock.firstWrite - checkSeconds;
    rep.deviceDays = static_cast<double>(rep.result.devices) *
        static_cast<double>(config.horizonTicks) /
        (86400.0 * static_cast<double>(kTicksPerSecond));
    if (rep.barriers > 0) {
        rep.snapshotBytes /= static_cast<double>(rep.barriers);
        // The run's own totals close the last barrier's check.
        if (!shardSumMatches(rep.result.shardTotals,
                             rep.result.fleetTotals) &&
            rep.failedBarriers == 0)
            rep.failedBarriers = 1;
    }
    return rep;
}

} // namespace

Result
runFleetDay(const Options &options)
{
    Result result;
    const std::size_t fidelityReps = options.smoke ? 1 : kFidelityReps;
    const bool inject = options.inject == Inject::Snapshot;
    std::vector<double> setupSeconds, rates, tracedRates, cleanSeconds,
        checkpointSeconds;
    std::vector<Rep> traced;
    double discardSum = 0.0, hqSum = 0.0;
    std::size_t fidelityCount = 0;

    const double loopStart = hostSeconds();
    for (std::size_t k = 0;; ++k) {
        const std::uint64_t seed = options.seed + k;
        const double slowdown = hostSlowdown(options.jobs);
        // Traced mode adds a clean (non-checkpointing) rep and a
        // traced rep of the same seed, in rotating order so no side
        // always runs on a warmer host.
        const std::size_t passes = options.trace ? 3 : 1;
        for (std::size_t j = 0; j < passes; ++j) {
            const std::size_t pass = (j + k) % passes;
            if (pass == 1) {
                const Rep clean = runRep(options, seed, Mode::Clean, false);
                cleanSeconds.push_back(clean.simulateSeconds / slowdown);
                continue;
            }
            Rep rep = runRep(options, seed, Mode::Checkpoint, inject);
            result.attempted += rep.barriers;
            result.failed += rep.failedBarriers;
            setupSeconds.push_back(rep.setupSeconds / slowdown);
            checkpointSeconds.push_back(rep.simulateSeconds / slowdown);
            const double rate =
                rep.deviceDays / rep.simulateSeconds * slowdown;
            if (pass == 2) {
                tracedRates.push_back(rate);
                traced.push_back(std::move(rep));
                continue;
            }
            rates.push_back(rate);
            if (k < fidelityReps) {
                const fleet::CohortCounters &totals =
                    rep.result.fleetTotals;
                discardSum += 100.0 *
                    static_cast<double>(totals.dropsInteresting) /
                    static_cast<double>(totals.captures);
                hqSum += 100.0 *
                    (1.0 - static_cast<double>(totals.degradedJobs) /
                         static_cast<double>(totals.jobsCompleted));
                ++fidelityCount;
            }
        }
        if (hostSeconds() - loopStart >= options.seconds &&
            k + 1 >= (options.trace ? 2 : fidelityReps))
            break;
    }

    if (!options.trace) {
        result.add("setup_s", median(setupSeconds), "s");
        result.add("device_days_per_s", median(rates), "device-days/s");
        result.add("peak_rss_mb", peakRssMb(), "MiB");
        result.add("discard_pct",
                   discardSum / static_cast<double>(fidelityCount), "%");
        result.add("hq_share_pct",
                   hqSum / static_cast<double>(fidelityCount), "%");
        return result;
    }

    std::vector<double> load, compile, slab, decode, encode;
    for (const Rep &rep : traced) {
        load.push_back(rep.loadMs);
        compile.push_back(rep.compileMs);
        slab.insert(slab.end(), rep.slabMs.begin(), rep.slabMs.end());
        decode.insert(decode.end(), rep.decodeMs.begin(),
                      rep.decodeMs.end());
        encode.insert(encode.end(), rep.encodeMs.begin(),
                      rep.encodeMs.end());
    }
    const Rep &first = traced.front();
    const fleet::CohortCounters &totals = first.result.fleetTotals;
    result.add("scenario.load_ms", median(load), "ms");
    result.add("scenario.compile_ms", median(compile), "ms");
    result.add("fleet.slab_ms_p50", percentile(slab, 50), "ms");
    result.add("fleet.slab_ms_p95", percentile(slab, 95), "ms");
    result.add("fleet.barriers", static_cast<double>(first.barriers),
               "count");
    result.add("fleet.snapshot.encode_ms", median(encode), "ms");
    result.add("fleet.snapshot.decode_ms", median(decode), "ms");
    result.add("fleet.snapshot.bytes", first.snapshotBytes, "B");
    result.add("fleet.ckpt_overhead_pct",
               100.0 * (median(checkpointSeconds) / median(cleanSeconds) -
                        1.0),
               "%");
    result.add("fleet.jobs_completed",
               static_cast<double>(totals.jobsCompleted), "count");
    result.add("fleet.drops",
               static_cast<double>(totals.dropsInteresting +
                                   totals.dropsUninteresting),
               "count");
    result.add("fleet.state_bytes_per_device",
               static_cast<double>(first.result.stateBytes) /
                   static_cast<double>(first.result.devices),
               "B");
    addTraceOverhead(result, rates, tracedRates);
    return result;
}

} // namespace perfbench
