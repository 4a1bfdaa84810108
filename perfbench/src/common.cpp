#include "common.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "sim/runner.hpp"
#include "timer.hpp"

namespace perfbench {

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(samples.size()));
    const std::size_t index = rank < 1.0
        ? 0
        : std::min(samples.size() - 1,
                   static_cast<std::size_t>(rank) - 1);
    return samples[index];
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

double
deviceDays(const quetzal::sim::Metrics &m)
{
    return static_cast<double>(m.simulatedTicks) /
        (86400.0 * static_cast<double>(quetzal::kTicksPerSecond));
}

namespace {

bool
sameStats(const quetzal::util::RunningStats &a,
          const quetzal::util::RunningStats &b)
{
    const auto x = a.exportState();
    const auto y = b.exportState();
    return x.n == y.n && x.runningMean == y.runningMean &&
        x.m2 == y.m2 && x.minSample == y.minSample &&
        x.maxSample == y.maxSample && x.total == y.total;
}

} // namespace

bool
sameMetrics(const quetzal::sim::Metrics &a,
            const quetzal::sim::Metrics &b)
{
    return a.eventsTotal == b.eventsTotal &&
        a.eventsInteresting == b.eventsInteresting &&
        a.interestingInputsNominal == b.interestingInputsNominal &&
        a.captures == b.captures &&
        a.interestingCaptured == b.interestingCaptured &&
        a.uninterestingCaptured == b.uninterestingCaptured &&
        a.storedInputs == b.storedInputs &&
        a.iboDropsInteresting == b.iboDropsInteresting &&
        a.iboDropsUninteresting == b.iboDropsUninteresting &&
        a.fnDiscards == b.fnDiscards && a.fpPositives == b.fpPositives &&
        a.unprocessedInteresting == b.unprocessedInteresting &&
        a.txInterestingHq == b.txInterestingHq &&
        a.txInterestingLq == b.txInterestingLq &&
        a.txUninterestingHq == b.txUninterestingHq &&
        a.txUninterestingLq == b.txUninterestingLq &&
        a.jobsCompleted == b.jobsCompleted &&
        a.degradedJobs == b.degradedJobs &&
        a.iboPredictions == b.iboPredictions &&
        a.powerFailures == b.powerFailures &&
        a.checkpointSaves == b.checkpointSaves &&
        a.rechargeTicks == b.rechargeTicks &&
        a.activeTicks == b.activeTicks &&
        a.rolledBackTicks == b.rolledBackTicks &&
        a.simulatedTicks == b.simulatedTicks &&
        a.deadlineMisses == b.deadlineMisses &&
        a.energyWastedJoules == b.energyWastedJoules &&
        a.schedulerOverheadSeconds == b.schedulerOverheadSeconds &&
        a.schedulerOverheadEnergy == b.schedulerOverheadEnergy &&
        a.telemetryOverheadSeconds == b.telemetryOverheadSeconds &&
        a.telemetryOverheadEnergy == b.telemetryOverheadEnergy &&
        sameStats(a.jobServiceSeconds, b.jobServiceSeconds) &&
        sameStats(a.predictionErrorSeconds, b.predictionErrorSeconds);
}

void
flipOneField(quetzal::sim::Metrics &m)
{
    ++m.captures;
}

double
hostSlowdown(unsigned jobs)
{
    // The kernel's wall time on the reference host (4-CPU Intel Xeon
    // VM, calm phase); only the ratio matters.
    constexpr double kReferenceSeconds = 0.0190;
    constexpr int kSteps = 5'000'000;
    std::vector<std::uint64_t> out(jobs);
    const double start = hostSeconds();
    quetzal::sim::parallelFor(jobs, jobs, [&](std::size_t t) {
        // xorshift64*: a serial dependency chain the compiler cannot
        // shorten, kept live through `out`.
        std::uint64_t x = 0x9e3779b97f4a7c15ull + t;
        for (int i = 0; i < kSteps; ++i) {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x *= 0x2545f4914f6cdd1dull;
        }
        out[t] = x;
    });
    const double seconds = hostSeconds() - start;
    volatile std::uint64_t keep = out[0];
    (void)keep;
    return seconds / kReferenceSeconds;
}

void
LayerClock::calibrate()
{
    using clock = std::chrono::steady_clock;
    const auto wallStart = clock::now();
    const std::uint64_t tickStart = now();
    while (clock::now() - wallStart < std::chrono::milliseconds(20)) {
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          clock::now() - wallStart)
                          .count();
    msPerTick = ms / static_cast<double>(now() - tickStart);

    std::vector<std::uint64_t> empty(1001);
    for (std::uint64_t &ticks : empty) {
        const std::uint64_t start = now();
        ticks = now() - start;
    }
    std::nth_element(empty.begin(), empty.begin() + 500, empty.end());
    emptyTicks = empty[500];
}

StdoutRedirect::StdoutRedirect(To to)
{
    std::cout.flush();
    std::fflush(stdout);
    saved = ::dup(STDOUT_FILENO);
    const int target = to == To::Null ? ::open("/dev/null", O_WRONLY)
                                      : ::dup(STDERR_FILENO);
    if (target >= 0) {
        ::dup2(target, STDOUT_FILENO);
        ::close(target);
    }
}

StdoutRedirect::~StdoutRedirect()
{
    std::cout.flush();
    std::fflush(stdout);
    if (saved >= 0) {
        ::dup2(saved, STDOUT_FILENO);
        ::close(saved);
    }
}

} // namespace perfbench
