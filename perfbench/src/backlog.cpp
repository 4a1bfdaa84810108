/**
 * @file
 * backlog-traced: the Ideal (infinite buffer, drain-to-empty) and QZ
 * controllers on more-crowded (fig09's Apollo 4, 1000-event, buffer
 * 10 shape), both recording full-level telemetry through
 * obs::StreamingBtraceSink into an in-memory stream, so disk speed
 * stays out of the number. The input buffer grows into the
 * thousands and every simulated event is encoded: the queueing and
 * obs layers do most of the work here.
 */

#include <array>
#include <istream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "assemble.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "obs/stream_sink.hpp"
#include "obs/trace_cursor.hpp"
#include "sim/runner.hpp"
#include "timer.hpp"

namespace perfbench {

namespace {

using namespace quetzal;

constexpr std::size_t kFidelityReps = 48;
constexpr std::size_t kCheckReps = 2;
constexpr std::size_t kRuns = 2; ///< Ideal, QZ

/** Layer trace of the obs sink: a forwarding sink timing record(). */
class TimedSink final : public obs::TraceSink
{
  public:
    explicit TimedSink(obs::TraceSink &inner) : inner(inner) {}

    void record(const obs::Event &event) override
    {
        if (!timer.sample()) {
            inner.record(event);
            return;
        }
        const std::uint64_t start = LayerClock::now();
        inner.record(event);
        timer.add(LayerClock::msSince(start));
    }

    obs::TraceSink &inner;
    CallTimer timer{8};
};

/** One seed's two run configs, sharing pre-built traces. */
struct Rep
{
    std::array<sim::ExperimentConfig, kRuns> configs;
    SetupTrace setup;
};

Rep
prepare(const Options &options, std::uint64_t seed)
{
    Rep rep;
    const double start = hostSeconds();
    sim::ExperimentConfig base;
    base.device = app::DeviceKind::Apollo4;
    base.environment = trace::EnvironmentPreset::MoreCrowded;
    base.eventCount = options.smoke ? 100 : 1000;
    base.seed = seed;
    base.sim.bufferCapacity = 10;
    base.obsLevel = obs::ObsLevel::Full;

    double t = hostSeconds();
    base.sharedEvents = std::make_shared<const trace::EventTrace>(
        sim::buildEventTrace(base));
    rep.setup.eventsMs = (hostSeconds() - t) * 1e3;
    t = hostSeconds();
    base.sharedPowerTrace = std::make_shared<const energy::PowerTrace>(
        sim::buildPowerTrace(base, *base.sharedEvents));
    rep.setup.powerMs = (hostSeconds() - t) * 1e3;
    rep.setup.events = base.sharedEvents->size();
    rep.setup.segments = base.sharedPowerTrace->segmentCount();

    rep.configs[0] = base;
    rep.configs[0].controller = sim::ControllerKind::Ideal;
    rep.configs[1] = base;
    rep.configs[1].controller = sim::ControllerKind::Quetzal;
    rep.setup.seconds = hostSeconds() - start;
    return rep;
}

/**
 * An ostream target appending to a caller-owned string. The string
 * keeps its capacity from rep to rep, so the host's page-fault cost
 * of growing a fresh 40 MB buffer stays out of the timing.
 */
class StringSink final : public std::streambuf
{
  public:
    explicit StringSink(std::string &buffer) : buffer(buffer)
    {
        buffer.clear();
    }

  protected:
    int overflow(int c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            buffer.push_back(traits_type::to_char_type(c));
        return traits_type::not_eof(c);
    }
    std::streamsize xsputn(const char *data, std::streamsize n) override
    {
        buffer.append(data, static_cast<std::size_t>(n));
        return n;
    }

  private:
    std::string &buffer;
};

/** An istream source reading a string in place. */
class StringSource final : public std::streambuf
{
  public:
    explicit StringSource(const std::string &buffer)
    {
        char *data = const_cast<char *>(buffer.data());
        setg(data, data, data + buffer.size());
    }
};

/** One stream buffer per run slot, reused by every pass. */
using Buffers = std::array<std::string, kRuns>;

/** One run's outputs, with its stream read back and hashed. */
struct Output
{
    sim::Metrics metrics;
    std::uint64_t events = 0;   ///< events the sink was handed
    std::uint64_t readBack = 0; ///< events the cursor read back
    std::size_t streamBytes = 0;
    std::size_t streamHash = 0;
    double recordMs = 0.0; ///< time in the sink's record() (traced)
};

/** Read a stream back through the obs cursor; count its events. */
std::uint64_t
readBack(const std::string &stream)
{
    StringSource source(stream);
    std::istream in(&source);
    auto cursor = obs::openTraceCursor(in, "backlog stream");
    obs::TraceRecord record;
    std::uint64_t count = 0;
    while (cursor->next(record))
        ++count;
    return count;
}

/**
 * Both runs, in parallel, each into its own in-memory stream: the
 * program's runExperiment path, or (with `traced` set) the
 * decorator-assembled path with the sink's record() timed. `seconds`
 * receives the runs' wall time; reading the streams back afterwards
 * is not timed.
 */
std::array<Output, kRuns>
runPass(const Rep &rep, unsigned jobs, Buffers &buffers, SimRep *traced,
        double &seconds)
{
    std::array<Output, kRuns> outputs;
    const double start = hostSeconds();
    sim::parallelFor(kRuns, jobs, [&](std::size_t i) {
        Output &output = outputs[i];
        StringSink sink(buffers[i]);
        std::ostream out(&sink);
        obs::StreamingBtraceSink stream(out, i);
        sim::ExperimentConfig config = rep.configs[i];
        if (traced) {
            TimedSink timer(stream);
            config.obsSink = &timer;
            output.metrics = runAssembled(config, traced->runs[i]);
            output.events = timer.timer.count();
            output.recordMs = timer.timer.ms();
        } else {
            config.obsSink = &stream;
            output.metrics = sim::runExperiment(config);
            output.events = stream.eventCount();
        }
        stream.finish();
    });
    seconds = hostSeconds() - start;
    for (std::size_t i = 0; i < kRuns; ++i) {
        outputs[i].readBack = readBack(buffers[i]);
        outputs[i].streamBytes = buffers[i].size();
        outputs[i].streamHash = std::hash<std::string_view>()(buffers[i]);
        if (traced)
            traced->metrics[i] = outputs[i].metrics;
    }
    return outputs;
}

/** Each stream must read back with as many events as were recorded. */
void
checkStreams(Result &result, const std::array<Output, kRuns> &outputs)
{
    for (const Output &output : outputs) {
        ++result.attempted;
        if (output.readBack != output.events)
            ++result.failed;
    }
}

/** Program path vs decorator-assembled path: metrics and streams. */
void
checkPasses(Result &result, std::array<Output, kRuns> program,
            const std::array<Output, kRuns> &traced, Inject inject)
{
    if (inject == Inject::Metrics)
        flipOneField(program[0].metrics);
    for (std::size_t i = 0; i < kRuns; ++i) {
        ++result.attempted;
        if (!sameMetrics(program[i].metrics, traced[i].metrics) ||
            program[i].streamBytes != traced[i].streamBytes ||
            program[i].streamHash != traced[i].streamHash)
            ++result.failed;
    }
}

SimRep
emptyRep()
{
    SimRep rep;
    rep.runs.resize(kRuns);
    rep.metrics.resize(kRuns);
    return rep;
}

double
deviceDays(const std::array<Output, kRuns> &outputs)
{
    double days = 0.0;
    for (const Output &output : outputs)
        days += perfbench::deviceDays(output.metrics);
    return days;
}

} // namespace

Result
runBacklogTraced(const Options &options)
{
    Result result;
    const std::size_t fidelityReps = options.smoke ? 1 : kFidelityReps;
    std::vector<double> setupSeconds, rates, tracedRates;
    std::vector<SetupTrace> setups;
    std::vector<SimRep> tracedReps;
    std::vector<std::pair<Rep, std::array<Output, kRuns>>> toCheck;
    double discardSum = 0.0, hqSum = 0.0;
    std::size_t qzRuns = 0;
    std::uint64_t obsEvents = 0, obsBytes = 0;
    double obsRecordMs = 0.0, obsEventsAll = 0.0;
    std::vector<double> obsRecordPerRep;
    Buffers buffers;

    const double loopStart = hostSeconds();
    for (std::size_t k = 0;; ++k) {
        // Raw host seconds: these reps are dominated by memory traffic,
        // which the CPU-bound hostSlowdown() kernel does not track
        // (normalizing doubled the run-to-run spread).
        Rep rep = prepare(options, options.seed + k);
        setupSeconds.push_back(rep.setup.seconds);

        SimRep traced = emptyRep();
        std::array<Output, kRuns> tracedOut;
        double tracedSeconds = 0.0;
        if (options.trace && k % 2 == 1)
            tracedOut = runPass(rep, options.jobs, buffers, &traced,
                                tracedSeconds);
        double programSeconds = 0.0;
        std::array<Output, kRuns> program =
            runPass(rep, options.jobs, buffers, nullptr, programSeconds);
        if (options.trace && k % 2 == 0)
            tracedOut = runPass(rep, options.jobs, buffers, &traced,
                                tracedSeconds);

        const double days = deviceDays(program);
        rates.push_back(days / programSeconds);
        if (k < fidelityReps) {
            discardSum += program[1].metrics.interestingDiscardedPct();
            hqSum += 100.0 * program[1].metrics.highQualityShare();
            ++qzRuns;
        }
        checkStreams(result, program);
        if (options.trace) {
            tracedRates.push_back(days / tracedSeconds);
            checkStreams(result, tracedOut);
            checkPasses(result, std::move(program), tracedOut,
                        options.inject);
            double repRecordMs = 0.0;
            for (const Output &output : tracedOut) {
                repRecordMs += output.recordMs;
                obsEventsAll += static_cast<double>(output.events);
                if (k == 0) {
                    obsEvents += output.events;
                    obsBytes += output.streamBytes;
                }
            }
            obsRecordMs += repRecordMs;
            obsRecordPerRep.push_back(repRecordMs);
            setups.push_back(rep.setup);
            tracedReps.push_back(std::move(traced));
        } else if (k < kCheckReps) {
            toCheck.emplace_back(std::move(rep), std::move(program));
        }
        if (hostSeconds() - loopStart >= options.seconds &&
            k + 1 >= (options.trace ? 2 : fidelityReps))
            break;
    }

    if (options.trace) {
        addSetupLayers(result, setups);
        addSimLayers(result, tracedReps);
        result.add("obs.events", static_cast<double>(obsEvents), "count");
        result.add("obs.bytes", static_cast<double>(obsBytes), "B");
        result.add("obs.record_ms", median(obsRecordPerRep), "ms");
        result.add("obs.ns_per_event",
                   obsEventsAll > 0 ? obsRecordMs * 1e6 / obsEventsAll
                                    : 0.0,
                   "ns");
        addTraceOverhead(result, rates, tracedRates);
        return result;
    }
    const double peakMb = peakRssMb();
    for (auto &[rep, program] : toCheck) {
        SimRep traced = emptyRep();
        double seconds = 0.0;
        const auto tracedOut =
            runPass(rep, options.jobs, buffers, &traced, seconds);
        checkStreams(result, tracedOut);
        checkPasses(result, std::move(program), tracedOut,
                    options.inject);
    }
    result.add("setup_s", median(setupSeconds), "s");
    result.add("device_days_per_s", median(rates), "device-days/s");
    result.add("peak_rss_mb", peakMb, "MiB");
    result.add("discard_pct", discardSum / static_cast<double>(qzRuns),
               "%");
    result.add("hq_share_pct", hqSum / static_cast<double>(qzRuns), "%");
    return result;
}

} // namespace perfbench
