/**
 * @file
 * paper-sweep: the committed fig09, fig12 and tournament scenarios
 * through scenario::loadScenarioFile -> compileScenario -> runPlan,
 * telemetry off, repeated over consecutive seeds (--seed, --seed+1,
 * ...) until the run is long enough. Every controller kind of the
 * two figures plus the four registry policies and the tournament's
 * fault cells; never the fleet.
 */

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "assemble.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "scenario/compile.hpp"
#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "sim/runner.hpp"
#include "util/logging.hpp"

namespace perfbench {

namespace {

using namespace quetzal;

const char *const kScenarioFiles[] = {"fig09.json", "fig12.json",
                                      "tournament.json"};

/** Reps whose QZ runs give discard_pct / hq_share_pct. */
constexpr std::size_t kFidelityReps = 48;
/** Reps re-run through the decorator-assembled path (untraced run). */
constexpr std::size_t kCheckReps = 2;

/** One seed's compiled plans with their traces pre-built. */
struct Rep
{
    std::vector<scenario::ScenarioPlan> plans;
    SetupTrace setup;
};

/** Everything before the first simulated tick, timed by layer. */
Rep
prepare(const Options &options, std::uint64_t seed)
{
    Rep rep;
    const double start = hostSeconds();
    scenario::CompileOptions compileOptions;
    compileOptions.eventCountOverride = options.smoke ? 100 : 0;
    for (const char *file : kScenarioFiles) {
        double t = hostSeconds();
        auto spec =
            scenario::loadScenarioFile(options.scenarios + "/" + file);
        rep.setup.loadMs += (hostSeconds() - t) * 1e3;
        if (!spec.ok())
            throw std::runtime_error(std::string("cannot load ") + file);
        t = hostSeconds();
        auto plan = scenario::compileScenario(*spec.value, compileOptions);
        rep.setup.compileMs += (hostSeconds() - t) * 1e3;
        if (!plan.ok())
            throw std::runtime_error(std::string("cannot compile ") + file);
        for (scenario::RunSpec &run : plan.value->runs)
            run.config.seed = seed;
        rep.plans.push_back(std::move(*plan.value));
    }

    // The traces each run reads, built once per distinct key across
    // the three plans and handed to runPlan as shared traces.
    struct Traces
    {
        std::shared_ptr<const trace::EventTrace> events;
        std::shared_ptr<const energy::PowerTrace> watts;
    };
    std::map<std::string, Traces> built;
    for (scenario::ScenarioPlan &plan : rep.plans) {
        for (scenario::RunSpec &run : plan.runs) {
            sim::ExperimentConfig &config = run.config;
            const std::string key = util::msg(
                static_cast<int>(config.environment), '|',
                config.eventCount, '|', config.seed, '|',
                config.harvesterCells, '|', config.sim.drainTicks, '|',
                config.powerTraceCsv);
            auto it = built.find(key);
            if (it == built.end()) {
                Traces traces;
                double t = hostSeconds();
                traces.events = std::make_shared<const trace::EventTrace>(
                    sim::buildEventTrace(config));
                rep.setup.eventsMs += (hostSeconds() - t) * 1e3;
                t = hostSeconds();
                traces.watts = std::make_shared<const energy::PowerTrace>(
                    sim::buildPowerTrace(config, *traces.events));
                rep.setup.powerMs += (hostSeconds() - t) * 1e3;
                rep.setup.events += traces.events->size();
                rep.setup.segments += traces.watts->segmentCount();
                it = built.emplace(key, std::move(traces)).first;
            }
            config.sharedEvents = it->second.events;
            config.sharedPowerTrace = it->second.watts;
        }
    }
    rep.setup.seconds = hostSeconds() - start;
    return rep;
}

/** The program's path: runPlan per scenario, outputs included. */
std::vector<sim::Metrics>
runProgram(const Rep &rep, unsigned jobs, bool showReport)
{
    StdoutRedirect redirect(showReport ? StdoutRedirect::To::Stderr
                                       : StdoutRedirect::To::Null);
    scenario::EngineOptions engine;
    engine.jobs = jobs;
    std::vector<sim::Metrics> all;
    for (const scenario::ScenarioPlan &plan : rep.plans) {
        const auto metrics = scenario::runPlan(plan, engine);
        all.insert(all.end(), metrics.begin(), metrics.end());
    }
    return all;
}

/** The same runs, decorator-assembled and layer-traced. */
SimRep
runTraced(const Rep &rep, unsigned jobs)
{
    std::vector<const sim::ExperimentConfig *> configs;
    for (const scenario::ScenarioPlan &plan : rep.plans)
        for (const scenario::RunSpec &run : plan.runs)
            configs.push_back(&run.config);
    SimRep traced;
    traced.runs.resize(configs.size());
    traced.metrics.resize(configs.size());
    sim::parallelFor(configs.size(), jobs, [&](std::size_t i) {
        traced.metrics[i] = runAssembled(*configs[i], traced.runs[i]);
    });
    return traced;
}

double
deviceDays(const std::vector<sim::Metrics> &runs)
{
    double days = 0.0;
    for (const sim::Metrics &m : runs)
        days += perfbench::deviceDays(m);
    return days;
}

/** Is the run one of the paper's QZ / registry sjf-ibo runs? */
bool
isQuetzal(const sim::ExperimentConfig &config)
{
    return config.policyName.empty()
        ? config.controller == sim::ControllerKind::Quetzal
        : config.policyName == "sjf-ibo";
}

/** Count mismatches between the two passes' metrics, run by run. */
void
check(Result &result, std::vector<sim::Metrics> program,
      const SimRep &traced, Inject inject)
{
    if (inject == Inject::Metrics && !program.empty())
        flipOneField(program.front());
    for (std::size_t i = 0; i < program.size(); ++i) {
        ++result.attempted;
        if (!sameMetrics(program[i], traced.metrics[i]))
            ++result.failed;
    }
}

} // namespace

Result
runPaperSweep(const Options &options)
{
    Result result;
    const std::size_t fidelityReps = options.smoke ? 1 : kFidelityReps;
    std::vector<double> setupSeconds, rates, tracedRates;
    std::vector<SetupTrace> setups;
    std::vector<SimRep> tracedReps;
    std::vector<std::pair<Rep, std::vector<sim::Metrics>>> toCheck;
    double discardSum = 0.0, hqSum = 0.0;
    std::size_t qzRuns = 0;

    const double loopStart = hostSeconds();
    for (std::size_t k = 0;; ++k) {
        const double slowdown = hostSlowdown(options.jobs);
        Rep rep = prepare(options, options.seed + k);
        setupSeconds.push_back(rep.setup.seconds / slowdown);

        // Traced mode alternates which pass goes first.
        SimRep traced;
        double tracedSeconds = 0.0;
        const auto runTracedPass = [&] {
            const double t = hostSeconds();
            traced = runTraced(rep, options.jobs);
            tracedSeconds = hostSeconds() - t;
        };
        if (options.trace && k % 2 == 1)
            runTracedPass();
        const double t = hostSeconds();
        std::vector<sim::Metrics> program =
            runProgram(rep, options.jobs, k == 0);
        const double programSeconds = hostSeconds() - t;
        if (options.trace && k % 2 == 0)
            runTracedPass();

        const double days = deviceDays(program);
        rates.push_back(days / programSeconds * slowdown);
        if (k < fidelityReps) {
            std::size_t i = 0;
            for (const scenario::ScenarioPlan &plan : rep.plans) {
                for (const scenario::RunSpec &run : plan.runs) {
                    if (isQuetzal(run.config)) {
                        discardSum += program[i].interestingDiscardedPct();
                        hqSum += 100.0 * program[i].highQualityShare();
                        ++qzRuns;
                    }
                    ++i;
                }
            }
        }
        if (options.trace) {
            tracedRates.push_back(days / tracedSeconds * slowdown);
            check(result, program, traced, options.inject);
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
        addTraceOverhead(result, rates, tracedRates);
        return result;
    }
    const double peakMb = peakRssMb();
    for (auto &[rep, program] : toCheck)
        check(result, std::move(program), runTraced(rep, options.jobs),
              options.inject);
    result.add("setup_s", median(setupSeconds), "s");
    result.add("device_days_per_s", median(rates), "device-days/s");
    result.add("peak_rss_mb", peakMb, "MiB");
    result.add("discard_pct", discardSum / static_cast<double>(qzRuns),
               "%");
    result.add("hq_share_pct", hqSum / static_cast<double>(qzRuns), "%");
    return result;
}

} // namespace perfbench
