#include "assemble.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "app/person_detection.hpp"
#include "baselines/adaptation.hpp"
#include "baselines/controllers.hpp"
#include "baselines/policies.hpp"
#include "common.hpp"
#include "core/runtime.hpp"
#include "energy/harvester.hpp"
#include "fault/fault_injector.hpp"
#include "hw/mcu_model.hpp"
#include "policy/registry.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

using namespace quetzal;

/** Alg. 1 (or any scheduler) timed; samples buffer occupancy. */
class TimedScheduler final : public core::SchedulerPolicy
{
  public:
    TimedScheduler(std::unique_ptr<core::SchedulerPolicy> inner,
                   RunTrace &trace)
        : inner(std::move(inner)), trace(trace)
    {
    }

    std::optional<core::SchedulerDecision>
    select(const core::TaskSystem &system,
           const queueing::InputBuffer &buffer,
           const core::ServiceTimeEstimator &estimator,
           const core::PowerReading &power,
           double pidCorrection) const override
    {
        trace.occupancySum += static_cast<double>(buffer.size());
        trace.occupancyMax = std::max(trace.occupancyMax, buffer.size());
        const bool timed = trace.sched.sample();
        trace.inPolicy = true;
        const std::uint64_t start = LayerClock::now();
        auto decision = inner->select(system, buffer, estimator, power,
                                      pidCorrection);
        if (timed)
            trace.sched.add(LayerClock::msSince(start));
        trace.inPolicy = false;
        return decision;
    }

    void observe(const core::RuntimeObservation &o) override
    {
        inner->observe(o);
    }

    std::string name() const override { return inner->name(); }

  private:
    std::unique_ptr<core::SchedulerPolicy> inner;
    RunTrace &trace;
};

/** Alg. 2 (or any adaptation policy) timed; counts degradations. */
class TimedAdaptation final : public core::AdaptationPolicy
{
  public:
    TimedAdaptation(std::unique_ptr<core::AdaptationPolicy> inner,
                    RunTrace &trace)
        : inner(std::move(inner)), trace(trace)
    {
    }

    core::AdaptationDecision
    adapt(const core::TaskSystem &system, const core::Job &job,
          const queueing::InputBuffer &buffer,
          const core::ServiceTimeEstimator &estimator,
          const core::PowerReading &power, double pidCorrection) override
    {
        const bool timed = trace.ibo.sample();
        trace.inPolicy = true;
        const std::uint64_t start = LayerClock::now();
        auto decision = inner->adapt(system, job, buffer, estimator,
                                     power, pidCorrection);
        if (timed)
            trace.ibo.add(LayerClock::msSince(start));
        trace.inPolicy = false;
        trace.iboDegraded += decision.degraded ? 1 : 0;
        return decision;
    }

    void observe(const core::RuntimeObservation &o) override
    {
        inner->observe(o);
    }

    void onBufferOverflow(const core::TaskSystem &system,
                          const queueing::InputBuffer &buffer,
                          const queueing::InputRecord &dropped,
                          Tick now) override
    {
        inner->onBufferOverflow(system, buffer, dropped, now);
    }

    std::string name() const override { return inner->name(); }

    void saveState(std::string &out) const override
    {
        inner->saveState(out);
    }

    bool loadState(util::wire::Reader &in) override
    {
        return inner->loadState(in);
    }

  private:
    std::unique_ptr<core::AdaptationPolicy> inner;
    RunTrace &trace;
};

/** E[S] (incl. the hw Alg. 3 path) timed; memo keys forwarded. */
class TimedEstimator final : public core::ServiceTimeEstimator
{
  public:
    TimedEstimator(std::unique_ptr<core::ServiceTimeEstimator> inner,
                   RunTrace &trace)
        : inner(std::move(inner)), trace(trace)
    {
    }

    double estimate(const core::DegradationOption &option,
                    const core::PowerReading &power) const override
    {
        CallTimer &timer = trace.inPolicy ? trace.estimateInPolicy
                                          : trace.estimateOutside;
        if (!timer.sample())
            return inner->estimate(option, power);
        const std::uint64_t start = LayerClock::now();
        const double seconds = inner->estimate(option, power);
        timer.add(LayerClock::msSince(start));
        return seconds;
    }

    void recordObservation(const core::DegradationOption &option,
                           double observedSeconds) override
    {
        inner->recordObservation(option, observedSeconds);
    }

    std::string name() const override { return inner->name(); }

    std::uint64_t version() const override { return inner->version(); }

    std::uint64_t powerKey(const core::PowerReading &power) const override
    {
        return inner->powerKey(power);
    }

    void saveState(std::string &out) const override
    {
        inner->saveState(out);
    }

    bool loadState(util::wire::Reader &in) override
    {
        return inner->loadState(in);
    }

  private:
    std::unique_ptr<core::ServiceTimeEstimator> inner;
    RunTrace &trace;
};

/**
 * The controller runExperiment() would build. QZ and Ideal/NoAdapt
 * are assembled from the same parts as their factories
 * (baselines::makeQuetzalVariantController, makeNoAdaptController)
 * with every part wrapped; the rest come from the factories.
 */
std::unique_ptr<core::Controller>
buildController(const sim::ExperimentConfig &cfg,
                const energy::Harvester &harvester,
                const energy::PowerTrace &watts, RunTrace &trace)
{
    using sim::ControllerKind;
    const auto decorate =
        [&](std::string name,
            std::unique_ptr<core::SchedulerPolicy> scheduler,
            std::unique_ptr<core::AdaptationPolicy> adaptation,
            std::unique_ptr<core::ServiceTimeEstimator> estimator,
            std::optional<core::PidConfig> pid) {
            trace.decorated = true;
            return std::make_unique<core::Controller>(
                std::move(name),
                std::make_unique<TimedScheduler>(std::move(scheduler),
                                                 trace),
                std::make_unique<TimedAdaptation>(std::move(adaptation),
                                                  trace),
                std::make_unique<TimedEstimator>(std::move(estimator),
                                                 trace),
                pid);
        };

    if (!cfg.policyName.empty()) {
        policy::PolicyOptions options;
        options.useCircuit = cfg.useCircuit;
        options.usePid = cfg.usePid;
        options.pidConfig = cfg.pid;
        return policy::makePolicyController(cfg.policyName, options);
    }
    using baselines::SchedulerKind;
    switch (cfg.controller) {
      case ControllerKind::Quetzal:
        trace.quetzal = true;
        return decorate(
            "Quetzal(" +
                baselines::schedulerKindName(
                    SchedulerKind::EnergyAwareSjf) +
                ")",
            std::make_unique<core::EnergyAwareSjfPolicy>(),
            std::make_unique<core::IboReactionEngine>(),
            std::make_unique<core::EnergyAwareEstimator>(cfg.useCircuit),
            cfg.usePid ? std::optional<core::PidConfig>(cfg.pid)
                       : std::nullopt);
      case ControllerKind::NoAdapt:
      case ControllerKind::Ideal:
        return decorate("NoAdapt", std::make_unique<baselines::FcfsPolicy>(),
                        std::make_unique<baselines::NoAdaptPolicy>(),
                        std::make_unique<core::EnergyAwareEstimator>(false),
                        std::nullopt);
      case ControllerKind::QuetzalFcfs:
        return baselines::makeQuetzalVariantController(
            SchedulerKind::Fcfs, cfg.useCircuit, cfg.usePid, cfg.pid);
      case ControllerKind::QuetzalLcfs:
        return baselines::makeQuetzalVariantController(
            SchedulerKind::Lcfs, cfg.useCircuit, cfg.usePid, cfg.pid);
      case ControllerKind::QuetzalAvgSe2e:
        return baselines::makeQuetzalVariantController(
            SchedulerKind::AvgSe2e, cfg.useCircuit, cfg.usePid, cfg.pid);
      case ControllerKind::AlwaysDegrade:
        return baselines::makeAlwaysDegradeController();
      case ControllerKind::CatNap:
        return baselines::makeCatNapController();
      case ControllerKind::BufferThreshold:
        return baselines::makeBufferThresholdController(
            cfg.bufferThreshold);
      case ControllerKind::Zgo:
        return baselines::makePowerThresholdController(
            cfg.powerThresholdFraction * harvester.datasheetMaxPower(),
            "ZGO");
      case ControllerKind::Zgi:
        return baselines::makePowerThresholdController(
            cfg.powerThresholdFraction * watts.maxValue(), "ZGI");
    }
    return nullptr;
}

bool
chargesSchedulerCost(const sim::ExperimentConfig &cfg)
{
    using sim::ControllerKind;
    switch (cfg.controller) {
      case ControllerKind::Quetzal:
      case ControllerKind::QuetzalFcfs:
      case ControllerKind::QuetzalLcfs:
      case ControllerKind::QuetzalAvgSe2e:
        return true;
      default:
        return !cfg.policyName.empty();
    }
}

} // namespace

sim::Metrics
runAssembled(const sim::ExperimentConfig &config, RunTrace &trace)
{
    std::shared_ptr<const trace::EventTrace> eventsPtr =
        config.sharedEvents;
    if (!eventsPtr)
        eventsPtr = std::make_shared<const trace::EventTrace>(
            sim::buildEventTrace(config));
    const trace::EventTrace &events = *eventsPtr;
    std::shared_ptr<const energy::PowerTrace> wattsPtr =
        config.sharedPowerTrace;
    if (!wattsPtr)
        wattsPtr = std::make_shared<const energy::PowerTrace>(
            sim::buildPowerTrace(config, events));

    std::optional<fault::FaultInjector> faultInjector;
    if (!config.faults.inert()) {
        faultInjector.emplace(config.faults, config.seed);
        faultInjector->prepare(events.endTime() + config.sim.drainTicks);
        wattsPtr = std::make_shared<const energy::PowerTrace>(
            faultInjector->perturbPowerTrace(*wattsPtr));
    }
    const energy::PowerTrace &watts = *wattsPtr;

    energy::HarvesterConfig harvesterCfg;
    harvesterCfg.cellCount = config.harvesterCells;
    const energy::Harvester harvester(harvesterCfg);

    app::DeviceProfile deviceProfile = app::deviceProfile(config.device);
    deviceProfile.checkpoint.policy = config.checkpointPolicy;
    deviceProfile.checkpoint.periodicInterval =
        config.checkpointIntervalTicks;

    core::SystemConfig systemCfg = config.system;
    systemCfg.captureHz = static_cast<double>(kTicksPerSecond) /
        static_cast<double>(config.sim.capturePeriod);
    if (faultInjector && config.faults.adc.active()) {
        systemCfg.circuit.adc.stuckHighMask =
            config.faults.adc.stuckHighMask;
        systemCfg.circuit.adc.stuckLowMask =
            config.faults.adc.stuckLowMask;
        systemCfg.circuit.adc.flipMask = config.faults.adc.flipMask;
        systemCfg.circuit.adc.saturateMax =
            config.faults.adc.saturateMax;
    }
    core::TaskSystem system(systemCfg);
    const app::ApplicationModel appModel =
        app::buildPersonDetectionApp(system, deviceProfile);

    auto controller = buildController(config, harvester, watts, trace);

    sim::SimulationConfig simCfg = config.sim;
    simCfg.infiniteBuffer =
        config.controller == sim::ControllerKind::Ideal;
    simCfg.drainToEmpty = simCfg.infiniteBuffer;
    simCfg.outcomeSeed = config.seed ^ 0xc0ffee5ull;
    simCfg.schedulerPower = deviceProfile.mcu.activePower;
    simCfg.schedulerOverheadSeconds = 0.0;
    simCfg.schedulerOverheadEnergy = 0.0;
    simCfg.observer = nullptr;
    if (chargesSchedulerCost(config)) {
        const hw::McuModel mcu(deviceProfile.mcu);
        const auto strategy = config.useCircuit ?
            hw::RatioStrategy::QuetzalModule :
            (deviceProfile.mcu.hasHardwareDivider ?
             hw::RatioStrategy::HardwareDivider :
             hw::RatioStrategy::SoftwareDivision);
        const auto tasks = static_cast<std::uint32_t>(system.taskCount());
        const std::uint32_t options = 2;
        simCfg.schedulerOverheadSeconds =
            mcu.secondsPerInvocation(strategy, tasks, options);
        simCfg.schedulerOverheadEnergy =
            mcu.ratioEnergyPerInvocation(strategy, tasks, options) +
            deviceProfile.mcu.activePower *
            simCfg.schedulerOverheadSeconds;
    }

    obs::Recorder recorder(config.obsLevel, config.obsSink);
    if (recorder.enabled()) {
        simCfg.observer = &recorder;
        controller->setObserver(&recorder);
    }
    if (faultInjector) {
        simCfg.faults = &*faultInjector;
        faultInjector->setObserver(recorder.enabled() ? &recorder
                                                      : nullptr);
    }

    sim::Simulator simulator(simCfg, deviceProfile, appModel, system,
                             *controller, watts, events);
    const double start = hostSeconds();
    sim::Metrics metrics = simulator.run();
    trace.runMs += (hostSeconds() - start) * 1e3;
    return metrics;
}

} // namespace perfbench
