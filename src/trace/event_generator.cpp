#include "trace/event_generator.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/random.hpp"

namespace quetzal {
namespace trace {

std::string
environmentName(EnvironmentPreset preset)
{
    switch (preset) {
      case EnvironmentPreset::MoreCrowded: return "MoreCrowded";
      case EnvironmentPreset::Crowded: return "Crowded";
      case EnvironmentPreset::LessCrowded: return "LessCrowded";
      case EnvironmentPreset::Msp430Short: return "Msp430Short";
    }
    util::panic("unknown environment preset");
}

std::optional<EnvironmentPreset>
environmentFromName(const std::string &name)
{
    if (name == "more-crowded")
        return EnvironmentPreset::MoreCrowded;
    if (name == "crowded")
        return EnvironmentPreset::Crowded;
    if (name == "less-crowded")
        return EnvironmentPreset::LessCrowded;
    if (name == "msp430")
        return EnvironmentPreset::Msp430Short;
    return std::nullopt;
}

EventGeneratorConfig
EventGeneratorConfig::forPreset(EnvironmentPreset preset,
                                std::size_t eventCount, std::uint64_t seed)
{
    EventGeneratorConfig cfg;
    cfg.eventCount = eventCount;
    cfg.seed = seed;
    switch (preset) {
      case EnvironmentPreset::MoreCrowded:
        cfg.maxInterestingSeconds = 600.0;
        cfg.meanInterarrivalSeconds = 35.0;
        break;
      case EnvironmentPreset::Crowded:
        cfg.maxInterestingSeconds = 60.0;
        cfg.meanInterarrivalSeconds = 25.0;
        break;
      case EnvironmentPreset::LessCrowded:
        // Fewer people, but the street stays busy: long uninteresting
        // activity keeps buffer pressure high while interesting
        // events are rare and short.
        cfg.maxInterestingSeconds = 20.0;
        cfg.meanInterarrivalSeconds = 40.0;
        cfg.maxUninterestingSeconds = 45.0;
        cfg.interestingProbability = 0.35;
        break;
      case EnvironmentPreset::Msp430Short:
        // Dense enough that a seconds-per-inference 16-bit MCU
        // falls behind at full quality (paper Fig. 13 regime).
        cfg.maxInterestingSeconds = 10.0;
        cfg.meanInterarrivalSeconds = 12.0;
        cfg.maxUninterestingSeconds = 60.0;
        cfg.interestingProbability = 0.4;
        break;
    }
    return cfg;
}

EventGenerator::EventGenerator(const EventGeneratorConfig &config)
    : cfg(config)
{
    if (cfg.eventCount == 0)
        util::fatal("event count must be positive");
    if (cfg.meanInterarrivalSeconds <= 0.0)
        util::fatal("mean interarrival must be positive");
    if (cfg.minDurationSeconds <= 0.0 ||
        cfg.minDurationSeconds > cfg.maxInterestingSeconds ||
        cfg.minDurationSeconds > cfg.maxUninterestingSeconds) {
        util::fatal("event duration bounds invalid");
    }
    if (cfg.interestingProbability < 0.0 ||
        cfg.interestingProbability > 1.0) {
        util::fatal("interesting probability out of [0,1]");
    }
}

EventTrace
EventGenerator::generate() const
{
    util::Rng rng(cfg.seed);
    std::vector<SensingEvent> events;
    events.reserve(cfg.eventCount);

    Tick cursor = 0;
    for (std::size_t i = 0; i < cfg.eventCount; ++i) {
        const double gap = rng.exponential(cfg.meanInterarrivalSeconds);
        cursor += std::max<Tick>(secondsToTicks(gap), 1);

        SensingEvent event;
        event.start = cursor;
        event.interesting = rng.bernoulli(cfg.interestingProbability);

        const double cap = event.interesting ?
            cfg.maxInterestingSeconds : cfg.maxUninterestingSeconds;
        // Log-normal about a median set to a fraction of the cap, so
        // raising the cap (more crowded environment) lengthens typical
        // events the way the paper's presets do.
        const double median = std::max(cfg.minDurationSeconds, cap / 4.0);
        double duration = rng.lognormal(std::log(median),
                                        cfg.durationSigma);
        duration = std::clamp(duration, cfg.minDurationSeconds, cap);

        event.duration = std::max<Tick>(secondsToTicks(duration), 1);
        events.push_back(event);
        cursor = event.end();
    }

    return EventTrace(std::move(events));
}

} // namespace trace
} // namespace quetzal
