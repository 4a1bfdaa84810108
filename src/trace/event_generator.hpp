/**
 * @file
 * Synthetic sensing-event generator and environment presets.
 *
 * Substitute for the VIRAT surveillance dataset [67] the paper samples
 * event durations and interarrival times from (DESIGN.md section 2).
 * Durations follow a truncated log-normal (heavy-tailed, like real
 * surveillance activity) capped at a per-environment *maximum
 * interesting duration* — the paper's Table 1 knob distinguishing the
 * "More Crowded" (600 s), "Crowded" (60 s) and "Less Crowded" (20 s)
 * environments, plus the 10 s cap used for the MSP430 study.
 * Interarrival gaps are exponential. Everything is seeded.
 */

#ifndef QUETZAL_TRACE_EVENT_GENERATOR_HPP
#define QUETZAL_TRACE_EVENT_GENERATOR_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "trace/event_trace.hpp"
#include "util/types.hpp"

namespace quetzal {
namespace trace {

/** The paper's named sensing environments (Table 1). */
enum class EnvironmentPreset {
    MoreCrowded, ///< max interesting duration 600 s
    Crowded,     ///< max interesting duration 60 s
    LessCrowded, ///< max interesting duration 20 s
    Msp430Short, ///< max interesting duration 10 s (MSP430 study)
};

/** Human-readable preset name. */
std::string environmentName(EnvironmentPreset preset);

/**
 * The preset a scenario file or CLI flag names ("more-crowded",
 * "crowded", "less-crowded", "msp430"); empty for any other text.
 */
std::optional<EnvironmentPreset> environmentFromName(
    const std::string &name);

/** Configuration for EventGenerator. */
struct EventGeneratorConfig
{
    std::size_t eventCount = 1000; ///< 1000 for sims, 100 for hw expt
    double meanInterarrivalSeconds = 90.0; ///< gap between events
    double maxInterestingSeconds = 60.0;   ///< Table 1 duration cap
    double maxUninterestingSeconds = 15.0; ///< cars pass quickly
    double minDurationSeconds = 2.0;       ///< shortest visible event
    double durationSigma = 0.9;    ///< log-normal shape
    double interestingProbability = 0.5;   ///< event class mix
    std::uint64_t seed = 7;

    /** Preset factory applying the paper's per-environment caps. */
    static EventGeneratorConfig forPreset(EnvironmentPreset preset,
                                          std::size_t eventCount = 1000,
                                          std::uint64_t seed = 7);
};

/**
 * Seeded generator of event traces.
 */
class EventGenerator
{
  public:
    explicit EventGenerator(const EventGeneratorConfig &config);

    /** Static configuration. */
    const EventGeneratorConfig &config() const { return cfg; }

    /** Generate a trace with cfg.eventCount events starting near 0. */
    EventTrace generate() const;

  private:
    EventGeneratorConfig cfg;
};

} // namespace trace
} // namespace quetzal

#endif // QUETZAL_TRACE_EVENT_GENERATOR_HPP
