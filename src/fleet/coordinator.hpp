/**
 * @file
 * Central fleet coordinator (the BOINC-MGE server-scheduler shape).
 *
 * After every slab the shards report integer aggregates per cohort —
 * drop counts, mean charge, occupancy, devices off. The coordinator
 * folds those into one Directive per cohort for the next slab:
 * thresholds a device applies locally (and purely) when it starts
 * its next job. The per-cohort rule is selected by the cohort's
 * policy registry name (policy/registry.hpp), so the policy zoo
 * drives fleet-scale assignment: the paper's SJF+IBO degrades to
 * prevent predicted overflow, Zygarde drains by deadline, Delgado &
 * Famaey watches the energy horizon, and greedy-FCFS never degrades.
 *
 * Everything here is integer arithmetic over fleet-wide sums, and
 * consumeSlab() runs serially between slabs, so directives — and
 * therefore every device decision — are identical for every shard
 * count and --jobs value.
 */

#ifndef QUETZAL_FLEET_COORDINATOR_HPP
#define QUETZAL_FLEET_COORDINATOR_HPP

#include <cmath>
#include <cstdint>
#include <vector>

#include "fleet/fleet.hpp"

namespace quetzal {
namespace fleet {

/**
 * Per-cohort assignment rule for one slab. A device evaluates it
 * locally when it starts a job: pressureLevel when its own charge or
 * occupancy crosses the thresholds, baseLevel otherwise (then the
 * one-level-per-job recovery cooldown in the shard loop smooths
 * upgrades). Plain integers: the same device state always maps to
 * the same level.
 */
struct Directive
{
    std::uint8_t baseLevel = 0;
    std::uint8_t pressureLevel = 0;
    /** Occupancy at or above this forces pressureLevel. */
    std::uint32_t occupancyHigh = UINT32_MAX;
    /** Charge at or below this (nJ) forces pressureLevel. */
    std::uint64_t chargeLowNano = 0;
};

/** Nanojoules of a joule quantity, rounded to nearest. */
inline std::uint64_t
toNano(Joules joules)
{
    return static_cast<std::uint64_t>(std::llround(joules * 1e9));
}

/** Execution ticks of one job at a degradation level. */
inline Tick
execTicks(Tick base, std::uint8_t level)
{
    const Tick ticks = base >> level;
    return ticks > 0 ? ticks : 1;
}

/** The per-device half of the protocol: directive -> level. */
std::uint8_t assignLevel(const Directive &directive,
                         std::uint64_t chargeNano,
                         std::uint32_t occupancy);

/**
 * Owns the per-cohort directives. Each cohort's policy name is
 * checked against the registry at construction, so an unknown name
 * fails before any device advances.
 */
class FleetCoordinator
{
  public:
    explicit FleetCoordinator(const FleetConfig &config);

    /** Directive the cohort's devices apply in the next slab. */
    const Directive &directive(std::size_t cohort) const
    {
        return cohorts[cohort].directive;
    }

    /**
     * Fold one slab's fleet-wide per-cohort aggregates into the next
     * directives. Called serially between slabs, in slab order.
     */
    void consumeSlab(const std::vector<CohortCounters> &slabTotals);

    /** Mutable per-cohort rule state, for checkpoint serialization:
     *  the directive plus lastBase is the whole evolution state. */
    struct CohortState
    {
        Directive directive;
        /** sjf-ibo rule state: last slab's base level. */
        std::uint8_t lastBase = 0;
    };

    /** Snapshot the per-cohort rule state, in cohort order. */
    std::vector<CohortState> exportState() const;

    /** Restore a snapshot taken by exportState on an identically
     *  configured coordinator (size must match the cohort count). */
    void importState(const std::vector<CohortState> &state);

  private:
    const FleetConfig &config;
    std::vector<CohortState> cohorts;
    /** Usable storage capacity per cohort (nJ). */
    std::vector<std::uint64_t> capacityNano;
};

} // namespace fleet
} // namespace quetzal

#endif // QUETZAL_FLEET_COORDINATOR_HPP
