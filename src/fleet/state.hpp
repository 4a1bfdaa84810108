/**
 * @file
 * Struct-of-arrays per-device fleet state.
 *
 * One heap sim::Simulator per device would cost kilobytes each; a
 * million devices only fit when the persistent per-device state is
 * the handful of scalars sim::Device::State actually needs between
 * time slabs. Each shard owns one CohortBlock per cohort: parallel
 * vectors indexed by the device's position inside the block, ~28
 * bytes per device all in. Everything else a device needs while it
 * advances (profile, power trace, camera costs) is cohort-constant
 * and lives once per cohort, not per device.
 */

#ifndef QUETZAL_FLEET_STATE_HPP
#define QUETZAL_FLEET_STATE_HPP

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace quetzal {
namespace fleet {

/** SplitMix64 finalizer: the per-device / per-capture hash behind
 *  phase offsets and drop classification, and the shard-section
 *  fingerprint of snapshots. Depends only on cohort seed and *global*
 *  device index, never on the shard layout. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * The devices of one cohort assigned to one shard. Device `i` of a
 * block is global device index firstDevice + i of its cohort —
 * capture offsets and drop classification hash the *global* index,
 * which is what makes per-device evolution independent of the shard
 * count.
 */
struct CohortBlock
{
    /** Global (cohort-wide) index of this block's first device. */
    std::size_t firstDevice = 0;

    /** @name Persisted sim::Device::State fields */
    /// @{
    std::vector<double> charge;              ///< stored joules
    std::vector<std::int64_t> taskTicksLeft; ///< in-flight job
    std::vector<std::int32_t> phaseTicksLeft;///< save/restore timer
    std::vector<std::uint32_t> cursor;       ///< power-trace segment
    std::vector<std::uint8_t> phase;         ///< sim::DevicePhase
    /// @}

    /** @name Fleet-level per-device state */
    /// @{
    std::vector<std::uint16_t> occupancy;    ///< buffered inputs
    std::vector<std::uint8_t> level;         ///< last assigned level
    std::vector<std::uint8_t> scratch;       ///< recovery cooldown
    /// @}

    std::size_t size() const { return charge.size(); }

    /** Allocate `count` devices in their deployment state: full
     *  charge, idle, empty buffer, full quality. */
    void init(std::size_t first, std::size_t count, double fullCharge)
    {
        firstDevice = first;
        charge.assign(count, fullCharge);
        taskTicksLeft.assign(count, 0);
        phaseTicksLeft.assign(count, 0);
        cursor.assign(count, 0);
        phase.assign(count, 0);
        occupancy.assign(count, 0);
        level.assign(count, 0);
        scratch.assign(count, 0);
    }

    /** Bytes of per-device state this block holds. */
    std::size_t
    bytes() const
    {
        return size() *
            (sizeof(double) + sizeof(std::int64_t) +
             sizeof(std::int32_t) + sizeof(std::uint32_t) +
             3 * sizeof(std::uint8_t) + sizeof(std::uint16_t));
    }
};

/** One shard: a CohortBlock per cohort (same order as the config). */
struct ShardState
{
    std::vector<CohortBlock> blocks;

    std::size_t
    bytes() const
    {
        std::size_t total = 0;
        for (const CohortBlock &block : blocks)
            total += block.bytes();
        return total;
    }
};

} // namespace fleet
} // namespace quetzal

#endif // QUETZAL_FLEET_STATE_HPP
