/**
 * @file
 * The policy registry: every runnable policy keyed by name.
 *
 * A registered policy is a plain core::SchedulerPolicy (Alg. 1: which
 * buffered input runs next) + core::AdaptationPolicy (Alg. 2: at what
 * quality, plus the IBO reaction hook) pair, the same two interfaces
 * core::Controller drives for every ControllerKind. The CLI
 * (`quetzal-sim --policy`), the scenario `policy` field, the fleet
 * coordinator and the tournament all resolve names here, and the
 * invariant test harness iterates registeredPolicyNames() so a newly
 * registered policy is verified automatically.
 */

#ifndef QUETZAL_POLICY_REGISTRY_HPP
#define QUETZAL_POLICY_REGISTRY_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"

namespace quetzal {
namespace policy {

/** Registered policy names, in registration (display) order. */
const std::vector<std::string> &registeredPolicyNames();

/** True when makePolicy(name) would succeed. */
bool isRegisteredPolicy(const std::string &name);

/** The two halves of a registered policy. */
struct PolicyPair
{
    std::unique_ptr<core::SchedulerPolicy> scheduler;
    std::unique_ptr<core::AdaptationPolicy> adaptation;
};

/** Fresh instance of a registered policy; fatal on unknown names. */
PolicyPair makePolicy(const std::string &name);

/** Knobs shared by every policy-backed controller (same as QZ's). */
using PolicyOptions = core::QuetzalOptions;

/**
 * A core::Controller running the named policy's pair with the stock
 * energy-aware estimator. With the default options, "sjf-ibo" is
 * byte-identical to makeQuetzalController().
 */
std::unique_ptr<core::Controller>
makePolicyController(const std::string &name,
                     const PolicyOptions &options = {});

} // namespace policy
} // namespace quetzal

#endif // QUETZAL_POLICY_REGISTRY_HPP
