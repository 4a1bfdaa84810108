#include "policy/registry.hpp"

#include <algorithm>

#include "policy/zoo.hpp"
#include "util/logging.hpp"

namespace quetzal {
namespace policy {

const std::vector<std::string> &
registeredPolicyNames()
{
    static const std::vector<std::string> names = {
        "sjf-ibo", "zygarde", "delgado-famaey", "greedy-fcfs"};
    return names;
}

bool
isRegisteredPolicy(const std::string &name)
{
    const auto &names = registeredPolicyNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

PolicyPair
makePolicy(const std::string &name)
{
    if (name == "sjf-ibo") {
        // The incumbent: the paper's pair, exactly as QZ builds it.
        return {std::make_unique<core::EnergyAwareSjfPolicy>(),
                std::make_unique<core::IboReactionEngine>()};
    }
    if (name == "zygarde") {
        return {std::make_unique<ZygardeScheduler>(),
                std::make_unique<ZygardeAdmission>()};
    }
    if (name == "delgado-famaey") {
        return {std::make_unique<EnergyLookaheadScheduler>(),
                std::make_unique<EnergyLookaheadAdmission>()};
    }
    if (name == "greedy-fcfs") {
        return {std::make_unique<GreedyFcfsScheduler>(),
                std::make_unique<GreedyFcfsAdmission>()};
    }
    util::fatal(util::msg("unknown policy \"", name,
                          "\" (run quetzal-sim --help for the list)"));
}

std::unique_ptr<core::Controller>
makePolicyController(const std::string &name, const PolicyOptions &options)
{
    PolicyPair policy = makePolicy(name);
    return std::make_unique<core::Controller>(
        name, std::move(policy.scheduler), std::move(policy.adaptation),
        std::make_unique<core::EnergyAwareEstimator>(options.useCircuit),
        options.usePid ? std::optional<core::PidConfig>(options.pidConfig)
                       : std::nullopt);
}

} // namespace policy
} // namespace quetzal
