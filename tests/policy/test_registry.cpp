/**
 * @file
 * Policy registry tests: every registered name resolves to a fresh
 * scheduler/adaptation pair and a controller reporting that name,
 * the incumbent controller keeps the legacy component names the rest
 * of the suite pins, and unknown names die loudly instead of
 * silently running the wrong policy.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "policy/registry.hpp"

namespace quetzal {
namespace policy {
namespace {

TEST(PolicyRegistry, NamesAreUniqueAndResolvable)
{
    const std::vector<std::string> &names = registeredPolicyNames();
    ASSERT_GE(names.size(), 4u);
    const std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size());
    for (const std::string &name : names) {
        SCOPED_TRACE(name);
        EXPECT_TRUE(isRegisteredPolicy(name));
        const PolicyPair policy = makePolicy(name);
        ASSERT_NE(policy.scheduler, nullptr);
        ASSERT_NE(policy.adaptation, nullptr);
        EXPECT_EQ(makePolicyController(name)->name(), name);
    }
}

TEST(PolicyRegistry, TournamentEntrantsAreRegistered)
{
    EXPECT_TRUE(isRegisteredPolicy("sjf-ibo"));
    EXPECT_TRUE(isRegisteredPolicy("zygarde"));
    EXPECT_TRUE(isRegisteredPolicy("delgado-famaey"));
    EXPECT_TRUE(isRegisteredPolicy("greedy-fcfs"));
    EXPECT_FALSE(isRegisteredPolicy(""));
    EXPECT_FALSE(isRegisteredPolicy("SJF-IBO"));
    EXPECT_FALSE(isRegisteredPolicy("round-robin"));
}

TEST(PolicyRegistry, UnknownPolicyNameDies)
{
    EXPECT_DEATH((void)makePolicy("round-robin"), "unknown policy");
    EXPECT_DEATH((void)makePolicyController("round-robin"),
                 "unknown policy");
}

TEST(PolicyRegistry, IncumbentControllerKeepsLegacyComponentNames)
{
    const auto controller = makePolicyController("sjf-ibo");
    ASSERT_NE(controller, nullptr);
    EXPECT_EQ(controller->name(), "sjf-ibo");
    // The registry hands out the paper's own pair, so telemetry and
    // tests keyed on the incumbent's components keep working.
    EXPECT_EQ(controller->scheduler().name(), "energy-aware-sjf");
    EXPECT_EQ(controller->adaptation().name(), "ibo-engine");
}

TEST(PolicyRegistry, ZooControllersReportThePolicyNameForBothHalves)
{
    for (const char *name : {"zygarde", "delgado-famaey",
                             "greedy-fcfs"}) {
        SCOPED_TRACE(name);
        const auto controller = makePolicyController(name);
        ASSERT_NE(controller, nullptr);
        EXPECT_EQ(controller->name(), name);
        EXPECT_EQ(controller->scheduler().name(), name);
        EXPECT_EQ(controller->adaptation().name(), name);
    }
}

} // namespace
} // namespace policy
} // namespace quetzal
