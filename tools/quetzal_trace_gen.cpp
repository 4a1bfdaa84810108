/**
 * @file
 * quetzal_trace_gen — generate the synthetic environment traces
 * (solar power CSV and sensing-event CSV) so users can inspect,
 * plot, edit or replace them, then replay with
 * `quetzal_sim --power-trace FILE`.
 *
 * Usage:
 *   quetzal_trace_gen power  [--seed N] [--days N] [--cells N]
 *                            [--peak IRR] [--floor IRR] > power.csv
 *   quetzal_trace_gen events [--seed N] [--events N]
 *                            [--env crowded|...] > events.csv
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "energy/harvester.hpp"
#include "energy/solar_model.hpp"
#include "trace/event_generator.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"

namespace {

using namespace quetzal;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s power  [--seed N] [--days N] [--cells N] "
                 "[--peak IRR] [--floor IRR]\n"
                 "       %s events [--seed N] [--events N] [--env E]\n",
                 argv0, argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);
    const std::string mode = argv[1];

    std::uint64_t seed = 1;
    double days = 2.0;
    int cells = 6;
    std::size_t events = 1000;
    energy::SolarConfig solarCfg;
    auto preset = trace::EnvironmentPreset::Crowded;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--seed")
            seed = util::parseInt<std::uint64_t>(value(), arg);
        else if (arg == "--days")
            days = util::parseDouble(value(), arg);
        else if (arg == "--cells")
            cells = util::parseInt<int>(value(), arg);
        else if (arg == "--peak")
            solarCfg.peakIrradiance = util::parseDouble(value(), arg);
        else if (arg == "--floor")
            solarCfg.ambientFloor = util::parseDouble(value(), arg);
        else if (arg == "--events")
            events = util::parseInt<std::size_t>(value(), arg);
        else if (arg == "--env") {
            const std::string env = value();
            const auto named = trace::environmentFromName(env);
            if (!named)
                util::fatal(util::msg("unknown environment for --env: ",
                                      env));
            preset = *named;
        } else {
            usage(argv[0]);
        }
    }

    if (mode == "power") {
        solarCfg.seed = seed;
        energy::HarvesterConfig harvesterCfg;
        harvesterCfg.cellCount = cells;
        const energy::Harvester harvester(harvesterCfg);
        const auto irradiance = energy::SolarModel(solarCfg).generate(
            secondsToTicks(days * 86400.0));
        harvester.powerTrace(irradiance).writeCsv(std::cout);
        return 0;
    }
    if (mode == "events") {
        const auto cfg =
            trace::EventGeneratorConfig::forPreset(preset, events, seed);
        trace::EventGenerator(cfg).generate().writeCsv(std::cout);
        return 0;
    }
    usage(argv[0]);
}
