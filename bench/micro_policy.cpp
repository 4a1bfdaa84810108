/**
 * @file
 * Microbenchmarks of the policy layer: one full Controller::selectJob
 * decision (Alg. 1 select + Alg. 2 adapt) of each registry
 * controller on the same loaded buffer. The primary is "sjf-ibo",
 * the paper's pair as the tournament and `--policy` run it.
 */

#include <benchmark/benchmark.h>

#include "gbench_json.hpp"

#include "app/person_detection.hpp"
#include "policy/registry.hpp"

namespace {

using namespace quetzal;

struct LoadedSystem
{
    core::TaskSystem system;
    app::ApplicationModel appModel;
    queueing::InputBuffer buffer{10};

    LoadedSystem()
        : appModel(app::buildPersonDetectionApp(system,
                                                app::apollo4Device()))
    {
        for (int i = 0; i < 64; ++i)
            system.recordCapture(i % 3 != 0);
        for (std::uint64_t i = 0; i < 6; ++i) {
            queueing::InputRecord record;
            record.id = i;
            record.captureTick = static_cast<Tick>(i) * 1000;
            record.enqueueTick = record.captureTick;
            record.jobId = i % 2 == 0 ? appModel.classifyJob :
                                        appModel.transmitJob;
            buffer.tryPush(record);
        }
    }
};

/** One selectJob round of the named registry controller. */
void
selectJob(benchmark::State &state, const char *name)
{
    LoadedSystem rig;
    const auto controller = policy::makePolicyController(name);
    double watts = 5e-3;
    Tick now = 7000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(controller->selectJob(
            rig.system, rig.buffer, watts, {0.05, 0.1, now}));
        watts = watts < 50e-3 ? watts + 1e-3 : 5e-3;
        now += 1000;
    }
}

void
BM_PolicySelectJob(benchmark::State &state)
{
    selectJob(state, "sjf-ibo");
}
BENCHMARK(BM_PolicySelectJob);

void
BM_ZygardeSelectJob(benchmark::State &state)
{
    selectJob(state, "zygarde");
}
BENCHMARK(BM_ZygardeSelectJob);

void
BM_LookaheadSelectJob(benchmark::State &state)
{
    selectJob(state, "delgado-famaey");
}
BENCHMARK(BM_LookaheadSelectJob);

void
BM_GreedyFcfsSelectJob(benchmark::State &state)
{
    selectJob(state, "greedy-fcfs");
}
BENCHMARK(BM_GreedyFcfsSelectJob);

} // namespace

int
main(int argc, char **argv)
{
    return quetzal::bench::quetzalGbenchMain(
        argc, argv, "micro_policy", "BM_PolicySelectJob");
}
