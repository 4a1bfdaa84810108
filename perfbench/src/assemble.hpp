/**
 * @file
 * The decorator-assembled simulator run: sim::runExperiment's
 * assembly rebuilt from the public constructors, so the layer trace
 * can time Simulator::run and, on the runs it assembles from parts,
 * wrap Alg. 1 (scheduler), Alg. 2 (IBO engine) and the E[S]
 * estimator in timing decorators. The decorators forward every
 * virtual (including version()/powerKey(), so TaskSystem memoisation
 * is unchanged); the checks compare each assembled run's Metrics
 * field for field with the same run through the program's own path.
 */

#ifndef PERFBENCH_ASSEMBLE_HPP
#define PERFBENCH_ASSEMBLE_HPP

#include <cstddef>
#include <cstdint>

#include "sim/experiment.hpp"
#include "timer.hpp"

namespace perfbench {

/**
 * Layer-trace accumulators of one simulator run (one thread). Runs
 * sit side by side in a vector written from different workers, so
 * each gets its own cache lines.
 */
struct alignas(64) RunTrace
{
    /** The run's controller was assembled with the decorators. */
    bool decorated = false;
    /** ...and it is the paper's Quetzal (counts toward core.*). */
    bool quetzal = false;
    double runMs = 0.0; ///< Simulator::run wall time
    /** @name core: Alg. 1 select, Alg. 2 adapt, E[S] estimate */
    /// @{
    CallTimer sched;
    CallTimer ibo;
    std::uint64_t iboDegraded = 0;
    /** E[S] calls made from inside select()/adapt() (nested)... */
    CallTimer estimateInPolicy{8};
    /** ...and from the controller outside them. */
    CallTimer estimateOutside{8};
    /** Set while a decorated select()/adapt() is on the stack. */
    bool inPolicy = false;
    /// @}
    /** @name queueing: buffer occupancy seen by each select() */
    /// @{
    double occupancySum = 0.0;
    std::size_t occupancyMax = 0;
    /// @}

    std::uint64_t estimateCalls() const
    {
        return estimateInPolicy.count() + estimateOutside.count();
    }
    double estimateMs() const
    {
        return estimateInPolicy.ms() + estimateOutside.ms();
    }
    /** Time inside the core decorators (children of runMs). */
    double coreMs() const
    {
        return sched.ms() + ibo.ms() + estimateOutside.ms();
    }
};

/**
 * Run one experiment assembled from parts, timing Simulator::run into
 * `trace`. When the controller is the paper's Quetzal (QZ) or the
 * Ideal/NoAdapt baseline, its scheduler, adaptation policy and
 * estimator are wrapped in the timing decorators; every other
 * controller comes from the program's own factories undecorated.
 */
quetzal::sim::Metrics
runAssembled(const quetzal::sim::ExperimentConfig &config,
             RunTrace &trace);

} // namespace perfbench

#endif // PERFBENCH_ASSEMBLE_HPP
