/**
 * @file
 * Layer-trace timers for calls that last tens of nanoseconds, where
 * the clock would otherwise dominate what it measures.
 *
 * LayerClock reads the x86 time-stamp counter (steady_clock
 * elsewhere), calibrated once against steady_clock; the median cost
 * of an empty interval is subtracted from every reading. CallTimer
 * counts every call but times only every `stride`-th one and scales
 * the timed share up to all calls, which keeps the layer trace's own
 * cost (reported as trace_overhead_pct) small on hot call sites.
 */

#ifndef PERFBENCH_TIMER_HPP
#define PERFBENCH_TIMER_HPP

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace perfbench {

class LayerClock
{
  public:
    static std::uint64_t now()
    {
#if defined(__x86_64__) || defined(__i386__)
        return __rdtsc();
#else
        return static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
#endif
    }

    /** Milliseconds since `start`, less the clock's own cost. */
    static double msSince(std::uint64_t start)
    {
        const std::uint64_t ticks = now() - start;
        return ticks > emptyTicks
            ? static_cast<double>(ticks - emptyTicks) * msPerTick
            : 0.0;
    }

    /** Measure ticks per ms and the empty-interval cost. Call once. */
    static void calibrate();

  private:
    static inline double msPerTick = 1e-6;
    static inline std::uint64_t emptyTicks = 0;
};

/** One timed call site: every call counted, every stride-th timed. */
class CallTimer
{
  public:
    explicit CallTimer(std::uint64_t stride = 1) : stride(stride) {}

    /** Count a call; true when this one should be timed. */
    bool sample() { return calls++ % stride == 0; }

    void add(double ms)
    {
        ++timed;
        timedMs += ms;
    }

    std::uint64_t count() const { return calls; }

    /** Estimated total over all calls. */
    double ms() const
    {
        return timed ? timedMs * static_cast<double>(calls) /
                static_cast<double>(timed)
                     : 0.0;
    }

  private:
    std::uint64_t stride;
    std::uint64_t calls = 0;
    std::uint64_t timed = 0;
    double timedMs = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_TIMER_HPP
