/**
 * @file
 * Differential tests for PowerTrace::Cursor: the amortized-O(1)
 * cursor must answer every query sequence — forward, repeated,
 * backward, at and around segment boundaries — identically to a
 * naive linear-scan oracle and to the trace's own O(log n) queries,
 * and its cached segment must never show: position() follows the
 * plain seek rule at every query, across restore() and reset().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "energy/power_trace.hpp"
#include "util/random.hpp"

namespace quetzal {
namespace energy {
namespace {

/** Independent linear-scan oracle (deliberately obvious). */
double
naiveValueAt(const PowerTrace &trace, Tick tick)
{
    const auto &segments = trace.data();
    if (segments.empty())
        return 0.0;
    double value = segments.front().value;
    for (const auto &segment : segments) {
        if (segment.start > tick)
            break;
        value = segment.value;
    }
    return value;
}

/** First strict value change after `tick`, scanning linearly. */
Tick
naiveNextChangeAfter(const PowerTrace &trace, Tick tick)
{
    const double current = naiveValueAt(trace, tick);
    for (const auto &segment : trace.data()) {
        if (segment.start > tick && segment.value != current)
            return segment.start;
    }
    return kTickNever;
}

/** Random trace; consecutive equal values included on purpose. */
PowerTrace
randomTrace(util::Rng &rng)
{
    const auto count = static_cast<std::size_t>(rng.uniformInt(1, 40));
    std::vector<PowerTrace::Segment> segments;
    Tick start = rng.uniformInt(0, 50);
    double value = rng.uniform(0.0, 1.0);
    for (std::size_t i = 0; i < count; ++i) {
        // ~25 %: repeat the value, so nextChangeAfter must skip the
        // boundary (a segment start is not necessarily a change).
        if (!rng.bernoulli(0.25) || segments.empty())
            value = rng.uniform(0.0, 1.0);
        segments.push_back({start, value});
        start += rng.uniformInt(1, 500);
    }
    return PowerTrace(std::move(segments));
}

/** Ticks worth probing: boundaries, their neighbors, and extremes. */
std::vector<Tick>
interestingTicks(const PowerTrace &trace)
{
    std::vector<Tick> ticks = {0, 1};
    for (const auto &segment : trace.data()) {
        if (segment.start > 0)
            ticks.push_back(segment.start - 1);
        ticks.push_back(segment.start);
        ticks.push_back(segment.start + 1);
    }
    ticks.push_back(trace.data().back().start + 1'000'000);
    return ticks;
}

/**
 * Where a cursor without a cached segment is left by a query at
 * `tick`, starting from remembered index `index`: an out-of-range
 * index restarts at 0, a tick before the remembered segment's start
 * re-seeks to the last segment starting at or before it (0 before
 * the first), and otherwise the index walks forward.
 */
std::size_t
plainSeek(const PowerTrace &trace, std::size_t index, Tick tick)
{
    const auto &segments = trace.data();
    if (segments.empty())
        return index;
    if (index >= segments.size())
        index = 0;
    if (tick < segments[index].start) {
        index = 0;
        for (std::size_t i = 0; i < segments.size(); ++i) {
            if (segments[i].start <= tick)
                index = i;
        }
        return index;
    }
    while (index + 1 < segments.size() &&
           segments[index + 1].start <= tick)
        ++index;
    return index;
}

/** One query pair checked against the oracles and the seek rule. */
void
expectQuery(PowerTrace::Cursor &cursor, const PowerTrace &trace,
            std::size_t &expectedIndex, Tick tick)
{
    SCOPED_TRACE(tick);
    expectedIndex = plainSeek(trace, expectedIndex, tick);
    EXPECT_EQ(cursor.valueAt(tick), naiveValueAt(trace, tick));
    EXPECT_EQ(cursor.position(), expectedIndex);
    EXPECT_EQ(cursor.nextChangeAfter(tick),
              naiveNextChangeAfter(trace, tick));
    EXPECT_EQ(cursor.position(), expectedIndex);
}

TEST(PowerTraceCursor, MatchesOracleOnMonotoneQueries)
{
    util::Rng rng(4242);
    for (int trial = 0; trial < 50; ++trial) {
        SCOPED_TRACE(trial);
        const PowerTrace trace = randomTrace(rng);
        PowerTrace::Cursor cursor = trace.cursor();

        Tick tick = 0;
        const Tick end = trace.data().back().start + 1000;
        while (tick < end) {
            EXPECT_EQ(cursor.valueAt(tick), naiveValueAt(trace, tick));
            EXPECT_EQ(cursor.valueAt(tick), trace.valueAt(tick));
            EXPECT_EQ(cursor.nextChangeAfter(tick),
                      naiveNextChangeAfter(trace, tick));
            EXPECT_EQ(cursor.nextChangeAfter(tick),
                      trace.nextChangeAfter(tick));
            tick += rng.uniformInt(1, 200);
        }
    }
}

TEST(PowerTraceCursor, MatchesOracleOnRandomJumpQueries)
{
    // Arbitrary (non-monotone) query order: every backward jump must
    // re-seek and still agree everywhere.
    util::Rng rng(77);
    for (int trial = 0; trial < 50; ++trial) {
        SCOPED_TRACE(trial);
        const PowerTrace trace = randomTrace(rng);
        PowerTrace::Cursor cursor = trace.cursor();
        const Tick span = trace.data().back().start + 2000;

        for (int query = 0; query < 200; ++query) {
            const Tick tick = rng.uniformInt(0, span);
            EXPECT_EQ(cursor.valueAt(tick), naiveValueAt(trace, tick));
            EXPECT_EQ(cursor.nextChangeAfter(tick),
                      naiveNextChangeAfter(trace, tick));
        }
    }
}

TEST(PowerTraceCursor, MatchesOracleAtSegmentBoundaries)
{
    util::Rng rng(9);
    for (int trial = 0; trial < 50; ++trial) {
        SCOPED_TRACE(trial);
        const PowerTrace trace = randomTrace(rng);
        PowerTrace::Cursor cursor = trace.cursor();
        for (const Tick tick : interestingTicks(trace)) {
            SCOPED_TRACE(tick);
            EXPECT_EQ(cursor.valueAt(tick), naiveValueAt(trace, tick));
            EXPECT_EQ(cursor.nextChangeAfter(tick),
                      naiveNextChangeAfter(trace, tick));
        }
        // The same boundary set again after reset(), in reverse.
        cursor.reset();
        const std::vector<Tick> ticks = interestingTicks(trace);
        for (auto it = ticks.rbegin(); it != ticks.rend(); ++it) {
            SCOPED_TRACE(*it);
            EXPECT_EQ(cursor.valueAt(*it), naiveValueAt(trace, *it));
            EXPECT_EQ(cursor.nextChangeAfter(*it),
                      naiveNextChangeAfter(trace, *it));
        }
    }
}

TEST(PowerTraceCursor, EmptyAndNullTracesAnswerLikeTheTrace)
{
    const PowerTrace empty;
    PowerTrace::Cursor cursor = empty.cursor();
    EXPECT_EQ(cursor.valueAt(0), 0.0);
    EXPECT_EQ(cursor.valueAt(12345), 0.0);
    EXPECT_EQ(cursor.nextChangeAfter(0), kTickNever);

    PowerTrace::Cursor detached; // no trace at all
    EXPECT_EQ(detached.valueAt(7), 0.0);
    EXPECT_EQ(detached.nextChangeAfter(7), kTickNever);
}

TEST(PowerTraceCursor, InterleavedCursorsDoNotInterfere)
{
    util::Rng rng(13);
    const PowerTrace trace = randomTrace(rng);
    PowerTrace::Cursor ahead = trace.cursor();
    PowerTrace::Cursor behind = trace.cursor();
    const Tick span = trace.data().back().start + 1000;

    for (int query = 0; query < 100; ++query) {
        const Tick far = rng.uniformInt(span / 2, span);
        const Tick near = rng.uniformInt(0, span / 2);
        EXPECT_EQ(ahead.valueAt(far), naiveValueAt(trace, far));
        EXPECT_EQ(behind.valueAt(near), naiveValueAt(trace, near));
    }
}

TEST(PowerTraceCursor, CachedSegmentMatchesPlainSeekEverywhere)
{
    // Runs of equal-valued neighbours (built directly: fromSamples
    // would merge them), a first segment starting after tick 0, and
    // every query order: forward inside one segment, backward after
    // the segment is cached, before the first start, and after
    // restore() to any position, in range or not.
    util::Rng rng(515);
    for (int trial = 0; trial < 60; ++trial) {
        SCOPED_TRACE(trial);
        std::vector<PowerTrace::Segment> segments;
        Tick start = rng.uniformInt(1, 40);
        double value = 0.5;
        const auto count =
            static_cast<std::size_t>(rng.uniformInt(1, 12));
        for (std::size_t i = 0; i < count; ++i) {
            if (rng.bernoulli(0.5))
                value = static_cast<double>(rng.uniformInt(0, 2));
            segments.push_back({start, value});
            start += rng.uniformInt(1, 30);
        }
        const PowerTrace trace(std::move(segments));
        const Tick end = trace.data().back().start + 40;

        PowerTrace::Cursor cursor = trace.cursor();
        std::size_t expected = 0;
        for (int query = 0; query < 300; ++query) {
            const Tick first = query == 0 ? 0 : rng.uniformInt(0, end);
            switch (rng.uniformInt(0, 5)) {
              case 0: {
                // Arbitrary restore, sometimes past the last index.
                const auto saved = static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<Tick>(count) + 2));
                cursor.restore(saved);
                expected = saved;
                break;
              }
              case 1:
                cursor.reset();
                expected = 0;
                break;
              default:
                break;
            }
            expectQuery(cursor, trace, expected, first);
            // Then a short walk: forward by small steps (often inside
            // the cached segment), one step back, and a tick before
            // the first segment.
            Tick tick = first;
            for (int step = 0; step < 4; ++step) {
                tick += rng.uniformInt(0, 6);
                expectQuery(cursor, trace, expected, tick);
            }
            expectQuery(cursor, trace, expected,
                        std::max<Tick>(0, tick - rng.uniformInt(1, 8)));
            if (rng.bernoulli(0.1))
                expectQuery(cursor, trace, expected,
                            trace.data().front().start -
                                rng.uniformInt(1, 5));
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(PowerTraceCursor, OneSegmentAndEmptyTracesCacheCorrectly)
{
    const PowerTrace one({{100, 0.25}});
    PowerTrace::Cursor cursor = one.cursor();
    std::size_t expected = 0;
    for (const Tick tick : {Tick{500}, Tick{0}, Tick{99}, Tick{100},
                            Tick{-7}, kTickNever - 1, Tick{100}}) {
        expectQuery(cursor, one, expected, tick);
        EXPECT_EQ(cursor.valueAt(tick), 0.25);
        EXPECT_EQ(cursor.nextChangeAfter(tick), kTickNever);
    }
    cursor.restore(3);
    expected = 3;
    expectQuery(cursor, one, expected, 50);

    const PowerTrace empty;
    PowerTrace::Cursor none = empty.cursor();
    none.restore(2);
    for (const Tick tick : {Tick{0}, Tick{10}, Tick{5}}) {
        EXPECT_EQ(none.valueAt(tick), 0.0);
        EXPECT_EQ(none.nextChangeAfter(tick), kTickNever);
        EXPECT_EQ(none.position(), 2u);
    }
}

} // namespace
} // namespace energy
} // namespace quetzal
