// Tests of the benchmark's own arithmetic on fixed synthetic inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bench_math.hpp"

namespace dlisbench {
namespace {

/**
 * Samples strictly beyond the @p q quantile (0 < q < 1) of @p n sorted
 * samples, under obs::percentile's interpolated rank q * (n - 1).
 */
size_t
samplesBeyond(size_t n, double q)
{
    if (n == 0)
        return 0;
    const auto rank =
        static_cast<size_t>(std::floor(q * static_cast<double>(n - 1)));
    return n - 1 - rank;
}

TEST(TailRule, P90NeedsOneHundredSamples)
{
    EXPECT_EQ(minSamplesForTail(0.9), 100u);
    EXPECT_EQ(minSamplesForTail(0.99), 1000u);
    EXPECT_EQ(minSamplesForTail(0.5), 20u);
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
    EXPECT_LT(samplesBeyond(90, 0.9), 10u);
    for (double q : {0.5, 0.75, 0.9, 0.95, 0.99}) {
        const size_t n = minSamplesForTail(q);
        EXPECT_GE(samplesBeyond(n, q), kTailBeyond) << q;
        // Nearest rank: the percentile is sample ceil(q * n).
        const auto rank =
            static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
        EXPECT_GE(n - rank, kTailBeyond) << q;
    }
}

TEST(Spearman, MonotoneAndReversedAndTied)
{
    const std::vector<double> x = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(spearman(x, {10, 20, 30, 40, 1000}), 1.0);
    EXPECT_DOUBLE_EQ(spearman(x, {5, 4, 3, 2, 1}), -1.0);
    // Ties share their average rank: ranks of y are 1, 2.5, 2.5, 4, 5.
    // d = 0, -0.5, 0.5, 0, 0 -> not exactly 1.
    const double r = spearman(x, {1, 2, 2, 4, 5});
    EXPECT_GT(r, 0.97);
    EXPECT_LT(r, 1.0);
    EXPECT_DOUBLE_EQ(spearman(x, {3, 3, 3, 3, 3}), 0.0);
    EXPECT_DOUBLE_EQ(spearman({1}, {2}), 0.0);
    // Textbook case: d^2 sum = 2 over n = 5 gives 1 - 6*2/120 = 0.9.
    EXPECT_NEAR(spearman(x, {2, 1, 3, 4, 5}), 0.9, 1e-12);
}

TEST(CapacityLadder, FindsHighestPassingRung)
{
    const Ladder ladder{40.0, 1.04, 64};
    const double capacity = 300.0;
    size_t probes = 0;
    const CapacityResult res = searchCapacity(ladder, [&](double rate) {
        ++probes;
        return rate <= capacity;
    });
    ASSERT_TRUE(res.found);
    EXPECT_LE(res.rate, capacity);
    EXPECT_GT(ladder.rate(res.rung + 1), capacity);
    // ceil(log2(65)) bisection steps, each miss probed twice.
    EXPECT_LE(probes, 14u);
}

TEST(CapacityLadder, OneTransientMissIsRetried)
{
    const Ladder ladder{40.0, 1.04, 64};
    bool stalled = false;
    const CapacityResult res = searchCapacity(ladder, [&](double rate) {
        // The first probe below capacity hits a stall once.
        if (rate <= 300.0 && !stalled) {
            stalled = true;
            return false;
        }
        return rate <= 300.0;
    });
    ASSERT_TRUE(res.found);
    EXPECT_GT(ladder.rate(res.rung + 1), 300.0);
    EXPECT_LE(res.rate, 300.0);
}

TEST(CapacityLadder, SearchesBelowAKnownMiss)
{
    const Ladder ladder{20.0, 1.05, 80};
    std::vector<double> rates;
    const CapacityResult res = searchCapacity(
        ladder,
        [&](double rate) {
            rates.push_back(rate);
            return rate <= 50.0;
        },
        0, 32);
    ASSERT_TRUE(res.found);
    for (double r : rates)
        EXPECT_LT(r, ladder.rate(32)); // rung 32 up is known to miss
    EXPECT_LE(res.rate, 50.0);
    EXPECT_GT(ladder.rate(res.rung + 1), 50.0);
}

TEST(CapacityLadder, StartsAboveKnownPassingRungs)
{
    const Ladder ladder{100.0, 1.05, 32};
    std::vector<double> rates;
    const CapacityResult res = searchCapacity(
        ladder,
        [&](double rate) {
            rates.push_back(rate);
            return rate <= 250.0;
        },
        1);
    ASSERT_TRUE(res.found);
    for (double r : rates)
        EXPECT_GT(r, 100.0); // rung 0 is never probed again
    EXPECT_LE(res.rate, 250.0);
    EXPECT_GT(ladder.rate(res.rung + 1), 250.0);
}

TEST(CapacityLadder, EdgesAndStepLimit)
{
    const Ladder ladder{10.0, 1.05, 8};
    const CapacityResult none =
        searchCapacity(ladder, [](double) { return false; });
    EXPECT_FALSE(none.found);
    const CapacityResult all =
        searchCapacity(ladder, [](double) { return true; });
    ASSERT_TRUE(all.found);
    EXPECT_EQ(all.rung, 7u);
    EXPECT_THROW(searchCapacity(Ladder{10.0, 1.10, 8},
                                [](double) { return true; }),
                 std::exception);
}

TEST(CapacityLadder, LimitRuleCountsMissingRequests)
{
    std::vector<double> lat(99, 0.010);
    // 99 of 100 sent made it in time; the 100th was rejected.
    EXPECT_TRUE(meetsLimit(lat, 100, 0.050, true));
    EXPECT_FALSE(meetsLimit(lat, 101, 0.050, true));
    EXPECT_FALSE(meetsLimit(lat, 100, 0.050, false)); // backlog left
    lat[0] = 0.060;
    EXPECT_FALSE(meetsLimit(lat, 100, 0.050, true));
}

TEST(OpenLoop, LatencyRunsFromTheScheduledSendTime)
{
    std::vector<OpenLoopRecord> recs = {
        {0.000, 0.000, 0.010, true},
        // The generator stalled 30 ms: the stall is charged.
        {0.010, 0.040, 0.045, true},
        // Rejected: no latency sample, but its lag still counts.
        {0.020, 0.041, 0.041, false},
    };
    const std::vector<double> lat = openLoopLatencies(recs);
    ASSERT_EQ(lat.size(), 2u);
    EXPECT_NEAR(lat[0], 0.010, 1e-12);
    EXPECT_NEAR(lat[1], 0.035, 1e-12);
    const std::vector<double> lag = generatorLag(recs);
    ASSERT_EQ(lag.size(), 3u);
    EXPECT_NEAR(lag[1], 0.030, 1e-12);
    EXPECT_NEAR(lag[2], 0.021, 1e-12);
}

TEST(OpenLoop, PoissonScheduleIsSeededAndOnRate)
{
    const std::vector<double> a = poissonSchedule(200.0, 10.0, 7);
    const std::vector<double> b = poissonSchedule(200.0, 10.0, 7);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, poissonSchedule(200.0, 10.0, 8));
    EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 150.0);
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_GT(a[i], a[i - 1]);
    EXPECT_LT(a.back(), 10.0);
}

TEST(Tally, FailedRatioCountsEveryKindOfFailure)
{
    Tally t;
    EXPECT_DOUBLE_EQ(t.failedRatio(), 0.0);
    t.attempted = 200;
    t.exceptions = 1;
    t.rejects = 2;
    t.mismatches = 1;
    EXPECT_EQ(t.failed(), 4u);
    EXPECT_DOUBLE_EQ(t.failedRatio(), 0.02);
    Tally probe;
    probe.attempted = 200;
    t += probe;
    EXPECT_DOUBLE_EQ(t.failedRatio(), 0.01);
}

TEST(OutputCheck, ToleranceAndTopOne)
{
    const float ref[4] = {0.1f, 2.0f, -1.0f, 0.5f};
    float out[4] = {0.1f, 2.0f, -1.0f, 0.5f};
    EXPECT_TRUE(outputMatches(out, ref, 4, 1e-4));
    out[2] = -1.0f + 1e-4f; // within 1e-4 * max|ref| = 2e-4
    EXPECT_TRUE(outputMatches(out, ref, 4, 1e-4));
    out[2] = -1.0f + 1e-3f;
    EXPECT_FALSE(outputMatches(out, ref, 4, 1e-4));
    out[2] = -1.0f;
    out[0] = NAN;
    EXPECT_FALSE(outputMatches(out, ref, 4, 1e-4));

    // A near-tie the tolerance cannot order may flip top-1 ...
    const float tie[2] = {1.0f, 1.0f + 1e-5f};
    const float flipped[2] = {1.0f + 1e-5f, 1.0f};
    EXPECT_TRUE(outputMatches(flipped, tie, 2, 1e-4));
    // ... a clear winner may not, even if every element is in range.
    const float clear[2] = {1.0f, 1.5f};
    const float swapped[2] = {1.3f, 1.2f}; // each within 0.375
    EXPECT_FALSE(outputMatches(swapped, clear, 2, 0.25));
}

} // namespace
} // namespace dlisbench
