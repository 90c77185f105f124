/**
 * @file
 * The benchmark's own arithmetic: tail-percentile sample rule, Spearman
 * rank correlation, the capacity ladder search, open-loop latency from
 * the scheduled send time, failure accounting and the output check.
 * Header-only so the benchmark program and its unit tests share one
 * definition.
 */

#ifndef DLISBENCH_BENCH_MATH_HPP
#define DLISBENCH_BENCH_MATH_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace dlisbench {

/** Samples a tail percentile must have beyond it to be reported. */
inline constexpr size_t kTailBeyond = 10;

/**
 * Operations a run must time before its @p q percentile has
 * kTailBeyond samples beyond it: ceil(10 / (1 - q)), i.e. 100 for p90.
 * This holds under obs::percentile's interpolated rank and under the
 * nearest-rank definition alike.
 */
inline size_t
minSamplesForTail(double q)
{
    return static_cast<size_t>(
        std::ceil(static_cast<double>(kTailBeyond) / (1.0 - q) - 1e-9));
}

/** Ranks (1-based) of @p v, ties sharing their average rank. */
inline std::vector<double>
averageRanks(const std::vector<double> &v)
{
    std::vector<size_t> order(v.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return v[a] < v[b]; });
    std::vector<double> ranks(v.size());
    for (size_t i = 0; i < order.size();) {
        size_t j = i;
        while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]])
            ++j;
        const double avg = static_cast<double>(i + j) / 2.0 + 1.0;
        for (size_t k = i; k <= j; ++k)
            ranks[order[k]] = avg;
        i = j + 1;
    }
    return ranks;
}

/**
 * Spearman rank correlation of paired samples (Pearson correlation of
 * their average ranks). 0 when fewer than two pairs or when either
 * side is constant.
 */
inline double
spearman(const std::vector<double> &x, const std::vector<double> &y)
{
    DLIS_CHECK(x.size() == y.size(), "spearman needs paired samples");
    if (x.size() < 2)
        return 0.0;
    const std::vector<double> rx = averageRanks(x);
    const std::vector<double> ry = averageRanks(y);
    const double mean = (static_cast<double>(x.size()) + 1.0) / 2.0;
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
        sxy += (rx[i] - mean) * (ry[i] - mean);
        sxx += (rx[i] - mean) * (rx[i] - mean);
        syy += (ry[i] - mean) * (ry[i] - mean);
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

/** Fixed geometric ladder of offered rates: base * step^j. */
struct Ladder
{
    double base = 1.0; //!< rate of rung 0, requests per second
    double step = 1.05; //!< ratio between neighbouring rungs (<= 1.05)
    size_t rungs = 1;

    double
    rate(size_t j) const
    {
        return base * std::pow(step, static_cast<double>(j));
    }
};

/** Outcome of a capacity search. */
struct CapacityResult
{
    bool found = false; //!< some rung met the limit
    size_t rung = 0;    //!< highest rung that met it (when found)
    double rate = 0.0;  //!< its rate
};

/**
 * Highest rung of @p ladder at which @p probe (rate -> meets the
 * limit) passes, by bisection over the undecided rungs [@p lo, @p hi):
 * rungs below @p lo are already known to pass and rungs from @p hi up
 * to miss. Meeting the limit is taken to be monotone in the offered
 * rate. A rung counts as missing only when two probes in a row miss,
 * so one transient stall cannot drag the result down.
 */
template <typename Probe>
CapacityResult
searchCapacity(const Ladder &ladder, Probe &&probe, size_t lo = 0,
               size_t hi = SIZE_MAX)
{
    DLIS_CHECK(ladder.step > 1.0 && ladder.step <= 1.05 + 1e-12,
               "ladder steps must be geometric and at most 5%");
    hi = std::min(hi, ladder.rungs);
    DLIS_CHECK(lo <= hi, "rung range out of order");
    // Invariant: every rung < lo passed, every rung >= hi missed.
    while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (probe(ladder.rate(mid)) || probe(ladder.rate(mid)))
            lo = mid + 1;
        else
            hi = mid;
    }
    CapacityResult res;
    if (lo > 0) {
        res.found = true;
        res.rung = lo - 1;
        res.rate = ladder.rate(res.rung);
    }
    return res;
}

/**
 * The limit rule of one ladder probe: at least 99% of the requests
 * sent completed within @p limit seconds of their scheduled send time
 * (a rejected or failed request counts as missing the limit) and the
 * queue ended drained.
 */
inline bool
meetsLimit(const std::vector<double> &completedLatencies, size_t sent,
           double limit, bool drained)
{
    if (!drained || sent == 0)
        return false;
    const auto within = static_cast<size_t>(std::count_if(
        completedLatencies.begin(), completedLatencies.end(),
        [&](double l) { return l <= limit; }));
    return static_cast<double>(within) >=
           0.99 * static_cast<double>(sent);
}

/**
 * Poisson arrival schedule: send offsets (seconds from the start) of an
 * open loop at @p rate requests per second over @p seconds.
 */
inline std::vector<double>
poissonSchedule(double rate, double seconds, uint64_t seed)
{
    DLIS_CHECK(rate > 0.0 && seconds > 0.0, "bad open-loop schedule");
    dlis::Rng rng(seed);
    std::vector<double> out;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= seconds)
            return out;
        out.push_back(t);
    }
}

/** One open-loop request's clock (seconds on one time base). */
struct OpenLoopRecord
{
    double scheduled = 0.0; //!< when it was due to be sent
    double sent = 0.0;      //!< when the generator actually sent it
    double completed = 0.0; //!< when its reply arrived
    bool ok = false;        //!< reply arrived (not rejected or failed)
};

/**
 * Latencies of the completed requests, each from its scheduled send
 * time, so a stalled generator or server charges the wait it imposes
 * on every later request.
 */
inline std::vector<double>
openLoopLatencies(const std::vector<OpenLoopRecord> &records)
{
    std::vector<double> out;
    out.reserve(records.size());
    for (const OpenLoopRecord &r : records)
        if (r.ok)
            out.push_back(r.completed - r.scheduled);
    return out;
}

/** How late the generator sent each request (seconds). */
inline std::vector<double>
generatorLag(const std::vector<OpenLoopRecord> &records)
{
    std::vector<double> out;
    out.reserve(records.size());
    for (const OpenLoopRecord &r : records)
        out.push_back(r.sent - r.scheduled);
    return out;
}

/** Failure accounting over the operations a run counts. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t exceptions = 0; //!< forward or submit threw
    uint64_t rejects = 0;    //!< engine refused the request
    uint64_t mismatches = 0; //!< output failed the reference check

    uint64_t failed() const { return exceptions + rejects + mismatches; }

    double
    failedRatio() const
    {
        return attempted ? static_cast<double>(failed()) /
                               static_cast<double>(attempted)
                         : 0.0;
    }

    Tally &
    operator+=(const Tally &o)
    {
        attempted += o.attempted;
        exceptions += o.exceptions;
        rejects += o.rejects;
        mismatches += o.mismatches;
        return *this;
    }
};

/** Index of the largest element (first on ties). */
inline size_t
argmax(const float *v, size_t n)
{
    return static_cast<size_t>(std::max_element(v, v + n) - v);
}

/**
 * Output check against a reference row of logits: every element within
 * @p tol * max(1, max|ref|), and the same top-1 class unless the
 * reference's top two are themselves within that tolerance (a tie the
 * tolerance cannot order).
 */
inline bool
outputMatches(const float *out, const float *ref, size_t n, double tol)
{
    double scale = 1.0;
    for (size_t i = 0; i < n; ++i)
        scale = std::max(scale, std::fabs(static_cast<double>(ref[i])));
    const double limit = tol * scale;
    for (size_t i = 0; i < n; ++i)
        if (!(std::fabs(static_cast<double>(out[i]) - ref[i]) <= limit))
            return false;
    const size_t top = argmax(ref, n);
    if (argmax(out, n) == top)
        return true;
    double second = -INFINITY;
    for (size_t i = 0; i < n; ++i)
        if (i != top)
            second = std::max(second, static_cast<double>(ref[i]));
    return ref[top] - second <= limit;
}

} // namespace dlisbench

#endif // DLISBENCH_BENCH_MATH_HPP
