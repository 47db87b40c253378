/**
 * @file
 * Tests for the simulation substrate: RNG streams and distributions,
 * the simulated clock, and the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/sim_clock.hh"

namespace xser {
namespace {

/* ------------------------------ Rng ------------------------------ */

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.nextU64() == b.nextU64() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministicAndDecorrelated)
{
    Rng parent1(77);
    Rng parent2(77);
    Rng child1 = parent1.fork("beam");
    Rng child2 = parent2.fork("beam");
    Rng other = parent1.fork("logic");
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(child1.nextU64(), child2.nextU64());
    // A differently tagged fork must produce a different stream.
    Rng child3 = parent2.fork("beam");
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += other.nextU64() == child3.nextU64() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double value = rng.nextDouble();
        ASSERT_GE(value, 0.0);
        ASSERT_LT(value, 1.0);
    }
}

TEST(Rng, BoundedRespectsBound)
{
    Rng rng(6);
    std::set<uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const uint64_t value = rng.nextBounded(17);
        ASSERT_LT(value, 17u);
        seen.insert(value);
    }
    // All 17 residues should appear in 10k draws.
    EXPECT_EQ(seen.size(), 17u);
}

TEST(Rng, HoistedThresholdMatchesNextBounded)
{
    // Rejection sampling as written inline, threshold per draw.
    auto reference = [](Rng &rng, uint64_t bound) {
        const uint64_t threshold = (0 - bound) % bound;
        for (;;) {
            const uint64_t value = rng.nextU64();
            if (value >= threshold)
                return value % bound;
        }
    };
    // Bounds just past 2^63 reject about half of all draws, so the
    // precomputed-threshold form is checked on the rejection path too.
    for (const uint64_t bound :
         {uint64_t{1}, uint64_t{17}, uint64_t{1064}, uint64_t{4096},
          (uint64_t{1} << 63) + 1, ~uint64_t{0} / 3 * 2}) {
        Rng a(bound);
        Rng b(bound);
        Rng c(bound);
        const uint64_t threshold = Rng::boundedThreshold(bound);
        for (int i = 0; i < 1000; ++i) {
            const uint64_t expected = reference(a, bound);
            ASSERT_EQ(b.nextBounded(bound, threshold), expected)
                << "bound " << bound << " draw " << i;
            ASSERT_EQ(c.nextBounded(bound), expected)
                << "bound " << bound << " draw " << i;
        }
        EXPECT_EQ(a.state(), b.state()) << "bound " << bound;
        EXPECT_EQ(a.state(), c.state()) << "bound " << bound;
    }
}

TEST(Rng, BernoulliEdgeCases)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(8);
    const int n = 200000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double value = rng.nextGaussian();
        sum += value;
        sum_sq += value * value;
    }
    const double mean = sum / n;
    const double variance = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.01);
    EXPECT_NEAR(variance, 1.0, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(9);
    const int n = 200000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.005);
}

/** Poisson mean/variance across the small-mean and large-mean paths. */
class PoissonSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(PoissonSweep, MeanAndVarianceMatch)
{
    const double mean = GetParam();
    Rng rng(static_cast<uint64_t>(mean * 1000) + 3);
    const int n = 100000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double value =
            static_cast<double>(rng.nextPoisson(mean));
        sum += value;
        sum_sq += value * value;
    }
    const double sample_mean = sum / n;
    const double sample_var = sum_sq / n - sample_mean * sample_mean;
    const double tolerance = 5.0 * std::sqrt(mean / n) + 0.01;
    EXPECT_NEAR(sample_mean, mean, tolerance);
    // Poisson variance equals the mean.
    EXPECT_NEAR(sample_var, mean, 0.1 * mean + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Means, PoissonSweep,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0, 3.0,
                                           10.0, 29.0, 35.0, 100.0,
                                           1000.0));

TEST(Rng, PoissonZeroMeanIsZero)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextPoisson(0.0), 0u);
}

TEST(HashString, StableAndDistinct)
{
    EXPECT_EQ(hashString("beam"), hashString("beam"));
    EXPECT_NE(hashString("beam"), hashString("logic"));
    EXPECT_NE(hashString(""), hashString("a"));
}

/* -------------------------- stream splitter ---------------------- */

TEST(StreamSplitter, PureFunctionOfCoordinate)
{
    EXPECT_EQ(deriveStreamSeed(0x5e5510ULL, 2, 7),
              deriveStreamSeed(0x5e5510ULL, 2, 7));
    // Each coordinate axis matters independently.
    EXPECT_NE(deriveStreamSeed(0x5e5510ULL, 2, 7),
              deriveStreamSeed(0x5e5510ULL, 3, 7));
    EXPECT_NE(deriveStreamSeed(0x5e5510ULL, 2, 7),
              deriveStreamSeed(0x5e5510ULL, 2, 8));
    EXPECT_NE(deriveStreamSeed(0x5e5510ULL, 2, 7),
              deriveStreamSeed(0x5e5511ULL, 2, 7));
    // (session, replicate) = (1, 0) and (0, 1) must not alias -- a
    // plain XOR fold would collide whole stream families here.
    EXPECT_NE(deriveStreamSeed(0x5e5510ULL, 1, 0),
              deriveStreamSeed(0x5e5510ULL, 0, 1));
}

TEST(StreamSplitter, NoCollisionsOver100kStreams)
{
    // 10^5 coordinate tuples -> 10^5 distinct seeds, and distinct
    // two-draw stream prefixes. A birthday collision in 64 bits over
    // 1e5 samples has probability ~3e-10, so any hit is a bug.
    std::set<uint64_t> seeds;
    std::set<std::pair<uint64_t, uint64_t>> prefixes;
    for (uint64_t session = 0; session < 10; ++session) {
        for (uint64_t replicate = 0; replicate < 10000; ++replicate) {
            const uint64_t seed =
                deriveStreamSeed(0x5e5510ULL, session, replicate);
            seeds.insert(seed);
            Rng rng(seed);
            const uint64_t first = rng.nextU64();
            prefixes.insert({first, rng.nextU64()});
        }
    }
    EXPECT_EQ(seeds.size(), 100000u);
    EXPECT_EQ(prefixes.size(), 100000u);
}

TEST(StreamSplitter, GoldenValuesStableAcrossPlatforms)
{
    // Pinned outputs: the derivation is pure 64-bit integer mixing, so
    // these must hold on every platform and compiler. A change here
    // silently reshuffles every replicate of every campaign.
    EXPECT_EQ(deriveStreamSeed(0, 0, 0), 0x8dbeb87049046b82ULL);
    EXPECT_EQ(deriveStreamSeed(0x5e5510ULL, 0, 0),
              0x2963c55a5e1a5bcbULL);
    EXPECT_EQ(deriveStreamSeed(0x5e5510ULL, 1, 0),
              0x0365f3b62bbc04a3ULL);
    EXPECT_EQ(deriveStreamSeed(0x5e5510ULL, 0, 1),
              0x209c1e2a402af63cULL);
    EXPECT_EQ(deriveStreamSeed(0x5e5510ULL, 3, 2),
              0x36757585b73c9ef1ULL);
    EXPECT_EQ(deriveStreamSeed(0xffffffffffffffffULL, 0xffffffffULL,
                               0xffffffffULL),
              0xc117a6b44fe9e075ULL);
}

/* ----------------------------- Logging --------------------------- */

TEST(Logging, MsgComposesStreamables)
{
    EXPECT_EQ(msg("v=", 42, " x", 1.5), "v=42 x1.5");
    EXPECT_EQ(msg(), "");
}

TEST(Logging, LevelGatesEmission)
{
    // emit() below the level is a no-op; above passes. We cannot
    // capture stderr portably here, but the level accessors and the
    // no-crash property are the contract.
    Logger &logger = Logger::global();
    const LogLevel saved = logger.level();
    logger.setLevel(LogLevel::Quiet);
    warn("suppressed");
    inform("suppressed");
    debugLog("suppressed");
    logger.setLevel(saved);
    SUCCEED();
}

/* ---------------------------- SimClock --------------------------- */

TEST(SimClock, PeriodMatchesFrequency)
{
    SimClock clock(2.4e9);
    // 2.4 GHz -> 416.67 ps, stored as integer ticks.
    EXPECT_EQ(clock.period(), 417u);
    SimClock slow(0.9e9);
    EXPECT_EQ(slow.period(), 1111u);
}

TEST(SimClock, AdvanceCycles)
{
    SimClock clock(1e9);  // 1 ns period
    clock.advanceCycles(1000);
    EXPECT_EQ(clock.now(), 1000u * 1000u);
    EXPECT_EQ(clock.cyclesElapsed(), 1000u);
}

TEST(SimClock, FrequencyChangeKeepsTime)
{
    SimClock clock(2.4e9);
    clock.advanceCycles(100);
    const Tick before = clock.now();
    clock.setFrequency(0.9e9);
    EXPECT_EQ(clock.now(), before);
    EXPECT_EQ(clock.frequency(), 0.9e9);
}

TEST(SimClock, TickConversions)
{
    EXPECT_EQ(ticks::fromSeconds(1.0), ticks::perSecond);
    EXPECT_DOUBLE_EQ(ticks::toSeconds(ticks::perSecond), 1.0);
    EXPECT_DOUBLE_EQ(ticks::toMinutes(60 * ticks::perSecond), 1.0);
}

/* --------------------------- EventQueue -------------------------- */

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(30, [&](Tick) { order.push_back(3); });
    queue.schedule(10, [&](Tick) { order.push_back(1); });
    queue.schedule(20, [&](Tick) { order.push_back(2); });
    EXPECT_EQ(queue.runUntil(100), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickFiresInInsertionOrder)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        queue.schedule(5, [&order, i](Tick) { order.push_back(i); });
    queue.runUntil(5);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunUntilRespectsLimit)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(10, [&](Tick) { ++fired; });
    queue.schedule(20, [&](Tick) { ++fired; });
    EXPECT_EQ(queue.runUntil(15), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(queue.size(), 1u);
    EXPECT_EQ(queue.nextTick(), 20u);
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue queue;
    int fired = 0;
    const EventId id = queue.schedule(10, [&](Tick) { ++fired; });
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_FALSE(queue.cancel(id));  // second cancel is a no-op
    queue.runUntil(100);
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, CallbackReceivesScheduledTick)
{
    EventQueue queue;
    Tick seen = 0;
    queue.schedule(42, [&](Tick when) { seen = when; });
    queue.runUntil(100);
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, EventsScheduledDuringRunDoNotFireInSamePass)
{
    EventQueue queue;
    int fired = 0;
    queue.schedule(10, [&](Tick) {
        ++fired;
        queue.schedule(11, [&](Tick) { ++fired; });
    });
    // runUntil picks up the newly scheduled event because it is within
    // the limit.
    queue.runUntil(15);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ClearDropsEverything)
{
    EventQueue queue;
    queue.schedule(10, [](Tick) {});
    queue.schedule(20, [](Tick) {});
    queue.clear();
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.runUntil(100), 0u);
}

} // namespace
} // namespace xser
