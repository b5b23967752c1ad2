/** @file Unit tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "common/stats_util.hh"

namespace specfaas {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(7);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntRange)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const auto x = rng.uniformInt(std::uint64_t{10});
        EXPECT_LT(x, 10u);
    }
    for (int i = 0; i < 1000; ++i) {
        const auto x = rng.uniformInt(std::int64_t{-3}, std::int64_t{3});
        EXPECT_GE(x, -3);
        EXPECT_LE(x, 3);
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(11);
    int heads = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        heads += rng.bernoulli(0.7) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(heads) / n, 0.7, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, NormalMoments)
{
    Rng rng(17);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i)
        xs.push_back(rng.normal(10.0, 2.0));
    const double m = mean(xs);
    EXPECT_NEAR(m, 10.0, 0.1);
    double ss = 0.0;
    for (double x : xs)
        ss += (x - m) * (x - m);
    EXPECT_NEAR(std::sqrt(ss / static_cast<double>(xs.size() - 1)), 2.0,
                0.1);
}

TEST(Rng, LognormalMeanMatches)
{
    Rng rng(19);
    std::vector<double> xs;
    for (int i = 0; i < 40000; ++i)
        xs.push_back(rng.lognormal(8.0, 0.3));
    EXPECT_NEAR(mean(xs), 8.0, 0.25);
    for (double x : xs)
        EXPECT_GT(x, 0.0);
}

TEST(Rng, LognormalZeroCvIsDeterministic)
{
    Rng rng(19);
    EXPECT_DOUBLE_EQ(rng.lognormal(8.0, 0.0), 8.0);
}

TEST(Rng, ZipfSkewsTowardLowIndices)
{
    Rng rng(23);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 30000; ++i)
        ++counts[rng.zipf(100, 1.4)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[0], 30000 / 10); // head carries real mass
    for (int i = 0; i < 100; ++i)
        EXPECT_GE(counts[i], 0);
}

TEST(Rng, WeightedPickHonorsWeights)
{
    Rng rng(29);
    std::vector<double> weights = {1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 10000; ++i)
        ++counts[rng.weightedPick(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(31);
    Rng b = a.fork();
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(equal, 3);
}

} // namespace
} // namespace specfaas
