/**
 * @file
 * Tests for the trace-driven load layer: arrival processes (rate
 * statistics, shapes, determinism, validation), the multi-tenant
 * traffic mix (per-tenant input-stream independence), and the
 * LoadDriver end-to-end.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "loadgen/load_driver.hh"
#include "sim/sim_context.hh"
#include "workloads/suites.hh"

namespace specfaas {
namespace {

/** Mean achieved rate over @p n draws, in rps. */
double
measuredRps(ArrivalProcess& process, std::size_t n)
{
    Tick now = 0;
    for (std::size_t i = 0; i < n; ++i)
        now += process.nextGap(now);
    return static_cast<double>(n) /
           (static_cast<double>(now) / static_cast<double>(kSecond));
}

TEST(Arrival, PoissonMatchesConfiguredRate)
{
    ArrivalSpec spec;
    spec.rps = 200.0;
    ArrivalProcess process(spec, Rng(7));
    const double rps = measuredRps(process, 20000);
    EXPECT_NEAR(rps, 200.0, 200.0 * 0.05);
}

TEST(Arrival, DiurnalOscillatesAroundMeanRate)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Diurnal;
    spec.rps = 100.0;
    spec.diurnalAmplitude = 0.5;
    spec.diurnalPeriod = 4 * kSecond;
    ArrivalProcess process(spec, Rng(7));
    process.nextGap(0); // anchor the origin
    // Quarter period = sinusoid peak; three quarters = trough.
    EXPECT_NEAR(process.rateAt(kSecond), 150.0, 1.0);
    EXPECT_NEAR(process.rateAt(3 * kSecond), 50.0, 1.0);
    // Long-run average still approximates the configured rate.
    const double rps = measuredRps(process, 20000);
    EXPECT_NEAR(rps, 100.0, 100.0 * 0.10);
}

TEST(Arrival, BurstyAveragesToConfiguredRate)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Bursty;
    spec.rps = 100.0;
    spec.burstMultiplier = 4.0;
    spec.burstDuty = 0.2;
    spec.meanBurstLen = 100 * kMillisecond;
    ArrivalProcess process(spec, Rng(7));
    process.nextGap(0);
    // Calm rate is depressed so that bursts average out: with duty
    // 0.2 and multiplier 4, calm = rps / 1.6.
    const double calm = process.rateAt(0) / (process.inBurst() ? 4 : 1);
    EXPECT_NEAR(calm, 100.0 / 1.6, 1.0);
    const double rps = measuredRps(process, 40000);
    EXPECT_NEAR(rps, 100.0, 100.0 * 0.15);
}

TEST(Arrival, SameSeedSameGapSequence)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Bursty;
    spec.rps = 300.0;
    auto draw = [&spec](std::uint64_t seed) {
        ArrivalProcess process(spec, Rng(seed));
        std::vector<Tick> gaps;
        Tick now = 0;
        for (int i = 0; i < 500; ++i) {
            const Tick gap = process.nextGap(now);
            gaps.push_back(gap);
            now += gap;
        }
        return gaps;
    };
    EXPECT_EQ(draw(11), draw(11));
    EXPECT_NE(draw(11), draw(12));
}

TEST(Arrival, GapsAreAlwaysPositive)
{
    ArrivalSpec spec;
    spec.rps = 1e6; // pathologically fast
    ArrivalProcess process(spec, Rng(7));
    Tick now = 0;
    for (int i = 0; i < 1000; ++i) {
        const Tick gap = process.nextGap(now);
        EXPECT_GE(gap, 1);
        now += gap;
    }
}

using ArrivalDeath = ::testing::Test;

TEST(ArrivalDeath, NonPositiveRateDies)
{
    ArrivalSpec spec;
    spec.rps = 0.0;
    EXPECT_DEATH(ArrivalProcess(spec, Rng(1)), "rps");
}

TEST(ArrivalDeath, AmplitudeAtOneDies)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Diurnal;
    spec.diurnalAmplitude = 1.0;
    EXPECT_DEATH(ArrivalProcess(spec, Rng(1)), "mplitude");
}

TEST(ArrivalDeath, DutyOutsideUnitIntervalDies)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Bursty;
    spec.burstDuty = 1.0;
    EXPECT_DEATH(ArrivalProcess(spec, Rng(1)), "uty");
}

TEST(TrafficMix, PickFollowsWeights)
{
    auto registry = makeAllSuites();
    const Application& login = registry->get("Login");
    const Application& banking = registry->get("Banking");
    Rng base(5);
    TrafficMix mix({{&login, 9.0}, {&banking, 1.0}}, base);
    Rng pickRng(17);
    std::size_t heavy = 0;
    constexpr std::size_t kDraws = 5000;
    for (std::size_t i = 0; i < kDraws; ++i)
        heavy += mix.pick(pickRng) == 0 ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(heavy) / kDraws, 0.9, 0.03);
}

TEST(TrafficMix, TenantStreamsAreInterleavingIndependent)
{
    auto registry = makeAllSuites();
    const Application& login = registry->get("Login");
    const Application& banking = registry->get("Banking");
    // Mix A draws tenant 0 back to back; mix B interleaves tenant 1
    // draws. Tenant 0's inputs must be identical either way.
    Rng baseA(5);
    TrafficMix mixA({{&login, 1.0}, {&banking, 1.0}}, baseA);
    Rng baseB(5);
    TrafficMix mixB({{&login, 1.0}, {&banking, 1.0}}, baseB);
    for (int k = 0; k < 20; ++k) {
        const Value a = mixA.drawInput(0);
        mixB.drawInput(1); // extra traffic on the other tenant
        const Value b = mixB.drawInput(0);
        EXPECT_EQ(a.toString(), b.toString()) << "draw " << k;
    }
}

using TrafficMixDeath = ::testing::Test;

TEST(TrafficMixDeath, EmptyMixDies)
{
    EXPECT_DEATH(
        {
            Rng base(1);
            TrafficMix mix({}, base);
        },
        "tenant");
}

TEST(TrafficMixDeath, NonPositiveWeightDies)
{
    auto registry = makeAllSuites();
    const Application& login = registry->get("Login");
    EXPECT_DEATH(
        {
            Rng base(1);
            TrafficMix mix({{&login, 0.0}}, base);
        },
        "weight");
}

/** Small two-tenant platform driven to completion. */
FleetLoadResult
driveSmallRun(std::uint64_t seed, SimContext* context = nullptr)
{
    auto registry = makeAllSuites();
    const Application& login = registry->get("Login");
    const Application& banking = registry->get("Banking");
    PlatformOptions options;
    options.seed = seed;
    options.context = context;
    FaasPlatform platform(options);
    platform.deploy(login);
    platform.deploy(banking);
    Rng base = platform.sim().forkRng();
    TrafficMix mix({{&login, 3.0}, {&banking, 1.0}}, base);
    ArrivalSpec arrivals;
    arrivals.kind = ArrivalSpec::Kind::Bursty;
    arrivals.rps = 200.0;
    return LoadDriver::run(platform, mix, arrivals, 60);
}

TEST(LoadDriver, AccountsEveryRequest)
{
    const FleetLoadResult result = driveSmallRun(3);
    EXPECT_EQ(result.submitted, 60u);
    EXPECT_EQ(result.completedCount() + result.rejected, 60u);
    EXPECT_GT(result.wallTime, 0);
    ASSERT_EQ(result.tenants.size(), 2u);
    std::size_t submitted = 0;
    std::size_t completed = 0;
    for (const TenantLoadStats& t : result.tenants) {
        EXPECT_EQ(t.completed, t.latenciesMs.size());
        submitted += t.submitted;
        completed += t.completed;
    }
    EXPECT_EQ(submitted, 60u);
    EXPECT_EQ(completed, result.completedCount());
    // The weighted mix leans 3:1 towards the first tenant.
    EXPECT_GT(result.tenants[0].submitted,
              result.tenants[1].submitted);
    // Percentiles are ordered on a non-empty run.
    EXPECT_LE(result.latencyPercentileMs(50.0),
              result.latencyPercentileMs(99.0));
}

TEST(LoadDriver, SameSeedIsByteEqual)
{
    const FleetLoadResult a = driveSmallRun(3);
    const FleetLoadResult b = driveSmallRun(3);
    EXPECT_EQ(a.latenciesMs, b.latenciesMs);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.wallTime, b.wallTime);
    const FleetLoadResult c = driveSmallRun(4);
    EXPECT_NE(a.latenciesMs, c.latenciesMs);
}

TEST(LoadDriver, ParallelTasksMatchSerial)
{
    // Two independent driven runs under runSimTasks must produce the
    // same results and the same merged zone profile at any job count.
    auto runBatch = [](std::size_t jobs) {
        SimContext session;
        std::vector<std::function<std::vector<double>(SimContext&)>>
            tasks;
        for (std::uint64_t seed : {7u, 8u}) {
            tasks.push_back([seed](SimContext& context) {
                return driveSmallRun(seed, &context).latenciesMs;
            });
        }
        return runSimTasks<std::vector<double>>(jobs,
                                                std::move(tasks),
                                                &session);
    };
    const auto serial = runBatch(1);
    const auto parallel = runBatch(8);
    EXPECT_EQ(serial, parallel);
}

} // namespace
} // namespace specfaas
