/**
 * @file
 * Unit tests for the dynamic fleet layer: autoscaler policy,
 * keep-alive tracking, node lifecycle, fair-share admission, container
 * placement, and the configuration validation at fleet construction.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "fleet/autoscaler.hh"
#include "fleet/eviction.hh"
#include "fleet/fleet.hh"
#include "sim/simulation.hh"

namespace specfaas {
namespace {

AutoscalerConfig
testScalerConfig()
{
    AutoscalerConfig c;
    c.enabled = true;
    c.interval = 100 * kMillisecond;
    c.utilHigh = 0.70;
    c.queueDepthHigh = 64;
    c.utilLow = 0.20;
    c.lowStreak = 3;
    c.scaleUpStep = 16;
    c.scaleDownStep = 8;
    c.cooldown = 500 * kMillisecond;
    return c;
}

ScaleSignals
signals(std::uint32_t ready, double util, std::size_t queue)
{
    ScaleSignals s;
    s.readyNodes = ready;
    s.utilization = util;
    s.controllerQueue = queue;
    return s;
}

TEST(Autoscaler, ScalesUpOnUtilizationPressure)
{
    Autoscaler scaler(testScalerConfig(), 10, 100);
    const ScaleDecision d =
        scaler.evaluate(signals(10, 0.9, 0), kSecond);
    EXPECT_EQ(d.delta, 16);
}

TEST(Autoscaler, ScalesUpOnQueuePressure)
{
    Autoscaler scaler(testScalerConfig(), 10, 100);
    const ScaleDecision d =
        scaler.evaluate(signals(10, 0.1, 200), kSecond);
    EXPECT_EQ(d.delta, 16);
}

TEST(Autoscaler, ScaleUpClampsToMaxNodes)
{
    Autoscaler scaler(testScalerConfig(), 10, 20);
    ScaleSignals s = signals(15, 0.9, 0);
    s.provisioningNodes = 2; // 15 + 2 in flight, room for 3
    EXPECT_EQ(scaler.evaluate(s, kSecond).delta, 3);
    Autoscaler full(testScalerConfig(), 10, 15);
    EXPECT_EQ(full.evaluate(signals(15, 0.9, 0), kSecond).delta, 0);
}

TEST(Autoscaler, CooldownBlocksBackToBackActions)
{
    Autoscaler scaler(testScalerConfig(), 10, 100);
    EXPECT_EQ(scaler.evaluate(signals(10, 0.9, 0), kSecond).delta, 16);
    // Still pressured 100 ms later: inside the 500 ms cooldown.
    EXPECT_EQ(scaler
                  .evaluate(signals(10, 0.9, 0),
                            kSecond + 100 * kMillisecond)
                  .delta,
              0);
    // Past the cooldown the pressure acts again.
    EXPECT_EQ(scaler
                  .evaluate(signals(10, 0.9, 0),
                            kSecond + 600 * kMillisecond)
                  .delta,
              16);
}

TEST(Autoscaler, ScaleDownNeedsSustainedIdle)
{
    Autoscaler scaler(testScalerConfig(), 10, 100);
    const Tick step = 100 * kMillisecond;
    // Two idle ticks are not enough (lowStreak = 3).
    EXPECT_EQ(scaler.evaluate(signals(40, 0.05, 0), step).delta, 0);
    EXPECT_EQ(scaler.evaluate(signals(40, 0.05, 0), 2 * step).delta, 0);
    EXPECT_EQ(scaler.lowStreak(), 2u);
    // A busy tick resets the streak.
    EXPECT_EQ(scaler.evaluate(signals(40, 0.5, 0), 3 * step).delta, 0);
    EXPECT_EQ(scaler.lowStreak(), 0u);
    // Three consecutive idle ticks drain one step.
    EXPECT_EQ(scaler.evaluate(signals(40, 0.05, 0), 4 * step).delta, 0);
    EXPECT_EQ(scaler.evaluate(signals(40, 0.05, 0), 5 * step).delta, 0);
    EXPECT_EQ(scaler.evaluate(signals(40, 0.05, 0), 6 * step).delta,
              -8);
}

TEST(Autoscaler, ScaleDownClampsToMinNodes)
{
    Autoscaler scaler(testScalerConfig(), 10, 100);
    const Tick step = 100 * kMillisecond;
    scaler.evaluate(signals(12, 0.05, 0), step);
    scaler.evaluate(signals(12, 0.05, 0), 2 * step);
    EXPECT_EQ(scaler.evaluate(signals(12, 0.05, 0), 3 * step).delta,
              -2);
    // At the floor nothing happens even when idle persists.
    Autoscaler at_floor(testScalerConfig(), 10, 100);
    at_floor.evaluate(signals(10, 0.05, 0), step);
    at_floor.evaluate(signals(10, 0.05, 0), 2 * step);
    EXPECT_EQ(
        at_floor.evaluate(signals(10, 0.05, 0), 3 * step).delta, 0);
}

TEST(KeepAlive, FixedTtlIgnoresHistory)
{
    EvictionConfig cfg;
    cfg.policy = EvictionConfig::Policy::FixedTtl;
    cfg.fixedTtl = 42 * kSecond;
    KeepAliveTracker tracker(cfg);
    const Symbol fn("keepalive-fixed-fn");
    tracker.noteAcquire(fn, 0);
    tracker.noteAcquire(fn, kMillisecond);
    EXPECT_EQ(tracker.keepAliveFor(fn), 42 * kSecond);
}

TEST(KeepAlive, NoHistoryUsesMaxKeepAlive)
{
    EvictionConfig cfg;
    cfg.policy = EvictionConfig::Policy::Histogram;
    cfg.maxKeepAlive = 90 * kSecond;
    KeepAliveTracker tracker(cfg);
    EXPECT_EQ(tracker.keepAliveFor(Symbol("keepalive-cold-fn")),
              90 * kSecond);
}

TEST(KeepAlive, HistogramCoversObservedGaps)
{
    EvictionConfig cfg;
    cfg.policy = EvictionConfig::Policy::Histogram;
    cfg.keepAlivePercentile = 99.0;
    cfg.minKeepAlive = kMillisecond;
    cfg.maxKeepAlive = 600 * kSecond;
    KeepAliveTracker tracker(cfg);
    const Symbol fn("keepalive-hist-fn");
    // Acquisitions 3 s apart: the keep-alive must cover that gap
    // (next power-of-two bucket), but stay well below the maximum.
    Tick now = 0;
    for (int i = 0; i < 50; ++i) {
        tracker.noteAcquire(fn, now);
        now += 3 * kSecond;
    }
    const Tick keep = tracker.keepAliveFor(fn);
    EXPECT_GE(keep, 3 * kSecond);
    EXPECT_LE(keep, 8 * kSecond);
    EXPECT_EQ(tracker.observations(fn), 49u);
}

TEST(KeepAlive, ClampsToConfiguredBounds)
{
    EvictionConfig cfg;
    cfg.policy = EvictionConfig::Policy::Histogram;
    cfg.minKeepAlive = 10 * kSecond;
    cfg.maxKeepAlive = 20 * kSecond;
    KeepAliveTracker tracker(cfg);
    const Symbol fast("keepalive-fast-fn");
    for (int i = 0; i < 20; ++i)
        tracker.noteAcquire(fast, i * kMillisecond);
    EXPECT_EQ(tracker.keepAliveFor(fast), 10 * kSecond); // clamp up
    const Symbol slow("keepalive-slow-fn");
    for (int i = 0; i < 20; ++i)
        tracker.noteAcquire(slow, i * 300 * kSecond);
    EXPECT_EQ(tracker.keepAliveFor(slow), 20 * kSecond); // clamp down
}

FleetConfig
dynamicConfig()
{
    FleetConfig fleet;
    fleet.dynamics = true;
    fleet.minNodes = 2;
    fleet.maxNodes = 8;
    fleet.provisioningDelay = 200 * kMillisecond;
    fleet.autoscaler.enabled = false; // lifecycle driven by hand
    fleet.eviction.policy = EvictionConfig::Policy::None;
    return fleet;
}

ClusterConfig
smallCluster()
{
    ClusterConfig cluster;
    cluster.numNodes = 3;
    cluster.coresPerNode = 4;
    return cluster;
}

TEST(Fleet, StaticFleetSchedulesNoEvents)
{
    Simulation sim;
    Fleet fleet(sim, smallCluster(), FleetConfig{});
    EXPECT_FALSE(fleet.dynamic());
    sim.events().run();
    EXPECT_EQ(sim.now(), 0); // nothing pending, no daemons
    EXPECT_EQ(fleet.readyWorkers(), 3u);
    EXPECT_EQ(fleet.liveCores(), 12u);
    EXPECT_EQ(fleet.stats().peakReadyNodes, 3u);
}

TEST(Fleet, ProvisionBecomesReadyAfterDelay)
{
    Simulation sim;
    Fleet fleet(sim, smallCluster(), dynamicConfig());
    fleet.provision(2);
    EXPECT_EQ(fleet.provisioningWorkers(), 2u);
    EXPECT_EQ(fleet.readyWorkers(), 3u);
    EXPECT_FALSE(fleet.placeable(3));
    // The provisioning daemon needs a live event to run alongside.
    sim.events().schedule(300 * kMillisecond, []() {});
    sim.events().run();
    EXPECT_EQ(fleet.provisioningWorkers(), 0u);
    EXPECT_EQ(fleet.readyWorkers(), 5u);
    EXPECT_TRUE(fleet.placeable(3));
    EXPECT_EQ(fleet.stats().provisioned, 2u);
    EXPECT_EQ(fleet.stats().peakReadyNodes, 5u);
    EXPECT_EQ(fleet.liveCores(), 20u);
}

TEST(Fleet, DrainStopsPlacementAndEvictsWarmPool)
{
    Simulation sim;
    Fleet fleet(sim, smallCluster(), dynamicConfig());
    // Park a warm container on every node, round-robin.
    fleet.containers().prewarm(Symbol("drain-test-fn"), 3);
    fleet.drain(1);
    // The least-loaded Ready worker with the highest id drains.
    EXPECT_EQ(fleet.state(2), NodeState::Draining);
    EXPECT_FALSE(fleet.placeable(2));
    EXPECT_EQ(fleet.readyWorkers(), 2u);
    EXPECT_EQ(fleet.stats().evictions, 1u); // its warm container
    // liveCores still counts draining nodes (not yet retired).
    EXPECT_EQ(fleet.liveCores(), 12u);
}

TEST(Fleet, DrainKeepsMinNodes)
{
    Simulation sim;
    Fleet fleet(sim, smallCluster(), dynamicConfig());
    fleet.drain(10); // asks for far more than allowed
    EXPECT_EQ(fleet.readyWorkers(), 2u); // minNodes floor
}

TEST(Fleet, FailedNodeIsNotPlaceable)
{
    Simulation sim;
    Fleet fleet(sim, smallCluster(), FleetConfig{});
    EXPECT_TRUE(fleet.placeable(1));
    fleet.failNode(1);
    EXPECT_FALSE(fleet.placeable(1));
    EXPECT_EQ(fleet.state(1), NodeState::Ready); // down, not retired
    fleet.restoreNode(1);
    EXPECT_TRUE(fleet.placeable(1));
}

FleetConfig
fairShareConfig()
{
    FleetConfig fleet = dynamicConfig();
    fleet.admission.fairShare = true;
    fleet.admission.engageQueueDepth = 0; // engage on any queue
    fleet.admission.fairFactor = 1.0;
    fleet.admission.minTenantInFlight = 2;
    return fleet;
}

TEST(Fleet, FairShareThrottlesTheHogTenantOnly)
{
    Simulation sim;
    Fleet fleet(sim, smallCluster(), fairShareConfig());
    EXPECT_TRUE(fleet.admissionActive());
    // Back up the control plane so fair sharing engages.
    for (std::uint32_t i = 0;
         i < smallCluster().controllerThreads + 2; ++i)
        fleet.controller().submit(10 * kSecond, []() {});
    ASSERT_GT(fleet.controller().queueLength(), 0u);

    const Symbol hog("fair-hog-tenant");
    const Symbol meek("fair-meek-tenant");
    ASSERT_TRUE(fleet.admit(meek)); // both tenants active
    std::uint64_t admitted = 0;
    while (fleet.admit(hog) && admitted < 100)
        ++admitted;
    EXPECT_LT(admitted, 100u); // the hog eventually throttles
    EXPECT_GT(fleet.stats().fairRejects, 0u);
    // The meek tenant is under its share and still admits.
    EXPECT_TRUE(fleet.admit(meek));
    EXPECT_EQ(fleet.tenantInFlight(meek), 2u);
    // Completions free the hog's budget again.
    const std::uint64_t before = fleet.tenantInFlight(hog);
    fleet.complete(hog);
    EXPECT_EQ(fleet.tenantInFlight(hog), before - 1);
}

TEST(Fleet, AdmissionInactiveWithoutDynamics)
{
    Simulation sim;
    FleetConfig fleet_cfg;
    fleet_cfg.admission.fairShare = true; // ignored: static fleet
    Fleet fleet(sim, smallCluster(), fleet_cfg);
    EXPECT_FALSE(fleet.admissionActive());
    EXPECT_TRUE(fleet.admit(Symbol("any-tenant")));
}

using FleetConfigDeath = ::testing::Test;

TEST(FleetConfigDeath, ZeroControllerThreadsDies)
{
    ClusterConfig cluster = smallCluster();
    cluster.controllerThreads = 0;
    EXPECT_DEATH(
        {
            Simulation sim;
            Fleet fleet(sim, cluster, FleetConfig{});
        },
        "controllerThreads");
}

TEST(FleetConfigDeath, ZeroNodesDies)
{
    ClusterConfig cluster = smallCluster();
    cluster.numNodes = 0;
    EXPECT_DEATH(
        {
            Simulation sim;
            Fleet fleet(sim, cluster, FleetConfig{});
        },
        "numNodes");
}

TEST(FleetConfigDeath, MinNodesAboveInitialDies)
{
    FleetConfig fleet_cfg = dynamicConfig();
    fleet_cfg.minNodes = 99;
    EXPECT_DEATH(
        {
            Simulation sim;
            Fleet fleet(sim, smallCluster(), fleet_cfg);
        },
        "minNodes");
}

TEST(FleetConfigDeath, MaxNodesBelowInitialDies)
{
    FleetConfig fleet_cfg = dynamicConfig();
    fleet_cfg.maxNodes = 2;
    EXPECT_DEATH(
        {
            Simulation sim;
            Fleet fleet(sim, smallCluster(), fleet_cfg);
        },
        "maxNodes");
}

TEST(Cluster, ViewDelegatesToFleet)
{
    Simulation sim;
    Cluster cluster(sim, smallCluster());
    EXPECT_EQ(cluster.totalCores(), 12u);
    EXPECT_EQ(cluster.nodes().size(), 3u);
    EXPECT_EQ(&cluster.node(1), cluster.nodes()[1].get());
    EXPECT_FALSE(cluster.fleet().dynamic());
    cluster.failNode(0);
    EXPECT_FALSE(cluster.fleet().placeable(0));
    cluster.restoreNode(0);
    EXPECT_TRUE(cluster.fleet().placeable(0));
}


// ---- Placement ------------------------------------------------------

/**
 * Reference placement: the per-container scan the pool ran before it
 * placed batches. Scan every worker from the cursor, keep the first
 * strictly least-loaded placeable one and advance the cursor by one;
 * with nothing placeable, take the node after the advanced cursor.
 */
class ReferencePlacer
{
  public:
    explicit ReferencePlacer(const Fleet& fleet) : fleet_(fleet) {}

    NodeId
    place()
    {
        const auto& workers = fleet_.workers();
        const Node* best = nullptr;
        std::uint32_t bestLoad = ~0u;
        for (std::size_t i = 0; i < workers.size(); ++i) {
            const Node* n =
                workers[(cursor_ + i) % workers.size()].get();
            if (!fleet_.placeable(n->id()))
                continue;
            const auto load =
                n->busyCores() +
                static_cast<std::uint32_t>(n->queueLength());
            if (load < bestLoad) {
                bestLoad = load;
                best = n;
            }
        }
        cursor_ =
            (cursor_ + 1) % static_cast<std::uint32_t>(workers.size());
        if (best == nullptr) {
            ++fallbacks;
            best = workers[cursor_ % workers.size()].get();
        }
        return best->id();
    }

    std::uint64_t fallbacks = 0;

  private:
    const Fleet& fleet_;
    std::uint32_t cursor_ = 0;
};

std::vector<std::size_t>
liveByNode(Fleet& fleet)
{
    std::vector<std::size_t> live;
    for (const auto& node : fleet.workers())
        live.push_back(fleet.containers().liveOnNode(node->id()));
    return live;
}

/** Nodes of @p function's warm containers, in warm-pool order. */
std::vector<NodeId>
drainWarmOrder(Simulation& sim, Fleet& fleet, Symbol function,
               std::size_t count)
{
    std::vector<NodeId> got(count, Fleet::kControllerNode);
    for (std::size_t j = 0; j < count; ++j)
        fleet.containers().acquire(
            function, [&got, j](Container& c, const AcquireTiming&) {
                got[j] = c.node;
            });
    // Warm acquisitions complete after the handler fork; cold starts
    // (and the long tasks loading the nodes) stay pending.
    sim.events().runUntil(sim.now() +
                          fleet.clusterConfig().handlerForkOverhead);
    return got;
}

TEST(Placement, BatchMatchesPerContainerScan)
{
    // Seeded random fleets with Ready, Draining, Provisioning and
    // failed nodes, unequal loads, and cold acquires between prewarm
    // batches that move the cursor.
    std::uint64_t fallbacks = 0;
    std::uint64_t draining = 0;
    std::uint64_t provisioning = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        Simulation sim;
        ClusterConfig cluster;
        cluster.numNodes =
            static_cast<std::uint32_t>(rng.uniformInt(1, 24));
        cluster.coresPerNode =
            static_cast<std::uint32_t>(rng.uniformInt(1, 3));
        FleetConfig cfg;
        cfg.dynamics = true;
        cfg.minNodes = 1;
        cfg.maxNodes = cluster.numNodes + 64;
        cfg.provisioningDelay = 1000 * kSecond; // never Ready here
        cfg.autoscaler.enabled = false;
        cfg.eviction.policy = EvictionConfig::Policy::None;
        Fleet fleet(sim, cluster, cfg);
        ReferencePlacer ref(fleet);
        // Prewarm batches: function and expected warm-pool order.
        std::vector<std::pair<Symbol, std::vector<NodeId>>> batches;
        const auto forget = [&](NodeId id) {
            // The node's warm containers died with it (fail/drain).
            for (auto& batch : batches)
                batch.second.erase(std::remove(batch.second.begin(),
                                               batch.second.end(), id),
                                   batch.second.end());
        };
        const auto randomWorker = [&]() {
            return static_cast<NodeId>(
                rng.uniformInt(fleet.workers().size()));
        };

        for (int step = 0; step < 12; ++step) {
            switch (rng.uniformInt(std::uint64_t{6})) {
            case 0:
                fleet.provision(
                    static_cast<std::uint32_t>(rng.uniformInt(1, 3)));
                break;
            case 1: {
                std::vector<NodeState> before;
                for (NodeId id = 0; id < fleet.workers().size(); ++id)
                    before.push_back(fleet.state(id));
                fleet.drain(1);
                for (NodeId id = 0; id < before.size(); ++id)
                    if (fleet.state(id) != before[id])
                        forget(id);
                break;
            }
            case 2: {
                const NodeId id = randomWorker();
                fleet.failNode(id);
                forget(id);
                break;
            }
            case 3:
                fleet.restoreNode(randomWorker());
                break;
            default: {
                Node& node = fleet.worker(randomWorker());
                const auto tasks = rng.uniformInt(1, 4);
                for (std::int64_t t = 0; t < tasks; ++t)
                    node.submit(1000 * kSecond, []() {});
                break;
            }
            }
            if (step == 6 && seed % 4 == 0) {
                // Nothing placeable: every worker is down.
                for (NodeId id = 0; id < fleet.workers().size(); ++id) {
                    fleet.failNode(id);
                    forget(id);
                }
            }
            for (NodeId id = 0; id < fleet.workers().size(); ++id) {
                draining += fleet.state(id) == NodeState::Draining;
                provisioning +=
                    fleet.state(id) == NodeState::Provisioning;
            }

            std::vector<std::size_t> expect = liveByNode(fleet);
            const Symbol fn(strFormat("placement-%llu-%d",
                                      static_cast<unsigned long long>(
                                          seed),
                                      step));
            if (rng.bernoulli(0.3)) {
                ++expect[ref.place()];
                fleet.containers().acquire(
                    fn, [](Container&, const AcquireTiming&) {});
            } else {
                const auto count = static_cast<std::uint32_t>(
                    rng.uniformInt(0, 3 * static_cast<std::int64_t>(
                                              expect.size())));
                std::vector<NodeId> order;
                for (std::uint32_t k = 0; k < count; ++k) {
                    order.push_back(ref.place());
                    ++expect[order.back()];
                }
                fleet.containers().prewarm(fn, count);
                batches.emplace_back(fn, std::move(order));
            }
            ASSERT_EQ(liveByNode(fleet), expect) << "step " << step;
        }
        for (const auto& [fn, order] : batches)
            EXPECT_EQ(drainWarmOrder(sim, fleet, fn, order.size()), order);
        fallbacks += ref.fallbacks;
    }
    // The random fleets reached every case the test claims to cover.
    EXPECT_GT(fallbacks, 0u);
    EXPECT_GT(draining, 0u);
    EXPECT_GT(provisioning, 0u);
}

TEST(Placement, DrainedAndFailedNodesGetNone)
{
    Simulation sim;
    ClusterConfig cluster = smallCluster();
    cluster.numNodes = 6;
    FleetConfig cfg = dynamicConfig();
    Fleet fleet(sim, cluster, cfg);
    fleet.drain(1);
    ASSERT_EQ(fleet.state(5), NodeState::Draining);
    fleet.failNode(2);
    fleet.containers().prewarm(Symbol("placement-pin-fn"), 40);
    // The cursor steps over every worker, so a candidate right after
    // an excluded node (3 after 2, 0 after 5) also takes the excluded
    // node's turn.
    EXPECT_EQ(liveByNode(fleet),
              (std::vector<std::size_t>{13, 7, 0, 14, 6, 0}));
}

TEST(Placement, BatchGoesOnlyToLeastLoadedNodes)
{
    Simulation sim;
    ClusterConfig cluster = smallCluster();
    cluster.numNodes = 5;
    Fleet fleet(sim, cluster, FleetConfig{});
    fleet.worker(0).submit(kSecond, []() {});
    fleet.worker(2).submit(kSecond, []() {});
    fleet.worker(4).submit(kSecond, []() {});
    fleet.worker(4).submit(kSecond, []() {});
    // Loads 1 0 1 0 2: only nodes 1 and 3 are candidates.
    fleet.containers().prewarm(Symbol("placement-least-fn"), 11);
    EXPECT_EQ(liveByNode(fleet),
              (std::vector<std::size_t>{0, 7, 0, 4, 0}));
}

TEST(Placement, ReclaimKeepsSurvivorOrder)
{
    Simulation sim;
    ClusterConfig cluster = smallCluster();
    cluster.numNodes = 4;
    Fleet fleet(sim, cluster, dynamicConfig());
    const Symbol fn("placement-reclaim-fn");
    // Round-robin over 4 idle nodes: 0 1 2 3 0 1 2 3.
    fleet.containers().prewarm(fn, 8);
    fleet.failNode(1);
    EXPECT_EQ(fleet.containers().containerCount(fn), 6u);
    fleet.drain(1); // node 3: least loaded Ready, highest id
    ASSERT_EQ(fleet.state(3), NodeState::Draining);
    EXPECT_EQ(fleet.stats().evictions, 2u);
    EXPECT_EQ(drainWarmOrder(sim, fleet, fn, 4),
              (std::vector<NodeId>{0, 2, 0, 2}));
    EXPECT_EQ(fleet.containers().warmCount(), 0u);
}

} // namespace
} // namespace specfaas
