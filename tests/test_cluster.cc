/** @file Unit tests for nodes, core scheduling, and containers. */

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "sim/simulation.hh"

namespace specfaas {
namespace {

TEST(Node, RunsTaskForDuration)
{
    Simulation sim;
    Node node(sim, 0, 2);
    bool done = false;
    node.submit(100, [&]() { done = true; });
    EXPECT_EQ(node.busyCores(), 1u);
    sim.events().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sim.now(), 100);
    EXPECT_EQ(node.busyCores(), 0u);
}

TEST(Node, QueuesBeyondCoreCount)
{
    Simulation sim;
    Node node(sim, 0, 1);
    std::vector<int> order;
    node.submit(100, [&]() { order.push_back(1); });
    node.submit(100, [&]() { order.push_back(2); });
    EXPECT_EQ(node.queueLength(), 1u);
    sim.events().run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(sim.now(), 200); // serialized on the single core
}

TEST(Node, ParallelismUsesAllCores)
{
    Simulation sim;
    Node node(sim, 0, 4);
    int done = 0;
    for (int i = 0; i < 4; ++i)
        node.submit(100, [&]() { ++done; });
    sim.events().run();
    EXPECT_EQ(done, 4);
    EXPECT_EQ(sim.now(), 100); // all in parallel
}

TEST(Node, AbortQueuedTaskNeverRuns)
{
    Simulation sim;
    Node node(sim, 0, 1);
    node.submit(100, []() {});
    bool ran = false;
    const ComputeTaskId second = node.submit(100, [&]() { ran = true; });
    EXPECT_TRUE(node.abort(second, 0));
    sim.events().run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(sim.now(), 100);
}

TEST(Node, AbortRunningTaskFreesCoreAfterOverhead)
{
    Simulation sim;
    Node node(sim, 0, 1);
    bool first_ran = false;
    const ComputeTaskId id = node.submit(1000, [&]() { first_ran = true; });
    bool second_ran = false;
    node.submit(10, [&]() { second_ran = true; });
    EXPECT_TRUE(node.abort(id, 5)); // kill overhead 5 ticks
    sim.events().run();
    EXPECT_FALSE(first_ran);
    EXPECT_TRUE(second_ran);
    EXPECT_EQ(sim.now(), 15); // 5 kill + 10 run
}

TEST(Node, AbortUnknownTaskIsFalse)
{
    Simulation sim;
    Node node(sim, 0, 1);
    EXPECT_FALSE(node.abort(42, 0));
}

TEST(Node, UtilizationIntegral)
{
    Simulation sim;
    Node node(sim, 0, 2);
    node.resetUtilization();
    node.submit(100, []() {});
    sim.events().run();
    sim.events().runUntil(200);
    // One of two cores busy for 100 of 200 ticks = 25%.
    EXPECT_NEAR(node.utilization(), 0.25, 1e-9);
}

TEST(ContainerPool, WarmAcquireIsFast)
{
    Simulation sim;
    Cluster cluster(sim, ClusterConfig{});
    cluster.containers().prewarm("f", 1);
    Tick ready_at = -1;
    cluster.containers().acquire("f", [&](Container& c,
                                          const AcquireTiming& t) {
        ready_at = sim.now();
        EXPECT_EQ(t.containerCreation, 0);
        EXPECT_EQ(c.function(), "f");
    });
    sim.events().run();
    EXPECT_EQ(ready_at, cluster.config().handlerForkOverhead);
    EXPECT_EQ(cluster.containers().warmStarts(), 1u);
    EXPECT_EQ(cluster.containers().coldStarts(), 0u);
}

TEST(ContainerPool, ColdAcquirePaysCreation)
{
    Simulation sim;
    Cluster cluster(sim, ClusterConfig{});
    Tick ready_at = -1;
    AcquireTiming timing;
    cluster.containers().acquire("g", [&](Container&,
                                          const AcquireTiming& t) {
        ready_at = sim.now();
        timing = t;
    });
    sim.events().run();
    EXPECT_EQ(timing.containerCreation,
              cluster.config().containerCreation);
    EXPECT_EQ(timing.runtimeSetup, cluster.config().runtimeSetup);
    EXPECT_EQ(ready_at, timing.total());
    EXPECT_EQ(cluster.containers().coldStarts(), 1u);
}

TEST(ContainerPool, ReleaseEnablesWarmReuse)
{
    Simulation sim;
    Cluster cluster(sim, ClusterConfig{});
    Container* first = nullptr;
    cluster.containers().acquire("f", [&](Container& c,
                                          const AcquireTiming&) {
        first = &c;
    });
    sim.events().run();
    cluster.containers().release(*first);
    Container* second = nullptr;
    cluster.containers().acquire("f", [&](Container& c,
                                          const AcquireTiming&) {
        second = &c;
    });
    sim.events().run();
    EXPECT_EQ(first, second);
    EXPECT_EQ(cluster.containers().coldStarts(), 1u);
    EXPECT_EQ(cluster.containers().warmStarts(), 1u);
}

TEST(ContainerPool, DestroyForcesColdStartNextTime)
{
    Simulation sim;
    Cluster cluster(sim, ClusterConfig{});
    cluster.containers().prewarm("f", 1);
    Container* c = nullptr;
    cluster.containers().acquire("f", [&](Container& got,
                                          const AcquireTiming&) {
        c = &got;
    });
    sim.events().run();
    cluster.containers().destroy(*c);
    EXPECT_EQ(cluster.containers().containerCount("f"), 0u);
    cluster.containers().acquire("f",
                                 [](Container&, const AcquireTiming&) {});
    sim.events().run();
    EXPECT_EQ(cluster.containers().coldStarts(), 1u);
}

TEST(ContainerPool, PrewarmSpreadsEvenlyOverIdleNodes)
{
    Simulation sim;
    ClusterConfig config;
    config.numNodes = 100;
    Cluster cluster(sim, config);
    cluster.containers().prewarm("f", 512);
    std::size_t total = 0;
    for (NodeId id = 0; id < 100; ++id) {
        const std::size_t live = cluster.containers().liveOnNode(id);
        // Round-robin from node 0: the first 12 nodes get the extra.
        EXPECT_EQ(live, id < 12 ? 6u : 5u) << "node " << id;
        total += live;
    }
    EXPECT_EQ(total, 512u);
}

TEST(Cluster, GeometryAndUtilization)
{
    Simulation sim;
    ClusterConfig config;
    config.numNodes = 3;
    config.coresPerNode = 4;
    Cluster cluster(sim, config);
    EXPECT_EQ(cluster.totalCores(), 12u);
    EXPECT_EQ(cluster.nodes().size(), 3u);
    cluster.resetUtilization();
    cluster.node(0).submit(100, []() {});
    sim.events().run();
    sim.events().runUntil(100);
    // 1 of 12 cores busy the whole window.
    EXPECT_NEAR(cluster.utilization(), 1.0 / 12.0, 1e-9);
}

TEST(Cluster, ControllerStationIsSeparate)
{
    Simulation sim;
    Cluster cluster(sim, ClusterConfig{});
    EXPECT_EQ(cluster.controller().cores(),
              cluster.config().controllerThreads);
    cluster.controller().submit(10, []() {});
    EXPECT_EQ(cluster.controller().busyCores(), 1u);
    // Worker utilization unaffected by controller work.
    EXPECT_EQ(cluster.node(0).busyCores(), 0u);
}

} // namespace
} // namespace specfaas
