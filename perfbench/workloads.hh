/**
 * @file
 * The benchmark's workloads. Each one is a list of measurement
 * points (one engine, one offered load, one or more applications),
 * driven only through the simulator's public API: makeAllSuites /
 * alibabaSuite, Experiment::preparedPlatform / FaasPlatform for set-up,
 * LoadGenerator::run or LoadDriver::run for the open-loop load, and
 * FaasPlatform::invokeSync for the serial differential check.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "platform/platform.hh"
#include "sim/sim_context.hh"

namespace perfbench {

using specfaas::FaasPlatform;
using specfaas::SimContext;

/** Completed-request latencies of one application at one point. */
struct AppLatencies
{
    std::size_t app = 0; ///< index into Workload::appNames()
    std::size_t submitted = 0;
    std::size_t rejected = 0;
    std::vector<double> latenciesMs;
};

/** Outcome of one point's load run (simulated quantities only). */
struct LoadOutcome
{
    std::vector<AppLatencies> apps;
    /** Mean cluster CPU utilization over the load window. */
    double cpuUtilization = 0.0;
    /** Peak ready nodes of a dynamic fleet; 0 on a static one. */
    std::uint32_t peakNodes = 0;
    /** Engine invocations still live after the drain (must be 0). */
    std::size_t liveAfterDrain = 0;
};

/** Fig. 3 time categories summed over serial requests, simulated ms. */
struct Breakdown
{
    double platformOverheadMs = 0.0;
    double transferMs = 0.0;
    double execMs = 0.0;
    std::size_t requests = 0;

    void add(const specfaas::InvocationResult& r);
    Breakdown& operator+=(const Breakdown& other);
};

/** One serial differential-check comparison of one application. */
struct CheckOutcome
{
    std::size_t app = 0;
    std::size_t responseMismatches = 0;
    bool storeMatches = true;
    /** Mean serial (unloaded) baseline response, simulated ms. */
    double baseUnloadedMs = 0.0;
    Breakdown base;
    Breakdown spec;
};

/** A workload: its applications and measurement points. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Application names, indexed by AppLatencies::app. */
    virtual std::vector<std::string> appNames() const = 0;

    /** Number of measurement points per round. */
    virtual std::size_t points() const = 0;

    /** True when point @p point runs the SpecFaaS engine. */
    virtual bool speculative(std::size_t point) const = 0;

    /** Offered load of point @p point, requests per second. */
    virtual double rps(std::size_t point) const = 0;

    /**
     * Build the platform of @p point and warm it up (deploy,
     * pre-warm, training): the set-up of one point.
     */
    virtual std::unique_ptr<FaasPlatform> prepare(std::size_t point,
                                                  SimContext& context)
        const = 0;

    /** Run @p point's open-loop load on its prepared platform. */
    virtual LoadOutcome load(std::size_t point,
                             FaasPlatform& platform) const = 0;

    /**
     * Serial differential check: the same inputs through invokeSync
     * on a prepared baseline and a prepared SpecFaaS platform.
     */
    virtual std::vector<CheckOutcome> check(SimContext& context) const = 0;
};

/**
 * Build workload @p name with inputs derived from @p seed; null for
 * an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
