/**
 * @file
 * Engine-throughput microbench: simulated events per second of host
 * wall time, the figure of merit for the kernel hot path (ROADMAP
 * item 2).
 *
 * Two phases:
 *
 *  - "fig11": the fig11 application suites (FaaSChain, TrainTicket,
 *    Alibaba) run through both engines at the Medium load level, the
 *    same simulations the headline speedup figure is computed from.
 *    Event counts, simulated ticks and completed-request totals are
 *    deterministic and CI-gates them; events/sec and wall time are
 *    machine-dependent and reported in a non-gated section.
 *  - "kernel": a pure EventQueue churn loop (self-rescheduling timer
 *    chains plus one-shot schedule/cancel noise) that isolates the
 *    kernel from the platform model. Tens of millions of events keep
 *    the id-state window compaction honest.
 *
 *     bench_engine_throughput [--requests=<n>] [--kernel-events=<n>]
 *                             [--json-out=<f>] [--trace-out=<f>] ...
 *
 * Events/sec and wall time land in the report section "throughput";
 * the committed BENCH_engine_throughput.json snapshot gates only the
 * deterministic "metrics" object (compare_reports ignores sections),
 * so the CI check is immune to runner speed.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bench_common.hh"
#include "platform/load_generator.hh"
#include "sim/event_queue.hh"

namespace {

/**
 * Global allocation tally. Heap traffic is the engine's dominant
 * hidden cost, so the bench reports allocations per event alongside
 * events/sec; the count is deterministic for a fixed seed and
 * standard library (reported in a section, not a gated metric).
 */
std::atomic<std::uint64_t> gAllocs{0};

} // namespace

void*
operator new(std::size_t size)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

using namespace specfaas;
using namespace specfaas::bench;

namespace {

double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    const auto d = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(d).count();
}

/**
 * Deterministic kernel-only churn: 64 staggered self-rescheduling
 * chains, each firing decrements a shared budget; every 8th firing
 * also schedules a one-shot and immediately cancels half of them, so
 * the lazy-cancellation skip path stays exercised.
 */
struct KernelChurn
{
    EventQueue q;
    Rng rng{12345};
    std::uint64_t remaining;

    explicit KernelChurn(std::uint64_t budget) : remaining(budget)
    {
        for (Tick t = 1; t <= 64; ++t)
            arm(t);
    }

    void
    arm(Tick delay)
    {
        q.schedule(delay, [this] { fire(); });
    }

    void
    fire()
    {
        if (remaining == 0)
            return;
        --remaining;
        arm(static_cast<Tick>(1 + (rng.next() & 15)));
        if ((remaining & 7) == 0) {
            const EventId extra = q.schedule(3, [] {});
            if ((remaining & 8) != 0)
                q.cancel(extra);
        }
    }
};

} // namespace

int
main(int argc, char** argv)
{
    obs::Profiler::setAllocSource(&gAllocs);
    obs::ObsSession obs(argc, argv);
    std::size_t requests = 150;
    std::uint64_t kernelEvents = 4'000'000;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--requests=", 11) == 0)
            requests = std::strtoull(argv[i] + 11, nullptr, 10);
        else if (std::strncmp(argv[i], "--kernel-events=", 16) == 0)
            kernelEvents = std::strtoull(argv[i] + 16, nullptr, 10);
    }
    banner("Engine throughput: events/sec on the fig11 workload "
           "and a kernel-only churn loop");
    obs.report().setConfig(
        "requests", Value(static_cast<std::int64_t>(requests)));
    obs.report().setConfig(
        "kernel_events", Value(static_cast<std::int64_t>(kernelEvents)));

    // Phase 1: the fig11 suites through both engines at Medium load.
    // The wall timer spans platform preparation (prewarm + training)
    // too — those are simulated events like any other.
    auto registry = makeAllSuites();
    std::uint64_t fig11Events = 0;
    std::uint64_t fig11Ticks = 0;
    std::uint64_t fig11Completed = 0;
    const std::uint64_t allocs0 = gAllocs.load();
    const auto fig11Start = std::chrono::steady_clock::now();
    for (const char* suite : {"FaaSChain", "TrainTicket", "Alibaba"}) {
        for (const Application* app : registry->suite(suite)) {
            for (const bool speculative : {false, true}) {
                EngineSetup setup =
                    speculative ? specSetup() : baselineSetup();
                auto platform =
                    Experiment::preparedPlatform(*app, setup);
                LoadRunResult run = LoadGenerator::run(
                    *platform, *app, LoadLevels::kMedium, requests);
                fig11Events +=
                    platform->sim().events().executedCount();
                fig11Ticks +=
                    static_cast<std::uint64_t>(platform->sim().now());
                fig11Completed += run.results.size();
            }
        }
    }
    const double fig11Ms = elapsedMs(fig11Start);
    const std::uint64_t fig11Allocs = gAllocs.load() - allocs0;
    const double fig11Eps =
        static_cast<double>(fig11Events) / (fig11Ms / 1000.0);

    // Phase 2: kernel-only churn.
    const std::uint64_t allocs1 = gAllocs.load();
    const auto kernelStart = std::chrono::steady_clock::now();
    KernelChurn churn(kernelEvents);
    churn.q.run();
    const double kernelMs = elapsedMs(kernelStart);
    const std::uint64_t kernelAllocs = gAllocs.load() - allocs1;
    const std::uint64_t kernelExecuted = churn.q.executedCount();
    const double kernelEps =
        static_cast<double>(kernelExecuted) / (kernelMs / 1000.0);

    TextTable table;
    table.header({"Phase", "Events", "Wall ms", "Events/sec",
                  "Allocs/event"});
    table.row({"fig11 (both engines, Medium)",
               strFormat("%llu",
                         static_cast<unsigned long long>(fig11Events)),
               strFormat("%.0f", fig11Ms),
               strFormat("%.3g", fig11Eps),
               strFormat("%.2f", static_cast<double>(fig11Allocs) /
                                     static_cast<double>(fig11Events))});
    table.row({"kernel churn",
               strFormat("%llu",
                         static_cast<unsigned long long>(kernelExecuted)),
               strFormat("%.0f", kernelMs),
               strFormat("%.3g", kernelEps),
               strFormat("%.2f", static_cast<double>(kernelAllocs) /
                                     static_cast<double>(kernelExecuted))});
    table.print();

    // Deterministic identity of the run — what CI gates.
    obs.report().addMetric("fig11_events_executed",
                           static_cast<double>(fig11Events),
                           /*higherIsBetter=*/true, "events");
    obs.report().addMetric("fig11_sim_ticks",
                           static_cast<double>(fig11Ticks),
                           /*higherIsBetter=*/true, "ticks");
    obs.report().addMetric("fig11_requests_completed",
                           static_cast<double>(fig11Completed),
                           /*higherIsBetter=*/true, "requests");
    obs.report().addMetric("kernel_events_executed",
                           static_cast<double>(kernelExecuted),
                           /*higherIsBetter=*/true, "events");

    // Machine-dependent timings — informational only.
    Value throughput;
    throughput["fig11_wall_ms"] = Value(fig11Ms);
    throughput["fig11_events_per_sec"] = Value(fig11Eps);
    throughput["fig11_allocations"] =
        Value(static_cast<std::int64_t>(fig11Allocs));
    throughput["kernel_wall_ms"] = Value(kernelMs);
    throughput["kernel_events_per_sec"] = Value(kernelEps);
    throughput["kernel_allocations"] =
        Value(static_cast<std::int64_t>(kernelAllocs));
    obs.report().addSection("throughput", std::move(throughput));

    std::printf("\nEvents/sec is host-dependent; the JSON gate compares "
                "only the deterministic event/tick/request counts.\n");
    return 0;
}
