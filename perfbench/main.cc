/**
 * @file
 * The repository benchmark: host throughput of the simulator and the
 * simulated results of SpecFaaS and the baseline on one workload.
 *
 *     perfbench --workload <suite-warm|deep-cascade|fleet-diurnal>
 *               --seed <n> --seconds <s> --trace <0|1>
 *               [--spans-out <file>]
 *
 * One process, one simulation thread. The run first performs the
 * serial differential check, then repeats rounds until --seconds have
 * passed; a round rebuilds the workload and, for every point,
 * prepares a warmed platform and runs its open-loop load. Host
 * times are taken around those public calls and reported as medians
 * over rounds. Host times are thread CPU time, so time the thread
 * spends descheduled (by this kernel or, as steal, by the hypervisor)
 * is not counted. The shared host's speed still drifts by tens of
 * percent over tens of seconds, so each round also times a fixed
 * probe (hostProbeMs) every kProbeEveryMs of load, and the end-to-end
 * host times are scaled to the reference probe time by the round's
 * median probe, raised to the workload's probeElasticity. With
 * --trace 1, rounds alternate between untraced and traced (SimContext
 * profiler on, allocations counted), and the per-layer metrics come
 * from the traced rounds.
 *
 * Every output line before the last is for people; the last line is
 * one JSON object {correct, attempted, failed, metrics}.
 */

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <queue>
#include <unordered_map>
#include <new>
#include <string>
#include <vector>

#include "common/stats_util.hh"
#include "obs/profiler.hh"
#include "workloads.hh"

namespace {

/** Heap allocations while counting is on (traced rounds only). */
std::atomic<std::uint64_t> gAllocs{0};
bool gCountAllocs = false;

} // namespace

void*
operator new(std::size_t size)
{
    if (gCountAllocs)
        gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size))
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

using namespace perfbench;
namespace obs = specfaas::obs;

namespace {

using Clock = std::chrono::steady_clock;

/** The seed later performance claims must also hold on. */
constexpr std::uint64_t kHeldOutSeed = 7919;
/** Paper Fig. 11: warmed-up average speedup (the only reference). */
constexpr double kPaperSpeedup = 4.6;
/** §VIII-C QoS factor over the unloaded baseline response. */
constexpr double kQosFactor = 2.0;
/**
 * Reference host speed: a typical hostProbeMs() on a 4-core container
 * (GCC 12, Release). Host times are reported scaled to it.
 */
constexpr double kProbeRefMs = 7.0;
/** Load CPU time between two probes of a round. */
constexpr double kProbeEveryMs = 100.0;

/**
 * How strongly workload @p name's host time follows the probe's when
 * the host's speed drifts: the slope of log(round load time) on
 * log(round probe time), measured over 150-300 s runs on a 4-vCPU VM
 * while the host's speed drifted 1.6-1.8x. The simulator's working
 * set on deep-cascade (~12 MB) and fleet-diurnal (~38 MB) is larger
 * than the probe's, so it slows more than the probe does; on
 * suite-warm (~7 MB) it slows as much. A round's host times are
 * scaled by (probe / kProbeRefMs) to this power.
 */
double
probeElasticity(const std::string& name)
{
    if (name == "deep-cascade")
        return 1.4;
    if (name == "fleet-diurnal")
        return 1.3;
    return 1.0;
}

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                      start)
        .count();
}

/** CPU time of the calling thread, ms. */
double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

/** The benchmark's own spans, kept in memory, written at the end. */
class Spans
{
  public:
    Spans() : origin_(Clock::now()) {}

    /** Open a span named @p name (a string literal); returns its id. */
    long
    open(const char* name, long parent, long round)
    {
        spans_.push_back({name, parent, round, msSince(origin_), 0.0});
        return static_cast<long>(spans_.size()) - 1;
    }

    /** Close span @p id after @p durMs. */
    void close(long id, double durMs) { spans_[id].durMs = durMs; }

    /** Chrome trace_event JSON ("X" events, ts/dur in us). */
    bool
    write(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"traceEvents\":[");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                         "\"id\":%zu,\"parent\":%ld,\"round\":%ld}}",
                         i == 0 ? "" : ",", s.name,
                         s.startMs * 1e3, s.durMs * 1e3, i, s.parent,
                         s.round);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        const char* name;
        long parent;
        long round;
        double startMs;
        double durMs;
    };
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/**
 * Scoped timer of wall and thread CPU time; the wall time is also
 * recorded as a span unless @p spans is null.
 */
class SpanScope
{
  public:
    SpanScope(Spans* spans, const char* name, long parent, long round)
        : spans_(spans), start_(Clock::now()), cpuStart_(threadCpuMs()),
          id_(spans != nullptr ? spans->open(name, parent, round) : -1)
    {
    }
    ~SpanScope()
    {
        if (!closed_)
            close();
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    long id() const { return id_; }

    /** End the span; returns the thread CPU time it took, ms. */
    double
    close()
    {
        closed_ = true;
        wallMs_ = msSince(start_);
        if (spans_ != nullptr)
            spans_->close(id_, wallMs_);
        return threadCpuMs() - cpuStart_;
    }

    /** Wall time of the closed span, ms. */
    double wallMs() const { return wallMs_; }

  private:
    Spans* spans_;
    Clock::time_point start_;
    double cpuStart_;
    double wallMs_ = 0.0;
    long id_;
    bool closed_ = false;
};

/** Correctness checks attempted and failed over the whole run. */
struct Checks
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void
    expect(bool ok, const std::string& what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("CHECK FAILED: %s\n", what.c_str());
        }
    }
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Simulated results of one engine pooled over a round's points. */
struct EngineResult
{
    std::vector<double> latenciesMs;
    std::size_t submitted = 0;
    std::size_t rejected = 0;
    std::size_t sloMisses = 0;
};

/** Everything one round measured. */
struct Round
{
    bool traced = false;
    /** @{ Host times, thread CPU ms. */
    double buildMs = 0.0;
    double prepareMs = 0.0;
    double loadMs = 0.0;
    /** Median hostProbeMs() of the round. */
    double probeMs = 0.0;
    /** @} */
    /** Wall ms of the prepare and load calls (for the obs.* metrics). */
    double simWallMs = 0.0;
    std::uint64_t loadEvents = 0;
    std::uint64_t loadAllocs = 0;
    std::size_t completed = 0;
    /** Completed requests behind the SpecFaaS / baseline percentiles. */
    std::size_t specSamples = 0;
    std::size_t baseSamples = 0;
    /** The simulated end-to-end metrics (simMetrics). */
    std::vector<Metric> sim;
    double cpuUtil = 0.0;
    std::uint32_t peakNodes = 0;
    /** Deterministic counters deposited into the round's context. */
    std::map<std::string, double> counters;
    std::vector<obs::Profiler::ZoneRow> zones;
    std::uint64_t digest = 0;
};

double
mean(double sum, std::size_t n)
{
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double
median(std::vector<double> xs)
{
    return specfaas::percentile(std::move(xs), 50.0);
}

/** FNV-1a over a metric name and the exact bits of its value. */
void
digestInto(std::uint64_t& h, const std::string& name, double v)
{
    auto mix = [&h](const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    };
    mix(name.data(), name.size());
    mix(&v, sizeof v);
}

/** The simulated end-to-end metrics of a round. */
std::vector<Metric>
simMetrics(const EngineResult& base, const EngineResult& spec,
           double speedup)
{
    auto pct = [](const EngineResult& e, double p) {
        return e.latenciesMs.empty()
                   ? 0.0
                   : specfaas::percentile(e.latenciesMs, p);
    };
    auto ratio = [](std::size_t a, std::size_t b) {
        return b == 0 ? 0.0
                      : static_cast<double>(a) / static_cast<double>(b);
    };
    return {
        {"sim.speedup", speedup, "x"},
        {"sim.spec_p50_ms", pct(spec, 50.0), "sim_ms"},
        {"sim.spec_p99_ms", pct(spec, 99.0), "sim_ms"},
        {"sim.base_p50_ms", pct(base, 50.0), "sim_ms"},
        {"sim.base_p99_ms", pct(base, 99.0), "sim_ms"},
        {"sim.spec_slo_met_ratio",
         1.0 - ratio(spec.sloMisses, spec.submitted), "ratio"},
        {"sim.base_slo_met_ratio",
         1.0 - ratio(base.sloMisses, base.submitted), "ratio"},
    };
}

using ZonePred = std::function<bool(const std::string&)>;

/** Self ns and self allocations of the zones matching @p pred. */
std::pair<double, double>
zoneSelf(const std::vector<obs::Profiler::ZoneRow>& zones,
         const ZonePred& pred)
{
    double ns = 0.0;
    double allocs = 0.0;
    for (const auto& z : zones) {
        if (pred(z.name)) {
            ns += static_cast<double>(z.selfNs);
            allocs += static_cast<double>(z.selfAllocs);
        }
    }
    return {ns, allocs};
}

bool
anyZone(const std::string&)
{
    return true;
}

ZonePred
prefix(std::string p)
{
    return [p = std::move(p)](const std::string& name) {
        return name.compare(0, p.size(), p) == 0;
    };
}

ZonePred
oneOf(std::vector<std::string> names)
{
    return [names = std::move(names)](const std::string& name) {
        return std::find(names.begin(), names.end(), name) !=
               names.end();
    };
}

std::uint64_t
zoneVisits(const std::vector<obs::Profiler::ZoneRow>& zones,
           const std::string& name)
{
    for (const auto& z : zones)
        if (z.name == name)
            return z.visits;
    return 0;
}

/** Words of the probe's table: 4 MiB, more than a core's L2 holds. */
constexpr std::size_t kProbeTableWords = std::size_t{1} << 19;

/** The probe's table; allocated and touched on the first call. */
std::vector<std::uint64_t>&
probeTable()
{
    static std::vector<std::uint64_t> table(kProbeTableWords, 1);
    return table;
}

/**
 * Fixed host-speed probe: a deterministic mix of heap-ordered
 * scheduling, hash-map updates, small heap allocations and random
 * updates of a 4 MiB table, the operations and the cache pressure of
 * the simulator's hot path. It runs no simulator code, so a change to
 * the simulator cannot move it; its CPU time tracks how fast the
 * shared host runs the thread at that moment (frequency, a busy
 * hyperthread sibling, neighbours contending for the shared cache).
 * The table stays resident; peak_rss_mb leaves it out.
 * @return thread CPU time in ms
 */
double
hostProbeMs()
{
    std::vector<std::uint64_t>& table = probeTable();
    using Entry = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::unordered_map<std::uint64_t, std::string> map;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (std::uint32_t i = 0; i < 4096; ++i)
        heap.emplace(next() & 0xffffff, i);
    std::uint64_t acc = 0;
    const double start = threadCpuMs();
    for (std::uint32_t i = 0; i < 30000; ++i) {
        const auto [t, id] = heap.top();
        heap.pop();
        heap.emplace(t + (next() & 0xfff), id);
        std::string& v = map[next() & 0x7ff];
        v.assign(24 + (id & 15), static_cast<char>('a' + (id & 7)));
        acc += v.size() + t;
        for (int j = 0; j < 4; ++j)
            acc += table[next() & (kProbeTableWords - 1)]++;
        if ((i & 3) == 0)
            map.erase(next() & 0x7ff);
    }
    const double ms = threadCpuMs() - start;
    // Keep the loop's result observable.
    if (acc == 0)
        std::printf("probe checksum 0\n");
    return ms;
}

/** Run one round of @p name; see the file comment. */
Round
runRound(const std::string& name, std::uint64_t seed, bool traced,
         const std::vector<double>& sloMs, Spans& spans, Checks& checks,
         long index)
{
    Round r;
    r.traced = traced;
    specfaas::SimContext context;
    if (traced)
        context.profiler().enable();
    gCountAllocs = traced;
    // Every round records its own span; per-point spans only in the
    // first two, so the benchmark's memory does not grow with the
    // number of rounds (a faster host runs more of them).
    Spans* detail = index < 2 ? &spans : nullptr;
    SpanScope round(&spans, traced ? "round-traced" : "round", -1, index);

    // Probes at the start, after every kProbeEveryMs of load and at
    // the end; the round is scaled by their median.
    std::vector<double> probes{hostProbeMs()};
    double sinceProbeMs = 0.0;
    SpanScope build(&spans, "workload-build", round.id(), index);
    const std::unique_ptr<Workload> wl = makeWorkload(name, seed);
    r.buildMs = build.close();

    // Per (app, rps): summed latency and count, [0] baseline and
    // [1] SpecFaaS, for the speedup.
    struct Sums
    {
        double ms[2] = {};
        double n[2] = {};
    };
    std::map<std::pair<std::size_t, double>, Sums> means;
    EngineResult base;
    EngineResult spec;
    double utilSum = 0.0;
    for (std::size_t p = 0; p < wl->points(); ++p) {
        const bool speculative = wl->speculative(p);
        SpanScope prep(detail, "prepare", round.id(), index);
        std::unique_ptr<FaasPlatform> platform = wl->prepare(p, context);
        r.prepareMs += prep.close();
        r.simWallMs += prep.wallMs();

        const std::uint64_t events0 =
            platform->sim().events().executedCount();
        const std::uint64_t allocs0 = gAllocs.load();
        SpanScope load(detail, speculative ? "load-spec" : "load-base",
                       round.id(), index);
        const LoadOutcome out = wl->load(p, *platform);
        const double loadMs = load.close();
        r.loadMs += loadMs;
        r.simWallMs += load.wallMs();
        r.loadAllocs += gAllocs.load() - allocs0;
        r.loadEvents +=
            platform->sim().events().executedCount() - events0;

        SpanScope teardown(detail, "teardown", round.id(), index);
        platform.reset();
        teardown.close();

        EngineResult& e = speculative ? spec : base;
        std::size_t submitted = 0;
        std::size_t accounted = 0;
        for (const AppLatencies& a : out.apps) {
            submitted += a.submitted;
            accounted += a.latenciesMs.size() + a.rejected;
            e.submitted += a.submitted;
            e.rejected += a.rejected;
            e.sloMisses += a.rejected;
            const double limit = kQosFactor * sloMs[a.app];
            double sum = 0.0;
            for (double ms : a.latenciesMs) {
                e.latenciesMs.push_back(ms);
                sum += ms;
                if (ms > limit)
                    ++e.sloMisses;
            }
            r.completed += a.latenciesMs.size();
            Sums& m = means[{a.app, wl->rps(p)}];
            m.ms[speculative] += sum;
            m.n[speculative] += static_cast<double>(a.latenciesMs.size());
        }
        utilSum += out.cpuUtilization;
        r.peakNodes = std::max(r.peakNodes, out.peakNodes);
        checks.expect(submitted == accounted,
                      "conservation: submitted != completed + rejected");
        checks.expect(out.liveAfterDrain == 0,
                      "conservation: live invocations after the drain");
        sinceProbeMs += loadMs;
        if (sinceProbeMs >= kProbeEveryMs && p + 1 < wl->points()) {
            probes.push_back(hostProbeMs());
            sinceProbeMs = 0.0;
        }
    }
    r.cpuUtil = utilSum / static_cast<double>(wl->points());
    gCountAllocs = false;
    probes.push_back(hostProbeMs());
    r.probeMs = median(std::move(probes));
    round.close();

    // Speedup: per app, the mean over loads of base mean / spec
    // mean; then the mean over apps (bench_fig11_speedup's rule).
    std::map<std::size_t, std::vector<double>> perApp;
    for (const auto& [key, m] : means) {
        if (m.n[0] > 0 && m.n[1] > 0) {
            perApp[key.first].push_back((m.ms[0] / m.n[0]) /
                                        (m.ms[1] / m.n[1]));
        }
    }
    std::vector<double> appAvg;
    for (const auto& [app, xs] : perApp)
        appAvg.push_back(specfaas::mean(xs));
    r.sim = simMetrics(base, spec,
                       appAvg.empty() ? 0.0 : specfaas::mean(appAvg));
    r.specSamples = spec.latenciesMs.size();
    r.baseSamples = base.latenciesMs.size();

    for (const auto& [k, v] : context.counters().snapshot())
        r.counters[k] = v;
    if (traced)
        r.zones = context.profiler().zoneRows();

    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Metric& m : r.sim)
        digestInto(h, m.name, m.value);
    for (const auto& [k, v] : r.counters)
        digestInto(h, k, v);
    digestInto(h, "sim.events", static_cast<double>(r.loadEvents));
    digestInto(h, "fleet.peak_nodes", r.peakNodes);
    digestInto(h, "cluster.cpu_util", r.cpuUtil);
    digestInto(h, "completed", static_cast<double>(r.completed));
    digestInto(h, "base.rejected", static_cast<double>(base.rejected));
    digestInto(h, "spec.rejected", static_cast<double>(spec.rejected));
    r.digest = h;
    return r;
}

double
counter(const Round& r, const std::string& name)
{
    auto it = r.counters.find(name);
    return it == r.counters.end() ? 0.0 : it->second;
}

void
printMetrics(const char* title, const std::vector<Metric>& metrics)
{
    std::printf("\n%s\n", title);
    for (const Metric& m : metrics)
        std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

std::string
jsonMetrics(const std::vector<Metric>& metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
        out += buf;
    }
    return out + "}";
}

/**
 * The /proc/self/status field @p key ("VmHWM:" peak or "VmRSS:"
 * current resident set of this process image), KiB. getrusage's
 * ru_maxrss is not used because it survives exec, so it would report
 * a larger parent (the Python launcher) instead of this program.
 */
double
statusKb(const char* key)
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, key, std::strlen(key)) == 0) {
            kb = std::strtod(line + std::strlen(key), nullptr);
            break;
        }
    }
    std::fclose(f);
    return kb;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <file>]\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    obs::Profiler::setAllocSource(&gAllocs);
    // The probe's table is resident from here on; its share of the
    // resident set is left out of peak_rss_mb.
    const double rssBeforeProbeKb = statusKb("VmRSS:");
    probeTable();
    const double probeRssKb = statusKb("VmRSS:") - rssBeforeProbeKb;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* v = argv[i + 1];
        if (flag == "--workload")
            workload = v;
        else if (flag == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(v, nullptr);
        else if (flag == "--trace")
            trace = std::strcmp(v, "1") == 0;
        else if (flag == "--spans-out")
            spansOut = v;
        else
            return usage();
    }
    if (argc % 2 == 0 || !(seconds > 0.0))
        return usage();
    std::unique_ptr<Workload> first = makeWorkload(workload, seed);
    if (first == nullptr)
        return usage();

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                seconds, trace ? 1 : 0);
    std::printf("host: nproc=%ld compiler=\"%s\" build_type=%s "
                "sim_threads=1 held_out_seed=%llu\n",
                sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE,
                static_cast<unsigned long long>(kHeldOutSeed));

    Spans spans;
    Checks checks;

    // Serial differential check; its baseline responses are the
    // unloaded references of the SLO.
    std::vector<double> sloMs(first->appNames().size(), 0.0);
    Breakdown checkBase;
    Breakdown checkSpec;
    double checkMs = 0.0;
    {
        specfaas::SimContext context;
        SpanScope span(&spans, "check", -1, -1);
        const std::vector<CheckOutcome> outs = first->check(context);
        checkMs = span.close();
        const auto names = first->appNames();
        for (const CheckOutcome& c : outs) {
            checks.expect(c.responseMismatches == 0,
                          "responses differ: " + names[c.app]);
            checks.expect(c.storeMatches,
                          "final store differs: " + names[c.app]);
            sloMs[c.app] = c.baseUnloadedMs;
            checkBase += c.base;
            checkSpec += c.spec;
        }
    }
    first.reset();

    // Rounds until the time is up: untraced only, or alternating
    // untraced / traced with --trace 1.
    std::vector<Round> rounds;
    const auto start = Clock::now();
    const std::size_t minRounds = trace ? 4 : 3;
    while (rounds.size() < minRounds || msSince(start) < seconds * 1e3) {
        const bool traced = trace && rounds.size() % 2 == 1;
        rounds.push_back(runRound(workload, seed, traced, sloMs, spans,
                                  checks,
                                  static_cast<long>(rounds.size())));
    }

    std::vector<const Round*> plain;
    std::vector<const Round*> traced;
    for (const Round& r : rounds)
        (r.traced ? traced : plain).push_back(&r);
    const Round& ref = *plain.front();
    for (const Round& r : rounds)
        checks.expect(r.digest == ref.digest,
                      "round digest differs from the first round");

    auto med = [](const std::vector<const Round*>& rs,
                  const std::function<double(const Round&)>& f) {
        std::vector<double> xs;
        for (const Round* r : rs)
            xs.push_back(f(*r));
        return median(std::move(xs));
    };
    // Host times scaled to the reference host speed, round by round.
    auto reqPerS = [](const Round& r) {
        return static_cast<double>(r.completed) / (r.loadMs / 1e3);
    };
    auto setupOf = [](const Round& r) {
        return (r.buildMs + r.prepareMs) / 1e3;
    };
    const double elasticity = probeElasticity(workload);
    auto slowdown = [elasticity](const Round& r) {
        return std::pow(r.probeMs / kProbeRefMs, elasticity);
    };
    const double hostReqPerS = med(plain, [&](const Round& r) {
        return reqPerS(r) * slowdown(r);
    });
    const double setupS = med(plain, [&](const Round& r) {
        return setupOf(r) / slowdown(r);
    });
    const double peakRssMb = (statusKb("VmHWM:") - probeRssKb) / 1024.0;
    const double failedRatio =
        static_cast<double>(checks.failed) /
        static_cast<double>(std::max<std::size_t>(checks.attempted, 1));

    std::vector<Metric> endToEnd = {
        {"host_req_per_s", hostReqPerS, "req/s"},
        {"setup_s", setupS, "s"},
        {"peak_rss_mb", peakRssMb, "MB"},
    };
    std::map<std::string, double> sim;
    for (const Metric& m : ref.sim) {
        endToEnd.push_back(m);
        sim[m.name] = m.value;
    }
    printMetrics("end-to-end (untraced rounds; sim.* are simulated)",
                 endToEnd);
    std::printf("  unscaled: host_req_per_s %.3f req/s, setup_s %.6f s; "
                "host probe %.3f ms (reference %.1f ms, elasticity "
                "%.1f)\n",
                med(plain, reqPerS), med(plain, setupOf),
                med(plain, [](const Round& r) { return r.probeMs; }),
                kProbeRefMs, elasticity);
    std::printf("  samples: spec=%zu base=%zu completed requests; "
                "rounds=%zu untraced, %zu traced\n",
                ref.specSamples, ref.baseSamples,
                plain.size(), traced.size());
    std::printf("  failed_ratio %.6f (checks attempted=%zu failed=%zu)\n",
                failedRatio, checks.attempted, checks.failed);
    std::printf("  slo_miss_ratio spec=%.6f base=%.6f (rejected or "
                "slower than %.0fx the app's unloaded baseline mean)\n",
                1.0 - sim.at("sim.spec_slo_met_ratio"),
                1.0 - sim.at("sim.base_slo_met_ratio"), kQosFactor);
    if (workload == "suite-warm") {
        std::printf("  sim.speedup %.4fx vs paper Fig. 11 warmed-up "
                    "average %.1fx (the only reference; the model is "
                    "not validated against hardware)\n",
                    sim.at("sim.speedup"), kPaperSpeedup);
    }
    std::printf("digest %016llx\n",
                static_cast<unsigned long long>(ref.digest));

    std::vector<Metric> perLayer;
    if (trace) {
        const Round& t = *traced.front();
        const double events = static_cast<double>(t.loadEvents);
        auto visits = [&t](const char* zone) {
            return static_cast<double>(zoneVisits(t.zones, zone));
        };
        // Zone self time of each layer as a share of all zone self
        // time in a traced round (median over traced rounds): shares
        // are measured at one moment, so host-speed drift cancels.
        const std::vector<std::pair<std::string, ZonePred>> layers = {
            {"sim", prefix("sim/")},
            {"interp", prefix("interp/")},
            {"runtime", prefix("runtime/")},
            {"spec.commit",
             oneOf({"spec/commit-slot", "spec/commit", "spec/completed"})},
            {"spec.walk", oneOf({"spec/walk"})},
            {"spec.squash", oneOf({"spec/squash"})},
            {"base", prefix("base/")},
            {"cluster", prefix("cluster/")},
            {"storage", prefix("storage/")},
            {"fleet", prefix("fleet/")},
            {"loadgen", prefix("loadgen/")},
        };
        std::map<std::string, double> share;
        std::printf("\nzone self time per traced round (median)\n");
        for (const auto& [layer, pred] : layers) {
            share[layer] = med(traced, [&pred](const Round& r) {
                return zoneSelf(r.zones, pred).first /
                       zoneSelf(r.zones, anyZone).first;
            });
            std::printf("  %-14s %10.3f ms  %6.2f %%\n", layer.c_str(),
                        med(traced,
                            [&pred](const Round& r) {
                                return zoneSelf(r.zones, pred).first /
                                       1e6;
                            }),
                        100.0 * share[layer]);
        }
        const double commits = counter(t, "spec.commits");
        const double squashes = counter(t, "spec.squashes");
        const double warm = counter(t, "cluster.warm_starts");
        const double cold = counter(t, "cluster.cold_starts");
        auto simWallMs = [](const Round& r) { return r.simWallMs; };
        auto perReq = [](double sum, const Breakdown& b) {
            return mean(sum, b.requests);
        };
        perLayer = {
            {"sim.events", events, "count"},
            {"sim.events_per_req",
             events / static_cast<double>(t.completed), "events/req"},
            {"sim.ns_per_event",
             med(plain,
                 [](const Round& r) {
                     return r.loadMs * 1e6 /
                            static_cast<double>(r.loadEvents);
                 }),
             "ns"},
            {"sim.allocs_per_event",
             static_cast<double>(t.loadAllocs) / events, "allocs/event"},
            {"sim.self_share", share["sim"], "ratio"},
            {"interp.steps", visits("interp/step"), "count"},
            {"interp.self_share", share["interp"], "ratio"},
            {"interp.allocs", zoneSelf(t.zones, prefix("interp/")).second,
             "count"},
            {"runtime.launches", visits("runtime/launch"), "count"},
            {"runtime.self_share", share["runtime"], "ratio"},
            {"spec.commit_self_share", share["spec.commit"], "ratio"},
            {"spec.walk_self_share", share["spec.walk"], "ratio"},
            {"spec.squash_self_share", share["spec.squash"], "ratio"},
            {"spec.squashes", squashes, "count"},
            {"spec.control_mispredicts",
             counter(t, "spec.control_mispredicts"), "count"},
            {"spec.data_mispredicts", counter(t, "spec.data_mispredicts"),
             "count"},
            {"spec.useful_ratio",
             commits + squashes > 0 ? commits / (commits + squashes) : 0.0,
             "ratio"},
            {"spec.speculative_launches",
             counter(t, "spec.speculative_launches"), "count"},
            {"spec.stalled_reads", counter(t, "spec.stalled_reads"),
             "count"},
            {"spec.platform_overhead_ms",
             perReq(checkSpec.platformOverheadMs, checkSpec), "sim_ms"},
            {"spec.transfer_ms", perReq(checkSpec.transferMs, checkSpec),
             "sim_ms"},
            {"spec.exec_ms", perReq(checkSpec.execMs, checkSpec),
             "sim_ms"},
            {"base.self_share", share["base"], "ratio"},
            {"base.dispatches", counter(t, "baseline.dispatches"),
             "count"},
            {"base.rejections", counter(t, "baseline.rejections"),
             "count"},
            {"base.platform_overhead_ms",
             perReq(checkBase.platformOverheadMs, checkBase), "sim_ms"},
            {"base.transfer_ms", perReq(checkBase.transferMs, checkBase),
             "sim_ms"},
            {"base.exec_ms", perReq(checkBase.execMs, checkBase),
             "sim_ms"},
            {"cluster.self_share", share["cluster"], "ratio"},
            {"cluster.cold_starts", cold, "count"},
            {"cluster.warm_ratio",
             warm + cold > 0 ? warm / (warm + cold) : 0.0, "ratio"},
            {"cluster.cpu_util", t.cpuUtil, "ratio"},
            {"storage.self_share", share["storage"], "ratio"},
            {"storage.gets", visits("storage/get"), "count"},
            {"storage.puts", visits("storage/put"), "count"},
            {"fleet.self_share", share["fleet"], "ratio"},
            {"fleet.nodes_provisioned",
             counter(t, "fleet.nodes_provisioned"), "count"},
            {"fleet.peak_nodes", static_cast<double>(t.peakNodes),
             "count"},
            {"fleet.evictions", counter(t, "fleet.evictions"), "count"},
            {"fleet.fair_rejects", counter(t, "fleet.fair_rejects"),
             "count"},
            {"loadgen.self_share", share["loadgen"], "ratio"},
            {"loadgen.arrivals", visits("loadgen/arrival"), "count"},
            {"platform.prepare_ms",
             med(plain, [](const Round& r) { return r.prepareMs; }),
             "ms"},
            {"platform.check_ms", checkMs, "ms"},
            {"workloads.build_ms",
             med(plain, [](const Round& r) { return r.buildMs; }), "ms"},
            {"obs.trace_overhead",
             med(traced, simWallMs) / med(plain, simWallMs) - 1.0,
             "ratio"},
            {"obs.self_coverage",
             med(traced,
                 [&simWallMs](const Round& r) {
                     return zoneSelf(r.zones, anyZone).first / 1e6 /
                            simWallMs(r);
                 }),
             "ratio"},
        };
        printMetrics("per-layer (counts from the first traced round; "
                     "self shares and times are medians over traced "
                     "rounds; sim_ms are per serial check request)",
                     perLayer);
    }

    if (!spansOut.empty() && !spans.write(spansOut)) {
        std::fprintf(stderr, "cannot write %s\n", spansOut.c_str());
        return 1;
    }

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                checks.failed == 0 ? "true" : "false", checks.attempted,
                checks.failed,
                jsonMetrics(trace ? perLayer : endToEnd).c_str());
    return checks.failed == 0 ? 0 : 1;
}
