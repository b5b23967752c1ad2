#include "workloads.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "fleet/fleet.hh"
#include "loadgen/load_driver.hh"
#include "platform/experiment.hh"
#include "platform/load_generator.hh"
#include "workloads/alibaba.hh"
#include "workloads/app_helpers.hh"
#include "workloads/suites.hh"

namespace perfbench {

using namespace specfaas;

namespace {

/** Serial requests per application in the differential check. */
constexpr std::size_t kCheckRequests = 20;

/** Input stream of the differential check for app @p index. */
Rng
checkRng(std::uint64_t seed, std::size_t index)
{
    return Rng(seed * 0x9e3779b97f4a7c15ull + 0xc0ffeeull + index);
}

/**
 * Run @p inputs serially on app @p index of two prepared platforms
 * and compare responses; the caller compares the stores.
 */
CheckOutcome
compareSerial(std::size_t index, const Application& app,
              FaasPlatform& base, FaasPlatform& spec,
              const std::vector<Value>& inputs)
{
    CheckOutcome out;
    out.app = index;
    double total = 0.0;
    for (const Value& input : inputs) {
        const InvocationResult b = base.invokeSync(app, Value(input));
        const InvocationResult s = spec.invokeSync(app, Value(input));
        if (b.response != s.response || b.rejected != s.rejected)
            ++out.responseMismatches;
        total += ticksToMs(b.responseTime());
        out.base.add(b);
        out.spec.add(s);
    }
    out.baseUnloadedMs = total / static_cast<double>(inputs.size());
    return out;
}

std::vector<Value>
checkInputs(const Application& app, std::uint64_t seed,
            std::size_t index)
{
    Rng rng = checkRng(seed, index);
    std::vector<Value> inputs;
    for (std::size_t i = 0; i < kCheckRequests; ++i)
        inputs.push_back(app.inputGen ? app.inputGen(rng) : Value());
    return inputs;
}

/**
 * Single-application sweep: every application at every load on both
 * engines, each point on its own warmed platform
 * (Experiment::preparedPlatform + LoadGenerator::run), as the Fig. 11
 * harness does. Point order: app-major, then load, then baseline
 * before SpecFaaS.
 */
class AppSweep : public Workload
{
  public:
    AppSweep(std::vector<Application> apps, EngineSetup base,
             EngineSetup spec, std::vector<double> loads,
             std::size_t requests)
        : apps_(std::move(apps)), base_(base), spec_(spec),
          loads_(std::move(loads)), requests_(requests)
    {
    }

    std::vector<std::string>
    appNames() const override
    {
        std::vector<std::string> names;
        for (const Application& app : apps_)
            names.push_back(app.name);
        return names;
    }

    std::size_t
    points() const override
    {
        return apps_.size() * loads_.size() * 2;
    }

    bool
    speculative(std::size_t point) const override
    {
        return point % 2 == 1;
    }

    double
    rps(std::size_t point) const override
    {
        return loads_[(point / 2) % loads_.size()];
    }

    std::unique_ptr<FaasPlatform>
    prepare(std::size_t point, SimContext& context) const override
    {
        EngineSetup setup = speculative(point) ? spec_ : base_;
        setup.context = &context;
        return Experiment::preparedPlatform(appOf(point), setup);
    }

    LoadOutcome
    load(std::size_t point, FaasPlatform& platform) const override
    {
        const LoadRunResult run = LoadGenerator::run(
            platform, appOf(point), rps(point), requests_);
        LoadOutcome out;
        AppLatencies lat;
        lat.app = point / (2 * loads_.size());
        lat.submitted = run.results.size() + run.rejected;
        lat.rejected = run.rejected;
        for (const InvocationResult& r : run.results)
            lat.latenciesMs.push_back(ticksToMs(r.responseTime()));
        out.apps.push_back(std::move(lat));
        out.cpuUtilization = run.cpuUtilization;
        out.liveAfterDrain = platform.engine().liveInvocations();
        return out;
    }

    std::vector<CheckOutcome>
    check(SimContext& context) const override
    {
        std::vector<CheckOutcome> outs;
        for (std::size_t a = 0; a < apps_.size(); ++a) {
            EngineSetup base = base_;
            EngineSetup spec = spec_;
            base.context = &context;
            spec.context = &context;
            auto b = Experiment::preparedPlatform(apps_[a], base);
            auto s = Experiment::preparedPlatform(apps_[a], spec);
            CheckOutcome out = compareSerial(
                a, apps_[a], *b, *s,
                checkInputs(apps_[a], base_.seed, a));
            out.storeMatches =
                b->store().fingerprint() == s->store().fingerprint();
            outs.push_back(out);
        }
        return outs;
    }

  private:
    const Application&
    appOf(std::size_t point) const
    {
        return apps_[point / (2 * loads_.size())];
    }

    std::vector<Application> apps_;
    EngineSetup base_;
    EngineSetup spec_;
    std::vector<double> loads_;
    std::size_t requests_;
};

std::pair<EngineSetup, EngineSetup>
engineSetups(std::uint64_t seed)
{
    EngineSetup base;
    base.speculative = false;
    base.seed = seed;
    EngineSetup spec = base;
    spec.speculative = true;
    return {base, spec};
}

/** suite-warm: the Fig. 11 warmed-up sweep over all sixteen apps. */
std::unique_ptr<Workload>
makeSuiteWarm(std::uint64_t seed)
{
    auto registry = makeAllSuites();
    std::vector<Application> apps;
    for (const char* suite : {"FaaSChain", "TrainTicket", "Alibaba"})
        for (const Application* app : registry->suite(suite))
            apps.push_back(*app);
    auto [base, spec] = engineSetups(seed);
    return std::make_unique<AppSweep>(
        std::move(apps), base, spec,
        std::vector<double>{LoadLevels::kLow, LoadLevels::kMedium,
                            LoadLevels::kHigh},
        /*requests=*/250);
}

/** Deep-cascade apps; app i has a chain of kMinChain + i functions. */
constexpr std::uint32_t kCascadeApps = 5;
constexpr std::uint32_t kMinChain = 16;
constexpr std::uint32_t kMaxChain = kMinChain + kCascadeApps - 1;
/** Per-item records of each chain stage. */
constexpr std::int64_t kCascadeItems = 200;

/**
 * Deep-cascade application @p index: a slow condition on an input
 * flag that is true ~60% of the time, guarding two chains of short
 * functions. Each chain function reads and rewrites its own per-item
 * record, so a mispredicted arm leaves buffered writes to discard.
 * The shape is fixed per index; the seed draws each function's
 * compute time within +-20% of its nominal value.
 */
Application
makeCascadeApp(std::uint64_t seed, std::uint32_t index)
{
    Rng rng(seed * 0xbf58476d1ce4e5b9ull + index + 1);
    auto jitterMs = [&rng](double ms) { return ms * rng.uniform(0.8, 1.2); };
    const std::uint32_t chain = kMinChain + index;
    const std::string name = strFormat("Cascade%u", index);

    Application app;
    app.name = name;
    app.suite = "DeepCascade";
    app.type = WorkflowType::Explicit;
    const std::string gate = name + "Gate";
    app.functions.push_back(condFunction(gate, "go", jitterMs(40.0)));

    std::vector<std::string> prefixes;
    auto armOf = [&](const char* arm) {
        std::vector<WorkflowNode> steps;
        for (std::uint32_t j = 0; j < chain; ++j) {
            const std::string fn =
                strFormat("%s%s%u", name.c_str(), arm, j);
            const std::string prefix =
                strFormat("%s.%s%u", name.c_str(), arm, j);
            prefixes.push_back(prefix);
            FunctionDef d;
            d.name = fn;
            d.body.push_back(
                Op::storageRead(fns::keyOf(prefix, "item"), "rec"));
            d.body.push_back(Op::compute(msToTicks(jitterMs(2.5))));
            d.body.push_back(Op::storageWrite(
                fns::keyOf(prefix, "item"), [](const Env& e) {
                    Value rec = Value::object({});
                    rec["v"] = Value(e.var("rec").at("v").asInt() + 1);
                    return rec;
                }));
            if (j + 1 == chain) {
                d.output = [](const Env& e) {
                    Value out = Value::object({});
                    out["item"] = e.input.at("item");
                    out["v"] = e.var("rec").at("v");
                    return out;
                };
            } else {
                d.output = fns::passInput();
            }
            app.functions.push_back(std::move(d));
            steps.push_back(task(fn));
        }
        return sequence(std::move(steps));
    };
    WorkflowNode taken = armOf("A");
    WorkflowNode other = armOf("B");
    app.workflow = when(gate, std::move(taken), std::move(other));

    app.inputGen = [](Rng& r) {
        Value in = Value::object({});
        const std::int64_t item =
            r.uniformInt(std::int64_t{0}, kCascadeItems - 1);
        in["item"] = Value(
            strFormat("i%lld", static_cast<long long>(item)));
        in["go"] = Value(r.bernoulli(0.6));
        return in;
    };
    app.seedStore = [prefixes](KvStore& store, Rng& r) {
        for (const std::string& prefix : prefixes) {
            for (std::int64_t i = 0; i < kCascadeItems; ++i) {
                Value rec = Value::object({});
                rec["v"] = Value(r.uniformInt(std::int64_t{0}, 9));
                store.put(strFormat("%s:\"i%lld\"", prefix.c_str(),
                                    static_cast<long long>(i)),
                          std::move(rec));
            }
        }
    };
    return app;
}

/** deep-cascade: seed-built cascade apps at Low load. */
std::unique_ptr<Workload>
makeDeepCascade(std::uint64_t seed)
{
    std::vector<Application> apps;
    for (std::uint32_t i = 0; i < kCascadeApps; ++i)
        apps.push_back(makeCascadeApp(seed, i));
    auto [base, spec] = engineSetups(seed);
    spec.spec.bpDeadBand = 0.0;
    spec.spec.maxSpecDepth = kMaxChain + 2;
    return std::make_unique<AppSweep>(
        std::move(apps), base, spec,
        std::vector<double>{LoadLevels::kLow}, /*requests=*/800);
}

/** Tenant traffic shares of fleet-diurnal (bench_fleet_curves). */
constexpr double kTenantWeights[] = {8.0, 4.0, 2.0, 1.0, 1.0, 1.0};
constexpr std::size_t kTenants =
    sizeof(kTenantWeights) / sizeof(kTenantWeights[0]);

/**
 * fleet-diurnal: six weighted Alibaba tenants on the autoscaled
 * 100-400 node fleet, diurnal open-loop arrivals below (300 rps) and
 * past (1000 rps) the baseline's control-plane knee. Each (rate,
 * engine) pair runs on kReplicas platforms with derived seeds, so one
 * realisation of the autoscaler's timing does not set the result.
 * Point order: rate-major, then replica, baseline before SpecFaaS.
 * Cluster, fleet and tenant settings mirror bench_fleet_curves.
 */
class FleetDiurnal : public Workload
{
  public:
    explicit FleetDiurnal(std::uint64_t seed) : seed_(seed)
    {
        AlibabaTraceConfig trace;
        trace.applications = kTenants;
        trace.meanServiceMs = 60.0;
        apps_ = alibabaSuite(trace);
    }

    std::vector<std::string>
    appNames() const override
    {
        std::vector<std::string> names;
        for (const Application& app : apps_)
            names.push_back(app.name);
        return names;
    }

    std::size_t
    points() const override
    {
        return kRates.size() * kReplicas * 2;
    }

    bool
    speculative(std::size_t point) const override
    {
        return point % 2 == 1;
    }

    double
    rps(std::size_t point) const override
    {
        return kRates[point / (2 * kReplicas)];
    }

    std::unique_ptr<FaasPlatform>
    prepare(std::size_t point, SimContext& context) const override
    {
        return platform(speculative(point),
                        seed_ + 0x100000001b3ull * ((point / 2) % kReplicas),
                        context);
    }

    LoadOutcome
    load(std::size_t point, FaasPlatform& platform) const override
    {
        std::vector<TenantSpec> tenants;
        for (std::size_t i = 0; i < apps_.size(); ++i)
            tenants.push_back(TenantSpec{&apps_[i], kTenantWeights[i]});
        Rng inputBase = platform.sim().forkRng();
        TrafficMix mix(tenants, inputBase);

        ArrivalSpec arrivals;
        arrivals.kind = ArrivalSpec::Kind::Diurnal;
        arrivals.rps = rps(point);
        arrivals.diurnalAmplitude = 0.5;
        arrivals.diurnalPeriod = 2 * kSecond;
        const std::size_t requests = static_cast<std::size_t>(
            std::max(600.0, rps(point) * 2.5));
        const FleetLoadResult run =
            LoadDriver::run(platform, mix, arrivals, requests);

        LoadOutcome out;
        for (std::size_t i = 0; i < run.tenants.size(); ++i) {
            AppLatencies lat;
            lat.app = i;
            lat.submitted = run.tenants[i].submitted;
            lat.rejected = run.tenants[i].rejected;
            lat.latenciesMs = run.tenants[i].latenciesMs;
            out.apps.push_back(std::move(lat));
        }
        out.cpuUtilization = run.cpuUtilization;
        out.peakNodes =
            platform.cluster().fleet().stats().peakReadyNodes;
        out.liveAfterDrain = platform.engine().liveInvocations();
        return out;
    }

    std::vector<CheckOutcome>
    check(SimContext& context) const override
    {
        auto b = platform(false, seed_, context);
        auto s = platform(true, seed_, context);
        std::vector<CheckOutcome> outs;
        for (std::size_t a = 0; a < apps_.size(); ++a) {
            outs.push_back(compareSerial(a, apps_[a], *b, *s,
                                         checkInputs(apps_[a], seed_, a)));
        }
        outs.back().storeMatches =
            b->store().fingerprint() == s->store().fingerprint();
        return outs;
    }

  private:
    static constexpr std::array<double, 2> kRates = {300.0, 1000.0};
    static constexpr std::size_t kReplicas = 2;

    /** The bench_fleet_curves platform, deployed and warmed up. */
    std::unique_ptr<FaasPlatform>
    platform(bool speculative, std::uint64_t seed, SimContext& context) const
    {
        PlatformOptions options;
        options.speculative = speculative;
        options.seed = seed;
        options.cluster.numNodes = 100;
        options.cluster.coresPerNode = 8;
        options.cluster.controllerThreads = 12;
        options.cluster.admissionQueueLimit = 256;
        FleetConfig& fleet = options.fleet;
        fleet.dynamics = true;
        fleet.minNodes = 100;
        fleet.maxNodes = 400;
        fleet.provisioningDelay = 500 * kMillisecond;
        fleet.autoscaler.enabled = true;
        fleet.autoscaler.interval = 200 * kMillisecond;
        fleet.autoscaler.utilHigh = 0.70;
        fleet.autoscaler.queueDepthHigh = 64;
        fleet.autoscaler.utilLow = 0.20;
        fleet.autoscaler.lowStreak = 3;
        fleet.autoscaler.scaleUpStep = 16;
        fleet.autoscaler.scaleDownStep = 8;
        fleet.autoscaler.cooldown = 400 * kMillisecond;
        fleet.eviction.policy = EvictionConfig::Policy::Histogram;
        fleet.eviction.scanInterval = 500 * kMillisecond;
        fleet.eviction.keepAlivePercentile = 99.0;
        fleet.eviction.minKeepAlive = 5 * kSecond;
        fleet.eviction.maxKeepAlive = 30 * kSecond;
        fleet.admission.fairShare = true;
        fleet.admission.engageQueueDepth = 16;
        fleet.admission.fairFactor = 2.0;
        fleet.admission.minTenantInFlight = 32;
        options.prewarmPerFunction = 512;
        options.context = &context;

        auto p = std::make_unique<FaasPlatform>(options);
        for (const Application& app : apps_)
            p->deploy(app);
        for (const Application& app : apps_)
            p->train(app, 6);
        // Training outlives the deploy-time prewarm's keep-alive;
        // refill so the measured window starts warm.
        for (const Application& app : apps_)
            for (const FunctionDef& fn : app.functions)
                p->cluster().containers().prewarm(
                    Symbol(fn.name), options.prewarmPerFunction);
        return p;
    }

    std::uint64_t seed_;
    std::vector<Application> apps_;
};

} // namespace

void
Breakdown::add(const InvocationResult& r)
{
    platformOverheadMs += ticksToMs(r.platformOverhead);
    transferMs += ticksToMs(r.transferOverhead);
    execMs += ticksToMs(r.execution);
    ++requests;
}

Breakdown&
Breakdown::operator+=(const Breakdown& other)
{
    platformOverheadMs += other.platformOverheadMs;
    transferMs += other.transferMs;
    execMs += other.execMs;
    requests += other.requests;
    return *this;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, std::uint64_t seed)
{
    if (name == "suite-warm")
        return makeSuiteWarm(seed);
    if (name == "deep-cascade")
        return makeDeepCascade(seed);
    if (name == "fleet-diurnal")
        return std::make_unique<FleetDiurnal>(seed);
    return nullptr;
}

} // namespace perfbench
