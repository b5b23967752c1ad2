/** @file Tests for the observability layer (tracing + counters). */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "obs/counter_registry.hh"
#include "obs/trace_export.hh"
#include "obs/trace_recorder.hh"
#include "platform/platform.hh"
#include "sim/sim_context.hh"
#include "workloads/app_helpers.hh"

namespace specfaas {
namespace {

using obs::Phase;
using obs::TraceEvent;
using obs::TraceRecorder;

TEST(TraceRecorder, DisabledRecordsNothing)
{
    TraceRecorder tr;
    EXPECT_FALSE(tr.enabled());
    tr.instant(obs::cat::kSpec, "x", 1, 0, 0);
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_TRUE(tr.snapshot().empty());
}

TEST(TraceRecorder, RingKeepsNewestAndCountsDrops)
{
    TraceRecorder tr;
    tr.enable(/*capacity=*/4);
    for (int i = 0; i < 10; ++i)
        tr.instant(obs::cat::kSpec, strFormat("e%d", i), i, 0, 0);
    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.capacity(), 4u);
    EXPECT_EQ(tr.dropped(), 6u);
    auto evs = tr.snapshot();
    ASSERT_EQ(evs.size(), 4u);
    // Oldest first, and it is the newest four that survive.
    EXPECT_EQ(evs.front().name, "e6");
    EXPECT_EQ(evs.back().name, "e9");
    for (std::size_t i = 1; i < evs.size(); ++i)
        EXPECT_LE(evs[i - 1].ts, evs[i].ts);
}

TEST(TraceRecorder, SpanPhasesRoundTrip)
{
    TraceRecorder tr;
    tr.enable(16);
    tr.begin(obs::cat::kExec, "f", 10, 1, 42);
    tr.instant(obs::cat::kStorage, "read", 15, 1, 42,
               {{"key", "k1"}});
    tr.end(obs::cat::kExec, "f", 20, 1, 42);
    auto evs = tr.snapshot();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].phase, Phase::Begin);
    EXPECT_EQ(evs[1].phase, Phase::Instant);
    EXPECT_EQ(evs[2].phase, Phase::End);
    EXPECT_EQ(evs[1].args.at(0).key, "key");
    EXPECT_EQ(evs[1].args.at(0).value, "k1");
}

TEST(TraceExport, ProducesWellFormedJson)
{
    std::vector<TraceEvent> evs;
    TraceEvent e;
    e.phase = Phase::Instant;
    e.category = obs::cat::kSpec;
    e.name = "quote\"back\\slash";
    e.ts = 123;
    e.pid = 2;
    e.tid = 7;
    e.args = {{"s", "v1", false}, {"n", "42", true}};
    evs.push_back(e);
    const std::string json = obs::toChromeTraceJson(evs);
    // Structure markers of the Chrome trace_event array format.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":123"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
    // Escaping, and numeric args rendered bare.
    EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
    EXPECT_NE(json.find("\"n\":42"), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"v1\""), std::string::npos);
    // process_name metadata for the referenced pid.
    EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(TraceExport, JsonEscape)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(obs::jsonEscape("a\tb"), "a\\tb");
}

TEST(Counters, RegisterAddMerge)
{
    obs::CounterRegistry a;
    std::uint64_t& c = a.counter("x.events");
    ++c;
    ++c;
    a.add("x.events", 3);
    a.set("x.load", 0.5);
    EXPECT_EQ(a.value("x.events"), 5u);
    EXPECT_EQ(a.value("absent"), 0u);
    obs::CounterRegistry b;
    b.add("x.events", 10);
    a.mergeInto(b);
    EXPECT_EQ(b.value("x.events"), 15u);
    EXPECT_NE(b.table().find("x.events"), std::string::npos);
}

// ---------------------------------------------------------------------
// End-to-end: trace a SpecFaaS run through the real platform.
// ---------------------------------------------------------------------

/** Branch chain app (same shape as the controller tests). */
Application
tracedBranchChain()
{
    Application app;
    app.name = "chain";
    app.suite = "test";
    app.type = WorkflowType::Explicit;
    app.functions.push_back(condFunction("Ca", "b0", 5.0));
    app.functions.push_back(condFunction("Cb", "b0", 5.0));
    app.functions.push_back(worker("Cend", 5.0, [](const Env&) {
        return Value("done");
    }));
    app.functions.push_back(worker("Cfail", 2.0, [](const Env&) {
        return Value("failed");
    }));
    app.workflow = when(
        "Ca", when("Cb", task("Cend"), task("Cfail")), task("Cfail"));
    app.inputGen = [](Rng& rng) {
        Value v = Value::object({});
        v["b0"] = Value(rng.bernoulli(0.95));
        return v;
    };
    return app;
}

std::vector<TraceEvent>
named(const std::vector<TraceEvent>& evs, const std::string& name)
{
    std::vector<TraceEvent> out;
    for (const auto& e : evs)
        if (e.name == name)
            out.push_back(e);
    return out;
}

const std::string*
argValue(const TraceEvent& e, const std::string& key)
{
    for (const auto& a : e.args)
        if (a.key == key)
            return &a.value;
    return nullptr;
}

TEST(TraceEndToEnd, SpeculationLifecycleIsRecorded)
{
    Application app = tracedBranchChain();
    PlatformOptions options;
    options.speculative = true;
    options.seed = 7;
    FaasPlatform platform(options);
    platform.deploy(app);
    platform.train(app, 20); // untraced: predictor warm-up

    defaultSimContext().trace().enable(1u << 16);
    // Common case: the predicted path is taken.
    Value taken = Value::object({{"b0", Value(true)}});
    auto ok = platform.invokeSync(app, taken);
    EXPECT_EQ(ok.response.asString(), "done");
    // Forced misprediction: the rare direction must squash.
    Value rare = Value::object({{"b0", Value(false)}});
    auto r = platform.invokeSync(app, rare);
    EXPECT_EQ(r.response.asString(), "failed");

    defaultSimContext().trace().disable();
    auto evs = defaultSimContext().trace().snapshot();
    defaultSimContext().trace().clear();

    // The full predict → speculate → validate → commit chain.
    EXPECT_FALSE(named(evs, "branch-predict").empty());
    EXPECT_FALSE(named(evs, "speculative-launch").empty());
    EXPECT_FALSE(named(evs, "validate").empty());
    EXPECT_FALSE(named(evs, "commit").empty());

    // A validation that failed...
    const auto validations = named(evs, "validate");
    EXPECT_TRUE(std::any_of(
        validations.begin(), validations.end(), [](const TraceEvent& e) {
            const std::string* c = argValue(e, "correct");
            return c != nullptr && *c == "0";
        }));

    // ...and the squash it triggered, carrying its reason.
    const auto squashes = named(evs, "squash");
    ASSERT_FALSE(squashes.empty());
    const std::string* reason = argValue(squashes.front(), "reason");
    ASSERT_NE(reason, nullptr);
    EXPECT_EQ(*reason, "control-mispredict");

    // Lifecycle spans stay balanced per (pid, tid) track.
    std::map<std::pair<std::uint64_t, std::uint64_t>, int> depth;
    for (const auto& e : evs) {
        if (e.phase == Phase::Begin)
            ++depth[{e.pid, e.tid}];
        else if (e.phase == Phase::End)
            --depth[{e.pid, e.tid}];
    }
    for (const auto& [track, d] : depth) {
        (void)track;
        EXPECT_EQ(d, 0);
    }

    // The whole thing exports as a loadable JSON document.
    const std::string json = obs::toChromeTraceJson(evs);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("speculative-launch"), std::string::npos);
}

TEST(TraceEndToEnd, DisabledTracingStaysEmpty)
{
    Application app = tracedBranchChain();
    PlatformOptions options;
    options.speculative = true;
    options.seed = 7;
    FaasPlatform platform(options);
    platform.deploy(app);
    platform.train(app, 5);
    EXPECT_FALSE(defaultSimContext().trace().enabled());
    EXPECT_EQ(defaultSimContext().trace().size(), 0u);
}

} // namespace
} // namespace specfaas
