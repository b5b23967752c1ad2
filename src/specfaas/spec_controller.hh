/**
 * @file
 * The SpecFaaS speculative execution engine (§IV, §V).
 *
 * Per invocation the controller maintains the Function Execution
 * Pipeline (program-ordered slots of not-yet-committed functions), a
 * Data Buffer, and walks the application's Sequence Table launching
 * functions early:
 *
 *  - control dependences are predicted with the path-indexed branch
 *    predictor (§V-A);
 *  - data dependences are satisfied speculatively from memoization
 *    tables (§V-B), including predicted callee arguments of implicit
 *    workflows (§V-D);
 *  - global writes are buffered per function and committed in program
 *    order; out-of-order RAW dependences squash the premature reader
 *    and its successors (§V-C);
 *  - mispredictions squash downstream slots and restart the walk on
 *    the corrected path (Figure 6).
 *
 * Tables (branch predictor, memoization, learned call graph) persist
 * across invocations and are only updated with committed data (§V-E).
 */

#ifndef SPECFAAS_SPECFAAS_SPEC_CONTROLLER_HH
#define SPECFAAS_SPECFAAS_SPEC_CONTROLLER_HH

#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "common/arena.hh"
#include "common/flat_map.hh"
#include "common/slot_array.hh"
#include "common/symbol.hh"
#include "obs/counter_registry.hh"
#include "runtime/engine.hh"
#include "runtime/hooks.hh"
#include "runtime/interpreter.hh"
#include "runtime/launcher.hh"
#include "sim/simulation.hh"
#include "specfaas/branch_predictor.hh"
#include "specfaas/data_buffer.hh"
#include "specfaas/memo_table.hh"
#include "specfaas/spec_config.hh"
#include "specfaas/squash_minimizer.hh"
#include "storage/kv_store.hh"
#include "workflow/flow_program.hh"
#include "workflow/registry.hh"

namespace specfaas {

/**
 * Aggregate engine statistics across all invocations — a snapshot of
 * the controller's CounterRegistry, kept as a struct so callers read
 * plain fields.
 */
struct SpecStats
{
    std::uint64_t speculativeLaunches = 0;
    std::uint64_t squashes = 0;
    std::uint64_t controlMispredicts = 0;
    std::uint64_t dataMispredicts = 0;
    std::uint64_t bufferViolations = 0;
    std::uint64_t stalledReads = 0;
    std::uint64_t deferredSideEffects = 0;
    std::uint64_t commits = 0;
    std::uint64_t pureSkips = 0;
};

/** The SpecFaaS engine. */
class SpecController : public WorkflowEngine, public RuntimeHooks
{
  public:
    SpecController(Simulation& sim, Cluster& cluster, KvStore& store,
                   const FunctionRegistry& registry,
                   SpecConfig config = {});

    ~SpecController() override;

    void invoke(const Application& app, Value input,
                ResultCallback done) override;

    std::string name() const override { return "specfaas"; }

    /** @{ RuntimeHooks. */
    void storageGet(const InstancePtr& inst, const std::string& key,
                    ValueCallback done) override;
    void storagePut(const InstancePtr& inst, const std::string& key,
                    Value value, DoneCallback done) override;
    void functionCall(const InstancePtr& inst, std::size_t call_site,
                      Symbol callee, Value args,
                      ValueCallback done) override;
    void httpRequest(const InstancePtr& inst,
                     DoneCallback done) override;
    void completed(const InstancePtr& inst, Value output) override;
    void crashed(const InstancePtr& inst, FaultKind kind) override;
    /** @} */

    void onNodeFailure(NodeId node) override;

    /** @{ Introspection for tests and ablation benches. */
    const SpecConfig& config() const { return config_; }
    BranchPredictor& branchPredictor() { return bp_; }
    MemoStore& memoStore() { return memo_; }
    SquashMinimizer& squashMinimizer() { return minimizer_; }
    /** Snapshot of the engine counters. */
    SpecStats stats() const;
    /** The underlying named-counter registry. */
    const obs::CounterRegistry& counters() const { return counters_; }
    std::size_t liveInvocations() const override { return live_.size(); }
    /** Speculatively-launched, not-yet-completed instances in flight. */
    std::size_t speculativeInFlight() const;

    /** Dump every live invocation's pipeline state (diagnostics). */
    std::string debugDump() const;

    /**
     * Generation-tagged handles of every live pipeline slot, across
     * all in-flight invocations. Tests capture this mid-run (from a
     * handler body) and assert the handles miss once their slots are
     * squashed, committed, or torn down — the no-ABA property.
     */
    std::vector<SlotHandle> liveSlotHandles() const;

    /** Whether @p h still resolves to a live pipeline slot. */
    bool
    slotHandleResolves(SlotHandle h) const
    {
        return slotArena_.get(h) != nullptr;
    }
    /** @} */

  private:
    /**
     * Commit-time effects of one function: what the tables absorb and
     * what the invocation's accounting adds. A merged callee's record
     * waits in its caller's slot until the caller truly commits: a
     * callee merged into a still-speculative caller must not update
     * tables or accounting yet (§V-E), and is forgotten wholesale if
     * the caller is squashed. The record owns the data it needs, so
     * it keeps no instance alive.
     */
    struct PendingCommit
    {
        OrderKey order;
        Symbol function;
        Value input;
        Value output;
        std::uint64_t pathHash = 0;
        /** @{ The instance's call-site observations (§V-D). */
        FlatMap<std::size_t, Value> callArgs;
        FlatMap<std::size_t, Symbol> callees;
        std::vector<std::pair<std::size_t, bool>> callSiteOutcomes;
        /** @} */
        /** @{ The instance's Fig. 3 timing. */
        Tick containerCreation = 0;
        Tick runtimeSetup = 0;
        Tick platformOverhead = 0;
        Tick execution = 0;
        /** @} */
    };

    struct SpecInvocation;

    /** One pipeline entry: a not-yet-committed dynamic function. */
    struct Slot
    {
        Symbol function;
        OrderKey order;
        FlowIndex flowNode = kFlowNone;
        InstancePtr inst;

        /** Owning invocation (slots only resolve while it is live). */
        SpecInvocation* inv = nullptr;
        /** This slot's own handle in the controller's slot arena. */
        SlotHandle self;
        /** Caller's slot (implicit callees); stale once the caller is
         * squashed or committed. */
        SlotHandle callerSlot;

        Value input;
        InputSource inputSource = InputSource::Actual;
        /** Order of the slot whose committed output validates this
         * slot's input; empty when the input is Actual. */
        OrderKey carryProducer;
        bool inputValidated = true;
        bool launchedSpeculatively = false;

        bool completed = false;
        bool skippedPure = false;
        Value output;
        std::uint64_t pathHash = pathhash::kEmpty;

        /** The walk fed this slot's memoized output to successors;
         * validate against the actual output at completion. */
        bool outputFedForward = false;
        Value memoPredictedOutput;

        /** @{ Branch metadata (explicit workflows). */
        bool isBranch = false;
        bool predictionMade = false;
        bool predictionCorrect = false;
        FlowIndex predictedTarget = kFlowNone;
        FlowIndex actualTarget = kFlowNone;
        std::size_t actualOutcome = 0;
        /** @} */

        /** @{ Implicit-callee metadata. */
        bool isImplicitCallee = false;
        InstanceId callerId = 0;
        std::size_t callSite = 0;
        bool adopted = false;
        bool callPredictionMade = false;
        ValueCallback returnTo;
        /** @} */

        /** Parked side-effect continuations (§VI). */
        std::vector<DoneCallback> parkedEffects;
        bool nonSpeculative = false;

        /** Merged callees awaiting this slot's commit. */
        std::vector<PendingCommit> pending;
    };

    /** A cursor of the predicted-path walk (explicit workflows). */
    struct Frontier
    {
        FlowIndex flowIdx = kFlowNone;
        Value carry;
        InputSource source = InputSource::Actual;
        OrderKey carryProducer;
        OrderKey order;
        std::uint64_t pathHash = pathhash::kEmpty;
        bool afterUnresolvedBranch = false;

        /** Carry @p s's input: a validated input is Actual, any other
         * keeps the slot's source and producer. */
        void
        carryInputOf(const Slot& s)
        {
            carry = s.input;
            source = s.inputValidated ? InputSource::Actual : s.inputSource;
            carryProducer = s.inputValidated ? OrderKey{} : s.carryProducer;
        }
    };

    struct JoinState
    {
        std::size_t pending = 0;
        ValueArray outputs;
        bool anyPredicted = false;
        OrderKey worstProducer;
    };

    struct ForkMeta
    {
        Frontier restart; // re-walk the whole fork on rewind
    };

    struct ParkedRead
    {
        InstancePtr reader;
        std::uint64_t epoch;
        std::string key;
        Symbol producer;
        ValueCallback done;
    };

    struct SpecInvocation
    {
        InvocationResult result;
        const Application* app = nullptr;
        const FlowProgram* program = nullptr;
        ResultCallback done;

        /** Pipeline: program order → slot handle. Commit retires the
         * head and squash truncates a suffix. The Slot objects
         * themselves live in the controller's slab-stable slot
         * arena; handles go stale the moment a slot is squashed or
         * committed, which is exactly the old byInstance-absence
         * semantics. */
        FlatMap<OrderKey, SlotHandle, OrderLess> slots;
        std::unique_ptr<DataBuffer> buffer;

        /** Count of live slots with launchedSpeculatively set and
         * completed unset — the depth throttle's input, maintained
         * incrementally instead of recounted by pipeline scan. */
        std::size_t specLive = 0;

        /** Orders of launched, not-yet-completed branch slots. */
        std::set<OrderKey, OrderLess> openBranches;

        /** Whether a branch before @p order is still unresolved
         * ("is anything before X control-speculative?"). */
        bool
        branchOpenBefore(const OrderKey& order) const
        {
            return !openBranches.empty() &&
                   orderKeyLess(*openBranches.begin(), order);
        }

        /** Frontiers blocked on a producer slot's completion. */
        FlatMap<OrderKey, Frontier, OrderLess> blocked;
        /** Frontiers parked by the speculation-depth throttle. */
        std::list<Frontier> depthBlocked;
        FlatMap<FlowIndex, JoinState> joins;
        FlatMap<OrderKey, ForkMeta, OrderLess> forks;

        /** Pending speculative callees: caller id + call site → slot
         * order. */
        FlatMap<std::pair<InstanceId, std::size_t>, OrderKey>
            pendingCallees;

        std::vector<ParkedRead> parkedReads;

        /** (program order, function) pairs; sorted into
         * result.executedSequence when the invocation finishes. */
        std::vector<std::pair<OrderKey, Symbol>> sequence;

        /**
         * Results already observed at a pipeline position during
         * this invocation, qualified by function AND input: a hint
         * applies only to a re-execution of the same function with
         * the same input, so wrong-path or wrong-input executions
         * can never poison a re-walk, and no erasure is needed on
         * squash. Re-walks prefer hints over the predictor / memo
         * tables (which update only at commit), breaking the replay
         * loops a restarted fork would otherwise enter.
         */
        struct BranchHint
        {
            Symbol function;
            Value input;
            FlowIndex target = kFlowNone;
        };
        FlatMap<OrderKey, BranchHint, OrderLess> branchHints;

        struct OutputHint
        {
            Symbol function;
            Value input;
            Value output;
        };
        FlatMap<OrderKey, OutputHint, OrderLess> outputHints;

        /**
         * Flow coordinates irrevocably committed in this invocation.
         * A rewind that restarts a fork region can walk back over
         * them (the fork restart frontier predates the commits); the
         * walk replays the recorded outcome instead of re-launching.
         * Re-execution would double-apply storage effects and
         * diverge from the baseline's crash-retry semantics, which
         * never re-runs completed work.
         */
        struct CommittedNode
        {
            Symbol function;
            Value input;
            Value output;
            FlowIndex actualTarget = kFlowNone; // branches only
        };
        FlatMap<OrderKey, CommittedNode, OrderLess> committed;

        /**
         * Outstanding container-kill squash debt: number of upcoming
         * launches that must wait for a replacement container
         * because their warm container was destroyed (§VI, second
         * squash approach).
         */
        std::uint32_t containerKillDebt = 0;

        /** Fault-retry attempts per pipeline coordinate; survives the
         * squash/relaunch cycle so give-up thresholds are honest. */
        FlatMap<OrderKey, std::uint32_t, OrderLess> faultAttempts;

        /** Response payload observed when the walk reaches the end
         * of the program. */
        Value responseValue;
        bool responseSeen = false;
        bool finished = false;
    };

    /** Values are owned by invPool_, not the map. */
    using InvMap = std::unordered_map<InvocationId, SpecInvocation*>;

    /**
     * Learned implicit call graph (part of the Sequence Table), with
     * the speculate-callee launch-set derivation memoized per
     * (function, site): the resolved registry definition and its
     * annotation gates are cached at commit-time learning, so
     * repeated invocations of the same workflow shape skip the
     * registry probe and annotation re-derivation per candidate.
     * Refreshed whenever the learned callee changes. Relies on the
     * registry being immutable for the controller's lifetime.
     */
    struct CallSiteInfo
    {
        Symbol callee;
        const FunctionDef* def = nullptr;
        bool nonSpec = false;
        bool pure = false;
    };

    const FlowProgram& compiled(const Application& app);
    SpecInvocation* find(InvocationId id);
    SpecInvocation& invocationOf(const InstancePtr& inst);
    Slot* slotOf(const InstancePtr& inst);
    /** Resolve a pipeline map entry (handle must be live). */
    Slot&
    slotAt(SlotHandle h)
    {
        return slotArena_.at(h);
    }

    /**
     * A fresh slot of @p inv in the slot arena, input fields set; the
     * caller fills in the kind-specific ones.
     */
    Slot& newSlot(SpecInvocation& inv, Symbol function, OrderKey order,
                  Value input, InputSource source,
                  std::uint64_t path_hash);

    /**
     * Launch @p slot's function and enter the slot into the pipeline:
     * Data Buffer column, speculative-launch accounting, speculative
     * callees and promotion. @p spec carries the caller-specific
     * launch fields (preOverhead, controlSpeculative, caller); the
     * rest come from the slot. Unless @p pay_kill_debt is false the
     * launch first repays one unit of container-kill debt.
     */
    void launchInto(SpecInvocation& inv, Slot& slot, LaunchSpec spec,
                    bool pay_kill_debt = true);

    /** Launch the root function of an implicit application. */
    void launchRoot(SpecInvocation& inv, Value input);

    /** @{ Explicit-workflow machinery. */
    void walk(SpecInvocation& inv, Frontier f);
    Slot& launchSlot(SpecInvocation& inv, const Frontier& f,
                     const FlowNode& node);
    void onExplicitComplete(SpecInvocation& inv, Slot& slot);
    void resumeBlockedOn(SpecInvocation& inv, const Slot& slot);
    void tryCommit(SpecInvocation& inv);
    void commitSlot(SpecInvocation& inv, Slot& slot);
    /** @} */

    /** @{ Implicit-workflow machinery. */
    void speculateCallees(SpecInvocation& inv, Slot& slot);
    void onImplicitComplete(SpecInvocation& inv, Slot& slot);
    void deliverCallee(SpecInvocation& inv, Slot& slot);
    void launchCalleeSlot(SpecInvocation& inv,
                          const InstancePtr& caller,
                          std::size_t call_site, Symbol callee,
                          Value args, InputSource source,
                          bool call_predicted,
                          ValueCallback return_to);
    /** @} */

    /**
     * Squash every live slot with order >= @p from. Adopted callees
     * whose callers survive are relaunched with their validated
     * arguments. Returns the number of squashed slots.
     */
    std::size_t squashRange(SpecInvocation& inv,
                            const OrderKey& from_ref,
                            SquashReason reason);

    /**
     * Squash from @p f's position and re-walk from there: the one
     * recovery sequence of control and data mispredictions, Data
     * Buffer violations and explicit-node crashes (Figure 6).
     */
    void squashAndRewalk(SpecInvocation& inv, Frontier f,
                         SquashReason reason);

    /**
     * If @p f lies inside a fork region, replace it with the fork's
     * restart frontier, whose order is the fork base: the whole fork
     * re-executes.
     */
    void adjustRewindToForkBase(SpecInvocation& inv, Frontier& f);

    /** @{ Fault recovery. */
    /** Delayed (post-backoff) squash + relaunch of a crashed slot. */
    void recoverFromCrash(InvocationId id, SlotHandle slot);
    /** Retries exhausted: squash everything, answer the error. */
    void failInvocation(SpecInvocation& inv, Symbol function);
    /** @} */

    void maybePromote(SpecInvocation& inv, Slot& slot);
    /** Learn (or confirm) a call-graph edge at commit time. */
    void noteCallSite(Symbol function, std::size_t call_site,
                      Symbol callee);
    void resumeParkedReads(SpecInvocation& inv);
    void resumeDepthBlocked(SpecInvocation& inv);
    void performRead(SpecInvocation& inv, const InstancePtr& inst,
                     const std::string& key,
                     ValueCallback done);
    /** Move @p slot's commit effects out of it and its instance. */
    static PendingCommit takeCommitRecord(Slot& slot);
    /** Apply @p p to the tables (memo rows only when @p memoize) and
     * to the invocation's accounting. */
    void applyCommit(SpecInvocation& inv, PendingCommit&& p, bool memoize);
    void finish(SpecInvocation& inv);

    /** Current allowed number of speculative in-flight slots. */
    std::uint32_t effectiveSpecDepth() const;
    std::size_t liveSpeculativeSlots(const SpecInvocation& inv) const;

    Simulation& sim_;
    Cluster& cluster_;
    KvStore& store_;
    const FunctionRegistry& registry_;
    SpecConfig config_;
    Interpreter interp_;
    Launcher launcher_;
    /** Hoisted profiler reference (see Interpreter::profiler_). */
    obs::Profiler& profiler_;

    BranchPredictor bp_;
    MemoStore memo_;
    SquashMinimizer minimizer_;

    /**
     * Engine counters, merged into obs::counters() on destruction.
     * Hot paths increment through the cached references below, which
     * stay valid for the registry's lifetime (node-based storage).
     */
    obs::CounterRegistry counters_;
    std::uint64_t& ctrSpeculativeLaunches_ =
        counters_.counter("spec.speculative_launches");
    std::uint64_t& ctrSquashes_ = counters_.counter("spec.squashes");
    std::uint64_t& ctrControlMispredicts_ =
        counters_.counter("spec.control_mispredicts");
    std::uint64_t& ctrDataMispredicts_ =
        counters_.counter("spec.data_mispredicts");
    std::uint64_t& ctrBufferViolations_ =
        counters_.counter("spec.buffer_violations");
    std::uint64_t& ctrStalledReads_ =
        counters_.counter("spec.stalled_reads");
    std::uint64_t& ctrDeferredSideEffects_ =
        counters_.counter("spec.deferred_side_effects");
    std::uint64_t& ctrCommits_ = counters_.counter("spec.commits");
    std::uint64_t& ctrPureSkips_ = counters_.counter("spec.pure_skips");

    /**
     * Squash-cascade linkage for tracing: every squashRange gets a
     * fresh id; a squash triggered while another is being processed
     * records that one as its parent.
     */
    std::uint64_t nextSquashId_ = 1;
    std::uint64_t activeSquashId_ = 0;

    /** Learned call graph: (function, call site) → callee. */
    FlatMap<std::pair<Symbol, std::size_t>, CallSiteInfo> callGraph_;

    /**
     * Slab-stable storage for every live pipeline slot across all
     * invocations. Instances carry their slot's generation-tagged
     * handle, so hook dispatch resolves instance → slot with one
     * array access instead of a per-invocation hash probe; squash,
     * commit, and give-up teardown bump the generation, making every
     * outstanding handle miss (no ABA on index reuse).
     */
    SlotArray<Slot> slotArena_;

    /**
     * Arena for invocation records. Invocations churn at request
     * rate; pooling them recycles their (large) footprint through a
     * freelist instead of the heap, and anything still live when the
     * controller dies is destroyed with the pool.
     */
    SlabPool<SpecInvocation, 16> invPool_;

    InvMap live_;

    /**
     * Invocations removed from live_ whose storage must outlive the
     * current event: frames up the completion stack (completed() →
     * resumeBlockedOn() → walk() → tryCommit() → finish()) still hold
     * references into the invocation when finish() runs, so freeing
     * it immediately is a use-after-free. finish() parks the record
     * here and a daemon event recycles it into invPool_ at the
     * event-loop boundary, where no such frame can exist.
     */
    std::vector<SpecInvocation*> graveyard_;

    std::unordered_map<const Application*, FlowProgram> programs_;
};

} // namespace specfaas

#endif // SPECFAAS_SPECFAAS_SPEC_CONTROLLER_HH
