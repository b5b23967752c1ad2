/**
 * @file
 * Function containers and the warm pool.
 *
 * Each container hosts one function's runtime: an initializer process
 * that stays alive across requests, and a per-request handler process
 * forked from it (§VI). A container serves one request at a time;
 * concurrent invocations of the same function need multiple
 * containers. Cold acquisition pays container creation plus runtime
 * setup (Fig. 3); warm acquisition pays only the handler fork.
 */

#ifndef SPECFAAS_CLUSTER_CONTAINER_HH
#define SPECFAAS_CLUSTER_CONTAINER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/inline_function.hh"
#include "common/symbol.hh"

#include "cluster/cluster_config.hh"
#include "cluster/node.hh"
#include "common/types.hh"
#include "sim/simulation.hh"

namespace specfaas {

class Fleet;
struct ContainerFunctionPool;

/** One container instance bound to a function and a node. */
struct Container
{
    std::uint64_t id;
    ContainerFunctionPool* owner;
    NodeId node;
    Tick idleSince = 0; ///< last release time (keep-alive eviction)
    bool busy = false;
    bool dead = false; ///< destroyed slot, parked on the free list

    const std::string& function() const;
};

/**
 * Per-function warm pool: the function's interned name, slab storage
 * for every container slot ever created for it, and the free-warm
 * subset. Containers point back at their pool, so the per-request
 * release path touches no string hashing at all. Slots live in a
 * deque (stable addresses, ~one heap block per dozen containers
 * instead of one per container); destroyed slots go on a free list
 * and are recycled by the next creation, so `live` — not a container
 * scan — answers containerCount().
 */
struct ContainerFunctionPool
{
    Symbol sym;
    std::string name; ///< resolved once, for trace rendering
    // Slot storage; entries may be dead (awaiting reuse via free_).
    std::deque<Container> slots;
    // Free warm containers (live subset of slots).
    std::deque<Container*> warm;
    // Destroyed slots ready for reuse.
    std::vector<Container*> free_;
    // Live (warm + busy) containers.
    std::size_t live = 0;
};

inline const std::string&
Container::function() const
{
    return owner->name;
}

/** Timing split of one container acquisition, for Fig. 3. */
struct AcquireTiming
{
    Tick containerCreation = 0;
    Tick runtimeSetup = 0;
    Tick handlerFork = 0;

    Tick total() const
    {
        return containerCreation + runtimeSetup + handlerFork;
    }
};

/**
 * Cluster-wide container manager with per-function warm pools.
 *
 * Placement is least-loaded-node (ties broken round-robin from a
 * cursor) at cold creation and prewarm time; warm containers are
 * reused wherever they live.
 */
class ContainerPool
{
  public:
    using AcquireCallback =
        InlineFunction<void(Container&, const AcquireTiming&), 48>;

    /**
     * @param sim simulation context
     * @param fleet the owning fleet (placement consults its node
     *        lifecycle states; acquisitions feed its keep-alive
     *        tracker when dynamics are on)
     * @param config platform cost constants
     */
    ContainerPool(Simulation& sim, Fleet& fleet,
                  const ClusterConfig& config);

    /** Folds cold/warm start totals into the global counters. */
    ~ContainerPool();

    /**
     * Acquire a container for @p function. Completes asynchronously:
     * immediately (plus handler fork time) when a warm container is
     * free, after a cold start otherwise.
     */
    void acquire(Symbol function, AcquireCallback done);

    /** Convenience: interns @p function (tests, setup code). */
    void
    acquire(std::string_view function, AcquireCallback done)
    {
        acquire(Symbol(function), std::move(done));
    }

    /** Return a container to the warm pool after a request. */
    void release(Container& c);

    /**
     * Destroy a container (container-kill squash policy). The slot
     * does not return to the warm pool; the next acquisition of this
     * function may cold-start.
     */
    void destroy(Container& c);

    /**
     * Pre-provision @p count warm containers for @p function without
     * charging cold-start time (models a warmed-up environment where
     * prior optimizations removed start-up overheads, §IV).
     */
    void prewarm(Symbol function, std::uint32_t count);

    /** Convenience: interns @p function (tests, setup code). */
    void
    prewarm(std::string_view function, std::uint32_t count)
    {
        prewarm(Symbol(function), count);
    }

    /**
     * Node @p node failed: drop its free warm containers (the warm
     * pool is node-local state and dies with the node). Busy
     * containers are destroyed by the engines when they crash the
     * handlers running in them.
     * @return number of warm containers lost
     */
    std::size_t dropNode(NodeId node);

    /**
     * Drain node @p node's warm pool (fleet scale-down). Same
     * mechanics as dropNode but traced as a fleet lifecycle action,
     * not a fault.
     * @return number of warm containers released
     */
    std::size_t evictWarmOnNode(NodeId node);

    /**
     * Evict warm containers idle past their function's keep-alive TTL
     * (fleet eviction daemon). Warm deques are ordered by idleSince,
     * so each scan stops at the first unexpired container.
     * @return number of containers evicted
     */
    std::size_t evictIdle(Tick now);

    /** Live (warm + busy) containers placed on @p node. */
    std::size_t liveOnNode(NodeId node) const;

    /** Total containers (warm + busy) for @p function. */
    std::size_t containerCount(Symbol function) const;

    /** Convenience: non-interning lookup by name (tests). */
    std::size_t
    containerCount(std::string_view function) const
    {
        return containerCount(Symbol::lookup(function));
    }

    /** Free warm containers across all functions (sampler gauge). */
    std::size_t warmCount() const;

    /** @{ Counters. */
    std::uint64_t coldStarts() const { return coldStarts_; }
    std::uint64_t warmStarts() const { return warmStarts_; }
    /** @} */

  private:
    /**
     * Place @p n containers, calling @p place(node) for each in
     * order: least-loaded placeable node, round-robin on ties (see
     * the definition). One scan of the workers per batch.
     */
    template <typename Place>
    void placeBatch(std::uint32_t n, Place&& place);
    /** Shared dropNode/evictWarmOnNode loop. */
    std::size_t reclaimWarmOnNode(NodeId node);

    Simulation& sim_;
    Fleet& fleet_;
    const ClusterConfig& config_;
    std::uint64_t nextContainer_ = 1;

    ContainerFunctionPool& poolFor(Symbol function);

    /** Create (or recycle) a live slot in @p pool placed on @p node. */
    Container* createContainer(ContainerFunctionPool& pool, NodeId node);

    /**
     * Mark @p c dead and park its slot on the free list; the caller
     * has already taken it off its warm deque.
     */
    void retire(Container& c);

    /**
     * Indexed by Symbol id — a per-function lookup is one array
     * access, no string hashing. Entries are heap-allocated so
     * Container::owner back-pointers survive table growth; unused
     * ids (symbols interned by other subsystems) stay null.
     */
    std::vector<std::unique_ptr<ContainerFunctionPool>> pools_;
    /** Live (warm + busy) containers per node, indexed by NodeId;
     * placeBatch grows it with the fleet. */
    std::vector<std::uint32_t> liveByNode_;
    std::uint64_t coldStarts_ = 0;
    std::uint64_t warmStarts_ = 0;
    std::uint32_t rrNext_ = 0;
};

} // namespace specfaas

#endif // SPECFAAS_CLUSTER_CONTAINER_HH
