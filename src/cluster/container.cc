#include "container.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fleet/fleet.hh"
#include "sim/sim_context.hh"

namespace specfaas {

ContainerPool::ContainerPool(Simulation& sim, Fleet& fleet,
                             const ClusterConfig& config)
    : sim_(sim), fleet_(fleet), config_(config)
{
    SPECFAAS_ASSERT(!fleet_.workers().empty(),
                    "container pool with no nodes");
}

ContainerPool::~ContainerPool()
{
    sim_.context().counters().add("cluster.cold_starts", coldStarts_);
    sim_.context().counters().add("cluster.warm_starts", warmStarts_);
}

template <typename Place>
void
ContainerPool::placeBatch(std::uint32_t n, Place&& place)
{
    // Least-loaded placement with round-robin tie-breaking, so
    // placements spread across the cluster deterministically: each
    // container goes to the first placeable (Ready, up) node of
    // minimum load at or after the cursor, wrapping, and the cursor
    // advances by one per container. Placing runs no events, so every
    // node's load and placeability stay fixed for the whole batch;
    // one scan finds the minimum load, its first candidate and the
    // first candidate at or after the cursor, and later containers
    // only move forward to the next candidate.
    const auto& workers = fleet_.workers();
    const std::size_t w = workers.size();
    if (liveByNode_.size() < w)
        liveByNode_.resize(w, 0); // the fleet grew
    const auto load = [](const Node& node) {
        return node.busyCores() +
               static_cast<std::uint32_t>(node.queueLength());
    };
    std::size_t cursor = rrNext_ % w;
    std::uint32_t minLoad = ~0u;
    std::size_t first = w; // first candidate overall
    std::size_t next = w;  // first candidate at or after the cursor
    for (std::size_t i = 0; i < w; ++i) {
        if (!fleet_.placeable(workers[i]->id()))
            continue;
        const auto l = load(*workers[i]);
        if (l < minLoad) {
            minLoad = l;
            first = i;
            next = w;
        }
        if (l == minLoad && next == w && i >= cursor)
            next = i;
    }
    const auto candidate = [&](std::size_t i) {
        return fleet_.placeable(workers[i]->id()) &&
               load(*workers[i]) == minLoad;
    };
    for (std::uint32_t k = 0; k < n; ++k) {
        const std::size_t at = cursor;
        cursor = (cursor + 1) % w;
        if (first == w) {
            // Nothing is placeable: fall back to the node after the
            // cursor.
            place(*workers[cursor]);
            continue;
        }
        place(*workers[next == w ? first : next]);
        if (k + 1 == n)
            break;
        // Keep `next` the first candidate at or after the new cursor.
        if (cursor == 0) {
            next = first;
        } else if (next == at) {
            do
                ++next;
            while (next < w && !candidate(next));
        }
    }
    rrNext_ = static_cast<std::uint32_t>(cursor);
}

ContainerFunctionPool&
ContainerPool::poolFor(Symbol function)
{
    const std::size_t i = function.id();
    if (i >= pools_.size())
        pools_.resize(i + 1);
    if (pools_[i] == nullptr) {
        pools_[i] = std::make_unique<ContainerFunctionPool>();
        pools_[i]->sym = function;
        pools_[i]->name = function.str();
    }
    return *pools_[i];
}

Container*
ContainerPool::createContainer(ContainerFunctionPool& pool, NodeId node)
{
    Container* c;
    if (!pool.free_.empty()) {
        c = pool.free_.back();
        pool.free_.pop_back();
    } else {
        c = &pool.slots.emplace_back();
    }
    c->id = nextContainer_++;
    c->owner = &pool;
    c->node = node;
    c->busy = false;
    c->dead = false;
    ++pool.live;
    ++liveByNode_[node];
    return c;
}

void
ContainerPool::retire(Container& c)
{
    c.dead = true;
    --c.owner->live;
    --liveByNode_[c.node];
    c.owner->free_.push_back(&c);
}

void
ContainerPool::acquire(Symbol function, AcquireCallback done)
{
    OBS_ZONE(sim_.context().profiler(), "cluster/acquire");
    if (fleet_.dynamic())
        fleet_.noteAcquire(function);
    ContainerFunctionPool& pool = poolFor(function);
    if (!pool.warm.empty()) {
        Container* c = pool.warm.front();
        pool.warm.pop_front();
        c->busy = true;
        ++warmStarts_;
        if (auto& tr = sim_.context().trace(); tr.enabled()) {
            tr.instant(obs::cat::kContainer, "warm-start", sim_.now(),
                       obs::nodePid(c->node),
                       obs::kContainerTidBase + c->id,
                       {{"function", pool.name}});
        }
        AcquireTiming timing;
        timing.handlerFork = config_.handlerForkOverhead;
        sim_.events().schedule(timing.handlerFork,
                               [c, timing,
                                cb = std::move(done)]() mutable {
                                   cb(*c, timing);
                               });
        return;
    }

    // Cold start: create a container on the least-loaded node.
    ++coldStarts_;
    Container* c = nullptr;
    placeBatch(1, [&](const Node& node) {
        c = createContainer(pool, node.id());
    });
    c->busy = true;

    AcquireTiming timing;
    timing.containerCreation = config_.containerCreation;
    timing.runtimeSetup = config_.runtimeSetup;
    timing.handlerFork = config_.handlerForkOverhead;
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.begin(obs::cat::kContainer, "cold-start", sim_.now(),
                 obs::nodePid(c->node), obs::kContainerTidBase + c->id,
                 {{"function", pool.name},
                  {"container_creation_us",
                   strFormat("%lld", static_cast<long long>(
                                         timing.containerCreation)),
                   true},
                  {"runtime_setup_us",
                   strFormat("%lld", static_cast<long long>(
                                         timing.runtimeSetup)),
                   true},
                  {"handler_fork_us",
                   strFormat("%lld", static_cast<long long>(
                                         timing.handlerFork)),
                   true}});
    }
    sim_.events().schedule(
        timing.total(),
        [this, c, timing, cb = std::move(done)]() mutable {
            if (auto& tr = sim_.context().trace(); tr.enabled()) {
                tr.end(obs::cat::kContainer, "cold-start", sim_.now(),
                       obs::nodePid(c->node),
                       obs::kContainerTidBase + c->id);
            }
            // The node died (or left service) while this container
            // was being created: the creation is lost; place the
            // request again.
            if (!fleet_.placeable(c->node)) {
                ContainerFunctionPool& p = *c->owner;
                destroy(*c);
                acquire(p.sym, std::move(cb));
                return;
            }
            cb(*c, timing);
        });
}

void
ContainerPool::release(Container& c)
{
    OBS_ZONE(sim_.context().profiler(), "cluster/release");
    SPECFAAS_ASSERT(c.busy, "releasing idle container %llu",
                    static_cast<unsigned long long>(c.id));
    // A container on a failed or draining node cannot rejoin the warm
    // pool; its state dies with the node.
    if (!fleet_.placeable(c.node)) {
        destroy(c);
        return;
    }
    c.busy = false;
    c.idleSince = sim_.now();
    c.owner->warm.push_back(&c);
}

void
ContainerPool::destroy(Container& c)
{
    SPECFAAS_ASSERT(!c.dead, "destroying container %llu twice",
                    static_cast<unsigned long long>(c.id));
    // Only an idle container sits in the warm deque.
    if (!c.busy) {
        auto& warm = c.owner->warm;
        auto it = std::find(warm.begin(), warm.end(), &c);
        SPECFAAS_ASSERT(it != warm.end(), "idle container %llu not warm",
                        static_cast<unsigned long long>(c.id));
        warm.erase(it);
    }
    retire(c);
}

void
ContainerPool::prewarm(Symbol function, std::uint32_t count)
{
    ContainerFunctionPool& pool = poolFor(function);
    placeBatch(count, [&](const Node& node) {
        Container* c = createContainer(pool, node.id());
        c->idleSince = sim_.now();
        pool.warm.push_back(c);
    });
}

std::size_t
ContainerPool::reclaimWarmOnNode(NodeId node)
{
    std::size_t dropped = 0;
    for (auto& entry : pools_) {
        if (entry == nullptr)
            continue;
        ContainerFunctionPool& pool = *entry;
        // One pass; survivors keep their idleSince order (evictIdle).
        const auto kept = std::remove_if(
            pool.warm.begin(), pool.warm.end(), [&](Container* c) {
                if (c->node != node)
                    return false;
                retire(*c);
                ++dropped;
                return true;
            });
        pool.warm.erase(kept, pool.warm.end());
    }
    return dropped;
}

std::size_t
ContainerPool::dropNode(NodeId node)
{
    const std::size_t dropped = reclaimWarmOnNode(node);
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kFault, "warm-pool-lost", sim_.now(),
                   obs::nodePid(node), 0,
                   {{"dropped", strFormat("%zu", dropped), true}});
    }
    return dropped;
}

std::size_t
ContainerPool::evictWarmOnNode(NodeId node)
{
    const std::size_t dropped = reclaimWarmOnNode(node);
    if (auto& tr = sim_.context().trace(); tr.enabled()) {
        tr.instant(obs::cat::kFleet, "warm-pool-drained", sim_.now(),
                   obs::nodePid(node), 0,
                   {{"dropped", strFormat("%zu", dropped), true}});
    }
    return dropped;
}

std::size_t
ContainerPool::evictIdle(Tick now)
{
    std::size_t evicted = 0;
    for (auto& entry : pools_) {
        if (entry == nullptr)
            continue;
        ContainerFunctionPool& pool = *entry;
        if (pool.warm.empty())
            continue;
        const Tick keepAlive = fleet_.keepAliveFor(pool.sym);
        // Warm deques are ordered by idleSince (releases append at
        // nondecreasing simulated times), so the expired prefix is
        // exactly the containers to evict.
        while (!pool.warm.empty()) {
            Container* c = pool.warm.front();
            if (now - c->idleSince < keepAlive)
                break;
            pool.warm.pop_front();
            retire(*c);
            ++evicted;
        }
    }
    return evicted;
}

std::size_t
ContainerPool::liveOnNode(NodeId node) const
{
    return node < liveByNode_.size() ? liveByNode_[node] : 0;
}

std::size_t
ContainerPool::containerCount(Symbol function) const
{
    const std::size_t i = function.id();
    return i < pools_.size() && pools_[i] != nullptr ? pools_[i]->live
                                                     : 0;
}

std::size_t
ContainerPool::warmCount() const
{
    std::size_t n = 0;
    for (const auto& entry : pools_)
        if (entry != nullptr)
            n += entry->warm.size();
    return n;
}

} // namespace specfaas
