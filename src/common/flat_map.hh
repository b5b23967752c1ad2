/**
 * @file
 * Sorted-vector map for small keyed collections.
 *
 * The invocation records keep many small keyed collections (pipeline
 * slots, call-site observations, branch hints, fault attempts) whose
 * population is a handful of entries. As std::map each entry is a
 * separately allocated red-black node; a FlatMap keeps the entries
 * sorted in one contiguous vector, so lookups binary-search hot cache
 * lines and insertion shifts a few elements instead of rebalancing.
 *
 * The std::map surface the simulator uses is provided: operator[],
 * at, find, lower_bound, count, erase (by key and iterator),
 * emplace, iteration in key order, size/empty/clear. References are
 * invalidated by insertion and erasure (it is a vector) — callers
 * that held references across mutations under std::map must not use
 * this type.
 */

#ifndef SPECFAAS_COMMON_FLAT_MAP_HH
#define SPECFAAS_COMMON_FLAT_MAP_HH

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace specfaas {

template <typename K, typename V, typename Compare = std::less<K>>
class FlatMap
{
  public:
    using value_type = std::pair<K, V>;
    using iterator = typename std::vector<value_type>::iterator;
    using const_iterator =
        typename std::vector<value_type>::const_iterator;

    FlatMap() = default;
    explicit FlatMap(Compare cmp) : cmp_(std::move(cmp)) {}

    iterator begin() { return entries_.begin(); }
    iterator end() { return entries_.end(); }
    const_iterator begin() const { return entries_.begin(); }
    const_iterator end() const { return entries_.end(); }

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    void clear() { entries_.clear(); }

    iterator
    lower_bound(const K& key)
    {
        return std::lower_bound(entries_.begin(), entries_.end(), key,
                                [this](const value_type& e, const K& k) {
                                    return cmp_(e.first, k);
                                });
    }

    const_iterator
    lower_bound(const K& key) const
    {
        return std::lower_bound(entries_.begin(), entries_.end(), key,
                                [this](const value_type& e, const K& k) {
                                    return cmp_(e.first, k);
                                });
    }

    iterator
    find(const K& key)
    {
        auto it = lower_bound(key);
        return it != entries_.end() && !cmp_(key, it->first)
                   ? it
                   : entries_.end();
    }

    const_iterator
    find(const K& key) const
    {
        auto it = lower_bound(key);
        return it != entries_.end() && !cmp_(key, it->first)
                   ? it
                   : entries_.end();
    }

    std::size_t count(const K& key) const
    {
        return find(key) != end() ? 1 : 0;
    }

    V&
    operator[](const K& key)
    {
        auto it = lower_bound(key);
        if (it != entries_.end() && !cmp_(key, it->first))
            return it->second;
        it = entries_.emplace(it, key, V());
        return it->second;
    }

    V&
    at(const K& key)
    {
        auto it = find(key);
        SPECFAAS_ASSERT(it != end(), "FlatMap::at missing key");
        return it->second;
    }

    const V&
    at(const K& key) const
    {
        auto it = find(key);
        SPECFAAS_ASSERT(it != end(), "FlatMap::at missing key");
        return it->second;
    }

    /** Insert-or-ignore, like std::map::emplace. */
    template <typename KK, typename VV>
    std::pair<iterator, bool>
    emplace(KK&& key, VV&& value)
    {
        auto it = lower_bound(key);
        if (it != entries_.end() && !cmp_(key, it->first))
            return {it, false};
        it = entries_.emplace(it, std::forward<KK>(key),
                              std::forward<VV>(value));
        return {it, true};
    }

    std::size_t
    erase(const K& key)
    {
        auto it = find(key);
        if (it == end())
            return 0;
        entries_.erase(it);
        return 1;
    }

    iterator erase(iterator it) { return entries_.erase(it); }

    /**
     * Erase every entry with key >= @p key (a suffix of the sorted
     * vector) in one shot: one binary search plus one range erase,
     * instead of an O(suffix x size) erase-per-element loop.
     * @return number of entries erased
     */
    std::size_t
    eraseFrom(const K& key)
    {
        auto it = lower_bound(key);
        const auto n = static_cast<std::size_t>(entries_.end() - it);
        entries_.erase(it, entries_.end());
        return n;
    }

    /**
     * Erase every entry for which @p pred (called on the value_type)
     * returns true, in a single compacting pass. Each surviving entry
     * is moved at most once and the predicate runs exactly size()
     * times — the single-pass purge the squash path relies on.
     * @return number of entries erased
     */
    template <typename Pred>
    std::size_t
    eraseIf(Pred pred)
    {
        auto keep = std::remove_if(entries_.begin(), entries_.end(),
                                   std::move(pred));
        const auto n = static_cast<std::size_t>(entries_.end() - keep);
        entries_.erase(keep, entries_.end());
        return n;
    }

  private:
    std::vector<value_type> entries_;
    Compare cmp_;
};

} // namespace specfaas

#endif // SPECFAAS_COMMON_FLAT_MAP_HH
