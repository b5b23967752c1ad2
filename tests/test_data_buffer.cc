/** @file Unit and property tests for the Data Buffer (§V-C, §V-D). */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "common/rng.hh"
#include "specfaas/data_buffer.hh"

namespace specfaas {
namespace {

class DataBufferTest : public ::testing::Test
{
  protected:
    DataBufferTest() : buffer(store) {}

    void
    openColumns(std::initializer_list<InstanceId> owners)
    {
        std::int32_t pos = 0;
        for (InstanceId id : owners)
            buffer.addColumn(id, OrderKey{pos++});
    }

    KvStore store;
    DataBuffer buffer;
};

TEST_F(DataBufferTest, ReadMissesEmptyBuffer)
{
    openColumns({1});
    auto r = buffer.read(1, "rec");
    EXPECT_FALSE(r.forwarded);
    EXPECT_FALSE(r.value.has_value());
}

TEST_F(DataBufferTest, InOrderRawForwardsValue)
{
    openColumns({1, 2});
    buffer.write(1, "rec", Value(42));
    auto r = buffer.read(2, "rec");
    ASSERT_TRUE(r.forwarded);
    EXPECT_EQ(r.value->asInt(), 42);
    EXPECT_EQ(buffer.forwards(), 1u);
}

TEST_F(DataBufferTest, ReadPrefersYoungestPredecessor)
{
    openColumns({1, 2, 3});
    buffer.write(1, "rec", Value(1));
    buffer.write(2, "rec", Value(2));
    auto r = buffer.read(3, "rec");
    ASSERT_TRUE(r.forwarded);
    EXPECT_EQ(r.value->asInt(), 2);
}

TEST_F(DataBufferTest, SuccessorWriteInvisibleToPredecessorRead)
{
    openColumns({1, 2});
    buffer.write(2, "rec", Value(7)); // out-of-order WAR setup
    auto r = buffer.read(1, "rec");
    EXPECT_FALSE(r.forwarded); // predecessor must not see it
}

TEST_F(DataBufferTest, OutOfOrderRawSquashesReader)
{
    openColumns({1, 2});
    (void)buffer.read(2, "rec"); // premature read by successor
    auto violators = buffer.write(1, "rec", Value(1));
    ASSERT_EQ(violators.size(), 1u);
    EXPECT_EQ(violators[0], 2u);
    EXPECT_EQ(buffer.violations(), 1u);
}

TEST_F(DataBufferTest, WriteScanStopsAtRedefinition)
{
    openColumns({1, 2, 3});
    // Function 2 redefines the record; function 3 reads 2's value.
    buffer.write(2, "rec", Value(2));
    (void)buffer.read(3, "rec");
    // Function 1's late write must not squash 3 (its read got 2's
    // value, which is still correct) — the scan stops at 2's W bit.
    auto violators = buffer.write(1, "rec", Value(1));
    EXPECT_TRUE(violators.empty());
}

TEST_F(DataBufferTest, WriterReadingItsOwnWrite)
{
    openColumns({1});
    buffer.write(1, "rec", Value(9));
    auto r = buffer.read(1, "rec");
    ASSERT_TRUE(r.forwarded);
    EXPECT_EQ(r.value->asInt(), 9);
}

TEST_F(DataBufferTest, ReaderWithWBitBeforeReadIsNotViolated)
{
    openColumns({1, 2});
    // Function 2 writes first (redefinition), then reads its own
    // value: a later predecessor write is WAW + the read is not
    // exposed — no squash.
    buffer.write(2, "rec", Value(5));
    (void)buffer.read(2, "rec");
    auto violators = buffer.write(1, "rec", Value(1));
    EXPECT_TRUE(violators.empty());
}

TEST_F(DataBufferTest, WawResolvesByProgramOrderAtCommit)
{
    openColumns({1, 2});
    buffer.write(2, "rec", Value(2)); // younger write issued first
    buffer.write(1, "rec", Value(1));
    buffer.commitColumn(1);
    EXPECT_EQ(store.peek("rec")->asInt(), 1);
    buffer.commitColumn(2);
    EXPECT_EQ(store.peek("rec")->asInt(), 2); // program order wins
}

TEST_F(DataBufferTest, CommitFlushesOnlyWrites)
{
    openColumns({1});
    (void)buffer.read(1, "read-only");
    buffer.write(1, "written", Value(1));
    buffer.commitColumn(1);
    EXPECT_FALSE(store.peek("read-only").has_value());
    EXPECT_TRUE(store.peek("written").has_value());
    EXPECT_EQ(buffer.columnCount(), 0u);
    EXPECT_EQ(buffer.rowCount(), 0u);
}

TEST_F(DataBufferTest, InvalidateDiscardsWrites)
{
    openColumns({1, 2});
    buffer.write(2, "rec", Value(2));
    buffer.invalidateColumn(2);
    EXPECT_EQ(buffer.columnCount(), 1u);
    auto r = buffer.read(1, "rec");
    EXPECT_FALSE(r.forwarded);
    buffer.commitColumn(1);
    EXPECT_FALSE(store.peek("rec").has_value());
}

TEST_F(DataBufferTest, MergeMovesWritesToCaller)
{
    // Caller 1, callee 2 (ordered after the caller, §V-D).
    buffer.addColumn(1, OrderKey{0});
    buffer.addColumn(2, OrderKey{0, 0});
    buffer.write(2, "rec", Value(7));
    buffer.mergeColumn(2, 1);
    EXPECT_EQ(buffer.columnCount(), 1u);
    EXPECT_TRUE(buffer.hasWrite(1, "rec"));
    buffer.commitColumn(1);
    EXPECT_EQ(store.peek("rec")->asInt(), 7);
}

TEST_F(DataBufferTest, MergePropagatesReadBits)
{
    buffer.addColumn(1, OrderKey{1});
    buffer.addColumn(2, OrderKey{1, 0});
    buffer.addColumn(9, OrderKey{0}); // predecessor of the caller
    (void)buffer.read(2, "rec");      // callee reads prematurely
    buffer.mergeColumn(2, 1);
    // The predecessor's late write must now squash the caller, which
    // absorbed the callee's exposure.
    auto violators = buffer.write(9, "rec", Value(1));
    ASSERT_EQ(violators.size(), 1u);
    EXPECT_EQ(violators[0], 1u);
}

TEST_F(DataBufferTest, MergedWriteForwardsToLaterReaders)
{
    buffer.addColumn(1, OrderKey{0});
    buffer.addColumn(2, OrderKey{0, 0});
    buffer.addColumn(3, OrderKey{1});
    buffer.write(2, "rec", Value(3));
    buffer.mergeColumn(2, 1);
    auto r = buffer.read(3, "rec");
    ASSERT_TRUE(r.forwarded);
    EXPECT_EQ(r.value->asInt(), 3);
}

TEST_F(DataBufferTest, ForwardProvenanceTracksReaders)
{
    openColumns({1, 2});
    buffer.write(1, "rec", Value(1));
    (void)buffer.read(2, "rec");
    auto readers = buffer.readersForwardedFrom(1);
    ASSERT_EQ(readers.size(), 1u);
    EXPECT_EQ(readers[0], 2u);
    // Commit makes the data architectural: no longer speculative.
    buffer.commitColumn(1);
    EXPECT_TRUE(buffer.readersForwardedFrom(1).empty());
}

TEST_F(DataBufferTest, ProvenanceRemapsOnMerge)
{
    buffer.addColumn(1, OrderKey{0});
    buffer.addColumn(2, OrderKey{0, 0});
    buffer.addColumn(3, OrderKey{1});
    buffer.write(2, "rec", Value(1));
    (void)buffer.read(3, "rec"); // 3 forwarded from callee 2
    buffer.mergeColumn(2, 1);
    auto readers = buffer.readersForwardedFrom(1);
    ASSERT_EQ(readers.size(), 1u);
    EXPECT_EQ(readers[0], 3u);
}

/**
 * Property: for any interleaving of single-writer/single-reader
 * accesses where the reader reads after the writer's write was
 * buffered, the forwarded value equals the writer's value; when the
 * reader read first, the writer's write reports the violation.
 */
class RawOrderProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(RawOrderProperty, DetectsExactlyOutOfOrderRaw)
{
    KvStore store;
    DataBuffer buffer(store);
    buffer.addColumn(1, OrderKey{0});
    buffer.addColumn(2, OrderKey{1});
    const bool read_first = GetParam() % 2 == 0;
    const std::string key = "k" + std::to_string(GetParam());
    if (read_first) {
        (void)buffer.read(2, key);
        auto violators = buffer.write(1, key, Value(GetParam()));
        ASSERT_EQ(violators.size(), 1u);
    } else {
        buffer.write(1, key, Value(GetParam()));
        auto r = buffer.read(2, key);
        ASSERT_TRUE(r.forwarded);
        EXPECT_EQ(r.value->asInt(), GetParam());
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RawOrderProperty,
                         ::testing::Range(0, 12));

/**
 * The sorted-columns Data Buffer that the sparse one replaced, kept
 * as an oracle: every access sorts all live columns by program order
 * and scans them; commit, merge and squash walk every row.
 */
class ReferenceBuffer
{
  public:
    explicit ReferenceBuffer(KvStore& store) : store_(store) {}

    void addColumn(InstanceId o, OrderKey k) { columns_[o] = std::move(k); }

    BufferReadResult
    read(InstanceId reader, const std::string& key)
    {
        BufferReadResult result;
        auto& row = rows_[key];
        Cell& own = row[reader];
        if (own.written) {
            result.value = own.value;
            result.forwarded = true;
            return result;
        }
        const auto order = ordered();
        for (auto it = std::make_reverse_iterator(
                 std::find(order.begin(), order.end(), reader));
             it != order.rend(); ++it) {
            auto cit = row.find(*it);
            if (cit != row.end() && cit->second.written) {
                result.value = cit->second.value;
                result.forwarded = true;
                ++forwards;
                sources_[reader].insert(*it);
                break;
            }
        }
        own.read = true;
        return result;
    }

    std::vector<InstanceId>
    write(InstanceId writer, const std::string& key, Value value)
    {
        auto& row = rows_[key];
        std::vector<InstanceId> violators;
        const auto order = ordered();
        auto it = std::find(order.begin(), order.end(), writer);
        for (++it; it != order.end(); ++it) {
            auto cit = row.find(*it);
            if (cit != row.end() && cit->second.read)
                violators.push_back(*it);
            if (cit != row.end() && cit->second.written)
                break;
        }
        row[writer].written = true;
        row[writer].value = std::move(value);
        return violators;
    }

    void
    commit(InstanceId owner)
    {
        close(owner, [&](const std::string& key, Cell& c) {
            if (c.written)
                store_.put(key, std::move(c.value));
        });
    }

    void invalidate(InstanceId owner) { close(owner, [](auto&, Cell&) {}); }

    void
    merge(InstanceId callee, InstanceId caller)
    {
        sources_[caller].insert(sources_[callee].begin(),
                                sources_[callee].end());
        for (auto& [reader, writers] : sources_)
            if (writers.erase(callee) > 0)
                writers.insert(caller);
        close(callee, [&](const std::string& key, Cell& c) {
            Cell& dst = rows_[key][caller];
            dst.read = dst.read || c.read;
            if (c.written) {
                dst.written = true;
                dst.value = std::move(c.value);
            }
        });
    }

    std::vector<InstanceId>
    readersForwardedFrom(InstanceId writer) const
    {
        std::vector<InstanceId> out;
        for (const auto& [reader, writers] : sources_)
            if (reader != writer && writers.count(writer) > 0)
                out.push_back(reader);
        return out;
    }

    const OrderKey*
    columnOrder(InstanceId o) const
    {
        auto it = columns_.find(o);
        return it == columns_.end() ? nullptr : &it->second;
    }

    bool
    hasWrite(InstanceId o, const std::string& key) const
    {
        auto it = rows_.find(key);
        return it != rows_.end() && it->second.count(o) > 0 &&
               it->second.at(o).written;
    }

    std::size_t rowCount() const { return rows_.size(); }

    std::uint64_t forwards = 0;

  private:
    struct Cell
    {
        bool read = false;
        bool written = false;
        Value value;
    };

    std::vector<InstanceId>
    ordered() const
    {
        std::vector<InstanceId> out;
        for (const auto& [o, k] : columns_)
            out.push_back(o);
        std::sort(out.begin(), out.end(),
                  [this](InstanceId a, InstanceId b) {
                      return orderKeyLess(columns_.at(a), columns_.at(b));
                  });
        return out;
    }

    template <typename Fn>
    void
    close(InstanceId owner, Fn&& fn)
    {
        for (auto it = rows_.begin(); it != rows_.end();) {
            auto cit = it->second.find(owner);
            if (cit != it->second.end()) {
                fn(it->first, cit->second);
                it->second.erase(cit);
            }
            it = it->second.empty() ? rows_.erase(it) : std::next(it);
        }
        columns_.erase(owner);
        sources_.erase(owner);
        for (auto& [reader, writers] : sources_)
            writers.erase(owner);
    }

    KvStore& store_;
    std::map<InstanceId, OrderKey> columns_;
    std::map<std::string, std::map<InstanceId, Cell>> rows_;
    std::map<InstanceId, std::set<InstanceId>> sources_;
};

/**
 * Property: random column lifetimes — nested callee order keys,
 * merges into callers, suffix squashes, out-of-order commits and
 * accesses to short and heap-sized keys — leave the buffer and the
 * sorted-columns reference observably identical after every step.
 */
TEST(DataBufferDifferential, MatchesSortedColumnsReference)
{
    const std::string keys[] = {"a", "b", "c",
                                "a-record-key-longer-than-sso"};
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        KvStore store;
        KvStore refStore;
        DataBuffer buffer(store);
        ReferenceBuffer ref(refStore);
        std::vector<InstanceId> live;
        std::map<InstanceId, OrderKey> orders;
        InstanceId nextId = 1;
        std::uint64_t violations = 0;
        std::int64_t nextValue = 0;

        const auto close = [&](InstanceId id) {
            live.erase(std::find(live.begin(), live.end(), id));
        };
        const auto byOrder = [&](InstanceId a, InstanceId b) {
            return orderKeyLess(orders.at(a), orders.at(b));
        };
        const auto pick = [&]() {
            return live[rng.uniformInt(live.size())];
        };
        const auto key = [&]() -> const std::string& {
            return keys[rng.uniformInt(std::size(keys))];
        };

        for (int step = 0; step < 160; ++step) {
            const auto op = rng.uniformInt(std::uint64_t{12});
            if (live.size() < 2 || (op == 0 && live.size() < 14)) {
                // A top-level function, or a callee nested under a
                // live caller; keys stay unique among live columns.
                OrderKey k;
                if (!live.empty() && rng.bernoulli(0.5))
                    k = orders.at(pick());
                k.push_back(static_cast<std::int32_t>(
                    rng.uniformInt(k.empty() ? 24 : 3)));
                bool taken = false;
                for (InstanceId id : live)
                    taken = taken || orders.at(id) == k;
                if (taken)
                    continue;
                const InstanceId id = nextId++;
                orders[id] = k;
                live.push_back(id);
                buffer.addColumn(id, k);
                ref.addColumn(id, k);
            } else if (op <= 4) {
                const InstanceId id = pick();
                const std::string& k = key();
                const auto got = buffer.read(id, k);
                const auto want = ref.read(id, k);
                ASSERT_EQ(got.forwarded, want.forwarded);
                ASSERT_EQ(got.value, want.value);
            } else if (op <= 7) {
                const InstanceId id = pick();
                const std::string& k = key();
                const Value v(nextValue++);
                const auto got = buffer.write(id, k, v);
                ASSERT_EQ(got, ref.write(id, k, v));
                violations += got.size();
            } else if (op == 8) {
                // Merge a callee whose immediate caller is live.
                const InstanceId callee = pick();
                OrderKey parent = orders.at(callee);
                parent.pop_back();
                for (InstanceId caller : live) {
                    if (!parent.empty() && orders.at(caller) == parent) {
                        buffer.mergeColumn(callee, caller);
                        ref.merge(callee, caller);
                        close(callee);
                        break;
                    }
                }
            } else if (op == 9) {
                // Commit, usually the program-order head.
                const InstanceId id =
                    rng.bernoulli(0.8)
                        ? *std::min_element(live.begin(), live.end(),
                                            byOrder)
                        : pick();
                buffer.commitColumn(id);
                ref.commit(id);
                close(id);
            } else if (op == 10) {
                // Squash a program-order suffix, youngest first.
                const OrderKey from = orders.at(pick());
                std::vector<InstanceId> victims;
                for (InstanceId id : live)
                    if (!orderKeyLess(orders.at(id), from))
                        victims.push_back(id);
                std::sort(victims.rbegin(), victims.rend(), byOrder);
                for (InstanceId id : victims) {
                    buffer.invalidateColumn(id);
                    ref.invalidate(id);
                    close(id);
                }
            } else {
                const InstanceId id = pick();
                buffer.invalidateColumn(id);
                ref.invalidate(id);
                close(id);
            }

            for (InstanceId id = 1; id < nextId; ++id) {
                const OrderKey* got = buffer.columnOrder(id);
                const OrderKey* want = ref.columnOrder(id);
                ASSERT_EQ(got == nullptr, want == nullptr) << id;
                ASSERT_EQ(buffer.hasColumn(id), want != nullptr) << id;
                if (got != nullptr) {
                    ASSERT_EQ(*got, *want) << id;
                }
            }
            for (InstanceId id : live) {
                ASSERT_EQ(buffer.readersForwardedFrom(id),
                          ref.readersForwardedFrom(id))
                    << id;
                for (const std::string& k : keys)
                    ASSERT_EQ(buffer.hasWrite(id, k), ref.hasWrite(id, k));
            }
            ASSERT_EQ(buffer.columnCount(), live.size());
            ASSERT_EQ(buffer.rowCount(), ref.rowCount());
            ASSERT_EQ(buffer.forwards(), ref.forwards);
            ASSERT_EQ(buffer.violations(), violations);
        }

        // Retire the rest in program order; the stores must agree.
        std::sort(live.begin(), live.end(), byOrder);
        for (InstanceId id : live) {
            buffer.commitColumn(id);
            ref.commit(id);
        }
        EXPECT_EQ(buffer.rowCount(), 0u);
        EXPECT_TRUE(store.contents() == refStore.contents());
    }
}

} // namespace
} // namespace specfaas
