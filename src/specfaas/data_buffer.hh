/**
 * @file
 * The Data Buffer (§V-C).
 *
 * One Data Buffer exists per application invocation, on the node
 * running the invocation's controller. It buffers the global-storage
 * updates of in-progress (uncommitted) functions and detects data
 * dependences between concurrently executing functions:
 *
 *  - in-order RAW: the read is served from the predecessor's column
 *    (forwarding);
 *  - out-of-order RAW: the premature reader (and, transitively, its
 *    successors — handled by the controller) is squashed;
 *  - WAR / WAW: handled without squashes by column ordering.
 *
 * The table is stored sparsely. Each row (record) holds only the
 * cells of the columns that touched it, unordered; a cell names its
 * column, and the column carries its program order (OrderKey). A read
 * or write therefore compares the order keys of one row's few cells
 * and never sorts the columns. Each column lists the rows it touched
 * and the columns it exchanged forwarded values with, so commit,
 * merge and squash visit only that column's own cells. The paper's
 * fixed-geometry circular buffer bounds the column count; here the
 * controller's speculation-depth throttle does.
 */

#ifndef SPECFAAS_SPECFAAS_DATA_BUFFER_HH
#define SPECFAAS_SPECFAAS_DATA_BUFFER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/small_vector.hh"
#include "common/types.hh"
#include "common/value.hh"
#include "runtime/instance.hh"
#include "storage/kv_store.hh"

namespace specfaas {

/** Outcome of a buffered read. */
struct BufferReadResult
{
    /** Value forwarded from a predecessor column, if any. */
    std::optional<Value> value;
    /** True when forwarded from the buffer (in-order RAW). */
    bool forwarded = false;
};

/** Per-invocation speculative write buffer and dependence detector. */
class DataBuffer
{
  public:
    /** @param store authoritative global storage (commit target). */
    explicit DataBuffer(KvStore& store) : store_(store) {}

    /** Open a column for an in-progress function. */
    void addColumn(InstanceId owner, OrderKey order);

    /** True when @p owner currently has a column. */
    bool hasColumn(InstanceId owner) const;

    /**
     * Invalidate a squashed function's column: all its R/W bits and
     * buffered values disappear.
     */
    void invalidateColumn(InstanceId owner);

    /**
     * Record a read by @p reader. Forwards the value of the youngest
     * predecessor column whose W bit is set for the record, when one
     * exists (the caller otherwise fetches from global storage). Sets
     * the reader's R bit either way.
     */
    BufferReadResult read(InstanceId reader, const std::string& key);

    /**
     * Record a write by @p writer. Scans successor columns in
     * program order up to (and including) the first column with the
     * W bit set; every successor in that range that has prematurely
     * read the record (R bit) is an out-of-order RAW violation.
     * @return violating successor owners, in program order
     */
    std::vector<InstanceId> write(InstanceId writer,
                                  const std::string& key, Value value);

    /**
     * Commit: flush @p owner's buffered writes to global storage and
     * drop the column. Only the controller calls this, for the
     * non-speculative head function.
     */
    void commitColumn(InstanceId owner);

    /**
     * Merge a returning callee's column into its caller's (§V-D):
     * buffered writes overwrite the caller's, R bits accumulate.
     */
    void mergeColumn(InstanceId callee, InstanceId caller);

    /** True when @p owner has a buffered write for @p key. */
    bool hasWrite(InstanceId owner, const std::string& key) const;

    /**
     * Instances that consumed forwarded values produced by @p writer
     * and are still live, in ascending id order. Used when a column
     * is invalidated for a reason other than a write scan (e.g. a
     * never-called speculative callee): its forwarded readers
     * consumed phantom data and must be squashed as well.
     */
    std::vector<InstanceId> readersForwardedFrom(InstanceId writer) const;

    /**
     * Program-order coordinate of @p owner's live column; nullptr
     * when the column was never opened or already closed. Lets the
     * controller translate buffer-reported instance ids straight to
     * pipeline coordinates without its own reverse map. Valid until
     * the next addColumn.
     */
    const OrderKey*
    columnOrder(InstanceId owner) const
    {
        const Index c = findColumn(owner);
        return c == kNone ? nullptr : &columns_[c].order;
    }

    /** Live column count (in-progress functions). */
    std::size_t columnCount() const;

    /** Number of record rows currently tracked. */
    std::size_t rowCount() const;

    /** @{ Event counters. */
    std::uint64_t forwards() const { return forwards_; }
    std::uint64_t violations() const { return violations_; }
    /** @} */

  private:
    /** Slot index into columns_ or rows_. */
    using Index = std::uint32_t;
    static constexpr Index kNone = ~Index{0};
    /** owners_ entry of a free column slot. */
    static constexpr InstanceId kFree = ~InstanceId{0};

    /** One column's R/W bits and buffered value for one record. */
    struct Cell
    {
        Index column = kNone;
        bool read = false;
        bool written = false;
        Value value;
    };

    /** One record; a row with no cells is a free slot. */
    struct Row
    {
        std::string key;
        std::size_t hash = 0;
        std::vector<Cell> cells;
    };

    /** One in-progress function. */
    struct Column
    {
        OrderKey order;
        /** Rows holding a cell of this column. */
        SmallVector<Index, 4> rows;
        /** Columns whose buffered values this column consumed. */
        SmallVector<Index, 2> sources;
        /** Columns that consumed this column's buffered values. */
        SmallVector<Index, 2> readers;
    };

    /** Column slots; owners_[i] is slot i's owner, kFree if unused. */
    std::vector<Column> columns_;
    std::vector<InstanceId> owners_;
    std::vector<Row> rows_;
    KvStore& store_;
    std::uint64_t forwards_ = 0;
    std::uint64_t violations_ = 0;

    Index findColumn(InstanceId owner) const;
    /** The row of @p key, taking a free slot when it has none. */
    Index rowFor(const std::string& key);
    /** Position of column @p c's cell in @p row, cells.size() if none. */
    static std::size_t cellOf(const Row& row, Index c);
    /** Position of column @p c's cell in row @p r, created if absent. */
    std::size_t cellFor(Index r, Index c);
    /** Record that column @p reader consumed @p writer's value. */
    void link(Index reader, Index writer);
    /** Drop column @p c: its cells (after @p flush), links, slot. */
    template <typename Flush>
    void closeColumn(Index c, Flush&& flush);
};

} // namespace specfaas

#endif // SPECFAAS_SPECFAAS_DATA_BUFFER_HH
