#include "data_buffer.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"

namespace specfaas {

namespace {

/** Remove @p v from an unordered index list (it is present once). */
template <std::size_t N>
void
eraseValue(SmallVector<std::uint32_t, N>& list, std::uint32_t v)
{
    auto it = std::find(list.begin(), list.end(), v);
    SPECFAAS_ASSERT(it != list.end(), "unlinked index %u", v);
    *it = list.back();
    list.pop_back();
}

} // namespace

DataBuffer::Index
DataBuffer::findColumn(InstanceId owner) const
{
    auto it = std::find(owners_.begin(), owners_.end(), owner);
    return it == owners_.end() ? kNone
                               : static_cast<Index>(it - owners_.begin());
}

DataBuffer::Index
DataBuffer::rowFor(const std::string& key)
{
    const std::size_t hash = std::hash<std::string>{}(key);
    Index free = kNone;
    for (Index r = 0; r < rows_.size(); ++r) {
        const Row& row = rows_[r];
        if (row.hash == hash && !row.cells.empty() && row.key == key)
            return r;
        if (free == kNone && row.cells.empty())
            free = r;
    }
    if (free == kNone) {
        free = static_cast<Index>(rows_.size());
        rows_.emplace_back();
    }
    rows_[free].key = key;
    rows_[free].hash = hash;
    return free;
}

std::size_t
DataBuffer::cellOf(const Row& row, Index c)
{
    std::size_t pos = 0;
    while (pos < row.cells.size() && row.cells[pos].column != c)
        ++pos;
    return pos;
}

std::size_t
DataBuffer::cellFor(Index r, Index c)
{
    Row& row = rows_[r];
    const std::size_t pos = cellOf(row, c);
    if (pos == row.cells.size()) {
        row.cells.emplace_back().column = c;
        columns_[c].rows.push_back(r);
    }
    return pos;
}

void
DataBuffer::link(Index reader, Index writer)
{
    auto& sources = columns_[reader].sources;
    if (std::find(sources.begin(), sources.end(), writer) != sources.end())
        return;
    sources.push_back(writer);
    columns_[writer].readers.push_back(reader);
}

template <typename Flush>
void
DataBuffer::closeColumn(Index c, Flush&& flush)
{
    Column& col = columns_[c];
    for (Index r : col.rows) {
        const std::size_t pos = cellOf(rows_[r], c);
        flush(r, pos);
        // A row left without cells is a free slot.
        std::vector<Cell>& cells = rows_[r].cells;
        if (pos + 1 != cells.size())
            cells[pos] = std::move(cells.back());
        cells.pop_back();
    }
    for (Index w : col.sources)
        eraseValue(columns_[w].readers, c);
    for (Index rd : col.readers)
        eraseValue(columns_[rd].sources, c);
    col.rows.clear();
    col.sources.clear();
    col.readers.clear();
    owners_[c] = kFree;
}

void
DataBuffer::addColumn(InstanceId owner, OrderKey order)
{
    SPECFAAS_ASSERT(owner != kFree && findColumn(owner) == kNone,
                    "duplicate column %llu",
                    static_cast<unsigned long long>(owner));
    const Index c = findColumn(kFree);
    if (c == kNone) {
        owners_.push_back(owner);
        columns_.emplace_back().order = std::move(order);
    } else {
        owners_[c] = owner;
        columns_[c].order = std::move(order);
    }
}

bool
DataBuffer::hasColumn(InstanceId owner) const
{
    return findColumn(owner) != kNone;
}

std::size_t
DataBuffer::columnCount() const
{
    return owners_.size() -
           static_cast<std::size_t>(
               std::count(owners_.begin(), owners_.end(), kFree));
}

std::size_t
DataBuffer::rowCount() const
{
    return static_cast<std::size_t>(
        std::count_if(rows_.begin(), rows_.end(),
                      [](const Row& row) { return !row.cells.empty(); }));
}

void
DataBuffer::invalidateColumn(InstanceId owner)
{
    const Index c = findColumn(owner);
    if (c != kNone)
        closeColumn(c, [](Index, std::size_t) {});
}

BufferReadResult
DataBuffer::read(InstanceId reader, const std::string& key)
{
    const Index c = findColumn(reader);
    SPECFAAS_ASSERT(c != kNone, "read without column");
    BufferReadResult result;

    const Index r = rowFor(key);
    const std::size_t own = cellFor(r, c);
    Row& row = rows_[r];

    // The reader's own cell first: a read after the function's own
    // write is NOT exposed (§V-C) — it observes the function's own
    // value and must not set the R bit, so a predecessor's later
    // write to the record does not squash this function (its W bit
    // already shields it in the write scan).
    if (row.cells[own].written) {
        result.value = row.cells[own].value;
        result.forwarded = true;
        return result;
    }

    // §V-C Read Operation: forward the youngest predecessor's value.
    const OrderKey& order = columns_[c].order;
    const Cell* from = nullptr;
    for (const Cell& cell : row.cells) {
        if (!cell.written)
            continue;
        const OrderKey& o = columns_[cell.column].order;
        if (orderKeyLess(o, order) &&
            (from == nullptr ||
             orderKeyLess(columns_[from->column].order, o))) {
            from = &cell;
        }
    }
    if (from != nullptr) {
        result.value = from->value;
        result.forwarded = true;
        ++forwards_;
        link(c, from->column);
    }

    row.cells[own].read = true;
    return result;
}

std::vector<InstanceId>
DataBuffer::write(InstanceId writer, const std::string& key, Value value)
{
    const Index c = findColumn(writer);
    SPECFAAS_ASSERT(c != kNone, "write without column");
    const Index r = rowFor(key);
    const Row& row = rows_[r];
    const OrderKey& order = columns_[c].order;

    // §V-C Write Operation: successors up to and including the first
    // one that re-defined the record (the oldest later W bit) that
    // read it prematurely are violations.
    const OrderKey* stop = nullptr;
    for (const Cell& cell : row.cells) {
        const OrderKey& o = columns_[cell.column].order;
        if (cell.written && orderKeyLess(order, o) &&
            (stop == nullptr || orderKeyLess(o, *stop))) {
            stop = &o;
        }
    }
    SmallVector<Index, 8> hits;
    for (const Cell& cell : row.cells) {
        const OrderKey& o = columns_[cell.column].order;
        if (cell.read && orderKeyLess(order, o) &&
            (stop == nullptr || !orderKeyLess(*stop, o))) {
            hits.push_back(cell.column);
        }
    }
    std::sort(hits.begin(), hits.end(), [this](Index a, Index b) {
        return orderKeyLess(columns_[a].order, columns_[b].order);
    });
    std::vector<InstanceId> violators;
    violators.reserve(hits.size());
    for (Index v : hits)
        violators.push_back(owners_[v]);
    violations_ += hits.size();

    const std::size_t at = cellFor(r, c);
    Cell& own = rows_[r].cells[at];
    own.written = true;
    own.value = std::move(value);
    return violators;
}

void
DataBuffer::commitColumn(InstanceId owner)
{
    const Index c = findColumn(owner);
    SPECFAAS_ASSERT(c != kNone, "commit without column");
    // Committed data is architectural; closing the column also drops
    // its forwarding links, as forwarded copies of it are no longer
    // speculative.
    closeColumn(c, [this](Index r, std::size_t pos) {
        Cell& cell = rows_[r].cells[pos];
        if (cell.written)
            store_.put(rows_[r].key, std::move(cell.value));
    });
}

void
DataBuffer::mergeColumn(InstanceId callee, InstanceId caller)
{
    const Index from = findColumn(callee);
    const Index to = findColumn(caller);
    SPECFAAS_ASSERT(from != kNone, "merge without callee column");
    SPECFAAS_ASSERT(to != kNone, "merge without caller column");
    // Re-attribute forwarded values to the caller, both ways. A link
    // between callee and caller would become a self-link, which never
    // names a reader to squash, so it is dropped.
    for (Index w : columns_[from].sources)
        if (w != to)
            link(to, w);
    for (Index rd : columns_[from].readers)
        if (rd != to)
            link(rd, to);
    closeColumn(from, [this, to](Index r, std::size_t pos) {
        const std::size_t at = cellFor(r, to);
        Cell& src = rows_[r].cells[pos];
        Cell& dst = rows_[r].cells[at];
        dst.read = dst.read || src.read;
        if (src.written) {
            dst.written = true;
            dst.value = std::move(src.value);
        }
    });
}

bool
DataBuffer::hasWrite(InstanceId owner, const std::string& key) const
{
    const Index c = findColumn(owner);
    if (c == kNone)
        return false;
    for (Index r : columns_[c].rows) {
        const Row& row = rows_[r];
        if (row.key == key)
            return row.cells[cellOf(row, c)].written;
    }
    return false;
}

std::vector<InstanceId>
DataBuffer::readersForwardedFrom(InstanceId writer) const
{
    std::vector<InstanceId> out;
    const Index c = findColumn(writer);
    if (c == kNone)
        return out;
    for (Index rd : columns_[c].readers)
        out.push_back(owners_[rd]);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace specfaas
