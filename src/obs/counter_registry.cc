#include "counter_registry.hh"

#include <cstdio>

#include "common/logging.hh"
#include "common/table.hh"

namespace specfaas::obs {

std::uint64_t&
CounterRegistry::counter(const std::string& name)
{
    return counters_[name];
}

double&
CounterRegistry::gauge(const std::string& name)
{
    return gauges_[name];
}

void
CounterRegistry::add(const std::string& name, std::uint64_t delta)
{
    counters_[name] += delta;
}

void
CounterRegistry::set(const std::string& name, double value)
{
    gauges_[name] = value;
}

std::uint64_t
CounterRegistry::value(const std::string& name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, double>>
CounterRegistry::snapshot() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(entryCount());
    for (const auto& [name, v] : counters_)
        out.emplace_back(name, static_cast<double>(v));
    for (const auto& [name, v] : gauges_)
        out.emplace_back(name, v);
    return out;
}

void
CounterRegistry::mergeInto(CounterRegistry& dst) const
{
    for (const auto& [name, v] : counters_)
        dst.counters_[name] += v;
    for (const auto& [name, v] : gauges_)
        dst.gauges_[name] = v;
}

std::string
CounterRegistry::table() const
{
    TextTable t;
    t.header({"counter", "value"});
    for (const auto& [name, v] : counters_)
        t.row({name, strFormat("%llu",
                               static_cast<unsigned long long>(v))});
    if (!counters_.empty() && !gauges_.empty())
        t.separator();
    for (const auto& [name, v] : gauges_)
        t.row({name, fmtDouble(v, 3)});
    return t.render();
}

void
CounterRegistry::printTable() const
{
    std::fputs(table().c_str(), stdout);
}

void
CounterRegistry::clear()
{
    counters_.clear();
    gauges_.clear();
}

} // namespace specfaas::obs
