#include "logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace specfaas {

namespace {

void
emit(const char* tag, const char* fmt, std::va_list args)
{
    std::fprintf(stderr, "[%s] ", tag);
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
}

} // namespace

void
panic(const char* fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    emit("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char* fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    emit("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
panicAssert(const char* file, int line, const char* cond,
            const std::string& msg)
{
    std::fprintf(stderr, "[panic] assertion failed at %s:%d: %s — %s\n",
                 file, line, cond, msg.c_str());
    std::abort();
}

std::string
strFormatV(const char* fmt, std::va_list args)
{
    // Single-pass fast path: nearly every formatted string in the
    // simulator (ids, counters, field values) fits a stack buffer, so
    // the measure-allocate-format dance is reserved for the rare long
    // result.
    char local[192];
    std::va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(local, sizeof local, fmt, args_copy);
    va_end(args_copy);
    if (needed <= 0)
        return {};
    if (static_cast<std::size_t>(needed) < sizeof local)
        return std::string(local, static_cast<std::size_t>(needed));
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<std::size_t>(needed));
}

std::string
strFormat(const char* fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string out = strFormatV(fmt, args);
    va_end(args);
    return out;
}

} // namespace specfaas
