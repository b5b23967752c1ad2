/**
 * @file
 * Minimal logging and assertion facility.
 *
 * Follows the gem5 split between conditions that indicate a bug in the
 * simulator itself (panic / SPECFAAS_ASSERT) and conditions caused by
 * bad user input (fatal).
 */

#ifndef SPECFAAS_COMMON_LOGGING_HH
#define SPECFAAS_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace specfaas {

/**
 * Report an internal invariant violation and abort. Never returns.
 * Use for simulator bugs, not user mistakes.
 */
[[noreturn]] void panic(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1).
 * Never returns.
 */
[[noreturn]] void fatal(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Backend for SPECFAAS_ASSERT; reports and aborts. */
[[noreturn]] void panicAssert(const char* file, int line,
                              const char* cond, const std::string& msg);

/** printf into a std::string. */
std::string strFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf into a std::string. */
std::string strFormatV(const char* fmt, std::va_list args);

} // namespace specfaas

/**
 * Assert an internal invariant with a formatted diagnostic. Always
 * enabled (simulation correctness depends on these invariants and the
 * cost is negligible next to the event-queue work).
 */
#define SPECFAAS_ASSERT(cond, ...)                                        \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::specfaas::panicAssert(__FILE__, __LINE__, #cond,            \
                                    ::specfaas::strFormat(__VA_ARGS__));  \
        }                                                                 \
    } while (0)

#endif // SPECFAAS_COMMON_LOGGING_HH
