/**
 * @file
 * Shared helpers for the paper-reproduction benchmark binaries and the
 * command-line tools beside them: the paper's machine configuration,
 * report formatting, and the one --name=value flag parser, whose
 * numbers go through the library's number parser (common/text.hh).
 */

#ifndef MTFPU_BENCH_BENCH_UTIL_HH
#define MTFPU_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>

#include "common/sim_error.hh"
#include "common/text.hh"
#include "machine/machine.hh"

namespace mtfpu::bench
{

/** A malformed command line; a tool reports it as its usage error and
 *  exits 2. */
class UsageError : public FatalError
{
  public:
    using FatalError::FatalError;
};

/** True, with @p value set, when @p arg is `<name>=<value>`. */
inline bool
flagValue(const char *arg, const char *name, std::string &value)
{
    const size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    value = arg + n + 1;
    return true;
}

/**
 * @p text, the value of flag @p name, as a T: decimal digits that fit
 * an unsigned T, or a decimal number for a floating-point T, read by
 * the one number parser (common/text.hh). Anything else (empty, a
 * sign on an unsigned T, trailing characters, overflow) throws
 * UsageError.
 */
template <typename T>
T
flagNumber(const char *name, const std::string &text)
{
    static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
    if (const std::optional<T> value = parseNumber<T>(text))
        return *value;
    throw UsageError(std::string(name) + "=" + text +
                     ": not a valid number for this flag");
}

/** Machine with the paper's parameters but no cache modeling (the
 *  worked examples assume hit-free execution). */
inline machine::MachineConfig
idealMemoryConfig()
{
    machine::MachineConfig cfg;
    cfg.memory.modelCaches = false;
    return cfg;
}

/** Banner for one experiment section. */
inline void
banner(const std::string &title)
{
    std::printf("\n=============================================="
                "=========================\n%s\n"
                "=============================================="
                "=========================\n",
                title.c_str());
}

/** Print a paper-vs-measured line. */
inline void
compareLine(const std::string &what, double paper, double measured,
            const char *unit)
{
    std::printf("  %-44s paper: %8.1f %-7s measured: %8.1f %s\n",
                what.c_str(), paper, unit, measured, unit);
}

} // namespace mtfpu::bench

#endif // MTFPU_BENCH_BENCH_UTIL_HH
