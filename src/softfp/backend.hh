/**
 * @file
 * Selectable softfp execution backends.
 *
 * `Soft` is the original bit-level IEEE-754 implementation (fp64.hh),
 * kept as the reference. `HostFast` computes add, subtract, multiply,
 * float, and truncate with native host doubles — legal because those
 * units are documented bit-exact IEEE-754 round-to-nearest-even, so a
 * conforming host FPU produces the same bit patterns — and detects
 * the flag-bearing and special cases cheaply, falling back to the
 * `Soft` path for them:
 *
 *  - any NaN, infinity, zero, or subnormal operand;
 *  - results that leave the safely-normal range (overflow, underflow
 *    to subnormal/zero, exact cancellation, the top normal binade,
 *    and for multiplication also the bottom one, where rounding can
 *    happen at subnormal granularity);
 *  - the paper-specific reciprocal-approximation and iteration-step
 *    units, which always use the table-driven Soft implementation.
 *
 * Inside the guarded range the only IEEE flag an operation can raise
 * is inexact, which is recovered exactly without touching the host
 * floating-point environment: addition uses the Møller/Knuth TwoSum
 * error term (the rounding error of an addition is itself always
 * representable), multiplication counts significant product bits with
 * a 128-bit integer multiply, and the conversions use pure integer
 * significand checks. tests/test_softfp_backend.cc cross-checks both
 * backends for identical result bits *and* identical Flags on a
 * directed special-case corpus plus randomized sweeps.
 */

#ifndef MTFPU_SOFTFP_BACKEND_HH
#define MTFPU_SOFTFP_BACKEND_HH

#include <cstdint>

#include "common/text.hh"
#include "softfp/fp64.hh"

namespace mtfpu::softfp
{

/** Which softfp implementation executes FPU ALU elements. */
enum class Backend : uint8_t
{
    Soft,     // bit-level reference implementation
    HostFast, // native host FP fast path with Soft fallback
};

/** Stable backend names, "soft" / "host-fast" (common/text.hh). */
constexpr auto
enumNames(Backend)
{
    return nameTable<Backend>({
        {Backend::Soft, "soft"}, {Backend::HostFast, "host-fast"},
    });
}

/** Addition via the host FPU; bit- and flag-identical to fpAdd. */
uint64_t fpAddHost(uint64_t a, uint64_t b, Flags &flags);
/** Subtraction via the host FPU; bit- and flag-identical to fpSub. */
uint64_t fpSubHost(uint64_t a, uint64_t b, Flags &flags);
/** Multiplication via the host FPU; bit- and flag-identical to fpMul. */
uint64_t fpMulHost(uint64_t a, uint64_t b, Flags &flags);
/** int64 -> double via the host FPU; identical to fpFloat. */
uint64_t fpFloatHost(uint64_t a, Flags &flags);
/** double -> int64 via the host FPU; identical to fpTruncate. */
uint64_t fpTruncateHost(uint64_t a, Flags &flags);

/**
 * Backend-dispatching variant of fpuOperate (Figure-4 unit/func
 * table). Identical results and flags for either backend.
 */
uint64_t fpuOperate(Backend backend, unsigned unit, unsigned func,
                    uint64_t a, uint64_t b, Flags &flags);

} // namespace mtfpu::softfp

#endif // MTFPU_SOFTFP_BACKEND_HH
